#include "common/fault_injection_env.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/logging.h"

namespace vist {
namespace {

Status Crash(uint64_t index) {
  return Status::IOError("injected crash at mutating syscall " +
                         std::to_string(index));
}

bool TraceEnabled() {
  static const bool enabled = ::getenv("VIST_FAULT_TRACE") != nullptr;
  return enabled;
}

void Trace(uint64_t index, const char* op, const std::string& path) {
  if (TraceEnabled()) {
    fprintf(stderr, "[fault-trace] %llu %s %s\n",
            static_cast<unsigned long long>(index), op, path.c_str());
  }
}

Status Transient(const char* op) {
  return Status::IOError(std::string("injected transient fault: ") + op);
}

std::string ParentDir(const std::string& path) {
  return std::filesystem::path(path).parent_path().string();
}

// Reads the whole file behind `file` (best effort; logs on failure).
std::string Snapshot(File* file) {
  auto size = file->Size();
  if (!size.ok()) {
    VIST_LOG(Error) << "fault env snapshot: " << size.status().ToString();
    return {};
  }
  std::string data(*size, '\0');
  size_t got = 0;
  Status s = file->ReadAt(0, data.data(), data.size(), &got);
  if (!s.ok() || got != data.size()) {
    VIST_LOG(Error) << "fault env snapshot short read";
    data.resize(got);
  }
  return data;
}

}  // namespace

// A File wrapper that routes fault accounting through the owning env.
class FaultInjectionFile : public File {
 public:
  FaultInjectionFile(FaultInjectionEnv* env, std::string path,
                     std::unique_ptr<File> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status ReadAt(uint64_t offset, char* buf, size_t n,
                size_t* bytes_read) override {
    VIST_RETURN_IF_ERROR(env_->CheckAlive());
    if (env_->read_faults_ != 0) {
      if (env_->read_faults_ > 0) --env_->read_faults_;
      return Transient("read");
    }
    return base_->ReadAt(offset, buf, n, bytes_read);
  }

  Status WriteAt(uint64_t offset, const char* buf, size_t n) override {
    return WriteCommon(offset, buf, n);
  }

  Status Append(const char* buf, size_t n) override {
    auto size = base_->Size();
    if (!size.ok()) return size.status();
    return WriteCommon(*size, buf, n);
  }

  Status Sync() override {
    VIST_RETURN_IF_ERROR(env_->CheckAlive());
    const uint64_t index = env_->mutations_++;
    Trace(index, "fsync", path_);
    if (static_cast<int64_t>(index) == env_->crash_at_) {
      env_->crashed_ = true;
      return Crash(index);
    }
    VIST_RETURN_IF_ERROR(base_->Sync());
    env_->shadow_[path_].durable_data = Snapshot(base_.get());
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    VIST_RETURN_IF_ERROR(env_->CheckAlive());
    const uint64_t index = env_->mutations_++;
    Trace(index, "truncate", path_);
    if (static_cast<int64_t>(index) == env_->crash_at_) {
      env_->crashed_ = true;
      return Crash(index);
    }
    return base_->Truncate(size);
  }

  Result<uint64_t> Size() override {
    VIST_RETURN_IF_ERROR(env_->CheckAlive());
    return base_->Size();
  }

 private:
  Status WriteCommon(uint64_t offset, const char* buf, size_t n) {
    VIST_RETURN_IF_ERROR(env_->CheckAlive());
    if (env_->write_faults_ != 0) {
      if (env_->writes_before_faults_ > 0) {
        --env_->writes_before_faults_;
      } else {
        if (env_->write_faults_ > 0) --env_->write_faults_;
        return Transient("write");
      }
    }
    const uint64_t index = env_->mutations_++;
    Trace(index, "write", path_);
    std::string flipped;
    if (static_cast<int64_t>(index) == env_->flip_at_ &&
        env_->flip_offset_ < n) {
      flipped.assign(buf, n);
      flipped[env_->flip_offset_] ^= static_cast<char>(env_->flip_mask_);
      buf = flipped.data();
    }
    if (static_cast<int64_t>(index) == env_->crash_at_) {
      env_->crashed_ = true;
      if (env_->torn_bytes_ > 0) {
        const size_t torn =
            std::min(n, static_cast<size_t>(env_->torn_bytes_));
        Status s = base_->WriteAt(offset, buf, torn);
        if (!s.ok()) VIST_LOG(Error) << "torn write: " << s.ToString();
      }
      return Crash(index);
    }
    return base_->WriteAt(offset, buf, n);
  }

  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<File> base_;
};

FaultInjectionEnv::FaultInjectionEnv(Env* base)
    : base_(base != nullptr ? base : Env::Default()) {}

Status FaultInjectionEnv::CheckAlive() const {
  if (crashed_) return Status::IOError("I/O after injected crash");
  return Status::OK();
}

Result<std::unique_ptr<File>> FaultInjectionEnv::Open(
    const std::string& path, const OpenOptions& options) {
  VIST_RETURN_IF_ERROR(CheckAlive());
  VIST_ASSIGN_OR_RETURN(bool existed, base_->FileExists(path));

  // Start tracking a preexisting file the first time it comes through the
  // env: whatever is on disk now is durable.
  auto it = shadow_.find(path);
  if (it == shadow_.end() && existed) {
    OpenOptions ro;
    ro.create = false;
    ro.read_only = true;
    VIST_ASSIGN_OR_RETURN(std::unique_ptr<File> peek, base_->Open(path, ro));
    ShadowFile state;
    state.durable_data = Snapshot(peek.get());
    state.durable_linked = true;
    state.linked = true;
    it = shadow_.emplace(path, std::move(state)).first;
  }

  const bool creates = !existed && options.create && !options.read_only;
  const bool truncates = existed && options.truncate && !options.read_only;
  if (creates || truncates) {
    const uint64_t index = mutations_++;
    Trace(index, creates ? "open-create" : "open-truncate", path);
    if (static_cast<int64_t>(index) == crash_at_) {
      crashed_ = true;
      return Crash(index);
    }
  }

  VIST_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                        base_->Open(path, options));
  if (creates) {
    // The path may already have a shadow entry (create → delete → create
    // again); only the link state changes — durability is untouched until
    // the next Sync/SyncDir.
    shadow_[path].linked = true;
  }
  // A truncating open keeps the durable state: the old durable content
  // reappears after power loss until the new content is synced (and the
  // entry's durability is whatever it was).
  return std::unique_ptr<File>(
      new FaultInjectionFile(this, path, std::move(file)));
}

Result<bool> FaultInjectionEnv::FileExists(const std::string& path) {
  VIST_RETURN_IF_ERROR(CheckAlive());
  return base_->FileExists(path);
}

Status FaultInjectionEnv::DeleteFile(const std::string& path) {
  VIST_RETURN_IF_ERROR(CheckAlive());
  auto it = shadow_.find(path);
  if (it == shadow_.end()) {
    // Untracked file: it predates the env, so it is durably linked; capture
    // its content as what would reappear after power loss.
    VIST_ASSIGN_OR_RETURN(bool existed, base_->FileExists(path));
    ShadowFile state;
    state.durable_linked = existed;
    state.linked = existed;
    if (existed) {
      OpenOptions ro;
      ro.create = false;
      ro.read_only = true;
      VIST_ASSIGN_OR_RETURN(std::unique_ptr<File> peek,
                            base_->Open(path, ro));
      state.durable_data = Snapshot(peek.get());
    }
    it = shadow_.emplace(path, std::move(state)).first;
  }
  const uint64_t index = mutations_++;
  Trace(index, "unlink", path);
  if (static_cast<int64_t>(index) == crash_at_) {
    crashed_ = true;
    return Crash(index);
  }
  VIST_RETURN_IF_ERROR(base_->DeleteFile(path));
  it->second.linked = false;  // durable_linked unchanged until SyncDir
  return Status::OK();
}

Status FaultInjectionEnv::SyncDir(const std::string& dir) {
  VIST_RETURN_IF_ERROR(CheckAlive());
  const uint64_t index = mutations_++;
  Trace(index, "syncdir", dir);
  if (static_cast<int64_t>(index) == crash_at_) {
    crashed_ = true;
    return Crash(index);
  }
  VIST_RETURN_IF_ERROR(base_->SyncDir(dir));
  for (auto& [path, state] : shadow_) {
    if (ParentDir(path) != dir) continue;
    state.durable_linked = state.linked;
    if (!state.durable_linked) state.durable_data.clear();
  }
  return Status::OK();
}

void FaultInjectionEnv::SimulatePowerLoss(
    const std::set<std::string>& keep_unsynced) {
  for (auto& [path, state] : shadow_) {
    if (keep_unsynced.count(path) != 0) continue;  // writeback flushed it
    if (state.durable_linked) {
      OpenOptions rw;
      rw.create = true;
      rw.truncate = true;
      auto file = base_->Open(path, rw);
      if (!file.ok()) {
        VIST_LOG(Error) << "power loss restore: " << file.status().ToString();
        continue;
      }
      Status s = (*file)->WriteAt(0, state.durable_data.data(),
                                  state.durable_data.size());
      if (!s.ok()) VIST_LOG(Error) << "power loss restore: " << s.ToString();
      state.linked = true;
    } else {
      auto exists = base_->FileExists(path);
      if (exists.ok() && *exists) {
        Status s = base_->DeleteFile(path);
        if (!s.ok()) VIST_LOG(Error) << "power loss unlink: " << s.ToString();
      }
      state.linked = false;
    }
  }
}

}  // namespace vist
