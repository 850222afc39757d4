#include "common/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

namespace vist {
namespace {

std::string Errno(const char* op, const std::string& path) {
  std::string msg = op;
  msg += " ";
  msg += path;
  msg += ": ";
  msg += strerror(errno);
  return msg;
}

class PosixFile : public File {
 public:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFile() override {
    if (fd_ >= 0) close(fd_);
  }

  Status ReadAt(uint64_t offset, char* buf, size_t n,
                size_t* bytes_read) override {
    size_t done = 0;
    while (done < n) {
      ssize_t r = pread(fd_, buf + done, n - done,
                        static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(Errno("pread", path_));
      }
      if (r == 0) break;  // end of file
      done += static_cast<size_t>(r);
    }
    *bytes_read = done;
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, const char* buf, size_t n) override {
    size_t done = 0;
    while (done < n) {
      ssize_t w = pwrite(fd_, buf + done, n - done,
                         static_cast<off_t>(offset + done));
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(Errno("pwrite", path_));
      }
      if (w == 0) return Status::IOError("pwrite wrote nothing to " + path_);
      done += static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Append(const char* buf, size_t n) override {
    off_t end = lseek(fd_, 0, SEEK_END);
    if (end < 0) return Status::IOError(Errno("lseek", path_));
    return WriteAt(static_cast<uint64_t>(end), buf, n);
  }

  Status Sync() override {
    if (fdatasync(fd_) != 0) {
      return Status::IOError(Errno("fdatasync", path_));
    }
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::IOError(Errno("ftruncate", path_));
    }
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    struct stat st;
    if (fstat(fd_, &st) != 0) return Status::IOError(Errno("fstat", path_));
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<File>> Open(const std::string& path,
                                     const OpenOptions& options) override {
    int flags = O_CLOEXEC;
    flags |= options.read_only ? O_RDONLY : O_RDWR;
    if (options.create && !options.read_only) flags |= O_CREAT;
    if (options.truncate && !options.read_only) flags |= O_TRUNC;
    int fd = open(path.c_str(), flags, 0644);
    if (fd < 0) return Status::IOError(Errno("open", path));
    return std::unique_ptr<File>(new PosixFile(fd, path));
  }

  Result<bool> FileExists(const std::string& path) override {
    struct stat st;
    if (stat(path.c_str(), &st) == 0) return true;
    if (errno == ENOENT || errno == ENOTDIR) return false;
    return Status::IOError(Errno("stat", path));
  }

  Status DeleteFile(const std::string& path) override {
    if (unlink(path.c_str()) != 0) {
      return Status::IOError(Errno("unlink", path));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return Status::IOError(Errno("open dir", dir));
    int rc = fsync(fd);
    int saved_errno = errno;
    close(fd);
    if (rc != 0) {
      errno = saved_errno;
      return Status::IOError(Errno("fsync dir", dir));
    }
    return Status::OK();
  }
};

}  // namespace

std::string DirectoryOf(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  return dir.empty() ? std::string(".") : dir;
}

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

}  // namespace vist
