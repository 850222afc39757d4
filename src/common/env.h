// Env/File: the seam between the storage layer and the operating system.
//
// Every file-system syscall the pager issues (pread, pwrite, fdatasync,
// unlink, directory fsync) goes through a vist::Env, so tests can substitute
// a FaultInjectionEnv (common/fault_injection_env.h) that injects I/O
// errors, tears writes, and simulates power loss at chosen syscall indices.
// Production code uses Env::Default(), a thin wrapper over POSIX.
//
// The interface is deliberately minimal: positional reads/writes, append,
// data sync, truncate, size — exactly the operations a page file and a
// rollback journal need. No buffering happens in this layer; durability
// ordering is the caller's responsibility (see docs/DURABILITY.md).

#ifndef VIST_COMMON_ENV_H_
#define VIST_COMMON_ENV_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace vist {

/// An open file handle. All methods are synchronous; offsets are absolute.
class File {
 public:
  virtual ~File() = default;

  /// Reads up to `n` bytes at `offset` into `buf`. A read past end-of-file
  /// is not an error: `*bytes_read` reports how much was actually read
  /// (possibly 0). Returns IOError only when the OS rejects the operation.
  virtual Status ReadAt(uint64_t offset, char* buf, size_t n,
                        size_t* bytes_read) = 0;

  /// Writes all `n` bytes at `offset` (extending the file if needed).
  virtual Status WriteAt(uint64_t offset, const char* buf, size_t n) = 0;

  /// Appends all `n` bytes at the current end of file.
  virtual Status Append(const char* buf, size_t n) = 0;

  /// Makes the file's data (and size) durable: fdatasync.
  virtual Status Sync() = 0;

  /// Truncates or extends the file to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Current file size in bytes.
  virtual Result<uint64_t> Size() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  /// The process-wide POSIX environment (never null, never deleted).
  static Env* Default();

  struct OpenOptions {
    bool create = true;     // create the file when absent
    bool truncate = false;  // discard existing contents
    bool read_only = false;
  };

  virtual Result<std::unique_ptr<File>> Open(const std::string& path,
                                             const OpenOptions& options) = 0;

  virtual Result<bool> FileExists(const std::string& path) = 0;

  virtual Status DeleteFile(const std::string& path) = 0;

  /// Makes directory-entry changes under `dir` (file creations and
  /// deletions) durable: open + fsync of the directory. Required between
  /// creating/removing a journal and relying on its presence/absence after
  /// power loss.
  virtual Status SyncDir(const std::string& dir) = 0;
};

/// The directory holding `path` ("." for a bare file name) — the argument
/// SyncDir needs after creating or removing `path`.
std::string DirectoryOf(const std::string& path);

}  // namespace vist

#endif  // VIST_COMMON_ENV_H_
