// FaultInjectionEnv: an Env test double for storage fault-tolerance tests.
//
// Wraps a base Env (default: Env::Default()) and passes every operation
// through to real files while keeping a shadow model of what would survive
// a power cut:
//
//   * per file, the byte content at the last File::Sync() ("durable data")
//   * per file, whether its directory entry was made durable by a SyncDir()
//     after the creation/deletion ("durably linked")
//
// SimulatePowerLoss() rewrites the real files to that durable state: synced
// content only, files created without a directory sync vanish, files
// deleted without a directory sync reappear with their durable content.
// This is the adversarial POSIX-minimum model (no ordered-mode journaling
// rescues you); code that survives it survives real power loss.
//
// Fault controls (all counted over *mutating* syscalls — writes, appends,
// syncs, truncates, deletes, directory syncs, and creating opens; reads are
// never counted so crash matrices stay dense):
//
//   * set_crash_at_mutation(k, torn_bytes): the k-th mutation fails; if it
//     is a write, only its first `torn_bytes` bytes reach the file (a torn
//     write). Every operation afterwards fails with IOError, like syscalls
//     in a dying process. The files keep their at-crash state, which models
//     a process crash; call SimulatePowerLoss() afterwards to model a power
//     cut at the same instant.
//   * InjectReadFaults(n) / InjectWriteFaults(n, after): the next n
//     reads/writes (writes: once `after` more have succeeded) return a
//     transient IOError (n < 0: every one fails until reset with 0) —
//     exercises retry paths.
//   * FlipBitAtMutation(k, offset, mask): the k-th mutation, if a write,
//     has `buf[offset] ^= mask` applied first — models bit rot at write
//     time for checksum tests.
//
// Single-threaded, like the engine's single-writer contract.

#ifndef VIST_COMMON_FAULT_INJECTION_ENV_H_
#define VIST_COMMON_FAULT_INJECTION_ENV_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "common/env.h"

namespace vist {

class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(Env* base = nullptr);

  Result<std::unique_ptr<File>> Open(const std::string& path,
                                     const OpenOptions& options) override;
  Result<bool> FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;

  // --- crash injection ---

  /// Arranges for the `index`-th mutating syscall (0-based) to fail and all
  /// subsequent operations to fail too. When that syscall is a write, its
  /// first `torn_bytes` bytes are applied before failing (-1: none).
  void set_crash_at_mutation(int64_t index, int64_t torn_bytes = -1) {
    crash_at_ = index;
    torn_bytes_ = torn_bytes;
  }
  bool crashed() const { return crashed_; }
  /// Mutating syscalls observed so far (use a fault-free run to size a
  /// crash matrix).
  uint64_t mutation_count() const { return mutations_; }

  /// Rewrites every tracked file to its durable state (see file comment).
  /// Paths in `keep_unsynced` are left exactly as they are on disk — as if
  /// the kernel's writeback happened to flush them before the cut — which
  /// lets tests model adversarial flush orderings.
  void SimulatePowerLoss(const std::set<std::string>& keep_unsynced = {});

  // --- error injection ---

  /// The next `n` reads (writes) fail with a transient IOError; n < 0
  /// makes every one fail until reset with 0. For writes, `after` further
  /// writes succeed before the faults start, which aims them at one write
  /// in the middle of a sequence.
  void InjectReadFaults(int n) { read_faults_ = n; }
  void InjectWriteFaults(int n, int after = 0) {
    write_faults_ = n;
    writes_before_faults_ = after;
  }

  /// XORs `mask` into byte `offset` of the write performed by the
  /// `index`-th mutation (no effect if that mutation is not a write).
  void FlipBitAtMutation(int64_t index, uint64_t offset, uint8_t mask) {
    flip_at_ = index;
    flip_offset_ = offset;
    flip_mask_ = mask;
  }

 private:
  friend class FaultInjectionFile;

  struct ShadowFile {
    std::string durable_data;   // content at last File::Sync()
    bool durable_linked = false;  // dir entry durable (SyncDir'd)
    bool linked = false;          // dir entry currently exists
  };

  Status CheckAlive() const;

  Env* base_;
  std::map<std::string, ShadowFile> shadow_;
  uint64_t mutations_ = 0;
  int64_t crash_at_ = -1;
  int64_t torn_bytes_ = -1;
  bool crashed_ = false;
  int read_faults_ = 0;
  int write_faults_ = 0;
  int writes_before_faults_ = 0;
  int64_t flip_at_ = -1;
  uint64_t flip_offset_ = 0;
  uint8_t flip_mask_ = 0;
};

}  // namespace vist

#endif  // VIST_COMMON_FAULT_INJECTION_ENV_H_
