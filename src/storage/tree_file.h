// TreeFile: one page file with its B+ trees, and the one place that runs
// the copy-on-write version protocol on it (docs/DURABILITY.md "Shadow
// paging", docs/CONCURRENCY.md "Snapshots").
//
// A TreeFile owns the file's Pager, BufferPool and VersionManager. An
// engine creates or opens its trees in meta slots and mutates them only
// inside Write(): the body runs as one write transaction that is either
// published as the next version or rolled back completely. Readers Pin()
// the current version. Flush() makes every published version durable;
// Close(), also run by the destructor, drains the reclaim limbo and then
// flushes, so the synced freelist accounts for every retired page.
//
// Threading: Pin() and size_bytes() are safe from any thread and never
// wait on a writer. Everything else is writer-side and must be serialized
// by the owning engine's writer lock; the TreeFile has no mutex of its
// own.

#ifndef VIST_STORAGE_TREE_FILE_H_
#define VIST_STORAGE_TREE_FILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/version.h"

namespace vist {

class TreeFile {
 public:
  /// Opens (creating if missing) the page file at `path`, with a buffer
  /// pool of `pool_pages` frames (at least 256), and publishes the file's
  /// committed state as the first version.
  static Result<std::unique_ptr<TreeFile>> Open(const std::string& path,
                                                const PagerOptions& options,
                                                size_t pool_pages);

  /// Runs Close() unless the file was closed or crashed already; an error
  /// is logged.
  ~TreeFile();

  TreeFile(const TreeFile&) = delete;
  TreeFile& operator=(const TreeFile&) = delete;

  /// Creates an empty tree whose root lives in meta slot `slot`. Call it
  /// from a Write() body: the new root is published with that version.
  Result<std::unique_ptr<BTree>> CreateTree(int slot);
  /// Opens the tree whose root lives in meta slot `slot`.
  Result<std::unique_ptr<BTree>> OpenTree(int slot);

  /// Runs `body` as one write transaction. If `body` and the install both
  /// succeed, the transaction is published as the next version, stamped
  /// with `epoch`, and Write returns OK: limbo pages it then fails to
  /// free wait for a later pass, and the error surfaces at the next
  /// Flush(). Otherwise the transaction rolls back, the previous version
  /// stays current, and the error is returned.
  Status Write(uint64_t epoch, const std::function<Status()>& body);

  /// The open transaction's view of a meta slot (the current version's
  /// value outside a transaction), and its setter (inside Write only).
  uint64_t WorkingSlot(int slot) const {
    return versions_->WorkingSlot(slot);
  }
  void SetWorkingSlot(int slot, uint64_t value) {
    versions_->SetWorkingSlot(slot, value);
  }

  /// The current version, pinned: see VersionManager::Pin.
  std::shared_ptr<const Version> Pin() const { return versions_->Pin(); }

  /// Frees the limbo pages no snapshot can still reach, writes back every
  /// dirty page and syncs: every published version becomes durable.
  Status Flush();

  /// Frees every limbo page, then flushes. No snapshot may be alive; the
  /// file must not be used afterwards.
  Status Close();

  /// Test hook: abandons every unflushed change as a crashed process
  /// would. The file must not be used afterwards; reopen it.
  void SimulateCrashForTesting();

  /// Page-file size in bytes.
  uint64_t size_bytes() const {
    return pager_->page_count() * pager_->page_size();
  }

  /// Pages awaiting reclamation (test/debug visibility).
  size_t limbo_size() const { return versions_->limbo_size(); }

 private:
  TreeFile() = default;

  // Destroyed in reverse: the version manager frees through the pool,
  // which writes back through the pager.
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<VersionManager> versions_;
  bool done_ = false;  // closed or crashed
};

}  // namespace vist

#endif  // VIST_STORAGE_TREE_FILE_H_
