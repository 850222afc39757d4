#include "storage/version.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"

namespace vist {
namespace {

// Metric reference: docs/OBSERVABILITY.md (MVCC section).
struct MvccMetrics {
  obs::Counter& versions_published =
      obs::GetCounter("storage.mvcc.versions_published");
  obs::Counter& pages_retired = obs::GetCounter("storage.mvcc.pages_retired");
  obs::Counter& pages_reclaimed =
      obs::GetCounter("storage.mvcc.pages_reclaimed");
  obs::Counter& reclaim_deferred =
      obs::GetCounter("storage.mvcc.reclaim_deferred");

  static MvccMetrics& Get() {
    static MvccMetrics metrics;
    return metrics;
  }
};

}  // namespace

VersionManager::VersionManager(Pager* pager, BufferPool* pool)
    : pager_(pager), pool_(pool) {}

VersionManager::~VersionManager() {
  // Backstop only: TreeFile::Close drains limbo before its final flush so
  // the freed pages reach disk. Anything still here frees into an
  // un-synced pager; a crashed TreeFile calls AbandonForCrash first so
  // this loop is empty.
  Status s = ReclaimAllForClose();
  if (!s.ok()) {
    VIST_LOG(Error) << "version manager close: " << s.ToString();
  }
}

void VersionManager::Bootstrap() {
  VIST_CHECK(current_.Load() == nullptr);
  auto v = std::make_shared<Version>();
  v->seq = 0;
  v->epoch = 0;
  for (int i = 0; i < kNumMetaSlots; ++i) {
    v->slots[i] = pager_->GetMetaSlot(i);
  }
  working_slots_ = v->slots;
  published_.push_back(v);
  current_.Store(std::move(v));
}

void VersionManager::BeginWrite() {
  VIST_CHECK(!in_write_);
  std::shared_ptr<const Version> cur = Pin();
  VIST_CHECK(cur != nullptr);  // Bootstrap must have run
  working_slots_ = cur->slots;
  in_write_ = true;
}

uint64_t VersionManager::WorkingSlot(int slot) const {
  VIST_CHECK(slot >= 0 && slot < kNumMetaSlots);
  return working_slots_[slot];
}

void VersionManager::SetWorkingSlot(int slot, uint64_t value) {
  VIST_CHECK(slot >= 0 && slot < kNumMetaSlots);
  VIST_DCHECK(in_write_);
  working_slots_[slot] = value;
}

void VersionManager::MarkFresh(PageId id) {
  VIST_DCHECK(in_write_);
  fresh_.insert(id);
}

Status VersionManager::Retire(PageId id) {
  VIST_DCHECK(in_write_);
  MvccMetrics::Get().pages_retired.Increment();
  if (fresh_.erase(id) != 0) {
    // Never published: no snapshot can reach it, free immediately.
    return pool_->Free(id);
  }
  txn_retired_.push_back(id);
  return Status::OK();
}

Status VersionManager::Commit(uint64_t epoch) {
  VIST_CHECK(in_write_);
  std::shared_ptr<const Version> cur = Pin();

  // Persist the changed slots through the journaled header. SetMetaSlot
  // only mutates the in-memory header (durable at the next Sync, rolled
  // back by journal recovery on crash), so a mid-loop failure is undone
  // by restoring the previous values before aborting — the failed
  // install leaves the previous version current.
  for (int i = 0; i < kNumMetaSlots; ++i) {
    if (working_slots_[i] == cur->slots[i]) continue;
    Status s = pager_->SetMetaSlot(i, working_slots_[i]);
    if (!s.ok()) {
      for (int j = 0; j < i; ++j) {
        if (working_slots_[j] == cur->slots[j]) continue;
        Status undo = pager_->SetMetaSlot(j, cur->slots[j]);
        if (!undo.ok()) {
          // EnsureBatch failed after succeeding moments ago; the journal
          // already snapshots the pre-mutation header, so recovery still
          // restores the old slots. Log and continue unwinding.
          VIST_LOG(Error) << "meta slot rollback: " << undo.ToString();
        }
      }
      Abort();
      return s;
    }
  }

  auto v = std::make_shared<Version>();
  v->seq = next_seq_++;
  v->epoch = epoch;
  v->slots = working_slots_;
  for (PageId id : txn_retired_) {
    limbo_.push_back({id, v->seq});
  }
  txn_retired_.clear();
  fresh_.clear();
  published_.push_back(v);
  // The release store is the install point: any reader that pins the new
  // version sees every page write the transaction made.
  current_.Store(std::move(v));
  MvccMetrics::Get().versions_published.Increment();
  in_write_ = false;
  // The mutation is visible now, so it must not report failure: a page
  // that cannot be freed stays in limbo (counted as reclaim_deferred) and
  // the next Flush-time pass retries it, surfacing a lasting error there.
  IgnoreError(ReclaimEligible());
  return Status::OK();
}

void VersionManager::Abort() {
  VIST_CHECK(in_write_);
  for (PageId id : fresh_) {
    Status s = pool_->Free(id);
    if (!s.ok()) {
      // Failing to free an unpublished page leaks file space, not
      // correctness; surfaced by fsck if it persists to disk.
      VIST_LOG(Error) << "abort free of page " << id << ": " << s.ToString();
    }
  }
  fresh_.clear();
  // Retired published pages stay live: the still-current version
  // references them.
  txn_retired_.clear();
  working_slots_ = Pin()->slots;
  in_write_ = false;
}

uint64_t VersionManager::MinLiveSeq() {
  uint64_t min_seq = UINT64_MAX;
  size_t out = 0;
  for (size_t i = 0; i < published_.size(); ++i) {
    std::shared_ptr<const Version> v = published_[i].lock();
    if (v == nullptr) continue;  // prune: no snapshot pins it anymore
    min_seq = std::min(min_seq, v->seq);
    // Guard the self-assignment: moving a weak_ptr onto itself empties it
    // (the refcount move nulls the source after "transferring" it), which
    // would make every version look dead at the next pass and reclaim
    // pages out from under live snapshots.
    if (out != i) published_[out] = std::move(published_[i]);
    ++out;
  }
  published_.resize(out);
  return min_seq;
}

Status VersionManager::ReclaimEligible() {
  if (limbo_.empty()) return Status::OK();
  const uint64_t min_live = MinLiveSeq();
  // The weak_ptr lock() above synchronizes with each departed reader's
  // final shared_ptr release, which its PageRef releases precede — so
  // freeing (and later reusing) these pages cannot race a read.
  while (!limbo_.empty() && limbo_.front().retired_seq <= min_live) {
    const PageId id = limbo_.front().id;
    Status s = pool_->Free(id);
    if (!s.ok()) {
      // Still pinned in the pool or an I/O error: leave it in limbo for
      // a later pass rather than losing track of the page.
      MvccMetrics::Get().reclaim_deferred.Increment();
      return s;
    }
    MvccMetrics::Get().pages_reclaimed.Increment();
    limbo_.pop_front();
  }
  return Status::OK();
}

Status VersionManager::ReclaimAllForClose() {
  while (!limbo_.empty()) {
    VIST_RETURN_IF_ERROR(pool_->Free(limbo_.front().id));
    MvccMetrics::Get().pages_reclaimed.Increment();
    limbo_.pop_front();
  }
  return Status::OK();
}

void VersionManager::AbandonForCrash() {
  limbo_.clear();
  txn_retired_.clear();
  fresh_.clear();
  in_write_ = false;
}

}  // namespace vist
