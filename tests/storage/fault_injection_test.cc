// Storage-layer fault-tolerance tests: injected I/O errors, checksum
// verification, damaged-file handling at open, and the buffer pool's
// behaviour when the pager underneath it fails.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection_env.h"
#include "obs/metrics.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/version.h"

#include "freelist_walk.h"

namespace vist {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_fault_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "pages.db").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Overwrites `n` bytes at `offset` of the page file on disk.
  void Stomp(uint64_t offset, const std::string& bytes) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good());
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(FaultInjectionTest, TransientReadFaultsAreRetried) {
  FaultInjectionEnv env;
  PagerOptions opts;
  opts.env = &env;
  auto pager = Pager::Open(path_, opts);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  auto id = (*pager)->AllocatePage();
  ASSERT_TRUE(id.ok());
  std::vector<char> buf(opts.page_size, 'A');
  ASSERT_TRUE((*pager)->WritePage(*id, buf.data()).ok());

  const uint64_t retries_before =
      obs::GetCounter("storage.io_retries").value();
  env.InjectReadFaults(2);  // two transients, third attempt succeeds
  std::vector<char> readback(opts.page_size);
  EXPECT_TRUE((*pager)->ReadPage(*id, readback.data()).ok());
  EXPECT_EQ(readback[0], 'A');
  EXPECT_EQ(obs::GetCounter("storage.io_retries").value() - retries_before,
            2u);
}

TEST_F(FaultInjectionTest, PermanentWriteFaultsSurface) {
  FaultInjectionEnv env;
  PagerOptions opts;
  opts.env = &env;
  auto pager = Pager::Open(path_, opts);
  ASSERT_TRUE(pager.ok());
  auto id = (*pager)->AllocatePage();
  ASSERT_TRUE(id.ok());

  env.InjectWriteFaults(-1);
  std::vector<char> buf(opts.page_size, 'A');
  Status s = (*pager)->WritePage(*id, buf.data());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  env.InjectWriteFaults(0);
  EXPECT_TRUE((*pager)->WritePage(*id, buf.data()).ok());
  (*pager)->SimulateCrashForTesting();  // skip the destructor's sync
}

// Regression: SetMetaSlot used to apply the mutation even when starting
// the journal batch failed, so the unjournaled new value could be
// committed with no recoverable pre-image. It must now fail without
// touching the slot.
TEST_F(FaultInjectionTest, MetaSlotUnchangedWhenJournalingFails) {
  FaultInjectionEnv env;
  PagerOptions opts;
  opts.env = &env;
  auto pager = Pager::Open(path_, opts);
  ASSERT_TRUE(pager.ok());
  ASSERT_TRUE((*pager)->SetMetaSlot(5, 7).ok());
  // Commit so the next mutation has to start a fresh batch (and journal).
  ASSERT_TRUE((*pager)->Sync().ok());

  env.InjectWriteFaults(-1);
  Status s = (*pager)->SetMetaSlot(5, 123);
  EXPECT_FALSE(s.ok()) << "journaling failed but SetMetaSlot succeeded";
  EXPECT_EQ((*pager)->GetMetaSlot(5), 7u);

  env.InjectWriteFaults(0);
  EXPECT_TRUE((*pager)->SetMetaSlot(5, 123).ok());
  EXPECT_EQ((*pager)->GetMetaSlot(5), 123u);
}

TEST_F(FaultInjectionTest, FlippedBitIsCorruptionNamingPageAndOffset) {
  PageId page;
  PagerOptions opts;
  {
    auto pager = Pager::Open(path_, opts);
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->AllocatePage();
    ASSERT_TRUE(id.ok());
    page = *id;
    std::vector<char> buf(opts.page_size, 'A');
    ASSERT_TRUE((*pager)->WritePage(page, buf.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  Stomp(page * opts.page_size + 100, "\x01");

  const uint64_t failures_before =
      obs::GetCounter("storage.checksum_failures").value();
  auto pager = Pager::Open(path_, opts);
  ASSERT_TRUE(pager.ok());
  std::vector<char> buf(opts.page_size);
  Status s = (*pager)->ReadPage(page, buf.data());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("page " + std::to_string(page)),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find(std::to_string(page * opts.page_size)),
            std::string::npos)
      << s.ToString();
  EXPECT_GT(obs::GetCounter("storage.checksum_failures").value(),
            failures_before);
}

TEST_F(FaultInjectionTest, TruncatedHeaderPageIsCorruption) {
  { ASSERT_TRUE(Pager::Open(path_, PagerOptions()).ok()); }
  std::filesystem::resize_file(path_, 100);
  auto reopened = Pager::Open(path_, PagerOptions());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
}

TEST_F(FaultInjectionTest, ShortFinalPageIsCorruption) {
  {
    auto pager = Pager::Open(path_, PagerOptions());
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->AllocatePage();
    ASSERT_TRUE(id.ok());
    std::vector<char> buf(4096, 'A');
    ASSERT_TRUE((*pager)->WritePage(*id, buf.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  const uint64_t size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 100);
  auto reopened = Pager::Open(path_, PagerOptions());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find("truncated"), std::string::npos);
}

TEST_F(FaultInjectionTest, TornNonTailJournalEntryIsCorruption) {
  PagerOptions opts;
  PageId a, b;
  {
    auto pager = Pager::Open(path_, opts);
    ASSERT_TRUE(pager.ok());
    auto ia = (*pager)->AllocatePage();
    auto ib = (*pager)->AllocatePage();
    ASSERT_TRUE(ia.ok() && ib.ok());
    a = *ia;
    b = *ib;
    std::vector<char> buf(opts.page_size, 'A');
    ASSERT_TRUE((*pager)->WritePage(a, buf.data()).ok());
    ASSERT_TRUE((*pager)->WritePage(b, buf.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());

    // New batch: both committed pages get journaled, then the process dies
    // with the journal in place.
    ASSERT_TRUE((*pager)->WritePage(a, buf.data()).ok());
    ASSERT_TRUE((*pager)->WritePage(b, buf.data()).ok());
    (*pager)->SimulateCrashForTesting();
  }
  // Mangle the FIRST entry's page image. A damaged entry with valid entries
  // after it cannot be a torn tail, so recovery must refuse rather than
  // silently roll back half a batch.
  const uint64_t journal_header = 8 + 4 + 8 + 8 + 8 * kNumMetaSlots;
  {
    std::fstream f(path_ + ".journal",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(journal_header + 8 + 50));
    f.write("\xFF", 1);
    ASSERT_TRUE(f.good());
  }
  auto reopened = Pager::Open(path_, opts);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find("torn"), std::string::npos)
      << reopened.status().ToString();
}

// Regression: a dirty frame whose eviction writeback fails must stay intact
// in the pool (in the page table AND on the LRU list). It used to be popped
// from the LRU first, so each failed eviction stranded one frame forever and
// the pool eventually reported itself exhausted.
TEST_F(FaultInjectionTest, EvictionWritebackFailureDoesNotPoisonPool) {
  FaultInjectionEnv env;
  PagerOptions opts;
  opts.env = &env;
  auto pager = Pager::Open(path_, opts);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 8);

  // 16 committed pages on disk, first 8 resident and dirty, unpinned.
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    ids.push_back(ref->id());
    ref->data()[0] = static_cast<char>('A' + i);
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE((*pager)->Sync().ok());
  for (int i = 0; i < 8; ++i) {
    auto ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
    ref->data()[1] = 'x';
    ref->MarkDirty();
  }

  env.InjectWriteFaults(-1);
  for (int i = 8; i < 16; ++i) {
    EXPECT_FALSE(pool.Fetch(ids[i]).ok());  // every eviction writeback fails
  }
  env.InjectWriteFaults(0);

  // No frame leaked: the pool can still evict and fault in all 16 pages.
  for (int i = 0; i < 16; ++i) {
    auto ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(ref->data()[0], static_cast<char>('A' + i));
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE((*pager)->Sync().ok());
}

// A load failure inside Fetch must not leave a stale entry in the page
// table either.
TEST_F(FaultInjectionTest, FetchLoadFailureLeavesNoResidentFrame) {
  FaultInjectionEnv env;
  PagerOptions opts;
  opts.env = &env;
  auto pager = Pager::Open(path_, opts);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 8);
  // 9 pages through a capacity-8 pool: the first one gets evicted.
  std::vector<PageId> ids;
  for (int i = 0; i < 9; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    ids.push_back(ref->id());
    ref->data()[0] = static_cast<char>('A' + i);
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE((*pager)->Sync().ok());

  env.InjectReadFaults(3);  // outlasts the pager's 3 attempts
  EXPECT_FALSE(pool.Fetch(ids[0]).ok());
  env.InjectReadFaults(0);

  // The failed fetch left nothing behind: fetching again reloads cleanly.
  auto again = pool.Fetch(ids[0]);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->data()[0], 'A');
}

// An allocation whose file-extending write fails hands its page id back:
// the file does not grow, and the next allocation reuses the id.
TEST_F(FaultInjectionTest, FailedAllocationDoesNotLeakAPage) {
  FaultInjectionEnv env;
  PagerOptions opts;
  opts.env = &env;
  auto pager = Pager::Open(path_, opts);
  ASSERT_TRUE(pager.ok());
  ASSERT_TRUE((*pager)->AllocatePage().ok());  // opens the batch
  const uint64_t pages = (*pager)->page_count();
  env.InjectWriteFaults(-1);
  EXPECT_FALSE((*pager)->AllocatePage().ok());
  env.InjectWriteFaults(0);
  EXPECT_EQ((*pager)->page_count(), pages);
  auto id = (*pager)->AllocatePage();
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, pages);
  ASSERT_TRUE((*pager)->Sync().ok());
}

// Sync links the pages freed since the last Sync into the on-disk chain.
// When one of those link writes fails, the in-memory freelist must stay as
// it was so that a retried Sync writes the same chain: no page may end up
// linked to itself (a cycle) or dropped from the chain (a leak), and the
// reopened file hands the pages back in the same LIFO order.
TEST_F(FaultInjectionTest, FailedSyncLinkWriteIsSafeToRetry) {
  FaultInjectionEnv env;
  PagerOptions opts;
  opts.env = &env;
  std::vector<PageId> pages;
  {
    auto pager = Pager::Open(path_, opts);
    ASSERT_TRUE(pager.ok());
    for (int i = 0; i < 6; ++i) {
      auto id = (*pager)->AllocatePage();
      ASSERT_TRUE(id.ok());
      pages.push_back(*id);
    }
    for (int i : {1, 3, 0, 4}) ASSERT_TRUE((*pager)->FreePage(pages[i]).ok());
    // The pages are new in this batch, so each link is one page write and
    // no journal append: the first link write lands, and every attempt at
    // the second one fails.
    const uint64_t mutations_before = env.mutation_count();
    env.InjectWriteFaults(3, /*after=*/1);
    EXPECT_FALSE((*pager)->Sync().ok());
    EXPECT_EQ(env.mutation_count() - mutations_before, 1u);
    env.InjectWriteFaults(0);
    ASSERT_TRUE((*pager)->Sync().ok());
  }  // closes the file

  auto pager = Pager::Open(path_, opts);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  const std::vector<PageId> expected = {pages[4], pages[0], pages[3],
                                        pages[1]};
  EXPECT_EQ(WalkFreelist(pager->get()), expected);
  // No leak: every page is on the chain or one of the two still in use.
  std::set<PageId> accounted(expected.begin(), expected.end());
  accounted.insert({pages[2], pages[5]});
  EXPECT_EQ(accounted.size(), (*pager)->page_count() - 1);
  for (PageId want : expected) {
    auto got = (*pager)->AllocatePage();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want);
  }
  auto fresh = (*pager)->AllocatePage();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, pages.back() + 1);
}

// Once a commit has published its version the mutation is visible, so the
// commit must report success even when reclaiming older pages fails
// afterwards; an error there would invite a client to retry (and
// duplicate) a write that already happened. The unfreed pages stay in
// limbo and the next flush-time reclaim pass frees them. The reclaim is
// made to fail by a reader's pool pin on the retired page, which
// BufferPool::Free refuses.
TEST_F(FaultInjectionTest, PublishedCommitSucceedsWhenReclaimFails) {
  auto pager = Pager::Open(path_, PagerOptions());
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 64);
  VersionManager versions(pager->get(), &pool);
  versions.Bootstrap();

  // Version 1: a one-leaf tree, made durable.
  versions.BeginWrite();
  auto tree = BTree::Create(pager->get(), &pool, &versions, /*meta_slot=*/0);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Put("k", "v1").ok());
  ASSERT_TRUE(versions.Commit(/*epoch=*/1).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE((*pager)->Sync().ok());

  // Version 2 shadows the published leaf. The commit's own reclaim pass
  // still pins version 1, so the retired leaf waits in limbo.
  const PageId retired_leaf = versions.Pin()->slots[0];
  versions.BeginWrite();
  ASSERT_TRUE((*tree)->Put("k", "v2").ok());
  ASSERT_TRUE(versions.Commit(/*epoch=*/2).ok());
  ASSERT_GT(versions.limbo_size(), 0u);

  // Version 3 only changes a meta slot; freeing the limbo page after the
  // install fails because the page is still pinned in the pool.
  obs::Counter& deferred = obs::GetCounter("storage.mvcc.reclaim_deferred");
  const uint64_t deferred_before = deferred.value();
  auto held = pool.Fetch(retired_leaf);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  versions.BeginWrite();
  versions.SetWorkingSlot(3, 42);
  Status committed = versions.Commit(/*epoch=*/3);
  EXPECT_TRUE(committed.ok()) << committed.ToString();
  EXPECT_EQ(versions.Pin()->epoch, 3u);
  EXPECT_EQ(versions.Pin()->slots[3], 42u);
  EXPECT_GT(versions.limbo_size(), 0u);
  EXPECT_GT(deferred.value(), deferred_before);

  // With the pin released, the next flush (reclaim, write back, sync)
  // frees the deferred pages.
  *held = PageRef();
  ASSERT_TRUE(versions.ReclaimEligible().ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE((*pager)->Sync().ok());
  EXPECT_EQ(versions.limbo_size(), 0u);
}

}  // namespace
}  // namespace vist
