// Concurrency stress tests for the storage read path (ctest label:
// stress; scripts/check_tsan.sh runs them under ThreadSanitizer).
//
// The contract under test (buffer_pool.h, docs/CONCURRENCY.md): any number
// of threads may Fetch concurrently — including misses that evict, misses
// that collide on one absent page, and misses whose disk read fails — and
// each fetch observes fully loaded page contents. B+ tree readers pin a
// published Version and read through BTreeView with no lock at all while
// a writer commits copy-on-write versions, exactly as the index classes
// do it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/version.h"

#include "pool_count_deltas.h"

namespace vist {
namespace {

class StorageConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_conc_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    auto pager = Pager::Open((dir_ / "pages.db").string(), PagerOptions());
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    pager_ = std::move(pager).value();
  }
  void TearDown() override {
    pager_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Fills every byte of `ref` with a function of the page id so readers
  /// can detect torn or misdirected loads with plain byte checks.
  static void Stamp(PageRef& ref) {
    memset(ref.data(), static_cast<char>('A' + ref.id() % 23), 64);
  }
  static bool StampOk(const PageRef& ref) {
    const char expected = static_cast<char>('A' + ref.id() % 23);
    for (int i = 0; i < 64; ++i) {
      if (ref.data()[i] != expected) return false;
    }
    return true;
  }

  /// Allocates `n` stamped pages through a throwaway pool and flushes them,
  /// returning their ids.
  std::vector<PageId> WriteStampedPages(int n) {
    BufferPool pool(pager_.get(), static_cast<size_t>(n) + 8);
    std::vector<PageId> ids;
    for (int i = 0; i < n; ++i) {
      auto ref = pool.New();
      EXPECT_TRUE(ref.ok()) << ref.status().ToString();
      Stamp(*ref);
      ids.push_back(ref->id());
    }
    EXPECT_TRUE(pool.FlushAll().ok());
    return ids;
  }

  std::filesystem::path dir_;
  std::unique_ptr<Pager> pager_;
};

// A deterministic per-thread page picker (tests must not use rand()).
struct Lcg {
  uint64_t state;
  uint64_t Next() { return state = state * 6364136223846793005ull + 1442695040888963407ull; }
};

TEST_F(StorageConcurrencyTest, ConcurrentFetchesUnderEvictionChurn) {
  const std::vector<PageId> ids = WriteStampedPages(64);
  // Capacity far below the working set: most fetches miss, every miss
  // evicts, and concurrent threads constantly install/evict each other's
  // pages.
  BufferPool pool(pager_.get(), 16);
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 800;
  std::atomic<int> bad{0};
  const PoolCountDeltas counts;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Lcg rng{static_cast<uint64_t>(t) + 1};
      for (int i = 0; i < kItersPerThread; ++i) {
        PageId id = ids[rng.Next() % ids.size()];
        auto ref = pool.Fetch(id);
        if (!ref.ok() || ref->id() != id || !StampOk(*ref)) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  // Every fetch is accounted exactly once, as either a hit or a miss.
  EXPECT_EQ(counts.hits() + counts.misses(),
            uint64_t{kThreads} * kItersPerThread);
  EXPECT_GT(counts.misses(), 0u);
}

TEST_F(StorageConcurrencyTest, CollidingMissesOnOnePageReadDiskOnce) {
  const std::vector<PageId> ids = WriteStampedPages(1);
  const PageId id = ids[0];
  BufferPool pool(pager_.get(), 16);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> bad{0};
  const PoolCountDeltas counts;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      auto ref = pool.Fetch(id);
      if (!ref.ok() || !StampOk(*ref)) bad.fetch_add(1);
    });
  }
  while (ready.load() < kThreads) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  // The load handshake dedups the read: one miss performs the I/O, the
  // other racers count as hits waiting on the loading frame.
  EXPECT_EQ(counts.misses(), 1u);
  EXPECT_EQ(counts.hits(), uint64_t{kThreads} - 1);
}

TEST_F(StorageConcurrencyTest, FailedLoadsDoNotStrandFrames) {
  const std::vector<PageId> ids = WriteStampedPages(1);
  BufferPool pool(pager_.get(), 16);
  // Way past the end of the file: ReadPage fails after the frame is
  // published in kLoading state, so every racer must see the error and the
  // frame must leave the table (it never entered the LRU).
  const PageId bogus = 1000;
  constexpr int kThreads = 4;
  std::atomic<int> unexpected_ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto ref = pool.Fetch(bogus);
        if (ref.ok()) unexpected_ok.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(unexpected_ok.load(), 0);
  // The pool still works: the failed page keeps failing (no poisoned frame
  // pretending to hold it) and real pages still load.
  EXPECT_FALSE(pool.Fetch(bogus).ok());
  auto ref = pool.Fetch(ids[0]);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_TRUE(StampOk(*ref));
}

TEST_F(StorageConcurrencyTest, LockOrderShardThenPagerUnderChurn) {
  // Exercises the one annotated cross-component lock edge (pool shard
  // mutex → pager mutex, see docs/CONCURRENCY.md and BufferPool::EvictOne's
  // VIST_REQUIRES): threads dirtying pages under a tiny pool force dirty
  // evictions — writebacks that enter the pager while a shard mutex is
  // held — while other threads hammer pager-only entry points that take
  // the pager mutex alone. If any pager path could take a shard mutex the
  // order would invert; the test deadlocks (or TSan's lock-order checker
  // fires in the check_tsan.sh rerun) instead of passing.
  const std::vector<PageId> ids = WriteStampedPages(64);
  BufferPool pool(pager_.get(), 8);
  constexpr int kIters = 600;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // shard → pager: dirty-eviction churn
      Lcg rng{static_cast<uint64_t>(t) + 13};
      for (int i = 0; i < kIters; ++i) {
        // Disjoint page sets per thread: page contents stay single-writer
        // (the MarkDirty contract), only the locks are contended.
        PageId id = ids[(rng.Next() % (ids.size() / 2)) * 2 +
                        static_cast<size_t>(t)];
        auto ref = pool.Fetch(id);
        if (!ref.ok() || !StampOk(*ref)) {
          bad.fetch_add(1);
          return;
        }
        Stamp(*ref);
        ref->MarkDirty();
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // pager mutex alone
      for (int i = 0; i < kIters; ++i) {
        if (!pager_->SetMetaSlot(8 + t, static_cast<PageId>(i)).ok()) {
          bad.fetch_add(1);
          return;
        }
        auto id = pager_->AllocatePage();
        if (!id.ok() || !pager_->FreePage(*id).ok()) {
          bad.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pager_->GetMetaSlot(8), static_cast<PageId>(kIters - 1));
}

TEST_F(StorageConcurrencyTest, ParallelBTreeReadersSeeEveryKey) {
  constexpr int kKeys = 2000;
  auto key = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  };
  auto value_of = [](int i) {
    std::string value = "v";
    value += std::to_string(i);
    return value;
  };
  // Small pool: the build leaves dirty pages that reader-triggered
  // evictions write back from reader threads.
  BufferPool pool(pager_.get(), 64);
  VersionManager versions(pager_.get(), &pool);
  versions.Bootstrap();
  versions.BeginWrite();
  auto tree = BTree::Create(pager_.get(), &pool, &versions, /*meta_slot=*/0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE((*tree)->Put(key(i), value_of(i)).ok());
  }
  ASSERT_TRUE(versions.Commit(/*epoch=*/1).ok());
  std::shared_ptr<const Version> pinned = versions.Pin();

  constexpr int kThreads = 4;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const BTreeView view = (*tree)->ViewAt(*pinned);
      // Point reads of a deterministic sample...
      Lcg rng{static_cast<uint64_t>(t) + 99};
      for (int i = 0; i < 400; ++i) {
        const int k = static_cast<int>(rng.Next() % kKeys);
        auto value = view.Get(key(k));
        if (!value.ok() || *value != value_of(k)) {
          bad.fetch_add(1);
          return;
        }
      }
      // ...plus a full range scan with this thread's own iterator.
      int seen = 0;
      auto it = view.NewIterator();
      for (it->SeekToFirst(); it->Valid(); it->Next()) ++seen;
      if (!it->status().ok() || seen != kKeys) bad.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(StorageConcurrencyTest, SnapshotReadersNeverBlockOnTheWriter) {
  // The exact discipline the index classes implement now: the one writer
  // commits copy-on-write versions (its BeginWrite/Commit serialized by
  // the engine writer lock, here simply by being a single thread) while
  // readers take NO lock at all — each pins the current version and reads
  // through a BTreeView. Every pinned view must contain every base key,
  // whatever the writer has published since, and superseded pages must
  // stay readable until the pin is dropped (limbo reclamation).
  BufferPool pool(pager_.get(), 128);
  VersionManager versions(pager_.get(), &pool);
  versions.Bootstrap();
  versions.BeginWrite();
  auto tree = BTree::Create(pager_.get(), &pool, &versions, /*meta_slot=*/0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto key = [](const char* prefix, int i) {
    return std::string(prefix) + std::to_string(i);
  };
  constexpr int kBase = 300;
  for (int i = 0; i < kBase; ++i) {
    ASSERT_TRUE((*tree)->Put(key("base/", i), "x").ok());
  }
  ASSERT_TRUE(versions.Commit(/*epoch=*/1).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Lcg rng{static_cast<uint64_t>(t) + 7};
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const Version> snap = versions.Pin();
        const BTreeView view = (*tree)->ViewAt(*snap);
        const int k = static_cast<int>(rng.Next() % kBase);
        auto value = view.Get(key("base/", k));
        if (!value.ok() || *value != "x") {
          bad.fetch_add(1);
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 400; ++i) {
      versions.BeginWrite();
      if (!(*tree)->Put(key("new/", i), "y").ok() ||
          !versions.Commit(static_cast<uint64_t>(i) + 2).ok()) {
        bad.fetch_add(1);
        return;
      }
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(bad.load(), 0);
  const BTreeView final_view = (*tree)->ViewAt(*versions.Pin());
  auto last = final_view.Get(key("new/", 399));
  EXPECT_TRUE(last.ok());
}

TEST_F(StorageConcurrencyTest, SnapshotCursorReseeksWhileWriterPublishes) {
  // Finger-search Seek reuses a snapshot cursor's pinned spine across
  // seeks. Those pages belong to the pinned version, so they must stay
  // frozen while the writer shadows, retires, flushes and reclaims around
  // them: long-lived reader cursors re-seek at random (and step with
  // Next/Prev) and must always land where the frozen map says.
  PagerOptions options;
  options.page_size = 512;  // a deep tree: most re-seeks keep some levels
  auto opened = Pager::Open((dir_ / "finger.db").string(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Pager> pager = std::move(opened).value();
  BufferPool pool(pager.get(), 512);
  VersionManager versions(pager.get(), &pool);
  versions.Bootstrap();
  versions.BeginWrite();
  auto tree = BTree::Create(pager.get(), &pool, &versions, /*meta_slot=*/0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto key = [](uint64_t i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%05d", static_cast<int>(i));
    return std::string(buf);
  };
  constexpr uint64_t kKeySpace = 6000;
  std::map<std::string, std::string> frozen;
  for (uint64_t i = 0; i < kKeySpace; i += 3) {  // gaps for the writer
    ASSERT_TRUE((*tree)->Put(key(i), "base" + std::to_string(i)).ok());
    frozen[key(i)] = "base" + std::to_string(i);
  }
  ASSERT_TRUE(versions.Commit(/*epoch=*/1).ok());
  std::shared_ptr<const Version> pinned = versions.Pin();

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<uint64_t> reseeks{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      const BTreeView view = (*tree)->ViewAt(*pinned);
      auto it = view.NewIterator();
      Lcg rng{static_cast<uint64_t>(t) + 41};
      while (!stop.load(std::memory_order_acquire)) {
        const std::string target = key(rng.Next() % (kKeySpace + 50));
        it->Seek(target);
        auto expected = frozen.lower_bound(target);
        const int walk = static_cast<int>(rng.Next() % 8);
        for (int i = 0; i <= walk; ++i) {
          const bool at_end = expected == frozen.end();
          if (!it->status().ok() || it->Valid() == at_end ||
              (!at_end && (it->key().ToString() != expected->first ||
                           it->value().ToString() != expected->second))) {
            bad.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          if (at_end || i == walk) break;
          // Odd walks step backward, so Prev crosses leaves as well.
          if (walk % 2 == 0) {
            it->Next();
            ++expected;
          } else if (expected == frozen.begin()) {
            break;
          } else {
            it->Prev();
            --expected;
          }
        }
        if (reseeks.fetch_add(1, std::memory_order_relaxed) % 64 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    });
  }

  // Writer: inserts into the gaps, overwrites and deletes base keys,
  // publishes a version per round and flushes every fourth round.
  // No ASSERT before the join: an early return would leave the readers
  // running. The writer starts once the readers are seeking, so the two
  // overlap however the threads are scheduled.
  while (reseeks.load() < 200 && bad.load() == 0) std::this_thread::yield();
  Lcg rng{977};
  bool writer_ok = true;
  for (uint64_t round = 0; round < 120 && writer_ok && bad.load() == 0;
       ++round) {
    versions.BeginWrite();
    for (int i = 0; i < 30; ++i) {
      const uint64_t k = rng.Next() % kKeySpace;
      Status s = rng.Next() % 3 == 0
                     ? (*tree)->Delete(key(k))
                     : (*tree)->Put(key(k), "new" + std::to_string(round));
      writer_ok = writer_ok && (s.ok() || s.IsNotFound());
    }
    writer_ok = versions.Commit(round + 2).ok() && writer_ok;
    if (round % 4 == 3) writer_ok = pool.FlushAll().ok() && writer_ok;
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  EXPECT_TRUE(writer_ok);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(reseeks.load(), 200u);
  pinned.reset();
  ASSERT_TRUE(pool.FlushAll().ok());
}

}  // namespace
}  // namespace vist
