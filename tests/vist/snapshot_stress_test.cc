// Snapshot stress tests (ctest label: stress; scripts/check_tsan.sh runs
// them under ThreadSanitizer + lockdep).
//
// The contract under test (docs/CONCURRENCY.md "Writers never block
// readers"): a reader that pins a Snapshot runs against immutable
// copy-on-write pages and never waits on a writer critical section — so
// readers make progress *during* a multi-hundred-millisecond bulk insert,
// a pinned snapshot's answers are repeatable no matter how many versions
// commit meanwhile, and the retire/reclaim churn those versions generate
// leaves the on-disk image fsck-clean with zero leaked pages.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "vist/fsck.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

constexpr char kHotDoc[] = "<doc><hot><leaf>x</leaf></hot></doc>";
constexpr char kHotQuery[] = "/doc/hot";

class StressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_snap_stress_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static xml::Document MustParse(const std::string& text) {
    auto doc = xml::Parse(text);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    return std::move(doc).value();
  }

  std::string dir_;
};

TEST_F(StressTest, ReadersProgressDuringLongBulkInsert) {
  auto created = VistIndex::Create(dir_, VistOptions());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<VistIndex> index = std::move(created).value();

  // Base corpus: docs 1..8 match the query.
  xml::Document hot = MustParse(kHotDoc);
  for (uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(index->InsertDocument(*hot.root(), id).ok());
  }
  ASSERT_TRUE(index->Flush().ok());
  auto oracle_before = index->Query(kHotQuery);
  ASSERT_TRUE(oracle_before.ok());
  ASSERT_EQ(oracle_before->size(), 8u);

  // A snapshot pinned before the bulk insert starts: it must keep
  // answering with the pre-insert state for its whole lifetime, from any
  // thread (Snapshot handles are shareable).
  auto pinned = index->GetSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  const std::shared_ptr<const Snapshot> base_snap = *pinned;

  // The writer inserts matching docs with contiguous ids from
  // kFirstWriterId, one whole document per writer section — so every
  // snapshot's answer is the base matches plus some contiguous prefix of
  // the writer's ids.
  constexpr uint64_t kFirstWriterId = 1000;
  std::atomic<uint64_t> docs_inserted{0};
  auto is_valid_snapshot = [&](const std::vector<uint64_t>& result) {
    if (result.size() < oracle_before->size()) return false;
    for (size_t i = 0; i < oracle_before->size(); ++i) {
      if (result[i] != (*oracle_before)[i]) return false;
    }
    for (size_t i = oracle_before->size(); i < result.size(); ++i) {
      const uint64_t expected =
          kFirstWriterId + static_cast<uint64_t>(i - oracle_before->size());
      if (result[i] != expected) return false;
    }
    return true;
  };

  std::atomic<bool> writer_active{false};
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  constexpr int kReaders = 3;
  std::vector<uint64_t> during_insert(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        const bool active_before = writer_active.load(std::memory_order_acquire);

        // The long-lived pin answers with the pre-insert state forever.
        QueryOptions base_options;
        base_options.snapshot = base_snap.get();
        auto frozen = index->Query(kHotQuery, base_options);
        if (!frozen.ok() || *frozen != *oracle_before) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }

        // A fresh pin sees some whole committed prefix, and repeats it
        // exactly even as further versions commit underneath.
        auto snap = index->GetSnapshot();
        if (!snap.ok()) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        const std::shared_ptr<const Snapshot> pin = *snap;
        QueryOptions options;
        options.snapshot = pin.get();
        auto first = index->Query(kHotQuery, options);
        auto second = index->Query(kHotQuery, options);
        if (!first.ok() || !second.ok() || *first != *second ||
            !is_valid_snapshot(*first)) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }

        // Count only queries that ran entirely inside the writer's bulk
        // insert: those are the ones a blocking writer would have stalled.
        if (active_before && writer_active.load(std::memory_order_acquire)) {
          ++during_insert[static_cast<size_t>(t)];
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  // Bulk insert for at least 400ms of wall time — multi-hundred-ms of
  // continuous writer activity, no flushes, one doc per writer section.
  writer_active.store(true, std::memory_order_release);
  const auto start = std::chrono::steady_clock::now();
  uint64_t next_id = kFirstWriterId;
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(400)) {
    ASSERT_TRUE(index->InsertDocument(*hot.root(), next_id).ok());
    ++next_id;
    docs_inserted.store(next_id - kFirstWriterId, std::memory_order_release);
  }
  writer_active.store(false, std::memory_order_release);
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();

  EXPECT_EQ(bad.load(), 0);
  // Readers never starve the writer: the bulk insert made real progress.
  EXPECT_GT(docs_inserted.load(), 0u);
  // And the writer never blocked the readers: every reader completed
  // consistent snapshot queries while the insert was in flight.
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_GT(during_insert[static_cast<size_t>(t)], 0u)
        << "reader " << t << " made no progress during the bulk insert";
  }

  // The long-lived pin still answers with the pre-insert state; the
  // current state has everything.
  QueryOptions base_options;
  base_options.snapshot = base_snap.get();
  auto frozen = index->Query(kHotQuery, base_options);
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(*frozen, *oracle_before);
  auto current = index->Query(kHotQuery);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->size(), oracle_before->size() + docs_inserted.load());
}

TEST_F(StressTest, FsckCleanAfterReclamationChurn) {
  // Small pages make every commit retire a real spread of pages; readers
  // pinning and releasing snapshots across commit boundaries exercise the
  // limbo list's deferred reclamation. After close (which drains limbo),
  // the on-disk image must account for every page.
  VistOptions options;
  options.page_size = 1024;
  auto created = VistIndex::Create(dir_, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<VistIndex> index = std::move(created).value();

  auto unique_doc = [](uint64_t i) {
    std::string tag = "u";
    tag += std::to_string(i);
    return "<doc><" + tag + "><leaf>text" + std::to_string(i) + "</leaf></" +
           tag + "></doc>";
  };
  for (uint64_t id = 1; id <= 300; ++id) {
    xml::Document doc =
        MustParse(id % 10 == 0 ? kHotDoc : unique_doc(id));
    ASSERT_TRUE(index->InsertDocument(*doc.root(), id).ok());
  }
  ASSERT_TRUE(index->Flush().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      // Each reader carries one pin across several iterations before
      // swapping it for a fresh one, so reclamation is always deferred
      // behind some live snapshot and catches up when it dies.
      std::shared_ptr<const Snapshot> held;
      uint64_t iteration = 0;
      uint64_t probe = static_cast<uint64_t>(t) * 37 + 1;
      while (!stop.load(std::memory_order_acquire)) {
        if (held == nullptr || iteration % 8 == 0) {
          auto snap = index->GetSnapshot();
          if (!snap.ok()) {
            bad.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          held = *snap;
        }
        QueryOptions query_options;
        query_options.snapshot = held.get();
        auto hot = index->Query(kHotQuery, query_options);
        auto point =
            index->Query("/doc/u" + std::to_string(probe % 300), query_options);
        if (!hot.ok() || !point.ok()) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        probe += 11;
        ++iteration;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  // Writer churn: grow and shrink the trees across flush boundaries so
  // pages are shadowed, retired, reclaimed, and reused while snapshots
  // come and go.
  uint64_t next_id = 1000;
  for (int round = 0; round < 6 && bad.load() == 0; ++round) {
    for (int i = 0; i < 40; ++i, ++next_id) {
      xml::Document doc = MustParse(unique_doc(next_id));
      ASSERT_TRUE(index->InsertDocument(*doc.root(), next_id).ok());
    }
    for (uint64_t id = next_id - 40; id < next_id - 20; ++id) {
      xml::Document doc = MustParse(unique_doc(id));
      ASSERT_TRUE(index->DeleteDocument(*doc.root(), id).ok());
    }
    ASSERT_TRUE(index->Flush().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  ASSERT_EQ(bad.load(), 0);

  ASSERT_TRUE(index->Flush().ok());
  index.reset();
  auto report = RunFsck(dir_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->checksum_failures, 0u);
  EXPECT_EQ(report->leaked_pages, 0u);
}

TEST_F(StressTest, PinnedMatcherCursorsSeeFrozenContentsUnderChurn) {
  // The matcher's cursors re-seek by finger search from their pinned
  // spines (BTree::Iterator::Seek), hopping between D-key groups and
  // S-Ancestor ranges of one pinned version. While a writer inserts,
  // deletes and flushes, queries on a snapshot pinned beforehand must keep
  // returning exactly the documents that snapshot froze (known here from
  // the corpus, not from the engine), and the churn must leave the image
  // fsck-clean after close.
  VistOptions options;
  options.page_size = 1024;  // deeper trees: re-seeks keep partial spines
  auto created = VistIndex::Create(dir_, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<VistIndex> index = std::move(created).value();

  constexpr uint64_t kGroups = 40;
  constexpr uint64_t kBaseDocs = 400;
  // Built by appending (a "literal" + std::string chain trips GCC's -O3
  // -Wrestrict false positive).
  auto group_tag = [](uint64_t id) {
    std::string tag = "g";
    tag += std::to_string(id % kGroups);
    return tag;
  };
  auto doc_text = [&group_tag](uint64_t id) {
    const std::string tag = group_tag(id);
    std::string text = "<doc><";
    text.append(tag).append("><leaf>t").append(std::to_string(id));
    text.append("</leaf></").append(tag).append("></doc>");
    return text;
  };
  for (uint64_t id = 1; id <= kBaseDocs; ++id) {
    xml::Document doc = MustParse(doc_text(id));
    ASSERT_TRUE(index->InsertDocument(*doc.root(), id).ok());
  }
  ASSERT_TRUE(index->Flush().ok());
  auto pinned = index->GetSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  const std::shared_ptr<const Snapshot> frozen = *pinned;
  std::vector<std::vector<uint64_t>> group_ids(kGroups);
  std::vector<uint64_t> all_ids;
  for (uint64_t id = 1; id <= kBaseDocs; ++id) {
    group_ids[id % kGroups].push_back(id);
    all_ids.push_back(id);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      QueryOptions query_options;
      query_options.snapshot = frozen.get();
      uint64_t probe = static_cast<uint64_t>(t) * 17 + 3;
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t group = probe % kGroups;
        auto one = index->Query("/doc/" + group_tag(group) + "/leaf",
                                query_options);
        auto wide = index->Query(probe % 4 == 0 ? "//leaf" : "/doc/*/leaf",
                                 query_options);
        if (!one.ok() || *one != group_ids[group] || !wide.ok() ||
            *wide != all_ids) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        probe += 7;
        queries.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  // Writer churn starts once the readers are querying: new documents in
  // every group, deletions of base documents, a flush per round. No ASSERT
  // before the join (an early return would leave the readers running).
  while (queries.load() < 10 && bad.load() == 0) std::this_thread::yield();
  bool writer_ok = true;
  uint64_t next_id = 1000;
  for (uint64_t round = 0; round < 6 && writer_ok && bad.load() == 0;
       ++round) {
    for (int i = 0; i < 40; ++i, ++next_id) {
      xml::Document doc = MustParse(doc_text(next_id));
      writer_ok = writer_ok && index->InsertDocument(*doc.root(), next_id).ok();
    }
    for (uint64_t id = 1 + round * 20; id <= (round + 1) * 20; ++id) {
      xml::Document doc = MustParse(doc_text(id));
      writer_ok = writer_ok && index->DeleteDocument(*doc.root(), id).ok();
    }
    writer_ok = writer_ok && index->Flush().ok();
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  ASSERT_TRUE(writer_ok);
  ASSERT_EQ(bad.load(), 0);

  // The current version has moved on: 120 base documents deleted, 240 added.
  auto current = index->Query("//leaf");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->size(), kBaseDocs - 120 + 240);

  ASSERT_TRUE(index->Flush().ok());
  index.reset();
  auto report = RunFsck(dir_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->leaked_pages, 0u);
}

}  // namespace
}  // namespace vist
