// Concurrency stress tests for parallel query serving (ctest label:
// stress; scripts/check_tsan.sh runs them under ThreadSanitizer).
//
// The contract under test (vist_index.h, docs/CONCURRENCY.md): queries may
// run from many threads concurrently with each other and interleave with a
// writer whose mutations are serialized — so every query result equals a
// single-threaded run against *some* whole-operation snapshot, never a
// half-applied insert. The same contract holds for both baselines, and the
// on-disk image stays fsck-clean even when reader threads write back dirty
// frames via buffer-pool eviction.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "vist/fsck.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

constexpr char kHotDoc[] = "<doc><hot><leaf>x</leaf></hot></doc>";
constexpr char kColdDoc[] = "<doc><cold><leaf>y</leaf></cold></doc>";
constexpr char kHotQuery[] = "/doc/hot";

class ConcurrentQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_cq_test_" + std::to_string(getpid()) + "_" +
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

  /// Readers sleep briefly between queries: a greedy reader loop can
  /// starve the writer of a reader-preferring shared_mutex indefinitely on
  /// a single-core machine, and the pause guarantees writer windows.
  static void ReaderBreath() {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  std::string dir_;
};

TEST_F(ConcurrentQueryTest, ReadersAlwaysSeeWholeWriterSnapshots) {
  VistOptions options;
  options.store_documents = true;  // half the readers run verified queries
  auto created = VistIndex::Create(dir_, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<VistIndex> index = std::move(created).value();

  // Base corpus: docs 1..10 match the query, 11..20 do not.
  for (uint64_t id = 1; id <= 20; ++id) {
    xml::Document doc = MustParse(id <= 10 ? kHotDoc : kColdDoc);
    ASSERT_TRUE(index->InsertDocument(*doc.root(), id).ok());
  }
  ASSERT_TRUE(index->Flush().ok());

  // The two snapshots the writer below toggles between; computed by
  // single-threaded oracle runs before any concurrency starts.
  constexpr uint64_t kSentinelId = 999;
  xml::Document sentinel = MustParse(kHotDoc);
  auto oracle_without = index->Query(kHotQuery);
  ASSERT_TRUE(oracle_without.ok());
  ASSERT_TRUE(index->InsertDocument(*sentinel.root(), kSentinelId).ok());
  auto oracle_with = index->Query(kHotQuery);
  ASSERT_TRUE(oracle_with.ok());
  ASSERT_TRUE(index->DeleteDocument(*sentinel.root(), kSentinelId).ok());
  ASSERT_NE(*oracle_without, *oracle_with);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<uint64_t> queries_served{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      QueryOptions query_options;
      query_options.verify = (t % 2 == 0);
      while (!stop.load(std::memory_order_acquire)) {
        auto result = index->Query(kHotQuery, query_options);
        if (!result.ok() ||
            (*result != *oracle_without && *result != *oracle_with)) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        queries_served.fetch_add(1, std::memory_order_relaxed);
        ReaderBreath();
      }
    });
  }

  // The writer toggles the sentinel document in and out, flushing after
  // each mutation so readers also cross durable-snapshot boundaries.
  for (int round = 0; round < 12 && bad.load() == 0; ++round) {
    ASSERT_TRUE(index->InsertDocument(*sentinel.root(), kSentinelId).ok());
    ASSERT_TRUE(index->Flush().ok());
    ASSERT_TRUE(index->DeleteDocument(*sentinel.root(), kSentinelId).ok());
    ASSERT_TRUE(index->Flush().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(queries_served.load(), 0u);
  auto final_result = index->Query(kHotQuery);
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(*final_result, *oracle_without);
}

TEST_F(ConcurrentQueryTest, BaselinesServeReadersDuringInserts) {
  // Both baselines carry the same reader/writer contract so concurrent
  // Table-4 comparisons stay fair: a query must see the base corpus plus
  // some whole-document prefix of the writer's inserts.
  SymbolTable symtab;
  auto paths = PathIndex::Create(dir_ + "/paths", &symtab);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  auto nodes = NodeIndex::Create(dir_ + "/nodes", &symtab);
  ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();

  constexpr uint64_t kFirstWriterId = 100;
  constexpr int kWriterDocs = 40;
  std::vector<uint64_t> base_matches;
  // Parse and sequence every document (base + writer's) up front: this
  // interns all element names single-threaded, so the concurrent phase
  // only ever reads the shared symbol table.
  std::vector<xml::Document> writer_docs;
  std::vector<Sequence> writer_seqs;
  for (int i = 0; i < kWriterDocs; ++i) {
    writer_docs.push_back(MustParse(kHotDoc));
    writer_seqs.push_back(BuildSequence(*writer_docs.back().root(), &symtab));
  }
  for (uint64_t id = 1; id <= 12; ++id) {
    xml::Document doc = MustParse(id <= 6 ? kHotDoc : kColdDoc);
    Sequence seq = BuildSequence(*doc.root(), &symtab);
    ASSERT_TRUE((*paths)->InsertSequence(seq, id).ok());
    ASSERT_TRUE((*nodes)->InsertDocument(*doc.root(), id).ok());
    if (id <= 6) base_matches.push_back(id);
  }

  // Valid snapshot: the base matches followed by a contiguous run of the
  // writer's ids starting at kFirstWriterId (the writer inserts in order,
  // one whole document per exclusive-lock critical section).
  auto is_valid_snapshot = [&](const std::vector<uint64_t>& result) {
    if (result.size() < base_matches.size()) return false;
    for (size_t i = 0; i < base_matches.size(); ++i) {
      if (result[i] != base_matches[i]) return false;
    }
    for (size_t i = base_matches.size(); i < result.size(); ++i) {
      const uint64_t expected =
          kFirstWriterId + static_cast<uint64_t>(i - base_matches.size());
      if (result[i] != expected) return false;
    }
    return result.size() - base_matches.size() <= kWriterDocs;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        auto result = t == 0 ? (*paths)->Query(kHotQuery)
                             : (*nodes)->Query(kHotQuery);
        if (!result.ok() || !is_valid_snapshot(*result)) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        ReaderBreath();
      }
    });
  }
  for (int i = 0; i < kWriterDocs && bad.load() == 0; ++i) {
    const uint64_t id = kFirstWriterId + static_cast<uint64_t>(i);
    ASSERT_TRUE((*paths)->InsertSequence(writer_seqs[i], id).ok());
    ASSERT_TRUE((*nodes)->InsertDocument(*writer_docs[i].root(), id).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(bad.load(), 0);

  auto final_paths = (*paths)->Query(kHotQuery);
  auto final_nodes = (*nodes)->Query(kHotQuery);
  ASSERT_TRUE(final_paths.ok());
  ASSERT_TRUE(final_nodes.ok());
  EXPECT_EQ(final_paths->size(), base_matches.size() + kWriterDocs);
  EXPECT_EQ(*final_paths, *final_nodes);
}

TEST_F(ConcurrentQueryTest, FsckPassesAfterReaderSideEvictionWriteback) {
  // Regression for torn frames leaking to disk through eviction: a small
  // page size and the minimum buffer pool make the index exceed its cache,
  // so reader misses evict — and write back — dirty frames the writer left
  // between flushes. The on-disk image must still pass fsck afterwards.
  VistOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 1;  // clamped up to the 256-page floor
  auto created = VistIndex::Create(dir_, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<VistIndex> index = std::move(created).value();

  // Unique per-document tags fan the entry tree out well past the pool.
  auto unique_doc = [](uint64_t i) {
    std::string tag = "u";
    tag += std::to_string(i);
    return "<doc><" + tag + "><leaf>text" + std::to_string(i) + "</leaf></" +
           tag + "></doc>";
  };
  uint64_t next_id = 1;
  for (; next_id <= 1200; ++next_id) {
    xml::Document doc =
        MustParse(next_id % 10 == 0 ? kHotDoc : unique_doc(next_id));
    ASSERT_TRUE(index->InsertDocument(*doc.root(), next_id).ok());
    if (next_id % 200 == 0) {
      ASSERT_TRUE(index->Flush().ok());
    }
  }
  auto stats = index->Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->size_bytes, uint64_t{256} * 1024)
      << "index must outgrow the buffer pool for eviction to happen";

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t probe = static_cast<uint64_t>(t) * 131 + 1;
      while (!stop.load(std::memory_order_acquire)) {
        // Alternate a broad scan with point probes of the unique tags so
        // the working set sweeps the whole tree.
        auto hot = index->Query(kHotQuery);
        auto point = index->Query("/doc/u" + std::to_string(probe % 1200));
        if (!hot.ok() || !point.ok()) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        probe += 257;
        ReaderBreath();
      }
    });
  }
  // The writer keeps creating dirty frames between flushes while readers
  // sweep; their evictions write those frames back from reader threads.
  for (int batch = 0; batch < 4 && bad.load() == 0; ++batch) {
    for (int i = 0; i < 50; ++i, ++next_id) {
      xml::Document doc = MustParse(unique_doc(next_id));
      ASSERT_TRUE(index->InsertDocument(*doc.root(), next_id).ok());
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

}  // namespace
}  // namespace vist
