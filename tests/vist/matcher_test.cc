// Direct matcher tests: work counters, the Figure-10 measurement mode,
// and resilience to on-disk corruption (a damaged index must surface
// Status::Corruption, never crash or return wrong data silently).

#include "vist/matcher.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/random.h"
#include "obs/metrics.h"
#include "query/query_sequence.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_matcher_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    auto index = VistIndex::Create(dir_.string(), VistOptions());
    ASSERT_TRUE(index.ok());
    index_ = std::move(index).value();
    for (int i = 0; i < 50; ++i) {
      auto doc = xml::Parse(
          "<P><S><L>city" + std::to_string(i % 5) + "</L></S></P>");
      ASSERT_TRUE(doc.ok());
      ASSERT_TRUE(index_->InsertDocument(*doc->root(), i + 1).ok());
    }
  }
  void TearDown() override {
    index_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<VistIndex> index_;
};

TEST_F(MatcherTest, ProfileReportsWork) {
  auto compiled = query::CompilePath("/P/S/L", *index_->symbols());
  ASSERT_TRUE(compiled.ok());
  obs::QueryProfile profile;
  auto ids = index_->QueryCompiled(*compiled, &profile);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 50u);
  EXPECT_GT(profile.entries_scanned, 0u);
  EXPECT_GT(profile.nodes_matched, 0u);
  EXPECT_GT(profile.docid_range_scans, 0u);
  EXPECT_GT(profile.index_nodes_accessed, 0u);
  EXPECT_EQ(profile.candidates, 50u);
  EXPECT_EQ(profile.verified_results, 50u);  // unverified: equal by convention
  EXPECT_FALSE(profile.verified);
}

TEST_F(MatcherTest, SkippingDocIdCollectionStillMatches) {
  auto compiled = query::CompilePath("/P/S/L", *index_->symbols());
  ASSERT_TRUE(compiled.ok());
  obs::QueryProfile with, without;
  auto full = index_->QueryCompiled(*compiled, &with);
  auto matched_only = index_->QueryCompiled(*compiled, &without,
                                            /*collect_doc_ids=*/false);
  ASSERT_TRUE(full.ok() && matched_only.ok());
  EXPECT_FALSE(full->empty());
  EXPECT_TRUE(matched_only->empty());
  EXPECT_EQ(with.nodes_matched, without.nodes_matched);
  EXPECT_GT(with.docid_range_scans, 0u);
  EXPECT_EQ(without.docid_range_scans, 0u);
}

TEST_F(MatcherTest, WildcardDepthExpansionBounded) {
  // '//L' scans one depth bucket per possible prefix length, bounded by
  // the index's max depth (2 here), not by kMaxPrefixDepth.
  auto compiled = query::CompilePath("//L", *index_->symbols());
  ASSERT_TRUE(compiled.ok());
  obs::QueryProfile profile;
  auto ids = index_->QueryCompiled(*compiled, &profile);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 50u);
}

TEST_F(MatcherTest, CorruptedIndexSurfacesCorruptionStatus) {
  ASSERT_TRUE(index_->Flush().ok());
  index_.reset();
  // Flip a swath of bytes in the middle of the page file.
  const std::string file = (dir_ / "index.db").string();
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(3 * 4096 + 100);
    std::string garbage(600, '\xCD');
    f.write(garbage.data(), garbage.size());
  }
  auto reopened = VistIndex::Open(dir_.string(), VistOptions());
  if (!reopened.ok()) return;  // rejected at open: fine
  for (const char* q : {"/P/S/L", "//L", "/P"}) {
    auto compiled = query::CompilePath(q, *(*reopened)->symbols());
    if (!compiled.ok()) continue;
    auto ids = (*reopened)->QueryCompiled(*compiled);
    // Either a clean answer from undamaged pages or a Corruption error —
    // never a crash.
    if (!ids.ok()) {
      EXPECT_TRUE(ids.status().IsCorruption() ||
                  ids.status().IsInvalidArgument() ||
                  ids.status().IsIOError())
          << ids.status().ToString();
    }
  }
}

TEST(MatcherProfileTest, ExactIndexNodeAccessCounts) {
  // A minimal deterministic workload: one document, one query, both trees
  // a single page deep — so the page-access count of Algorithm 2 is an
  // exact, stable number rather than a lower bound. Guards the
  // ProfileScope delta accounting: any change here means the per-query
  // index_nodes_accessed column in the benchmarks shifted too.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vist_matcher_profile_" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  auto index = VistIndex::Create(dir.string(), VistOptions());
  ASSERT_TRUE(index.ok());
  auto doc = xml::Parse("<a><b/></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE((*index)->InsertDocument(*doc->root(), 1).ok());

  auto compiled = query::CompilePath("/a/b", *(*index)->symbols());
  ASSERT_TRUE(compiled.ok());
  obs::QueryProfile first, second;
  obs::Counter& seeks = obs::GetCounter("storage.btree.seeks");
  const uint64_t seeks_before = seeks.value();
  auto ids = (*index)->QueryCompiled(*compiled, &first);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 1u);

  // Algorithm 2 performs 7 seeks here: for each of 'a' and 'b', one seek
  // to the D-key range, one to its S-Ancestor group, and one jump past the
  // group that ends the scan (3 x 2 = 6), plus one DocId range seek for the
  // matched 'b'.
  EXPECT_EQ(seeks.value() - seeks_before, 7u);
  // Both trees are a single leaf page, holding the entries [a, b] and the
  // one DocId key. The matcher keeps one cursor per query element plus one
  // DocId cursor, and a re-seek that stays in a cursor's pinned leaf loads
  // no page, so only these seeks load one page each:
  //   1. 'a' cursor, first seek (empty spine);
  //   2. 'b' cursor, first seek (empty spine);
  //   3. DocId cursor, first seek (empty spine);
  //   4. 'b' cursor, jump past its group: the Next() after the match ran
  //      off the last cell of the tree, which drops the spine, so the jump
  //      descends from the root again.
  // The 'a' and 'b' group seeks and the 'a' jump (which lands on 'b' and
  // ends the scan) stay in their pinned leaf: 4 page loads in all, where
  // a fresh iterator per seek would load 7.
  EXPECT_EQ(first.index_nodes_accessed, 4u);
  EXPECT_EQ(first.range_scans, 2u);
  EXPECT_EQ(first.nodes_matched, 2u);
  EXPECT_EQ(first.docid_range_scans, 1u);
  EXPECT_EQ(first.candidates, 1u);

  // Deterministic: a repeat run reports identical numbers.
  auto again = (*index)->QueryCompiled(*compiled, &second);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(second.index_nodes_accessed, first.index_nodes_accessed);
  index->reset();
  std::filesystem::remove_all(dir);
}

TEST_F(MatcherTest, EmptyAlternativesMatchNothing) {
  query::CompiledQuery empty;
  auto ids = index_->QueryCompiled(empty);
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids->empty());
}

}  // namespace
}  // namespace vist
