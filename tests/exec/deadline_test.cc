// End-to-end deadline tests for the query engines: an expired deadline
// turns into kDeadlineExceeded after a *bounded* number of additional
// index-node visits (the DeadlineChecker::kCheckInterval amortization
// contract), and the serving cache never caches a partial result.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "common/deadline.h"
#include "exec/caching_index.h"
#include "obs/query_profile.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

// Past the checkpoint spacing plus a seek descent's worth of pages: the
// most an expired query may touch before aborting.
constexpr uint64_t kOvershootBudget = 64;
static_assert(kOvershootBudget >= DeadlineChecker::kCheckInterval);

// Each doc gets a distinct branch tag, so the branching query below fans
// out across many index-key ranges in every engine.
std::string Doc(uint64_t i) {
  std::string tag = "t";
  tag += std::to_string(i);
  return "<doc><" + tag + "><b>v" + std::to_string(i) + "</b></" + tag +
         "></doc>";
}

constexpr uint64_t kDocs = 4000;
constexpr const char* kBranchingQuery = "/doc/*/b";

class DeadlineQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_deadline_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);

    auto vist = VistIndex::Create((dir_ / "vist").string(), VistOptions());
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    vist_ = std::move(vist).value();
    auto paths = PathIndex::Create((dir_ / "paths").string(), &symtab_);
    ASSERT_TRUE(paths.ok()) << paths.status().ToString();
    path_ = std::move(paths).value();
    auto nodes = NodeIndex::Create((dir_ / "nodes").string(), &symtab_);
    ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
    node_ = std::move(nodes).value();

    for (uint64_t i = 1; i <= kDocs; ++i) {
      auto doc = xml::Parse(Doc(i));
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      ASSERT_TRUE(vist_->InsertDocument(*doc->root(), i).ok());
      ASSERT_TRUE(node_->InsertDocument(*doc->root(), i).ok());
      Sequence seq = BuildSequence(*doc->root(), &symtab_);
      ASSERT_TRUE(path_->InsertSequence(seq, i).ok());
    }
  }

  void TearDown() override {
    vist_.reset();
    path_.reset();
    node_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Asserts the engine's overshoot contract: without a deadline the
  /// branching query is expensive; with an already-expired one it returns
  /// kDeadlineExceeded having touched at most kOvershootBudget more pages.
  void CheckBoundedOvershoot(QueryableIndex* engine, uint64_t min_bare_nodes) {
    obs::QueryProfile bare_profile;
    QueryOptions bare;
    bare.profile = &bare_profile;
    auto full = engine->Query(kBranchingQuery, bare);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_EQ(full->size(), kDocs);
    EXPECT_GE(bare_profile.index_nodes_accessed, min_bare_nodes);

    obs::QueryProfile expired_profile;
    QueryOptions expired;
    expired.profile = &expired_profile;
    expired.deadline = Deadline::AfterMillis(-1);
    auto cancelled = engine->Query(kBranchingQuery, expired);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_TRUE(cancelled.status().IsDeadlineExceeded())
        << cancelled.status().ToString();
    EXPECT_LE(expired_profile.index_nodes_accessed, kOvershootBudget)
        << "expired query overshot: touched "
        << expired_profile.index_nodes_accessed << " pages vs bare "
        << bare_profile.index_nodes_accessed;
  }

  std::filesystem::path dir_;
  SymbolTable symtab_;
  std::unique_ptr<VistIndex> vist_;
  std::unique_ptr<PathIndex> path_;
  std::unique_ptr<NodeIndex> node_;
};

TEST_F(DeadlineQueryTest, VistIndexBoundedOvershoot) {
  // The branching query is the paper's slow-query shape: one seek per
  // branch tag, so the bare run touches hundreds of pages.
  CheckBoundedOvershoot(vist_.get(), /*min_bare_nodes=*/200);
}

TEST_F(DeadlineQueryTest, PathIndexBoundedOvershoot) {
  CheckBoundedOvershoot(path_.get(), /*min_bare_nodes=*/kOvershootBudget + 1);
}

TEST_F(DeadlineQueryTest, NodeIndexBoundedOvershoot) {
  CheckBoundedOvershoot(node_.get(), /*min_bare_nodes=*/kOvershootBudget + 1);
}

TEST_F(DeadlineQueryTest, GenerousDeadlineDoesNotChangeResults) {
  QueryOptions generous;
  generous.deadline = Deadline::AfterMillis(60000);
  auto with = vist_->Query(kBranchingQuery, generous);
  auto without = vist_->Query(kBranchingQuery);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(*with, *without);
}

TEST_F(DeadlineQueryTest, VerifiedQueryCancelsToo) {
  // Rebuild with stored documents so the verify stage runs.
  auto verified_dir = (dir_ / "vist_verify").string();
  VistOptions options;
  options.store_documents = true;
  auto created = VistIndex::Create(verified_dir, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto index = std::move(created).value();
  for (uint64_t i = 1; i <= 200; ++i) {
    auto doc = xml::Parse(Doc(i));
    ASSERT_TRUE(index->InsertDocument(*doc->root(), i).ok());
  }
  QueryOptions expired;
  expired.verify = true;
  expired.deadline = Deadline::AfterMillis(-1);
  auto cancelled = index->Query(kBranchingQuery, expired);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsDeadlineExceeded());
}

TEST_F(DeadlineQueryTest, CacheNeverStoresAnExpiredResult) {
  exec::CachingIndex cache(vist_.get());

  // An expired query fails and must leave nothing behind under its key.
  QueryOptions expired;
  expired.deadline = Deadline::AfterMillis(-1);
  auto cancelled = cache.Query(kBranchingQuery, expired);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsDeadlineExceeded());

  // The deadline is not part of the cache key, so the same path now (no
  // deadline) must compute — not replay — and be byte-identical to the
  // bare engine. A cached partial result would fail both checks.
  auto cached = cache.Query(kBranchingQuery);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  auto bare = vist_->Query(kBranchingQuery);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(*cached, *bare);
  EXPECT_EQ(cached->size(), kDocs);

  // Once a complete result is cached, even an expired-deadline query is
  // served from it: a cache hit consumes no budget, and the deadline
  // changes whether a query completes, never what a completed one returns.
  auto hit = cache.Query(kBranchingQuery, expired);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(*hit, *bare);
}

}  // namespace
}  // namespace vist
