// The shared rollback path of every engine's write transaction: an insert
// whose body fails part-way through, on an I/O error injected below the
// page file, must leave no trace a reader can see. The snapshot epoch,
// Stats() and a fixed query answer stay as they were, the engine epoch
// moves exactly once (the mutation entry point still ran), and the next
// insert after the fault clears commits normally.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "common/fault_injection_env.h"
#include "obs/metrics.h"
#include "seq/sequence.h"
#include "vist/fsck.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

enum class Engine { kVist, kPath, kNode };

std::string EngineName(const ::testing::TestParamInfo<Engine>& info) {
  switch (info.param) {
    case Engine::kVist:
      return "Vist";
    case Engine::kPath:
      return "Path";
    case Engine::kNode:
      return "Node";
  }
  return "Unknown";
}

// <lib><book><title>t{id}</title><year>{id % 7}</year>...</book></lib>:
// `books` sibling subtrees, every one with distinct text values, so a
// large document needs many new pages.
xml::Document MakeDocument(int id, int books) {
  std::string text = "<lib>";
  for (int b = 0; b < books; ++b) {
    text += "<book><title>t";
    text += std::to_string(id * 1000 + b);
    text += "</title><year>";
    text += std::to_string(id % 7);
    text += "</year></book>";
  }
  text += "</lib>";
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

void ExpectSameStats(const IndexStats& a, const IndexStats& b) {
  EXPECT_EQ(a.size_bytes, b.size_bytes);
  EXPECT_EQ(a.num_documents, b.num_documents);
  EXPECT_EQ(a.num_entries, b.num_entries);
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_EQ(a.underflow_runs, b.underflow_runs);
}

class RollbackTest : public ::testing::TestWithParam<Engine> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_rollback_test_" + std::to_string(getpid()) + "_" +
            EngineName({GetParam(), 0}));
    std::filesystem::remove_all(dir_);
    Open(/*create=*/true);
  }
  void TearDown() override {
    index_ = nullptr;
    vist_.reset();
    paths_.reset();
    nodes_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Open(bool create) {
    switch (GetParam()) {
      case Engine::kVist: {
        VistOptions options;
        options.env = &env_;
        options.store_documents = true;
        auto index = create ? VistIndex::Create(dir_.string(), options)
                            : VistIndex::Open(dir_.string(), options);
        ASSERT_TRUE(index.ok()) << index.status().ToString();
        vist_ = std::move(index).value();
        index_ = vist_.get();
        break;
      }
      case Engine::kPath: {
        PathIndexOptions options;
        options.env = &env_;
        auto index = PathIndex::Create(dir_.string(), &symtab_, options);
        ASSERT_TRUE(index.ok()) << index.status().ToString();
        paths_ = std::move(index).value();
        index_ = paths_.get();
        break;
      }
      case Engine::kNode: {
        NodeIndexOptions options;
        options.env = &env_;
        auto index = NodeIndex::Create(dir_.string(), &symtab_, options);
        ASSERT_TRUE(index.ok()) << index.status().ToString();
        nodes_ = std::move(index).value();
        index_ = nodes_.get();
        break;
      }
    }
  }

  Status Insert(int id, int books) {
    xml::Document doc = MakeDocument(id, books);
    switch (GetParam()) {
      case Engine::kVist:
        return vist_->InsertDocument(*doc.root(), id);
      case Engine::kPath:
        return paths_->InsertSequence(
            BuildSequence(*doc.root(), &symtab_, SequenceOptions()), id);
      case Engine::kNode:
        return nodes_->InsertDocument(*doc.root(), id);
    }
    return Status::OK();
  }

  std::vector<uint64_t> FixedQuery() {
    auto ids = index_->Query("/lib/book[year='3']");
    EXPECT_TRUE(ids.ok()) << ids.status().ToString();
    return ids.ok() ? *ids : std::vector<uint64_t>{};
  }

  std::filesystem::path dir_;
  FaultInjectionEnv env_;
  SymbolTable symtab_;
  std::unique_ptr<VistIndex> vist_;
  std::unique_ptr<PathIndex> paths_;
  std::unique_ptr<NodeIndex> nodes_;
  QueryableIndex* index_ = nullptr;
};

TEST_P(RollbackTest, FailedInsertLeavesNoTrace) {
  for (int id = 1; id <= 20; ++id) ASSERT_TRUE(Insert(id, 2).ok());
  ASSERT_TRUE(index_->Flush().ok());
  // An unflushed insert opens the page file's next batch, and its commit
  // returns the pages older versions retired to the freelist: the failing
  // insert below reuses those first, so its body has rebuilt part of the
  // tree before it needs to grow the file and hits the fault.
  ASSERT_TRUE(Insert(21, 2).ok());

  auto snap_before = index_->GetSnapshot();
  ASSERT_TRUE(snap_before.ok());
  const uint64_t snapshot_epoch = (*snap_before)->epoch();
  snap_before->reset();  // hold no pin across the failing insert
  auto stats_before = index_->Stats();
  ASSERT_TRUE(stats_before.ok());
  const std::vector<uint64_t> answer_before = FixedQuery();
  ASSERT_FALSE(answer_before.empty());
  const uint64_t epoch_before = index_->epoch();

  // One page write fails: every attempt the pager makes at it.
  obs::Counter& reuses = obs::GetCounter("storage.pager.freelist_reuses");
  const uint64_t reuses_before = reuses.value();
  env_.InjectWriteFaults(3);
  Status failed = Insert(22, 200);
  env_.InjectWriteFaults(0);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  // The fault struck mid-body: freed pages were reused before it.
  EXPECT_GT(reuses.value(), reuses_before);

  EXPECT_EQ(index_->epoch(), epoch_before + 1);
  auto snap_after = index_->GetSnapshot();
  ASSERT_TRUE(snap_after.ok());
  EXPECT_EQ((*snap_after)->epoch(), snapshot_epoch);
  snap_after->reset();
  auto stats_after = index_->Stats();
  ASSERT_TRUE(stats_after.ok());
  ExpectSameStats(*stats_after, *stats_before);
  EXPECT_EQ(FixedQuery(), answer_before);

  // With the fault gone the same insert commits.
  ASSERT_TRUE(Insert(22, 200).ok());
  EXPECT_EQ(index_->epoch(), epoch_before + 2);
  auto stats_next = index_->Stats();
  ASSERT_TRUE(stats_next.ok());
  EXPECT_EQ(stats_next->num_documents, stats_before->num_documents + 1);

  if (GetParam() != Engine::kVist) return;
  // ViST persists: flush, close, check the files offline, and reopen.
  ASSERT_TRUE(index_->Flush().ok());
  const std::vector<uint64_t> answer = FixedQuery();
  index_ = nullptr;
  vist_.reset();
  FsckOptions fsck_options;
  fsck_options.env = &env_;
  auto report = RunFsck(dir_.string(), fsck_options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  Open(/*create=*/false);
  EXPECT_EQ(FixedQuery(), answer);
}

INSTANTIATE_TEST_SUITE_P(Engines, RollbackTest,
                         ::testing::Values(Engine::kVist, Engine::kPath,
                                           Engine::kNode),
                         EngineName);

}  // namespace
}  // namespace vist
