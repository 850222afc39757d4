// TreeFile: the write-transaction, flush, close and crash protocol that
// every index engine runs its page file through.

#include "storage/tree_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

namespace vist {
namespace {

constexpr int kTreeSlot = 0;
constexpr int kScalarSlot = 1;

class TreeFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_tree_file_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    Open();
    ASSERT_TRUE(file_->Write(/*epoch=*/0, [&]() -> Status {
      VIST_ASSIGN_OR_RETURN(tree_, file_->CreateTree(kTreeSlot));
      return Status::OK();
    }).ok());
  }
  void TearDown() override {
    tree_.reset();
    file_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Open() {
    auto file = TreeFile::Open((dir_ / "t.db").string(), PagerOptions(),
                               /*pool_pages=*/64);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    file_ = std::move(file).value();
  }

  void Reopen() {
    tree_.reset();
    file_.reset();
    Open();
    auto tree = file_->OpenTree(kTreeSlot);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
  }

  // The value of `key` in the current published version.
  std::string Read(const std::string& key) {
    auto value = tree_->ViewAt(*file_->Pin()).Get(key);
    return value.ok() ? *value : value.status().ToString();
  }

  Status Put(uint64_t epoch, const std::string& key,
             const std::string& value) {
    return file_->Write(epoch, [&] { return tree_->Put(key, value); });
  }

  std::filesystem::path dir_;
  std::unique_ptr<TreeFile> file_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(TreeFileTest, FailedOpenReturnsTheError) {
  PagerOptions options;
  options.page_size = 1000;  // not a power of two
  auto file = TreeFile::Open((dir_ / "bad.db").string(), options,
                             /*pool_pages=*/64);
  EXPECT_TRUE(file.status().IsInvalidArgument()) << file.status().ToString();
}

TEST_F(TreeFileTest, WritePublishesOneVersion) {
  ASSERT_TRUE(file_->Write(/*epoch=*/7, [&]() -> Status {
    VIST_RETURN_IF_ERROR(tree_->Put("a", "1"));
    file_->SetWorkingSlot(kScalarSlot, 42);
    return Status::OK();
  }).ok());
  EXPECT_EQ(file_->Pin()->epoch, 7u);
  EXPECT_EQ(file_->Pin()->slots[kScalarSlot], 42u);
  EXPECT_EQ(Read("a"), "1");
}

TEST_F(TreeFileTest, FailedBodyRollsBack) {
  ASSERT_TRUE(Put(1, "a", "1").ok());
  Status s = file_->Write(/*epoch=*/2, [&]() -> Status {
    VIST_RETURN_IF_ERROR(tree_->Put("a", "2"));
    VIST_RETURN_IF_ERROR(tree_->Put("b", "2"));
    file_->SetWorkingSlot(kScalarSlot, 42);
    return Status::InvalidArgument("body failed");
  });
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(file_->Pin()->epoch, 1u);
  EXPECT_EQ(file_->WorkingSlot(kScalarSlot), 0u);
  EXPECT_EQ(Read("a"), "1");
  EXPECT_TRUE(tree_->ViewAt(*file_->Pin()).Get("b").status().IsNotFound());
  // The next transaction starts from the published state.
  ASSERT_TRUE(Put(2, "b", "3").ok());
  EXPECT_EQ(Read("a"), "1");
  EXPECT_EQ(Read("b"), "3");
}

TEST_F(TreeFileTest, FlushKeepsPinnedPagesUntilTheReaderLeaves) {
  ASSERT_TRUE(Put(1, "a", "1").ok());
  std::shared_ptr<const Version> pinned = file_->Pin();
  ASSERT_TRUE(Put(2, "a", "2").ok());
  ASSERT_TRUE(Put(3, "a", "3").ok());
  ASSERT_TRUE(file_->Flush().ok());
  EXPECT_GT(file_->limbo_size(), 0u);  // version 1 still reachable
  EXPECT_EQ(tree_->ViewAt(*pinned).Get("a").value(), "1");
  pinned.reset();
  ASSERT_TRUE(file_->Flush().ok());
  EXPECT_EQ(file_->limbo_size(), 0u);
}

TEST_F(TreeFileTest, CloseDrainsLimboAndPersists) {
  ASSERT_TRUE(Put(1, "a", "1").ok());
  ASSERT_TRUE(Put(2, "a", "2").ok());
  ASSERT_GT(file_->limbo_size(), 0u);  // retired by the last commit
  ASSERT_TRUE(file_->Close().ok());
  EXPECT_EQ(file_->limbo_size(), 0u);
  Reopen();
  EXPECT_EQ(Read("a"), "2");
}

TEST_F(TreeFileTest, CrashLosesOnlyUnflushedVersions) {
  ASSERT_TRUE(Put(1, "a", "1").ok());
  ASSERT_TRUE(file_->Flush().ok());
  ASSERT_TRUE(Put(2, "a", "2").ok());
  file_->SimulateCrashForTesting();
  Reopen();
  EXPECT_EQ(Read("a"), "1");
}

}  // namespace
}  // namespace vist
