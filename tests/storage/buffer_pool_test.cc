#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "pool_count_deltas.h"

namespace vist {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_pool_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    auto pager = Pager::Open((dir_ / "pages.db").string(), PagerOptions());
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
  }
  void TearDown() override {
    pager_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<Pager> pager_;
};

TEST_F(BufferPoolTest, NewPageIsZeroedAndDirty) {
  BufferPool pool(pager_.get(), 16);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  for (uint32_t i = 0; i < pager_->page_size(); ++i) {
    ASSERT_EQ(ref->data()[i], 0) << "byte " << i;
  }
  // Dirty new pages reach disk on flush.
  memset(ref->data(), 'Q', 16);
  PageId id = ref->id();
  ref->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  std::string buf(pager_->page_size(), 0);
  ASSERT_TRUE(pager_->ReadPage(id, buf.data()).ok());
  EXPECT_EQ(buf[0], 'Q');
  EXPECT_EQ(buf[15], 'Q');
}

TEST_F(BufferPoolTest, FetchHitsCache) {
  BufferPool pool(pager_.get(), 16);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  PageId id = ref->id();
  ref->Release();

  const PoolCountDeltas counts;
  auto again = pool.Fetch(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(counts.misses(), 0u);
  EXPECT_GT(counts.hits(), 0u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  const PoolCountDeltas counts;
  BufferPool pool(pager_.get(), 8);
  std::vector<PageId> ids;
  // Dirty 32 pages through a pool that holds 8: most get evicted.
  for (int i = 0; i < 32; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    memset(ref->data(), 'a' + (i % 26), 32);
    ids.push_back(ref->id());
  }
  // Re-reading every page (through the pool, after evictions) sees the data.
  for (int i = 0; i < 32; ++i) {
    auto ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 'a' + (i % 26)) << "page " << i;
  }
  EXPECT_GT(counts.misses(), 0u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(pager_.get(), 8);
  auto pinned = pool.New();
  ASSERT_TRUE(pinned.ok());
  memset(pinned->data(), 'P', 8);
  char* stable_ptr = pinned->data();

  // Churn the pool well past capacity while the pin is held.
  for (int i = 0; i < 64; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
  }
  // The pinned frame is still resident at the same address with its data.
  EXPECT_EQ(pinned->data(), stable_ptr);
  EXPECT_EQ(pinned->data()[0], 'P');
}

TEST_F(BufferPoolTest, AllPinnedReportsError) {
  BufferPool pool(pager_.get(), 8);
  std::vector<PageRef> pins;
  for (int i = 0; i < 8; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    pins.push_back(std::move(ref).value());
  }
  auto overflow = pool.New();
  EXPECT_FALSE(overflow.ok());
}

TEST_F(BufferPoolTest, MovedFromRefIsInert) {
  BufferPool pool(pager_.get(), 16);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  PageRef a = std::move(ref).value();
  PageRef b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.Release();
  EXPECT_FALSE(b.valid());
}

TEST_F(BufferPoolTest, ValidationFlagSetOncePerDiskLoad) {
  BufferPool pool(pager_.get(), 8);
  PageId id;
  {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    id = ref->id();
    // Fresh (zeroed) pages were not read from disk: nothing to validate.
    EXPECT_FALSE(ref->NeedsValidation());
  }
  // Evict the frame by churning the pool, then re-fetch: disk load.
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(pool.New().ok());
  {
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(ref->NeedsValidation());
    ref->MarkValidated();
  }
  {
    // Still resident: no revalidation needed.
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_FALSE(ref->NeedsValidation());
  }
}

TEST_F(BufferPoolTest, FreeDropsCachedFrame) {
  BufferPool pool(pager_.get(), 16);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  PageId id = ref->id();
  ref->Release();
  ASSERT_TRUE(pool.Free(id).ok());
  // The pager reuses the freed page.
  auto again = pool.New();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->id(), id);
}

TEST_F(BufferPoolTest, FreeOfPinnedPageRejected) {
  BufferPool pool(pager_.get(), 16);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(pool.Free(ref->id()).ok());
}

}  // namespace
}  // namespace vist
