// Property test: the pager's freelist against a model. A seeded random mix
// of AllocatePage, FreePage, Sync, clean reopen and crash + reopen runs
// against a plain free stack; allocation must follow the model's LIFO order
// throughout, the on-disk chain must equal the model's stack after every
// Sync, and a crash must bring back exactly the free set of the last Sync.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/pager.h"

#include "freelist_walk.h"

namespace vist {
namespace {

struct FreelistModel {
  std::vector<PageId> free_stack;  // back = next page to be reused
  std::vector<PageId> in_use;
  uint64_t page_count = 1;  // header page
};

class FreelistPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_freelist_prop_" + std::to_string(getpid()) + "_" +
            std::to_string(GetParam()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "pages.db").string();
    Reopen();
  }
  void TearDown() override {
    pager_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Reopen() {
    pager_.reset();
    PagerOptions opts;
    opts.page_size = 512;
    auto pager = Pager::Open(path_, opts);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    pager_ = std::move(pager).value();
  }

  // The on-disk chain, head first, must be the model's stack top first.
  void ExpectChainMatches(const FreelistModel& model, const char* when) {
    std::vector<PageId> expected(model.free_stack.rbegin(),
                                 model.free_stack.rend());
    EXPECT_EQ(WalkFreelist(pager_.get()), expected) << when;
    EXPECT_EQ(pager_->page_count(), model.page_count) << when;
  }

  std::filesystem::path dir_;
  std::string path_;
  std::unique_ptr<Pager> pager_;
};

TEST_P(FreelistPropertyTest, MatchesLifoModelAcrossSyncsAndCrashes) {
  Random rng(GetParam());
  FreelistModel model;
  FreelistModel synced;
  for (int step = 0; step < 3000 && !HasFailure(); ++step) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < 45) {
      auto id = pager_->AllocatePage();
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      if (model.free_stack.empty()) {
        ASSERT_EQ(*id, model.page_count) << "step " << step;
        ++model.page_count;
      } else {
        ASSERT_EQ(*id, model.free_stack.back()) << "step " << step;
        model.free_stack.pop_back();
      }
      model.in_use.push_back(*id);
    } else if (dice < 85) {
      if (model.in_use.empty()) continue;
      const size_t pick = rng.Uniform(model.in_use.size());
      const PageId id = model.in_use[pick];
      model.in_use[pick] = model.in_use.back();
      model.in_use.pop_back();
      ASSERT_TRUE(pager_->FreePage(id).ok());
      model.free_stack.push_back(id);
    } else if (dice < 95) {
      ASSERT_TRUE(pager_->Sync().ok());
      synced = model;
      ExpectChainMatches(model, "after Sync");
    } else if (dice < 97) {
      // A clean close syncs.
      Reopen();
      synced = model;
      ExpectChainMatches(model, "after clean reopen");
    } else {
      pager_->SimulateCrashForTesting();
      Reopen();
      model = synced;
      ExpectChainMatches(model, "after crash");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreelistPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace vist
