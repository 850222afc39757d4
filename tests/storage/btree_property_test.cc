// Property tests: the B+ tree must behave exactly like std::map under long
// randomized sequences of interleaved Put/Delete/Get/scan, across several
// page sizes, value sizes, and reopen points; and a long-lived iterator's
// finger-search Seek must land where std::map::lower_bound does, at no more
// page loads than a fresh iterator's full descent.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <tuple>

#include "common/deadline.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "storage/btree.h"
#include "storage/version.h"

namespace vist {
namespace {

struct PropertyParam {
  uint32_t page_size;
  int max_key_len;
  int max_value_len;
  uint64_t seed;
};

class BTreePropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_btree_prop_" + std::to_string(getpid()) + "_" +
            std::to_string(GetParam().seed) + "_" +
            std::to_string(GetParam().page_size) + "_" +
            std::to_string(GetParam().max_value_len));
    std::filesystem::create_directories(dir_);
    Open(/*create=*/true);
  }
  void TearDown() override {
    tree_.reset();
    if (versions_ != nullptr && versions_->in_write_transaction()) {
      ASSERT_TRUE(versions_->Commit(++epoch_).ok());
    }
    versions_.reset();
    pool_.reset();
    pager_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Open(bool create) {
    PagerOptions opts;
    opts.page_size = GetParam().page_size;
    auto pager = Pager::Open((dir_ / "t.db").string(), opts);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    pager_ = std::move(pager).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 32);
    versions_ = std::make_unique<VersionManager>(pager_.get(), pool_.get());
    versions_->Bootstrap();
    versions_->BeginWrite();
    auto tree =
        create ? BTree::Create(pager_.get(), pool_.get(), versions_.get(), 0)
               : BTree::Open(pager_.get(), pool_.get(), versions_.get(), 0);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
  }

  void Reopen() {
    ASSERT_TRUE(versions_->Commit(++epoch_).ok());
    tree_.reset();
    versions_.reset();
    pool_.reset();
    ASSERT_TRUE(pager_->Sync().ok());
    pager_.reset();
    Open(/*create=*/false);
  }

  /// Publishes the open transaction as a version and starts the next one —
  /// the property sweep interleaves these so shadowing, publish, and
  /// no-pin reclamation all run under the randomized op stream.
  void CommitCycle() {
    ASSERT_TRUE(versions_->Commit(++epoch_).ok());
    versions_->BeginWrite();
  }

  std::string RandomKey(Random* rng) {
    const int len = 1 + static_cast<int>(rng->Uniform(GetParam().max_key_len));
    std::string key(len, 0);
    for (int i = 0; i < len; ++i) {
      // Narrow alphabet so Deletes hit existing keys often.
      key[i] = static_cast<char>('a' + rng->Uniform(4));
    }
    return key;
  }

  void CheckFullEquality(const std::map<std::string, std::string>& model) {
    auto it = tree_->NewIterator();
    auto mit = model.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
      ASSERT_NE(mit, model.end()) << "tree has extra key "
                                  << it->key().ToString();
      EXPECT_EQ(it->key().ToString(), mit->first);
      EXPECT_EQ(it->value().ToString(), mit->second);
    }
    ASSERT_TRUE(it->status().ok());
    EXPECT_EQ(mit, model.end()) << "tree is missing keys";
  }

  std::filesystem::path dir_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<VersionManager> versions_;
  std::unique_ptr<BTree> tree_;
  uint64_t epoch_ = 0;
};

TEST_P(BTreePropertyTest, MatchesStdMapUnderRandomOps) {
  Random rng(GetParam().seed);
  std::map<std::string, std::string> model;
  const int kOps = 6000;
  for (int op = 0; op < kOps; ++op) {
    const uint64_t kind = rng.Uniform(10);
    std::string key = RandomKey(&rng);
    if (kind < 6) {  // Put
      std::string value(rng.Uniform(GetParam().max_value_len + 1), 0);
      for (char& c : value) c = static_cast<char>(rng.Uniform(256));
      ASSERT_TRUE(tree_->Put(key, value).ok());
      model[key] = value;
    } else if (kind < 9) {  // Delete
      Status s = tree_->Delete(key);
      if (model.erase(key) > 0) {
        EXPECT_TRUE(s.ok()) << "delete of present key failed: " << key;
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else {  // Get
      auto v = tree_->Get(key);
      auto mit = model.find(key);
      if (mit == model.end()) {
        EXPECT_TRUE(v.status().IsNotFound());
      } else {
        ASSERT_TRUE(v.ok());
        EXPECT_EQ(*v, mit->second);
      }
    }
    if (op % 500 == 499) CommitCycle();
    if (op == kOps / 2) {
      CheckFullEquality(model);
      Reopen();
    }
  }
  CheckFullEquality(model);
  auto count = tree_->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, model.size());
}

TEST_P(BTreePropertyTest, SeekAgreesWithLowerBound) {
  Random rng(GetParam().seed ^ 0xabcdef);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    std::string key = RandomKey(&rng);
    ASSERT_TRUE(tree_->Put(key, "v").ok());
    model[key] = "v";
  }
  for (int i = 0; i < 500; ++i) {
    std::string probe = RandomKey(&rng);
    auto it = tree_->NewIterator();
    it->Seek(probe);
    auto mit = model.lower_bound(probe);
    if (mit == model.end()) {
      EXPECT_FALSE(it->Valid()) << probe;
    } else {
      ASSERT_TRUE(it->Valid()) << probe;
      EXPECT_EQ(it->key().ToString(), mit->first);
    }
  }
}

TEST_P(BTreePropertyTest, SnapshotViewIsRepeatableUnderLaterMutations) {
  Random rng(GetParam().seed ^ 0x5eed);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    std::string key = RandomKey(&rng);
    ASSERT_TRUE(tree_->Put(key, "v" + std::to_string(i)).ok());
    model[key] = "v" + std::to_string(i);
  }
  ASSERT_TRUE(versions_->Commit(++epoch_).ok());
  std::shared_ptr<const Version> pinned = versions_->Pin();
  const std::map<std::string, std::string> frozen = model;

  // Heavy churn after the pin: overwrites, deletes, inserts, across
  // several later versions (each commit moves pages into limbo; the pin
  // keeps them readable).
  versions_->BeginWrite();
  for (int i = 0; i < 3000; ++i) {
    std::string key = RandomKey(&rng);
    if (rng.Uniform(3) == 0) {
      Status s = tree_->Delete(key);
      if (!s.ok()) {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else {
      ASSERT_TRUE(tree_->Put(key, "post" + std::to_string(i)).ok());
    }
    if (i % 700 == 699) CommitCycle();
  }

  // The pinned view still reads exactly the state frozen at pin time.
  BTreeView view = tree_->ViewAt(*pinned);
  auto it = view.NewIterator();
  auto mit = frozen.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
    ASSERT_NE(mit, frozen.end()) << "snapshot has extra key "
                                 << it->key().ToString();
    EXPECT_EQ(it->key().ToString(), mit->first);
    EXPECT_EQ(it->value().ToString(), mit->second);
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(mit, frozen.end()) << "snapshot is missing keys";
  for (const auto& [key, value] : frozen) {
    auto got = view.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreePropertyTest,
    ::testing::Values(
        PropertyParam{512, 8, 16, 1},     // tiny pages: deep tree, many splits
        PropertyParam{512, 20, 40, 2},    // tiny pages, bigger cells
        PropertyParam{4096, 12, 32, 3},   // default page size
        PropertyParam{4096, 12, 500, 4},  // large values
        PropertyParam{4096, 64, 0, 5},    // long keys, empty values
        PropertyParam{16384, 24, 128, 6}  // big pages: shallow tree
        ),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return "page" + std::to_string(info.param.page_size) + "_klen" +
             std::to_string(info.param.max_key_len) + "_vlen" +
             std::to_string(info.param.max_value_len) + "_seed" +
             std::to_string(info.param.seed);
    });

// Finger-search Seek (BTree::Iterator::Seek keeps the pinned spine levels
// whose key range still holds the target). One long-lived iterator over a
// three-level tree of 512-byte pages runs through a seeded random mix of
// seeks — forward and backward, inside the current leaf, before the first
// key, past the last key, right after Next()/Prev() crossed a leaf, after
// end-of-data, after a DeadlineExceeded failure — and every position must
// equal std::map::lower_bound. Page loads are checked too: a re-seek inside
// the current leaf loads nothing, and no finger seek loads more pages than
// a fresh iterator's full descent to the same target.
class FingerSeekTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_btree_finger_" + std::to_string(getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    PagerOptions opts;
    opts.page_size = 512;
    auto pager = Pager::Open((dir_ / "t.db").string(), opts);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    pager_ = std::move(pager).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 256);
    versions_ = std::make_unique<VersionManager>(pager_.get(), pool_.get());
    versions_->Bootstrap();
    versions_->BeginWrite();
    auto tree = BTree::Create(pager_.get(), pool_.get(), versions_.get(), 0);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
  }
  void TearDown() override {
    tree_.reset();
    if (versions_ != nullptr && versions_->in_write_transaction()) {
      ASSERT_TRUE(versions_->Commit(1).ok());
    }
    versions_.reset();
    pool_.reset();
    pager_.reset();
    std::filesystem::remove_all(dir_);
  }

  static uint64_t NodeAccesses() {
    return obs::GetCounter("storage.btree.node_accesses").value();
  }

  std::filesystem::path dir_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<VersionManager> versions_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(FingerSeekTest, LongLivedIteratorMatchesLowerBound) {
  Random rng(20031);
  auto random_key = [&rng] {
    std::string key(1 + rng.Uniform(8), 0);
    for (char& c : key) c = static_cast<char>('b' + rng.Uniform(24));
    return key;
  };
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = random_key();
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(tree_->Put(key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(versions_->Commit(1).ok());
  std::shared_ptr<const Version> pinned = versions_->Pin();
  const BTreeView view = tree_->ViewAt(*pinned);

  // A fresh iterator's page loads for `target`: the full descent, plus the
  // next leaf when the target sorts past its own leaf.
  auto fresh_cost = [&view](const std::string& target) {
    auto fresh = view.NewIterator();
    const uint64_t before = NodeAccesses();
    fresh->Seek(target);
    return NodeAccesses() - before;
  };
  const uint64_t depth = fresh_cost(model.begin()->first);
  ASSERT_GE(depth, 3u) << "the tree must have at least three levels";

  auto it = view.NewIterator();
  std::map<std::string, std::string>::const_iterator expected = model.end();
  // Checks the cursor against `expected` (end() means not Valid()).
  auto check = [&](const std::string& context) {
    ASSERT_TRUE(it->status().ok()) << context << ": "
                                   << it->status().ToString();
    if (expected == model.end()) {
      ASSERT_FALSE(it->Valid()) << context;
      return;
    }
    ASSERT_TRUE(it->Valid()) << context;
    ASSERT_EQ(it->key().ToString(), expected->first) << context;
    ASSERT_EQ(it->value().ToString(), expected->second) << context;
  };
  // Seeks the long-lived cursor, checks the position against lower_bound
  // and its page loads against a fresh iterator's; returns the loads.
  auto seek = [&](const std::string& target, const std::string& context) {
    const uint64_t full = fresh_cost(target);
    const uint64_t before = NodeAccesses();
    it->Seek(target);
    const uint64_t loads = NodeAccesses() - before;
    EXPECT_LE(loads, full) << context << " target=" << target;
    expected = model.lower_bound(target);
    check(context + " target=" + target);
    return loads;
  };

  int leaf_crossings = 0, in_leaf_reseeks = 0, deadline_failures = 0;
  seek(random_key(), "initial");
  for (int step = 0; step < 4000 && !::testing::Test::HasFatalFailure();
       ++step) {
    switch (rng.Uniform(9)) {
      case 0:  // random target: forward or backward of the cursor
      case 1:
        seek(random_key(), "random");
        break;
      case 2:  // before the first key
        seek(rng.Uniform(2) == 0 ? "" : "a", "before-first");
        break;
      case 3:  // past the last key: ends the data and drops the spine
        seek("zz", "past-last");
        seek(random_key(), "after-end-of-data");
        break;
      case 4: {  // re-seek inside the current leaf, at and before the key
        if (!it->Valid()) break;
        const std::string here = it->key().ToString();
        EXPECT_EQ(seek(here, "reseek-current"), 0u);
        ++in_leaf_reseeks;
        uint64_t before = NodeAccesses();
        it->Next();
        ++expected;
        check("next");
        if (NodeAccesses() == before && it->Valid()) {
          // Both keys share a leaf: seeking back, or to any key between
          // them, stays inside it.
          EXPECT_EQ(seek(here, "reseek-back"), 0u);
          EXPECT_EQ(seek(here + "\x01", "reseek-between"), 0u);
          in_leaf_reseeks += 2;
        }
        break;
      }
      case 5:    // walk forward across leaves, then seek
      case 6: {  // walk backward across leaves, then seek
        if (!it->Valid()) break;
        const bool forward = rng.Uniform(2) == 0;
        const int steps = 1 + static_cast<int>(rng.Uniform(40));
        bool crossed = false;
        for (int i = 0; i < steps && it->Valid(); ++i) {
          const uint64_t before = NodeAccesses();
          if (forward) {
            it->Next();
            ++expected;
          } else {
            it->Prev();
            expected = expected == model.begin() ? model.end()
                                                 : std::prev(expected);
          }
          check(forward ? "next-walk" : "prev-walk");
          crossed = crossed || NodeAccesses() != before;
        }
        if (crossed) ++leaf_crossings;
        seek(random_key(), forward ? "after-next" : "after-prev");
        break;
      }
      case 7: {  // an expired deadline fails the seek; the next one recovers
        DeadlineChecker expired(
            Deadline::At(Deadline::Clock::now() - std::chrono::seconds(1)));
        it->set_deadline_checker(&expired);
        const std::string target = random_key();
        it->Seek("zz");  // end of data: the next seek must load pages
        it->Seek(target);
        EXPECT_TRUE(it->status().IsDeadlineExceeded())
            << it->status().ToString();
        EXPECT_FALSE(it->Valid());
        it->set_deadline_checker(nullptr);
        ++deadline_failures;
        seek(target, "after-deadline");
        break;
      }
      case 8:  // whole-tree repositioning, then a finger seek from there
        if (rng.Uniform(2) == 0) {
          it->SeekToFirst();
          expected = model.begin();
        } else {
          it->SeekToLast();
          expected = std::prev(model.end());
        }
        check("seek-to-end");
        seek(random_key(), "after-seek-to-end");
        break;
    }
  }
  // The random mix must actually have exercised each case.
  EXPECT_GT(leaf_crossings, 50);
  EXPECT_GT(in_leaf_reseeks, 100);
  EXPECT_GT(deadline_failures, 50);
}

}  // namespace
}  // namespace vist
