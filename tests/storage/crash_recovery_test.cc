// Failure-injection tests for the rollback journal: a crash between
// commits must leave the pager (and everything built on it) exactly in the
// state of the last Sync()/Flush().

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "common/random.h"
#include "storage/btree.h"
#include "storage/version.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_crash_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string PagerPath() const { return (dir_ / "pages.db").string(); }

  std::filesystem::path dir_;
};

TEST_F(CrashRecoveryTest, UncommittedPageWritesRollBack) {
  PageId page;
  {
    auto pager = Pager::Open(PagerPath(), PagerOptions());
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->AllocatePage();
    ASSERT_TRUE(id.ok());
    page = *id;
    std::string committed(4096, 'A');
    ASSERT_TRUE((*pager)->WritePage(page, committed.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());  // commit point

    std::string uncommitted(4096, 'B');
    ASSERT_TRUE((*pager)->WritePage(page, uncommitted.data()).ok());
    (*pager)->SimulateCrashForTesting();
  }
  {
    auto pager = Pager::Open(PagerPath(), PagerOptions());
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    std::string buf(4096, 0);
    ASSERT_TRUE((*pager)->ReadPage(page, buf.data()).ok());
    EXPECT_EQ(buf[0], 'A') << "uncommitted write survived the crash";
    EXPECT_EQ(buf[(*pager)->usable_page_size() - 1], 'A');
  }
  EXPECT_FALSE(std::filesystem::exists(PagerPath() + ".journal"));
}

TEST_F(CrashRecoveryTest, UncommittedAllocationsRollBack) {
  uint64_t committed_pages;
  {
    auto pager = Pager::Open(PagerPath(), PagerOptions());
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE((*pager)->AllocatePage().ok());
    ASSERT_TRUE((*pager)->Sync().ok());
    committed_pages = (*pager)->page_count();
    // Allocate more without committing.
    for (int i = 0; i < 5; ++i) ASSERT_TRUE((*pager)->AllocatePage().ok());
    (*pager)->SimulateCrashForTesting();
  }
  auto pager = Pager::Open(PagerPath(), PagerOptions());
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->page_count(), committed_pages);
  // The file itself shrank back too.
  EXPECT_EQ(std::filesystem::file_size(PagerPath()),
            committed_pages * 4096);
}

TEST_F(CrashRecoveryTest, UncommittedMetaAndFreeRollBack) {
  PageId freed;
  {
    auto pager = Pager::Open(PagerPath(), PagerOptions());
    ASSERT_TRUE(pager.ok());
    auto a = (*pager)->AllocatePage();
    ASSERT_TRUE(a.ok());
    freed = *a;
    ASSERT_TRUE((*pager)->SetMetaSlot(2, 42).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
    // Uncommitted: free the page and clobber the slot.
    ASSERT_TRUE((*pager)->FreePage(freed).ok());
    ASSERT_TRUE((*pager)->SetMetaSlot(2, 99).ok());
    (*pager)->SimulateCrashForTesting();
  }
  auto pager = Pager::Open(PagerPath(), PagerOptions());
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->GetMetaSlot(2), 42u);
  // The freed page is NOT on the freelist: a fresh allocation extends.
  auto next = (*pager)->AllocatePage();
  ASSERT_TRUE(next.ok());
  EXPECT_NE(*next, freed);
}

TEST_F(CrashRecoveryTest, TornJournalTailIsIgnored) {
  PageId page;
  {
    auto pager = Pager::Open(PagerPath(), PagerOptions());
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->AllocatePage();
    ASSERT_TRUE(id.ok());
    page = *id;
    std::string committed(4096, 'C');
    ASSERT_TRUE((*pager)->WritePage(page, committed.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
    std::string uncommitted(4096, 'D');
    ASSERT_TRUE((*pager)->WritePage(page, uncommitted.data()).ok());
    (*pager)->SimulateCrashForTesting();
  }
  // Truncate the journal mid-entry (torn write at crash time).
  const std::string journal = PagerPath() + ".journal";
  ASSERT_TRUE(std::filesystem::exists(journal));
  const auto size = std::filesystem::file_size(journal);
  std::filesystem::resize_file(journal, size - 100);
  {
    auto pager = Pager::Open(PagerPath(), PagerOptions());
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    // The torn entry's data write may or may not have happened; with our
    // ordering (journal before data) the pre-image was cut, but the page
    // must still be readable and the pager consistent.
    std::string buf(4096, 0);
    ASSERT_TRUE((*pager)->ReadPage(page, buf.data()).ok());
    ASSERT_TRUE((*pager)->AllocatePage().ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
}

TEST_F(CrashRecoveryTest, BTreeSurvivesCrashAtRandomPoints) {
  // Model-checked crash loop: insert batches, commit (publish a version,
  // flush, sync) every other batch, crash, reopen, and verify the tree
  // equals the model of committed batches only. Versions published but
  // not synced must roll back with everything else.
  Random rng(99);
  std::map<std::string, std::string> committed_model;
  for (int round = 0; round < 6; ++round) {
    auto pager = Pager::Open(PagerPath(), PagerOptions());
    ASSERT_TRUE(pager.ok());
    auto pool = std::make_unique<BufferPool>(pager->get(), 64);
    auto versions = std::make_unique<VersionManager>(pager->get(),
                                                     pool.get());
    versions->Bootstrap();
    versions->BeginWrite();
    auto tree = round == 0
                    ? BTree::Create(pager->get(), pool.get(),
                                    versions.get(), 0)
                    : BTree::Open(pager->get(), pool.get(),
                                  versions.get(), 0);
    ASSERT_TRUE(tree.ok());
    if (round == 0) {
      // Commit the empty tree so later rounds can roll back to it.
      ASSERT_TRUE(versions->Commit(/*epoch=*/0).ok());
      ASSERT_TRUE(pool->FlushAll().ok());
      ASSERT_TRUE((*pager)->Sync().ok());
      versions->BeginWrite();
    }

    // Verify current contents match the committed model.
    auto it = (*tree)->NewIterator();
    auto mit = committed_model.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
      ASSERT_NE(mit, committed_model.end());
      EXPECT_EQ(it->key().ToString(), mit->first);
      EXPECT_EQ(it->value().ToString(), mit->second);
    }
    EXPECT_EQ(mit, committed_model.end());

    // Mutate; keep a tentative model.
    std::map<std::string, std::string> tentative = committed_model;
    for (int i = 0; i < 200; ++i) {
      std::string key = "k";
      key += std::to_string(rng.Uniform(500));
      if (rng.Bernoulli(0.25)) {
        Status s = (*tree)->Delete(key);
        if (tentative.erase(key) > 0) {
          ASSERT_TRUE(s.ok());
        }
      } else {
        std::string value = "v";
        value += std::to_string(round);
        value += '_';
        value += std::to_string(i);
        ASSERT_TRUE((*tree)->Put(key, value).ok());
        tentative[key] = value;
      }
    }
    const bool commit = round % 2 == 0;
    if (commit) {
      ASSERT_TRUE(versions->Commit(static_cast<uint64_t>(round) + 1).ok());
      ASSERT_TRUE(pool->FlushAll().ok());
      ASSERT_TRUE((*pager)->Sync().ok());
      committed_model = std::move(tentative);
    }
    pool->SimulateCrashForTesting();
    (*pager)->SimulateCrashForTesting();
    versions->AbandonForCrash();
  }
}

TEST_F(CrashRecoveryTest, VistIndexRollsBackToLastFlush) {
  const std::string index_dir = (dir_ / "index").string();
  auto parse = [](const char* text) {
    auto doc = xml::Parse(text);
    EXPECT_TRUE(doc.ok());
    return std::move(doc).value();
  };
  {
    auto index = VistIndex::Create(index_dir, VistOptions());
    ASSERT_TRUE(index.ok());
    xml::Document d1 = parse("<a><b>one</b></a>");
    ASSERT_TRUE((*index)->InsertDocument(*d1.root(), 1).ok());
    ASSERT_TRUE((*index)->Flush().ok());  // doc 1 durable
    xml::Document d2 = parse("<a><c>two</c></a>");
    ASSERT_TRUE((*index)->InsertDocument(*d2.root(), 2).ok());
    // Crash before flushing doc 2.
    (*index)->SimulateCrashForTesting();
  }
  auto index = VistIndex::Open(index_dir, VistOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto b = (*index)->Query("/a/b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, (std::vector<uint64_t>{1}));
  auto c = (*index)->Query("/a/c");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->empty()) << "unflushed document survived the crash";
  // The recovered index accepts new work.
  xml::Document d3 = parse("<a><c>three</c></a>");
  ASSERT_TRUE((*index)->InsertDocument(*d3.root(), 3).ok());
  auto again = (*index)->Query("/a/c");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, (std::vector<uint64_t>{3}));
}

}  // namespace
}  // namespace vist
