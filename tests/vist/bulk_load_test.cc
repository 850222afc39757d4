#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "common/random.h"
#include "storage/tree_file.h"
#include "vist/manifest.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

std::string RandomXml(Random* rng, int max_depth) {
  static const char* kNames[] = {"a", "b", "c", "d"};
  static const char* kValues[] = {"x", "y", "z"};
  std::function<std::string(int)> gen = [&](int depth) {
    std::string name = kNames[rng->Uniform(4)];
    std::string out = "<" + name;
    if (rng->Bernoulli(0.3)) {
      out += " at='" + std::string(kValues[rng->Uniform(3)]) + "'";
    }
    out += ">";
    if (rng->Bernoulli(0.3)) out += kValues[rng->Uniform(3)];
    if (depth < max_depth) {
      const int kids = static_cast<int>(rng->Uniform(3));
      for (int i = 0; i < kids; ++i) out += gen(depth + 1);
    }
    out += "</" + name + ">";
    return out;
  };
  return gen(0);
}

class BulkLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_bulk_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

// Every record of a closed index's page file: the combined entry tree
// (meta slot 0) and the DocId tree (meta slot 1) key by key, plus the
// max-depth (slot 3) and underflow-run (slot 4) scalars.
struct IndexImage {
  std::vector<std::pair<std::string, std::string>> entries;
  std::vector<std::pair<std::string, std::string>> doc_ids;
  uint64_t max_depth = 0;
  uint64_t underflow_runs = 0;
};

IndexImage ReadIndexImage(const std::string& dir) {
  IndexImage image;
  auto file = TreeFile::Open(PageFilePath(dir), PagerOptions(), 256);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  if (!file.ok()) return image;
  for (auto [slot, records] :
       {std::pair{0, &image.entries}, std::pair{1, &image.doc_ids}}) {
    auto tree = (*file)->OpenTree(slot);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (!tree.ok()) return image;
    auto it = (*tree)->NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      records->emplace_back(it->key().ToString(), it->value().ToString());
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  }
  image.max_depth = (*file)->WorkingSlot(3);
  image.underflow_runs = (*file)->WorkingSlot(4);
  return image;
}

// Bulk loading and inserting one at a time run the same labeling walk, so
// both must give the same labels, record for record — also when scopes
// underflow (a small lambda, or a large one with deep documents), and when
// later documents pass through nodes whose reserve earlier runs borrowed
// from (a distinct value under a shared root, as DBLP's keys are).
TEST_F(BulkLoadTest, MatchesDynamicInsertionExactly) {
  struct Corpus {
    const char* name;
    uint64_t lambda;
    int max_depth;
    bool distinct_values;
    bool forces_underflow;
  };
  for (const Corpus& corpus :
       {Corpus{"lambda16", 16, 4, false, false},
        Corpus{"lambda2", 2, 6, false, true},
        Corpus{"lambda256", 256, 8, false, true},
        Corpus{"lambda2_distinct_values", 2, 3, true, true}}) {
    SCOPED_TRACE(corpus.name);
    Random rng(321);
    std::vector<std::string> docs;
    for (int i = 0; i < 120; ++i) {
      std::string doc = RandomXml(&rng, corpus.max_depth);
      if (corpus.distinct_values) {
        doc = "<r>" + std::to_string(i) + doc + "</r>";
      }
      docs.push_back(std::move(doc));
    }
    VistOptions options;
    options.lambda = corpus.lambda;
    const std::string dyn_dir = (dir_ / corpus.name / "dyn").string();
    const std::string bulk_dir = (dir_ / corpus.name / "bulk").string();
    auto dynamic = VistIndex::Create(dyn_dir, options);
    ASSERT_TRUE(dynamic.ok());
    auto bulk = VistIndex::Create(bulk_dir, options);
    ASSERT_TRUE(bulk.ok());
    std::vector<std::pair<uint64_t, Sequence>> sequences;
    for (size_t i = 0; i < docs.size(); ++i) {
      auto doc = xml::Parse(docs[i]);
      ASSERT_TRUE(doc.ok());
      ASSERT_TRUE((*dynamic)->InsertDocument(*doc->root(), i + 1).ok());
      sequences.emplace_back(
          i + 1, BuildSequence(*doc->root(), (*bulk)->symbols()));
    }
    ASSERT_TRUE((*bulk)->BulkLoadSequences(sequences).ok());

    auto dyn_stats = (*dynamic)->Stats();
    auto bulk_stats = (*bulk)->Stats();
    ASSERT_TRUE(dyn_stats.ok() && bulk_stats.ok());
    EXPECT_EQ(bulk_stats->num_documents, dyn_stats->num_documents);
    EXPECT_EQ(bulk_stats->num_entries, dyn_stats->num_entries);
    EXPECT_EQ(bulk_stats->max_depth, dyn_stats->max_depth);
    // Sorted writes pack pages at least as densely as random inserts.
    EXPECT_LE(bulk_stats->size_bytes, dyn_stats->size_bytes);
    if (corpus.forces_underflow) {
      EXPECT_GT(dyn_stats->underflow_runs, 0u);
    }

    for (const char* q :
         {"/a", "/a/b", "/a[b][c]", "//b[at='y']", "/a//c", "/a/*[at='z']",
          "//c[text()='x']", "/a[b/c]/b", "/c[.//d='y']"}) {
      auto d = (*dynamic)->Query(q);
      auto b = (*bulk)->Query(q);
      ASSERT_TRUE(d.ok() && b.ok()) << q;
      EXPECT_EQ(*b, *d) << q;
    }

    dynamic->reset();
    bulk->reset();
    const IndexImage dyn_image = ReadIndexImage(dyn_dir);
    const IndexImage bulk_image = ReadIndexImage(bulk_dir);
    EXPECT_FALSE(dyn_image.entries.empty());
    EXPECT_EQ(bulk_image.entries.size(), dyn_image.entries.size());
    EXPECT_TRUE(bulk_image.entries == dyn_image.entries);
    EXPECT_EQ(bulk_image.doc_ids.size(), dyn_image.doc_ids.size());
    EXPECT_TRUE(bulk_image.doc_ids == dyn_image.doc_ids);
    EXPECT_EQ(bulk_image.max_depth, dyn_image.max_depth);
    EXPECT_EQ(bulk_image.underflow_runs, dyn_image.underflow_runs);
  }
}

TEST_F(BulkLoadTest, BulkLoadedIndexStaysDynamic) {
  auto index = VistIndex::Create(dir_.string(), VistOptions());
  ASSERT_TRUE(index.ok());
  std::vector<std::pair<uint64_t, Sequence>> sequences;
  for (int i = 0; i < 10; ++i) {
    auto doc = xml::Parse("<a><b>v" + std::to_string(i) + "</b></a>");
    ASSERT_TRUE(doc.ok());
    sequences.emplace_back(i + 1,
                           BuildSequence(*doc->root(), (*index)->symbols()));
  }
  ASSERT_TRUE((*index)->BulkLoadSequences(sequences).ok());
  // Insert and delete dynamically afterwards.
  auto extra = xml::Parse("<a><c>new</c></a>");
  ASSERT_TRUE((*index)->InsertDocument(*extra->root(), 11).ok());
  auto c = (*index)->Query("/a/c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, (std::vector<uint64_t>{11}));
  auto first = xml::Parse("<a><b>v0</b></a>");
  ASSERT_TRUE((*index)->DeleteDocument(*first->root(), 1).ok());
  auto b = (*index)->Query("/a/b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->size(), 9u);
}

TEST_F(BulkLoadTest, RequiresEmptyIndex) {
  auto index = VistIndex::Create(dir_.string(), VistOptions());
  ASSERT_TRUE(index.ok());
  auto doc = xml::Parse("<a/>");
  ASSERT_TRUE((*index)->InsertDocument(*doc->root(), 1).ok());
  std::vector<std::pair<uint64_t, Sequence>> sequences;
  sequences.emplace_back(2, BuildSequence(*doc->root(), (*index)->symbols()));
  EXPECT_TRUE((*index)->BulkLoadSequences(sequences).IsInvalidArgument());
}

TEST_F(BulkLoadTest, UnderflowHandledDuringBulkLoad) {
  VistOptions options;
  options.lambda = 256;
  auto index = VistIndex::Create(dir_.string(), options);
  ASSERT_TRUE(index.ok());
  std::string xml_text, closing;
  for (int i = 0; i < 40; ++i) {
    xml_text += "<d" + std::to_string(i) + ">";
    closing = "</d" + std::to_string(i) + ">" + closing;
  }
  xml_text += "leaf" + closing;
  auto doc = xml::Parse(xml_text);
  ASSERT_TRUE(doc.ok());
  std::vector<std::pair<uint64_t, Sequence>> sequences;
  sequences.emplace_back(1, BuildSequence(*doc->root(), (*index)->symbols()));
  ASSERT_TRUE((*index)->BulkLoadSequences(sequences).ok());
  auto stats = (*index)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->underflow_runs, 0u);
  auto hit = (*index)->Query("//d39[text()='leaf']");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, (std::vector<uint64_t>{1}));
}

}  // namespace
}  // namespace vist
