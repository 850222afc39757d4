// The paper's motivating domain (Figures 1-4): purchase records with
// sellers, buyers, and nested items, queried by tree structure.
//
// Demonstrates the four queries of Figure 2, the statistical (clue-based)
// scope allocator, and the documented false-positive behaviour of sequence
// matching together with the verifier that removes it.

#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/random.h"
#include "vist/schema_stats.h"
#include "vist/vist_index.h"
#include "xml/node.h"

namespace {

using vist::xml::Document;
using vist::xml::Node;

// Builds one purchase record in the shape of Figure 3.
Document MakePurchase(vist::Random* rng, int id) {
  static const char* kCities[] = {"boston", "newyork", "chicago", "seattle"};
  static const char* kSellers[] = {"dell", "hp", "acme", "panasia"};
  static const char* kMakers[] = {"ibm", "intel", "amd", "panasia"};

  Document doc = Document::WithRoot("purchase");
  std::string purchase_id = "p";
  purchase_id += std::to_string(id);
  doc.root()->AddAttribute("ID", purchase_id);
  Node* seller = doc.root()->AddElement("seller");
  seller->AddAttribute("name", kSellers[rng->Uniform(4)]);
  seller->AddAttribute("location", kCities[rng->Uniform(4)]);
  const int items = 1 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < items; ++i) {
    Node* item = seller->AddElement("item");
    item->AddAttribute("name", "part#" + std::to_string(rng->Uniform(100)));
    item->AddAttribute("manufacturer", kMakers[rng->Uniform(4)]);
    if (rng->Bernoulli(0.3)) {  // sub-item, as in Figure 3
      Node* sub = item->AddElement("item");
      sub->AddAttribute("name", "part#" + std::to_string(rng->Uniform(100)));
      sub->AddAttribute("manufacturer", kMakers[rng->Uniform(4)]);
    }
  }
  Node* buyer = doc.root()->AddElement("buyer");
  buyer->AddAttribute("name", "buyer_" + std::to_string(rng->Uniform(50)));
  buyer->AddAttribute("location", kCities[rng->Uniform(4)]);
  return doc;
}

void Run(vist::VistIndex* index, const char* label, const char* path,
         bool verify = false) {
  vist::QueryOptions options;
  options.verify = verify;
  auto ids = index->Query(path, options);
  if (!ids.ok()) {
    fprintf(stderr, "%s failed: %s\n", path, ids.status().ToString().c_str());
    exit(1);
  }
  printf("  %-4s %-58s -> %zu orders%s\n", label, path, ids->size(),
         verify ? " (verified)" : "");
}

}  // namespace

int main() {
  const auto dir =
      std::filesystem::temp_directory_path() / "vist_purchase_example";
  std::filesystem::remove_all(dir);
  vist::Random rng(2003);

  // Sample a few hundred records for scope-allocation statistics (§3.4.1
  // "semantic and statistical clues"), then build the index with them.
  vist::SymbolTable sampling_symtab;
  vist::SchemaStats stats;
  {
    vist::Random sample_rng(2003);
    for (int i = 0; i < 300; ++i) {
      Document doc = MakePurchase(&sample_rng, i);
      stats.CollectFrom(
          vist::BuildSequence(*doc.root(), &sampling_symtab));
    }
  }
  vist::VistOptions options;
  options.allocator = vist::VistOptions::AllocatorKind::kStatistical;
  options.stats = &stats;
  options.store_documents = true;
  auto index = vist::VistIndex::Create(dir.string(), options);
  if (!index.ok()) {
    fprintf(stderr, "create: %s\n", index.status().ToString().c_str());
    return 1;
  }

  const int kOrders = 2000;
  for (int i = 0; i < kOrders; ++i) {
    Document doc = MakePurchase(&rng, i);
    vist::Status s = (*index)->InsertDocument(*doc.root(), i + 1);
    if (!s.ok()) {
      fprintf(stderr, "insert: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  printf("Indexed %d purchase records (statistical scope allocation).\n\n",
         kOrders);

  printf("The four queries of Figure 2:\n");
  Run(index->get(), "Q1", "/purchase/seller/item/manufacturer");
  Run(index->get(), "Q2",
      "/purchase[seller[location='boston']]/buyer[location='newyork']");
  Run(index->get(), "Q3", "/purchase/*[location='boston']");
  Run(index->get(), "Q4", "/purchase//item[manufacturer='intel']");

  printf("\nBranching query, faithful vs verified "
         "(sequence matching may over-approximate):\n");
  const char* branchy =
      "/purchase/seller[item[manufacturer='intel']]"
      "[item[manufacturer='ibm']]";
  Run(index->get(), "Q5a", branchy, /*verify=*/false);
  Run(index->get(), "Q5b", branchy, /*verify=*/true);

  auto stats_result = (*index)->Stats();
  if (stats_result.ok()) {
    printf("\nIndex: %llu nodes, %llu underflow runs, %.1f KB on disk\n",
           (unsigned long long)stats_result->num_entries,
           (unsigned long long)stats_result->underflow_runs,
           stats_result->size_bytes / 1024.0);
  }
  index->reset();
  std::filesystem::remove_all(dir);
  return 0;
}
