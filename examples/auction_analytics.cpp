// Auction analytics over XMARK-like records — the dataset behind the
// paper's Table 3 queries Q6-Q8 — comparing ViST against the XISS-style
// node-index baseline on the same corpus.
//
// Also demonstrates the paper's structure-splitting practice (§2): the
// XMARK "document" is a stream of per-substructure records, each indexed
// as its own sequence.

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "baseline/node_index.h"
#include "datagen/xmark_gen.h"
#include "vist/vist_index.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const int records = argc > 1 ? atoi(argv[1]) : 20000;
  const auto dir =
      std::filesystem::temp_directory_path() / "vist_auction_example";
  std::filesystem::remove_all(dir);

  auto vist_index =
      vist::VistIndex::Create((dir / "vist").string(), vist::VistOptions());
  if (!vist_index.ok()) {
    fprintf(stderr, "create: %s\n", vist_index.status().ToString().c_str());
    return 1;
  }
  // The baseline shares the index's symbol table so value hashes and name
  // ids line up.
  auto node_index = vist::NodeIndex::Create((dir / "nodes").string(),
                                            (*vist_index)->symbols());
  if (!node_index.ok()) {
    fprintf(stderr, "create baseline: %s\n",
            node_index.status().ToString().c_str());
    return 1;
  }

  vist::XmarkGenerator gen{vist::XmarkOptions{}};
  for (int i = 0; i < records; ++i) {
    vist::xml::Document doc = gen.NextRecord(i);
    vist::Status s1 = (*vist_index)->InsertDocument(*doc.root(), i + 1);
    vist::Status s2 = (*node_index)->InsertDocument(*doc.root(), i + 1);
    if (!s1.ok() || !s2.ok()) {
      fprintf(stderr, "insert %d failed\n", i);
      return 1;
    }
  }
  printf("Indexed %d auction-site records into ViST and the XISS-style "
         "baseline.\n\n",
         records);

  // Q6 adapted: real XMARK nests mail under mailbox (see DESIGN.md).
  const struct {
    const char* label;
    const char* path;
  } kQueries[] = {
      {"Q6", "/site//item[location='US']/mailbox/mail/date"
             "[text()='12/15/1999']"},
      {"Q7", "/site//person/*/city[text()='Pocatello']"},
      {"Q8", "//closed_auction[*[person='person1']]"
             "/date[text()='12/15/1999']"},
      {"Q8b", "//closed_auction[*[person='person1']]"},
  };
  printf("%-4s %-62s %10s %12s %10s %12s\n", "", "query", "ViST hits",
         "ViST ms", "XISS hits", "XISS ms");
  for (const auto& [label, path] : kQueries) {
    auto start = std::chrono::steady_clock::now();
    auto vist_ids = (*vist_index)->Query(path);
    const double vist_ms = MillisSince(start);
    vist::obs::QueryProfile node_profile;
    vist::QueryOptions node_options;
    node_options.profile = &node_profile;
    start = std::chrono::steady_clock::now();
    auto node_ids = (*node_index)->Query(path, node_options);
    const double node_ms = MillisSince(start);
    if (!vist_ids.ok() || !node_ids.ok()) {
      fprintf(stderr, "%s failed: %s / %s\n", path,
              vist_ids.status().ToString().c_str(),
              node_ids.status().ToString().c_str());
      return 1;
    }
    printf("%-4s %-62s %10zu %10.2f %12zu %10.2f   (%llu joins)\n", label,
           path, vist_ids->size(), vist_ms, node_ids->size(), node_ms,
           (unsigned long long)node_profile.joins);
  }

  printf("\nViST answers each query with a single sequence matching pass; "
         "the node index needed structural joins (right column).\n");
  vist_index->reset();
  node_index->reset();
  std::filesystem::remove_all(dir);
  return 0;
}
