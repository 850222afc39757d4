// Ablation A2 (DESIGN.md §5): quantifies the known false positives of
// ViST's sequence matching on branching queries, and the cost of the
// tree-embedding verifier that removes them.
//
// The corpus is engineered to be adversarial: every document has several
// same-named sections, and branch predicates often hold only across
// *different* sections (a false positive for sequence matching, a
// non-match for real XPath semantics).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "vist/vist_index.h"
#include "xml/node.h"

namespace vist {
namespace bench {
namespace {

// A warehouse with 2-4 <section> children; each section stocks a subset
// of colors and sizes.
xml::Document MakeWarehouse(Random* rng, int id) {
  static const char* kColors[] = {"red", "green", "blue"};
  static const char* kSizes[] = {"small", "large"};
  xml::Document doc = xml::Document::WithRoot("warehouse");
  std::string warehouse_id = "w";
  warehouse_id += std::to_string(id);
  doc.root()->AddAttribute("id", warehouse_id);
  const int sections = 2 + static_cast<int>(rng->Uniform(3));
  for (int s = 0; s < sections; ++s) {
    xml::Node* section = doc.root()->AddElement("section");
    if (rng->Bernoulli(0.6)) {
      section->AddElement("color")->AddText(kColors[rng->Uniform(3)]);
    }
    if (rng->Bernoulli(0.6)) {
      section->AddElement("size")->AddText(kSizes[rng->Uniform(2)]);
    }
  }
  return doc;
}

const char* kBranchQueries[] = {
    "/warehouse/section[color='red'][size='large']",
    "/warehouse/section[color='blue'][size='small']",
    "/warehouse/section[color][size]",
    "/warehouse/section[color='green'][size='large']",
};

struct Fixture {
  std::unique_ptr<ScratchDir> scratch;
  std::unique_ptr<VistIndex> index;
};

Fixture& GetFixture() {
  static Fixture fixture = [] {
    Fixture f;
    f.scratch = std::make_unique<ScratchDir>("ablation_fp");
    VistOptions options;
    options.store_documents = true;  // verification needs the documents
    auto index = VistIndex::Create(f.scratch->Sub("vist"), options);
    CheckOk(index.status(), "create");
    f.index = std::move(index).value();
    Random rng(13);
    const int docs = Scaled(10000);
    for (int i = 0; i < docs; ++i) {
      xml::Document doc = MakeWarehouse(&rng, i);
      CheckOk(f.index->InsertDocument(*doc.root(), i + 1), "insert");
    }
    return f;
  }();
  return fixture;
}

void BM_FalsePositives(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const char* path = kBranchQueries[state.range(0)];
  const bool verify = state.range(1) != 0;
  QueryOptions options;
  options.verify = verify;
  size_t hits = 0;
  for (auto _ : state) {
    auto ids = fixture.index->Query(path, options);
    CheckOk(ids.status(), "query");
    hits = ids->size();
  }
  state.counters["hits"] = static_cast<double>(hits);
  if (verify) {
    // False-positive rate: unverified minus verified, over unverified.
    QueryOptions raw;
    auto unverified = fixture.index->Query(path, raw);
    CheckOk(unverified.status(), "query");
    const double fp =
        unverified->empty()
            ? 0.0
            : 1.0 - static_cast<double>(hits) / unverified->size();
    state.counters["false_positive_rate"] = fp;
  }
  state.SetLabel(path);
}

BENCHMARK(BM_FalsePositives)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace bench
}  // namespace vist

BENCHMARK_MAIN();
