// Serving-cache throughput: queries/sec through exec::CachingIndex vs the
// bare VistIndex under Zipfian-skewed repeat workloads.
//
// The paper's experiments measure one-shot query latency; a serving
// deployment re-evaluates a skewed set of path expressions continuously.
// Each cell here runs T threads for a fixed wall window against a corpus
// of unique-tag documents. A workload with repeat rate r draws, per query,
// from a 64-query Zipfian hot set with probability r and otherwise sweeps
// the cold query space sequentially (the classic scan-resistant adversary:
// with the result tier sized well below the corpus, the sweep gets ~0%
// hits while the hot set stays resident).
//
// Emits BENCH_query_cache.json: for every (repeat_rate, threads) cell the
// cached and uncached qps, the speedup, and the cache hit rates measured
// from the cache.* counter deltas (docs/OBSERVABILITY.md). The headline
// acceptance number is the 95%-repeat speedup, expected well above 5x.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "exec/caching_index.h"
#include "obs/metrics.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace bench {
namespace {

constexpr int kHotSet = 64;
constexpr double kRepeatRates[] = {0.0, 0.5, 0.95};
constexpr int kThreadCounts[] = {1, 4};
constexpr int kWindowMs = 300;

struct Corpus {
  std::unique_ptr<ScratchDir> scratch;
  std::unique_ptr<VistIndex> index;
  int docs = 0;
};

Corpus BuildCorpus(int docs) {
  Corpus corpus;
  corpus.scratch = std::make_unique<ScratchDir>("query_cache");
  auto created = VistIndex::Create(corpus.scratch->Sub("vist"), VistOptions());
  CheckOk(created.status(), "create vist");
  corpus.index = std::move(created).value();
  corpus.docs = docs;
  for (int i = 1; i <= docs; ++i) {
    std::string tag = "u";
    tag += std::to_string(i);
    const std::string text = "<doc><" + tag + "><leaf>text" +
                             std::to_string(i) + "</leaf></" + tag +
                             "></doc>";
    auto doc = xml::Parse(text);
    CheckOk(doc.status(), "parse doc");
    CheckOk(corpus.index->InsertDocument(*doc->root(), i), "insert doc");
  }
  CheckOk(corpus.index->Flush(), "flush");
  return corpus;
}

struct Cell {
  double repeat_rate = 0;
  int threads = 0;
  uint64_t uncached_queries = 0;
  uint64_t cached_queries = 0;
  double uncached_qps = 0;
  double cached_qps = 0;
  double result_hit_rate = 0;
  double plan_hit_rate = 0;

  double speedup() const {
    return uncached_qps > 0 ? cached_qps / uncached_qps : 0;
  }
};

/// T threads loop the workload against `index` for kWindowMs; returns
/// (completed queries, qps).
std::pair<uint64_t, double> RunWindow(QueryableIndex* index, int corpus_docs,
                                      double repeat_rate, int threads) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Random rng(0x5eed + static_cast<uint64_t>(t) * 7919 +
                 static_cast<uint64_t>(repeat_rate * 100));
      Zipfian zipf(kHotSet);
      // Disjoint cold cursors: each thread sweeps its own region, so the
      // cold stream never repeats within a window.
      uint64_t cold = static_cast<uint64_t>(t) *
                      (static_cast<uint64_t>(corpus_docs) /
                       static_cast<uint64_t>(threads));
      uint64_t mine = 0;
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t doc;
        if (rng.Bernoulli(repeat_rate)) {
          doc = zipf.Next(&rng) + 1;  // hot set: tags u1..u64, rank 0 hottest
        } else {
          doc = cold % static_cast<uint64_t>(corpus_docs) + 1;
          ++cold;
        }
        auto ids = index->Query("/doc/u" + std::to_string(doc));
        CheckOk(ids.status(), "bench query");
        ++mine;
      }
      completed.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(kWindowMs));
  stop.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  const double elapsed_ms = MillisSince(start);
  const uint64_t total = completed.load();
  return {total, elapsed_ms > 0 ? 1000.0 * total / elapsed_ms : 0};
}

Cell MeasureCell(VistIndex* index, double repeat_rate, int threads) {
  Cell cell;
  cell.repeat_rate = repeat_rate;
  cell.threads = threads;

  auto uncached = RunWindow(index, /*corpus_docs=*/
                            static_cast<int>(index->Stats()->num_documents),
                            repeat_rate, threads);
  cell.uncached_queries = uncached.first;
  cell.uncached_qps = uncached.second;

  // Result tier sized well below the corpus (~500 entries): the cold sweep
  // must churn, only the hot set may stay resident — else a long enough
  // window would cache the whole corpus and every workload would converge
  // to 100% hits.
  exec::CachingIndexOptions options;
  options.result_capacity_bytes = 64u << 10;
  exec::CachingIndex cache(index, options);
  obs::Counter& result_hits = obs::GetCounter("cache.result.hits");
  obs::Counter& result_misses = obs::GetCounter("cache.result.misses");
  obs::Counter& plan_hits = obs::GetCounter("cache.plan.hits");
  obs::Counter& plan_misses = obs::GetCounter("cache.plan.misses");
  const uint64_t rh0 = result_hits.value(), rm0 = result_misses.value();
  const uint64_t ph0 = plan_hits.value(), pm0 = plan_misses.value();

  auto cached = RunWindow(&cache,
                          static_cast<int>(index->Stats()->num_documents),
                          repeat_rate, threads);
  cell.cached_queries = cached.first;
  cell.cached_qps = cached.second;

  const uint64_t rh = result_hits.value() - rh0;
  const uint64_t rm = result_misses.value() - rm0;
  const uint64_t ph = plan_hits.value() - ph0;
  const uint64_t pm = plan_misses.value() - pm0;
  cell.result_hit_rate =
      rh + rm > 0 ? static_cast<double>(rh) / static_cast<double>(rh + rm) : 0;
  cell.plan_hit_rate =
      ph + pm > 0 ? static_cast<double>(ph) / static_cast<double>(ph + pm) : 0;
  return cell;
}

void WriteJson(const std::vector<Cell>& cells, int docs) {
  FILE* out = fopen("BENCH_query_cache.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "bench: cannot write BENCH_query_cache.json\n");
    return;
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"query_cache\",\n");
  fprintf(out, "  \"engine\": \"vist\",\n");
  fprintf(out, "  \"docs\": %d,\n", docs);
  fprintf(out, "  \"hot_set\": %d,\n", kHotSet);
  fprintf(out, "  \"window_ms\": %d,\n", kWindowMs);
  fprintf(out, "  \"hardware_threads\": %u,\n",
          std::thread::hardware_concurrency());
  fprintf(out, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    fprintf(out,
            "    {\"repeat_rate\": %.2f, \"threads\": %d, "
            "\"uncached_qps\": %.1f, \"cached_qps\": %.1f, "
            "\"speedup\": %.2f, \"result_hit_rate\": %.4f, "
            "\"plan_hit_rate\": %.4f, \"uncached_queries\": %llu, "
            "\"cached_queries\": %llu}%s\n",
            cell.repeat_rate, cell.threads, cell.uncached_qps, cell.cached_qps,
            cell.speedup(), cell.result_hit_rate, cell.plan_hit_rate,
            static_cast<unsigned long long>(cell.uncached_queries),
            static_cast<unsigned long long>(cell.cached_queries),
            i + 1 < cells.size() ? "," : "");
  }
  fprintf(out, "  ]\n}\n");
  fclose(out);
}

void PrintSummary(const std::vector<Cell>& cells) {
  printf("\n=== Query-cache throughput (%d ms windows) ===\n", kWindowMs);
  printf("%-8s %8s %14s %14s %9s %9s %9s\n", "repeat", "threads",
         "uncached qps", "cached qps", "speedup", "res hit", "plan hit");
  for (const Cell& cell : cells) {
    printf("%-8.0f%% %7d %14.0f %14.0f %8.2fx %8.1f%% %8.1f%%\n",
           cell.repeat_rate * 100, cell.threads, cell.uncached_qps,
           cell.cached_qps, cell.speedup(), cell.result_hit_rate * 100,
           cell.plan_hit_rate * 100);
  }
  printf("\nAcceptance: the 95%%-repeat cells should exceed 5x speedup; "
         "full cells in BENCH_query_cache.json.\n");
}

void Run() {
  const int docs = Scaled(2000);
  Corpus corpus = BuildCorpus(docs);
  std::vector<Cell> cells;
  for (double rate : kRepeatRates) {
    for (int threads : kThreadCounts) {
      cells.push_back(MeasureCell(corpus.index.get(), rate, threads));
    }
  }
  WriteJson(cells, docs);
  PrintSummary(cells);
}

}  // namespace
}  // namespace bench
}  // namespace vist

int main() {
  vist::bench::Run();
  return 0;
}
