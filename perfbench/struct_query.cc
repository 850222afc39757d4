// struct_query: the paper's structural queries under a closed loop.
//
// Four client threads in one process run the E1 set (Q1-Q5 over a
// DBLP-like index, Q6-Q8 over an XMARK-like index) against bare
// VistIndexes: no cache, no server, no router. Each thread cycles through
// the set from its own offset and checks every answer against a reference
// fixed at set-up. Almost all the time goes to the matcher, B+ tree seeks
// and buffer-pool hits; both indexes fit the default pool.
//
// After the timed phase a fixed write probe (insert then delete of 1,000
// fresh DBLP records, Flush every 100 operations) gives the write and
// flush metrics every workload reports; it does not overlap the read
// phase.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <thread>

#include "common.h"
#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "query/path_parser.h"
#include "vist/verifier.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace vist {
namespace perfbench {
namespace {

constexpr int kThreads = 4;
constexpr int kRecords = 4000;     // per index
constexpr int kSetupReps = 3;      // builds per run; setup_s is their median
constexpr int kProbeWrites = 2000; // inserts + deletes in the write probe
constexpr int kFlushEvery = 100;
constexpr double kTraceBlockS = 0.25;

struct Corpus {
  std::vector<xml::Document> docs;
  uint64_t xml_bytes = 0;
};

Corpus Generate(bool dblp, uint64_t seed, int records) {
  Corpus corpus;
  DblpGenerator dblp_gen{DblpOptions{seed, 2000}};
  XmarkGenerator xmark_gen{XmarkOptions{seed, 5000}};
  for (int i = 0; i < records; ++i) {
    corpus.docs.push_back(dblp ? dblp_gen.NextRecord(i)
                               : xmark_gen.NextRecord(i));
    corpus.xml_bytes += xml::Write(corpus.docs.back()).size();
  }
  return corpus;
}

std::unique_ptr<VistIndex> Build(const std::string& dir,
                                 const Corpus& corpus) {
  std::filesystem::remove_all(dir);
  auto created = VistIndex::Create(dir, VistOptions());
  CheckOk(created.status(), "create index");
  std::unique_ptr<VistIndex> index = std::move(created).value();
  for (size_t i = 0; i < corpus.docs.size(); ++i) {
    CheckOk(index->InsertDocument(*corpus.docs[i].root(), i + 1),
            "insert document");
  }
  CheckOk(index->Flush(), "flush");
  return index;
}

/// Doc ids whose document really embeds the query (the verifier's
/// semantics). ViST's unverified answer must contain all of them.
std::set<uint64_t> TrueAnswer(const char* path, const Corpus& corpus) {
  auto expr = query::ParsePath(path);
  CheckOk(expr.status(), "parse E1 query");
  auto tree = query::BuildQueryTree(*expr);
  CheckOk(tree.status(), "lower E1 query");
  std::set<uint64_t> ids;
  for (size_t i = 0; i < corpus.docs.size(); ++i) {
    if (VerifyEmbedding(*tree, *corpus.docs[i].root())) ids.insert(i + 1);
  }
  return ids;
}

struct ThreadResult {
  std::vector<double> latency_ms[2];  // [traced]
  std::vector<double> by_query[8];    // the same latencies, per query
  Report checks;
};

/// The E1 mix's typical latency: the geometric mean over Q1-Q8 of each
/// query's median. (The median of the mixed samples falls between two
/// query classes and jumps between them from run to run.)
double TypicalLatency(std::vector<double> (&by_query)[8]) {
  double log_sum = 0;
  for (std::vector<double>& samples : by_query) {
    log_sum += std::log(std::max(1e-9, Percentile(&samples, 0.5)));
  }
  return std::exp(log_sum / 8);
}

}  // namespace

void RunStructQuery(const Args& args, Report* report) {
  const Corpus dblp = Generate(true, args.seed, kRecords);
  const Corpus xmark = Generate(false, args.seed + 1, kRecords);

  // Set-up: the paper's dynamic build (Fig. 11b) of both indexes.
  std::unique_ptr<VistIndex> dblp_index, xmark_index;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dblp_index.reset();
    xmark_index.reset();
    const auto start = Clock::now();
    dblp_index = Build(args.workdir + "/dblp", dblp);
    xmark_index = Build(args.workdir + "/xmark", xmark);
    setup_s.push_back(SecondsSince(start));
  }

  // Reference answers, outside setup_s: ViST's own single-threaded answer,
  // which must contain every true embedding.
  std::vector<std::vector<uint64_t>> reference;
  uint64_t false_positives = 0;
  for (const E1Query& q : kE1Queries) {
    VistIndex* index = q.dblp ? dblp_index.get() : xmark_index.get();
    auto ids = index->Query(q.path);
    CheckOk(ids.status(), "reference query");
    const std::set<uint64_t> truth =
        TrueAnswer(q.path, q.dblp ? dblp : xmark);
    const std::set<uint64_t> got(ids->begin(), ids->end());
    const bool complete = std::includes(got.begin(), got.end(),
                                        truth.begin(), truth.end());
    report->Attempt(complete, std::string("reference misses a true match: ") +
                                  q.label);
    false_positives += got.size() - truth.size();
    reference.push_back(std::move(ids).value());
  }
  std::string sizes = "[";
  for (size_t q = 0; q < reference.size(); ++q) {
    sizes += (q ? ", " : "") + std::to_string(reference[q].size());
  }
  report->Info("reference_sizes", sizes + "]");
  report->Info("reference_false_positives",
               static_cast<double>(false_positives));

  std::vector<QueryCounts> counted_first;
  if (args.trace) {
    counted_first = CountQueries(dblp_index.get(), xmark_index.get());
  }

  // Timed phase: closed loop, kThreads threads.
  CounterDeltas pool(
      {"storage.buffer_pool.hits", "storage.buffer_pool.misses"});
  pool.Take();
  std::atomic<bool> stop{false};
  std::vector<ThreadResult> results(kThreads);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadResult& mine = results[static_cast<size_t>(t)];
      for (size_t i = static_cast<size_t>(t) * 2;
           !stop.load(std::memory_order_relaxed); ++i) {
        const size_t q = i % 8;
        const E1Query& query = kE1Queries[q];
        VistIndex* index =
            query.dblp ? dblp_index.get() : xmark_index.get();
        const bool traced = TracingOn();
        const auto op_start = Clock::now();
        const Result<std::vector<uint64_t>> ids =
            PrepareAndRun(index, query.path, kExecuteSpans[q]);
        const double ms = MsBetween(op_start, Clock::now());
        mine.latency_ms[traced].push_back(ms);
        mine.by_query[q].push_back(ms);
        if (ids.ok() && *ids == reference[q]) {
          mine.checks.Attempt(true);
        } else {
          mine.checks.Attempt(false, std::string("wrong answer: ") +
                                         query.label);
        }
      }
    });
  }
  double time_on = 0, time_off = 0;
  while (SecondsSince(start) < args.seconds) {
    const auto block = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::min(kTraceBlockS, std::max(0.0, args.seconds -
                                                 SecondsSince(start)))));
    (TracingOn() ? time_on : time_off) += SecondsSince(block);
    if (args.trace) SetTracing(!TracingOn());
  }
  stop.store(true);
  for (auto& thread : threads) thread.join();
  SetTracing(false);
  const double elapsed = SecondsSince(start);

  std::vector<double> all, lat[2], by_query[8];
  for (ThreadResult& r : results) {
    for (int traced = 0; traced < 2; ++traced) {
      lat[traced].insert(lat[traced].end(), r.latency_ms[traced].begin(),
                         r.latency_ms[traced].end());
    }
    for (size_t q = 0; q < 8; ++q) {
      by_query[q].insert(by_query[q].end(), r.by_query[q].begin(),
                         r.by_query[q].end());
    }
    report->Merge(r.checks);
  }
  all = lat[0];
  all.insert(all.end(), lat[1].begin(), lat[1].end());
  const uint64_t hits = pool.Delta("storage.buffer_pool.hits");
  const uint64_t misses = pool.Delta("storage.buffer_pool.misses");

  std::vector<QueryCounts> counted_second;
  if (args.trace) {
    counted_second = CountQueries(dblp_index.get(), xmark_index.get());
  }

  auto dblp_stats = dblp_index->Stats();
  auto xmark_stats = xmark_index->Stats();
  CheckOk(dblp_stats.status(), "stats");
  CheckOk(xmark_stats.status(), "stats");
  ReportPoolFit(report, "dblp", dblp_index.get());
  ReportPoolFit(report, "xmark", xmark_index.get());
  report->Info("records_per_index", static_cast<double>(kRecords));
  report->Info("threads", static_cast<double>(kThreads));
  report->Info("queries", static_cast<double>(all.size()));

  // Write probe on the DBLP index: insert then delete fresh records.
  const Corpus probe = Generate(true, args.seed + 2, kProbeWrites / 2 + 1);
  std::vector<std::string> probe_xml;
  uint64_t probe_bytes = 0;
  for (int k = 0; k < kProbeWrites / 2; ++k) {
    // Record 0 of every DBLP stream is the same book; skip it.
    probe_xml.push_back(xml::Write(probe.docs[static_cast<size_t>(k) + 1]));
    probe_bytes += probe_xml.back().size();
  }
  CounterDeltas storage(StorageCounterNames());
  CounterDeltas underflow({"vist.insert.underflow_runs",
                           "vist.insert.sequences"});
  SetTracing(args.trace);
  storage.Take();
  underflow.Take();
  std::vector<double> write_ms, flush_ms;
  for (int op = 0; op < kProbeWrites; ++op) {
    const size_t k = static_cast<size_t>(op / 2);
    const uint64_t id = 1000000 + k;
    const auto op_start = Clock::now();
    Result<xml::Document> doc = [&] {
      ScopedSpan span("xml.parse");
      return xml::Parse(probe_xml[k]);
    }();
    CheckOk(doc.status(), "parse probe record");
    Status status;
    if (op % 2 == 0) {
      ScopedSpan span("vist.insert");
      status = dblp_index->InsertDocument(*doc->root(), id);
    } else {
      ScopedSpan span("vist.delete");
      status = dblp_index->DeleteDocument(*doc->root(), id);
    }
    write_ms.push_back(MsBetween(op_start, Clock::now()));
    report->Attempt(status, "probe write");
    if ((op + 1) % kFlushEvery == 0) {
      const auto flush_start = Clock::now();
      {
        ScopedSpan span("vist.flush");
        report->Attempt(dblp_index->Flush(), "probe flush");
      }
      flush_ms.push_back(MsBetween(flush_start, Clock::now()));
    }
  }
  SetTracing(false);
  const std::map<std::string, uint64_t> storage_deltas = storage.AllDeltas();

  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Info("setup_s_reps", JsonNumbers(setup_s));
    report->Metric("ops_s", static_cast<double>(all.size()) / elapsed, "1/s");
    report->Metric("read_p50_ms", TypicalLatency(by_query), "ms");
    report->Metric("read_p99_ms", Percentile(&all, 0.99), "ms");
    report->Metric("write_p50_ms", Percentile(&write_ms, 0.50), "ms");
    report->Metric("write_p99_ms", Percentile(&write_ms, 0.99), "ms");
    report->Metric("flush_p50_ms", Percentile(&flush_ms, 0.50), "ms");
    report->Metric("index_bytes_per_doc_byte",
                   static_cast<double>(dblp_stats->size_bytes +
                                       xmark_stats->size_bytes) /
                       static_cast<double>(dblp.xml_bytes + xmark.xml_bytes),
                   "B/B");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  const auto spans = AggregateSpans();
  auto span_mean = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_us();
  };
  std::vector<double> execute_us;
  for (const char* name : kExecuteSpans) execute_us.push_back(span_mean(name));
  std::vector<std::string> nonrepeating;
  ReportQueryLayer(report, counted_first, counted_second, execute_us,
                   &nonrepeating);
  report->Metric("storage.pool_hit_ratio",
                 static_cast<double>(hits) /
                     static_cast<double>(std::max<uint64_t>(1, hits + misses)),
                 "ratio");
  report->Metric("query.prepare_us", span_mean("query.prepare"), "us");
  report->Metric("vist.insert_us", span_mean("vist.insert"), "us");
  report->Metric("vist.delete_us", span_mean("vist.delete"), "us");
  report->Metric("vist.flush_us", span_mean("vist.flush"), "us");
  report->Metric("xml.parse_us", span_mean("xml.parse"), "us");
  report->Metric(
      "vist.underflow_per_insert",
      static_cast<double>(underflow.Delta("vist.insert.underflow_runs")) /
          static_cast<double>(std::max<uint64_t>(
              1, underflow.Delta("vist.insert.sequences"))),
      "ratio");
  ReportSyncs(report, storage_deltas, flush_ms.size());
  ReportWriteStorage(report, storage_deltas, kProbeWrites, kProbeWrites,
                     probe_bytes,
                     dblp_index->options().page_size);
  ReportTraceOverhead(
      report, static_cast<double>(lat[1].size()) / std::max(time_on, 1e-9),
      static_cast<double>(lat[0].size()) / std::max(time_off, 1e-9),
      Percentile(&lat[1], 0.5), Percentile(&lat[0], 0.5));
  ReportNonrepeating(report, nonrepeating);
  ReportExactCounts(report, counted_first, storage_deltas);
  ServingProbe(dblp_index.get(), {kE1Queries[0].path, kE1Queries[1].path,
                                  kE1Queries[2].path, kE1Queries[3].path,
                                  kE1Queries[4].path},
               report);
}

}  // namespace perfbench
}  // namespace vist
