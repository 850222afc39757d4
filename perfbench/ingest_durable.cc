// ingest_durable: one durable writer, in process, over an index larger
// than its buffer pool.
//
// Records are DBLP-like and XMARK-like documents, alternating, serialized
// at set-up. The writer parses each with xml::Parse and calls
// InsertDocument; one operation in every ten instead deletes a random
// earlier document. Flush() (which fsyncs the page file) runs every 100
// operations. The pool is 512 pages (2 MiB), which the index outgrows
// after about a thousand operations, so the time goes to parsing, B+ tree
// puts, splits and shadowing, evictions and dirty write-backs, and the
// journal. Reads do nothing.
//
// The timed phase runs under DurabilityLevel::kProcessCrash: under
// kPowerLoss each operation waits for several journal fsyncs, and on a
// shared host their latency swings so much from run to run that the
// timings do not repeat (README.md has the figures). The kPowerLoss path
// is measured by its counts instead: a traced run replays the first 500
// operations under kPowerLoss, twice, and reports its syncs per Flush.
//
// After the timed phase a few more documents are inserted without a
// Flush, the process "crashes" (VistIndex::SimulateCrashForTesting), and
// the directory is reopened: every document acknowledged before the last
// Flush must be present, every deleted or unflushed one absent, and
// CheckIntegrity() clean. Point reads of live DBLP titles on the
// reopened, cold index give the read metrics; every deleted or unflushed
// DBLP title must read as absent.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <thread>

#include "common.h"
#include "common/random.h"
#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace vist {
namespace perfbench {
namespace {

constexpr size_t kPoolPages = 512;
constexpr int kFlushEvery = 100;
constexpr int kDeleteEvery = 10;
constexpr int kRecords = 20000;  // serialized at set-up; more than a run uses
constexpr int kSetupReps = 5;
constexpr int kUnflushedTail = 10;
// The read probe, like the timed phase, is --seconds times this many
// point reads (~0.4 s of reads per --second on a 4-thread x86-64 host),
// taken in rounds of kReadRound (25 per DBLP root).
constexpr double kReadsPerSecond = 400;
constexpr int kReadRound = 100;
constexpr int kCountedOps = 500;  // the exact-count prefix
// The records are the same in every run; --seed picks which documents are
// deleted and which are read back. Scope-underflow labelling makes the
// index layout, and with it the read cost, depend on the exact corpus:
// with a corpus per seed, read_p50_ms spread 0.29 (interquartile range
// over median, ten seeds) against 0.10 with this one.
constexpr uint64_t kCorpusSeed = 7;
// The timed phase is a fixed amount of work, --seconds times this many
// operations, so the index every later check and probe reads has the same
// size in every run of one seed. (Under kProcessCrash a 4-thread x86-64
// host sustains 700-900 ops/s here; the rate falls as the index outgrows
// the pool.)
constexpr double kOpsPerSecond = 200;

// The DBLP roots first, then XMARK's.
const char* const kRootNames[] = {"inproceedings", "article", "book",
                                  "phdthesis", "site"};
constexpr int kDblpRoots = 4;

struct Record {
  std::string xml;
  std::string root;     // root element name
  int64_t dblp = -1;    // DBLP stream position (its title is title_<dblp>)
};

std::vector<Record> Generate() {
  DblpGenerator dblp_gen{DblpOptions{kCorpusSeed, 2000}};
  XmarkGenerator xmark_gen{XmarkOptions{kCorpusSeed + 1, 5000}};
  std::vector<Record> records;
  records.reserve(kRecords);
  for (int i = 0; i < kRecords; ++i) {
    const uint64_t k = static_cast<uint64_t>(i / 2);
    xml::Document doc =
        i % 2 == 0 ? dblp_gen.NextRecord(k) : xmark_gen.NextRecord(k);
    Record record;
    record.xml = xml::Write(doc);
    record.root = doc.root()->name();
    if (i % 2 == 0) record.dblp = static_cast<int64_t>(k);
    records.push_back(std::move(record));
  }
  return records;
}

VistOptions IngestOptions(DurabilityLevel durability) {
  VistOptions options;
  options.buffer_pool_pages = kPoolPages;
  options.durability = durability;
  return options;
}

/// The deterministic operation stream: insert the next record, except
/// every tenth operation deletes a random live earlier document.
class OpStream {
 public:
  explicit OpStream(uint64_t seed) : rng_(seed * 31 + 7) {}

  struct Op {
    bool insert = true;
    size_t record = 0;  // doc id is record + 1
  };

  /// False when the records are used up.
  bool Next(Op* op) {
    ++ops_;
    if (ops_ % kDeleteEvery == 0 && !live_.empty()) {
      const size_t pick = rng_.Uniform(live_.size());
      op->insert = false;
      op->record = live_[pick];
      live_[pick] = live_.back();
      live_.pop_back();
      return true;
    }
    if (next_ >= kRecords) return false;
    op->insert = true;
    op->record = next_++;
    live_.push_back(op->record);
    return true;
  }

  const std::vector<size_t>& live() const { return live_; }
  size_t inserted() const { return next_; }

 private:
  Random rng_;
  uint64_t ops_ = 0;
  size_t next_ = 0;
  std::vector<size_t> live_;
};

Status Apply(VistIndex* index, const std::vector<Record>& records,
             const OpStream::Op& op) {
  Result<xml::Document> doc = [&] {
    ScopedSpan span("xml.parse");
    return xml::Parse(records[op.record].xml);
  }();
  if (!doc.ok()) return doc.status();
  if (op.insert) {
    ScopedSpan span("vist.insert");
    return index->InsertDocument(*doc->root(), op.record + 1);
  }
  ScopedSpan span("vist.delete");
  return index->DeleteDocument(*doc->root(), op.record + 1);
}

/// The geometric mean over the DBLP roots of each root's median read.
double MedianPerRoot(std::vector<double> (&root_ms)[kDblpRoots]) {
  double log_sum = 0;
  for (std::vector<double>& samples : root_ms) {
    log_sum += std::log(std::max(1e-9, Percentile(&samples, 0.5)));
  }
  return std::exp(log_sum / kDblpRoots);
}

std::unique_ptr<VistIndex> Create(const std::string& dir,
                                  DurabilityLevel durability) {
  std::filesystem::remove_all(dir);
  auto created = VistIndex::Create(dir, IngestOptions(durability));
  CheckOk(created.status(), "create index");
  return std::move(created).value();
}

/// Storage counter deltas over the first kCountedOps operations of the
/// stream under kPowerLoss, in a fresh directory (the exact-count check
/// runs this twice).
std::map<std::string, uint64_t> CountPrefix(
    const std::string& dir, const std::vector<Record>& records,
    uint64_t seed) {
  std::unique_ptr<VistIndex> index = Create(dir, DurabilityLevel::kPowerLoss);
  CounterDeltas deltas(StorageCounterNames());
  deltas.Take();
  OpStream stream(seed);
  OpStream::Op op;
  for (int i = 1; i <= kCountedOps && stream.Next(&op); ++i) {
    CheckOk(Apply(index.get(), records, op), "counted op");
    if (i % kFlushEvery == 0) CheckOk(index->Flush(), "counted flush");
  }
  std::map<std::string, uint64_t> counts = deltas.AllDeltas();
  index.reset();
  std::filesystem::remove_all(dir);
  return counts;
}

}  // namespace

void RunIngestDurable(const Args& args, Report* report) {
  const std::string dir = args.workdir + "/ingest";

  // Set-up: serialize the records and create the durable index.
  std::vector<Record> records;
  std::unique_ptr<VistIndex> index;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    index.reset();
    const auto start = Clock::now();
    records = Generate();
    index = Create(dir, DurabilityLevel::kProcessCrash);
    setup_s.push_back(SecondsSince(start));
  }

  // Timed phase. Tracing alternates per flush block in a traced run.
  CounterDeltas storage(StorageCounterNames());
  CounterDeltas underflow({"vist.insert.underflow_runs",
                           "vist.insert.sequences"});
  storage.Take();
  underflow.Take();
  OpStream stream(args.seed);
  std::vector<double> write_ms[2], flush_ms;
  double block_s[2] = {0, 0};
  uint64_t ops[2] = {0, 0};
  uint64_t inserted_bytes = 0;
  bool exhausted = false;
  const auto start = Clock::now();
  const int blocks = std::max(
      1, static_cast<int>(args.seconds * kOpsPerSecond / kFlushEvery));
  for (int block = 0; !exhausted && block < blocks; ++block) {
    const bool traced = args.trace && block % 2 == 1;
    SetTracing(traced);
    const auto block_start = Clock::now();
    for (int i = 0; i < kFlushEvery; ++i) {
      OpStream::Op op;
      if (!stream.Next(&op)) {
        exhausted = true;
        break;
      }
      const auto op_start = Clock::now();
      const Status status = Apply(index.get(), records, op);
      write_ms[traced].push_back(MsBetween(op_start, Clock::now()));
      ++ops[traced];
      if (op.insert) inserted_bytes += records[op.record].xml.size();
      report->Attempt(status, "write");
    }
    const auto flush_start = Clock::now();
    {
      ScopedSpan span("vist.flush");
      const Status status = index->Flush();
      report->Attempt(status, "flush");
    }
    flush_ms.push_back(MsBetween(flush_start, Clock::now()));
    block_s[traced] += SecondsSince(block_start);
  }
  SetTracing(false);
  const double elapsed = SecondsSince(start);
  const uint64_t total_ops = ops[0] + ops[1];
  const uint64_t flushes = flush_ms.size();
  const std::map<std::string, uint64_t> storage_deltas = storage.AllDeltas();
  const double underflow_ratio =
      static_cast<double>(underflow.Delta("vist.insert.underflow_runs")) /
      static_cast<double>(
          std::max<uint64_t>(1, underflow.Delta("vist.insert.sequences")));
  ReportPoolFit(report, "ingest", index.get());

  // Every acknowledged op is now durable. An unflushed tail follows, which
  // the crash must lose.
  const std::vector<size_t> live = stream.live();
  const size_t flushed_inserts = stream.inserted();
  for (int i = 0; i < kUnflushedTail; ++i) {
    OpStream::Op op;
    op.insert = true;
    op.record = flushed_inserts + static_cast<size_t>(i);
    if (op.record >= records.size()) break;
    report->Attempt(Apply(index.get(), records, op), "tail insert");
  }
  index->SimulateCrashForTesting();
  index.reset();

  auto reopened =
      VistIndex::Open(dir, IngestOptions(DurabilityLevel::kProcessCrash));
  CheckOk(reopened.status(), "reopen");
  index = std::move(reopened).value();
  auto integrity = index->CheckIntegrity();
  CheckOk(integrity.status(), "check integrity");
  report->Attempt(integrity->ok(),
                  integrity->ok() ? "" : "integrity: " +
                                             integrity->problems.front());

  std::set<uint64_t> expected;
  uint64_t live_bytes = 0;
  for (size_t record : live) {
    expected.insert(record + 1);
    live_bytes += records[record].xml.size();
  }
  std::set<uint64_t> found;
  for (const char* root : kRootNames) {
    auto ids = index->Query(std::string("/") + root);
    CheckOk(ids.status(), "root query");
    found.insert(ids->begin(), ids->end());
  }
  report->Attempt(found == expected,
                  "reopened index holds " + std::to_string(found.size()) +
                      " docs, expected " + std::to_string(expected.size()));
  auto stats = index->Stats();
  CheckOk(stats.status(), "stats");
  report->Attempt(stats->num_documents == expected.size(),
                  "num_documents after reopen");

  // Read probe: point reads of live DBLP titles on the reopened index,
  // with a cold pool, in rounds of kReadRound. A read's cost follows its
  // root element (an inproceedings title costs ~10x a phdthesis one), so
  // each round takes the DBLP roots in turn and yields the geometric mean
  // of its per-root medians. read_p50_ms is the fastest round. These reads
  // are memory-bound: on a shared host, other tenants slow them by up to
  // 1.6x for seconds or minutes at a time, against ~1.2x for the writes.
  // Noise of that kind only adds time, and the fastest round is the
  // estimate it moves least (1.2x). The median of all reads, which the
  // provenance line still prints as read_p50_all_ms, followed the host.
  CounterDeltas pool(
      {"storage.buffer_pool.hits", "storage.buffer_pool.misses"});
  Random rng(args.seed * 131 + 3);
  std::vector<size_t> by_root[kDblpRoots];
  for (size_t record : live) {
    for (int k = 0; k < kDblpRoots; ++k) {
      if (records[record].root == kRootNames[k]) by_root[k].push_back(record);
    }
  }
  for (const std::vector<size_t>& of_root : by_root) {
    if (of_root.empty()) {
      CheckOk(Status::NotFound("no live record of a DBLP root"), "read probe");
    }
  }
  auto read_title = [&](size_t record, bool present) {
    const Record& r = records[record];
    const std::string path = "/" + r.root + "/title[text()='title_" +
                             std::to_string(r.dblp) + "']";
    const Result<std::vector<uint64_t>> ids =
        PrepareAndRun(index.get(), path, "vist.execute");
    report->Attempt(ids.ok() && ids->size() == (present ? 1u : 0u) &&
                        (!present || (*ids)[0] == record + 1),
                    "point read " + path);
  };
  const int rounds = std::max(
      1, static_cast<int>(args.seconds * kReadsPerSecond / kReadRound));
  std::vector<double> read_ms, round_ms, all_root_ms[kDblpRoots];
  SetTracing(args.trace);
  pool.Take();
  for (int round = 0; round < rounds; ++round) {
    std::vector<double> root_ms[kDblpRoots];
    for (int i = 0; i < kReadRound; ++i) {
      const int k = i % kDblpRoots;
      const auto op_start = Clock::now();
      read_title(by_root[k][rng.Uniform(by_root[k].size())], true);
      read_ms.push_back(MsBetween(op_start, Clock::now()));
      root_ms[k].push_back(read_ms.back());
      all_root_ms[k].push_back(read_ms.back());
    }
    round_ms.push_back(MedianPerRoot(root_ms));
  }
  SetTracing(false);
  const uint64_t hits = pool.Delta("storage.buffer_pool.hits");
  const uint64_t misses = pool.Delta("storage.buffer_pool.misses");
  // Untimed: every deleted or unflushed DBLP document must read as absent.
  const size_t candidates = std::min(records.size(),
                                     flushed_inserts + kUnflushedTail);
  for (size_t record = 0; record < candidates; record += 2) {
    // DBLP records sit at even positions.
    if (expected.count(record + 1) == 0) read_title(record, false);
  }

  report->Info("ops", static_cast<double>(total_ops));
  report->Info("flushes", static_cast<double>(flushes));
  report->Info("live_docs", static_cast<double>(expected.size()));
  report->Info("records_exhausted", exhausted ? "true" : "false");
  report->Info("durability",
               "\"kProcessCrash; kPowerLoss in the counted prefix\"");
  ReportPoolFit(report, "ingest_reopened", index.get());

  std::vector<double> writes = write_ms[0];
  writes.insert(writes.end(), write_ms[1].begin(), write_ms[1].end());
  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Info("setup_s_reps", JsonNumbers(setup_s));
    report->Metric("ops_s", static_cast<double>(total_ops) / elapsed, "1/s");
    report->Metric("read_p50_ms",
                   *std::min_element(round_ms.begin(), round_ms.end()), "ms");
    report->Metric("read_p99_ms", Percentile(&read_ms, 0.99), "ms");
    report->Metric("read_p50_all_ms", MedianPerRoot(all_root_ms), "ms");
    report->Metric("write_p50_ms", Percentile(&writes, 0.50), "ms");
    report->Metric("write_p99_ms", Percentile(&writes, 0.99), "ms");
    report->Metric("flush_p50_ms", Percentile(&flush_ms, 0.50), "ms");
    report->Metric("index_bytes_per_doc_byte",
                   static_cast<double>(stats->size_bytes) /
                       static_cast<double>(std::max<uint64_t>(1, live_bytes)),
                   "B/B");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  const auto spans = AggregateSpans();
  auto span_mean = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_us();
  };
  const std::vector<QueryCounts> first =
      CountQueries(index.get(), index.get());
  const std::vector<QueryCounts> second =
      CountQueries(index.get(), index.get());
  std::vector<std::string> nonrepeating;
  ReportQueryLayer(report, first, second, std::vector<double>(8, 0.0),
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
  report->Metric("vist.underflow_per_insert", underflow_ratio, "ratio");
  ReportWriteStorage(report, storage_deltas, total_ops, total_ops,
                     inserted_bytes, index->options().page_size);
  ReportTraceOverhead(report,
                      static_cast<double>(ops[1]) / std::max(block_s[1], 1e-9),
                      static_cast<double>(ops[0]) / std::max(block_s[0], 1e-9),
                      Percentile(&write_ms[1], 0.5),
                      Percentile(&write_ms[0], 0.5));

  // Exact-count check: the same operation prefix twice, fresh each time,
  // under kPowerLoss; its fsync counts are the durable path's.
  const auto a = CountPrefix(args.workdir + "/count_a", records, args.seed);
  const auto b = CountPrefix(args.workdir + "/count_b", records, args.seed);
  for (const auto& [name, value] : a) {
    if (b.at(name) != value) nonrepeating.push_back(name);
  }
  ReportSyncs(report, a, kCountedOps / kFlushEvery);
  ReportNonrepeating(report, nonrepeating);
  ReportExactCounts(report, first, storage_deltas);

  std::vector<const char*> paths;
  for (const E1Query& q : kE1Queries) paths.push_back(q.path);
  ServingProbe(index.get(), paths, report);
}

}  // namespace perfbench
}  // namespace vist
