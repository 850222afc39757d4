// Shared pieces of the repository benchmark: command-line arguments, the
// result report, sample statistics, registry-counter deltas and the
// bench-side span tracer.
//
// The benchmark measures the library from outside. Spans are recorded only
// around calls into public functions (here and in the workload files);
// counts come from obs::MetricsRegistry deltas and QueryOptions::profile.

#ifndef VIST_PERFBENCH_COMMON_H_
#define VIST_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/queryable_index.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "server/server.h"
#include "vist/vist_index.h"

namespace vist {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now()) / 1000.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;    // index files live here (created, then removed)
  std::string trace_out;  // span dump (trace runs only); empty = none
};

/// Everything one run reports. Printed as one JSON object on stdout.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Provenance and diagnostics; `json` is an already-encoded JSON value.
  void Info(const std::string& key, const std::string& json);
  void Info(const std::string& key, double value);

  /// One attempted operation; a false `ok` counts as failed and keeps the
  /// first few descriptions.
  void Attempt(bool ok, const std::string& what = "");
  /// The same for an operation that returned `status`; a failure is
  /// described as "<what>: <status>".
  void Attempt(const Status& status, std::string_view what);
  /// Adds another report's attempts and failures (not its metrics).
  void Merge(const Report& other);

  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

std::string JsonString(std::string_view s);
std::string JsonNumbers(const std::vector<double>& values);

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Aborts the run (exit code 2, no result line) on a set-up error: a
/// benchmark that cannot build its inputs has nothing to report.
void CheckOk(const Status& status, const char* what);

double PeakRssMb();

/// Page size and pool size of an index, with its current page count.
void ReportPoolFit(Report* report, const std::string& prefix,
                   VistIndex* index);

/// Deltas of named registry counters between Take() and Delta().
class CounterDeltas {
 public:
  explicit CounterDeltas(std::vector<std::string> names);
  void Take();
  uint64_t Delta(const std::string& name) const;
  std::map<std::string, uint64_t> AllDeltas() const;

 private:
  std::vector<std::string> names_;
  std::vector<uint64_t> start_;
};

/// Every storage.* counter the library registers; the write-side
/// per-layer metrics and the exact-count check read these.
const std::vector<std::string>& StorageCounterNames();

// ---------------------------------------------------------------------------
// Span tracer. A span is a named interval on one thread with the span that
// was open on that thread when it began as its parent. Spans are kept in
// memory per thread and written out when the run ends. Recording is
// switched by SetTracing(); when off, a ScopedSpan costs one atomic load.

struct Span {
  const char* name = nullptr;  // static string; identity is the name
  int32_t parent = -1;         // index into the same thread's spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

void SetTracing(bool on);
bool TracingOn();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  struct ThreadLog* log_ = nullptr;
  int32_t index_ = -1;
};

/// Count, total and self time (total minus direct children) per span name.
struct SpanStats {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  double mean_us() const { return count == 0 ? 0 : total_us / count; }
  double mean_self_us() const { return count == 0 ? 0 : self_us / count; }
};
std::map<std::string, SpanStats> AggregateSpans();

/// Writes every recorded span (one per line, tab-separated) to `path`.
void WriteSpans(const std::string& path);

/// A QueryableIndex decorator that records one span per call into the
/// wrapped index: `query_span` around Query/QueryWithPlan, `prepare_span`
/// around Prepare and `flush_span` around Flush.
class SpanningIndex : public QueryableIndex {
 public:
  SpanningIndex(QueryableIndex* wrapped, const char* query_span,
                const char* prepare_span, const char* flush_span)
      : wrapped_(wrapped),
        query_span_(query_span),
        prepare_span_(prepare_span),
        flush_span_(flush_span) {}

  Result<std::vector<uint64_t>> Query(std::string_view path,
                                      const QueryOptions& options) override {
    ScopedSpan span(query_span_);
    return wrapped_->Query(path, options);
  }
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options) override {
    ScopedSpan span(prepare_span_);
    return wrapped_->Prepare(path, options);
  }
  Result<std::vector<uint64_t>> QueryWithPlan(
      const QueryPlan& plan, const QueryOptions& options) override {
    ScopedSpan span(query_span_);
    return wrapped_->QueryWithPlan(plan, options);
  }
  Result<std::shared_ptr<const Snapshot>> GetSnapshot() override {
    return wrapped_->GetSnapshot();
  }
  Result<IndexStats> Stats() override { return wrapped_->Stats(); }
  Status Flush() override {
    ScopedSpan span(flush_span_);
    return wrapped_->Flush();
  }
  uint64_t epoch() const override { return wrapped_->epoch(); }

 private:
  QueryableIndex* const wrapped_;
  const char* const query_span_;
  const char* const prepare_span_;
  const char* const flush_span_;
};

/// The server's document writer with the parse and the index call timed
/// as separate spans. Does what server::VistIndexWriter does, split at the
/// boundary between xml::Parse and the index.
class SpanningWriter : public server::DocumentWriter {
 public:
  explicit SpanningWriter(VistIndex* index) : index_(index) {}
  Status Insert(std::string_view xml, uint64_t doc_id) override;
  Status Delete(std::string_view xml, uint64_t doc_id) override;

 private:
  VistIndex* const index_;
};

// ---------------------------------------------------------------------------
// The E1 query set (Table 3; Q6 adapted to XMARK's mailbox/mail nesting).

struct E1Query {
  const char* label;
  const char* path;
  bool dblp;  // else XMARK
};
extern const E1Query kE1Queries[8];
/// Span names "vist.execute.Q1" ... "vist.execute.Q8".
extern const char* const kExecuteSpans[8];

/// Prepare + QueryWithPlan, as VistIndex::Query does, with a
/// "query.prepare" span around the first and `execute_span` around the
/// second.
Result<std::vector<uint64_t>> PrepareAndRun(VistIndex* index,
                                            std::string_view path,
                                            const char* execute_span);

/// Single-threaded per-query counts: QueryOptions::profile plus global
/// counter deltas around one Prepare + QueryWithPlan.
struct QueryCounts {
  uint64_t range_scans = 0;
  uint64_t entries_scanned = 0;
  uint64_t docid_range_scans = 0;
  uint64_t nodes_matched = 0;
  uint64_t node_accesses = 0;
  uint64_t seeks = 0;
  uint64_t results = 0;
  double execute_us = 0;

  bool SameCounts(const QueryCounts& other) const;
};

/// Runs Q1..Q8 once each, the DBLP queries on `dblp` and the XMARK ones
/// on `xmark` (the same index for a mixed corpus), and returns their
/// counts.
std::vector<QueryCounts> CountQueries(VistIndex* dblp, VistIndex* xmark);

/// Reports the per-query read-layer metrics. `execute_us[q]` is the span
/// mean to report (0 = use the counted pass's own time). Two counted
/// passes are compared for the exact-count check.
void ReportQueryLayer(Report* report, const std::vector<QueryCounts>& first,
                      const std::vector<QueryCounts>& second,
                      const std::vector<double>& execute_us,
                      std::vector<std::string>* nonrepeating);

/// Reports trace.nonrepeating_counts and the names behind it.
void ReportNonrepeating(Report* report,
                        const std::vector<std::string>& nonrepeating);

/// Records, as info "exact_counts", the counts a traced run of one seed
/// must reproduce in every later run: the per-query counts and the
/// storage counter deltas of a single-writer phase. run.py compares them
/// across runs.
void ReportExactCounts(Report* report, const std::vector<QueryCounts>& counts,
                       const std::map<std::string, uint64_t>& storage);

/// Reports the write-side storage metrics from storage counter deltas
/// over a phase with `writes` inserts+deletes, `ops` operations of any
/// kind and `doc_bytes` XML bytes inserted.
void ReportWriteStorage(Report* report,
                        const std::map<std::string, uint64_t>& deltas,
                        uint64_t writes, uint64_t ops, uint64_t doc_bytes,
                        uint32_t page_size);

/// Reports storage.syncs_per_flush and storage.journal_syncs_per_flush
/// from storage counter deltas over a phase with `flushes` Flush calls.
void ReportSyncs(Report* report, const std::map<std::string, uint64_t>& deltas,
                 uint64_t flushes);

/// Reports trace.ops_s_ratio and trace.p50_ratio (traced over untraced).
void ReportTraceOverhead(Report* report, double traced_ops_s,
                         double untraced_ops_s, double traced_p50,
                         double untraced_p50);

/// Serves `paths` (answers checked against `index`) plus a few writes
/// through a short-lived server over `index`, with the span decorators,
/// and reports the exec and server layer metrics. Used by the workloads
/// whose timed phase has no serving path.
void ServingProbe(VistIndex* index, const std::vector<const char*>& paths,
                  Report* report);

// ---------------------------------------------------------------------------
// Workloads.

void RunStructQuery(const Args& args, Report* report);
void RunIngestDurable(const Args& args, Report* report);

}  // namespace perfbench
}  // namespace vist

#endif  // VIST_PERFBENCH_COMMON_H_
