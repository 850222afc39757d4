#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "xml/parser.h"

namespace vist {
namespace perfbench {

// ---------------------------------------------------------------------------
// Report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& key, const std::string& json) {
  std::lock_guard<std::mutex> lock(mu_);
  info_.push_back({key, json});
}

void Report::Info(const std::string& key, double value) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", value);
  Info(key, std::string(buf));
}

void Report::Attempt(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 10) failures_.push_back(what);
  }
}

void Report::Attempt(const Status& status, std::string_view what) {
  if (status.ok()) {
    Attempt(true);
  } else {
    Attempt(false, std::string(what) + ": " + status.ToString());
  }
}

void Report::Merge(const Report& other) {
  std::scoped_lock lock(mu_, other.mu_);
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& failure : other.failures_) {
    if (failures_.size() < 10) failures_.push_back(failure);
  }
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    snprintf(buf, sizeof(buf), "%.6g", values[i]);
    out += (i ? ", " : "") + std::string(buf);
  }
  return out + "]";
}

std::string Report::ToJson() const {
  char buf[64];
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double value = metrics_[i].second.first;
    snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    out += (i ? ", " : "") + JsonString(metrics_[i].first) +
           ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(metrics_[i].second.second) + "}";
  }
  out += "}, \"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    out += (i ? ", " : "") + JsonString(info_[i].first) + ": " +
           info_[i].second;
  }
  out += "}, \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + JsonString(failures_[i]);
  }
  return out + "]}";
}

// ---------------------------------------------------------------------------
// Statistics and helpers

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return (*values)[std::min(index, values->size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(&values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
    exit(2);
  }
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ReportPoolFit(Report* report, const std::string& prefix,
                   VistIndex* index) {
  auto stats = index->Stats();
  CheckOk(stats.status(), "index stats");
  const uint64_t page_size = index->options().page_size;
  report->Info(prefix + ".index_pages",
               static_cast<double>(stats->size_bytes / page_size));
  report->Info(prefix + ".buffer_pool_pages",
               static_cast<double>(index->options().buffer_pool_pages));
  report->Info(prefix + ".fits_pool",
               stats->size_bytes / page_size <=
                       index->options().buffer_pool_pages
                   ? std::string("true")
                   : std::string("false"));
}

CounterDeltas::CounterDeltas(std::vector<std::string> names)
    : names_(std::move(names)), start_(names_.size(), 0) {}

void CounterDeltas::Take() {
  for (size_t i = 0; i < names_.size(); ++i) {
    start_[i] = obs::GetCounter(names_[i]).value();
  }
}

uint64_t CounterDeltas::Delta(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return obs::GetCounter(name).value() - start_[i];
  }
  fprintf(stderr, "perfbench: counter %s not tracked\n", name.c_str());
  exit(2);
}

std::map<std::string, uint64_t> CounterDeltas::AllDeltas() const {
  std::map<std::string, uint64_t> out;
  for (const std::string& name : names_) out[name] = Delta(name);
  return out;
}

const std::vector<std::string>& StorageCounterNames() {
  static const std::vector<std::string> names = {
      "storage.btree.deletes",
      "storage.btree.gets",
      "storage.btree.leaf_merges",
      "storage.btree.node_accesses",
      "storage.btree.pages_shadowed",
      "storage.btree.puts",
      "storage.btree.seeks",
      "storage.btree.splits",
      "storage.buffer_pool.dirty_writebacks",
      "storage.buffer_pool.evictions",
      "storage.buffer_pool.hits",
      "storage.buffer_pool.misses",
      "storage.mvcc.pages_reclaimed",
      "storage.mvcc.pages_retired",
      "storage.mvcc.reclaim_deferred",
      "storage.mvcc.versions_published",
      "storage.pager.freelist_reuses",
      "storage.pager.journal_pages",
      "storage.pager.journal_syncs",
      "storage.pager.page_reads",
      "storage.pager.page_writes",
      "storage.pager.pages_allocated",
      "storage.pager.pages_freed",
      "storage.pager.syncs",
  };
  return names;
}

// ---------------------------------------------------------------------------
// Span tracer

struct ThreadLog {
  std::vector<Span> spans;
  std::vector<int32_t> open;
  uint32_t thread = 0;
};

namespace {

constexpr size_t kMaxSpansPerThread = size_t{1} << 21;

std::atomic<bool> g_tracing{false};
std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu
thread_local ThreadLog* t_log = nullptr;

ThreadLog* LocalLog() {
  if (t_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    t_log = g_logs.back().get();
    t_log->thread = static_cast<uint32_t>(g_logs.size() - 1);
  }
  return t_log;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name) {
  if (!TracingOn()) return;
  ThreadLog* log = LocalLog();
  if (log->spans.size() >= kMaxSpansPerThread) return;
  log_ = log;
  index_ = static_cast<int32_t>(log->spans.size());
  Span span;
  span.name = name;
  span.parent = log->open.empty() ? -1 : log->open.back();
  span.start_ns = NowNs();
  log->spans.push_back(span);
  log->open.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  log_->open.pop_back();
}

// Callers aggregate after every recording thread has been joined.
std::map<std::string, SpanStats> AggregateSpans() {
  std::lock_guard<std::mutex> lock(g_logs_mu);
  std::map<std::string, SpanStats> out;
  for (const auto& log : g_logs) {
    std::vector<int64_t> child_ns(log->spans.size(), 0);
    for (const Span& span : log->spans) {
      if (span.parent >= 0 && span.end_ns != 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const Span& span = log->spans[i];
      if (span.end_ns == 0) continue;
      SpanStats& stats = out[span.name];
      const int64_t duration = span.end_ns - span.start_ns;
      ++stats.count;
      stats.total_us += static_cast<double>(duration) / 1000.0;
      stats.self_us += static_cast<double>(duration - child_ns[i]) / 1000.0;
    }
  }
  return out;
}

void WriteSpans(const std::string& path) {
  FILE* out = fopen(path.c_str(), "w");
  if (out == nullptr) {
    fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::lock_guard<std::mutex> lock(g_logs_mu);
  fprintf(out, "thread\tindex\tparent\tname\tstart_ns\tend_ns\n");
  for (const auto& log : g_logs) {
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const Span& span = log->spans[i];
      fprintf(out, "%u\t%zu\t%d\t%s\t%lld\t%lld\n", log->thread, i,
              span.parent, span.name, static_cast<long long>(span.start_ns),
              static_cast<long long>(span.end_ns));
    }
  }
  fclose(out);
}

Status SpanningWriter::Insert(std::string_view xml, uint64_t doc_id) {
  Result<xml::Document> doc = [&] {
    ScopedSpan span("xml.parse");
    return xml::Parse(xml);
  }();
  if (!doc.ok()) return doc.status();
  ScopedSpan span("vist.insert");
  return index_->InsertDocument(*doc->root(), doc_id);
}

Status SpanningWriter::Delete(std::string_view xml, uint64_t doc_id) {
  Result<xml::Document> doc = [&] {
    ScopedSpan span("xml.parse");
    return xml::Parse(xml);
  }();
  if (!doc.ok()) return doc.status();
  ScopedSpan span("vist.delete");
  return index_->DeleteDocument(*doc->root(), doc_id);
}

// ---------------------------------------------------------------------------
// E1 queries and the read-layer metrics

const E1Query kE1Queries[8] = {
    {"Q1", "/inproceedings/title", true},
    {"Q2", "/book/author[text()='David']", true},
    {"Q3", "/*/author[text()='David']", true},
    {"Q4", "//author[text()='David']", true},
    {"Q5", "/book[key='books/bc/MaierW88']/author", true},
    {"Q6", "/site//item[location='US']/mailbox/mail/date[text()='12/15/1999']",
     false},
    {"Q7", "/site//person/*/city[text()='Pocatello']", false},
    {"Q8", "//closed_auction[*[person='person1']]/date[text()='12/15/1999']",
     false},
};

const char* const kExecuteSpans[8] = {
    "vist.execute.Q1", "vist.execute.Q2", "vist.execute.Q3",
    "vist.execute.Q4", "vist.execute.Q5", "vist.execute.Q6",
    "vist.execute.Q7", "vist.execute.Q8",
};

Result<std::vector<uint64_t>> PrepareAndRun(VistIndex* index,
                                            std::string_view path,
                                            const char* execute_span) {
  Result<std::shared_ptr<const QueryPlan>> plan = [&] {
    ScopedSpan span("query.prepare");
    return index->Prepare(path);
  }();
  if (!plan.ok()) return plan.status();
  ScopedSpan span(execute_span);
  return index->QueryWithPlan(**plan);
}

bool QueryCounts::SameCounts(const QueryCounts& other) const {
  return range_scans == other.range_scans &&
         entries_scanned == other.entries_scanned &&
         docid_range_scans == other.docid_range_scans &&
         nodes_matched == other.nodes_matched &&
         node_accesses == other.node_accesses && seeks == other.seeks &&
         results == other.results;
}

namespace {

QueryCounts CountOneQuery(VistIndex* index, const char* path) {
  CounterDeltas deltas({"storage.btree.seeks"});
  obs::QueryProfile profile;
  QueryOptions options;
  options.profile = &profile;
  QueryCounts counts;
  deltas.Take();
  auto plan = index->Prepare(path, options);
  CheckOk(plan.status(), "prepare E1 query");
  const auto start = Clock::now();
  auto result = index->QueryWithPlan(**plan, options);
  counts.execute_us = MsBetween(start, Clock::now()) * 1000.0;
  CheckOk(result.status(), "run E1 query");
  counts.seeks = deltas.Delta("storage.btree.seeks");
  counts.range_scans = profile.range_scans;
  counts.entries_scanned = profile.entries_scanned;
  counts.docid_range_scans = profile.docid_range_scans;
  counts.nodes_matched = profile.nodes_matched;
  counts.node_accesses = profile.index_nodes_accessed;
  counts.results = result->size();
  return counts;
}

}  // namespace

std::vector<QueryCounts> CountQueries(VistIndex* dblp, VistIndex* xmark) {
  std::vector<QueryCounts> counts;
  for (const E1Query& q : kE1Queries) {
    counts.push_back(CountOneQuery(q.dblp ? dblp : xmark, q.path));
  }
  return counts;
}

void ReportQueryLayer(Report* report, const std::vector<QueryCounts>& first,
                      const std::vector<QueryCounts>& second,
                      const std::vector<double>& execute_us,
                      std::vector<std::string>* nonrepeating) {
  for (size_t q = 0; q < first.size(); ++q) {
    const std::string label = kE1Queries[q].label;
    const QueryCounts& c = first[q];
    const double exec = execute_us[q] > 0
                            ? execute_us[q]
                            : (c.execute_us + second[q].execute_us) / 2;
    report->Metric("vist.execute_us." + label, exec, "us");
    report->Metric("vist.range_scans." + label,
                   static_cast<double>(c.range_scans), "count");
    report->Metric("vist.entries_scanned." + label,
                   static_cast<double>(c.entries_scanned), "count");
    report->Metric("vist.docid_range_scans." + label,
                   static_cast<double>(c.docid_range_scans), "count");
    report->Metric("vist.results_per_entry." + label,
                   static_cast<double>(c.results) /
                       static_cast<double>(std::max<uint64_t>(
                           1, c.entries_scanned)),
                   "ratio");
    report->Metric("storage.node_accesses." + label,
                   static_cast<double>(c.node_accesses), "count");
    report->Metric("storage.seeks." + label, static_cast<double>(c.seeks),
                   "count");
    report->Metric("storage.us_per_node_access." + label,
                   exec / static_cast<double>(
                              std::max<uint64_t>(1, c.node_accesses)),
                   "us");
    if (!c.SameCounts(second[q])) {
      nonrepeating->push_back("query_counts." + label);
    }
  }
}

namespace {

/// Reads counter deltas out of a CounterDeltas::AllDeltas() map.
struct DeltaMap {
  const std::map<std::string, uint64_t>& counts;
  uint64_t Delta(const std::string& name) const { return counts.at(name); }
};

double Per(uint64_t num, uint64_t den) {
  return static_cast<double>(num) /
         static_cast<double>(std::max<uint64_t>(1, den));
}

}  // namespace

void ReportWriteStorage(Report* report,
                        const std::map<std::string, uint64_t>& counts,
                        uint64_t writes, uint64_t ops, uint64_t doc_bytes,
                        uint32_t page_size) {
  const DeltaMap deltas{counts};
  report->Metric("storage.pages_shadowed_per_write",
                 Per(deltas.Delta("storage.btree.pages_shadowed"), writes),
                 "count");
  report->Metric("storage.evictions_per_op",
                 Per(deltas.Delta("storage.buffer_pool.evictions"), ops),
                 "count");
  report->Metric(
      "storage.dirty_writebacks_per_op",
      Per(deltas.Delta("storage.buffer_pool.dirty_writebacks"), ops),
      "count");
  report->Metric("storage.page_reads_per_op",
                 Per(deltas.Delta("storage.pager.page_reads"), ops), "count");
  const uint64_t pages_written = deltas.Delta("storage.pager.page_writes") +
                                 deltas.Delta("storage.pager.journal_pages");
  report->Metric("storage.bytes_written_per_doc_byte",
                 Per(pages_written * page_size, doc_bytes), "B/B");
  report->Metric("storage.reclaimed_per_retired",
                 Per(deltas.Delta("storage.mvcc.pages_reclaimed"),
                     deltas.Delta("storage.mvcc.pages_retired")),
                 "ratio");
}

void ReportSyncs(Report* report, const std::map<std::string, uint64_t>& counts,
                 uint64_t flushes) {
  const DeltaMap deltas{counts};
  report->Metric("storage.syncs_per_flush",
                 Per(deltas.Delta("storage.pager.syncs"), flushes), "count");
  report->Metric("storage.journal_syncs_per_flush",
                 Per(deltas.Delta("storage.pager.journal_syncs"), flushes),
                 "count");
}

void ReportNonrepeating(Report* report,
                        const std::vector<std::string>& nonrepeating) {
  report->Metric("trace.nonrepeating_counts",
                 static_cast<double>(nonrepeating.size()), "count");
  std::string names = "[";
  for (size_t i = 0; i < nonrepeating.size(); ++i) {
    names += (i ? ", " : "") + JsonString(nonrepeating[i]);
  }
  report->Info("nonrepeating_counts", names + "]");
}

void ReportExactCounts(Report* report, const std::vector<QueryCounts>& counts,
                       const std::map<std::string, uint64_t>& storage) {
  std::string json = "{";
  auto add = [&](const std::string& name, uint64_t value) {
    json += (json.size() > 1 ? ", " : "") + JsonString(name) + ": " +
            std::to_string(value);
  };
  for (size_t q = 0; q < counts.size(); ++q) {
    const std::string label = std::string(kE1Queries[q].label) + ".";
    const QueryCounts& c = counts[q];
    add(label + "range_scans", c.range_scans);
    add(label + "entries_scanned", c.entries_scanned);
    add(label + "docid_range_scans", c.docid_range_scans);
    add(label + "nodes_matched", c.nodes_matched);
    add(label + "node_accesses", c.node_accesses);
    add(label + "seeks", c.seeks);
    add(label + "results", c.results);
  }
  for (const auto& [name, value] : storage) add(name, value);
  report->Info("exact_counts", json + "}");
}

void ReportTraceOverhead(Report* report, double traced_ops_s,
                         double untraced_ops_s, double traced_p50,
                         double untraced_p50) {
  report->Metric("trace.ops_s_ratio",
                 untraced_ops_s > 0 ? traced_ops_s / untraced_ops_s : 0,
                 "ratio");
  report->Metric("trace.p50_ratio",
                 untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0, "ratio");
}

}  // namespace perfbench
}  // namespace vist
