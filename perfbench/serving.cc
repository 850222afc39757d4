// The serving path, measured in the traced runs: a short-lived VistServer
// over a workload's own index, with the bench-side span decorators, gives
// the exec, server and client layer metrics.
//
// A timed serving workload (point reads and writes over loopback TCP) is
// not part of the benchmark: on a shared virtual machine its throughput
// and latencies followed the host's scheduling far more than the server
// (README.md, "Dropped: serve_mixed").

#include <algorithm>
#include <thread>

#include "common.h"
#include "exec/caching_index.h"
#include "server/client.h"

namespace vist {
namespace perfbench {
namespace {

constexpr int kRounds = 4;
constexpr double kIntervalMs = 2;  // the probe's open-loop schedule

std::string UniqueDoc(uint64_t id) {
  const std::string tag = "u" + std::to_string(id);
  return "<doc><" + tag + "><leaf>text" + std::to_string(id) + "</leaf></" +
         tag + "></doc>";
}

double Ratio(uint64_t num, uint64_t den) {
  return static_cast<double>(num) /
         static_cast<double>(std::max<uint64_t>(1, den));
}

}  // namespace

void ServingProbe(VistIndex* index, const std::vector<const char*>& paths,
                  Report* report) {
  std::vector<std::vector<uint64_t>> expected;
  for (const char* path : paths) {
    auto ids = index->Query(path);
    CheckOk(ids.status(), "probe reference query");
    expected.push_back(std::move(ids).value());
  }

  // server -> top (exec.cache) -> CachingIndex -> engine (vist.execute,
  // query.prepare) -> VistIndex; writes through SpanningWriter. The server
  // is declared last, so it stops before the rest is destroyed.
  SpanningIndex engine(index, "vist.execute", "query.prepare", "vist.flush");
  exec::CachingIndex cache(&engine);
  SpanningIndex top(&cache, "exec.cache", "exec.cache", "exec.flush");
  SpanningWriter writer(index);
  server::VistServer server(&top, &writer, server::ServerOptions{});
  CheckOk(server.Start(), "start probe server");
  auto connected = server::Client::Connect("127.0.0.1", server.port());
  CheckOk(connected.status(), "connect probe client");
  std::unique_ptr<server::Client> client = std::move(connected).value();

  CounterDeltas deltas({"cache.plan.hits", "cache.plan.misses",
                        "cache.result.hits", "cache.result.misses",
                        "cache.result.invalidated_entries", "server.frames",
                        "server.batches", "server.rejected", "server.shed"});
  obs::Histogram& residence = obs::GetHistogram("server.request_latency_us");
  const uint64_t residence_count = residence.count();
  const uint64_t residence_sum = residence.sum();
  std::vector<double> rtt_ms, late_ms;
  uint64_t writes = 0;
  SetTracing(true);
  deltas.Take();
  const auto t0 = Clock::now();
  uint64_t n = 0;
  auto timed = [&](auto&& call) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  kIntervalMs * static_cast<double>(n++)));
    std::this_thread::sleep_until(due);
    const auto send = Clock::now();
    call();
    rtt_ms.push_back(MsBetween(send, Clock::now()));
    late_ms.push_back(MsBetween(due, send));
  };
  for (int round = 0; round < kRounds; ++round) {
    for (size_t q = 0; q < paths.size(); ++q) {
      timed([&] {
        auto ids = client->Query(paths[q]);
        report->Attempt(ids.ok() && *ids == expected[q],
                        std::string("probe query ") + paths[q]);
      });
    }
    const uint64_t id = 900000000 + static_cast<uint64_t>(round);
    timed([&] {
      report->Attempt(client->Insert(UniqueDoc(id), id), "probe insert");
    });
    timed([&] {
      report->Attempt(client->Delete(UniqueDoc(id), id), "probe delete");
    });
    writes += 2;
  }
  client.reset();
  server.Stop();
  SetTracing(false);

  const auto spans = AggregateSpans();
  auto cache_span = spans.find("exec.cache");
  report->Metric("exec.cache_self_us",
                 cache_span == spans.end() ? 0.0
                                           : cache_span->second.mean_self_us(),
                 "us");
  report->Metric("exec.result_hit_ratio",
                 Ratio(deltas.Delta("cache.result.hits"),
                       deltas.Delta("cache.result.hits") +
                           deltas.Delta("cache.result.misses")),
                 "ratio");
  report->Metric("exec.plan_hit_ratio",
                 Ratio(deltas.Delta("cache.plan.hits"),
                       deltas.Delta("cache.plan.hits") +
                           deltas.Delta("cache.plan.misses")),
                 "ratio");
  report->Metric(
      "exec.invalidated_per_write",
      Ratio(deltas.Delta("cache.result.invalidated_entries"), writes),
      "count");
  // Residence: the server's own request latency histogram, as Δsum/Δcount.
  const double residence_us = static_cast<double>(residence.sum() -
                                                  residence_sum) /
                              static_cast<double>(std::max<uint64_t>(
                                  1, residence.count() - residence_count));
  report->Metric("server.residence_us", residence_us, "us");
  report->Metric("server.wire_us", Mean(rtt_ms) * 1000.0 - residence_us,
                 "us");
  report->Metric("server.frames_per_batch",
                 Ratio(deltas.Delta("server.frames"),
                       deltas.Delta("server.batches")),
                 "ratio");
  report->Metric("server.rejected",
                 static_cast<double>(deltas.Delta("server.rejected")),
                 "count");
  report->Metric("server.shed",
                 static_cast<double>(deltas.Delta("server.shed")), "count");
  report->Metric("client.gen_late_ms", Mean(late_ms), "ms");
}

}  // namespace perfbench
}  // namespace vist
