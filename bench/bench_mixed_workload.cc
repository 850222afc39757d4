// Mixed-workload SLO harness: closed-loop YCSB-style clients against a
// live vist_server over real TCP sockets.
//
// The paper's experiments measure one-shot query latency in-process; a
// serving deployment cares about tail latency under a *mix* — reads and
// writes interleaved, skewed key popularity, and operational events
// (writer bursts, crash/recover) landing mid-traffic. Each steady-state
// cell runs T closed-loop client threads (one TCP connection each) for a
// fixed wall window at a given read fraction and Zipfian skew, records
// every operation's wire round-trip latency, and reports exact
// p50/p95/p99/max plus qps and server-side cost counters
// (server.frames / server.batches / server.rejected deltas).
//
// Three scenario cells exercise the operational stories:
//   * writer_burst — a read-heavy cell where a burst thread slams
//     back-to-back INSERTs through the wire at mid-window; the read tail
//     shows what a deploy-time backfill does to the SLO.
//   * crash_recover — the index lives on a FaultInjectionEnv; mid-load the
//     server stops, power loss is simulated, the index reopens (journal
//     rollback), a new server comes up, and clients reconnect. Reports
//     recovery_ms and the post-recovery qps.
//   * deadline_storm — impatient clients (tight call_timeout_ms, so every
//     request carries a v2 deadline_ms budget) hammer a deliberately
//     under-provisioned server through a latency-injecting proxy. The
//     deadline/shed/retry columns show the overload machinery working:
//     queued work past its budget is shed unexecuted, clients time out
//     locally instead of hanging, and retries stay inside the token
//     budget.
//
// Emits BENCH_mixed_workload.json (schema in EXPERIMENTS.md).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/fault_injection_env.h"
#include "common/random.h"
#include "exec/caching_index.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/fault_injection_transport.h"
#include "server/server.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace bench {
namespace {

constexpr double kReadFractions[] = {0.95, 0.50};
constexpr double kThetas[] = {0.8, 1.2};
constexpr int kThreadCounts[] = {1, 4};
constexpr int kWindowMs = 300;
constexpr uint64_t kSeedBase = 0x5eed5eed;

std::string UniqueDoc(uint64_t i) {
  std::string tag = "u";
  tag += std::to_string(i);
  return "<doc><" + tag + "><leaf>text" + std::to_string(i) + "</leaf></" +
         tag + "></doc>";
}

struct Corpus {
  std::unique_ptr<ScratchDir> scratch;
  std::unique_ptr<VistIndex> index;
  int docs = 0;
};

Corpus BuildCorpus(int docs, const std::string& name, Env* env = nullptr) {
  Corpus corpus;
  corpus.scratch = std::make_unique<ScratchDir>(name);
  VistOptions options;
  if (env != nullptr) {
    options.env = env;
    options.durability = DurabilityLevel::kPowerLoss;
  }
  auto created = VistIndex::Create(corpus.scratch->Sub("vist"), options);
  CheckOk(created.status(), "create vist");
  corpus.index = std::move(created).value();
  corpus.docs = docs;
  for (int i = 1; i <= docs; ++i) {
    auto doc = xml::Parse(UniqueDoc(static_cast<uint64_t>(i)));
    CheckOk(doc.status(), "parse doc");
    CheckOk(corpus.index->InsertDocument(*doc->root(), i), "insert doc");
  }
  CheckOk(corpus.index->Flush(), "flush");
  return corpus;
}

struct Cell {
  std::string scenario = "steady";
  double read_fraction = 0;
  double theta = 0;
  int threads = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  double qps = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0, max_us = 0;
  uint64_t frames = 0, batches = 0, rejected = 0;
  // Overload/fault columns (server + client counter deltas over the cell).
  uint64_t deadline_exceeded = 0;  // kDeadlineExceeded responses
  uint64_t shed = 0;               // of those, shed unexecuted from the queue
  uint64_t retries = 0;            // client retry attempts
  uint64_t reconnects = 0;         // client reconnects
  uint64_t client_timeouts = 0;    // calls that timed out client-side
  double recovery_ms = 0;   // crash_recover only
  uint64_t burst_ops = 0;   // writer_burst only
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

void FillLatencies(Cell* cell, std::vector<double>* latencies_us) {
  std::sort(latencies_us->begin(), latencies_us->end());
  cell->p50_us = Percentile(*latencies_us, 0.50);
  cell->p95_us = Percentile(*latencies_us, 0.95);
  cell->p99_us = Percentile(*latencies_us, 0.99);
  cell->max_us = latencies_us->empty() ? 0 : latencies_us->back();
}

/// One closed-loop client thread: draws a Zipfian-ranked document, reads
/// with probability `read_fraction`, otherwise alternates insert/delete in
/// its private id range (above the corpus, so reads never see them and ids
/// never collide across threads or cells). Records per-op round-trip
/// latency into `lat_us`. A deadline error (the whole point of the
/// deadline_storm cell) is counted in `timeouts` and the loop keeps going
/// — the next blocking call reconnects; any other failure means the server
/// went away (expected during the crash_recover blackout) and the client
/// stops early without failing the bench.
void ClientLoop(uint16_t port, int corpus_docs, double read_fraction,
                double theta, uint64_t write_base,
                const std::atomic<bool>& stop, std::vector<double>* lat_us,
                uint64_t* reads, uint64_t* writes, uint64_t* timeouts,
                uint64_t seed, uint32_t call_timeout_ms,
                bool heavy_reads) {
  server::ClientOptions copts;
  if (call_timeout_ms > 0) {
    copts.call_timeout_ms = call_timeout_ms;
    copts.call_slack_ms = 100;  // read late responses; keep connections sane
    copts.max_attempts = 2;
    copts.backoff_initial_ms = 1;
    copts.backoff_max_ms = 5;
    copts.jitter_seed = seed;
  }
  auto connected = server::Client::Connect("127.0.0.1", port, copts);
  if (!connected.ok()) return;
  auto client = std::move(connected).value();
  Random rng(seed);
  Zipfian zipf(static_cast<uint64_t>(corpus_docs), theta);
  bool pending_insert = false;  // last write was an insert, not yet deleted
  bool alive = true;
  while (!stop.load(std::memory_order_acquire)) {
    const auto op_start = std::chrono::steady_clock::now();
    Status status;
    if (rng.Bernoulli(read_fraction)) {
      // heavy_reads swaps the point lookup for the paper's branching-query
      // shape, which fans out across every document — milliseconds of
      // engine time, so server-side deadlines actually bind.
      const uint64_t doc = zipf.Next(&rng) + 1;
      status = client
                   ->Query(heavy_reads ? std::string("/doc/*/leaf")
                                       : "/doc/u" + std::to_string(doc))
                   .status();
      if (status.ok()) ++*reads;
    } else {
      const std::string xml = UniqueDoc(write_base);
      status = pending_insert ? client->Delete(xml, write_base)
                              : client->Insert(xml, write_base);
      if (status.ok()) {
        pending_insert = !pending_insert;
        ++*writes;
      }
    }
    if (status.IsDeadlineExceeded()) {
      ++*timeouts;  // budget spent, not a dead server: keep going
      continue;
    }
    if (!status.ok()) {
      alive = false;
      break;  // server draining / crashed: this client is done
    }
    lat_us->push_back(MillisSince(op_start) * 1000.0);
  }
  // Leave the id range empty so the next cell starts from the same state.
  if (alive && pending_insert) {
    IgnoreError(client->Delete(UniqueDoc(write_base), write_base));
  }
}

/// Runs T closed-loop clients for `window_ms` and fills a cell.
/// `mid_window_hook`, when set, runs on its own thread once at half-window
/// (the scenario injection point: writer bursts, crash/recover).
Cell RunCell(uint16_t port, int corpus_docs, double read_fraction,
             double theta, int threads, int window_ms,
             std::function<void()> mid_window_hook = nullptr,
             uint32_t call_timeout_ms = 0, bool heavy_reads = false) {
  Cell cell;
  cell.read_fraction = read_fraction;
  cell.theta = theta;
  cell.threads = threads;

  obs::Counter& frames = obs::GetCounter("server.frames");
  obs::Counter& batches = obs::GetCounter("server.batches");
  obs::Counter& rejected = obs::GetCounter("server.rejected");
  obs::Counter& deadline_exceeded = obs::GetCounter("server.deadline_exceeded");
  obs::Counter& shed = obs::GetCounter("server.shed");
  obs::Counter& retries = obs::GetCounter("client.retries");
  obs::Counter& reconnects = obs::GetCounter("client.reconnects");
  const uint64_t f0 = frames.value(), b0 = batches.value(),
                 r0 = rejected.value();
  const uint64_t d0 = deadline_exceeded.value(), s0 = shed.value(),
                 t0 = retries.value(), c0 = reconnects.value();

  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> lat(static_cast<size_t>(threads));
  std::vector<uint64_t> reads(static_cast<size_t>(threads), 0);
  std::vector<uint64_t> writes(static_cast<size_t>(threads), 0);
  std::vector<uint64_t> timeouts(static_cast<size_t>(threads), 0);
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    const auto ut = static_cast<size_t>(t);
    workers.emplace_back([&, t, ut] {
      ClientLoop(port, corpus_docs, read_fraction, theta,
                 /*write_base=*/static_cast<uint64_t>(corpus_docs) + 1 +
                     static_cast<uint64_t>(t),
                 stop, &lat[ut], &reads[ut], &writes[ut], &timeouts[ut],
                 kSeedBase + static_cast<uint64_t>(t) * 7919,
                 call_timeout_ms, heavy_reads);
    });
  }
  std::thread hook_thread;
  if (mid_window_hook) {
    hook_thread = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(window_ms / 2));
      mid_window_hook();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
  if (hook_thread.joinable()) hook_thread.join();
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double elapsed_ms = MillisSince(start);

  std::vector<double> all;
  for (int t = 0; t < threads; ++t) {
    const auto ut = static_cast<size_t>(t);
    all.insert(all.end(), lat[ut].begin(), lat[ut].end());
    cell.reads += reads[ut];
    cell.writes += writes[ut];
    cell.client_timeouts += timeouts[ut];
  }
  cell.qps = elapsed_ms > 0
                 ? 1000.0 * static_cast<double>(all.size()) / elapsed_ms
                 : 0;
  FillLatencies(&cell, &all);
  cell.frames = frames.value() - f0;
  cell.batches = batches.value() - b0;
  cell.rejected = rejected.value() - r0;
  cell.deadline_exceeded = deadline_exceeded.value() - d0;
  cell.shed = shed.value() - s0;
  cell.retries = retries.value() - t0;
  cell.reconnects = reconnects.value() - c0;
  return cell;
}

/// writer_burst: read-heavy steady traffic; at mid-window a dedicated
/// connection fires `burst_ops` INSERTs back-to-back (then deletes them,
/// restoring state). The cell's tail latencies show the burst's impact.
Cell RunWriterBurst(uint16_t port, int corpus_docs, int threads,
                    int burst_ops) {
  std::atomic<uint64_t> completed{0};
  Cell cell = RunCell(
      port, corpus_docs, /*read_fraction=*/0.95, /*theta=*/0.8, threads,
      /*window_ms=*/2 * kWindowMs, [&] {
        auto connected = server::Client::Connect("127.0.0.1", port);
        if (!connected.ok()) return;
        auto client = std::move(connected).value();
        // Ids far above every steady-state writer's range.
        const uint64_t base = static_cast<uint64_t>(corpus_docs) + 1000000;
        for (int i = 0; i < burst_ops; ++i) {
          const uint64_t id = base + static_cast<uint64_t>(i);
          if (!client->Insert(UniqueDoc(id), id).ok()) return;
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        for (int i = 0; i < burst_ops; ++i) {
          const uint64_t id = base + static_cast<uint64_t>(i);
          // Best-effort cleanup between bursts; a failed delete only means
          // the next burst inserts over a live id, which the bench allows.
          IgnoreError(client->Delete(UniqueDoc(id), id));
        }
      });
  cell.scenario = "writer_burst";
  cell.burst_ops = completed.load();
  return cell;
}

/// writer_stall: the snapshot-read SLO claim in numbers (docs/CONCURRENCY.md
/// "Writers never block readers"). Two read-only cells over one server:
/// `reader_idle` runs with no writer anywhere, then `writer_stall` runs
/// the identical read load while a dedicated connection fires back-to-back
/// INSERTs for the *whole* window — so the writer_stall p50/p95/p99
/// columns are reader latency measured during a continuous bulk insert.
/// With copy-on-write snapshot reads the two tails must be close:
/// acceptance is writer_stall p99 within 2x of reader_idle p99. Two
/// choices isolate the locking signal from confounders: the server is
/// *uncached* (every insert bumps the epoch and flushes the result cache,
/// so a cached baseline would compare idle cache hits against under-insert
/// engine work), and the readers run the paper's branching query
/// (milliseconds of page scanning under the pinned snapshot) rather than
/// a microsecond point lookup — on few-core hosts a point read's tail
/// otherwise just measures the scheduler preempting it for the insert's
/// CPU slice, which no locking design can remove.
std::pair<Cell, Cell> RunWriterStall(QueryableIndex* index,
                                     server::DocumentWriter* doc_writer,
                                     int corpus_docs, int threads) {
  server::ServerOptions server_options;
  server_options.num_workers = 4;
  server::VistServer server(index, doc_writer, server_options);
  CheckOk(server.Start(), "start stall server");
  const uint16_t port = server.port();

  Cell idle = RunCell(port, corpus_docs, /*read_fraction=*/1.0,
                      /*theta=*/0.8, threads, /*window_ms=*/2 * kWindowMs,
                      /*mid_window_hook=*/nullptr, /*call_timeout_ms=*/0,
                      /*heavy_reads=*/true);
  idle.scenario = "reader_idle";

  std::atomic<bool> writer_stop{false};
  std::atomic<uint64_t> inserted{0};
  std::thread writer_thread([&] {
    auto connected = server::Client::Connect("127.0.0.1", port);
    if (!connected.ok()) return;
    auto client = std::move(connected).value();
    // Ids far above every other writer's range.
    const uint64_t base = static_cast<uint64_t>(corpus_docs) + 2000000;
    while (!writer_stop.load(std::memory_order_acquire)) {
      const uint64_t id = base + inserted.load(std::memory_order_relaxed);
      if (!client->Insert(UniqueDoc(id), id).ok()) return;
      inserted.fetch_add(1, std::memory_order_relaxed);
    }
    for (uint64_t i = 0; i < inserted.load(std::memory_order_relaxed); ++i) {
      // Best-effort restore so later scenario cells start from the same
      // corpus; a leftover doc only shifts their id ranges, never results.
      IgnoreError(client->Delete(UniqueDoc(base + i), base + i));
    }
  });
  Cell stall = RunCell(port, corpus_docs, /*read_fraction=*/1.0,
                       /*theta=*/0.8, threads, /*window_ms=*/2 * kWindowMs,
                       /*mid_window_hook=*/nullptr, /*call_timeout_ms=*/0,
                       /*heavy_reads=*/true);
  writer_stop.store(true, std::memory_order_release);
  writer_thread.join();
  server.Stop();
  stall.scenario = "writer_stall";
  stall.burst_ops = inserted.load();
  return {std::move(idle), std::move(stall)};
}

/// deadline_storm: a single-worker server over the *uncached* index (a
/// cache hit would defeat the storm) behind a proxy that adds fixed
/// latency, hammered by read-only clients issuing the expensive branching
/// query with a call_timeout_ms close to the inflated round trip. Budgets
/// expire in the queue behind the lone worker (shed, never executed) and
/// mid-scan in the engine (cancelled cooperatively); calls time out
/// client-side instead of hanging — the cell's deadline/shed/retry columns
/// are the overload story in numbers.
Cell RunDeadlineStorm(QueryableIndex* index, server::DocumentWriter* writer,
                      int corpus_docs, int threads) {
  server::ServerOptions server_options;
  server_options.num_workers = 1;  // deliberately under-provisioned
  server::VistServer server(index, writer, server_options);
  CheckOk(server.Start(), "start storm server");
  server::FaultInjectionOptions faults;
  faults.latency_ms = 2;  // per forwarded chunk, both directions
  server::FaultInjectionTransport proxy("127.0.0.1", server.port(), faults);
  CheckOk(proxy.Start(), "start storm proxy");

  Cell cell = RunCell(proxy.port(), corpus_docs, /*read_fraction=*/1.0,
                      /*theta=*/0.8, threads, /*window_ms=*/2 * kWindowMs,
                      /*mid_window_hook=*/nullptr, /*call_timeout_ms=*/8,
                      /*heavy_reads=*/true);
  cell.scenario = "deadline_storm";
  server.Stop();
  proxy.Stop();
  return cell;
}

/// crash_recover: the index lives on a FaultInjectionEnv. Clients run
/// against server A; at mid-window server A stops (drains), the process
/// "dies" (SimulateCrashForTesting drops handles without flushing), power
/// loss rewinds every file to its fsync'd state, the index reopens, and
/// server B starts. The recovery clock covers stop→serving-again. A second
/// client wave then measures post-recovery qps.
Cell RunCrashRecover(int threads) {
  FaultInjectionEnv fenv;
  Corpus corpus = BuildCorpus(Scaled(500), "mixed_crash", &fenv);
  exec::CachingIndex cache(corpus.index.get());
  server::VistIndexWriter writer(corpus.index.get());
  auto server = std::make_unique<server::VistServer>(&cache, &writer,
                                                     server::ServerOptions{});
  CheckOk(server->Start(), "start server A");
  const uint16_t port_a = server->port();

  Cell cell;
  double recovery_ms = 0;
  std::unique_ptr<server::VistServer> server_b;
  std::unique_ptr<exec::CachingIndex> cache_b;
  std::unique_ptr<server::VistIndexWriter> writer_b;

  // Wave 1: load against server A; the hook kills and recovers mid-window.
  // (Clients on A observe closed connections and exit — by design.)
  RunCell(port_a, corpus.docs, /*read_fraction=*/0.50, /*theta=*/0.8,
          threads, /*window_ms=*/2 * kWindowMs, [&] {
            const auto t0 = std::chrono::steady_clock::now();
            server->Stop();  // drains in-flight work, closes connections
            corpus.index->SimulateCrashForTesting();
            fenv.SimulatePowerLoss();
            VistOptions options;
            options.env = &fenv;
            options.durability = DurabilityLevel::kPowerLoss;
            auto reopened =
                VistIndex::Open(corpus.scratch->Sub("vist"), options);
            CheckOk(reopened.status(), "reopen after power loss");
            corpus.index = std::move(reopened).value();
            cache_b = std::make_unique<exec::CachingIndex>(corpus.index.get());
            writer_b =
                std::make_unique<server::VistIndexWriter>(corpus.index.get());
            server_b = std::make_unique<server::VistServer>(
                cache_b.get(), writer_b.get(), server::ServerOptions{});
            CheckOk(server_b->Start(), "start server B");
            recovery_ms = MillisSince(t0);
          });

  // Wave 2: fresh clients against server B measure the recovered service.
  cell = RunCell(server_b->port(), corpus.docs, /*read_fraction=*/0.50,
                 /*theta=*/0.8, threads, kWindowMs);
  cell.scenario = "crash_recover";
  cell.recovery_ms = recovery_ms;
  server_b->Stop();
  return cell;
}

void WriteJson(const std::vector<Cell>& cells, int docs) {
  FILE* out = fopen("BENCH_mixed_workload.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "bench: cannot write BENCH_mixed_workload.json\n");
    return;
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"mixed_workload\",\n");
  fprintf(out, "  \"engine\": \"vist_server\",\n");
  fprintf(out, "  \"docs\": %d,\n", docs);
  fprintf(out, "  \"window_ms\": %d,\n", kWindowMs);
  fprintf(out, "  \"hardware_threads\": %u,\n",
          std::thread::hardware_concurrency());
  fprintf(out, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    fprintf(out,
            "    {\"scenario\": \"%s\", \"read_fraction\": %.2f, "
            "\"theta\": %.2f, \"threads\": %d, \"qps\": %.1f, "
            "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
            "\"max_us\": %.1f, \"reads\": %llu, \"writes\": %llu, "
            "\"frames\": %llu, \"batches\": %llu, \"rejected\": %llu, "
            "\"deadline_exceeded\": %llu, \"shed\": %llu, "
            "\"retries\": %llu, \"reconnects\": %llu, "
            "\"client_timeouts\": %llu, "
            "\"recovery_ms\": %.1f, \"burst_ops\": %llu}%s\n",
            cell.scenario.c_str(), cell.read_fraction, cell.theta,
            cell.threads, cell.qps, cell.p50_us, cell.p95_us, cell.p99_us,
            cell.max_us, static_cast<unsigned long long>(cell.reads),
            static_cast<unsigned long long>(cell.writes),
            static_cast<unsigned long long>(cell.frames),
            static_cast<unsigned long long>(cell.batches),
            static_cast<unsigned long long>(cell.rejected),
            static_cast<unsigned long long>(cell.deadline_exceeded),
            static_cast<unsigned long long>(cell.shed),
            static_cast<unsigned long long>(cell.retries),
            static_cast<unsigned long long>(cell.reconnects),
            static_cast<unsigned long long>(cell.client_timeouts),
            cell.recovery_ms, static_cast<unsigned long long>(cell.burst_ops),
            i + 1 < cells.size() ? "," : "");
  }
  fprintf(out, "  ]\n}\n");
  fclose(out);
}

void PrintSummary(const std::vector<Cell>& cells) {
  printf("\n=== Mixed-workload SLO (vist_server, %d ms windows) ===\n",
         kWindowMs);
  printf("%-14s %6s %6s %8s %10s %9s %9s %9s %10s\n", "scenario", "read%",
         "theta", "threads", "qps", "p50 us", "p95 us", "p99 us", "max us");
  for (const Cell& cell : cells) {
    printf("%-14s %5.0f%% %6.2f %8d %10.0f %9.0f %9.0f %9.0f %10.0f\n",
           cell.scenario.c_str(), cell.read_fraction * 100, cell.theta,
           cell.threads, cell.qps, cell.p50_us, cell.p95_us, cell.p99_us,
           cell.max_us);
    if (cell.scenario == "crash_recover") {
      printf("%-14s   recovery_ms=%.1f\n", "", cell.recovery_ms);
    }
    if (cell.scenario == "deadline_storm") {
      printf("%-14s   deadline_exceeded=%llu shed=%llu retries=%llu "
             "reconnects=%llu client_timeouts=%llu\n",
             "", static_cast<unsigned long long>(cell.deadline_exceeded),
             static_cast<unsigned long long>(cell.shed),
             static_cast<unsigned long long>(cell.retries),
             static_cast<unsigned long long>(cell.reconnects),
             static_cast<unsigned long long>(cell.client_timeouts));
    }
  }
  double idle_p99 = 0, stall_p99 = 0;
  for (const Cell& cell : cells) {
    if (cell.scenario == "reader_idle") idle_p99 = cell.p99_us;
    if (cell.scenario == "writer_stall") stall_p99 = cell.p99_us;
  }
  if (idle_p99 > 0 && stall_p99 > 0) {
    printf("\nwriter_stall: reader p99 %.0f us during continuous bulk "
           "insert vs %.0f us idle-writer (%.2fx; snapshot-read target "
           "<= 2.00x)\n",
           stall_p99, idle_p99, stall_p99 / idle_p99);
  }
  printf("\nFull cells in BENCH_mixed_workload.json; schema and analysis "
         "in EXPERIMENTS.md.\n");
}

void Run() {
  const int docs = Scaled(2000);
  Corpus corpus = BuildCorpus(docs, "mixed_workload");
  exec::CachingIndex cache(corpus.index.get());
  server::VistIndexWriter writer(corpus.index.get());
  server::ServerOptions options;
  options.num_workers = 4;
  server::VistServer server(&cache, &writer, options);
  CheckOk(server.Start(), "start server");

  std::vector<Cell> cells;
  for (double read_fraction : kReadFractions) {
    for (double theta : kThetas) {
      for (int threads : kThreadCounts) {
        cells.push_back(RunCell(server.port(), corpus.docs, read_fraction,
                                theta, threads, kWindowMs));
      }
    }
  }
  // Hot-key storm is the theta=1.2 column above; the scenario cells add
  // the operational events.
  cells.push_back(
      RunWriterBurst(server.port(), corpus.docs, /*threads=*/4,
                     /*burst_ops=*/Scaled(200)));
  server.Stop();
  auto stall_cells = RunWriterStall(corpus.index.get(), &writer, corpus.docs,
                                    /*threads=*/4);
  cells.push_back(std::move(stall_cells.first));
  cells.push_back(std::move(stall_cells.second));
  cells.push_back(RunDeadlineStorm(corpus.index.get(), &writer, corpus.docs,
                                   /*threads=*/8));
  cells.push_back(RunCrashRecover(/*threads=*/2));

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
