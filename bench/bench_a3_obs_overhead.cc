// Ablation A3 — cost of the disabled-tracer fast path.
//
// Observability is compiled in unconditionally (no build flavors), so the
// disabled path has to be near-free: every parallel stage pays exactly one
// relaxed atomic load of the tracer's enabled flag before deciding to skip
// all span/skew bookkeeping. This bench gates that claim two ways:
//
//  1. Microbench gate (exit code): a fixed arithmetic workload run plain
//     vs. with the per-stage enabled-check woven in, best-of-N minimum.
//     Exits 1 when the gated variant is more than 2% slower — the CI smoke
//     step runs this binary and fails the build on regression.
//  2. Telemetry gate (exit code): the E1-style MAP workload run with the
//     full continuous-telemetry pipeline live — a 100 ms background
//     Sampler over the metrics registry plus a JSONL QueryLog entry per
//     query — vs. the same workload with no telemetry. The pipeline is
//     designed to stay off the query's critical path (the sampler reads
//     relaxed atomics on its own thread; the log writes one line per
//     query), so this too must stay within 2%.
//  3. Accounting gate (exit code): the same E1-style batch with per-query
//     byte accounting on (the default) vs. forced off via the
//     ResourceTracker kill switch — the per-operator Charge walks and the
//     storage-gauge registry must also stay within 2%.
//  4. Distributed-tracing gate (exit code): a batch of federated
//     RunEverywhere queries with a full per-query distributed trace
//     (BeginTrace / wire @trace headers / remote span piggyback /
//     FinishTrace + critical-path extraction) vs. the same batch untraced.
//     Tracing is opt-in per query, so the traced path may do real work —
//     but it must stay within the same 2% budget.
//  5. End-to-end figures (informational): the E7-style MAP query under the
//     parallel executor with tracing off vs. on, showing what a traced run
//     actually costs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "obs/dtrace.h"
#include "obs/query_log.h"
#include "obs/resource.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "repo/federation.h"
#include "sim/generators.h"

namespace {

using namespace gdms;  // NOLINT
using bench::Timer;

constexpr double kMaxOverheadPct = 2.0;

// One simulated "stage": a fixed pass over the work buffer, preceded by the
// same per-stage check RunStage does before any instrumentation — a single
// relaxed load of the enabled flag. Both variants run the identical loop;
// the baseline consults a detached always-false atomic where the measured
// variant consults the live tracer, so the delta isolates the cost of
// Tracer::Global().enabled() itself rather than compiler restructuring.
constexpr size_t kStageElems = 1 << 12;
constexpr size_t kStagesPerPass = 1 << 10;

std::atomic<bool> baseline_flag{false};

uint64_t StageWork(const std::vector<uint64_t>& buf) {
  uint64_t acc = 0;
  for (uint64_t v : buf) acc += v * 2654435761u + (acc >> 7);
  return acc;
}

double PassSeconds(bool live, const std::vector<uint64_t>& buf) {
  obs::Tracer& tracer = obs::Tracer::Global();
  Timer timer;
  uint64_t acc = 0;
  for (size_t s = 0; s < kStagesPerPass; ++s) {
    bool on = live ? tracer.enabled()
                   : baseline_flag.load(std::memory_order_relaxed);
    if (on) {
      // Tracing stays disabled for the gate; this branch never runs.
      benchmark::DoNotOptimize(acc);
    }
    acc ^= StageWork(buf);
  }
  benchmark::DoNotOptimize(acc);
  return timer.Seconds();
}

/// One measurement round: interleaved best-of-N minima of the two variants.
/// Interleaving keeps frequency scaling and noisy neighbors from biasing
/// one variant; the minimum is immune to one-sided scheduler noise.
struct Round {
  double plain = 1e100;
  double live = 1e100;
  double OverheadPct() const { return (live - plain) / plain * 100.0; }
};

Round MeasureRound(int n, const std::vector<uint64_t>& buf) {
  Round r;
  for (int i = 0; i < n; ++i) {
    r.plain = std::min(r.plain, PassSeconds(false, buf));
    r.live = std::min(r.live, PassSeconds(true, buf));
  }
  return r;
}

const char* kQuery =
    "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
    "R = MAP(n AS COUNT, s AS SUM(signal)) PROMS ENCODE;\n"
    "MATERIALIZE R;\n";

double QuerySeconds(bool traced) {
  obs::Tracer::Global().set_enabled(traced);
  engine::EngineOptions options;
  options.threads = 2;
  engine::ParallelExecutor executor(options);
  core::QueryRunner runner(&executor);
  auto genome = gdm::GenomeAssembly::HumanLike(8, 100000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 6;
  popt.peaks_per_sample = 20000;
  runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 7));
  auto catalog = sim::GenerateGenes(genome, 2000, 7);
  runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 7));
  double best = 1e100;
  for (int i = 0; i < 3; ++i) {
    Timer timer;
    auto results = runner.Run(kQuery);
    double s = timer.Seconds();
    if (!results.ok()) std::abort();
    if (s < best) best = s;
  }
  obs::Tracer::Global().set_enabled(false);
  obs::Tracer::Global().Clear();
  return best;
}

// ---------------------------------------------------------------------------
// Telemetry gate: E1-style workload with the live pipeline vs. without
// ---------------------------------------------------------------------------

// Queries per timed batch, shared by the telemetry (A3b) and accounting
// (A3c) gates. One E1-style query takes 0.3-0.4 ms in Release on a 4-core
// host, so a batch lasts 115-160 ms and the 100 ms sampler ticks inside
// every timed telemetry batch: the gate prices the sampler, not only its
// start/stop. A 30-query batch (~12 ms) never saw a tick.
constexpr int kBatchQueries = 400;
constexpr const char* kQueryLogPath = "bench_a3_query_log.jsonl";

/// Times one batch of E1-style queries; when `log` is set, every query is
/// also recorded into the JSONL query log (what serve mode does per query).
double BatchSeconds(core::QueryRunner* runner, obs::QueryLog* log) {
  Timer timer;
  for (int i = 0; i < kBatchQueries; ++i) {
    auto results = runner->Run(kQuery);
    if (!results.ok()) std::abort();
    if (log != nullptr) {
      log->Record(core::MakeQueryLogEntry(kQuery, runner->last_stats()));
    }
  }
  return timer.Seconds();
}

/// Interleaved rounds: plain batches against batches with the 100 ms
/// sampler running and the query log recording. Sampler start/stop cost is
/// charged to the live side — it is part of what telemetry costs.
Round MeasureTelemetryRound(int n, core::QueryRunner* runner,
                            obs::QueryLog* log) {
  Round r;
  for (int i = 0; i < n; ++i) {
    r.plain = std::min(r.plain, BatchSeconds(runner, nullptr));
    obs::Sampler sampler;
    obs::SamplerOptions sopt;
    sopt.period_ms = 100;
    sampler.Start(sopt);
    r.live = std::min(r.live, BatchSeconds(runner, log));
    sampler.Stop();
  }
  return r;
}

int RunTelemetryGate() {
  bench::Header("A3b (gate): continuous telemetry on the E1 workload",
                "100 ms sampler + JSONL query log vs. no telemetry");
  obs::Tracer::Global().set_enabled(false);
  engine::EngineOptions options;
  options.threads = 2;
  engine::ParallelExecutor executor(options);
  core::QueryRunner runner(&executor);
  auto genome = gdm::GenomeAssembly::HumanLike(8, 100000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 6;
  popt.peaks_per_sample = 20000;
  runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 7));
  auto catalog = sim::GenerateGenes(genome, 2000, 7);
  runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 7));
  obs::QueryLogOptions lopt;
  lopt.path = kQueryLogPath;
  obs::QueryLog log(lopt);

  BatchSeconds(&runner, nullptr);  // warmup
  Round best = MeasureTelemetryRound(3, &runner, &log);
  for (int round = 1; round < 3 && best.OverheadPct() > kMaxOverheadPct;
       ++round) {
    Round r = MeasureTelemetryRound(3, &runner, &log);
    if (r.OverheadPct() < best.OverheadPct()) best = r;
  }
  double overhead_pct = best.OverheadPct();
  std::printf("%22s %12.3f ms\n", "E1 batch, no telemetry",
              best.plain * 1e3);
  std::printf("%22s %12.3f ms\n", "E1 batch, live", best.live * 1e3);
  std::printf("%22s %+12.2f %%  (gate: <= %.1f%%)\n", "overhead",
              overhead_pct, kMaxOverheadPct);
  std::remove(kQueryLogPath);
  if (overhead_pct > kMaxOverheadPct) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead %.2f%% exceeds %.1f%%\n",
                 overhead_pct, kMaxOverheadPct);
    return 1;
  }
  bench::Note("ok: sampler + query log within budget");
  return 0;
}

// ---------------------------------------------------------------------------
// Accounting gate: E1-style workload with byte accounting on vs. off
// ---------------------------------------------------------------------------

/// Times one E1-style batch with resource accounting forced on or off. The
/// enabled path pays the per-operator Charge (an EstimateResidentBytes walk
/// of each operator's output) plus the storage Touch per source.
double AccountingBatchSeconds(core::QueryRunner* runner, bool enabled) {
  obs::ResourceTracker::Global().set_accounting_enabled(enabled);
  Timer timer;
  for (int i = 0; i < kBatchQueries; ++i) {
    auto results = runner->Run(kQuery);
    if (!results.ok()) std::abort();
  }
  return timer.Seconds();
}

Round MeasureAccountingRound(int n, core::QueryRunner* runner) {
  Round r;
  for (int i = 0; i < n; ++i) {
    r.plain = std::min(r.plain, AccountingBatchSeconds(runner, false));
    r.live = std::min(r.live, AccountingBatchSeconds(runner, true));
  }
  return r;
}

int RunAccountingGate() {
  bench::Header("A3c (gate): byte accounting on the E1 workload",
                "per-query/per-operator accounting + storage gauges vs. "
                "accounting off");
  obs::Tracer::Global().set_enabled(false);
  engine::EngineOptions options;
  options.threads = 2;
  engine::ParallelExecutor executor(options);
  core::QueryRunner runner(&executor);
  auto genome = gdm::GenomeAssembly::HumanLike(8, 100000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 6;
  popt.peaks_per_sample = 20000;
  runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 7));
  auto catalog = sim::GenerateGenes(genome, 2000, 7);
  runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 7));

  AccountingBatchSeconds(&runner, true);  // warmup
  Round best = MeasureAccountingRound(3, &runner);
  for (int round = 1; round < 3 && best.OverheadPct() > kMaxOverheadPct;
       ++round) {
    Round r = MeasureAccountingRound(3, &runner);
    if (r.OverheadPct() < best.OverheadPct()) best = r;
  }
  obs::ResourceTracker::Global().set_accounting_enabled(true);
  double overhead_pct = best.OverheadPct();
  std::printf("%22s %12.3f ms\n", "E1 batch, no accounting",
              best.plain * 1e3);
  std::printf("%22s %12.3f ms\n", "E1 batch, accounting", best.live * 1e3);
  std::printf("%22s %+12.2f %%  (gate: <= %.1f%%)\n", "overhead",
              overhead_pct, kMaxOverheadPct);
  if (overhead_pct > kMaxOverheadPct) {
    std::fprintf(stderr,
                 "FAIL: accounting overhead %.2f%% exceeds %.1f%%\n",
                 overhead_pct, kMaxOverheadPct);
    return 1;
  }
  bench::Note("ok: byte accounting within budget");
  return 0;
}

// ---------------------------------------------------------------------------
// Distributed-tracing gate: traced vs. untraced federated batch
// ---------------------------------------------------------------------------

constexpr int kFedBatchQueries = 4;

/// Populates a federated site. The corpus is sized so one broadcast query
/// does tens of milliseconds of real work — tracing's cost is a fixed
/// per-RPC tax, and the gate should price it against a realistic query,
/// not a toy one that finishes in the time it takes to format a span name.
void PopulateSite(repo::FederatedNode* node, uint64_t seed) {
  auto genome = gdm::GenomeAssembly::HumanLike(3, 20000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 4;
  popt.peaks_per_sample = 4000;
  node->catalog()->Put(sim::GeneratePeakDataset(genome, popt, seed));
  auto catalog = sim::GenerateGenes(genome, 100, seed);
  node->catalog()->Put(sim::GenerateAnnotations(genome, catalog, {}, seed));
}

/// Times one batch of broadcast queries; when `traced` is set every query
/// runs under a full distributed trace — wire @trace headers, remote span
/// buffering + piggyback, SimClock stitching, and critical-path extraction
/// on the result (exactly what gdms_shell's .fed path does per query).
double FedBatchSeconds(repo::Coordinator* coordinator, bool traced) {
  Timer timer;
  for (int i = 0; i < kFedBatchQueries; ++i) {
    if (traced) {
      coordinator->BeginTrace(
          obs::MintTraceId(static_cast<uint64_t>(i) + 1, 0xa3d));
    }
    auto result = coordinator->RunEverywhere(kQuery);
    if (!result.ok()) std::abort();
    if (traced) {
      obs::DistTrace trace = coordinator->FinishTrace("bench");
      benchmark::DoNotOptimize(obs::CriticalPath(trace));
    }
  }
  return timer.Seconds();
}

Round MeasureTracingRound(int n, repo::Coordinator* coordinator) {
  Round r;
  for (int i = 0; i < n; ++i) {
    r.plain = std::min(r.plain, FedBatchSeconds(coordinator, false));
    r.live = std::min(r.live, FedBatchSeconds(coordinator, true));
  }
  return r;
}

int RunTracingGate() {
  bench::Header("A3d (gate): distributed tracing on a federated batch",
                "per-query BeginTrace/stitch/critical-path vs. untraced "
                "broadcast");
  repo::FederatedNode milan("milan");
  repo::FederatedNode geneva("geneva");
  PopulateSite(&milan, 7);
  PopulateSite(&geneva, 8);
  repo::Coordinator coordinator;
  coordinator.AddNode(&milan);
  coordinator.AddNode(&geneva);

  FedBatchSeconds(&coordinator, true);  // warmup
  Round best = MeasureTracingRound(3, &coordinator);
  for (int round = 1; round < 3 && best.OverheadPct() > kMaxOverheadPct;
       ++round) {
    Round r = MeasureTracingRound(3, &coordinator);
    if (r.OverheadPct() < best.OverheadPct()) best = r;
  }
  double overhead_pct = best.OverheadPct();
  std::printf("%22s %12.3f ms\n", "fed batch, untraced", best.plain * 1e3);
  std::printf("%22s %12.3f ms\n", "fed batch, traced", best.live * 1e3);
  std::printf("%22s %+12.2f %%  (gate: <= %.1f%%)\n", "overhead",
              overhead_pct, kMaxOverheadPct);
  if (overhead_pct > kMaxOverheadPct) {
    std::fprintf(stderr, "FAIL: tracing overhead %.2f%% exceeds %.1f%%\n",
                 overhead_pct, kMaxOverheadPct);
    return 1;
  }
  bench::Note("ok: traced federation path within budget");
  return 0;
}

int RunGate() {
  bench::Header("A3 (ablation): no-op tracing overhead",
                "observability tentpole: disabled-tracer fast path must stay "
                "under 2%");
  std::vector<uint64_t> buf(kStageElems);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = i * 11400714819323198485ull;
  // Warmup, then up to three rounds: the gate takes the most favorable
  // round, so a single noisy window cannot fail the build while a real
  // regression (present in every round) still does.
  PassSeconds(false, buf);
  PassSeconds(true, buf);
  Round best = MeasureRound(9, buf);
  for (int round = 1; round < 3 && best.OverheadPct() > kMaxOverheadPct;
       ++round) {
    Round r = MeasureRound(9, buf);
    if (r.OverheadPct() < best.OverheadPct()) best = r;
  }
  double overhead_pct = best.OverheadPct();
  std::printf("%22s %12.3f ms\n", "baseline flag check", best.plain * 1e3);
  std::printf("%22s %12.3f ms\n", "live tracer check", best.live * 1e3);
  std::printf("%22s %+12.2f %%  (gate: <= %.1f%%)\n", "overhead",
              overhead_pct, kMaxOverheadPct);

  double off = QuerySeconds(false);
  double on = QuerySeconds(true);
  std::printf("%22s %12.3f ms\n", "E7-style query, off", off * 1e3);
  std::printf("%22s %12.3f ms  (informational)\n", "E7-style query, on",
              on * 1e3);

  if (overhead_pct > kMaxOverheadPct) {
    std::fprintf(stderr,
                 "FAIL: disabled-tracer overhead %.2f%% exceeds %.1f%%\n",
                 overhead_pct, kMaxOverheadPct);
    return 1;
  }
  bench::Note("ok: disabled-tracer fast path within budget");
  return 0;
}

void BM_StagePass(benchmark::State& state) {
  std::vector<uint64_t> buf(kStageElems);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = i * 11400714819323198485ull;
  bool gated = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PassSeconds(gated, buf));
  }
}
BENCHMARK(BM_StagePass)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  int gate = RunGate();
  int telemetry_gate = RunTelemetryGate();
  int accounting_gate = RunAccountingGate();
  int tracing_gate = RunTracingGate();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (gate != 0) return gate;
  if (telemetry_gate != 0) return telemetry_gate;
  return accounting_gate != 0 ? accounting_gate : tracing_gate;
}
