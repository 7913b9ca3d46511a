// E9 (serve) — Section 4.4's "GMQL as a service": the src/serve session
// layer under load.
//
// Three phases against one shared versioned catalog:
//   capacity   — closed-loop batch with the result cache OFF, 1 worker vs
//                kWorkersMax workers: every query executes, so qps measures
//                real engine capacity and the ratio is the worker scaling.
//   open loop  — a paced arrival stream (fraction of measured capacity)
//                with both caches ON: reports achieved qps, warm plan- and
//                result-cache hit rates, and p50/p95/p99 latency.
//   overload   — a burst far beyond a tiny admission queue: admission must
//                shed (reject fast), never block, and still answer every
//                admitted query exactly once.
//
// Every phase cross-checks response accounting: lost (admitted but never
// answered) and duplicated (answered twice) responses are reported and
// gated at exactly zero by tools/check_bench_regression.py.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "serve/serve_catalog.h"
#include "serve/session_manager.h"
#include "sim/generators.h"

namespace {

using namespace gdms;  // NOLINT
using bench::Timer;

bench::ObsFlags obs_flags;

constexpr size_t kWorkersMax = 8;
constexpr size_t kCapacityQueries = 96;
constexpr size_t kOpenLoopQueries = 200;
constexpr size_t kOverloadQueries = 200;
constexpr size_t kOverloadQueueLimit = 8;

const gdm::GenomeAssembly& Genome() {
  static gdm::GenomeAssembly genome =
      gdm::GenomeAssembly::HumanLike(8, 60000000);
  return genome;
}

/// The shared catalog every phase's manager serves from. Built once;
/// dataset synthesis stays off every clock.
serve::ServeCatalog* SharedCatalog() {
  static serve::ServeCatalog* catalog = [] {
    auto* cat = new serve::ServeCatalog();
    sim::PeakDatasetOptions popt;
    popt.num_samples = 6;
    popt.peaks_per_sample = 2500;
    cat->Publish(sim::GeneratePeakDataset(Genome(), popt, 7));
    sim::PeakDatasetOptions panels;
    panels.num_samples = 4;
    panels.peaks_per_sample = 200;
    cat->Publish(sim::GeneratePeakDataset(Genome(), panels, 13, "PANELS"));
    sim::GeneCatalog genes = sim::GenerateGenes(Genome(), 800, 21);
    cat->Publish(sim::GenerateAnnotations(Genome(), genes, {}, 21));
    return cat;
  }();
  return catalog;
}

/// The mixed workload: E1-shaped metadata-select + MAP (six antibody
/// bindings of one shape), E3-shaped COVER (three threshold bindings), and
/// the E7-shaped aggregate MAP (literal-free). Ten (shape, binding)
/// variants total — a warmed plan cache answers every one from memory.
const std::vector<std::string>& QueryMix() {
  static const std::vector<std::string> queries = [] {
    std::vector<std::string> out;
    for (const char* ab :
         {"CTCF", "POLR2A", "H3K27ac", "H3K4me1", "H3K4me3", "EP300"}) {
      out.push_back(
          std::string("PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
                      "PEAKS = SELECT(antibody == '") +
          ab +
          "') ENCODE;\n"
          "R = MAP(peak_count AS COUNT) PROMS PEAKS;\n"
          "MATERIALIZE R;\n");
    }
    for (int k : {2, 3, 4}) {
      out.push_back("MARKED = SELECT(dataType == 'ChipSeq') ENCODE;\n"
                    "ACTIVE = COVER(" +
                    std::to_string(k) +
                    ", ANY) MARKED;\n"
                    "MATERIALIZE ACTIVE;\n");
    }
    out.push_back(
        "R = MAP(n AS COUNT, s AS SUM(signal)) PANELS ENCODE;\n"
        "MATERIALIZE R;\n");
    return out;
  }();
  return queries;
}

/// Response-side accounting: per-id response counts catch lost and
/// duplicated callbacks; latencies feed the percentile report.
struct Collector {
  std::mutex mu;
  std::map<uint64_t, int> responses;
  std::vector<double> latencies_ms;
  uint64_t errors = 0;

  void Record(const serve::ServeResponse& resp) {
    std::lock_guard<std::mutex> lock(mu);
    ++responses[resp.id];
    latencies_ms.push_back(resp.total_ms);
    if (!resp.status.ok()) ++errors;
    obs_flags.Record(resp.stats);
  }

  /// (lost, duplicates) against the ids Submit admitted.
  std::pair<uint64_t, uint64_t> Audit(const std::vector<uint64_t>& admitted) {
    std::lock_guard<std::mutex> lock(mu);
    uint64_t lost = 0, dups = 0;
    for (uint64_t id : admitted) {
      auto it = responses.find(id);
      if (it == responses.end()) {
        ++lost;
      } else if (it->second > 1) {
        dups += static_cast<uint64_t>(it->second - 1);
      }
    }
    return {lost, dups};
  }

  double Percentile(double q) {
    std::lock_guard<std::mutex> lock(mu);
    if (latencies_ms.empty()) return 0;
    std::vector<double> sorted = latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size()));
    if (idx >= sorted.size()) idx = sorted.size() - 1;
    return sorted[idx];
  }
};

struct PhaseResult {
  double wall_seconds = 0;
  double qps = 0;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t lost = 0;
  uint64_t duplicates = 0;
  uint64_t errors = 0;
  double plan_hit_rate = 0;
  double result_hit_rate = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double max_submit_ms = 0;
};

/// Hit rate over a stats window: hits-delta / lookups-delta.
double DeltaRate(uint64_t hits0, uint64_t total0, uint64_t hits1,
                 uint64_t total1) {
  uint64_t total = total1 - total0;
  return total == 0 ? 0.0
                    : static_cast<double>(hits1 - hits0) /
                          static_cast<double>(total);
}

serve::ServeOptions BaseOptions(size_t workers) {
  serve::ServeOptions opts;
  opts.workers = workers;
  opts.engine_threads = 1;  // inter-query concurrency only: scaling = workers
  return opts;
}

/// Closed-loop batch, result cache off: every query executes, qps is
/// engine capacity at this worker count.
PhaseResult RunCapacity(size_t workers, size_t queries) {
  serve::ServeOptions opts = BaseOptions(workers);
  opts.queue_limit = queries + kWorkersMax;  // batch admits fully
  opts.result_cache_bytes = 0;
  serve::SessionManager manager(SharedCatalog(), opts);
  const auto& mix = QueryMix();
  // Warm the plan cache.
  for (const auto& q : mix) obs_flags.Record(manager.Execute(q).stats);

  Collector col;
  std::vector<uint64_t> admitted;
  PhaseResult out;
  Timer timer;
  for (size_t i = 0; i < queries; ++i) {
    auto id = manager.Submit(
        mix[i % mix.size()],
        [&col](const serve::ServeResponse& resp) { col.Record(resp); });
    ++out.submitted;
    if (id.ok()) {
      admitted.push_back(id.ValueOrDie());
    } else {
      ++out.rejected;
    }
  }
  manager.Drain();
  out.wall_seconds = timer.Seconds();
  out.admitted = admitted.size();
  out.qps = out.wall_seconds > 0
                ? static_cast<double>(admitted.size()) / out.wall_seconds
                : 0;
  std::tie(out.lost, out.duplicates) = col.Audit(admitted);
  out.errors = col.errors;
  return out;
}

/// Paced arrival stream with both caches on, offered below capacity so
/// queueing stays incidental: the steady-state serving picture.
PhaseResult RunOpenLoop(size_t workers, double offered_qps, size_t queries) {
  serve::ServeOptions opts = BaseOptions(workers);
  opts.queue_limit = 64;
  serve::SessionManager manager(SharedCatalog(), opts);
  const auto& mix = QueryMix();
  // Fill the plan and result caches.
  for (const auto& q : mix) obs_flags.Record(manager.Execute(q).stats);

  serve::PlanCache::Stats plan0 = manager.plan_cache().stats();
  serve::ResultCache::Stats res0 = manager.result_cache().stats();

  Collector col;
  std::vector<uint64_t> admitted;
  PhaseResult out;
  auto interval = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(offered_qps > 0 ? 1.0 / offered_qps : 0));
  auto next = std::chrono::steady_clock::now();
  Timer timer;
  for (size_t i = 0; i < queries; ++i) {
    std::this_thread::sleep_until(next);
    next += interval;
    auto id = manager.Submit(
        mix[i % mix.size()],
        [&col](const serve::ServeResponse& resp) { col.Record(resp); });
    ++out.submitted;
    if (id.ok()) {
      admitted.push_back(id.ValueOrDie());
    } else {
      ++out.rejected;
    }
  }
  manager.Drain();
  out.wall_seconds = timer.Seconds();
  out.admitted = admitted.size();
  out.qps = out.wall_seconds > 0
                ? static_cast<double>(admitted.size()) / out.wall_seconds
                : 0;
  std::tie(out.lost, out.duplicates) = col.Audit(admitted);
  out.errors = col.errors;

  serve::PlanCache::Stats plan1 = manager.plan_cache().stats();
  serve::ResultCache::Stats res1 = manager.result_cache().stats();
  out.plan_hit_rate =
      DeltaRate(plan0.hits, plan0.hits + plan0.rebinds + plan0.misses,
                plan1.hits, plan1.hits + plan1.rebinds + plan1.misses);
  out.result_hit_rate = DeltaRate(res0.hits, res0.hits + res0.misses,
                                  res1.hits, res1.hits + res1.misses);
  out.p50_ms = col.Percentile(0.50);
  out.p95_ms = col.Percentile(0.95);
  out.p99_ms = col.Percentile(0.99);
  return out;
}

/// Burst far beyond a tiny queue with the result cache off (queries cost
/// real work): admission must reject — fast, without blocking — and every
/// admitted query must still be answered exactly once.
PhaseResult RunOverload(size_t queries) {
  serve::ServeOptions opts = BaseOptions(2);
  opts.queue_limit = kOverloadQueueLimit;
  opts.result_cache_bytes = 0;
  serve::SessionManager manager(SharedCatalog(), opts);
  const auto& mix = QueryMix();
  for (const auto& q : mix) obs_flags.Record(manager.Execute(q).stats);

  Collector col;
  std::vector<uint64_t> admitted;
  PhaseResult out;
  Timer timer;
  for (size_t i = 0; i < queries; ++i) {
    Timer submit_timer;
    auto id = manager.Submit(
        mix[i % mix.size()],
        [&col](const serve::ServeResponse& resp) { col.Record(resp); });
    out.max_submit_ms =
        std::max(out.max_submit_ms, submit_timer.Seconds() * 1000.0);
    ++out.submitted;
    if (id.ok()) {
      admitted.push_back(id.ValueOrDie());
    } else {
      ++out.rejected;
    }
  }
  manager.Drain();
  out.wall_seconds = timer.Seconds();
  out.admitted = admitted.size();
  std::tie(out.lost, out.duplicates) = col.Audit(admitted);
  out.errors = col.errors;
  return out;
}

void AddCommonFields(bench::JsonObject* row, const PhaseResult& r) {
  row->Add("submitted", r.submitted);
  row->Add("admitted", r.admitted);
  row->Add("rejected", r.rejected);
  row->Add("lost", r.lost);
  row->Add("duplicates", r.duplicates);
  row->Add("errors", r.errors);
  row->Add("wall_seconds", r.wall_seconds);
}

void PrintTable(bench::BenchJson* json) {
  bench::Header("E9 serve: admission control, plan/result caches, scaling",
                "Section 4.4: GMQL as a shared multi-user service");
  size_t hw = std::thread::hardware_concurrency();
  const auto& mix = QueryMix();
  std::printf("hardware threads: %zu\n", hw);
  std::printf("query mix: %zu (shape, binding) variants (E1/E3/E7-shaped)\n",
              mix.size());
  json->top().Add("hardware_threads", static_cast<uint64_t>(hw));
  json->top().Add("workers_max", static_cast<uint64_t>(kWorkersMax));
  json->top().Add("query_variants", static_cast<uint64_t>(mix.size()));

  // -- capacity: 1 worker vs kWorkersMax, every query executes --
  PhaseResult cap1 = RunCapacity(1, kCapacityQueries);
  PhaseResult capN = RunCapacity(kWorkersMax, kCapacityQueries);
  double scaling = cap1.qps > 0 ? capN.qps / cap1.qps : 0;
  std::printf("\n%10s %10s %12s %9s %6s %6s\n", "phase", "workers", "qps",
              "wall(s)", "lost", "dup");
  std::printf("%10s %10d %12.1f %9.3f %6llu %6llu\n", "capacity", 1, cap1.qps,
              cap1.wall_seconds, static_cast<unsigned long long>(cap1.lost),
              static_cast<unsigned long long>(cap1.duplicates));
  std::printf("%10s %10zu %12.1f %9.3f %6llu %6llu  (%.2fx vs 1 worker)\n",
              "capacity", kWorkersMax, capN.qps, capN.wall_seconds,
              static_cast<unsigned long long>(capN.lost),
              static_cast<unsigned long long>(capN.duplicates), scaling);
  for (const auto* r : {&cap1, &capN}) {
    bench::JsonObject& row = json->NewRun();
    row.Add("phase", "capacity");
    row.Add("workers", static_cast<uint64_t>(r == &cap1 ? 1 : kWorkersMax));
    row.Add("qps", r->qps);
    AddCommonFields(&row, *r);
  }
  json->top().Add("scaling_at_max_workers", scaling);

  // -- open loop at a sustainable fraction of measured capacity --
  double offered = std::max(20.0, capN.qps * 0.6);
  PhaseResult open = RunOpenLoop(kWorkersMax, offered, kOpenLoopQueries);
  std::printf(
      "\nopen loop: offered %.1f qps, achieved %.1f qps over %zu queries\n",
      offered, open.qps, kOpenLoopQueries);
  std::printf("  plan cache hit rate:   %5.1f%% (warm; gate >= 90%%)\n",
              open.plan_hit_rate * 100);
  std::printf("  result cache hit rate: %5.1f%%\n",
              open.result_hit_rate * 100);
  std::printf("  latency ms: p50 %.2f  p95 %.2f  p99 %.2f\n", open.p50_ms,
              open.p95_ms, open.p99_ms);
  std::printf("  lost %llu, duplicates %llu, errors %llu, rejected %llu\n",
              static_cast<unsigned long long>(open.lost),
              static_cast<unsigned long long>(open.duplicates),
              static_cast<unsigned long long>(open.errors),
              static_cast<unsigned long long>(open.rejected));
  {
    bench::JsonObject& row = json->NewRun();
    row.Add("phase", "open_loop");
    row.Add("workers", static_cast<uint64_t>(kWorkersMax));
    row.Add("offered_qps", offered);
    row.Add("qps", open.qps);
    row.Add("plan_hit_rate", open.plan_hit_rate);
    row.Add("result_hit_rate", open.result_hit_rate);
    row.Add("p50_ms", open.p50_ms);
    row.Add("p95_ms", open.p95_ms);
    row.Add("p99_ms", open.p99_ms);
    AddCommonFields(&row, open);
  }

  // -- overload: burst >> queue, shedding must engage --
  PhaseResult over = RunOverload(kOverloadQueries);
  std::printf(
      "\noverload: %zu-query burst into queue limit %zu -> admitted %llu, "
      "rejected %llu\n",
      kOverloadQueries, kOverloadQueueLimit,
      static_cast<unsigned long long>(over.admitted),
      static_cast<unsigned long long>(over.rejected));
  std::printf("  max Submit stall %.2f ms (rejection is a fast path)\n",
              over.max_submit_ms);
  std::printf("  lost %llu, duplicates %llu\n",
              static_cast<unsigned long long>(over.lost),
              static_cast<unsigned long long>(over.duplicates));
  {
    bench::JsonObject& row = json->NewRun();
    row.Add("phase", "overload");
    row.Add("workers", static_cast<uint64_t>(2));
    row.Add("queue_limit", static_cast<uint64_t>(kOverloadQueueLimit));
    row.Add("max_submit_ms", over.max_submit_ms);
    AddCommonFields(&row, over);
  }

  bench::Note(
      "capacity runs with the result cache OFF so qps measures executed "
      "queries;\nworker scaling is bounded by hardware threads (engine "
      "threads are pinned to 1\nper worker, so sessions are the only "
      "parallelism axis). The open-loop phase\nserves the same mix with both "
      "caches on: a warmed plan cache answers every\nvariant without parsing "
      "and the result cache answers repeats without executing.");
}

void BM_WarmServe(benchmark::State& state) {
  static serve::SessionManager* manager = [] {
    serve::ServeOptions opts = BaseOptions(2);
    auto* m = new serve::SessionManager(SharedCatalog(), opts);
    for (const auto& q : QueryMix()) m->Execute(q);
    return m;
  }();
  const auto& mix = QueryMix();
  size_t i = 0;
  for (auto _ : state) {
    serve::ServeResponse resp = manager->Execute(mix[i++ % mix.size()]);
    benchmark::DoNotOptimize(resp.result_cache_hit);
  }
  state.SetLabel("plan+result caches warm");
}
BENCHMARK(BM_WarmServe)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::JsonPathFromArgs(&argc, argv);
  obs_flags.ParseFromArgs(&argc, argv);
  if (json_path.empty()) json_path = "BENCH_E9_SERVE.json";
  bench::BenchJson json("E9 serve admission and caching");
  PrintTable(&json);
  json.WriteTo(json_path);
  obs_flags.Finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
