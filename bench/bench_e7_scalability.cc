// E7 — Section 4.2: parallel scalability of the engine's MAP.
//
// The paper-scale workload shape is MANY samples against one reference
// (Section 2: 2,423 ENCODE samples), so the dominant parallelism axis is
// the sample pair, not the partitions within one pair. The engine emits ONE
// task list spanning every pair x partition and reuses each sample's cached
// columns and their chunk directory. This bench runs the Section 2 MAP
// query on a many-samples dataset across thread counts.

#include <thread>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "io/gdm_format.h"
#include "io/gdmz.h"
#include "sim/generators.h"

namespace {

using namespace gdms;  // NOLINT
using bench::Timer;

const char* kQuery =
    "R = MAP(n AS COUNT, s AS SUM(signal)) PANELS ENCODE;\n"
    "MATERIALIZE R;\n";

// Many experiment samples mapped against several reference panels, the
// paper-scale workload shape (Section 2 averages ~35k peaks per ENCODE
// sample over a 22+2-chromosome genome). Every exp sample takes part in
// kRefPanels pairs; the engine builds one cached column set (with its
// chunk directory) per sample.
constexpr size_t kRefPanels = 8;
constexpr size_t kPanelRegions = 400;
constexpr size_t kSamples = 96;
constexpr size_t kPeaksPerSample = 25000;

/// Generated once; each run copies out of the masters so dataset synthesis
/// stays off the clock and every run starts with cold columns.
const gdm::GenomeAssembly& Genome() {
  static gdm::GenomeAssembly genome =
      gdm::GenomeAssembly::HumanLike(22, 80000000);
  return genome;
}

void RegisterData(core::QueryRunner* runner) {
  static const gdm::Dataset panels = [] {
    sim::PeakDatasetOptions popt;
    popt.num_samples = kRefPanels;
    popt.peaks_per_sample = kPanelRegions;
    gdm::Dataset ds = sim::GeneratePeakDataset(Genome(), popt, 13);
    ds.set_name("PANELS");
    return ds;
  }();
  static const gdm::Dataset peaks = [] {
    sim::PeakDatasetOptions popt;
    popt.num_samples = kSamples;
    popt.peaks_per_sample = kPeaksPerSample;
    return sim::GeneratePeakDataset(Genome(), popt, 7);
  }();
  runner->RegisterDataset(panels);
  runner->RegisterDataset(peaks);
}

struct RunResult {
  double seconds = 0;
  uint64_t tasks = 0;
  uint64_t partitions = 0;
};

RunResult RunOnce(size_t threads) {
  engine::EngineOptions options;
  options.threads = threads;
  options.backend = engine::BackendKind::kPipelined;
  engine::ParallelExecutor executor(options);
  core::QueryRunner runner(&executor);
  RegisterData(&runner);
  Timer timer;
  auto results = runner.Run(kQuery);
  RunResult out;
  out.seconds = timer.Seconds();
  results.ValueOrDie();
  out.tasks = executor.trace().tasks.load();
  out.partitions = executor.trace().partitions.load();
  return out;
}

/// Best of `reps` runs: min wall time is the standard noise filter on a
/// shared/oversubscribed host.
RunResult RunWith(size_t threads, int reps = 3) {
  RunResult best = RunOnce(threads);
  for (int i = 1; i < reps; ++i) {
    RunResult r = RunOnce(threads);
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

/// Storage figures on the bench's experiment corpus: text vs .gdmz encoded
/// sizes (the federation transfer figure) and the decoded in-memory
/// footprint. Machine-independent, so the regression gate can check ratios
/// without a host-speed fudge factor.
void PrintStorageFigures(bench::BenchJson* json) {
  sim::PeakDatasetOptions popt;
  popt.num_samples = kSamples;
  popt.peaks_per_sample = kPeaksPerSample;
  gdm::Dataset peaks = sim::GeneratePeakDataset(Genome(), popt, 7);
  size_t text_bytes = io::WriteGdmString(peaks).size();
  size_t gdmz_bytes = io::WriteGdmzString(peaks).size();
  uint64_t resident = peaks.EstimateResidentBytes();
  double ratio =
      gdmz_bytes > 0 ? static_cast<double>(text_bytes) / gdmz_bytes : 0;
  std::printf(
      "storage: text %.1f MiB, .gdmz %.1f MiB (%.2fx smaller), resident "
      "%.1f MiB\n",
      text_bytes / 1048576.0, gdmz_bytes / 1048576.0, ratio,
      resident / 1048576.0);
  json->top().Add("text_bytes", static_cast<uint64_t>(text_bytes));
  json->top().Add("gdmz_bytes", static_cast<uint64_t>(gdmz_bytes));
  json->top().Add("size_ratio", ratio);
  json->top().Add("bytes_resident", resident);
}

void PrintTable(bench::BenchJson* json) {
  bench::Header(
      "E7: flat (pair x partition) task graph, columnar MAP kernel",
      "Section 4.2: computational efficiency via parallel computing on "
      "clusters and clouds");
  size_t hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %zu\n", hw);
  std::printf(
      "workload: MAP of %zu ref panels x %zu exp samples (%zu pairs), "
      "%zu peaks/sample\n",
      kRefPanels, kSamples, kRefPanels * kSamples, kPeaksPerSample);
  json->top().Add("ref_panels", static_cast<uint64_t>(kRefPanels));
  json->top().Add("panel_regions", static_cast<uint64_t>(kPanelRegions));
  json->top().Add("samples", static_cast<uint64_t>(kSamples));
  json->top().Add("peaks_per_sample", static_cast<uint64_t>(kPeaksPerSample));
  json->top().Add("hardware_threads", static_cast<uint64_t>(hw));

  // Warm the allocator and page cache so the first measured config is not
  // penalized.
  (void)RunWith(1, 1);

  std::printf("%8s %12s %10s\n", "threads", "wall(s)", "tasks");
  for (size_t threads : {1, 2, 4, 8}) {
    RunResult flat = RunWith(threads);
    std::printf("%8zu %12.3f %10llu\n", threads, flat.seconds,
                static_cast<unsigned long long>(flat.tasks));
    bench::JsonObject& row = json->NewRun();
    row.Add("threads", static_cast<uint64_t>(threads));
    row.Add("wall_seconds", flat.seconds);
    row.Add("tasks", flat.tasks);
    row.Add("partitions", flat.partitions);
  }
  bench::Note(
      "The MAP inner loop runs over the samples' coordinate columns\n"
      "(CollectOverlaps + per-attribute moment arrays), and rows are only\n"
      "rebuilt at assembly.");
  PrintStorageFigures(json);
}

void BM_MapScaling(benchmark::State& state) {
  for (auto _ : state) {
    RunResult r = RunOnce(static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(r.seconds);
  }
}
BENCHMARK(BM_MapScaling)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::JsonPathFromArgs(&argc, argv);
  bench::ObsFlags obs_flags;
  obs_flags.ParseFromArgs(&argc, argv);
  if (json_path.empty()) json_path = "BENCH_E7.json";
  bench::BenchJson json("E7 scheduler scalability");
  PrintTable(&json);
  json.WriteTo(json_path);
  obs_flags.Finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
