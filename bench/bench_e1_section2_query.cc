// E1 — the paper's one measured query (Section 2):
//
//   PROMS  = SELECT(annType == 'promoter') ANNOTATIONS;
//   PEAKS  = SELECT(dataType == 'ChipSeq') ENCODE;
//   RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
//
// Paper numbers: 2,423 ENCODE samples, 83,899,526 peaks, 131,780 promoters,
// 29 GB of result data. We run the identical query at scale factors and
// check the shape: result regions = promoters x samples, and bytes/region
// extrapolate to the tens-of-GB range at paper scale.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "sim/generators.h"

namespace {

using namespace gdms;  // NOLINT
using bench::Timer;

bench::ObsFlags obs_flags;

struct ScaledRun {
  size_t samples;
  uint64_t peaks;
  uint64_t promoters;
  size_t result_samples;
  uint64_t result_regions;
  uint64_t result_bytes;
  double seconds;
};

ScaledRun RunAtScale(size_t num_samples, size_t peaks_per_sample,
                     size_t num_genes) {
  auto genome = gdm::GenomeAssembly::HumanLike(22, 240000000 / 4);
  core::QueryRunner runner;
  sim::PeakDatasetOptions popt;
  popt.num_samples = num_samples;
  popt.peaks_per_sample = peaks_per_sample;
  runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 2016));
  auto catalog = sim::GenerateGenes(genome, num_genes, 2016);
  runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 2016));

  ScaledRun run;
  run.samples = num_samples;
  run.peaks = static_cast<uint64_t>(num_samples) * peaks_per_sample;
  run.promoters = catalog.genes.size();

  Timer timer;
  auto results = runner.Run(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;\n"
      "RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;\n"
      "MATERIALIZE RESULT;\n");
  run.seconds = timer.Seconds();
  obs_flags.Record(runner.last_stats());
  auto outputs = std::move(results).ValueOrDie();
  const gdm::Dataset& result = outputs.at("RESULT");
  run.result_samples = result.num_samples();
  run.result_regions = result.TotalRegions();
  run.result_bytes = result.EstimateBytes();
  return run;
}

void PrintTable(bench::BenchJson* json) {
  bench::Header("E1: the Section 2 MAP query at increasing scale",
                "Section 2 measured query: 2,423 samples / 83,899,526 peaks "
                "/ 131,780 promoters -> 29 GB");
  std::printf("%8s %12s %10s %10s %14s %12s %8s\n", "samples", "peaks",
              "promoters", "out_samp", "out_regions", "out_bytes", "sec");

  struct Scale {
    size_t samples;
    size_t peaks;
    size_t genes;
  };
  const Scale scales[] = {
      {38, 1024, 2059},   // ~1/64 of paper scale
      {76, 2048, 4118},   // ~1/32
      {151, 4096, 8236},  // ~1/16
  };
  double last_bytes_per_unit = 0;
  for (const auto& s : scales) {
    ScaledRun run = RunAtScale(s.samples, s.peaks, s.genes);
    bench::JsonObject& row = json->NewRun();
    row.Add("samples", static_cast<uint64_t>(run.samples));
    row.Add("peaks_per_sample", static_cast<uint64_t>(s.peaks));
    row.Add("genes", static_cast<uint64_t>(s.genes));
    row.Add("promoters", run.promoters);
    row.Add("result_samples", static_cast<uint64_t>(run.result_samples));
    row.Add("result_regions", run.result_regions);
    row.Add("result_bytes", run.result_bytes);
    row.Add("wall_seconds", run.seconds);
    std::printf("%8zu %12s %10s %10zu %14s %12s %8.2f\n", run.samples,
                WithThousands(run.peaks).c_str(),
                WithThousands(run.promoters).c_str(), run.result_samples,
                WithThousands(run.result_regions).c_str(),
                HumanBytes(run.result_bytes).c_str(), run.seconds);
    // Shape checks mirrored in EXPERIMENTS.md:
    //   result samples == peak samples; result regions == promoters x samples.
    if (run.result_samples != run.samples ||
        run.result_regions !=
            run.promoters * static_cast<uint64_t>(run.samples)) {
      std::printf("  !! SHAPE MISMATCH\n");
    }
    last_bytes_per_unit =
        static_cast<double>(run.result_bytes) /
        static_cast<double>(run.result_regions);
  }
  // Extrapolate the last run to paper scale.
  double paper_regions = 131780.0 * 2423.0;
  double paper_bytes = paper_regions * last_bytes_per_unit;
  bench::Note(
      "extrapolation to paper scale: %.0f promoters x %d samples = %s "
      "result regions -> ~%s (paper reports 29 GB)",
      131780.0, 2423,
      WithThousands(static_cast<uint64_t>(paper_regions)).c_str(),
      HumanBytes(static_cast<uint64_t>(paper_bytes)).c_str());
  json->top().Add("extrapolated_paper_bytes",
                  static_cast<uint64_t>(paper_bytes));
}

// E1b — the Section 2 query extended with the enrichment filter, fused vs
// --no-fusion on the parallel engine (8 threads, flat scheduler). The
// MAP->SELECT chain fuses into one physical stage: the SELECT runs inside
// MAP's per-pair assembly tasks and the intermediate MAP dataset is never
// allocated.
void FusionAB(bench::BenchJson* json) {
  bench::Header("E1b: MAP->SELECT chain, fusion on vs off",
                "8 threads, flat scheduler; best of 3 runs each");
  auto genome = gdm::GenomeAssembly::HumanLike(22, 240000000 / 4);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 76;
  popt.peaks_per_sample = 2048;
  gdm::Dataset encode = sim::GeneratePeakDataset(genome, popt, 2016);
  auto catalog = sim::GenerateGenes(genome, 4118, 2016);
  gdm::Dataset annotations =
      sim::GenerateAnnotations(genome, catalog, {}, 2016);
  const char* query =
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;\n"
      "RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;\n"
      "ENRICHED = SELECT(region: peak_count >= 2) RESULT;\n"
      "MATERIALIZE ENRICHED;\n";

  struct FusionRun {
    double seconds = 0;
    size_t intermediates = 0;
    size_t chains = 0;
  };
  auto run_one = [&](bool fusion) {
    engine::EngineOptions options;
    options.threads = 8;
    engine::ParallelExecutor executor(options);
    core::QueryRunner runner(&executor);
    runner.set_fusion(fusion);
    runner.RegisterDataset(encode);
    runner.RegisterDataset(annotations);
    FusionRun best;
    for (int rep = 0; rep < 3; ++rep) {
      Timer timer;
      auto results = runner.Run(query);
      double seconds = timer.Seconds();
      (void)std::move(results).ValueOrDie();
      obs_flags.Record(runner.last_stats());
      if (rep == 0 || seconds < best.seconds) best.seconds = seconds;
    }
    best.intermediates = runner.last_stats().intermediate_datasets;
    best.chains = runner.last_stats().fusion.chains_fused;
    return best;
  };

  FusionRun off = run_one(false);
  FusionRun on = run_one(true);
  double speedup = off.seconds / on.seconds;
  double intermediate_drop =
      1.0 - static_cast<double>(on.intermediates) /
                static_cast<double>(off.intermediates);
  std::printf("%10s %10s %14s %8s\n", "fusion", "sec", "intermediates",
              "chains");
  std::printf("%10s %10.3f %14zu %8zu\n", "off", off.seconds,
              off.intermediates, off.chains);
  std::printf("%10s %10.3f %14zu %8zu\n", "on", on.seconds, on.intermediates,
              on.chains);
  bench::Note(
      "fusion speedup %.2fx; intermediate datasets %zu -> %zu (-%.0f%%)",
      speedup, off.intermediates, on.intermediates, intermediate_drop * 100);
  json->top().Add("fusion_off_seconds", off.seconds);
  json->top().Add("fusion_on_seconds", on.seconds);
  json->top().Add("fusion_speedup", speedup);
  json->top().Add("fusion_intermediates_off",
                  static_cast<uint64_t>(off.intermediates));
  json->top().Add("fusion_intermediates_on",
                  static_cast<uint64_t>(on.intermediates));
  json->top().Add("fusion_chains", static_cast<uint64_t>(on.chains));
}

void BM_Section2Query(benchmark::State& state) {
  for (auto _ : state) {
    ScaledRun run = RunAtScale(static_cast<size_t>(state.range(0)), 1024,
                               2000);
    benchmark::DoNotOptimize(run.result_regions);
  }
}
BENCHMARK(BM_Section2Query)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::JsonPathFromArgs(&argc, argv);
  obs_flags.ParseFromArgs(&argc, argv);
  if (json_path.empty()) json_path = "BENCH_E1.json";
  bench::BenchJson json("E1 section2 map query");
  PrintTable(&json);
  FusionAB(&json);
  json.WriteTo(json_path);
  obs_flags.Finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
