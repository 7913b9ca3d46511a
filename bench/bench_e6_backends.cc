// E6 — Section 4.2 / ref. [10]: "Evaluating cloud frameworks on genomic
// applications" — the Flink-vs-Spark comparison on three genomic queries.
//
// The materialized backend (Spark-like) serializes every partition through
// a shuffle codec between stages; the pipelined backend (Flink-like)
// streams per-partition slices with no intermediate copies. Three queries
// in the spirit of [10]: a MAP-heavy mapping of experiments to references,
// a genometric JOIN, and a COVER/HISTOGRAM accumulation.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "sim/generators.h"

namespace {

using namespace gdms;  // NOLINT
using bench::Timer;

struct QueryCase {
  const char* name;
  const char* gmql;
};

const QueryCase kQueries[] = {
    {"Q1 map",
     "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
     "R = MAP(n AS COUNT, avg_sig AS AVG(signal)) PROMS ENCODE;\n"
     "MATERIALIZE R;\n"},
    {"Q2 join",
     "GENES = SELECT(annType == 'gene') ANNOTATIONS;\n"
     "R = JOIN(DLE(20000); CAT) GENES ENCODE;\n"
     "MATERIALIZE R;\n"},
    {"Q3 cover",
     "P = SELECT(dataType == 'ChipSeq') ENCODE;\n"
     "R = HISTOGRAM(1, ANY) P;\n"
     "MATERIALIZE R;\n"},
};

void RegisterData(core::QueryRunner* runner, uint64_t seed) {
  auto genome = gdm::GenomeAssembly::HumanLike(12, 120000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 8;
  popt.peaks_per_sample = 25000;
  runner->RegisterDataset(sim::GeneratePeakDataset(genome, popt, seed));
  auto catalog = sim::GenerateGenes(genome, 3000, seed);
  runner->RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, seed));
}

struct BackendRun {
  double seconds = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t tasks = 0;
  uint64_t barriers = 0;
  uint64_t result_regions = 0;
};

BackendRun RunOn(engine::BackendKind backend, const char* gmql) {
  engine::EngineOptions options;
  options.backend = backend;
  options.threads = 4;
  engine::ParallelExecutor executor(options);
  core::QueryRunner runner(&executor);
  RegisterData(&runner, 2016);
  Timer timer;
  auto results = runner.Run(gmql);
  BackendRun out;
  out.seconds = timer.Seconds();
  out.shuffle_bytes = executor.trace().shuffle_bytes.load();
  out.tasks = executor.trace().tasks.load();
  out.barriers = executor.trace().stage_barriers.load();
  out.result_regions = results.ValueOrDie().at("R").TotalRegions();
  return out;
}

void PrintTable(bench::BenchJson* json) {
  bench::Header("E6: materialized (Spark-like) vs pipelined (Flink-like)",
                "Section 4.2 / ref [10]: early comparison of Flink and Spark "
                "on three genomic queries");
  json->top().Add("samples", 8);
  json->top().Add("peaks_per_sample", 25000);
  json->top().Add("genes", 3000);
  json->top().Add("threads", 4);
  auto record = [&](const char* query, const char* backend,
                    const BackendRun& run) {
    bench::JsonObject& row = json->NewRun();
    row.Add("query", query);
    row.Add("backend", backend);
    row.Add("wall_seconds", run.seconds);
    row.Add("shuffle_bytes", run.shuffle_bytes);
    row.Add("tasks", run.tasks);
    row.Add("stage_barriers", run.barriers);
    row.Add("result_regions", run.result_regions);
  };
  std::printf("%-10s %-14s %10s %14s %8s %8s %14s\n", "query", "backend",
              "sec", "shuffle", "tasks", "barriers", "result_regions");
  for (const auto& q : kQueries) {
    BackendRun mat = RunOn(engine::BackendKind::kMaterialized, q.gmql);
    BackendRun pipe = RunOn(engine::BackendKind::kPipelined, q.gmql);
    record(q.name, "materialized", mat);
    record(q.name, "pipelined", pipe);
    std::printf("%-10s %-14s %10.3f %14s %8llu %8llu %14s\n", q.name,
                "materialized", mat.seconds,
                HumanBytes(mat.shuffle_bytes).c_str(),
                static_cast<unsigned long long>(mat.tasks),
                static_cast<unsigned long long>(mat.barriers),
                WithThousands(mat.result_regions).c_str());
    std::printf("%-10s %-14s %10.3f %14s %8llu %8llu %14s\n", q.name,
                "pipelined", pipe.seconds,
                HumanBytes(pipe.shuffle_bytes).c_str(),
                static_cast<unsigned long long>(pipe.tasks),
                static_cast<unsigned long long>(pipe.barriers),
                WithThousands(pipe.result_regions).c_str());
    if (mat.result_regions != pipe.result_regions) {
      std::printf("  !! RESULT MISMATCH\n");
    }
    std::printf("%-10s speedup of pipelined: %.2fx\n", "",
                pipe.seconds > 0 ? mat.seconds / pipe.seconds : 0);
  }
  bench::Note(
      "shape check (ref [10]): both encodings compute identical GMQL results; "
      "the\nstage-materialized backend pays serialization+barrier overhead "
      "proportional to\nintermediate volume, so pipelining wins most on the "
      "shuffle-heavy queries.");
}

void BM_Backend(benchmark::State& state) {
  auto backend = state.range(0) == 0 ? engine::BackendKind::kMaterialized
                                     : engine::BackendKind::kPipelined;
  for (auto _ : state) {
    BackendRun run = RunOn(backend, kQueries[0].gmql);
    benchmark::DoNotOptimize(run.result_regions);
  }
  state.SetLabel(engine::BackendKindName(backend));
}
BENCHMARK(BM_Backend)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::JsonPathFromArgs(&argc, argv);
  bench::ObsFlags obs_flags;
  obs_flags.ParseFromArgs(&argc, argv);
  if (json_path.empty()) json_path = "BENCH_E6.json";
  bench::BenchJson json("E6 materialized vs pipelined backends");
  PrintTable(&json);
  json.WriteTo(json_path);
  obs_flags.Finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
