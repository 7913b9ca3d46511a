// The three closed-loop batch workloads: one client issues one query at a
// time to a QueryRunner over engine::ParallelExecutor at full width
// (threads = hardware concurrency), the configuration `--parallel` gives
// a user.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>

#include "common/hash.h"
#include "core/optimizer.h"
#include "core/parser.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "io/gdmz.h"
#include "obs/trace.h"
#include "sim/generators.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = gdms::core;
namespace gdm = gdms::gdm;
namespace sim = gdms::sim;

using Sources = std::map<std::string, std::shared_ptr<const gdm::Dataset>>;
using Outputs = std::map<std::string, gdm::Dataset>;

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-up repetitions of an untraced run; setup_s is their median.
constexpr int kSetups = 7;
/// Tail percentile: a 20-second run holds 250+ queries, so p90 keeps 25+
/// samples beyond it (TailOf steps down when a run has too few).
constexpr double kTailPct = 90;

/// A workload's generated inputs: datasets held in memory, plus at most
/// one dataset stored as .gdmz and opened by every query.
struct Inputs {
  Sources resident;
  std::string stored_name;
  std::string stored_path;
  uint64_t stored_regions = 0;
  uint64_t stored_file_bytes = 0;
  double write_gdmz_ms = 0;
};

struct BatchSpec {
  const char* name;
  const char* query;
  std::function<bool(const Config&, Inputs*, std::string*)> make;
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return gdms::Mix64(gdms::HashCombine(seed, stream));
}

void Put(Inputs* in, gdm::Dataset ds) {
  std::string name = ds.name();
  in->resident[name] = std::make_shared<const gdm::Dataset>(std::move(ds));
}

/// Writes `ds` as the workload's stored dataset.
bool Store(const Config& cfg, const gdm::Dataset& ds, Inputs* in,
           std::string* error) {
  in->stored_name = ds.name();
  in->stored_path = cfg.workdir + "/" + cfg.workload + ".gdmz";
  in->stored_regions = ds.TotalRegions();
  Clock::time_point t0 = Clock::now();
  gdms::Status st = gdms::io::WriteGdmz(ds, in->stored_path);
  in->write_gdmz_ms = MsBetween(t0, Clock::now());
  if (!st.ok()) {
    *error = "WriteGdmz: " + st.ToString();
    return false;
  }
  in->stored_file_bytes = std::filesystem::file_size(in->stored_path);
  return true;
}

// Section 2 of the paper at 1/32 of its scale (E1's middle row).
bool MakeSection2(const Config& cfg, Inputs* in, std::string*) {
  auto genome = gdm::GenomeAssembly::HumanLike(22, 240000000 / 4);
  sim::PeakDatasetOptions peaks;
  peaks.num_samples = cfg.tiny ? 4 : 76;
  peaks.peaks_per_sample = cfg.tiny ? 200 : 2048;
  Put(in, sim::GeneratePeakDataset(genome, peaks, SubSeed(cfg.seed, 1)));
  sim::GeneCatalog genes =
      sim::GenerateGenes(genome, cfg.tiny ? 150 : 4118, SubSeed(cfg.seed, 2));
  Put(in, sim::GenerateAnnotations(genome, genes, {}, SubSeed(cfg.seed, 3)));
  return true;
}

// E7's shape: reference panels mapped against many stored samples.
bool MakeStoredPanel(const Config& cfg, Inputs* in, std::string* error) {
  auto genome = gdm::GenomeAssembly::HumanLike(22, 80000000);
  sim::PeakDatasetOptions panels;
  panels.num_samples = cfg.tiny ? 2 : 8;
  panels.peaks_per_sample = cfg.tiny ? 50 : 400;
  Put(in, sim::GeneratePeakDataset(genome, panels, SubSeed(cfg.seed, 1),
                                   "PANELS"));
  sim::PeakDatasetOptions peaks;
  peaks.num_samples = cfg.tiny ? 3 : 6;
  peaks.peaks_per_sample = cfg.tiny ? 500 : 20000;
  return Store(cfg,
               sim::GeneratePeakDataset(genome, peaks, SubSeed(cfg.seed, 2)),
               in, error);
}

// E3 / Figure 3: histone marks, CTCF loops and promoters.
bool MakeCtcf(const Config& cfg, Inputs* in, std::string*) {
  auto genome = gdm::GenomeAssembly::HumanLike(8, 60000000);
  sim::CtcfLoopOptions loops;
  loops.num_loops = cfg.tiny ? 100 : 10000;
  Put(in, sim::GenerateCtcfLoops(genome, loops, SubSeed(cfg.seed, 1)));
  sim::PeakDatasetOptions marks;
  marks.num_samples = cfg.tiny ? 3 : 8;
  marks.peaks_per_sample = cfg.tiny ? 600 : 20000;
  marks.antibodies = {"H3K27ac", "H3K4me1", "H3K4me3"};
  Put(in, sim::GeneratePeakDataset(genome, marks, SubSeed(cfg.seed, 2),
                                   "MARKS"));
  sim::GeneCatalog genes =
      sim::GenerateGenes(genome, cfg.tiny ? 150 : 4000, SubSeed(cfg.seed, 3));
  Put(in, sim::GenerateAnnotations(genome, genes, {}, SubSeed(cfg.seed, 4)));
  return true;
}

const std::vector<BatchSpec>& Specs() {
  static const std::vector<BatchSpec> specs = {
      {"section2_map",
       "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
       "PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;\n"
       "RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;\n"
       "MATERIALIZE RESULT;\n",
       MakeSection2},
      {"stored_panel_map",
       "R = MAP(n AS COUNT, s AS SUM(signal)) PANELS ENCODE;\n"
       "MATERIALIZE R;\n",
       MakeStoredPanel},
      {"ctcf_pairs",
       "MARKED = SELECT(dataType == 'ChipSeq') MARKS;\n"
       "ACTIVE = COVER(2, ANY) MARKED;\n"
       "OUT_LOOP = DIFFERENCE() ACTIVE CTCF_LOOPS;\n"
       "IN_LOOP = DIFFERENCE() ACTIVE OUT_LOOP;\n"
       "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
       "PAIRS = JOIN(DLE(200000); CAT) PROMS IN_LOOP;\n"
       "PAIRS_FREE = JOIN(DLE(200000); CAT) PROMS ACTIVE;\n"
       "MATERIALIZE ACTIVE; MATERIALIZE IN_LOOP; MATERIALIZE PAIRS;\n"
       "MATERIALIZE PAIRS_FREE;\n",
       MakeCtcf},
  };
  return specs;
}

/// Everything one set-up builds. Member order matters: the runner's source
/// provider reads `sources`, and the runner uses the executors.
struct BatchState {
  Inputs inputs;
  Sources sources;
  uint64_t expected = 0;  ///< reference digest of the program's outputs
  double input_resident_mb = 0;
  std::unique_ptr<gdms::engine::ParallelExecutor> parallel;
  std::unique_ptr<TimingExecutor> timing;
  std::unique_ptr<core::QueryRunner> runner;
};

gdms::Result<std::shared_ptr<const gdm::Dataset>> OpenStored(
    const Inputs& in) {
  GDMS_ASSIGN_OR_RETURN(gdm::Dataset ds, gdms::io::OpenGdmz(in.stored_path));
  return std::make_shared<const gdm::Dataset>(std::move(ds));
}

void ServeFrom(const Sources* sources, core::QueryRunner* runner) {
  runner->set_source_provider(
      [sources](const std::string& name) -> std::shared_ptr<const gdm::Dataset> {
        auto it = sources->find(name);
        return it == sources->end() ? nullptr : it->second;
      });
}

/// Generation, .gdmz write, the reference digest and one warm-up query on
/// the engine (lazily built per-sample indexes and columns of the inputs).
std::unique_ptr<BatchState> Setup(const Config& cfg, const BatchSpec& spec,
                                  std::string* error) {
  auto st = std::make_unique<BatchState>();
  if (!spec.make(cfg, &st->inputs, error)) return nullptr;
  st->sources = st->inputs.resident;
  if (!st->inputs.stored_path.empty()) {
    auto stored = OpenStored(st->inputs);
    if (!stored.ok()) {
      *error = "OpenGdmz: " + stored.status().ToString();
      return nullptr;
    }
    st->sources[st->inputs.stored_name] = stored.value();
  }
  for (const auto& [name, ds] : st->sources) {
    st->input_resident_mb += static_cast<double>(ds->EstimateResidentBytes()) / kMiB;
  }
  {
    core::QueryRunner reference;
    ServeFrom(&st->sources, &reference);
    auto out = reference.Run(spec.query);
    if (!out.ok()) {
      *error = "reference run: " + out.status().ToString();
      return nullptr;
    }
    st->expected = DigestOutputs(out.value());
  }
  gdms::engine::EngineOptions options;  // threads = hardware concurrency
  st->parallel = std::make_unique<gdms::engine::ParallelExecutor>(options);
  st->timing = std::make_unique<TimingExecutor>(st->parallel.get());
  st->runner = std::make_unique<core::QueryRunner>(st->timing.get());
  ServeFrom(&st->sources, st->runner.get());
  // The warm-up's outcome is not checked here: the measured queries are,
  // and they report a wrong engine in the result line.
  (void)st->runner->Run(spec.query);
  // A stored dataset is opened by every query, so none stays resident.
  if (!st->inputs.stored_name.empty()) st->sources.erase(st->inputs.stored_name);
  return st;
}

struct Phase {
  std::vector<double> latency_ms;
  /// Per query: process CPU of the query plus the teardown of its result
  /// (the output check in between is excluded).
  std::vector<double> cpu_ms;
  uint64_t queries = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  std::string first_error;
  /// Traced phase: per-layer figures summed over queries.
  std::map<std::string, double> layers;
};

/// One query as a user runs it: open the stored dataset (if any), then
/// QueryRunner::Run (parse, optimize, fuse, execute).
gdms::Result<Outputs> UntracedQuery(BatchState* st, const BatchSpec& spec) {
  if (!st->inputs.stored_path.empty()) {
    GDMS_ASSIGN_OR_RETURN(st->sources[st->inputs.stored_name],
                          OpenStored(st->inputs));
  }
  return st->runner->Run(spec.query);
}

/// The same query split at the layer boundaries, each call timed from
/// here: io::OpenGdmz, core::Parser::Parse, Optimizer::Optimize +
/// FusePerPartitionChains, then QueryRunner::RunProgram with both already
/// applied, while the decorator times every Execute and the global tracer
/// records the engine's stage spans.
gdms::Result<Outputs> TracedQuery(BatchState* st, const BatchSpec& spec,
                                  std::map<std::string, double>* layers) {
  Clock::time_point t0 = Clock::now();
  if (!st->inputs.stored_path.empty()) {
    GDMS_ASSIGN_OR_RETURN(st->sources[st->inputs.stored_name],
                          OpenStored(st->inputs));
  }
  Clock::time_point t1 = Clock::now();
  GDMS_ASSIGN_OR_RETURN(core::Program program, core::Parser::Parse(spec.query));
  Clock::time_point t2 = Clock::now();
  core::Optimizer::Optimize(&program);
  core::Optimizer::FusePerPartitionChains(&program);
  Clock::time_point t3 = Clock::now();
  st->timing->set_timing(true);
  gdms::Result<Outputs> out = st->runner->RunProgram(std::move(program));
  st->timing->set_timing(false);
  Clock::time_point t4 = Clock::now();

  std::map<std::string, double>& l = *layers;
  if (!st->inputs.stored_path.empty()) {
    l["io.open_gdmz_ms"] += MsBetween(t0, t1);
    l["io.decoded_regions"] += static_cast<double>(st->inputs.stored_regions);
  }
  l["core.query_ms"] += MsBetween(t1, t4);
  l["core.parse_ms"] += MsBetween(t1, t2);
  l["core.optimize_ms"] += MsBetween(t2, t3);
  double in_execute = 0;
  for (const auto& [bucket, t] : st->timing->TakeTimings()) {
    in_execute += t.ms;
    l["engine." + bucket + ".ms"] += t.ms;
    l["engine." + bucket + ".out_regions"] += static_cast<double>(t.out_regions);
  }
  l["core.runner_self_ms"] += MsBetween(t3, t4) - in_execute;

  const core::RunStats& stats = st->runner->last_stats();
  l["core.alloc_mb"] += static_cast<double>(stats.alloc_bytes) / kMiB;
  l["core.peak_mb"] += static_cast<double>(stats.peak_bytes) / kMiB;
  l["core.intermediate_datasets"] +=
      static_cast<double>(stats.intermediate_datasets);
  for (const gdms::obs::OpByteStat& op : stats.op_bytes) {
    l["engine." + BucketOfOpName(op.op) + ".out_mb"] +=
        static_cast<double>(op.alloc_bytes) / kMiB;
  }
  for (const auto& [key, ms] : FoldStageSpans(stats)) l["engine." + key] += ms;
  l["engine.tasks"] += static_cast<double>(stats.executor.tasks);
  l["engine.partitions"] += static_cast<double>(stats.executor.partitions);
  l["engine.stage_barriers"] += static_cast<double>(stats.executor.stage_barriers);
  l["engine.shuffle_mb"] += static_cast<double>(stats.executor.shuffle_bytes) / kMiB;
  l["engine.columnar_tasks"] += static_cast<double>(
      st->parallel->trace().columnar_tasks.load(std::memory_order_relaxed));
  gdms::obs::Tracer::Global().Clear();
  return out;
}

void RunPhase(BatchState* st, const BatchSpec& spec, double seconds,
              bool traced, Phase* phase) {
  st->runner->set_optimize(!traced);
  st->runner->set_fusion(!traced);
  gdms::obs::Tracer::Global().set_enabled(traced);
  Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    double cpu0 = ProcessCpuMs();
    Clock::time_point t0 = Clock::now();
    gdms::Result<Outputs> result =
        traced ? TracedQuery(st, spec, &phase->layers) : UntracedQuery(st, spec);
    Clock::time_point t1 = Clock::now();
    double cpu1 = ProcessCpuMs();
    ++phase->queries;
    phase->latency_ms.push_back(MsBetween(t0, t1));
    std::optional<Outputs> outputs;
    if (!result.ok()) {
      ++phase->errors;
      if (phase->first_error.empty()) phase->first_error = result.status().ToString();
    } else {
      outputs = std::move(result).value();
      if (DigestOutputs(*outputs) != st->expected) ++phase->mismatches;
      if (traced) {
        double mb = 0;
        for (const auto& [name, ds] : *outputs) {
          mb += static_cast<double>(ds.EstimateResidentBytes()) / kMiB;
        }
        phase->layers["gdm.result_resident_mb"] += mb;
      }
    }
    double cpu2 = ProcessCpuMs();
    outputs.reset();
    if (!st->inputs.stored_name.empty()) st->sources.erase(st->inputs.stored_name);
    double cpu3 = ProcessCpuMs();
    phase->cpu_ms.push_back((cpu1 - cpu0) + (cpu3 - cpu2));
  } while (Clock::now() < end);
  gdms::obs::Tracer::Global().set_enabled(false);
  gdms::obs::Tracer::Global().Clear();
}

void Tally(const Phase& phase, Report* report) {
  report->attempted += phase.queries;
  report->failed += phase.errors + phase.mismatches;
  if (phase.errors + phase.mismatches > 0) report->correct = false;
  if (!phase.first_error.empty()) report->Note("query error: " + phase.first_error);
  if (phase.mismatches > 0) {
    report->Note(std::to_string(phase.mismatches) +
                 " outputs disagree with the reference executor");
  }
}

void ReportEndToEnd(const Phase& phase, double setup_s, double peak_rss_mb,
                    Report* report) {
  Tail tail = TailOf(phase.latency_ms, kTailPct);
  std::map<std::string, double> v = {
      {"setup_s", setup_s},
      {"latency_p50_ms", Median(phase.latency_ms)},
      {"latency_tail_ms", tail.value},
      {"cpu_ms_per_query", Median(phase.cpu_ms)},
      {"peak_rss_mb", peak_rss_mb},
  };
  EmitAll(EndToEndMetrics(), v, report);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency_tail_ms is p%g of %zu queries (%zu beyond it)",
                tail.percentile, tail.samples, tail.beyond);
  report->Note(buf);
}

void ReportPerLayer(const BatchState& st, const Phase& untraced,
                    const Phase& traced, Report* report) {
  double n = static_cast<double>(traced.queries);
  std::map<std::string, double> v;
  for (const auto& [key, sum] : traced.layers) v[key] = sum / n;
  for (const std::string& b : OpBuckets()) {
    if (b == "other") continue;
    double rest = v["engine." + b + ".ms"] - v["engine." + b + ".compute_ms"] -
                  v["engine." + b + ".assemble_ms"];
    v["engine." + b + ".partition_ms"] = std::max(0.0, rest);
  }
  double tasks = traced.layers.count("engine.tasks") ? traced.layers.at("engine.tasks") : 0;
  if (tasks > 0) {
    v["engine.columnar_task_frac"] = traced.layers.at("engine.columnar_tasks") / tasks;
  }
  if (v["io.open_gdmz_ms"] > 0) {
    v["io.decode_mregions_per_s"] =
        v["io.decoded_regions"] / 1e6 / (v["io.open_gdmz_ms"] / 1e3);
  }
  if (!st.inputs.stored_path.empty()) {
    v["io.write_gdmz_ms"] = st.inputs.write_gdmz_ms;
    v["io.stored_bytes_per_region"] =
        static_cast<double>(st.inputs.stored_file_bytes) /
        static_cast<double>(st.inputs.stored_regions);
  }
  v["gdm.input_resident_mb"] = st.input_resident_mb;
  double base = Median(untraced.latency_ms);
  double with_trace = Median(traced.latency_ms);
  v["obs.trace_overhead_frac"] = (with_trace - base) / base;
  EmitAll(PerLayerMetrics(), v, report);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency p50 untraced %.3f ms (%llu queries), traced %.3f ms "
                "(%llu queries)",
                base, static_cast<unsigned long long>(untraced.queries),
                with_trace, static_cast<unsigned long long>(traced.queries));
  report->Note(buf);
}

}  // namespace

bool RunBatch(const Config& cfg, Report* report, std::string* error) {
  const BatchSpec* spec = nullptr;
  for (const BatchSpec& s : Specs()) {
    if (cfg.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    *error = "unknown batch workload " + cfg.workload;
    return false;
  }
  std::vector<double> setup_s;
  std::unique_ptr<BatchState> st;
  for (int i = 0; i < (cfg.trace ? 1 : kSetups); ++i) {
    st.reset();  // the previous set-up is freed before the next is timed
    Clock::time_point t0 = Clock::now();
    st = Setup(cfg, *spec, error);
    if (st == nullptr) return false;
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  bool rss_reset = ResetPeakRss();
  if (!rss_reset) report->Note("peak RSS could not be reset after set-up");

  if (!cfg.trace) {
    Phase phase;
    RunPhase(st.get(), *spec, cfg.seconds, false, &phase);
    Tally(phase, report);
    ReportEndToEnd(phase, Median(setup_s), PeakRssMb(), report);
    return true;
  }
  // Traced run: an untraced half gives the baseline for the tracing
  // overhead, the traced half the per-layer split.
  Phase untraced, traced;
  RunPhase(st.get(), *spec, cfg.seconds / 2, false, &untraced);
  RunPhase(st.get(), *spec, cfg.seconds / 2, true, &traced);
  Tally(untraced, report);
  Tally(traced, report);
  ReportPerLayer(*st, untraced, traced, report);
  return true;
}

}  // namespace perfbench
