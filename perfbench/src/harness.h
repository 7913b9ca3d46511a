// Shared plumbing of the GDMS benchmark: run configuration, the metric
// report and its JSON line, latency statistics, process CPU / peak-RSS
// probes, the order-independent output digest, and the bench-side executor
// decorator that times every operator from outside the engine.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/plan.h"
#include "core/runner.h"
#include "gdm/dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point t0, Clock::time_point t1);

/// One benchmark invocation.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test scale: every input shrinks so a workload runs in well under
  /// a second; the checks are the same.
  bool tiny = false;
  /// Self-test only: serve_mix sends one read that names a dataset the
  /// catalog lacks, so the run must come out incorrect.
  bool inject_read_error = false;
  /// Directory (inside the checkout) for the .gdmz files a workload writes.
  std::string workdir;
};

/// Named metrics of one run plus the correctness tally; rendered as the
/// single JSON line the benchmark ends with.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  /// A human-readable line printed above the JSON result.
  void Note(const std::string& line) { notes_.push_back(line); }

  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }
  /// Value of `name`; 0 when absent.
  double Get(const std::string& name) const;

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Tail latency: the highest percentile of {preferred, 95, 90, 75, 50} not
/// above `preferred_pct` that still has at least ten samples beyond it
/// (nearest-rank), with the figures reported beside it.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> v, double preferred_pct);

/// Process CPU time (user + system, every thread) in milliseconds.
double ProcessCpuMs();

/// CPU time of the calling thread in milliseconds.
double ThreadCpuMs();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS through
/// /proc/self/clear_refs; false when the kernel refuses.
bool ResetPeakRss();

/// VmHWM in MiB; 0 when /proc is unreadable.
double PeakRssMb();

/// Order-independent digest of a dataset's content through its public
/// accessors: name, schema, and per sample its id, metadata and every
/// region's coordinates, strand and typed values. Samples and regions are
/// combined commutatively, so a result that differs only in order digests
/// the same.
uint64_t DigestDataset(const gdms::gdm::Dataset& ds);

/// Digest of a program's named outputs.
uint64_t DigestOutputs(const std::map<std::string, gdms::gdm::Dataset>& out);

/// Bucket of a plan node in the per-operator metrics: select, map, cover,
/// difference, join, fused, or other.
const char* OpBucket(const gdms::core::PlanNode& node);

/// The operator buckets in metric order ("other" last).
const std::vector<std::string>& OpBuckets();

/// \brief Bench-side executor decorator: times each Execute call of the
/// wrapped executor and counts its output regions, so the per-operator
/// split comes from outside the engine. Timing is off until enabled; off,
/// it is a plain forwarding layer.
class TimingExecutor : public gdms::core::Executor {
 public:
  explicit TimingExecutor(gdms::core::Executor* inner) : inner_(inner) {}

  gdms::Result<gdms::gdm::Dataset> Execute(
      const gdms::core::PlanNode& node,
      const std::vector<const gdms::gdm::Dataset*>& inputs) override;

  gdms::core::ExecutorStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  void set_columnar(bool on) override { inner_->set_columnar(on); }
  bool columnar() const override { return inner_->columnar(); }

  struct OpTiming {
    double ms = 0;
    uint64_t out_regions = 0;
  };

  void set_timing(bool on) { timing_ = on; }
  /// Per-bucket figures accumulated since the last TakeTimings.
  std::map<std::string, OpTiming> TakeTimings();

 private:
  gdms::core::Executor* inner_;
  bool timing_ = false;
  std::map<std::string, OpTiming> timings_;
};

/// Engine stage times of one traced program, folded from the stage spans
/// the parallel engine records into RunStats::profile while the global
/// tracer is on. Keys are "<bucket>.compute_ms", "<bucket>.assemble_ms"
/// and "queue_wait_ms" (sum over stages of the mean task start delay).
std::map<std::string, double> FoldStageSpans(const gdms::core::RunStats& stats);

/// Bucket of an operator name as the runner's byte accounting and spans
/// spell it ("MAP", "MAP+SELECT", ...).
std::string BucketOfOpName(const std::string& op_name);

/// Metric catalogs in emission order: (name, unit). The end-to-end list is
/// what an untraced run reports, the per-layer list what a traced run
/// reports; BENCHMARK.json declares the same names.
using MetricList = std::vector<std::pair<std::string, std::string>>;
const MetricList& EndToEndMetrics();
const MetricList& PerLayerMetrics();

/// Adds every metric of `list` to `report`, taking values from `values`
/// (0 for a metric the workload does not exercise).
void EmitAll(const MetricList& list, const std::map<std::string, double>& values,
             Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
