#ifndef GDMS_CORE_EXECUTOR_H_
#define GDMS_CORE_EXECUTOR_H_

#include <vector>

#include "common/status.h"
#include "core/plan.h"
#include "gdm/dataset.h"

namespace gdms::core {

/// Scheduling counters an executor may expose to the runner; the runner
/// snapshots them into RunStats after every program so callers (benches,
/// the shell) can report task/partition/shuffle figures without knowing the
/// concrete engine.
struct ExecutorStats {
  uint64_t tasks = 0;           ///< worker tasks executed
  uint64_t partitions = 0;      ///< genomic partitions scheduled
  uint64_t shuffle_bytes = 0;   ///< bytes through the shuffle codec
  uint64_t stage_barriers = 0;  ///< global stage barriers
};

/// \brief Strategy interface for evaluating one plan node.
///
/// The runner walks the DAG and hands each non-source node, with its already
/// computed input datasets, to an Executor. The ReferenceExecutor runs the
/// sequential semantics in core/operators.h; the engines in src/engine
/// override the data-parallel operators (paper, Section 4.2: "the two
/// implementations differ only in the encoding of about twenty GMQL language
/// components, while the compiler, logical optimizer, and APIs are
/// independent from the adoption of either framework").
class Executor {
 public:
  virtual ~Executor() = default;

  virtual Result<gdm::Dataset> Execute(
      const PlanNode& node, const std::vector<const gdm::Dataset*>& inputs) = 0;

  /// Scheduling counters accumulated since the last ResetStats; the
  /// sequential reference executor reports zeros.
  virtual ExecutorStats stats() const { return {}; }
  virtual void ResetStats() {}

  /// No-ops, kept only because the benchmark harness's TimingExecutor
  /// (perfbench/src/harness.h) overrides and forwards them. No executor has
  /// a columnar switch any more: the parallel engine's MAP, DIFFERENCE and
  /// COVER pick their kernels from the plan alone.
  virtual void set_columnar(bool /*on*/) {}
  virtual bool columnar() const { return false; }
};

/// Sequential reference executor.
class ReferenceExecutor : public Executor {
 public:
  Result<gdm::Dataset> Execute(
      const PlanNode& node,
      const std::vector<const gdm::Dataset*>& inputs) override;
};

}  // namespace gdms::core

#endif  // GDMS_CORE_EXECUTOR_H_
