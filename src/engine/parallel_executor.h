#ifndef GDMS_ENGINE_PARALLEL_EXECUTOR_H_
#define GDMS_ENGINE_PARALLEL_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/operators.h"
#include "engine/task_graph.h"

namespace gdms::engine {

/// Execution style of the data-parallel operators (paper Section 4.2 /
/// ref. [10]: the Flink-vs-Spark comparison).
enum class BackendKind {
  /// Spark-like: stage barriers; partitions are serialized through a
  /// shuffle codec between the partitioning stage and the compute stage.
  kMaterialized,
  /// Flink-like: per-partition work streams straight from the input with
  /// no intermediate materialization and no global barrier.
  kPipelined,
};

const char* BackendKindName(BackendKind kind);

struct EngineOptions {
  /// Worker threads; 0 = hardware concurrency.
  size_t threads = 0;
  /// Genomic bin width for range-partitioning within a chromosome.
  int64_t bin_size = 5000000;
  BackendKind backend = BackendKind::kPipelined;
};

/// Accumulated execution accounting (reset per Execute call chain via
/// ResetTrace). Counters are incremented with relaxed atomics: they are
/// independent tallies read after the pool has quiesced, so no ordering is
/// required.
///
/// EngineTrace is the executor-local shard of the process-wide telemetry:
/// Execute() publishes each operator's counter deltas into the
/// obs::MetricsRegistry ("engine.tasks" etc.), so registry readers see
/// process totals while per-run readers (benches, RunStats) keep exact
/// per-executor figures through stats()/ResetStats().
struct EngineTrace {
  std::atomic<uint64_t> tasks{0};
  std::atomic<uint64_t> partitions{0};
  std::atomic<uint64_t> shuffle_bytes{0};
  std::atomic<uint64_t> stage_barriers{0};
  /// Compute tasks that ran through a columnar batch kernel instead of a
  /// row sweep: every MAP and DIFFERENCE task, and every COVER profile
  /// task (one per partition, on both backends). JOIN sweeps rows.
  std::atomic<uint64_t> columnar_tasks{0};

  void Reset() {
    tasks.store(0, std::memory_order_relaxed);
    partitions.store(0, std::memory_order_relaxed);
    shuffle_bytes.store(0, std::memory_order_relaxed);
    stage_barriers.store(0, std::memory_order_relaxed);
    columnar_tasks.store(0, std::memory_order_relaxed);
  }
};

/// \brief Data-parallel GMQL executor over a thread pool.
///
/// SELECT, MAP, JOIN, DIFFERENCE and COVER are parallelized by
/// (sample-pair x genomic partition); every other operator delegates to the
/// sequential reference implementation (they are metadata-bound and cheap).
/// Each operator runs its full pair x partition cross product as one flat
/// task list per stage, and fused plan nodes (kFused) pipe each finished
/// sample straight through the chain's consumer stages (SELECT / PROJECT /
/// EXTEND) inside the producer's assembly tasks — the intermediate dataset
/// between the logical operators is never allocated. The backend choice
/// (BackendKind) is one call per operator: MAP, JOIN and COVER hand their
/// partitions to RunPartitionStages, which either computes them in place or
/// routes them through the shuffle codec behind one barrier. MAP and
/// DIFFERENCE each have one kernel, a batch sweep over coordinate columns;
/// COVER has one path for every variant and aggregate: per (group x
/// chromosome) it merges the members' sorted chunk columns and computes
/// from the merged coordinates.
/// Results are sample-for-sample equal to the ReferenceExecutor — the
/// engine tests assert exactly that.
class ParallelExecutor : public core::Executor {
 public:
  explicit ParallelExecutor(EngineOptions options = {});

  Result<gdm::Dataset> Execute(
      const core::PlanNode& node,
      const std::vector<const gdm::Dataset*>& inputs) override;

  const EngineTrace& trace() const { return trace_; }
  void ResetTrace() { trace_.Reset(); }

  core::ExecutorStats stats() const override {
    return {trace_.tasks.load(std::memory_order_relaxed),
            trace_.partitions.load(std::memory_order_relaxed),
            trace_.shuffle_bytes.load(std::memory_order_relaxed),
            trace_.stage_barriers.load(std::memory_order_relaxed)};
  }
  void ResetStats() override { trace_.Reset(); }

  const EngineOptions& options() const { return options_; }

 private:
  using Partition = TaskPartition;
  using Regions = std::vector<gdm::GenomicRegion>;
  /// Rows [begin, end) of a region list: one input of a partition.
  struct RowSlice {
    const Regions* rows;
    size_t begin;
    size_t end;
  };
  /// Appends partition `pi`'s input slices to `out`, in a fixed order.
  using SliceLister =
      std::function<void(size_t pi, std::vector<RowSlice>* out)>;
  /// Computes partition `pi`. `decoded` holds the decoded copies of the
  /// partition's slices, in SliceLister order, on the materialized backend;
  /// it is null on the pipelined one, where the kernel reads its samples'
  /// own storage (columns, or rows where it needs them).
  using PartitionKernel =
      std::function<void(size_t pi, const std::vector<Regions>* decoded)>;

  /// Operator dispatch (the switch); Execute wraps it to publish counter
  /// deltas into the metrics registry.
  Result<gdm::Dataset> ExecuteOp(
      const core::PlanNode& node,
      const std::vector<const gdm::Dataset*>& inputs);

  /// Runs one parallel stage: counts `n` tasks into the trace and, when the
  /// global tracer is enabled, wraps the loop in a "stage" span carrying
  /// task count, mean queue wait, and per-partition min/median/max duration
  /// (the skew figures). Disabled-tracer fast path is one relaxed load.
  /// Each task runs under the caller's gdm::AttrReadLog.
  void RunStage(const char* name, size_t n,
                const std::function<void(size_t)>& task);

  /// The backend's stage boundary for the kernels of MAP, JOIN and COVER,
  /// and the engine's only shuffle codec site, over `n` partitions whose
  /// inputs `slices` lists: MAP and JOIN list two slices, COVER one per
  /// member chunk. Pipelined: one `compute_stage` runs `kernel` with no
  /// decoded slices, and `slices` is never called (so a columnar kernel
  /// never makes a sample build its rows, and no partition allocates).
  /// Materialized: `shuffle_stage` encodes every slice of every partition,
  /// ONE barrier is counted, the buffers are charged to the active query
  /// while they live, and `compute_stage` decodes each partition's slices
  /// (first decode error wins) and runs `kernel` on the copies.
  Status RunPartitionStages(const char* shuffle_stage,
                            const char* compute_stage, size_t n,
                            const SliceLister& slices,
                            const PartitionKernel& kernel);

  /// Fused-chain dispatch: the producer's Parallel* overload runs with the
  /// chain's consumer stages bound as a FusedTail.
  Result<gdm::Dataset> ExecuteFused(
      const core::PlanNode& node,
      const std::vector<const gdm::Dataset*>& inputs);

  /// The `fused` parameter, when non-null, is the kFused plan node whose
  /// tail stages must be applied to every finished output sample; each
  /// operator binds the tail against its own output schema.
  Result<gdm::Dataset> ParallelSelect(const core::SelectParams& params,
                                      const gdm::Dataset& in,
                                      const core::PlanNode* fused = nullptr);
  Result<gdm::Dataset> ParallelDifference(
      const core::DifferenceParams& params, const gdm::Dataset& left,
      const gdm::Dataset& right, const core::PlanNode* fused = nullptr);
  Result<gdm::Dataset> ParallelMap(const core::MapParams& params,
                                   const gdm::Dataset& ref,
                                   const gdm::Dataset& exp,
                                   const core::PlanNode* fused = nullptr);
  Result<gdm::Dataset> ParallelJoin(const core::JoinParams& params,
                                    const gdm::Dataset& left,
                                    const gdm::Dataset& right,
                                    const core::PlanNode* fused = nullptr);
  Result<gdm::Dataset> ParallelCover(const core::CoverParams& params,
                                     const gdm::Dataset& in,
                                     const core::PlanNode* fused = nullptr);

  EngineOptions options_;
  ThreadPool pool_;
  core::ReferenceExecutor fallback_;
  EngineTrace trace_;
};

}  // namespace gdms::engine

#endif  // GDMS_ENGINE_PARALLEL_EXECUTOR_H_
