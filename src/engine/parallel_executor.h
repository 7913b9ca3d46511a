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

/// Partitioning needs no knob: every partitioned operator splits work by
/// the columns' per-chromosome chunk directories.
struct EngineOptions {
  /// Worker threads; 0 = hardware concurrency.
  size_t threads = 0;
  BackendKind backend = BackendKind::kPipelined;
};

/// Accumulated execution accounting (reset per program via ResetStats()). Counters are incremented with relaxed atomics: they are
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
  /// Compute tasks that ran through a columnar batch kernel: every MAP,
  /// JOIN and DIFFERENCE task, and every COVER profile task (one per
  /// partition, on both backends). MD(k) JOIN runs per pair, off this
  /// count.
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
/// EXTEND) inside the producer's output stage — the intermediate dataset
/// between the logical operators is never allocated. Every operator body
/// has one kernel and one output stage (EmitStage, the one place the fused
/// tail is bound and applied). The backend (BackendKind) is chosen in one
/// place, RunPartitionStages: MAP, JOIN and COVER list the same input
/// slices and run the same kernels on both backends, and the materialized
/// backend only adds the shuffle round trip in front of the kernel. Every
/// partition is cut from the columns' chromosome chunk directories, and
/// every kernel sweeps coordinate columns: MAP and JOIN per (pair x
/// chromosome on both sides), with one partition builder
/// (AppendChunkPartitions) and one sweep (interval::CollectOverlaps, JOIN
/// with its distance window); DIFFERENCE per (left sample x chromosome);
/// COVER, for every variant and aggregate, merges the members' sorted chunk
/// columns per (group x chromosome) and computes from the merged
/// coordinates.
/// Results are sample-for-sample equal to the ReferenceExecutor — the
/// engine tests assert exactly that.
class ParallelExecutor : public core::Executor {
 public:
  explicit ParallelExecutor(EngineOptions options = {});

  Result<gdm::Dataset> Execute(
      const core::PlanNode& node,
      const std::vector<const gdm::Dataset*>& inputs) override;

  const EngineTrace& trace() const { return trace_; }

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
  /// Rows [begin, end) of a region store: one input of a partition.
  struct Slice {
    const gdm::RegionStore* store;
    size_t begin;
    size_t end;
  };
  /// Appends partition `pi`'s input slices to `out`, in a fixed order.
  using SliceLister = std::function<void(size_t pi, std::vector<Slice>* out)>;
  /// Computes partition `pi` from its input slices, in SliceLister order.
  using PartitionKernel =
      std::function<void(size_t pi, const std::vector<Slice>& in)>;

  /// Operator dispatch (the switch); Execute wraps it to publish counter
  /// deltas into the metrics registry.
  Result<gdm::Dataset> ExecuteOp(
      const core::PlanNode& node,
      const std::vector<const gdm::Dataset*>& inputs);

  /// Runs one parallel stage: counts `n` tasks into the trace and, when the
  /// global tracer is enabled, wraps the loop in a "stage" span carrying
  /// task count, mean queue wait, and per-partition min/median/max duration
  /// (the skew figures), under the caller's operator span. Disabled-tracer
  /// fast path is one relaxed load. Each task runs under the caller's
  /// gdm::QueryContext.
  void RunStage(const char* name, size_t n,
                const std::function<void(size_t)>& task);

  /// The one place the backend is chosen: the stage boundary for the
  /// kernels of MAP, JOIN and COVER, and the engine's only shuffle codec
  /// site, over `n` partitions whose inputs `slices` lists: MAP and JOIN
  /// list two slices, COVER one per member chunk. Pipelined: one
  /// `compute_stage` runs `kernel` on the listed slices, which point into
  /// the input samples' own stores (listing reads no rows, so a
  /// column-primary sample never builds them, and nothing is copied).
  /// Materialized: `shuffle_stage` encodes the rows of every slice of
  /// every partition, ONE barrier is counted, the buffers are charged to
  /// the caller's query (gdm::QueryContext) while they live, and `compute_stage` decodes each
  /// partition's buffers into stores (first decode error wins) and runs
  /// `kernel` on slices spanning them. Kernels read `store->columns()`, and
  /// JOIN's emission `store->rows()`, the same way on both backends.
  Status RunPartitionStages(const char* shuffle_stage,
                            const char* compute_stage, size_t n,
                            const SliceLister& slices,
                            const PartitionKernel& kernel);

  /// Every operator's output stage, `stage`, over `n` output samples: task
  /// i builds sample i and runs the fused tail of `fused` (none when null)
  /// on it; the samples the tail keeps form the result, in index order. The
  /// tail binds against the producer's `name` and `schema`.
  Result<gdm::Dataset> EmitStage(
      const char* stage, size_t n, const core::PlanNode* fused,
      const char* name, const gdm::RegionSchema& schema,
      const std::function<gdm::Sample(size_t)>& build);

  /// Fused-chain dispatch: the producer's Parallel* overload runs with the
  /// chain's consumer stages bound as a FusedTail.
  Result<gdm::Dataset> ExecuteFused(
      const core::PlanNode& node,
      const std::vector<const gdm::Dataset*>& inputs);

  /// The `fused` parameter, when non-null, is the kFused plan node whose
  /// tail stages EmitStage applies to every finished output sample.
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
