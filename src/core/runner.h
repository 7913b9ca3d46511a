#ifndef GDMS_CORE_RUNNER_H_
#define GDMS_CORE_RUNNER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/executor.h"
#include "core/optimizer.h"
#include "core/parser.h"
#include "core/plan.h"
#include "gdm/dataset.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "obs/resource.h"

namespace gdms::core {

/// Knobs of one runner, settable per query batch. Mirrors the shell flags:
/// --no-optimize clears `optimize`, --no-fusion clears `fusion`.
struct ExecOptions {
  bool optimize = true;
  /// Fuse per-partition operator chains (MAP→SELECT, MAP→EXTEND,
  /// SELECT→PROJECT, ...) into single physical nodes so no intermediate
  /// dataset is materialized between them. Disable to A/B against the
  /// unfused plan — results are identical either way.
  bool fusion = true;
};

/// Per-query execution statistics.
struct RunStats {
  size_t operators_evaluated = 0;  ///< nodes executed (memoization excluded)
  size_t cache_hits = 0;           ///< nodes served from the memo table
  /// Operator-result datasets that were NOT a materialized output: the data
  /// movement fusion exists to eliminate. Fused chains materialize one
  /// dataset for the whole chain instead of one per logical operator.
  size_t intermediate_datasets = 0;
  OptimizerStats optimizer;
  FusionStats fusion;
  /// Executor scheduling counters for this program (tasks, partitions,
  /// shuffle bytes, stage barriers); zeros under the reference executor.
  ExecutorStats executor;
  /// Byte accounting of this query (obs::QueryAccounting): cumulative bytes
  /// charged for operator outputs and engine scratch buffers, the
  /// high-water of live bytes, and the per-operator breakdown. Zeros when
  /// ResourceTracker accounting is disabled.
  uint64_t alloc_bytes = 0;
  uint64_t peak_bytes = 0;
  std::vector<obs::OpByteStat> op_bytes;
  double wall_seconds = 0;
  /// The query's span tree — one operator span per evaluated plan node with
  /// engine stage / federation spans nested beneath. Only populated while
  /// obs::Tracer::Global() is enabled; null otherwise.
  std::shared_ptr<const obs::Profile> profile;
};

/// \brief End-to-end GMQL query runner.
///
/// Owns a registry of named source datasets, compiles GMQL text (or accepts
/// prebuilt Programs), optionally optimizes, and evaluates the DAG bottom-up
/// with per-node memoization through a pluggable Executor. Results are the
/// materialized datasets keyed by output name.
class QueryRunner {
 public:
  QueryRunner();
  /// Uses a caller-provided executor (e.g. a parallel engine); the executor
  /// must outlive the runner.
  explicit QueryRunner(Executor* executor);
  ~QueryRunner();
  QueryRunner(const QueryRunner&) = delete;
  QueryRunner& operator=(const QueryRunner&) = delete;
  /// Movable: the tracker callbacks point into sources_ map nodes, whose
  /// addresses survive a move of the map, so registrations stay valid and
  /// ownership of the tokens transfers with them.
  QueryRunner(QueryRunner&& other) noexcept;
  QueryRunner& operator=(QueryRunner&& other) noexcept;

  /// Registers a source dataset under its name (replacing any previous one)
  /// and publishes its storage residency to obs::ResourceTracker — the
  /// per-dataset gauges and the columnar-cache shed callback the memory
  /// budget drives.
  void RegisterDataset(gdm::Dataset dataset);

  /// Access to a registered dataset; nullptr if absent.
  const gdm::Dataset* FindDataset(const std::string& name) const;

  /// Names of all registered datasets.
  std::vector<std::string> DatasetNames() const;

  /// Serve-path hook: resolves source datasets from a shared catalog
  /// (serve::ServeCatalog snapshots) before falling back to the runner's
  /// own registry. Every snapshot the provider returns is pinned until the
  /// running program finishes, so a writer republishing the dataset
  /// mid-query cannot free storage this query is reading. A nullptr result
  /// falls through to RegisterDataset'd sources.
  using SourceProvider =
      std::function<std::shared_ptr<const gdm::Dataset>(const std::string&)>;
  void set_source_provider(SourceProvider provider) {
    provider_ = std::move(provider);
  }

  /// Whether RunProgram ends with a ResourceTracker::MaybeShed() pass
  /// (default on). Shedding is only safe with no query in flight, so the
  /// session manager turns this off on its worker runners and sheds at
  /// global quiesce instead.
  void set_shed_at_quiesce(bool on) { shed_at_quiesce_ = on; }

  void set_exec_options(ExecOptions options) { options_ = options; }

  void set_optimize(bool on) { options_.optimize = on; }
  bool optimize() const { return options_.optimize; }

  void set_fusion(bool on) { options_.fusion = on; }
  bool fusion() const { return options_.fusion; }

  const RunStats& last_stats() const { return stats_; }

  /// Parses, optimizes and runs a GMQL program; returns the materialized
  /// datasets by output name.
  Result<std::map<std::string, gdm::Dataset>> Run(const std::string& gmql_text);

  /// Runs a prebuilt program (it is copied; optimization happens on the
  /// copy when enabled). Once the program has run, fails with a ParseError
  /// when it read a stored attribute whose payload proved corrupt (see
  /// gdm::AttrReadLog) — in an operator, or through an output that still
  /// shares a stored sample, whose attributes are decoded here.
  Result<std::map<std::string, gdm::Dataset>> RunProgram(Program program);

 private:
  Result<const gdm::Dataset*> Evaluate(
      const PlanNode::Ptr& node,
      std::map<const PlanNode*, gdm::Dataset>* memo, uint64_t parent_span);

  /// Source lookup for one running program: the provider first (pinning the
  /// snapshot into pinned_), then the runner's own registry. Records the
  /// dataset in resolved_.
  const gdm::Dataset* ResolveSource(const std::string& name);

  std::unique_ptr<Executor> owned_executor_;
  Executor* executor_;
  std::map<std::string, gdm::Dataset> sources_;
  /// ResourceTracker registration per source dataset (map nodes are
  /// address-stable, so the tracker callbacks point into sources_).
  std::map<std::string, uint64_t> storage_tokens_;
  SourceProvider provider_;
  /// Catalog snapshots resolved by the current RunProgram; cleared when it
  /// returns. Holding them here keeps provider-served datasets alive for
  /// exactly the duration of the query.
  std::vector<std::shared_ptr<const gdm::Dataset>> pinned_;
  /// Every source the current RunProgram resolved, in resolution order
  /// (they name a corrupt attribute the query read).
  std::vector<const gdm::Dataset*> resolved_;
  bool shed_at_quiesce_ = true;
  ExecOptions options_;
  RunStats stats_;
};

/// Builds a query-log entry from one finished Run(): stats figures and the
/// attached profile (per-operator self-times, queue-wait/skew). `error`
/// non-empty marks the entry failed.
obs::QueryLogEntry MakeQueryLogEntry(const std::string& query,
                                     const RunStats& stats,
                                     const std::string& error = "");

}  // namespace gdms::core

#endif  // GDMS_CORE_RUNNER_H_
