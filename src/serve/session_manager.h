#ifndef GDMS_SERVE_SESSION_MANAGER_H_
#define GDMS_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/runner.h"
#include "obs/dtrace.h"
#include "serve/plan_cache.h"
#include "serve/result_cache.h"
#include "serve/serve_catalog.h"

namespace gdms::serve {

/// Session manager knobs (the shell's --workers / --queue-limit /
/// --deadline-ms flags).
struct ServeOptions {
  /// Concurrent query sessions (worker threads in the admission pool).
  size_t workers = 4;
  /// Admitted-but-not-finished queries beyond which Submit fast-fails with
  /// Unavailable (backpressure instead of unbounded queueing).
  size_t queue_limit = 64;
  /// Default per-query deadline, applied to queue wait: a query still
  /// queued when its deadline passes is answered DeadlineExceeded without
  /// executing (load shedding). 0 = none. Submit can override per query.
  double default_deadline_ms = 0;
  /// Intra-query engine threads per worker (each worker owns a private
  /// parallel executor). 0 = sequential reference executor. Keep small:
  /// inter-query concurrency comes from `workers`.
  size_t engine_threads = 1;
  /// Byte cap of the result cache; 0 disables result caching entirely.
  uint64_t result_cache_bytes = 256ull << 20;
  /// Optimization applied once at plan-prepare time; cached programs are
  /// executed as-is (workers run with optimize/fusion off — both already
  /// happened — so shared plan nodes are never mutated).
  core::ExecOptions exec;
  /// Tail-based trace retention threshold: a traced query whose total time
  /// reaches this many milliseconds is kept in the exemplar ring
  /// ("slow"); errors and queue-sheds are always kept. <= 0 disables the
  /// slow criterion (errors/sheds are still retained).
  double trace_slow_ms = 250.0;
};

/// Everything one finished (or refused) query reports back.
struct ServeResponse {
  uint64_t id = 0;
  Status status;
  /// Materialized outputs by name; shared with the result cache (zero-copy
  /// hits), alive as long as the caller holds it. Null on error.
  ResultCache::Results results;
  /// Engine stats of the actual run; zeros on a result-cache hit.
  core::RunStats stats;
  double queue_ms = 0;
  double exec_ms = 0;
  double total_ms = 0;
  /// "hit" | "rebind" | "miss" ("" when the query failed normalization).
  const char* plan_cache = "";
  bool result_cache_hit = false;
  uint64_t worker = 0;
  /// The query's serve-path trace: admission queue, plan cache, result
  /// cache / engine spans in wall microseconds since admission, with the
  /// critical-path extractable via obs::CriticalPath. Present for every
  /// admitted query — including shed ones, whose minimal trace is the
  /// root plus the queue-wait span. Null only for rejected submissions.
  std::shared_ptr<const obs::DistTrace> trace;
};

/// \brief The server core: admission control + N concurrent sessions over
/// the shared catalog.
///
/// Flow per query: admission (bounded queue, fast Unavailable on overflow)
/// -> deadline check at dequeue (expired-in-queue queries are shed, never
/// executed) -> plan cache (normalize, hit/rebind/prepare) -> result cache
/// keyed on (plan signature, pinned dataset versions) -> execute on the
/// worker's private runner/executor against the pinned catalog snapshots
/// -> result cache fill -> response callback (exactly one per admitted
/// query; rejected queries get their status from Submit instead).
///
/// Shedding: worker runners never shed mid-flight; when the pool quiesces
/// (no job holds the execution gate) the manager runs one
/// ResourceTracker::MaybeShed() pass, so PR 7's budget covers the serve
/// path — including cached results — without racing readers.
class SessionManager {
 public:
  using ResponseFn = std::function<void(const ServeResponse&)>;

  SessionManager(ServeCatalog* catalog, ServeOptions options = {});
  ~SessionManager();
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admits `gmql` and returns its query id, or Unavailable when the queue
  /// is full (fast, never blocks on capacity). `done` runs exactly once on
  /// a pool thread with the response. `deadline_ms` < 0 uses the default;
  /// 0 means no deadline.
  Result<uint64_t> Submit(std::string gmql, ResponseFn done,
                          double deadline_ms = -1);

  /// Synchronous convenience: Submit + wait. A rejected query returns the
  /// rejection status in the response (id 0).
  ServeResponse Execute(const std::string& gmql, double deadline_ms = -1);

  /// Blocks until every admitted query has responded.
  void Drain();

  struct Stats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;  ///< responded ok
    uint64_t failed = 0;     ///< responded with an error
    uint64_t deadline_exceeded = 0;
    size_t active = 0;  ///< executing right now
    size_t queued = 0;  ///< admitted, not yet executing
  };
  Stats stats() const;

  PlanCache& plan_cache() { return plan_cache_; }
  ResultCache& result_cache() { return result_cache_; }
  ServeCatalog& catalog() { return *catalog_; }
  const ServeOptions& options() const { return options_; }

  /// Human-readable status (the `.sessions` command): pool occupancy,
  /// admit/reject/latency figures.
  std::string RenderSessions() const;

 private:
  /// Per-worker execution context: a private executor + runner so RunStats,
  /// executor counters and source pins never interleave across sessions.
  struct WorkerContext {
    uint64_t id = 0;
    std::unique_ptr<core::Executor> executor;
    std::unique_ptr<core::QueryRunner> runner;
  };

  struct Job {
    uint64_t id = 0;
    std::string gmql;
    ResponseFn done;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    /// Minted at admission; every layer the query crosses hangs its spans
    /// off this one identity.
    obs::TraceContext trace;
  };

  void RunJob(Job* job);
  WorkerContext* AcquireContext();
  void ReleaseContext(WorkerContext* ctx);
  Result<PlanCache::Prepared> Prepare(const std::string& text) const;
  void TryQuiesceShed();

  ServeCatalog* catalog_;
  const ServeOptions options_;
  PlanCache plan_cache_;
  ResultCache result_cache_;

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<size_t> queued_{0};
  std::atomic<size_t> active_{0};

  std::mutex ctx_mu_;
  std::vector<std::unique_ptr<WorkerContext>> contexts_;
  std::vector<WorkerContext*> free_contexts_;

  /// Execution gate: jobs hold it shared while touching datasets/caches;
  /// the quiesce shedder try-locks it exclusively, so shedding can never
  /// race an in-flight reader.
  std::shared_mutex exec_gate_;

  /// Last member: destroyed first, so pool threads stop before the
  /// contexts/caches they use go away.
  gdms::ThreadPool pool_;
};

}  // namespace gdms::serve

#endif  // GDMS_SERVE_SESSION_MANAGER_H_
