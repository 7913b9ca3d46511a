#ifndef GDMS_OBS_QUERY_LOG_H_
#define GDMS_OBS_QUERY_LOG_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/dtrace.h"
#include "obs/profile.h"

namespace gdms::obs {

/// Everything the query log records about one query. Producers fill the
/// raw figures (core::MakeQueryLogEntry does this from RunStats); the log
/// derives per-operator self-times and queue-wait/skew aggregates from the
/// attached profile at write time.
struct QueryLogEntry {
  std::string query;  ///< GMQL text (truncated to options.max_query_chars)
  bool ok = true;
  std::string error;  ///< status text when !ok
  double wall_ms = 0;
  uint64_t operators = 0;
  uint64_t cache_hits = 0;
  uint64_t intermediate_datasets = 0;
  uint64_t fused_chains = 0;
  // Flat-scheduler figures for the query.
  uint64_t tasks = 0;
  uint64_t partitions = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t stage_barriers = 0;
  // Federation protocol deltas of a federated query (the shell's `.fed`
  // takes them from its Coordinator's counters); zero for a local query.
  uint64_t fed_requests = 0;
  uint64_t fed_bytes_shipped = 0;
  uint64_t fed_bytes_received = 0;
  // Byte accounting of the query (zeros when accounting is disabled).
  uint64_t alloc_bytes = 0;
  uint64_t peak_bytes = 0;
  // Serve-path figures (gdms_shell --workers). `serve` switches the block
  // on; plan_cache is one of "hit"/"rebind"/"miss" and result_cache_hit
  // marks a query answered straight from the result cache.
  bool serve = false;
  uint64_t session_id = 0;
  double queue_ms = 0;
  std::string plan_cache;
  bool result_cache_hit = false;
  /// Span tree of the query when tracing was on; null otherwise. Source of
  /// the per-operator self-times, the queue-wait/skew aggregates, and the
  /// slow-query EXPLAIN ANALYZE capture.
  std::shared_ptr<const Profile> profile;
  /// Distributed-trace linkage: the hex trace id (empty when untraced) and
  /// the critical-path attribution of the end-to-end time. Emitted as
  /// "trace_id" and "critical_path" fields when present.
  std::string trace_id;
  std::vector<PathSegment> critical_path;
};

struct QueryLogOptions {
  std::string path;  ///< JSONL sink, appended to
  /// Queries at or above this wall time escalate: the full EXPLAIN ANALYZE
  /// tree is embedded in the entry (field "explain"). <= 0 escalates every
  /// query.
  double slow_ms = 250.0;
  size_t max_query_chars = 4000;
};

/// \brief Structured JSONL query log.
///
/// One JSON object per line per query:
///
///   {"ts_ms":..., "seq":1, "query":"...", "ok":true, "wall_ms":12.4,
///    "operators":5, "cache_hits":0, "intermediate_datasets":2,
///    "fused_chains":1, "tasks":96, "partitions":96, "shuffle_bytes":0,
///    "stage_barriers":4, "queue_wait_mean_us":1.9, "part_max_us":344.0,
///    "skew":1.6, "fed":{"requests":0,"bytes_shipped":0,
///    "bytes_received":0}, "mem":{"alloc_bytes":52000,"peak_bytes":26000},
///    "ops":[{"op":"MAP","total_ms":9.1,
///    "self_ms":3.0}, ...], "slow":false}
///
/// Entries whose wall time reaches options.slow_ms additionally carry
/// "explain": the rendered EXPLAIN ANALYZE tree (requires an attached
/// profile, i.e. tracing on). Thread-safe; every line is flushed so a
/// concurrent scraper sees complete records.
class QueryLog {
 public:
  explicit QueryLog(QueryLogOptions options);

  /// False when the sink could not be opened; Record becomes a no-op.
  bool ok() const { return out_ != nullptr && out_->good(); }

  const QueryLogOptions& options() const { return options_; }

  void Record(const QueryLogEntry& entry);

  uint64_t entries() const { return entries_; }
  uint64_t slow_entries() const { return slow_entries_; }

  /// The JSON line Record would write (exposed for tests; no I/O).
  std::string FormatEntry(const QueryLogEntry& entry, uint64_t seq) const;

 private:
  QueryLogOptions options_;
  std::unique_ptr<std::ofstream> out_;
  mutable std::mutex mu_;
  uint64_t entries_ = 0;
  uint64_t slow_entries_ = 0;
};

}  // namespace gdms::obs

#endif  // GDMS_OBS_QUERY_LOG_H_
