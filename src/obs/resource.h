#ifndef GDMS_OBS_RESOURCE_H_
#define GDMS_OBS_RESOURCE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gdms::obs {

/// \brief Memory & resource accounting (the byte-side companion of the
/// time-side telemetry in metrics/trace).
///
/// Three cooperating pieces:
///
///   - QueryAccounting: one scoped account per running query, carried in
///     the query's gdm::QueryContext (this layer keeps no per-query state).
///     The runner names the operator currently executing; every byte charge
///     lands on that operator, so `peak_bytes`/`alloc_bytes` decompose into a
///     query -> operator -> bytes tree (RunStats, EXPLAIN ANALYZE attrs,
///     the query log's "mem" block, the shell's `.mem` command).
///   - ResourceTracker: the process-wide registry of storage residency.
///     Layers register labeled usage providers (the runner's datasets);
///     the Sampler asks the tracker to refresh the canonical `gdms_mem_*` /
///     `gdms_storage_*` gauges every tick, and process figures (RSS, page
///     faults) ride along from /proc + getrusage.
///   - The shedder: a watermark loop over the same registrations. Under a
///     configured budget the tracker asks registered shed callbacks to
///     evict reclaimable bytes (lazily built columnar caches) in LRU order
///     until usage is back under the low
///     watermark. Eviction only drops caches that rebuild on demand, so
///     query results are bit-identical with or without shedding.

/// Per-operator slice of one query's byte accounting.
struct OpByteStat {
  std::string op;            ///< operator span name ("MAP", "MAP+SELECT", ...)
  uint64_t alloc_bytes = 0;  ///< cumulative bytes charged to the operator
  uint64_t peak_bytes = 0;   ///< high-water of the operator's live bytes
  uint64_t charges = 0;      ///< individual charge events
};

/// \brief Scoped byte account of one query.
///
/// Thread-safe: the runner charges operator outputs from its own thread
/// while engine workers charge shuffle/scratch buffers concurrently; every
/// mutation takes the account's mutex (charges are per-buffer, not
/// per-region, so the lock is far off any hot loop).
class QueryAccounting {
 public:
  QueryAccounting() = default;
  QueryAccounting(const QueryAccounting&) = delete;
  QueryAccounting& operator=(const QueryAccounting&) = delete;

  /// Names the operator subsequent charges attribute to. The runner sets
  /// this around each Execute; "query" before the first operator.
  void SetCurrentOp(const std::string& op);

  /// Charges `bytes` to the current operator. The bytes stay live (counted
  /// in current/peak) until Release or Drain.
  void Charge(uint64_t bytes);

  /// Charges `bytes` to an explicit operator (scoped charges captured on
  /// one thread and released on another keep their attribution).
  void ChargeTo(const std::string& op, uint64_t bytes);

  /// Returns `bytes` of operator `op` to the pool (live-byte bookkeeping;
  /// alloc figures are cumulative and never decrease).
  void ReleaseFrom(const std::string& op, uint64_t bytes);

  /// Drops all remaining live bytes (query finished; its intermediates are
  /// about to be destroyed with the memo table).
  void Drain();

  uint64_t alloc_bytes() const;    ///< cumulative bytes charged
  uint64_t peak_bytes() const;     ///< high-water of live bytes
  uint64_t current_bytes() const;  ///< live bytes right now
  std::string current_op() const;

  /// Per-operator breakdown, largest alloc first.
  std::vector<OpByteStat> OperatorStats() const;

  /// Human-readable query -> operator -> bytes tree (the `.mem` command).
  std::string RenderTree(const std::string& query_label) const;

 private:
  mutable std::mutex mu_;
  std::string current_op_ = "query";
  std::map<std::string, OpByteStat> ops_;
  std::map<std::string, uint64_t> op_live_;
  uint64_t alloc_ = 0;
  uint64_t current_ = 0;
  uint64_t peak_ = 0;
};

/// RAII transient charge against a query's account: bytes a stage allocates
/// and frees within one operator (shuffle buffers). The operator
/// attribution is captured at construction so destruction may run after the
/// runner moved on. No-op without an account.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  ScopedCharge(std::shared_ptr<QueryAccounting> account, uint64_t bytes);
  ~ScopedCharge() { Release(); }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;
  ScopedCharge(ScopedCharge&& other) noexcept { *this = std::move(other); }
  ScopedCharge& operator=(ScopedCharge&& other) noexcept;

  /// Releases early (idempotent).
  void Release();

 private:
  std::shared_ptr<QueryAccounting> account_;
  std::string op_;
  uint64_t bytes_ = 0;
};

/// Storage residency figures one registration reports. Rows are the
/// irreducible resident form; columnar bytes are the reclaimable overlay
/// the shedder may drop.
struct StorageUsage {
  uint64_t rows_bytes = 0;      ///< row structs + metadata (resident)
  uint64_t columnar_bytes = 0;  ///< lazily built columnar caches
};

/// Process-level memory figures (zeros on non-Linux platforms).
struct ProcessMemory {
  uint64_t rss_bytes = 0;
  uint64_t vm_bytes = 0;
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
};

/// Reads /proc/self/statm and getrusage(RUSAGE_SELF).
ProcessMemory ReadProcessMemory();

/// \brief Process-wide resource accounting registry; one per process via
/// Global().
class ResourceTracker {
 public:
  /// Reports current usage; called from the sampler thread and the shedder,
  /// concurrently with queries, so providers must only read atomically
  /// published state (cache pointers, sizes).
  using UsageFn = std::function<StorageUsage()>;
  /// Evicts up to `want_bytes` of reclaimable bytes, returns bytes freed.
  using ShedFn = std::function<uint64_t(uint64_t want_bytes)>;

  ResourceTracker() = default;
  ResourceTracker(const ResourceTracker&) = delete;
  ResourceTracker& operator=(const ResourceTracker&) = delete;

  static ResourceTracker& Global();

  /// Runtime kill switch for byte accounting (the A3 accounting gate
  /// A/Bs against this). Enabled by default; when off, the runner skips
  /// per-operator charges and estimates entirely.
  void set_accounting_enabled(bool on) {
    accounting_enabled_.store(on, std::memory_order_relaxed);
  }
  bool accounting_enabled() const {
    return accounting_enabled_.load(std::memory_order_relaxed);
  }

  // ---- storage residency registrations ----

  /// Registers a labeled usage provider (and optional shed callback);
  /// returns a token for Touch/Unregister. Labels feed the per-dataset
  /// gauges: gdms_storage_dataset_*_bytes{dataset="<label>"}.
  uint64_t RegisterStorage(const std::string& label, UsageFn usage,
                           ShedFn shed = nullptr);

  /// Drops the registration and zeroes its gauges.
  void UnregisterStorage(uint64_t token);

  /// LRU bump: the registration's storage was just used by a query.
  void Touch(uint64_t token);

  // ---- budget & shedding ----

  /// Memory budget over reclaimable bytes (columnar caches); 0 disables
  /// shedding.
  void set_budget_bytes(uint64_t bytes);
  uint64_t budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
  }

  /// One watermark pass: when reclaimable usage exceeds the budget, asks
  /// shed callbacks, least-recently-touched registration first, to evict
  /// down to the low watermark (90% of budget). Returns bytes freed.
  /// Callers run this between queries — eviction invalidates caches other
  /// threads must not be holding references into.
  uint64_t MaybeShed();

  /// Reclaimable bytes (columnar caches) right now.
  uint64_t ReclaimableBytes() const;

  /// Refreshes every gdms_mem_* / gdms_storage_* gauge from the providers
  /// and /proc; the Sampler calls this before each snapshot so the series
  /// and exposition stay current without any push traffic from data paths.
  void UpdateGauges();

  /// Storage residency summary, one line per registration (the `.mem`
  /// command's lower half).
  std::string RenderStorageSummary() const;

  // Shedding counters (tests read these; the exposition carries the
  // matching gdms_mem_* metrics).
  uint64_t evictions() const;
  uint64_t evicted_bytes() const;

  /// Records one finished query's peak bytes into the
  /// gdms_mem_query_peak_bytes histogram.
  void NoteQueryPeak(uint64_t peak_bytes);

 private:
  struct Registration {
    std::string label;
    UsageFn usage;
    ShedFn shed;
    uint64_t last_touch = 0;
  };

  std::atomic<bool> accounting_enabled_{true};
  std::atomic<uint64_t> budget_{0};
  std::atomic<uint64_t> touch_clock_{0};

  mutable std::mutex mu_;  ///< guards registrations_ structure
  std::map<uint64_t, Registration> registrations_;
  uint64_t next_token_ = 1;

  // Previous fault readings, for counter deltas.
  std::mutex fault_mu_;
  uint64_t prev_minor_faults_ = 0;
  uint64_t prev_major_faults_ = 0;
  bool have_prev_faults_ = false;
};

}  // namespace gdms::obs

#endif  // GDMS_OBS_RESOURCE_H_
