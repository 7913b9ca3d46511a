#ifndef GDMS_OBS_TRACE_H_
#define GDMS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gdms::obs {

/// One finished span: a named, timed slice of a query with numeric
/// attributes. Parent links form the profile tree (0 = root).
///
/// `origin` namespaces the id: every tracer mints ids from its own
/// process-local counter, so spans merged from multiple tracers (remote
/// sites, per-node tracers in tests) collide on bare ids. Identity is the
/// (origin, id) pair; parent links are resolved within the same origin.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;      ///< e.g. "MAP", "map:compute", "site:node_a"
  /// "query" | "operator" | "stage" | "federation" | "search"
  std::string category;
  int64_t start_ns = 0;  ///< steady time since the tracer epoch
  int64_t duration_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;
  /// Tracer origin tag: span identity is (origin, id) in merged span sets,
  /// and parent links resolve within the same origin. 0 = this process's
  /// default tracer.
  uint64_t origin = 0;
};

/// Per-partition duration spread of one parallel stage.
struct SkewStats {
  int64_t min_ns = 0;
  int64_t median_ns = 0;
  int64_t max_ns = 0;
  double mean_ns = 0;
};

/// min/median/max/mean of a stage's per-task durations (the skew figures
/// attached to stage spans). Zeros when empty.
SkewStats ComputeSkew(std::vector<int64_t> durations_ns);

class Tracer;

/// \brief Movable handle for an in-flight span.
///
/// Inactive (all methods no-ops) when the tracer was disabled at StartSpan
/// time, so call sites stay unconditional. The record is assembled locally
/// and only touches the tracer (one mutex-guarded append) at End/destruction.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      tracer_ = other.tracer_;
      rec_ = std::move(other.rec_);
      other.tracer_ = nullptr;
    }
    return *this;
  }
  ~Span() { End(); }

  bool active() const { return tracer_ != nullptr; }
  /// 0 when inactive — safe to pass as a parent id.
  uint64_t id() const { return active() ? rec_.id : 0; }

  void AddAttr(const char* key, double value) {
    if (active()) rec_.attrs.emplace_back(key, value);
  }

  /// Stamps the duration and hands the record to the tracer; idempotent.
  void End();

 private:
  friend class Tracer;
  Tracer* tracer_ = nullptr;
  SpanRecord rec_;
};

/// \brief Low-overhead span collector; one per process via Global().
///
/// Compiled-in but runtime-toggleable: when disabled (the default),
/// StartSpan is a relaxed atomic load returning an inactive handle — the
/// no-op fast path every instrumentation site rides. When enabled, finished
/// spans accumulate (bounded) until a caller collects them.
///
/// The tracer holds no per-query state: callers name each span's parent.
/// Layers below the query runner (engine stages, federation hops, metadata
/// searches) take it from the calling thread's gdm::QueryContext, where the
/// runner puts the span of the operator it is executing, so concurrent
/// queries never parent under each other's operators.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& Global();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Origin tag stamped on every span this tracer starts. Distinct per
  /// tracer instance when span sets are merged across tracers (the global
  /// tracer keeps the default 0).
  void set_origin(uint64_t origin) {
    origin_.store(origin, std::memory_order_relaxed);
  }
  uint64_t origin() const { return origin_.load(std::memory_order_relaxed); }

  /// Starts a span under `parent` (0 = root). Inactive handle when disabled.
  Span StartSpan(std::string name, const char* category, uint64_t parent);

  /// Nanoseconds since the tracer epoch.
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Copies the finished spans reachable from `root_id` (inclusive),
  /// leaving the buffer untouched — per-query collection under a
  /// process-wide tracer.
  std::vector<SpanRecord> Collect(uint64_t root_id) const;

  /// Removes and returns every finished span (whole-process export).
  std::vector<SpanRecord> TakeAll();

  void Clear();
  size_t pending() const;
  /// Spans discarded because the buffer was full.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Buffer bound; beyond it spans are dropped and counted, not grown —
  /// a long-lived process with tracing left on must not grow unbounded.
  static constexpr size_t kMaxSpans = 1 << 20;

 private:
  friend class Span;
  void Finish(SpanRecord rec);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> origin_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> done_;
};

}  // namespace gdms::obs

#endif  // GDMS_OBS_TRACE_H_
