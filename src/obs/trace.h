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
/// attributes. Parent links form the profile tree (0 = root); ids come from
/// one process-wide counter, so they are unique across queries.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;      ///< e.g. "MAP", "map:compute", "site:node_a"
  /// "query" | "operator" | "stage" | "federation" | "search"
  std::string category;
  int64_t start_ns = 0;  ///< steady time since the tracer epoch
  int64_t duration_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;
  /// Always 0. Kept only because the repository benchmark still reads it.
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

/// \brief The finished spans of one query.
///
/// QueryRunner::RunProgram owns one per traced query and carries it in the
/// query's gdm::QueryContext; every span of the query ends into it, from
/// whichever thread, and the runner takes them for the profile. It must
/// outlive every span started with it.
class SpanSink {
 public:
  void Add(SpanRecord rec) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(rec));
  }

  /// Removes and returns the spans, in the order they ended.
  std::vector<SpanRecord> Take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(spans_, {});
  }

 private:
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

class Tracer;

/// \brief Movable handle for an in-flight span.
///
/// Inactive (all methods no-ops) when the tracer was disabled at StartSpan
/// time or no sink was given, so call sites stay unconditional. The record
/// is assembled locally and only touches its sink (one mutex-guarded
/// append) at End/destruction.
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
      sink_ = other.sink_;
      rec_ = std::move(other.rec_);
      other.sink_ = nullptr;
    }
    return *this;
  }
  ~Span() { End(); }

  bool active() const { return sink_ != nullptr; }
  /// 0 when inactive — safe to pass as a parent id.
  uint64_t id() const { return active() ? rec_.id : 0; }

  void AddAttr(const char* key, double value) {
    if (active()) rec_.attrs.emplace_back(key, value);
  }

  /// Stamps the duration and hands the record to the sink; idempotent.
  void End();

 private:
  friend class Tracer;
  const Tracer* tracer_ = nullptr;
  SpanSink* sink_ = nullptr;
  SpanRecord rec_;
};

/// \brief The span clock and id source; one per process via Global().
///
/// Compiled-in but runtime-toggleable: when disabled (the default),
/// StartSpan is a relaxed atomic load returning an inactive handle — the
/// no-op fast path every instrumentation site rides.
///
/// The tracer holds no spans and no per-query state: each span ends into
/// the sink of its query. Layers below the query runner (engine stages,
/// federation hops, metadata searches) take the sink and the parent span
/// from the calling thread's gdm::QueryContext, so concurrent queries never
/// see each other's spans.
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

  /// Starts a span under `parent` (0 = root) that ends into `sink`.
  /// Inactive handle when disabled or when `sink` is null.
  Span StartSpan(std::string name, const char* category, uint64_t parent,
                 SpanSink* sink);

  /// Nanoseconds since the tracer epoch.
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// No-op: the tracer holds no spans. Kept only because the repository
  /// benchmark still calls it.
  void Clear() {}

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace gdms::obs

#endif  // GDMS_OBS_TRACE_H_
