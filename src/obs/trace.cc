#include "obs/trace.h"

#include <algorithm>

namespace gdms::obs {

SkewStats ComputeSkew(std::vector<int64_t> durations_ns) {
  SkewStats out;
  if (durations_ns.empty()) return out;
  std::sort(durations_ns.begin(), durations_ns.end());
  out.min_ns = durations_ns.front();
  out.max_ns = durations_ns.back();
  out.median_ns = durations_ns[durations_ns.size() / 2];
  int64_t sum = 0;
  for (int64_t d : durations_ns) sum += d;
  out.mean_ns =
      static_cast<double>(sum) / static_cast<double>(durations_ns.size());
  return out;
}

void Span::End() {
  if (!active()) return;
  SpanSink* sink = sink_;
  sink_ = nullptr;
  rec_.duration_ns = tracer_->NowNs() - rec_.start_ns;
  sink->Add(std::move(rec_));
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Span Tracer::StartSpan(std::string name, const char* category,
                       uint64_t parent, SpanSink* sink) {
  Span span;
  if (sink == nullptr || !enabled()) return span;
  span.tracer_ = this;
  span.sink_ = sink;
  span.rec_.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.rec_.parent = parent;
  span.rec_.name = std::move(name);
  span.rec_.category = category;
  span.rec_.start_ns = NowNs();
  return span;
}

}  // namespace gdms::obs
