#include "repo/federation.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/parser.h"
#include "gdm/query_context.h"
#include "io/gdm_format.h"
#include "io/gdmz.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gdms::repo {

namespace {

/// RAII site-hop telemetry: a "federation" span (nested under the calling
/// thread's query span, gdm::QueryContext) carrying the protocol-counter deltas of the
/// enclosed interaction, a hop counter, and a per-hop latency histogram.
/// The byte/request registry totals themselves are mirrored at the
/// Coordinator::Account increment sites, not here, so probes issued
/// outside a hop (RunEverywhere's COMPILE scouting) are still counted.
class HopScope {
 public:
  HopScope(std::string name, const Coordinator* coordinator)
      : coordinator_(coordinator),
        before_(coordinator->counters()),
        start_ns_(obs::Tracer::Global().NowNs()),
        span_(obs::Tracer::Global().StartSpan(
            std::move(name), "federation", gdm::QueryContext::Current().span,
            gdm::QueryContext::Current().sink)) {}

  ~HopScope() {
    static obs::Counter* hops =
        obs::MetricsRegistry::Global().GetCounter("gdms_fed_hops_total");
    static obs::Histogram* hop_latency =
        obs::MetricsRegistry::Global().GetHistogram(
            "gdms_fed_hop_latency_us");
    hops->Add();
    int64_t elapsed_ns = obs::Tracer::Global().NowNs() - start_ns_;
    hop_latency->Record(static_cast<uint64_t>(elapsed_ns / 1000));
    if (span_.active()) {
      ProtocolCounters now = coordinator_->counters();
      span_.AddAttr("requests",
                    static_cast<double>(now.requests - before_.requests));
      span_.AddAttr("bytes_sent",
                    static_cast<double>(now.bytes_sent - before_.bytes_sent));
      span_.AddAttr("bytes_received",
                    static_cast<double>(now.bytes_received -
                                        before_.bytes_received));
    }
  }

  HopScope(const HopScope&) = delete;
  HopScope& operator=(const HopScope&) = delete;

 private:
  const Coordinator* coordinator_;
  ProtocolCounters before_;
  int64_t start_ns_;
  obs::Span span_;
};

/// Releases a staged result when the enclosing RunRemote scope exits —
/// success and every error path alike, so a mid-FETCH failure can no
/// longer leak staging space on the remote node.
class StagedGuard {
 public:
  StagedGuard(FederatedNode* node, std::string query_id)
      : node_(node), query_id_(std::move(query_id)) {}
  ~StagedGuard() {
    if (node_ != nullptr) node_->ReleaseStaged(query_id_);
  }
  StagedGuard(const StagedGuard&) = delete;
  StagedGuard& operator=(const StagedGuard&) = delete;

 private:
  FederatedNode* node_;
  std::string query_id_;
};

// -- wire serialization of the typed handler payloads --

std::string EncodeCompileInfo(const CompileInfo& info) {
  if (!info.ok) return "0 " + info.error;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "1 %.17g %.17g", info.estimated_regions,
                info.estimated_bytes);
  return buf;
}

Result<CompileInfo> DecodeCompileInfo(const std::string& body) {
  if (body.size() < 2 || (body[0] != '0' && body[0] != '1') ||
      body[1] != ' ') {
    return Status::DataCorruption("malformed COMPILE reply");
  }
  CompileInfo info;
  if (body[0] == '0') {
    info.ok = false;
    info.error = body.substr(2);
    return info;
  }
  info.ok = true;
  char* end = nullptr;
  info.estimated_regions = std::strtod(body.c_str() + 2, &end);
  if (end == nullptr || *end != ' ') {
    return Status::DataCorruption("malformed COMPILE estimate");
  }
  info.estimated_bytes = std::strtod(end + 1, nullptr);
  return info;
}

/// Critical-path segment label for one wire interaction ("wire.fetch").
std::string WireSegment(MessageKind kind) {
  std::string out = "wire.";
  for (const char* p = MessageKindName(kind); *p != '\0'; ++p) {
    out += static_cast<char>(*p - 'A' + 'a');
  }
  return out;
}

/// RAII "site:<name>" trace span: scopes every rpc/backoff span the
/// enclosed RunRemote emits under one per-site node in the stitched tree.
/// No-op when the coordinator is untraced.
class TraceSiteScope {
 public:
  TraceSiteScope(Coordinator* coordinator, const std::string& site)
      : coordinator_(coordinator) {
    uint64_t now = coordinator_->transport()->clock().now_us();
    span_ = coordinator_->TraceEmit("site:" + site, "", now, 0);
    if (span_ != 0) {
      prev_parent_ = coordinator_->TraceExchangeParent(span_);
    }
  }
  ~TraceSiteScope() {
    if (span_ == 0) return;
    coordinator_->TraceClose(span_,
                             coordinator_->transport()->clock().now_us());
    coordinator_->TraceExchangeParent(prev_parent_);
  }
  TraceSiteScope(const TraceSiteScope&) = delete;
  TraceSiteScope& operator=(const TraceSiteScope&) = delete;

 private:
  Coordinator* coordinator_;
  uint64_t span_ = 0;
  uint64_t prev_parent_ = 0;
};

}  // namespace

FederatedNode::FederatedNode(std::string name) : name_(std::move(name)) {
  std::string label = "{node=\"" + obs::ExpositionLabelValue(name_) + "\"}";
  staged_bytes_gauge_ = obs::MetricsRegistry::Global().GetGauge(
      "gdms_fed_staged_bytes" + label);
  staged_results_gauge_ = obs::MetricsRegistry::Global().GetGauge(
      "gdms_fed_staged_results" + label);
  PublishStagingGaugesLocked();
}

void FederatedNode::PublishStagingGaugesLocked() const {
  staged_bytes_gauge_->Set(static_cast<int64_t>(StagedBytesLocked()));
  staged_results_gauge_->Set(static_cast<int64_t>(staged_.size()));
}

uint64_t FederatedNode::TraceRemoteSpanLocked(MessageKind kind,
                                              const obs::TraceContext& ctx) {
  std::string key = ctx.id.ToHex();
  auto it = trace_buffers_.find(key);
  if (it == trace_buffers_.end()) {
    // FIFO bound: a coordinator that gave up mid-query never fetches its
    // buffer, so old traces age out instead of accreting.
    while (trace_buffer_order_.size() >= 8) {
      trace_buffers_.erase(trace_buffer_order_.front());
      trace_buffer_order_.pop_front();
    }
    it = trace_buffers_.emplace(key, std::vector<obs::DistSpan>{}).first;
    trace_buffer_order_.push_back(key);
  }
  obs::DistSpan span;
  span.origin = name_;
  span.id = next_span_++;
  span.parent_origin = "";  // the parent rpc span lives at the coordinator
  span.parent = ctx.parent_span;
  span.name = std::string("remote:") + MessageKindName(kind);
  span.start_us = ctx.arrival_us;
  span.duration_us = 0;  // the simulation charges no server-side compute
  it->second.push_back(std::move(span));
  return it->second.back().id;
}

std::string FederatedNode::TraceBufferLocked(
    const obs::TraceContext& ctx) const {
  auto it = trace_buffers_.find(ctx.id.ToHex());
  return it == trace_buffers_.end() ? "" : obs::EncodeDistSpans(it->second);
}

Result<std::string> FederatedNode::HandleMessage(MessageKind kind,
                                                 const std::string& request) {
  // A traced coordinator prefixes one "@trace" header line; strip it and
  // open this site's span under the sender's rpc span.
  std::string body;
  obs::TraceContext ctx = StripTraceHeader(request, &body);
  uint64_t remote_span = 0;
  if (ctx.valid()) {
    std::lock_guard<std::mutex> lock(mu_);
    remote_span = TraceRemoteSpanLocked(kind, ctx);
  }
  switch (kind) {
    case MessageKind::kInfo:
      return HandleInfo();
    case MessageKind::kCompile:
      return EncodeCompileInfo(HandleCompile(body));
    case MessageKind::kExecute: {
      // First line is the idempotency token, the rest is the program.
      size_t newline = body.find('\n');
      if (newline == std::string::npos) {
        return Status::InvalidArgument("EXECUTE request missing token line");
      }
      auto result =
          HandleExecute(body.substr(newline + 1), body.substr(0, newline));
      if (ctx.valid() && result.ok()) {
        // The engine ran under this EXECUTE; record it as a child span in
        // this origin so the stitched tree shows where the work happened.
        std::lock_guard<std::mutex> lock(mu_);
        obs::DistSpan engine;
        engine.origin = name_;
        engine.id = next_span_++;
        engine.parent_origin = name_;
        engine.parent = remote_span;
        engine.name = "remote:engine";
        engine.start_us = ctx.arrival_us;
        engine.duration_us = 0;
        auto it = trace_buffers_.find(ctx.id.ToHex());
        if (it != trace_buffers_.end()) it->second.push_back(std::move(engine));
      }
      return result;
    }
    case MessageKind::kFetch: {
      size_t space = body.find(' ');
      if (space == std::string::npos) {
        return Status::InvalidArgument("FETCH request wants '<id> <index>'");
      }
      size_t index = static_cast<size_t>(
          std::strtoull(body.c_str() + space + 1, nullptr, 10));
      GDMS_ASSIGN_OR_RETURN(FetchResult chunk,
                            HandleFetch(body.substr(0, space), index));
      if (ctx.valid()) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = trace_buffers_.find(ctx.id.ToHex());
        if (it != trace_buffers_.end() && !it->second.empty()) {
          it->second.back().attrs.emplace_back("chunk",
                                               static_cast<double>(index));
        }
        if (!chunk.has_more) {
          // Final chunk of a traced query: piggyback this site's buffered
          // spans behind a length-framed payload. The buffer stays — a
          // retried final FETCH re-ships it and the coordinator dedups.
          return "!" + std::to_string(chunk.payload.size()) + " " +
                 chunk.payload + TraceBufferLocked(ctx);
        }
      }
      return (chunk.has_more ? ">" : ".") + chunk.payload;
    }
    case MessageKind::kDataset:
      return HandleDatasetDownload(body);
  }
  return Status::InvalidArgument("unknown message kind");
}

std::string FederatedNode::HandleInfo() const {
  std::string out = "NODE " + name_ + "\n";
  for (const auto& info : catalog_.AllInfo()) {
    out += info.ToString();
    out += "\n";
  }
  return out;
}

CompileInfo FederatedNode::HandleCompile(const std::string& gmql) const {
  CompileInfo info;
  auto program = core::Parser::Parse(gmql);
  if (!program.ok()) {
    info.ok = false;
    info.error = program.status().ToString();
    return info;
  }
  info.ok = true;
  Estimator estimator(&catalog_);
  for (const auto& sink : program.value().sinks) {
    auto estimate = estimator.EstimatePlan(*sink);
    if (!estimate.ok()) {
      // Unknown dataset etc. -- still a compile-level diagnosis.
      info.ok = false;
      info.error = estimate.status().ToString();
      return info;
    }
    info.estimated_regions += estimate.value().regions;
    info.estimated_bytes += estimate.value().bytes;
  }
  return info;
}

uint64_t FederatedNode::StagedBytesLocked() const {
  uint64_t total = 0;
  for (const auto& [id, payload] : staged_) total += payload.size();
  return total;
}

uint64_t FederatedNode::staged_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StagedBytesLocked();
}

size_t FederatedNode::staged_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staged_.size();
}

Result<std::string> FederatedNode::HandleExecute(const std::string& gmql,
                                                 const std::string& token) {
  if (!token.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tokens_.find(token);
    if (it != tokens_.end() && staged_.count(it->second) > 0) {
      return it->second;  // retry of an EXECUTE whose response was lost
    }
  }
  core::QueryRunner runner;
  for (const auto& name : catalog_.Names()) {
    runner.RegisterDataset(*catalog_.Get(name));
  }
  GDMS_ASSIGN_OR_RETURN(auto results, runner.Run(gmql));
  // Results travel in the compressed columnar wire format; the header's
  // total_size field frames each document, so concatenation needs no
  // delimiters (see ParseConcatenated).
  std::string payload;
  for (const auto& [name, ds] : results) {
    payload += io::WriteGdmzString(ds);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (max_staged_bytes_ > 0 &&
      StagedBytesLocked() + payload.size() > max_staged_bytes_) {
    return Status::ResourceExhausted(
        "staging area full on node " + name_ + " (" +
        std::to_string(StagedBytesLocked()) + " + " +
        std::to_string(payload.size()) + " > " +
        std::to_string(max_staged_bytes_) + " bytes); fetch and release "
        "pending results first");
  }
  std::string query_id =
      name_ + "-q" + std::to_string(next_query_++);
  staged_.emplace(query_id, std::move(payload));
  if (!token.empty()) tokens_[token] = query_id;
  PublishStagingGaugesLocked();
  return query_id;
}

Result<FetchResult> FederatedNode::HandleFetch(const std::string& query_id,
                                               size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = staged_.find(query_id);
  if (it == staged_.end()) {
    return Status::NotFound("no staged result for query " + query_id);
  }
  const std::string& payload = it->second;
  size_t begin = index * chunk_bytes_;
  if (begin >= payload.size() && !(payload.empty() && index == 0)) {
    return Status::InvalidArgument("chunk index past end of staged result");
  }
  FetchResult out;
  size_t end = std::min(payload.size(), begin + chunk_bytes_);
  out.payload = payload.substr(begin, end - begin);
  out.has_more = end < payload.size();
  return out;
}

Result<std::string> FederatedNode::HandleDatasetDownload(
    const std::string& name) const {
  const gdm::Dataset* ds = catalog_.Get(name);
  if (ds == nullptr) return Status::NotFound("no dataset named " + name);
  return io::WriteGdmzString(*ds);
}

void FederatedNode::ReleaseStaged(const std::string& query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  staged_.erase(query_id);
  for (auto it = tokens_.begin(); it != tokens_.end();) {
    it = it->second == query_id ? tokens_.erase(it) : std::next(it);
  }
  PublishStagingGaugesLocked();
}

std::string FederatedResult::Annotation() const {
  if (complete()) {
    return "complete (" + std::to_string(sites_answered) + " site" +
           (sites_answered == 1 ? "" : "s") + ")";
  }
  std::string out = "partial " + std::to_string(sites_answered) + "/" +
                    std::to_string(sites_answered + sites_failed);
  if (!failures.empty()) {
    out += " (";
    for (size_t i = 0; i < failures.size(); ++i) {
      if (i > 0) out += "; ";
      out += failures[i];
    }
    out += ")";
  }
  return out;
}

Coordinator::Coordinator() {
  static std::atomic<uint64_t> next_id{1};
  coordinator_id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  rng_state_ = policies_.retry.jitter_seed;
}

void Coordinator::AddNode(FederatedNode* node) {
  size_t count;
  {
    std::lock_guard<std::mutex> lock(mu_);
    nodes_[node->name()] = node;
    count = nodes_.size();
  }
  transport_.AddSite(node);
  static obs::Gauge* fed_nodes =
      obs::MetricsRegistry::Global().GetGauge("gdms_fed_nodes");
  fed_nodes->Set(static_cast<int64_t>(count));
}

void Coordinator::Account(uint64_t requests, uint64_t sent,
                          uint64_t received) {
  static obs::Counter* req_total =
      obs::MetricsRegistry::Global().GetCounter("gdms_fed_requests_total");
  static obs::Counter* shipped_total = obs::MetricsRegistry::Global()
                                           .GetCounter(
                                               "gdms_fed_bytes_shipped_total");
  static obs::Counter* received_total =
      obs::MetricsRegistry::Global().GetCounter(
          "gdms_fed_bytes_received_total");
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.requests += requests;
    counters_.bytes_sent += sent;
    counters_.bytes_received += received;
  }
  if (requests > 0) req_total->Add(requests);
  if (sent > 0) shipped_total->Add(sent);
  if (received > 0) received_total->Add(received);
}

ProtocolCounters Coordinator::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

FedStats Coordinator::fed_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fed_stats_;
}

void Coordinator::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = ProtocolCounters{};
  fed_stats_ = FedStats{};
}

FederatedNode* Coordinator::FindNode(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : it->second;
}

CircuitBreaker& Coordinator::BreakerForLocked(const std::string& site) {
  auto it = breakers_.find(site);
  if (it == breakers_.end()) {
    it = breakers_.emplace(site, CircuitBreaker(policies_.breaker)).first;
  }
  return it->second;
}

CircuitBreaker::State Coordinator::BreakerState(
    const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(site);
  return it == breakers_.end() ? CircuitBreaker::State::kClosed
                               : it->second.state();
}

void Coordinator::BeginTrace(const obs::TraceId& id) {
  if (!id.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  trace_ = std::make_unique<ActiveTrace>();
  trace_->id = id;
  obs::DistSpan root;
  root.id = trace_->next_span++;
  root.name = "fed:query";
  root.start_us = transport_.clock().now_us();
  trace_->root = root.id;
  trace_->parent = root.id;
  trace_->spans.push_back(std::move(root));
}

bool Coordinator::tracing() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_ != nullptr;
}

obs::DistTrace Coordinator::FinishTrace(const std::string& reason) {
  std::unique_ptr<ActiveTrace> trace;
  {
    std::lock_guard<std::mutex> lock(mu_);
    trace = std::move(trace_);
  }
  if (trace == nullptr) return obs::DistTrace{};
  uint64_t now = transport_.clock().now_us();
  for (obs::DistSpan& span : trace->spans) {
    if (span.origin.empty() && span.id == trace->root) {
      span.duration_us = now - span.start_us;
      break;
    }
  }
  obs::DistTrace out = obs::StitchTrace(trace->id, std::move(trace->spans));
  out.reason = reason;
  return out;
}

obs::DistSpan* Coordinator::TraceFindLocked(uint64_t span) {
  if (trace_ == nullptr || span == 0) return nullptr;
  for (auto it = trace_->spans.rbegin(); it != trace_->spans.rend(); ++it) {
    if (it->origin.empty() && it->id == span) return &*it;
  }
  return nullptr;
}

uint64_t Coordinator::TraceEmit(const std::string& name,
                                const std::string& segment, uint64_t start_us,
                                uint64_t duration_us, uint64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  if (trace_ == nullptr) return 0;
  obs::DistSpan span;
  span.id = trace_->next_span++;
  span.parent = parent != 0 ? parent : trace_->parent;
  span.name = name;
  span.segment = segment;
  span.start_us = start_us;
  span.duration_us = duration_us;
  trace_->spans.push_back(std::move(span));
  return trace_->spans.back().id;
}

void Coordinator::TraceClose(uint64_t span, uint64_t end_us) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::DistSpan* s = TraceFindLocked(span);
  if (s != nullptr && end_us > s->start_us) {
    s->duration_us = end_us - s->start_us;
  }
}

void Coordinator::TraceAnnotate(uint64_t span, const std::string& key,
                                double value) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::DistSpan* s = TraceFindLocked(span);
  if (s != nullptr) s->attrs.emplace_back(key, value);
}

uint64_t Coordinator::TraceExchangeParent(uint64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  if (trace_ == nullptr) return 0;
  uint64_t prev = trace_->parent;
  trace_->parent = parent != 0 ? parent : trace_->root;
  return prev;
}

std::string Coordinator::TraceHeaderFor(uint64_t span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (trace_ == nullptr || span == 0) return "";
  obs::TraceContext ctx;
  ctx.id = trace_->id;
  ctx.parent_span = span;
  return std::string(kTraceHeaderPrefix) + obs::EncodeTraceContext(ctx) +
         "\n";
}

void Coordinator::TraceAbsorbRemote(std::string_view text) {
  if (text.empty()) return;
  std::vector<obs::DistSpan> spans = obs::DecodeDistSpans(text);
  std::lock_guard<std::mutex> lock(mu_);
  if (trace_ == nullptr) return;
  for (obs::DistSpan& span : spans) {
    // Never absorb a coordinator-origin claim from the wire: remote spans
    // carry their site name, and a corrupted line must not be able to
    // forge entries in the coordinator's own id namespace.
    if (span.origin.empty()) continue;
    trace_->spans.push_back(std::move(span));
  }
}

void Coordinator::PublishBreakerGauge(const std::string& site,
                                      CircuitBreaker::State state) {
  obs::Gauge* gauge;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = breaker_gauges_.find(site);
    if (it == breaker_gauges_.end()) {
      std::string name = "gdms_fed_breaker_state{site=\"" +
                         obs::ExpositionLabelValue(site) + "\"}";
      it = breaker_gauges_
               .emplace(site, obs::MetricsRegistry::Global().GetGauge(name))
               .first;
    }
    gauge = it->second;
  }
  gauge->Set(static_cast<int64_t>(state));
}

bool Coordinator::HedgeDelayFor(const std::string& site,
                                uint64_t* delay_us) const {
  std::vector<uint64_t> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = fetch_latencies_.find(site);
    if (it == fetch_latencies_.end() ||
        it->second.size() < policies_.hedge.min_observations) {
      return false;
    }
    sorted = it->second;
  }
  std::sort(sorted.begin(), sorted.end());
  size_t index = static_cast<size_t>(
      policies_.hedge.quantile * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  *delay_us = std::max<uint64_t>(sorted[index], 1);
  return true;
}

void Coordinator::RecordFetchLatency(const std::string& site,
                                     uint64_t latency_us) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& samples = fetch_latencies_[site];
  samples.push_back(latency_us);
  if (samples.size() > 128) samples.erase(samples.begin());
}

uint64_t Coordinator::BackoffUs(int attempt) {
  const RetryPolicy& rp = policies_.retry;
  double base = static_cast<double>(rp.initial_backoff_us) *
                std::pow(rp.backoff_multiplier, attempt);
  uint64_t draw;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rng_state_ = SplitMix64(rng_state_);
    draw = rng_state_;
  }
  double unit = static_cast<double>(draw >> 11) * 0x1.0p-53;
  return static_cast<uint64_t>(base * (1.0 + rp.jitter * unit));
}

Result<std::string> Coordinator::Call(const std::string& site,
                                      MessageKind kind,
                                      const std::string& request) {
  static obs::Counter* retries_total =
      obs::MetricsRegistry::Global().GetCounter("gdms_fed_retries_total");
  static obs::Counter* hedges_total =
      obs::MetricsRegistry::Global().GetCounter("gdms_fed_hedges_total");
  static obs::Counter* timeouts_total =
      obs::MetricsRegistry::Global().GetCounter("gdms_fed_timeouts_total");
  static obs::Counter* corruptions_total =
      obs::MetricsRegistry::Global().GetCounter(
          "gdms_fed_corruptions_total");
  static obs::Counter* trips_total = obs::MetricsRegistry::Global()
                                         .GetCounter(
                                             "gdms_fed_breaker_trips_total");
  static obs::Counter* wasted_total = obs::MetricsRegistry::Global()
                                          .GetCounter(
                                              "gdms_fed_bytes_wasted_total");

  const RetryPolicy& rp = policies_.retry;
  Status last = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < rp.max_attempts; ++attempt) {
    uint64_t now = transport_.clock().now_us();
    bool allowed;
    CircuitBreaker::State breaker_state;
    {
      std::lock_guard<std::mutex> lock(mu_);
      CircuitBreaker& breaker = BreakerForLocked(site);
      allowed = breaker.Allow(now);
      if (!allowed) ++fed_stats_.breaker_fast_fails;
      breaker_state = breaker.state();
    }
    PublishBreakerGauge(site, breaker_state);
    if (!allowed) {
      uint64_t fast_fail =
          TraceEmit("breaker:fastfail@" + site, "breaker.fastfail", now, 0);
      if (fast_fail != 0) {
        TraceAnnotate(fast_fail, "attempt", attempt);
      }
      return Status::Unavailable("circuit open for site " + site +
                                 " (fast fail)");
    }

    // When a trace is active, this attempt opens its own rpc span and the
    // request crosses the wire with a "@trace" header parented under it,
    // so the remote site's spans stitch in below this exact attempt.
    uint64_t rpc_span = TraceEmit(
        "rpc:" + std::string(MessageKindName(kind)) + "@" + site,
        WireSegment(kind), now, 0);
    std::string traced_request = TraceHeaderFor(rpc_span);
    const std::string* wire_request = &request;
    if (!traced_request.empty()) {
      traced_request += request;
      wire_request = &traced_request;
    }

    AttemptOutcome first = transport_.Attempt(site, kind, *wire_request);
    AttemptOutcome hedge;
    AttemptOutcome* winner = &first;
    uint64_t completion = first.latency_us;
    uint64_t requests = 1;
    uint64_t sent = first.bytes_sent;
    uint64_t received = 0;
    uint64_t wasted = 0;

    // Hedged FETCH: once this attempt's completion would pass the site's
    // observed p95, race a speculative duplicate and keep the earlier
    // arrival; the loser's bytes are wasted-but-accounted wire traffic.
    uint64_t hedge_delay = 0;
    uint64_t hedge_span = 0;
    if (kind == MessageKind::kFetch && policies_.hedge.enabled &&
        HedgeDelayFor(site, &hedge_delay) && completion > hedge_delay &&
        hedge_delay < rp.deadline_us) {
      hedge_span = TraceEmit(
          "rpc:" + std::string(MessageKindName(kind)) + ":hedge@" + site, "",
          now + hedge_delay, 0);
      std::string hedge_request = TraceHeaderFor(hedge_span);
      if (!hedge_request.empty()) {
        hedge_request += request;
        hedge = transport_.Attempt(site, kind, hedge_request);
      } else {
        hedge = transport_.Attempt(site, kind, request);
      }
      ++requests;
      sent += hedge.bytes_sent;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++fed_stats_.hedges;
      }
      hedges_total->Add();
      uint64_t hedge_completion =
          hedge.latency_us == AttemptOutcome::kNeverUs
              ? AttemptOutcome::kNeverUs
              : hedge_delay + hedge.latency_us;
      AttemptOutcome* loser = &hedge;
      uint64_t loser_completion = hedge_completion;
      if (hedge_completion < completion) {
        loser = &first;
        loser_completion = completion;
        winner = &hedge;
        completion = hedge_completion;
      }
      if (loser->status.ok()) {
        // The slower copy still crosses the wire eventually.
        received += loser->bytes_received;
        wasted += loser->bytes_received;
        (void)loser_completion;
      }
    }

    bool timed_out = completion > rp.deadline_us;
    uint64_t elapsed = std::min<uint64_t>(completion, rp.deadline_us);
    transport_.clock().Advance(elapsed);

    if (rpc_span != 0) {
      // Close the attempt's spans over the race window [now, now+elapsed].
      // The winner keeps its wire.* segment (it IS the critical path); the
      // hedge loser becomes a wasted detail span with no segment so the
      // sweep never double-counts the overlap, its true latency kept as an
      // attribute.
      bool first_won = winner == &first;
      std::lock_guard<std::mutex> lock(mu_);
      if (obs::DistSpan* s = TraceFindLocked(rpc_span)) {
        s->duration_us = elapsed;
        s->attrs.emplace_back("attempt", static_cast<double>(attempt));
        s->attrs.emplace_back("bytes_sent",
                              static_cast<double>(first.bytes_sent));
        s->attrs.emplace_back("bytes_received",
                              static_cast<double>(first.bytes_received));
        if (hedge_span != 0) {
          s->attrs.emplace_back("hedged", 1);
          if (!first_won) {
            s->wasted = true;
            s->segment.clear();
            s->attrs.emplace_back(
                "loser_latency_us",
                first.latency_us == AttemptOutcome::kNeverUs
                    ? 0.0
                    : static_cast<double>(first.latency_us));
          }
        }
        if (timed_out && first_won) s->attrs.emplace_back("timeout", 1);
      }
      if (obs::DistSpan* s = TraceFindLocked(hedge_span)) {
        s->duration_us = elapsed > hedge_delay ? elapsed - hedge_delay : 0;
        s->attrs.emplace_back("hedged", 1);
        s->attrs.emplace_back("bytes_received",
                              static_cast<double>(hedge.bytes_received));
        if (first_won) {
          s->wasted = true;
          s->attrs.emplace_back(
              "loser_latency_us",
              hedge.latency_us == AttemptOutcome::kNeverUs
                  ? 0.0
                  : static_cast<double>(hedge.latency_us));
        } else {
          s->segment = WireSegment(kind);
          if (timed_out) s->attrs.emplace_back("timeout", 1);
        }
      }
    }

    bool delivered = winner->status.ok() && !timed_out;
    if (delivered) {
      received += winner->bytes_received;
    } else if (winner->status.ok()) {
      // Delivered after the deadline: bytes moved, answer discarded.
      received += winner->bytes_received;
      wasted += winner->bytes_received;
    }
    Account(requests, sent, received);
    if (wasted > 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        fed_stats_.wasted_bytes += wasted;
      }
      wasted_total->Add(wasted);
    }

    Status status;
    if (delivered) {
      auto body = DecodeEnvelope(winner->response);
      if (body.ok()) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          CircuitBreaker& breaker = BreakerForLocked(site);
          breaker.RecordSuccess();
          breaker_state = breaker.state();
        }
        PublishBreakerGauge(site, breaker_state);
        if (kind == MessageKind::kFetch) RecordFetchLatency(site, elapsed);
        // Application-level errors (compile failures, unknown datasets,
        // staging exhaustion) are answers, not transport faults: they are
        // returned to the caller un-retried and never trip the breaker.
        return DecodeReply(body.value());
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++fed_stats_.corruptions;
      }
      corruptions_total->Add();
      status = body.status();
    } else if (timed_out) {
      status = Status::DeadlineExceeded(
          std::string(MessageKindName(kind)) + " on " + site +
          " missed its " + std::to_string(rp.deadline_us) + "us deadline" +
          (winner->status.ok() ? "" : ": " + winner->status.message()));
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++fed_stats_.timeouts;
      }
      timeouts_total->Add();
    } else {
      status = winner->status;
      if (status.code() == StatusCode::kInternal) return status;  // no link
    }

    bool tripped;
    {
      std::lock_guard<std::mutex> lock(mu_);
      CircuitBreaker& breaker = BreakerForLocked(site);
      tripped = breaker.RecordFailure(transport_.clock().now_us());
      if (tripped) ++fed_stats_.breaker_trips;
      breaker_state = breaker.state();
    }
    if (tripped) trips_total->Add();
    PublishBreakerGauge(site, breaker_state);
    last = status;
    if (attempt + 1 < rp.max_attempts) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++fed_stats_.retries;
      }
      retries_total->Add();
      uint64_t backoff = BackoffUs(attempt);
      uint64_t backoff_span =
          TraceEmit("wait:backoff@" + site, "wait.backoff",
                    transport_.clock().now_us(), backoff);
      if (backoff_span != 0) {
        TraceAnnotate(backoff_span, "attempt", attempt);
      }
      transport_.clock().Advance(backoff);
    }
  }
  return Status(last.code(),
                last.message() + " (after " +
                    std::to_string(rp.max_attempts) + " attempts)");
}

namespace {

/// Splits a concatenation of GDM documents back into datasets. Binary
/// (.gdmz) documents are framed by the total_size field of their headers;
/// legacy text payloads are still split on the text magic, so mixed-version
/// federations interoperate.
Result<std::map<std::string, gdm::Dataset>> ParseConcatenated(
    const std::string& payload) {
  std::map<std::string, gdm::Dataset> out;
  size_t pos = 0;
  const std::string magic = "#GDMS v1\n";
  while (pos < payload.size()) {
    std::string_view rest(payload.data() + pos, payload.size() - pos);
    if (io::LooksLikeGdmz(rest)) {
      GDMS_ASSIGN_OR_RETURN(uint64_t framed, io::GdmzFramedSize(rest));
      if (framed > rest.size()) {
        return Status::ParseError("truncated .gdmz document in payload");
      }
      GDMS_ASSIGN_OR_RETURN(gdm::Dataset ds,
                            io::ReadGdmzBytes(rest.substr(0, framed)));
      std::string name = ds.name();
      out.insert_or_assign(std::move(name), std::move(ds));
      pos += static_cast<size_t>(framed);
      continue;
    }
    size_t next = payload.find(magic, pos + 1);
    std::string doc = payload.substr(pos, next == std::string::npos
                                              ? std::string::npos
                                              : next - pos);
    GDMS_ASSIGN_OR_RETURN(gdm::Dataset ds, io::ReadGdmString(doc));
    std::string name = ds.name();
    out.insert_or_assign(name, std::move(ds));
    if (next == std::string::npos) break;
    pos = next;
  }
  return out;
}

}  // namespace

Result<CompileInfo> Coordinator::CompileRemote(const std::string& site,
                                               const std::string& gmql) {
  GDMS_ASSIGN_OR_RETURN(std::string body,
                        Call(site, MessageKind::kCompile, gmql));
  return DecodeCompileInfo(body);
}

Result<std::map<std::string, gdm::Dataset>> Coordinator::RunRemote(
    const std::string& node_name, const std::string& gmql) {
  FederatedNode* node = FindNode(node_name);
  if (node == nullptr) return Status::NotFound("unknown node " + node_name);
  HopScope hop("site:" + node_name, this);
  TraceSiteScope trace_scope(this, node_name);

  // COMPILE round-trip: the query text travels once, the estimate returns.
  GDMS_ASSIGN_OR_RETURN(CompileInfo compile,
                        CompileRemote(node_name, gmql));
  if (!compile.ok) {
    return Status::InvalidArgument("remote compile failed: " + compile.error);
  }

  // EXECUTE with an idempotency token, so a lost response can be retried
  // without staging a second copy server-side.
  std::string token =
      "c" + std::to_string(coordinator_id_) + "-t" +
      std::to_string(next_token_.fetch_add(1, std::memory_order_relaxed));
  GDMS_ASSIGN_OR_RETURN(
      std::string query_id,
      Call(node_name, MessageKind::kExecute, token + "\n" + gmql));

  // Staged FETCH loop (deferred retrieval, controlled communication load);
  // the guard releases the staged result on every exit path.
  StagedGuard guard(node, query_id);
  std::string payload;
  size_t index = 0;
  while (true) {
    GDMS_ASSIGN_OR_RETURN(
        std::string chunk,
        Call(node_name, MessageKind::kFetch,
             query_id + " " + std::to_string(index)));
    if (chunk.empty() ||
        (chunk[0] != '>' && chunk[0] != '.' && chunk[0] != '!')) {
      return Status::DataCorruption("malformed FETCH chunk marker");
    }
    if (chunk[0] == '!') {
      // Final chunk of a traced query: "!<len> <payload><remote spans>".
      size_t space = chunk.find(' ');
      if (space == std::string::npos) {
        return Status::DataCorruption("malformed traced FETCH framing");
      }
      uint64_t len = std::strtoull(chunk.c_str() + 1, nullptr, 10);
      if (space + 1 + len > chunk.size()) {
        return Status::DataCorruption("truncated traced FETCH chunk");
      }
      payload.append(chunk, space + 1, len);
      TraceAbsorbRemote(std::string_view(chunk).substr(space + 1 + len));
      break;
    }
    payload.append(chunk, 1, std::string::npos);
    if (chunk[0] == '.') break;
    ++index;
  }
  if (payload.empty()) return std::map<std::string, gdm::Dataset>{};
  return ParseConcatenated(payload);
}

Result<FederatedResult> Coordinator::RunEverywhere(const std::string& gmql) {
  static obs::Counter* partial_total =
      obs::MetricsRegistry::Global().GetCounter(
          "gdms_fed_partial_results_total");
  // Snapshot the node table: RunRemote below must run without the lock,
  // and a concurrent AddNode must not invalidate this iteration.
  std::map<std::string, FederatedNode*> nodes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    nodes = nodes_;
  }
  FederatedResult out;
  out.sites_total = nodes.size();
  std::string last_error = "no nodes registered";
  for (auto& [node_name, node] : nodes) {
    // Probe with COMPILE first: nodes lacking the datasets are skipped
    // without execution cost, and unreachable or breaker-tripped sites
    // degrade the result instead of failing it.
    auto compile = CompileRemote(node_name, gmql);
    if (!compile.ok()) {
      ++out.sites_failed;
      out.failures.push_back(node_name + ": " +
                             compile.status().ToString());
      last_error = out.failures.back();
      continue;
    }
    if (!compile.value().ok) {
      ++out.sites_skipped;
      last_error = node_name + ": " + compile.value().error;
      continue;
    }
    auto results = RunRemote(node_name, gmql);
    if (!results.ok()) {
      ++out.sites_failed;
      out.failures.push_back(node_name + ": " +
                             results.status().ToString());
      last_error = out.failures.back();
      continue;
    }
    for (auto& [output, ds] : results.value()) {
      std::string key = output + "@" + node_name;
      ds.set_name(key);
      out.datasets.insert_or_assign(std::move(key), std::move(ds));
    }
    ++out.sites_answered;
  }
  if (out.sites_answered == 0) {
    return Status::Unavailable("no node could answer the query: " +
                               last_error);
  }
  if (!out.complete()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++fed_stats_.partial_results;
    }
    partial_total->Add();
  }
  return out;
}

Result<std::map<std::string, gdm::Dataset>> Coordinator::RunWithDataShipping(
    const std::string& node_name, const std::vector<std::string>& datasets,
    const std::string& gmql) {
  FederatedNode* node = FindNode(node_name);
  if (node == nullptr) return Status::NotFound("unknown node " + node_name);
  HopScope hop("ship:" + node_name, this);
  core::QueryRunner runner;
  for (const auto& name : datasets) {
    GDMS_ASSIGN_OR_RETURN(std::string payload,
                          Call(node_name, MessageKind::kDataset, name));
    GDMS_ASSIGN_OR_RETURN(gdm::Dataset ds,
                          io::LooksLikeGdmz(payload)
                              ? io::ReadGdmzString(payload)
                              : io::ReadGdmString(payload));
    runner.RegisterDataset(std::move(ds));
  }
  return runner.Run(gmql);
}

}  // namespace gdms::repo
