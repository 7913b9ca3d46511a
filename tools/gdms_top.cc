// gdms_top — live terminal dashboard over the GDMS telemetry exposition.
//
// Two modes:
//
//   gdms_top --attach FILE [--period-ms N] [--ticks N] [--no-ansi]
//     Polls a Prometheus-style exposition file (as written by
//     `gdms_shell --serve --expo FILE`), derives rates from successive
//     scrapes and renders per-layer counters, gauges and latency summaries
//     with sparklines.
//
//   gdms_top --demo [--period-ms N] [--ticks N] [--no-ansi]
//     Drives an in-process workload (parallel engine + a two-site
//     federation over simulated ENCODE-like data) and renders the live
//     metrics registry directly — a self-contained demonstration needing
//     no second process.
//
// --ticks 0 (the default) runs until interrupted; a nonzero count renders
// that many frames and exits, which is what CI and transcript capture use
// together with --no-ansi (frames separated by a rule instead of clearing
// the screen).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "gdm/region.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "repo/federation.h"
#include "sim/generators.h"

namespace {

using namespace gdms;  // NOLINT: tool brevity

struct Options {
  bool demo = false;
  std::string attach_path;
  int64_t period_ms = 500;
  uint64_t ticks = 0;  ///< 0 = run until interrupted
  bool ansi = true;
};

// ---------------------------------------------------------------------------
// Scrape history: successive exposition snapshots -> per-series rates
// ---------------------------------------------------------------------------

/// Rolling per-sample history across scrapes; rates are derived between
/// consecutive snapshots of the same sample name (labels included).
class History {
 public:
  static constexpr size_t kKeep = 64;

  void Ingest(const obs::ScrapedExposition& scrape, int64_t t_ns) {
    for (const auto& [name, value] : scrape.samples) {
      auto& points = series_[name];
      points.push_back({t_ns, value});
      if (points.size() > kKeep) points.pop_front();
    }
  }

  double Last(const std::string& name) const {
    auto it = series_.find(name);
    return it == series_.end() || it->second.empty() ? 0.0
                                                     : it->second.back().value;
  }

  /// Per-second deltas between consecutive points; counter resets clamp
  /// to zero instead of going negative.
  std::vector<double> Rates(const std::string& name) const {
    std::vector<double> out;
    auto it = series_.find(name);
    if (it == series_.end()) return out;
    const auto& points = it->second;
    for (size_t i = 1; i < points.size(); ++i) {
      double dt = static_cast<double>(points[i].t_ns - points[i - 1].t_ns) /
                  1e9;
      double dv = points[i].value - points[i - 1].value;
      out.push_back(dt > 0 && dv > 0 ? dv / dt : 0.0);
    }
    return out;
  }

  std::vector<double> Values(const std::string& name) const {
    std::vector<double> out;
    auto it = series_.find(name);
    if (it == series_.end()) return out;
    for (const auto& point : it->second) out.push_back(point.value);
    return out;
  }

 private:
  struct Point {
    int64_t t_ns;
    double value;
  };
  std::map<std::string, std::deque<Point>> series_;
};

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Scales the last `width` values against their max onto ▁..█ (all-zero
/// series render as a flat baseline).
std::string Sparkline(const std::vector<double>& values, size_t width) {
  static const char* kBars[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  size_t begin = values.size() > width ? values.size() - width : 0;
  double max = 0;
  for (size_t i = begin; i < values.size(); ++i) {
    max = std::max(max, values[i]);
  }
  std::string out;
  for (size_t i = begin; i < values.size(); ++i) {
    int level =
        max > 0 ? static_cast<int>(values[i] / max * 7.0 + 0.5) : 0;
    out += kBars[std::min(7, std::max(0, level))];
  }
  return out;
}

std::string FormatValue(double v) {
  char buf[64];
  if (std::fabs(v) >= 1e15 || (v != 0 && std::fabs(v) < 1e-3)) {
    std::snprintf(buf, sizeof(buf), "%.3g", v);
  } else if (v == std::floor(v)) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

std::string BaseName(const std::string& sample_name) {
  auto brace = sample_name.find('{');
  return brace == std::string::npos ? sample_name
                                    : sample_name.substr(0, brace);
}

/// Layer key for grouping: "engine" from gdms_engine_tasks_total.
std::string LayerOf(const std::string& base) {
  if (base.rfind("gdms_", 0) != 0) return "other";
  auto next = base.find('_', 5);
  return next == std::string::npos ? "other" : base.substr(5, next - 5);
}

void AppendLine(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
  *out += '\n';
}

/// The Memory panel: process RSS (sparklined), the tracker's byte gauges,
/// columnar-cache occupancy + eviction rate, and per-dataset residency —
/// everything the gdms_mem_* / gdms_storage_* families expose. Rendered as
/// its own section; the generic per-layer listing skips those families.
std::string RenderMemoryPanel(const History& history,
                              const obs::ScrapedExposition& scrape) {
  double rss = history.Last("gdms_mem_rss_bytes");
  if (rss == 0 && history.Last("gdms_mem_tracked_bytes") == 0) {
    return "";  // serving process predates the memory gauges
  }
  std::string out;
  AppendLine(&out, "-- memory %s", std::string(68, '-').c_str());
  AppendLine(&out, "  rss %-10s tracked %-10s budget %-10s %s",
             HumanBytes(static_cast<uint64_t>(rss)).c_str(),
             HumanBytes(static_cast<uint64_t>(
                            history.Last("gdms_mem_tracked_bytes")))
                 .c_str(),
             history.Last("gdms_mem_budget_bytes") > 0
                 ? HumanBytes(static_cast<uint64_t>(
                                  history.Last("gdms_mem_budget_bytes")))
                       .c_str()
                 : "off",
             Sparkline(history.Values("gdms_mem_rss_bytes"), 20).c_str());
  auto evict_rate = history.Rates("gdms_mem_evictions_total");
  AppendLine(&out,
             "  columnar %-10s evictions %s (%.1f/s) %s",
             HumanBytes(static_cast<uint64_t>(
                            history.Last("gdms_mem_columnar_cache_bytes")))
                 .c_str(),
             FormatValue(history.Last("gdms_mem_evictions_total")).c_str(),
             evict_rate.empty() ? 0.0 : evict_rate.back(),
             Sparkline(evict_rate, 12).c_str());
  // Per-dataset residency (labeled gauges).
  const std::string kResident = "gdms_storage_dataset_resident_bytes{";
  for (const auto& [name, value] : scrape.samples) {
    if (name.rfind(kResident, 0) != 0) continue;
    std::string label = name.substr(kResident.size());
    auto quote_end = label.rfind("\"}");
    std::string dataset =
        label.substr(9, quote_end == std::string::npos ? std::string::npos
                                                       : quote_end - 9);
    double columnar = history.Last(
        "gdms_storage_dataset_columnar_bytes{dataset=\"" + dataset + "\"}");
    AppendLine(&out, "  %-24s rows %-10s columnar %-10s", dataset.c_str(),
               HumanBytes(static_cast<uint64_t>(value)).c_str(),
               HumanBytes(static_cast<uint64_t>(columnar)).c_str());
  }
  return out;
}

/// The federation-health panel: per-site circuit-breaker state (the
/// gdms_fed_breaker_state gauge encodes 0=closed 1=open 2=half-open) plus
/// staging occupancy, and one resilience line with retry / hedge / timeout
/// / corruption rates. The generic per-layer listing skips the fed family.
std::string RenderFederationPanel(const History& history,
                                  const obs::ScrapedExposition& scrape) {
  const std::string kBreaker = "gdms_fed_breaker_state{site=\"";
  bool has_breakers = false;
  for (const auto& [name, value] : scrape.samples) {
    if (name.rfind(kBreaker, 0) == 0) has_breakers = true;
  }
  if (history.Last("gdms_fed_requests_total") == 0 && !has_breakers) {
    return "";  // no federation traffic yet
  }
  std::string out;
  AppendLine(&out, "-- federation %s", std::string(64, '-').c_str());
  auto req_rate = history.Rates("gdms_fed_requests_total");
  AppendLine(&out,
             "  requests %-8s (%.1f/s) %s | shipped %-10s received %-10s "
             "wasted %s",
             FormatValue(history.Last("gdms_fed_requests_total")).c_str(),
             req_rate.empty() ? 0.0 : req_rate.back(),
             Sparkline(req_rate, 16).c_str(),
             HumanBytes(static_cast<uint64_t>(
                            history.Last("gdms_fed_bytes_shipped_total")))
                 .c_str(),
             HumanBytes(static_cast<uint64_t>(
                            history.Last("gdms_fed_bytes_received_total")))
                 .c_str(),
             HumanBytes(static_cast<uint64_t>(
                            history.Last("gdms_fed_bytes_wasted_total")))
                 .c_str());
  auto retry_rate = history.Rates("gdms_fed_retries_total");
  auto hedge_rate = history.Rates("gdms_fed_hedges_total");
  auto timeout_rate = history.Rates("gdms_fed_timeouts_total");
  AppendLine(
      &out,
      "  retries %-6s (%.1f/s) %s hedges %-6s (%.1f/s) timeouts %-6s "
      "(%.1f/s) corruptions %-4s partial %s",
      FormatValue(history.Last("gdms_fed_retries_total")).c_str(),
      retry_rate.empty() ? 0.0 : retry_rate.back(),
      Sparkline(retry_rate, 10).c_str(),
      FormatValue(history.Last("gdms_fed_hedges_total")).c_str(),
      hedge_rate.empty() ? 0.0 : hedge_rate.back(),
      FormatValue(history.Last("gdms_fed_timeouts_total")).c_str(),
      timeout_rate.empty() ? 0.0 : timeout_rate.back(),
      FormatValue(history.Last("gdms_fed_corruptions_total")).c_str(),
      FormatValue(history.Last("gdms_fed_partial_results_total")).c_str());
  // Per-site health: breaker state + staging occupancy.
  for (const auto& [name, value] : scrape.samples) {
    if (name.rfind(kBreaker, 0) != 0) continue;
    std::string site = name.substr(kBreaker.size());
    auto quote = site.find('"');
    if (quote != std::string::npos) site = site.substr(0, quote);
    int state = static_cast<int>(value);
    const char* state_name = state == 0   ? "closed"
                             : state == 1 ? "OPEN"
                                          : "half-open";
    double staged = history.Last("gdms_fed_staged_bytes{node=\"" + site +
                                 "\"}");
    double staged_n = history.Last("gdms_fed_staged_results{node=\"" + site +
                                   "\"}");
    AppendLine(&out, "  %-24s breaker %-10s staged %-10s (%s results) %s",
               site.c_str(), state_name,
               HumanBytes(static_cast<uint64_t>(staged)).c_str(),
               FormatValue(staged_n).c_str(),
               Sparkline(history.Values(name), 12).c_str());
  }
  return out;
}

/// The serve panel: session-pool occupancy, admission health and cache
/// effectiveness of a `gdms_shell --serve --workers N` process. The generic
/// per-layer listing skips the serve family.
std::string RenderServePanel(const History& history) {
  if (history.Last("gdms_serve_workers") == 0) {
    return "";  // serving process runs without the session manager
  }
  std::string out;
  AppendLine(&out, "-- serve %s", std::string(69, '-').c_str());
  auto admit_rate = history.Rates("gdms_serve_admitted_total");
  auto reject_rate = history.Rates("gdms_serve_rejected_total");
  AppendLine(&out,
             "  workers %-4s active %-4s queued %-4s | admitted %s (%.1f/s) "
             "%s rejected %s (%.1f/s)",
             FormatValue(history.Last("gdms_serve_workers")).c_str(),
             FormatValue(history.Last("gdms_serve_active_sessions")).c_str(),
             FormatValue(history.Last("gdms_serve_queue_depth")).c_str(),
             FormatValue(history.Last("gdms_serve_admitted_total")).c_str(),
             admit_rate.empty() ? 0.0 : admit_rate.back(),
             Sparkline(admit_rate, 14).c_str(),
             FormatValue(history.Last("gdms_serve_rejected_total")).c_str(),
             reject_rate.empty() ? 0.0 : reject_rate.back());
  double plan_hits = history.Last("gdms_serve_plan_hits_total");
  double plan_total = plan_hits +
                      history.Last("gdms_serve_plan_rebinds_total") +
                      history.Last("gdms_serve_plan_misses_total");
  double result_hits = history.Last("gdms_serve_result_hits_total");
  double result_total =
      result_hits + history.Last("gdms_serve_result_misses_total");
  AppendLine(
      &out,
      "  plan cache %5.1f%% hit (%s lookups) | result cache %5.1f%% hit "
      "(%s lookups, %s invalidations)",
      plan_total > 0 ? 100.0 * plan_hits / plan_total : 0.0,
      FormatValue(plan_total).c_str(),
      result_total > 0 ? 100.0 * result_hits / result_total : 0.0,
      FormatValue(result_total).c_str(),
      FormatValue(history.Last("gdms_serve_result_invalidations_total"))
          .c_str());
  AppendLine(
      &out,
      "  latency us p50 %-8s p95 %-8s p99 %-8s | deadline_exceeded %s "
      "failed %s",
      FormatValue(
          history.Last("gdms_serve_latency_us{quantile=\"0.5\"}"))
          .c_str(),
      FormatValue(
          history.Last("gdms_serve_latency_us{quantile=\"0.95\"}"))
          .c_str(),
      FormatValue(
          history.Last("gdms_serve_latency_us{quantile=\"0.99\"}"))
          .c_str(),
      FormatValue(history.Last("gdms_serve_deadline_exceeded_total")).c_str(),
      FormatValue(history.Last("gdms_serve_failed_total")).c_str());
  return out;
}

/// One "key=\"value\"" extraction from a sample's label block.
std::string LabelValue(const std::string& labels, const std::string& key) {
  std::string needle = key + "=\"";
  auto pos = labels.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  auto end = labels.find('"', pos);
  return labels.substr(
      pos, end == std::string::npos ? std::string::npos : end - pos);
}

/// The "slowest recent traces" panel: the gdms_trace_exemplar_us samples
/// the serving shell appends from its trace exemplar ring — trace id,
/// end-to-end time, why the trace was retained, and its top-2
/// critical-path segments. Hidden until a trace has been retained.
std::string RenderTracesPanel(const obs::ScrapedExposition& scrape) {
  const std::string kPrefix = "gdms_trace_exemplar_us{";
  std::vector<std::pair<int, std::string>> rows;
  for (const auto& [name, value] : scrape.samples) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    std::string labels = name.substr(kPrefix.size());
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  #%s %-18s %12.1f ms  %-8s %-22s %s",
                  LabelValue(labels, "rank").c_str(),
                  LabelValue(labels, "trace").c_str(), value / 1000.0,
                  LabelValue(labels, "reason").c_str(),
                  LabelValue(labels, "seg1").c_str(),
                  LabelValue(labels, "seg2").c_str());
    rows.push_back({std::atoi(LabelValue(labels, "rank").c_str()), buf});
  }
  if (rows.empty()) return "";
  std::sort(rows.begin(), rows.end());
  std::string out;
  AppendLine(&out, "-- slowest recent traces %s", std::string(53, '-').c_str());
  for (auto& [rank, line] : rows) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string RenderFrame(const History& history,
                        const obs::ScrapedExposition& scrape, uint64_t tick,
                        double uptime_s) {
  std::string out;
  // Header: query throughput and latency at a glance.
  {
    double queries = history.Last("gdms_runner_queries_total");
    auto qps = history.Rates("gdms_runner_queries_total");
    double p50 =
        history.Last("gdms_runner_query_latency_us{quantile=\"0.5\"}");
    double p95 =
        history.Last("gdms_runner_query_latency_us{quantile=\"0.95\"}");
    double p99 =
        history.Last("gdms_runner_query_latency_us{quantile=\"0.99\"}");
    AppendLine(&out,
               "gdms_top  tick %" PRIu64
               "  up %.0fs | queries %s (%.1f/s) %s | latency us "
               "p50 %s p95 %s p99 %s",
               tick, uptime_s, FormatValue(queries).c_str(),
               qps.empty() ? 0.0 : qps.back(), Sparkline(qps, 16).c_str(),
               FormatValue(p50).c_str(), FormatValue(p95).c_str(),
               FormatValue(p99).c_str());
  }
  out += RenderServePanel(history);
  out += RenderMemoryPanel(history, scrape);
  out += RenderFederationPanel(history, scrape);
  out += RenderTracesPanel(scrape);
  // Group every scraped sample under its layer. The serve/mem/storage/fed
  // families are rendered by the dedicated panels above, not repeated here
  // (the exemplar gauge too — its ranked rows are the traces panel).
  std::map<std::string, std::vector<std::string>> layer_lines;
  for (const auto& [base, type] : scrape.types) {
    std::string layer = LayerOf(base);
    if (layer == "mem" || layer == "storage" || layer == "fed" ||
        layer == "serve" || base == "gdms_trace_exemplar_us") {
      continue;
    }
    std::string line;
    if (type == "counter") {
      auto rates = history.Rates(base);
      char buf[512];
      std::snprintf(buf, sizeof(buf), "  %-38s %12s  %8.1f/s  %s",
                    base.c_str(), FormatValue(history.Last(base)).c_str(),
                    rates.empty() ? 0.0 : rates.back(),
                    Sparkline(rates, 20).c_str());
      layer_lines[layer].push_back(buf);
    } else if (type == "gauge") {
      // Gauges may be labeled (one sample per site); render each variant.
      for (const auto& [name, value] : scrape.samples) {
        if (BaseName(name) != base) continue;
        char buf[512];
        std::snprintf(buf, sizeof(buf), "  %-38s %12s  %10s  %s",
                      name.c_str(), FormatValue(value).c_str(), "",
                      Sparkline(history.Values(name), 20).c_str());
        layer_lines[layer].push_back(buf);
      }
    } else if (type == "summary") {
      double p50 = history.Last(base + "{quantile=\"0.5\"}");
      double p95 = history.Last(base + "{quantile=\"0.95\"}");
      double p99 = history.Last(base + "{quantile=\"0.99\"}");
      auto rates = history.Rates(base + "_count");
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "  %-38s p50 %-8s p95 %-8s p99 %-8s %s", base.c_str(),
                    FormatValue(p50).c_str(), FormatValue(p95).c_str(),
                    FormatValue(p99).c_str(), Sparkline(rates, 12).c_str());
      layer_lines[layer].push_back(buf);
    }
  }
  // Stable layer order: the engine/runner hot path first, then everything
  // else alphabetically (federation has its own panel above).
  std::vector<std::string> order = {"runner", "engine", "core", "search"};
  for (const auto& [layer, lines] : layer_lines) {
    if (std::find(order.begin(), order.end(), layer) == order.end()) {
      order.push_back(layer);
    }
  }
  for (const auto& layer : order) {
    auto it = layer_lines.find(layer);
    if (it == layer_lines.end()) continue;
    AppendLine(&out, "-- %s %s", layer.c_str(),
               std::string(74 - std::min<size_t>(70, layer.size()), '-')
                   .c_str());
    for (const auto& line : it->second) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Demo workload
// ---------------------------------------------------------------------------

/// Background query mix for --demo: parallel-engine queries over simulated
/// peak/annotation data with a federated broadcast every few iterations, so
/// every dashboard section (engine, runner, fed) shows movement.
class DemoWorkload {
 public:
  void Start() {
    auto genome = gdm::GenomeAssembly::HumanLike(4, 20000000);
    sim::PeakDatasetOptions popt;
    popt.num_samples = 4;
    popt.peaks_per_sample = 800;
    gdm::Dataset peaks = sim::GeneratePeakDataset(genome, popt, 1);
    peaks.set_name("ENCODE");
    auto catalog = sim::GenerateGenes(genome, 200, 1);
    gdm::Dataset genes = sim::GenerateAnnotations(genome, catalog, {}, 1);
    genes.set_name("ANNOTATIONS");

    engine::EngineOptions eopt;
    eopt.threads = 2;
    executor_ = std::make_unique<engine::ParallelExecutor>(eopt);
    runner_ = std::make_unique<core::QueryRunner>(executor_.get());
    runner_->RegisterDataset(peaks);
    runner_->RegisterDataset(genes);

    site_a_ = std::make_unique<repo::FederatedNode>("site_a");
    site_b_ = std::make_unique<repo::FederatedNode>("site_b");
    site_a_->catalog()->Put(peaks);
    site_b_->catalog()->Put(peaks);
    coordinator_ = std::make_unique<repo::Coordinator>();
    coordinator_->AddNode(site_a_.get());
    coordinator_->AddNode(site_b_.get());
    // A lightly faulty link to site_b so the federation panel shows live
    // retry/breaker movement in the demo.
    repo::LinkProfile flaky;
    flaky.drop_rate = 0.10;
    flaky.seed = 5;
    coordinator_->transport()->SetLinkProfile("site_b", flaky);

    thread_ = std::thread([this] { Loop(); });
  }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    const char* kQueries[] = {
        "S = SELECT(dataType == 'ChipSeq'; region: signal >= 2) ENCODE; "
        "MATERIALIZE S;",
        "M = MAP(n AS COUNT) ANNOTATIONS ENCODE; MATERIALIZE M;",
        "C = COVER(2, ANY) ENCODE; MATERIALIZE C;",
    };
    uint64_t i = 0;
    while (!stop_.load()) {
      if (i % 5 == 4) {
        (void)coordinator_->RunEverywhere(
            "F = SELECT(dataType == 'ChipSeq'; region: signal >= 3) ENCODE; "
            "MATERIALIZE F;");
      } else {
        (void)runner_->Run(kQueries[i % 3]);
      }
      ++i;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }

  std::unique_ptr<engine::ParallelExecutor> executor_;
  std::unique_ptr<core::QueryRunner> runner_;
  std::unique_ptr<repo::FederatedNode> site_a_;
  std::unique_ptr<repo::FederatedNode> site_b_;
  std::unique_ptr<repo::Coordinator> coordinator_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "gdms_top: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--demo") {
      opts.demo = true;
    } else if (arg == "--attach") {
      const char* v = next();
      if (v == nullptr) return Fail("--attach needs an exposition file");
      opts.attach_path = v;
    } else if (arg == "--period-ms") {
      const char* v = next();
      if (v == nullptr) return Fail("--period-ms needs a value");
      opts.period_ms = std::atoll(v);
    } else if (arg == "--ticks") {
      const char* v = next();
      if (v == nullptr) return Fail("--ticks needs a count");
      opts.ticks = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--no-ansi") {
      opts.ansi = false;
    } else if (arg == "--help" || arg == "-h") {
      std::puts(
          "usage: gdms_top (--attach FILE | --demo)\n"
          "               [--period-ms N] [--ticks N] [--no-ansi]\n"
          "  --attach FILE  poll a gdms_shell --serve --expo file\n"
          "  --demo         drive an in-process workload and watch it\n"
          "  --ticks N      render N frames then exit (0 = forever)");
      return 0;
    } else {
      return Fail("unknown argument " + arg + " (try --help)");
    }
  }
  if (!opts.demo && opts.attach_path.empty()) {
    return Fail("pick a mode: --attach FILE or --demo");
  }
  if (opts.demo && !opts.attach_path.empty()) {
    return Fail("--demo and --attach are mutually exclusive");
  }
  if (opts.period_ms <= 0) return Fail("--period-ms must be positive");

  DemoWorkload workload;
  if (opts.demo) workload.Start();

  History history;
  auto start = std::chrono::steady_clock::now();
  uint64_t waits_left = 20;  // attach mode: tolerate a late first dump
  for (uint64_t tick = 1; opts.ticks == 0 || tick <= opts.ticks; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.period_ms));
    std::string text;
    if (opts.demo) {
      text = obs::RenderExposition(obs::MetricsRegistry::Global());
    } else {
      std::ifstream in(opts.attach_path);
      if (!in) {
        if (--waits_left == 0) {
          workload.Stop();
          return Fail("no exposition at " + opts.attach_path);
        }
        std::printf("waiting for %s ...\n", opts.attach_path.c_str());
        --tick;
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
    auto now = std::chrono::steady_clock::now();
    int64_t t_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
            .count();
    obs::ScrapedExposition scrape = obs::ParseExposition(text);
    history.Ingest(scrape, t_ns);
    std::string frame = RenderFrame(
        history, scrape, tick,
        std::chrono::duration<double>(now - start).count());
    if (opts.ansi) {
      std::fputs("\x1b[H\x1b[2J", stdout);
    } else if (tick > 1) {
      std::puts("========");
    }
    std::fputs(frame.c_str(), stdout);
    std::fflush(stdout);
  }
  if (opts.demo) workload.Stop();
  return 0;
}
