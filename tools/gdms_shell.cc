// gdms_shell — batch GMQL runner over files, and a long-running serve loop.
//
// Loads datasets from BED / narrowPeak / GTF / VCF / native-GDM files, runs
// a GMQL program (from a file, the command line, or stdin), prints result
// summaries and optionally writes each materialized dataset back out in the
// native GDM format.
//
// Usage:
//   gdms_shell [--load NAME=FILE]... [--query FILE | --exec GMQL]
//              [--out DIR] [--parallel [THREADS]] [--no-optimize]
//              [--no-fusion] [--show CHR:LEFT-RIGHT]
//              [--demo] [--gdmz-selftest] [--mem-budget-mb X]
//              [--trace FILE.json] [--metrics]
//              [--serve] [--sample-ms N] [--query-log FILE]
//              [--slow-ms X] [--expo FILE]
//
// Prefixing the GMQL text with EXPLAIN ANALYZE turns on tracing for the run
// and prints the per-operator profile tree (wall time, self time, task
// counts, partition skew) after the result summaries.
//
// --serve turns the shell into a long-running service loop reading commands
// from stdin: GMQL lines are executed as queries; `.`-prefixed commands
// control telemetry (`.help` lists them). While serving, a background
// sampler snapshots the metrics registry every --sample-ms (default 100,
// 0 disables) and, when --expo is given, rewrites the Prometheus-style
// exposition file atomically on every tick so a scraper or `gdms_top
// --attach` can poll it. --query-log appends one JSON line per query
// (schema in README "Operating GDMS"); queries at or above --slow-ms
// escalate their entry to a full embedded EXPLAIN ANALYZE capture.
//
// --mem-budget-mb X (fractional MB allowed) sets the resource tracker's
// memory budget over reclaimable bytes (columnar caches): after each
// query the watermark shedder evicts LRU caches until usage is back
// under the budget. Results are bit-identical either way —
// only rebuild cost changes. `.mem` in serve mode prints the last query's
// accounting tree (query -> operator -> bytes) and storage residency.
//
// Examples:
//   gdms_shell --load PEAKS=peaks.narrowPeak --load GENES=genes.gtf \
//              --exec "R = MAP(n AS COUNT) GENES PEAKS; MATERIALIZE R;" \
//              --out results/
//   gdms_shell --demo --exec "C = COVER(2, ANY) ENCODE; MATERIALIZE C;" \
//              --show chr1:0-2000000
//   gdms_shell --demo --parallel 4 --serve --sample-ms 100 \
//              --expo expo.prom --query-log queries.jsonl --slow-ms 50

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "io/bed.h"
#include "io/gdm_format.h"
#include "io/gdmz.h"
#include "io/gtf.h"
#include "io/track_render.h"
#include "io/vcf.h"
#include "obs/dtrace.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "obs/resource.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "repo/catalog.h"
#include "repo/federation.h"
#include "serve/serve_catalog.h"
#include "serve/session_manager.h"
#include "sim/generators.h"

namespace {

using namespace gdms;  // NOLINT: tool brevity

int Fail(const std::string& message) {
  std::fprintf(stderr, "gdms_shell: %s\n", message.c_str());
  return 1;
}

Result<gdm::Dataset> LoadFile(const std::string& name,
                              const std::string& path) {
  if (EndsWith(path, ".gdmz")) {
    // Binary columnar format; decoded straight out of the mapped file.
    GDMS_ASSIGN_OR_RETURN(gdm::Dataset ds, io::OpenGdmz(path));
    ds.set_name(name);
    return ds;
  }
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  if (EndsWith(path, ".gdm")) {
    GDMS_ASSIGN_OR_RETURN(gdm::Dataset ds, io::ReadGdm(in));
    ds.set_name(name);
    return ds;
  }
  gdm::RegionSchema schema;
  gdm::Sample sample(1);
  if (EndsWith(path, ".narrowPeak") || EndsWith(path, ".narrowpeak")) {
    GDMS_ASSIGN_OR_RETURN(sample, io::ReadNarrowPeakSample(in, 1));
    schema = io::NarrowPeakSchema();
  } else if (EndsWith(path, ".broadPeak") || EndsWith(path, ".broadpeak")) {
    GDMS_ASSIGN_OR_RETURN(sample, io::ReadBroadPeakSample(in, 1));
    schema = io::BroadPeakSchema();
  } else if (EndsWith(path, ".gtf") || EndsWith(path, ".gff")) {
    GDMS_ASSIGN_OR_RETURN(sample,
                          io::ReadGtfSample(in, 1, {"gene_id", "gene_name"}));
    schema = io::GtfSchema({"gene_id", "gene_name"});
  } else if (EndsWith(path, ".vcf")) {
    GDMS_ASSIGN_OR_RETURN(sample, io::ReadVcfSample(in, 1));
    schema = io::VcfSchema();
  } else if (EndsWith(path, ".bed")) {
    GDMS_ASSIGN_OR_RETURN(sample, io::ReadBedSample(in, 1));
    int columns =
        3 + static_cast<int>(sample.regions.empty()
                                 ? 0
                                 : sample.regions[0].values.size());
    schema = io::BedSchema(columns >= 5 ? 5 : columns);
  } else {
    return Status::InvalidArgument(
        "unrecognized extension (want .bed/.narrowPeak/.gtf/.vcf/.gdm/.gdmz): " +
        path);
  }
  sample.metadata.Add("source_file", path);
  gdm::Dataset ds(name, schema);
  ds.AddSample(std::move(sample));
  GDMS_RETURN_NOT_OK(ds.Validate());
  return ds;
}

void LoadDemo(core::QueryRunner* runner) {
  auto genome = gdm::GenomeAssembly::HumanLike(6, 50000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 6;
  popt.peaks_per_sample = 2000;
  runner->RegisterDataset(sim::GeneratePeakDataset(genome, popt, 1));
  auto catalog = sim::GenerateGenes(genome, 500, 1);
  runner->RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 1));
}

/// Strips a leading case-insensitive "EXPLAIN ANALYZE" from the query text;
/// returns whether it was present.
bool StripExplainAnalyze(std::string* gmql) {
  std::string text(Trim(*gmql));
  const char* words[] = {"EXPLAIN", "ANALYZE"};
  size_t pos = 0;
  for (const char* word : words) {
    size_t len = std::strlen(word);
    if (text.size() < pos + len) return false;
    for (size_t i = 0; i < len; ++i) {
      if (std::toupper(static_cast<unsigned char>(text[pos + i])) != word[i]) {
        return false;
      }
    }
    pos += len;
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  *gmql = text.substr(pos);
  return true;
}

/// `--gdmz-selftest`: an in-process smoke of the binary format, runnable
/// under the sanitizer builds in CI. Round-trips a generated dataset
/// through .gdmz, checks the result is byte-identical to the text
/// round-trip (the formats share the decimal-6 double fidelity), and feeds
/// the decoder truncated and corrupted images, which must be rejected — not
/// crash, not loop — or, when a corrupted one opens, decode every
/// attribute safely.
int RunGdmzSelftest() {
  auto genome = gdm::GenomeAssembly::HumanLike(4, 30000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 4;
  popt.peaks_per_sample = 1000;
  gdm::Dataset generated = sim::GeneratePeakDataset(genome, popt, 7);
  // A text round-trip first, so the baseline carries text-representable
  // doubles (the equality below is then exact, not approximate).
  auto base = io::ReadGdmString(io::WriteGdmString(generated));
  if (!base.ok()) {
    return Fail("selftest: text round-trip: " + base.status().ToString());
  }
  std::string bin = io::WriteGdmzString(base.value());
  auto back = io::ReadGdmzString(bin);
  if (!back.ok()) {
    return Fail("selftest: gdmz round-trip: " + back.status().ToString());
  }
  std::string text_a = io::WriteGdmString(base.value());
  std::string text_b = io::WriteGdmString(back.value());
  if (text_a != text_b) {
    return Fail("selftest: gdmz round-trip diverged from the text form");
  }
  for (size_t cut = 0; cut < bin.size(); cut = cut * 2 + 7) {
    if (io::ReadGdmzBytes(std::string_view(bin.data(), cut)).ok()) {
      return Fail("selftest: truncated image accepted at " +
                  std::to_string(cut) + " bytes");
    }
  }
  std::string corrupt = bin;
  for (size_t i = 0; i < corrupt.size(); i += 97) {
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    // Decoding flipped bytes may legitimately succeed for payload bytes
    // that only change values; the requirement is no crash/UB (the point
    // of running this under ASan/UBSan). Attributes decode on first use,
    // so every one of a successful parse is forced too.
    auto decoded = io::ReadGdmzBytes(corrupt);
    if (decoded.ok()) {
      for (const auto& s : decoded.value().samples()) (void)s.regions.rows();
      (void)io::WriteGdmString(decoded.value());
    }
    corrupt[i] = bin[i];
  }
  std::printf("gdmz selftest ok: %zu text bytes -> %zu gdmz bytes (%.2fx)\n",
              text_a.size(), bin.size(),
              static_cast<double>(text_a.size()) /
                  static_cast<double>(bin.size()));
  return 0;
}

// ---------------------------------------------------------------------------
// Serve mode
// ---------------------------------------------------------------------------

struct ServeConfig {
  int64_t sample_ms = 100;  ///< sampler period; 0 disables the sampler
  double slow_ms = 250.0;   ///< query-log slow threshold
  std::string query_log_path;
  std::string expo_path;
  /// Fault profile applied to every federation link (the .fed driver):
  /// lets a long-running serve session exercise retries, hedges and
  /// breakers with live telemetry. Defaults are a perfect wire.
  repo::LinkProfile fed_link;
  size_t fed_sites = 2;  ///< sites built by EnsureFederation
  /// --workers N: route queries through the multi-session server core
  /// (serve::SessionManager) instead of the single shared runner. 0 keeps
  /// the classic single-runner loop.
  size_t workers = 0;
  size_t queue_limit = 64;   ///< --queue-limit
  double deadline_ms = 0;    ///< --deadline-ms (0 = none)
  size_t engine_threads = 1; ///< per-worker engine threads (from --parallel)
  core::ExecOptions exec;    ///< optimize/fusion for prepares
};

/// The long-running loop behind `gdms_shell --serve`: reads commands from
/// stdin, executes GMQL queries against the shared runner, and keeps the
/// telemetry pipeline (sampler, exposition file, query log) live throughout.
class ServeSession {
 public:
  ServeSession(core::QueryRunner* runner, ServeConfig config)
      : runner_(runner), config_(std::move(config)) {
    if (!config_.query_log_path.empty()) {
      obs::QueryLogOptions opt;
      opt.path = config_.query_log_path;
      opt.slow_ms = config_.slow_ms;
      log_ = std::make_unique<obs::QueryLog>(opt);
    }
  }

  int Loop() {
    if (config_.workers > 0) {
      // Multi-session server core: publish every registered dataset into
      // the shared versioned catalog and admit queries through the session
      // manager (plan cache, result cache, bounded queue, deadlines).
      catalog_ = std::make_unique<serve::ServeCatalog>();
      for (const auto& name : runner_->DatasetNames()) {
        catalog_->Publish(*runner_->FindDataset(name));
      }
      serve::ServeOptions opt;
      opt.workers = config_.workers;
      opt.queue_limit = config_.queue_limit;
      opt.default_deadline_ms = config_.deadline_ms;
      opt.engine_threads = config_.engine_threads;
      opt.exec = config_.exec;
      // Tail-based trace retention shares the query-log slow threshold.
      opt.trace_slow_ms = config_.slow_ms;
      manager_ = std::make_unique<serve::SessionManager>(catalog_.get(), opt);
    }
    // Tracing stays on for the whole session: the query log needs profile
    // trees for self-times and slow-query EXPLAIN capture. The span buffer
    // is cleared after every query so a long-running serve never fills
    // Tracer::kMaxSpans and silently stops capturing. The tracer's single
    // current-parent slot is not safe across concurrent sessions, so it
    // stays off when more than one worker can execute at once.
    obs::Tracer::Global().set_enabled(config_.workers <= 1);
    obs::Sampler sampler;
    if (config_.sample_ms > 0) {
      obs::SamplerOptions opt;
      opt.period_ms = config_.sample_ms;
      if (!config_.expo_path.empty()) {
        std::string path = config_.expo_path;
        opt.on_tick = [path](uint64_t) {
          obs::WriteExpositionFile(
              obs::MetricsRegistry::Global(), path,
              obs::TraceExemplars::Global().RenderExposition());
        };
      }
      sampler.Start(opt);
    }
    std::printf(
        "gdms_shell serving: workers=%zu sampler=%s expo=%s query-log=%s "
        "slow-ms=%.0f\n"
        "type GMQL to run it, .help for commands, .quit or EOF to stop\n",
        config_.workers,
        config_.sample_ms > 0
            ? (std::to_string(config_.sample_ms) + "ms").c_str()
            : "off",
        config_.expo_path.empty() ? "-" : config_.expo_path.c_str(),
        config_.query_log_path.empty() ? "-" : config_.query_log_path.c_str(),
        config_.slow_ms);
    std::string line;
    while (std::getline(std::cin, line)) {
      std::string text(Trim(line));
      if (text.empty() || text[0] == '#') continue;
      if (text[0] == '.') {
        if (!Dispatch(text)) break;
      } else if (manager_ != nullptr) {
        ExecServe(text);
      } else {
        ExecQuery(text);
      }
    }
    if (manager_ != nullptr) manager_->Drain();
    sampler.Stop();
    if (config_.sample_ms > 0) sampler.SampleOnce();
    if (!config_.expo_path.empty()) {
      obs::WriteExpositionFile(obs::MetricsRegistry::Global(),
                               config_.expo_path,
                               obs::TraceExemplars::Global().RenderExposition());
    }
    std::printf("served %llu queries (%llu failed, %llu slow)\n",
                static_cast<unsigned long long>(queries_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(slow_));
    return 0;
  }

 private:
  /// Handles a `.command` line; false means quit.
  bool Dispatch(const std::string& text) {
    auto space = text.find_first_of(" \t");
    std::string cmd = text.substr(0, space);
    std::string rest(
        space == std::string::npos ? "" : Trim(text.substr(space + 1)));
    if (cmd == ".quit" || cmd == ".exit") return false;
    if (cmd == ".help") {
      std::puts(
          "  <gmql>              run a query (EXPLAIN ANALYZE prefix works)\n"
          "  .metrics [FILE]     dump exposition to stdout or FILE\n"
          "  .mem                last query's byte tree + storage residency\n"
          "  .sessions           session-manager status (--workers mode)\n"
          "  .cache              plan + result cache summaries\n"
          "  .bump NAME          republish a dataset (bump its version)\n"
          "  .fed <gmql>         run the query on an in-process 2-site "
          "federation\n"
          "  .trace [ID [FILE]]  list retained traces; dump one (\"last\" or "
          "a hex-id\n"
          "                      prefix), or export it as Chrome JSON to "
          "FILE\n"
          "  .repeat N <gmql>    run the query N times\n"
          "  .sleep MS           pause (lets the sampler tick)\n"
          "  .datasets           list registered datasets\n"
          "  .quit               stop serving");
      return true;
    }
    if (cmd == ".sessions") {
      if (manager_ == nullptr) {
        std::puts("sessions off (start with --workers N)");
      } else {
        std::fputs(manager_->RenderSessions().c_str(), stdout);
      }
      return true;
    }
    if (cmd == ".cache") {
      if (manager_ == nullptr) {
        std::puts("caches off (start with --workers N)");
      } else {
        std::fputs(manager_->plan_cache().RenderSummary().c_str(), stdout);
        std::fputs(manager_->result_cache().RenderSummary().c_str(), stdout);
      }
      return true;
    }
    if (cmd == ".bump") {
      if (manager_ == nullptr) {
        std::puts("error: .bump needs --workers mode");
        return true;
      }
      serve::ServeCatalog::Snapshot snap = catalog_->Resolve(rest);
      if (snap.data == nullptr) {
        std::printf("error: unknown dataset %s\n", rest.c_str());
        return true;
      }
      uint64_t version = catalog_->Publish(*snap.data);
      std::printf("bumped %s to version %llu (cached results invalidated)\n",
                  rest.c_str(), static_cast<unsigned long long>(version));
      return true;
    }
    if (cmd == ".datasets") {
      for (const auto& name : runner_->DatasetNames()) {
        const gdm::Dataset* ds = runner_->FindDataset(name);
        std::printf("  %s: %zu samples, %llu regions\n", name.c_str(),
                    ds->num_samples(),
                    static_cast<unsigned long long>(ds->TotalRegions()));
      }
      return true;
    }
    if (cmd == ".mem") {
      const core::RunStats& stats = runner_->last_stats();
      std::printf("last query  alloc %s  peak %s\n",
                  HumanBytes(stats.alloc_bytes).c_str(),
                  HumanBytes(stats.peak_bytes).c_str());
      for (const obs::OpByteStat& op : stats.op_bytes) {
        std::printf("  %-24s alloc %-12s peak %-12s (%llu charge%s)\n",
                    op.op.c_str(), HumanBytes(op.alloc_bytes).c_str(),
                    HumanBytes(op.peak_bytes).c_str(),
                    static_cast<unsigned long long>(op.charges),
                    op.charges == 1 ? "" : "s");
      }
      std::fputs(
          obs::ResourceTracker::Global().RenderStorageSummary().c_str(),
          stdout);
      return true;
    }
    if (cmd == ".metrics") {
      std::string expo =
          obs::RenderExposition(obs::MetricsRegistry::Global());
      if (rest.empty()) {
        std::fputs(expo.c_str(), stdout);
      } else if (obs::WriteExpositionFile(obs::MetricsRegistry::Global(),
                                          rest)) {
        std::printf("wrote exposition to %s\n", rest.c_str());
      } else {
        std::printf("error: cannot write %s\n", rest.c_str());
      }
      return true;
    }
    if (cmd == ".sleep") {
      auto ms = ParseInt64(rest);
      if (!ms.ok() || ms.value() < 0) {
        std::puts("error: .sleep needs a millisecond count");
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(ms.value()));
      return true;
    }
    if (cmd == ".repeat") {
      auto space2 = rest.find_first_of(" \t");
      auto count = ParseInt64(rest.substr(0, space2));
      std::string gmql(
          space2 == std::string::npos ? "" : Trim(rest.substr(space2 + 1)));
      if (!count.ok() || count.value() <= 0 || gmql.empty()) {
        std::puts("error: usage is .repeat N <gmql>");
        return true;
      }
      for (int64_t i = 0; i < count.value(); ++i) ExecQuery(gmql);
      return true;
    }
    if (cmd == ".fed") {
      if (rest.empty()) {
        std::puts("error: usage is .fed <gmql>");
      } else {
        ExecFederated(rest);
      }
      return true;
    }
    if (cmd == ".trace") {
      if (rest.empty()) {
        std::fputs(obs::TraceExemplars::Global().RenderList().c_str(), stdout);
        return true;
      }
      auto space2 = rest.find_first_of(" \t");
      std::string id = rest.substr(0, space2);
      std::string file(
          space2 == std::string::npos ? "" : Trim(rest.substr(space2 + 1)));
      std::shared_ptr<const obs::DistTrace> trace =
          obs::TraceExemplars::Global().Find(id);
      if (trace == nullptr) {
        std::printf("error: no retained trace matches %s (.trace lists them)\n",
                    id.c_str());
        return true;
      }
      if (file.empty()) {
        std::fputs(trace->RenderTree().c_str(), stdout);
      } else {
        std::ofstream out(file);
        if (!out) {
          std::printf("error: cannot write %s\n", file.c_str());
          return true;
        }
        // A *.chrome.json target gets the chrome://tracing export (one lane
        // per site); anything else gets the full stitched-trace JSON with
        // span parent links and the critical path (what check_telemetry.py
        // --trace-json validates).
        bool chrome = EndsWith(file, ".chrome.json");
        out << (chrome ? trace->RenderChromeTrace() : trace->RenderJson());
        std::printf("wrote %s trace %s to %s\n", chrome ? "chrome" : "stitched",
                    trace->id.ToHex().c_str(), file.c_str());
      }
      return true;
    }
    std::printf("error: unknown command %s (try .help)\n", cmd.c_str());
    return true;
  }

  void ExecQuery(const std::string& gmql_in) {
    std::string gmql = gmql_in;
    bool explain = StripExplainAnalyze(&gmql);
    auto start = std::chrono::steady_clock::now();
    auto results = runner_->Run(gmql);
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    ++queries_;
    obs::QueryLogEntry entry;
    if (results.ok()) {
      entry = core::MakeQueryLogEntry(gmql, runner_->last_stats());
      uint64_t regions = 0;
      for (const auto& [name, ds] : results.value()) {
        regions += ds.TotalRegions();
      }
      std::printf("[%llu] ok: %zu outputs, %llu regions, %.1f ms\n",
                  static_cast<unsigned long long>(queries_),
                  results.value().size(),
                  static_cast<unsigned long long>(regions), entry.wall_ms);
      if (explain && entry.profile != nullptr) {
        std::printf("%s", entry.profile->RenderTree().c_str());
      }
    } else {
      ++failed_;
      entry = core::MakeQueryLogEntry(gmql, core::RunStats{},
                                      results.status().ToString());
      entry.wall_ms = wall_ms;
      std::printf("[%llu] error: %s\n",
                  static_cast<unsigned long long>(queries_),
                  results.status().ToString().c_str());
    }
    if (entry.wall_ms >= config_.slow_ms) ++slow_;
    if (log_ != nullptr) log_->Record(entry);
    obs::Tracer::Global().Clear();
  }

  /// --workers mode: runs the query through the session manager (admission
  /// control, plan cache, result cache over catalog snapshots).
  void ExecServe(const std::string& gmql_in) {
    std::string gmql = gmql_in;
    bool explain = StripExplainAnalyze(&gmql);
    serve::ServeResponse resp = manager_->Execute(gmql);
    ++queries_;
    obs::QueryLogEntry entry;
    if (resp.status.ok()) {
      entry = core::MakeQueryLogEntry(gmql, resp.stats);
      entry.wall_ms = resp.total_ms;
      size_t outputs = 0;
      uint64_t regions = 0;
      if (resp.results != nullptr) {
        outputs = resp.results->size();
        for (const auto& [name, ds] : *resp.results) {
          regions += ds.TotalRegions();
        }
      }
      std::printf(
          "[%llu] ok: %zu outputs, %llu regions, %.1f ms "
          "(plan %s%s, queue %.1f ms, worker %llu)\n",
          static_cast<unsigned long long>(resp.id), outputs,
          static_cast<unsigned long long>(regions), resp.total_ms,
          resp.plan_cache, resp.result_cache_hit ? " + result cache" : "",
          resp.queue_ms, static_cast<unsigned long long>(resp.worker));
      if (explain && entry.profile != nullptr) {
        std::printf("%s", entry.profile->RenderTree().c_str());
      }
    } else {
      ++failed_;
      entry = core::MakeQueryLogEntry(gmql, core::RunStats{},
                                      resp.status.ToString());
      entry.wall_ms = resp.total_ms;
      std::printf("[%llu] error: %s\n",
                  static_cast<unsigned long long>(resp.id),
                  resp.status.ToString().c_str());
    }
    entry.serve = true;
    entry.session_id = resp.id;
    entry.queue_ms = resp.queue_ms;
    entry.plan_cache = resp.plan_cache;
    entry.result_cache_hit = resp.result_cache_hit;
    if (resp.trace != nullptr) {
      entry.trace_id = resp.trace->id.ToHex();
      entry.critical_path = obs::CriticalPath(*resp.trace);
    }
    if (entry.wall_ms >= config_.slow_ms) ++slow_;
    if (log_ != nullptr) log_->Record(entry);
    obs::Tracer::Global().Clear();
  }

  /// Runs the query over a lazily built in-process federation (two sites,
  /// both holding every registered dataset) so federation counters, hops
  /// and per-site staging gauges show real traffic in the exposition.
  void ExecFederated(const std::string& gmql) {
    EnsureFederation();
    repo::ProtocolCounters before = coordinator_->counters();
    const repo::FedStats before_fed = coordinator_->fed_stats();
    // Deterministic trace identity: the per-session .fed sequence number and
    // the transport seed, so two runs with the same seed and query order
    // mint identical trace ids and (virtual-time spans) identical traces.
    coordinator_->BeginTrace(
        obs::MintTraceId(++fed_trace_seq_, config_.fed_link.seed));
    auto start = std::chrono::steady_clock::now();
    auto results = coordinator_->RunEverywhere(gmql);
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    ++queries_;
    obs::QueryLogEntry entry;
    entry.query = ".fed " + gmql;
    entry.wall_ms = wall_ms;
    const repo::ProtocolCounters& after = coordinator_->counters();
    entry.fed_requests = after.requests - before.requests;
    entry.fed_bytes_shipped = after.bytes_sent - before.bytes_sent;
    entry.fed_bytes_received = after.bytes_received - before.bytes_received;
    if (results.ok()) {
      const repo::FederatedResult& fed = results.value();
      const repo::FedStats& stats = coordinator_->fed_stats();
      std::printf(
          "[%llu] ok (federated, %s): %zu outputs, %llu requests, "
          "%s shipped, %s received, %.1f ms\n",
          static_cast<unsigned long long>(queries_), fed.Annotation().c_str(),
          fed.datasets.size(),
          static_cast<unsigned long long>(entry.fed_requests),
          HumanBytes(entry.fed_bytes_shipped).c_str(),
          HumanBytes(entry.fed_bytes_received).c_str(), wall_ms);
      if (stats.retries + stats.hedges + stats.timeouts +
              stats.breaker_trips >
          0) {
        std::printf(
            "      resilience: %llu retries, %llu hedges, %llu timeouts, "
            "%llu breaker trips, %s wasted\n",
            static_cast<unsigned long long>(stats.retries),
            static_cast<unsigned long long>(stats.hedges),
            static_cast<unsigned long long>(stats.timeouts),
            static_cast<unsigned long long>(stats.breaker_trips),
            HumanBytes(stats.wasted_bytes).c_str());
      }
    } else {
      ++failed_;
      entry.ok = false;
      entry.error = results.status().ToString();
      std::printf("[%llu] error (federated): %s\n",
                  static_cast<unsigned long long>(queries_),
                  entry.error.c_str());
    }
    // Tail-based retention: faulted (retry/hedge/timeout/breaker activity),
    // partial, errored or slow federated queries keep their stitched trace
    // in the exemplar ring; clean fast ones only contribute to the
    // critical-path histograms.
    const repo::FedStats& after_fed = coordinator_->fed_stats();
    bool faulted = (after_fed.retries - before_fed.retries) +
                       (after_fed.hedges - before_fed.hedges) +
                       (after_fed.timeouts - before_fed.timeouts) +
                       (after_fed.breaker_fast_fails -
                        before_fed.breaker_fast_fails) >
                   0;
    bool partial = results.ok() && !results.value().complete();
    std::string reason;
    if (!results.ok()) {
      reason = "error";
    } else if (partial) {
      reason = "partial";
    } else if (faulted) {
      reason = "faulted";
    } else if (wall_ms >= config_.slow_ms) {
      reason = "slow";
    }
    auto trace = std::make_shared<const obs::DistTrace>(
        coordinator_->FinishTrace(reason));
    std::vector<obs::PathSegment> critical = obs::CriticalPath(*trace);
    obs::RecordCriticalPathMetrics(critical);
    if (!reason.empty()) obs::TraceExemplars::Global().Keep(trace);
    entry.trace_id = trace->id.ToHex();
    entry.critical_path = std::move(critical);
    if (entry.wall_ms >= config_.slow_ms) ++slow_;
    if (log_ != nullptr) log_->Record(entry);
    obs::Tracer::Global().Clear();
  }

  void EnsureFederation() {
    if (coordinator_ != nullptr) return;
    coordinator_ = std::make_unique<repo::Coordinator>();
    size_t sites = std::max<size_t>(config_.fed_sites, 1);
    for (size_t s = 0; s < sites; ++s) {
      std::string name = "site_" + std::string(1, static_cast<char>('a' + s));
      auto node = std::make_unique<repo::FederatedNode>(name);
      for (const auto& ds_name : runner_->DatasetNames()) {
        node->catalog()->Put(*runner_->FindDataset(ds_name));
      }
      coordinator_->AddNode(node.get());
      repo::LinkProfile profile = config_.fed_link;
      profile.seed = config_.fed_link.seed + s;  // distinct fault schedules
      coordinator_->transport()->SetLinkProfile(name, profile);
      sites_.push_back(std::move(node));
    }
    std::printf(
        "federation up: %zu sites, %zu datasets each "
        "(link: %llums latency, drop %.2f, stall %.2f, corrupt %.2f%s)\n",
        sites_.size(), runner_->DatasetNames().size(),
        static_cast<unsigned long long>(config_.fed_link.latency_us / 1000),
        config_.fed_link.drop_rate, config_.fed_link.stall_rate,
        config_.fed_link.corrupt_rate,
        config_.fed_link.dead ? ", DEAD" : "");
  }

  core::QueryRunner* runner_;
  ServeConfig config_;
  std::unique_ptr<serve::ServeCatalog> catalog_;
  std::unique_ptr<serve::SessionManager> manager_;
  std::unique_ptr<obs::QueryLog> log_;
  std::vector<std::unique_ptr<repo::FederatedNode>> sites_;
  std::unique_ptr<repo::Coordinator> coordinator_;
  uint64_t queries_ = 0;
  uint64_t failed_ = 0;
  uint64_t slow_ = 0;
  /// .fed queries issued — the deterministic half of each .fed trace id.
  uint64_t fed_trace_seq_ = 0;
};

/// Parses "chr1:0-2000000".
Result<io::TrackWindow> ParseWindow(const std::string& spec) {
  auto colon = spec.find(':');
  auto dash = spec.find('-', colon == std::string::npos ? 0 : colon);
  if (colon == std::string::npos || dash == std::string::npos) {
    return Status::InvalidArgument("window must be CHR:LEFT-RIGHT: " + spec);
  }
  io::TrackWindow window;
  window.chrom = gdm::InternChrom(spec.substr(0, colon));
  GDMS_ASSIGN_OR_RETURN(window.left,
                        ParseInt64(spec.substr(colon + 1, dash - colon - 1)));
  GDMS_ASSIGN_OR_RETURN(window.right, ParseInt64(spec.substr(dash + 1)));
  window.width = 100;
  return window;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<std::string, std::string>> loads;
  std::string query_file;
  std::string exec_text;
  std::string out_dir;
  std::string repo_dir;
  std::string save_repo_dir;
  std::string show_window;
  std::string trace_path;
  bool print_metrics = false;
  bool parallel = false;
  size_t threads = 0;
  bool optimize = true;
  bool fusion = true;
  bool gdmz_selftest = false;
  bool demo = false;
  bool serve = false;
  double mem_budget_mb = 0;
  ServeConfig serve_config;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--load") {
      const char* v = next();
      if (v == nullptr) return Fail("--load needs NAME=FILE");
      std::string spec = v;
      auto eq = spec.find('=');
      if (eq == std::string::npos) return Fail("--load needs NAME=FILE");
      loads.push_back({spec.substr(0, eq), spec.substr(eq + 1)});
    } else if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return Fail("--query needs a file");
      query_file = v;
    } else if (arg == "--exec") {
      const char* v = next();
      if (v == nullptr) return Fail("--exec needs GMQL text");
      exec_text = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Fail("--out needs a directory");
      out_dir = v;
    } else if (arg == "--repo") {
      const char* v = next();
      if (v == nullptr) return Fail("--repo needs a directory");
      repo_dir = v;
    } else if (arg == "--save-repo") {
      const char* v = next();
      if (v == nullptr) return Fail("--save-repo needs a directory");
      save_repo_dir = v;
    } else if (arg == "--show") {
      const char* v = next();
      if (v == nullptr) return Fail("--show needs CHR:LEFT-RIGHT");
      show_window = v;
    } else if (arg == "--parallel") {
      parallel = true;
      if (i + 1 < argc &&
          std::isdigit(static_cast<unsigned char>(argv[i + 1][0]))) {
        threads = static_cast<size_t>(std::atoi(argv[++i]));
      }
    } else if (arg == "--no-optimize") {
      optimize = false;
    } else if (arg == "--no-fusion") {
      fusion = false;
    } else if (arg == "--gdmz-selftest") {
      gdmz_selftest = true;
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return Fail("--trace needs an output file");
      trace_path = v;
    } else if (arg == "--metrics") {
      print_metrics = true;
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return Fail("--workers needs a count");
      serve_config.workers = static_cast<size_t>(std::atoi(v));
      if (serve_config.workers < 1) return Fail("--workers wants >= 1");
    } else if (arg == "--queue-limit") {
      const char* v = next();
      if (v == nullptr) return Fail("--queue-limit needs a count");
      serve_config.queue_limit = static_cast<size_t>(std::atoi(v));
      if (serve_config.queue_limit < 1) return Fail("--queue-limit wants >= 1");
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr) return Fail("--deadline-ms needs milliseconds");
      serve_config.deadline_ms = std::atof(v);
    } else if (arg == "--sample-ms") {
      const char* v = next();
      if (v == nullptr) return Fail("--sample-ms needs a period");
      serve_config.sample_ms = std::atoll(v);
    } else if (arg == "--query-log") {
      const char* v = next();
      if (v == nullptr) return Fail("--query-log needs a file");
      serve_config.query_log_path = v;
    } else if (arg == "--slow-ms") {
      const char* v = next();
      if (v == nullptr) return Fail("--slow-ms needs a threshold");
      serve_config.slow_ms = std::atof(v);
    } else if (arg == "--expo") {
      const char* v = next();
      if (v == nullptr) return Fail("--expo needs a file");
      serve_config.expo_path = v;
    } else if (arg == "--fed-drop") {
      const char* v = next();
      if (v == nullptr) return Fail("--fed-drop needs a rate in [0,1]");
      serve_config.fed_link.drop_rate = std::atof(v);
    } else if (arg == "--fed-stall") {
      const char* v = next();
      if (v == nullptr) return Fail("--fed-stall needs a rate in [0,1]");
      serve_config.fed_link.stall_rate = std::atof(v);
    } else if (arg == "--fed-corrupt") {
      const char* v = next();
      if (v == nullptr) return Fail("--fed-corrupt needs a rate in [0,1]");
      serve_config.fed_link.corrupt_rate = std::atof(v);
    } else if (arg == "--fed-latency-us") {
      const char* v = next();
      if (v == nullptr) return Fail("--fed-latency-us needs microseconds");
      serve_config.fed_link.latency_us =
          static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--fed-seed") {
      const char* v = next();
      if (v == nullptr) return Fail("--fed-seed needs an integer");
      serve_config.fed_link.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--fed-dead") {
      serve_config.fed_link.dead = true;
    } else if (arg == "--fed-sites") {
      const char* v = next();
      if (v == nullptr) return Fail("--fed-sites needs a count");
      serve_config.fed_sites = static_cast<size_t>(std::atoi(v));
      if (serve_config.fed_sites < 1 || serve_config.fed_sites > 26) {
        return Fail("--fed-sites wants 1..26 sites");
      }
    } else if (arg == "--mem-budget-mb") {
      const char* v = next();
      if (v == nullptr) return Fail("--mem-budget-mb needs a size in MB");
      mem_budget_mb = std::atof(v);
      if (mem_budget_mb <= 0) {
        return Fail("--mem-budget-mb needs a positive size in MB");
      }
    } else if (arg == "--help" || arg == "-h") {
      std::puts(
          "usage: gdms_shell [--repo DIR] [--load NAME=FILE]...\n"
          "                  [--query FILE | --exec GMQL]\n"
          "                  [--out DIR] [--parallel [N]] [--no-optimize]\n"
          "                  [--no-fusion] [--show CHR:LEFT-RIGHT] [--demo]\n"
          "                  [--gdmz-selftest] [--mem-budget-mb X]\n"
          "                  [--trace FILE.json] [--metrics]\n"
          "                  [--serve] [--workers N] [--queue-limit N]\n"
          "                  [--deadline-ms X] [--sample-ms N] [--expo FILE]\n"
          "                  [--query-log FILE] [--slow-ms X]\n"
          "                  [--fed-sites N] [--fed-drop R] [--fed-stall R]\n"
          "                  [--fed-corrupt R] [--fed-latency-us N]\n"
          "                  [--fed-seed N] [--fed-dead]\n"
          "       prefix GMQL text with EXPLAIN ANALYZE for a profile tree\n"
          "       --serve reads commands from stdin; see .help");
      return 0;
    } else {
      return Fail("unknown argument " + arg + " (try --help)");
    }
  }

  if (gdmz_selftest) return RunGdmzSelftest();

  if (mem_budget_mb > 0) {
    obs::ResourceTracker::Global().set_budget_bytes(
        static_cast<uint64_t>(mem_budget_mb * 1024.0 * 1024.0));
  }

  std::unique_ptr<engine::ParallelExecutor> executor;
  std::unique_ptr<core::QueryRunner> runner;
  if (parallel) {
    engine::EngineOptions options;
    options.threads = threads;
    executor = std::make_unique<engine::ParallelExecutor>(options);
    runner = std::make_unique<core::QueryRunner>(executor.get());
  } else {
    runner = std::make_unique<core::QueryRunner>();
  }
  runner->set_optimize(optimize);
  runner->set_fusion(fusion);

  if (demo) LoadDemo(runner.get());
  if (!repo_dir.empty()) {
    repo::Catalog catalog;
    Status st = catalog.LoadFrom(repo_dir);
    if (!st.ok()) return Fail(st.ToString());
    for (const auto& name : catalog.Names()) {
      std::printf("loaded %s from repository (%llu regions)\n", name.c_str(),
                  static_cast<unsigned long long>(
                      catalog.Get(name)->TotalRegions()));
      runner->RegisterDataset(*catalog.Get(name));
    }
  }
  for (const auto& [name, path] : loads) {
    auto ds = LoadFile(name, path);
    if (!ds.ok()) return Fail(ds.status().ToString());
    std::printf("loaded %s: %zu samples, %llu regions [%s]\n", name.c_str(),
                ds.value().num_samples(),
                static_cast<unsigned long long>(ds.value().TotalRegions()),
                ds.value().schema().ToString().c_str());
    runner->RegisterDataset(std::move(ds).ValueOrDie());
  }
  if (runner->DatasetNames().empty()) {
    return Fail("no datasets loaded (use --load or --demo)");
  }

  if (serve) {
    // Per-worker engine threads: an explicit --parallel N carries over; a
    // bare --parallel gets a modest 2 per worker (N workers already run
    // concurrently, so hardware-wide intra-query pools would oversubscribe).
    serve_config.engine_threads = parallel ? (threads > 0 ? threads : 2) : 1;
    serve_config.exec.optimize = optimize;
    serve_config.exec.fusion = fusion;
    ServeSession session(runner.get(), serve_config);
    return session.Loop();
  }

  std::string gmql = exec_text;
  if (gmql.empty() && !query_file.empty()) {
    std::ifstream in(query_file);
    if (!in) return Fail("cannot open query file " + query_file);
    std::ostringstream buf;
    buf << in.rdbuf();
    gmql = buf.str();
  }
  if (gmql.empty()) {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    gmql = buf.str();
  }
  if (Trim(gmql).empty()) return Fail("empty query (use --exec or --query)");

  bool explain = StripExplainAnalyze(&gmql);
  if (Trim(gmql).empty()) {
    return Fail("EXPLAIN ANALYZE needs a query to follow it");
  }
  if (explain || !trace_path.empty()) {
    obs::Tracer::Global().set_enabled(true);
  }

  auto results = runner->Run(gmql);
  if (!results.ok()) return Fail(results.status().ToString());

  for (const auto& [name, ds] : results.value()) {
    std::printf("%s: %zu samples, %llu regions, ~%s [%s]\n", name.c_str(),
                ds.num_samples(),
                static_cast<unsigned long long>(ds.TotalRegions()),
                HumanBytes(ds.EstimateBytes()).c_str(),
                ds.schema().ToString().c_str());
    if (!out_dir.empty()) {
      std::string path = out_dir + "/" + name + ".gdm";
      std::ofstream out(path);
      if (!out) return Fail("cannot write " + path);
      io::WriteGdm(ds, out);
      std::printf("  wrote %s\n", path.c_str());
    }
    if (!show_window.empty()) {
      auto window = ParseWindow(show_window);
      if (!window.ok()) return Fail(window.status().ToString());
      io::TrackRenderer renderer(window.value());
      for (const auto& s : ds.samples()) {
        renderer.AddTrack(name + "/" + std::to_string(s.id), s.regions);
      }
      auto rendered = renderer.Render();
      if (rendered.ok()) std::fputs(rendered.value().c_str(), stdout);
    }
  }
  if (!save_repo_dir.empty()) {
    repo::Catalog catalog;
    for (const auto& [name, ds] : results.value()) catalog.Put(ds);
    Status st = catalog.SaveTo(save_repo_dir);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("saved %zu datasets to repository %s\n",
                results.value().size(), save_repo_dir.c_str());
  }
  if (explain) {
    const auto& profile = runner->last_stats().profile;
    if (profile != nullptr) {
      std::printf("\nEXPLAIN ANALYZE\n%s", profile->RenderTree().c_str());
    }
  }
  if (!trace_path.empty()) {
    obs::Profile full(obs::Tracer::Global().TakeAll());
    if (!full.WriteChromeTrace(trace_path)) {
      return Fail("cannot write trace to " + trace_path);
    }
    std::printf("wrote trace to %s (%zu spans)\n", trace_path.c_str(),
                full.spans().size());
  }
  if (print_metrics) {
    std::fputs(obs::MetricsRegistry::Global().RenderText().c_str(), stdout);
  }
  std::printf("done: %zu operators, %zu memo hits, %.3f s\n",
              runner->last_stats().operators_evaluated,
              runner->last_stats().cache_hits,
              runner->last_stats().wall_seconds);
  return 0;
}
