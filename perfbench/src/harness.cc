#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>

#include "common/hash.h"

namespace perfbench {

namespace gdm = gdms::gdm;
namespace core = gdms::core;

double MsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Report

void Report::Add(const std::string& name, const std::string& unit,
                 double value) {
  metrics_.push_back({name, unit, std::isfinite(value) ? value : 0.0});
}

double Report::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v, double preferred_pct) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double ladder[] = {preferred_pct, 95, 90, 75, 50};
  for (double p : ladder) {
    if (p > preferred_pct) continue;
    // Nearest rank: the ceil(p/100 * n)-th smallest sample.
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    size_t beyond = v.size() - rank;
    if (beyond >= 10 || p == 50) {
      t.value = v[rank - 1];
      t.percentile = p;
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Process probes

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Digest

namespace {

uint64_t HashString(std::string_view s) { return gdms::Fnv1a64(s); }

uint64_t HashValue(const gdm::Value& v) {
  uint64_t tag = static_cast<uint64_t>(v.type());
  uint64_t payload = 0;
  if (v.is_int()) {
    payload = static_cast<uint64_t>(v.AsInt());
  } else if (v.is_double()) {
    double d = v.AsDouble();
    if (d == 0) d = 0;  // -0.0 and 0.0 are the same number
    std::memcpy(&payload, &d, sizeof(d));
  } else if (v.is_string()) {
    payload = HashString(v.AsString());
  } else if (v.is_bool()) {
    payload = v.AsBool() ? 1 : 0;
  }
  return gdms::HashCombine(gdms::Mix64(tag), payload);
}

uint64_t HashRegion(const gdm::GenomicRegion& r) {
  uint64_t h = gdms::Mix64(static_cast<uint64_t>(r.chrom));
  h = gdms::HashCombine(h, static_cast<uint64_t>(r.left));
  h = gdms::HashCombine(h, static_cast<uint64_t>(r.right));
  h = gdms::HashCombine(h, static_cast<uint64_t>(r.strand));
  for (const gdm::Value& v : r.values) h = gdms::HashCombine(h, HashValue(v));
  return gdms::Mix64(h);
}

}  // namespace

uint64_t DigestDataset(const gdm::Dataset& ds) {
  uint64_t h = HashString(ds.name());
  for (const gdm::AttrDef& a : ds.schema().attrs()) {
    h = gdms::HashCombine(h, HashString(a.name));
    h = gdms::HashCombine(h, static_cast<uint64_t>(a.type));
  }
  uint64_t samples = 0;
  for (const gdm::Sample& s : ds.samples()) {
    uint64_t meta = 0;
    for (const gdm::MetaEntry& e : s.metadata.entries()) {
      meta += gdms::Mix64(
          gdms::HashCombine(HashString(e.attr), HashString(e.value)));
    }
    uint64_t regions = 0;
    for (const gdm::GenomicRegion& r : s.regions) regions += HashRegion(r);
    uint64_t sh = gdms::HashCombine(gdms::Mix64(s.id), meta);
    sh = gdms::HashCombine(sh, regions);
    sh = gdms::HashCombine(sh, s.regions.size());
    samples += gdms::Mix64(sh);
  }
  h = gdms::HashCombine(h, samples);
  return gdms::HashCombine(h, ds.num_samples());
}

uint64_t DigestOutputs(const std::map<std::string, gdm::Dataset>& out) {
  uint64_t h = out.size();
  for (const auto& [name, ds] : out) {
    h += gdms::Mix64(gdms::HashCombine(HashString(name), DigestDataset(ds)));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Operator buckets and the timing decorator

const char* OpBucket(const core::PlanNode& node) {
  switch (node.kind) {
    case core::OpKind::kSelect: return "select";
    case core::OpKind::kMap: return "map";
    case core::OpKind::kCover: return "cover";
    case core::OpKind::kDifference: return "difference";
    case core::OpKind::kJoin: return "join";
    case core::OpKind::kFused: return "fused";
    default: return "other";
  }
}

const std::vector<std::string>& OpBuckets() {
  static const std::vector<std::string> buckets = {
      "select", "map", "cover", "difference", "join", "fused", "other"};
  return buckets;
}

gdms::Result<gdm::Dataset> TimingExecutor::Execute(
    const core::PlanNode& node, const std::vector<const gdm::Dataset*>& inputs) {
  if (!timing_) return inner_->Execute(node, inputs);
  Clock::time_point t0 = Clock::now();
  gdms::Result<gdm::Dataset> out = inner_->Execute(node, inputs);
  Clock::time_point t1 = Clock::now();
  OpTiming& t = timings_[OpBucket(node)];
  t.ms += MsBetween(t0, t1);
  if (out.ok()) t.out_regions += out.value().TotalRegions();
  return out;
}

std::map<std::string, TimingExecutor::OpTiming> TimingExecutor::TakeTimings() {
  std::map<std::string, OpTiming> out;
  out.swap(timings_);
  return out;
}

// ---------------------------------------------------------------------------
// Stage-span folding

std::string BucketOfOpName(const std::string& op_name) {
  if (op_name.find('+') != std::string::npos) return "fused";
  std::string lower = op_name;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  const std::vector<std::string>& buckets = OpBuckets();
  return std::find(buckets.begin(), buckets.end(), lower) != buckets.end()
             ? lower
             : "other";
}

std::map<std::string, double> FoldStageSpans(const core::RunStats& stats) {
  std::map<std::string, double> out;
  if (stats.profile == nullptr) return out;
  const std::vector<gdms::obs::SpanRecord>& spans = stats.profile->spans();
  std::map<std::pair<uint64_t, uint64_t>, const gdms::obs::SpanRecord*> by_id;
  for (const auto& rec : spans) by_id[{rec.origin, rec.id}] = &rec;
  for (const auto& rec : spans) {
    if (rec.category != "stage") continue;
    // The runner publishes the executing operator's span as the parent of
    // every stage the engine runs inside Execute.
    auto parent = by_id.find({rec.origin, rec.parent});
    std::string bucket = parent == by_id.end()
                             ? "other"
                             : BucketOfOpName(parent->second->name);
    std::string_view name = rec.name;
    std::string_view kind = name.substr(name.find(':') + 1);
    double ms = static_cast<double>(rec.duration_ns) / 1e6;
    if (kind == "assemble") {
      out[bucket + ".assemble_ms"] += ms;
    } else if (kind != "shuffle-write" && kind != "columnarize" &&
               kind != "pool") {
      // Everything else is a kernel stage; partitioning stages fall into the
      // operator's remainder (see the README's stage table).
      out[bucket + ".compute_ms"] += ms;
    }
    for (const auto& [key, value] : rec.attrs) {
      if (key == "queue_wait_mean_us") out["queue_wait_ms"] += value / 1e3;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metric catalogs

const MetricList& EndToEndMetrics() {
  static const MetricList list = {
      {"setup_s", "s"},          {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"}, {"cpu_ms_per_query", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return list;
}

const MetricList& PerLayerMetrics() {
  static const MetricList list = [] {
    MetricList l = {
        {"core.query_ms", "ms"},         {"core.parse_ms", "ms"},
        {"core.optimize_ms", "ms"},      {"core.runner_self_ms", "ms"},
        {"core.alloc_mb", "MiB"},        {"core.peak_mb", "MiB"},
        {"core.intermediate_datasets", "count"},
    };
    for (const std::string& b : OpBuckets()) {
      l.push_back({"engine." + b + ".ms", "ms"});
      l.push_back({"engine." + b + ".out_regions", "count"});
      l.push_back({"engine." + b + ".out_mb", "MiB"});
    }
    for (const std::string& b : OpBuckets()) {
      if (b == "other") continue;  // runs on the sequential fallback
      l.push_back({"engine." + b + ".partition_ms", "ms"});
      l.push_back({"engine." + b + ".compute_ms", "ms"});
      l.push_back({"engine." + b + ".assemble_ms", "ms"});
    }
    const MetricList rest = {
        {"engine.queue_wait_ms", "ms"},
        {"engine.tasks", "count"},
        {"engine.partitions", "count"},
        {"engine.stage_barriers", "count"},
        {"engine.shuffle_mb", "MiB"},
        {"engine.columnar_task_frac", "ratio"},
        {"io.open_gdmz_ms", "ms"},
        {"io.decode_mregions_per_s", "Mregion/s"},
        {"io.write_gdmz_ms", "ms"},
        {"io.stored_bytes_per_region", "B"},
        {"gdm.input_resident_mb", "MiB"},
        {"gdm.result_resident_mb", "MiB"},
        {"serve.queue_p50_ms", "ms"},
        {"serve.queue_tail_ms", "ms"},
        {"serve.exec_p50_ms", "ms"},
        {"serve.exec_tail_ms", "ms"},
        {"serve.plan_lookups", "count"},
        {"serve.plan_hit_frac", "ratio"},
        {"serve.plan_rebind_frac", "ratio"},
        {"serve.plan_miss_frac", "ratio"},
        {"serve.plan_hit_ms", "ms"},
        {"serve.plan_prepare_ms", "ms"},
        {"serve.result_lookups", "count"},
        {"serve.result_hit_frac", "ratio"},
        {"serve.result_invalidations", "count"},
        {"serve.result_evictions", "count"},
        {"serve.writes", "count"},
        {"serve.publish_ms", "ms"},
        {"serve.write_p50_ms", "ms"},
        {"serve.rejected", "count"},
        {"serve.deadline_exceeded", "count"},
        {"serve.generator_lag_ms", "ms"},
        {"serve.capacity_qps", "1/s"},
        {"obs.trace_overhead_frac", "ratio"},
    };
    l.insert(l.end(), rest.begin(), rest.end());
    return l;
  }();
  return list;
}

void EmitAll(const MetricList& list, const std::map<std::string, double>& values,
             Report* report) {
  for (const auto& [name, unit] : list) {
    auto it = values.find(name);
    report->Add(name, unit, it == values.end() ? 0.0 : it->second);
  }
}

}  // namespace perfbench
