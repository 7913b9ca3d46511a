#ifndef GDMS_BENCH_BENCH_UTIL_H_
#define GDMS_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment benches. Every bench binary prints the
// paper-shaped table for its experiment (EXPERIMENTS.md records the mapping)
// and then runs its google-benchmark microbenchmarks, so both
// `./bench_e1_...` and `--benchmark_filter=...` behave as expected.

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace gdms::bench {

/// Wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void Header(const char* experiment, const char* paper_artifact) {
  std::printf("\n==========================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper artifact: %s\n", paper_artifact);
  std::printf("==========================================================\n");
}

inline void Note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

/// One flat JSON object, rendered in insertion order.
class JsonObject {
 public:
  void Add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, Quote(value));
  }
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, buf);
  }
  void Add(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, int value) {
    Add(key, static_cast<int64_t>(value));
  }

  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Machine-readable bench report: top-level fields (workload parameters)
/// plus a "runs" array of per-configuration measurements. Written when the
/// bench was invoked with `--json <path>`.
class BenchJson {
 public:
  explicit BenchJson(const std::string& experiment) {
    top_.Add("experiment", experiment);
  }

  JsonObject& top() { return top_; }
  JsonObject& NewRun() {
    runs_.emplace_back();
    return runs_.back();
  }

  bool WriteTo(const std::string& path) const {
    if (path.empty()) return false;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::string top = top_.Render();
    top.pop_back();  // re-open the object to append the runs array
    std::fprintf(f, "%s, \"runs\": [", top.c_str());
    for (size_t i = 0; i < runs_.size(); ++i) {
      std::fprintf(f, "%s%s", i > 0 ? ", " : "", runs_[i].Render().c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  JsonObject top_;
  std::vector<JsonObject> runs_;
};

/// Extracts `--<flag> <value>` (or `--<flag>=<value>`) from argv, removing it
/// so benchmark::Initialize does not reject the unknown flag. Returns the
/// value, or an empty string when the flag is absent.
inline std::string FlagFromArgs(const char* flag, int* argc, char** argv) {
  std::string spaced = std::string("--") + flag;
  std::string joined = spaced + "=";
  std::string value;
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    if (spaced == argv[i] && i + 1 < *argc) {
      value = argv[++i];
    } else if (std::strncmp(argv[i], joined.c_str(), joined.size()) == 0) {
      value = argv[i] + joined.size();
    } else {
      argv[w++] = argv[i];
    }
  }
  *argc = w;
  return value;
}

/// Extracts `--json <path>` (or `--json=<path>`) from argv. Returns the path,
/// or an empty string when the flag is absent.
inline std::string JsonPathFromArgs(int* argc, char** argv) {
  return FlagFromArgs("json", argc, argv);
}

/// The shared observability flags of the experiment benches:
///   --trace <path>    enable the span tracer; write a Chrome trace-event
///                     JSON of every recorded query's spans to <path>
///   --metrics <path>  write the process metrics registry (counters,
///                     gauges, histograms) as JSON to <path>
/// Call ParseFromArgs before benchmark::Initialize, Record after every
/// query, and Finish after the paper-table section (profile JSONs land next
/// to the BENCH_E*.json).
class ObsFlags {
 public:
  void ParseFromArgs(int* argc, char** argv) {
    trace_path_ = FlagFromArgs("trace", argc, argv);
    metrics_path_ = FlagFromArgs("metrics", argc, argv);
    if (!trace_path_.empty()) obs::Tracer::Global().set_enabled(true);
  }

  /// Keeps a finished query's spans for the trace; a no-op for an
  /// untraced query. Thread-safe (serve callbacks record from workers).
  void Record(const core::RunStats& stats) {
    if (stats.profile == nullptr) return;
    const std::vector<obs::SpanRecord>& spans = stats.profile->spans();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  void Finish() {
    if (!trace_path_.empty()) {
      obs::Profile profile(std::move(spans_));
      if (profile.WriteChromeTrace(trace_path_)) {
        std::printf("wrote %s (%zu spans)\n", trace_path_.c_str(),
                    profile.spans().size());
      }
    }
    if (!metrics_path_.empty()) {
      std::FILE* f = std::fopen(metrics_path_.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path_.c_str());
        return;
      }
      std::string json = obs::MetricsRegistry::Global().RenderJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote %s\n", metrics_path_.c_str());
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::mutex mu_;
  std::vector<obs::SpanRecord> spans_;
};

}  // namespace gdms::bench

#endif  // GDMS_BENCH_BENCH_UTIL_H_
