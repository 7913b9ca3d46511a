// gdms_perfbench — the GDMS benchmark program.
//
//   gdms_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>]
//   gdms_perfbench --list
//
// Prints human-readable notes, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. Exits 0 when every
// output matched the reference executor, 1 on a mismatch or query error,
// 2 on a usage or set-up error (without printing a result). --list prints
// the workload names and the metric catalogs, one per line.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "gdms_perfbench: %s\nusage: gdms_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  cfg.workdir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* value = nullptr;
    if (arg == "--list") {
      for (const std::string& w : perfbench::WorkloadNames()) {
        std::printf("workloads %s\n", w.c_str());
      }
      for (const auto& [name, unit] : perfbench::EndToEndMetrics()) {
        std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
      }
      for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
        std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
      }
      return 0;
    } else if (arg == "--workload" && (value = next())) {
      cfg.workload = value;
    } else if (arg == "--seed" && (value = next())) {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds" && (value = next())) {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace" && (value = next())) {
      cfg.trace = std::string(value) == "1";
    } else if (arg == "--workdir" && (value = next())) {
      cfg.workdir = value;
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  if (cfg.workload.empty()) return Usage("--workload is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(cfg.workdir, ec);

  perfbench::Report report;
  std::string error;
  if (!perfbench::RunWorkload(cfg, &report, &error)) {
    std::fprintf(stderr, "gdms_perfbench: %s\n", error.c_str());
    return 2;
  }
  std::printf("workload %s  seed %llu  trace %d  attempted %llu  failed %llu"
              "  failed_frac %.6g\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? 1 : 0,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted));
  for (const std::string& note : report.notes()) {
    std::printf("  %s\n", note.c_str());
  }
  for (const auto& m : report.metrics()) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
