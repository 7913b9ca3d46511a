#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "section2_map", "stored_panel_map", "ctcf_pairs", "serve_mix"};
  return names;
}

bool RunWorkload(const Config& cfg, Report* report, std::string* error) {
  if (cfg.workload == "serve_mix") return RunServeMix(cfg, report, error);
  return RunBatch(cfg, report, error);
}

}  // namespace perfbench
