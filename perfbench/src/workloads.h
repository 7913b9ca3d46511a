// The four benchmark workloads. Each builds its inputs from the seed,
// checks every measured output against the reference executor, and fills
// a Report with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs `cfg.workload`; false when the name is unknown or set-up fails
/// (the reason is in `*error`).
bool RunWorkload(const Config& cfg, Report* report, std::string* error);

/// Closed-loop batch workloads on the parallel engine (section2_map,
/// stored_panel_map, ctcf_pairs).
bool RunBatch(const Config& cfg, Report* report, std::string* error);

/// Open-loop serve mix; a traced run adds a closed-loop capacity phase
/// (serve_mix).
bool RunServeMix(const Config& cfg, Report* report, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
