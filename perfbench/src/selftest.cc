// The benchmark's own tests: every workload at a tiny scale agrees with the
// reference executor, emits exactly its metric catalog with valid names and
// units, and the traced batch split adds up to the traced query time; a
// read that fails makes a serve_mix run incorrect.
//
//   perfbench_selftest <workdir>
//
// Exits 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <regex>
#include <set>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Report;

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

gdms::gdm::Dataset SmallDataset() {
  gdms::gdm::RegionSchema schema;
  (void)schema.AddAttr("score", gdms::gdm::AttrType::kDouble);
  (void)schema.AddAttr("name", gdms::gdm::AttrType::kString);
  gdms::gdm::Dataset ds("D", schema);
  for (uint64_t id = 1; id <= 2; ++id) {
    gdms::gdm::Sample s(id);
    s.metadata.Add("cell", id == 1 ? "K562" : "HeLa");
    for (int64_t i = 0; i < 3; ++i) {
      s.regions.emplace_back(
          gdms::gdm::InternChrom("chr1"), 100 * i, 100 * i + 50,
          gdms::gdm::Strand::kPlus,
          std::vector<gdms::gdm::Value>{gdms::gdm::Value(1.5 * i),
                                        gdms::gdm::Value("r")});
    }
    ds.AddSample(std::move(s));
  }
  return ds;
}

void TestDigest() {
  gdms::gdm::Dataset a = SmallDataset();
  gdms::gdm::Dataset reordered = a;
  std::swap((*reordered.mutable_samples())[0], (*reordered.mutable_samples())[1]);
  std::swap(reordered.mutable_sample(0)->regions[0],
            reordered.mutable_sample(0)->regions[2]);
  Check(perfbench::DigestDataset(a) == perfbench::DigestDataset(reordered),
        "digest ignores sample and region order");
  gdms::gdm::Dataset changed = a;
  changed.mutable_sample(1)->regions[1].values[0] = gdms::gdm::Value(7.0);
  Check(perfbench::DigestDataset(a) != perfbench::DigestDataset(changed),
        "digest sees a changed region value");
  gdms::gdm::Dataset moved = a;
  moved.mutable_sample(0)->regions[2].right += 1;
  Check(perfbench::DigestDataset(a) != perfbench::DigestDataset(moved),
        "digest sees changed coordinates");
  gdms::gdm::Dataset meta = a;
  meta.mutable_sample(0)->metadata.Add("lab", "x");
  Check(perfbench::DigestDataset(a) != perfbench::DigestDataset(meta),
        "digest sees changed metadata");
}

void TestTail() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  perfbench::Tail t = perfbench::TailOf(v, 95);
  Check(t.percentile == 95 && t.value == 190 && t.beyond == 10,
        "tail: p95 of 200 samples has 10 beyond it");
  v.resize(100);
  t = perfbench::TailOf(v, 95);
  Check(t.percentile == 90 && t.value == 90 && t.beyond == 10,
        "tail: steps down to p90 with 100 samples");
  Check(perfbench::Median({3, 1, 2, 10}) == 2.5, "median of an even count");
}

void CheckCatalog(const Report& r, const perfbench::MetricList& list,
                  const std::string& label) {
  static const std::regex name_re("[A-Za-z0-9_.-]+");
  bool names_ok = r.metrics().size() == list.size();
  for (size_t i = 0; names_ok && i < list.size(); ++i) {
    const Report::Metric& m = r.metrics()[i];
    names_ok = m.name == list[i].first && m.unit == list[i].second &&
               std::regex_match(m.name, name_re) && !m.unit.empty() &&
               std::isfinite(m.value);
  }
  Check(names_ok, label + ": emits its metric catalog with valid names and units");
}

void TestWorkload(const std::string& name, const std::string& workdir) {
  for (bool trace : {false, true}) {
    perfbench::Config cfg;
    cfg.workload = name;
    cfg.seed = 7;
    cfg.seconds = 0.3;
    cfg.trace = trace;
    cfg.tiny = true;
    cfg.workdir = workdir;
    Report r;
    std::string error;
    std::string label = name + (trace ? " traced" : " untraced");
    bool ran = perfbench::RunWorkload(cfg, &r, &error);
    Check(ran, label + ": runs" + (ran ? "" : " (" + error + ")"));
    if (!ran) continue;
    Check(r.correct && r.failed == 0 && r.attempted > 0,
          label + ": every output agrees with the reference executor");
    CheckCatalog(r, trace ? perfbench::PerLayerMetrics()
                          : perfbench::EndToEndMetrics(),
                 label);
    if (!trace) {
      for (const Report::Metric& m : r.metrics()) {
        if (m.value <= 0) Check(false, label + ": " + m.name + " is positive");
      }
    }
    if (trace && name != "serve_mix") {
      double sum = r.Get("core.parse_ms") + r.Get("core.optimize_ms") +
                   r.Get("core.runner_self_ms");
      for (const std::string& b : perfbench::OpBuckets()) {
        sum += r.Get("engine." + b + ".ms");
      }
      double wall = r.Get("core.query_ms");
      Check(wall > 0 && std::abs(sum - wall) <= 1e-9 * wall,
            label + ": parse + optimize + operators + runner self = query time");
    }
  }
}

/// A read that fails must make the run incorrect (exit 1), never count as
/// a fast read.
void TestReadErrorFails(const std::string& workdir) {
  perfbench::Config cfg;
  cfg.workload = "serve_mix";
  cfg.seed = 7;
  cfg.seconds = 0.3;
  cfg.tiny = true;
  cfg.inject_read_error = true;
  cfg.workdir = workdir;
  Report r;
  std::string error;
  bool ran = perfbench::RunWorkload(cfg, &r, &error);
  Check(ran && !r.correct && r.failed == 1,
        "serve_mix: an erroring read makes the run incorrect");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workdir = argc > 1 ? argv[1] : "perfbench_selftest";
  std::filesystem::create_directories(workdir);
  TestDigest();
  TestTail();
  for (const std::string& name : perfbench::WorkloadNames()) {
    TestWorkload(name, workdir);
  }
  TestReadErrorFails(workdir);
  std::set<std::string> names;
  for (const auto& list : {perfbench::EndToEndMetrics(), perfbench::PerLayerMetrics()}) {
    for (const auto& [name, unit] : list) names.insert(name);
  }
  Check(names.size() == perfbench::EndToEndMetrics().size() +
                            perfbench::PerLayerMetrics().size(),
        "metric names are unique");
  std::printf("%s (%d failed)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
