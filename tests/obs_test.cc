#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/generators.h"

namespace gdms::obs {
namespace {

using core::QueryRunner;
using engine::EngineOptions;
using engine::ParallelExecutor;

/// Turns the global tracer on for one test and off afterwards, so tests
/// stay order-independent.
class ScopedTracing {
 public:
  ScopedTracing() { Tracer::Global().set_enabled(true); }
  ~ScopedTracing() { Tracer::Global().set_enabled(false); }
};

// ------------------------------------------------------------- metrics ---

TEST(MetricsTest, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.Set(-7);
  EXPECT_EQ(g.value(), -7);
  g.Set(9);
  EXPECT_EQ(g.value(), 9);
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(MetricsTest, HistogramCountSumMeanAndQuantiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Power-of-two buckets: the median sample (50) lives in [32, 64); the
  // interpolated quantile must land inside that bucket.
  double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 64.0);
  double p99 = h.Quantile(0.99);
  EXPECT_GE(p99, 64.0);
  EXPECT_LE(p99, 128.0);
  EXPECT_LE(h.Quantile(0.0), p50);
  EXPECT_GE(h.Quantile(1.0), p99);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(MetricsTest, RegistryHandsOutStablePointers) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("obs_test.stable");
  Counter* b = reg.GetCounter("obs_test.stable");
  EXPECT_EQ(a, b);
  // A name is bound to one kind: the mismatched request still returns a
  // usable (scratch) instrument, never nullptr.
  Histogram* h = reg.GetHistogram("obs_test.stable");
  ASSERT_NE(h, nullptr);
  h->Record(1);

  a->Add(3);
  std::string text = reg.RenderText();
  EXPECT_NE(text.find("obs_test.stable"), std::string::npos);
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsTest, ResetAllZeroesEveryInstrument) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test.reset_me");
  Histogram* h = reg.GetHistogram("obs_test.reset_me_h");
  c->Add(5);
  h->Record(100);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
}

// -------------------------------------------------------------- tracer ---

TEST(TracerTest, DisabledSpansAreInactiveAndFree) {
  Tracer& tracer = Tracer::Global();
  ASSERT_FALSE(tracer.enabled());
  SpanSink sink;
  {
    Span s = tracer.StartSpan("noop", "stage", 0, &sink);
    EXPECT_FALSE(s.active());
    EXPECT_EQ(s.id(), 0u);
    s.AddAttr("ignored", 1.0);
  }
  EXPECT_TRUE(sink.Take().empty());
}

TEST(TracerTest, NullSinkSpansAreInactive) {
  ScopedTracing tracing;
  Span s = Tracer::Global().StartSpan("orphan", "search", 0, nullptr);
  EXPECT_FALSE(s.active());
  EXPECT_EQ(s.id(), 0u);
  s.AddAttr("ignored", 1.0);
  s.End();
}

TEST(TracerTest, ComputeSkewMatchesHandComputedValues) {
  SkewStats s = ComputeSkew({5000, 0, 1000});
  EXPECT_EQ(s.min_ns, 0);
  EXPECT_EQ(s.median_ns, 1000);
  EXPECT_EQ(s.max_ns, 5000);
  EXPECT_DOUBLE_EQ(s.mean_ns, 2000.0);

  // The giant-and-empty-partition fixture: one 9 ms task, one empty task.
  SkewStats skew = ComputeSkew({9000000, 0});
  EXPECT_EQ(skew.min_ns, 0);
  EXPECT_EQ(skew.max_ns, 9000000);
  EXPECT_EQ(skew.median_ns, 9000000);
  EXPECT_DOUBLE_EQ(skew.mean_ns, 4500000.0);

  SkewStats empty = ComputeSkew({});
  EXPECT_EQ(empty.min_ns, 0);
  EXPECT_EQ(empty.max_ns, 0);
  EXPECT_DOUBLE_EQ(empty.mean_ns, 0.0);
}

// Eight threads emit into two sinks (even threads into one, odd into the
// other), as two concurrent queries' tasks do: each sink ends up with
// exactly its own threads' spans, every id unique.
TEST(TracerTest, ConcurrentSpanEmissionIsRaceFree) {
  ScopedTracing tracing;
  Tracer& tracer = Tracer::Global();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  SpanSink sinks[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, &sinks, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span s = tracer.StartSpan("worker", "stage", 0, &sinks[t % 2]);
        s.AddAttr("thread", static_cast<double>(t));
        s.AddAttr("i", static_cast<double>(i));
        s.End();
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<uint64_t> ids;
  for (int k = 0; k < 2; ++k) {
    std::vector<SpanRecord> spans = sinks[k].Take();
    ASSERT_EQ(spans.size(),
              static_cast<size_t>(kThreads / 2 * kSpansPerThread));
    for (const auto& rec : spans) {
      ASSERT_EQ(rec.attrs.at(0).first, "thread");
      EXPECT_EQ(static_cast<int>(rec.attrs.at(0).second) % 2, k);
      ids.insert(rec.id);
    }
    EXPECT_TRUE(sinks[k].Take().empty());
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads * kSpansPerThread));
}

// ------------------------------------------------------------- profile ---

std::vector<SpanRecord> HandBuiltSpans() {
  // root(100us) -> a(30us, fully covered by its own child) + b(50us).
  SpanRecord root{1, 0, "root", "query", 0, 100000, {}};
  SpanRecord a{2, 1, "a", "operator", 10000, 30000, {}};
  SpanRecord a_child{4, 2, "a:stage", "stage", 10000, 30000, {}};
  SpanRecord b{3, 1, "b", "operator", 50000, 50000, {}};
  return {a_child, a, b, root};
}

TEST(ProfileTest, SelfTimesTelescopeToRootDuration) {
  Profile profile(HandBuiltSpans());
  ASSERT_EQ(profile.roots().size(), 1u);
  EXPECT_EQ(profile.total_ns(), 100000);
  int64_t self_sum = 0;
  for (const auto& node : profile.nodes()) self_sum += node.self_ns;
  EXPECT_EQ(self_sum, profile.total_ns());

  // Exact hand-computed self times.
  for (const auto& node : profile.nodes()) {
    if (node.rec->name == "root") {
      EXPECT_EQ(node.self_ns, 20000);
    } else if (node.rec->name == "a") {
      EXPECT_EQ(node.self_ns, 0);
    } else if (node.rec->name == "a:stage") {
      EXPECT_EQ(node.self_ns, 30000);
    } else if (node.rec->name == "b") {
      EXPECT_EQ(node.self_ns, 50000);
    }
  }
}

TEST(ProfileTest, RenderTreeShowsNestingAndAttrs) {
  std::vector<SpanRecord> spans = HandBuiltSpans();
  spans[1].attrs.emplace_back("tasks", 4.0);
  Profile profile(std::move(spans));
  std::string tree = profile.RenderTree();
  EXPECT_NE(tree.find("root"), std::string::npos);
  EXPECT_NE(tree.find("├─ a"), std::string::npos);
  EXPECT_NE(tree.find("└─ b"), std::string::npos);
  EXPECT_NE(tree.find("a:stage [stage]"), std::string::npos);
  EXPECT_NE(tree.find("tasks=4"), std::string::npos);
}

TEST(ProfileTest, ChromeTraceHasCompleteEventsForEverySpan) {
  Profile profile(HandBuiltSpans());
  std::string json = profile.RenderChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  size_t events = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\": \"X\"", pos)) !=
                       std::string::npos;
       ++pos) {
    ++events;
  }
  EXPECT_EQ(events, profile.spans().size());
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

// -------------------------------------------------- runner integration ---

QueryRunner MakeSimRunner(core::Executor* executor) {
  QueryRunner runner = executor ? QueryRunner(executor) : QueryRunner();
  auto genome = gdm::GenomeAssembly::HumanLike(4, 20000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 3;
  popt.peaks_per_sample = 400;
  runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 21));
  auto catalog = sim::GenerateGenes(genome, 150, 21);
  runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 21));
  return runner;
}

const char* kMapQuery =
    "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
    "R = MAP(n AS COUNT) PROMS ENCODE;\n"
    "MATERIALIZE R;\n";

const Profile::Node* FindNode(const Profile& profile, const std::string& name) {
  for (const auto& node : profile.nodes()) {
    if (node.rec->name == name) return &node;
  }
  return nullptr;
}

TEST(RunnerProfileTest, SpanTreeMatchesPlanDag) {
  ScopedTracing tracing;
  EngineOptions options;
  options.threads = 2;
  ParallelExecutor executor(options);
  QueryRunner runner = MakeSimRunner(&executor);
  ASSERT_TRUE(runner.Run(kMapQuery).ok());

  std::shared_ptr<const Profile> profile = runner.last_stats().profile;
  ASSERT_NE(profile, nullptr);
  ASSERT_EQ(profile->roots().size(), 1u);
  const Profile::Node& root = profile->nodes()[profile->roots()[0]];
  EXPECT_EQ(root.rec->category, "query");

  // The plan DAG: MATERIALIZE R -> MAP -> SELECT (sources get no span).
  const Profile::Node* mat = FindNode(*profile, "MATERIALIZE R");
  const Profile::Node* map = FindNode(*profile, "MAP");
  const Profile::Node* select = FindNode(*profile, "SELECT");
  ASSERT_NE(mat, nullptr);
  ASSERT_NE(map, nullptr);
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(mat->rec->parent, root.rec->id);
  EXPECT_EQ(map->rec->parent, mat->rec->id);
  EXPECT_EQ(select->rec->parent, map->rec->id);

  // Engine stage spans nest under the operator that ran them — in id and
  // in time.
  size_t stage_spans = 0;
  for (const auto& node : profile->nodes()) {
    if (node.rec->category != "stage") continue;
    ++stage_spans;
    const Profile::Node* parent = nullptr;
    for (const auto& cand : profile->nodes()) {
      if (cand.rec->id == node.rec->parent) parent = &cand;
    }
    ASSERT_NE(parent, nullptr) << node.rec->name;
    EXPECT_EQ(parent->rec->category, "operator") << node.rec->name;
    EXPECT_GE(node.rec->start_ns, parent->rec->start_ns);
    EXPECT_LE(node.rec->start_ns + node.rec->duration_ns,
              parent->rec->start_ns + parent->rec->duration_ns);
  }
  EXPECT_GT(stage_spans, 0u);

  // The acceptance bar: per-node self times telescope to the query wall.
  int64_t self_sum = 0;
  for (const auto& node : profile->nodes()) self_sum += node.self_ns;
  EXPECT_EQ(self_sum, profile->total_ns());
}

TEST(RunnerProfileTest, StageSkewAttrsOnGiantAndEmptyPartition) {
  ScopedTracing tracing;
  EngineOptions options;
  options.threads = 2;
  ParallelExecutor executor(options);
  QueryRunner runner(&executor);

  gdm::RegionSchema schema;
  gdm::Dataset ds("DS", schema);
  gdm::Sample giant(1);
  for (int i = 0; i < 20000; ++i) {
    giant.regions.emplace_back(gdm::InternChrom("chr1"), i * 10, i * 10 + 5,
                               gdm::Strand::kNone);
  }
  giant.metadata.Add("kind", "giant");
  ds.AddSample(std::move(giant));
  gdm::Sample empty(2);
  empty.metadata.Add("kind", "empty");
  ds.AddSample(std::move(empty));
  runner.RegisterDataset(std::move(ds));

  ASSERT_TRUE(runner.Run("R = SELECT(region: left >= 0) DS;\n"
                         "MATERIALIZE R;\n")
                  .ok());
  std::shared_ptr<const Profile> profile = runner.last_stats().profile;
  ASSERT_NE(profile, nullptr);
  const Profile::Node* stage = FindNode(*profile, "select:samples");
  ASSERT_NE(stage, nullptr);

  double tasks = -1, min_us = -1, median_us = -1, max_us = -1;
  for (const auto& [key, value] : stage->rec->attrs) {
    if (key == "tasks") tasks = value;
    if (key == "part_min_us") min_us = value;
    if (key == "part_median_us") median_us = value;
    if (key == "part_max_us") max_us = value;
  }
  EXPECT_DOUBLE_EQ(tasks, 2.0);
  ASSERT_GE(min_us, 0.0);
  // One giant and one empty partition: the ordering min <= median <= max
  // must hold, and the spread must be visible (the giant partition filters
  // 20k regions while the empty one does nothing).
  EXPECT_LE(min_us, median_us);
  EXPECT_LE(median_us, max_us);
  EXPECT_GT(max_us, min_us);
  // With two tasks the sorted-median convention picks the larger one.
  EXPECT_DOUBLE_EQ(median_us, max_us);
}

TEST(RunnerProfileTest, BackToBackRunsDoNotAccumulateTelemetry) {
  EngineOptions options;
  options.threads = 2;
  ParallelExecutor executor(options);
  QueryRunner runner = MakeSimRunner(&executor);

  ASSERT_TRUE(runner.Run(kMapQuery).ok());
  core::RunStats first = runner.last_stats();
  EXPECT_EQ(first.profile, nullptr);  // tracing disabled -> no profile
  ASSERT_TRUE(runner.Run(kMapQuery).ok());
  core::RunStats second = runner.last_stats();

  // Same program, same data: the per-run figures must match exactly — any
  // drift means counters leaked across Run() calls.
  EXPECT_EQ(first.operators_evaluated, second.operators_evaluated);
  EXPECT_EQ(first.cache_hits, second.cache_hits);
  EXPECT_EQ(first.executor.tasks, second.executor.tasks);
  EXPECT_EQ(first.executor.partitions, second.executor.partitions);
  EXPECT_EQ(first.executor.shuffle_bytes, second.executor.shuffle_bytes);
  EXPECT_GT(second.executor.tasks, 0u);

  // And with tracing on, each run yields a fresh profile of the same shape.
  {
    ScopedTracing tracing;
    ASSERT_TRUE(runner.Run(kMapQuery).ok());
    std::shared_ptr<const Profile> p1 = runner.last_stats().profile;
    ASSERT_TRUE(runner.Run(kMapQuery).ok());
    std::shared_ptr<const Profile> p2 = runner.last_stats().profile;
    ASSERT_NE(p1, nullptr);
    ASSERT_NE(p2, nullptr);
    EXPECT_EQ(p1->spans().size(), p2->spans().size());
    EXPECT_EQ(p1->roots().size(), 1u);
    EXPECT_EQ(p2->roots().size(), 1u);
  }
}

}  // namespace
}  // namespace gdms::obs
