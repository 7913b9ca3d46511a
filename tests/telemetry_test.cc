// Tests for the continuous-telemetry pipeline: TimeSeries ring buffer,
// Sampler-derived rate/quantile series, Prometheus-style exposition and the
// structured JSONL query log. Labelled `tsan` in CMake — the concurrency
// tests (sampler vs. mutators, ring writer vs. readers) are what the
// thread-sanitized CI job exists to check.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/sampler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/generators.h"

namespace gdms::obs {
namespace {

/// Turns the global tracer on for one test and off afterwards.
class ScopedTracing {
 public:
  ScopedTracing() { Tracer::Global().set_enabled(true); }
  ~ScopedTracing() { Tracer::Global().set_enabled(false); }
};

// ---------------------------------------------------------- time series ---

TEST(TimeSeriesTest, PushAndSnapshotInOrder) {
  TimeSeries ts(8);
  for (int i = 0; i < 5; ++i) ts.Push(i * 10, i * 1.5);
  EXPECT_EQ(ts.size(), 5u);
  EXPECT_EQ(ts.total_pushed(), 5u);
  EXPECT_DOUBLE_EQ(ts.last(), 6.0);
  auto points = ts.Snapshot();
  ASSERT_EQ(points.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(points[i].t_ns, i * 10);
    EXPECT_DOUBLE_EQ(points[i].value, i * 1.5);
  }
}

TEST(TimeSeriesTest, WrapAroundKeepsNewestPoints) {
  TimeSeries ts(4);
  for (int i = 0; i < 10; ++i) ts.Push(i, i);
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.capacity(), 4u);
  EXPECT_EQ(ts.total_pushed(), 10u);
  auto points = ts.Snapshot();
  ASSERT_EQ(points.size(), 4u);
  // Oldest-to-newest suffix: 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(points[i].t_ns, 6 + i);
    EXPECT_DOUBLE_EQ(points[i].value, 6.0 + i);
  }
  EXPECT_DOUBLE_EQ(ts.last(), 9.0);
}

TEST(TimeSeriesTest, EmptyAndZeroCapacity) {
  TimeSeries empty(8);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.Snapshot().empty());
  EXPECT_DOUBLE_EQ(empty.last(), 0.0);
  TimeSeries tiny(0);  // clamps to one slot
  tiny.Push(1, 42.0);
  tiny.Push(2, 43.0);
  EXPECT_EQ(tiny.capacity(), 1u);
  EXPECT_DOUBLE_EQ(tiny.last(), 43.0);
}

TEST(TimeSeriesTest, ConcurrentWriterAndReadersStayConsistent) {
  // One writer wrapping the ring continuously; readers must only ever see
  // points where value == t_ns (no torn pairs) forming an increasing
  // timestamp sequence.
  TimeSeries ts(16);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t i = 1;
    while (!stop.load()) {
      ts.Push(i, static_cast<double>(i));
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    auto points = ts.Snapshot();
    int64_t prev = 0;
    for (const auto& point : points) {
      EXPECT_DOUBLE_EQ(point.value, static_cast<double>(point.t_ns));
      EXPECT_GT(point.t_ns, prev);
      prev = point.t_ns;
    }
  }
  stop.store(true);
  writer.join();
}

// -------------------------------------------------------------- sampler ---

TEST(SamplerTest, CounterRateAndValueSeries) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("gdms_test_ops_total");
  Sampler sampler(&registry);
  c->Add(100);
  sampler.SampleOnceAt(0);
  c->Add(50);
  sampler.SampleOnceAt(1000000000);  // +1 s
  const TimeSeries* value = sampler.Find("gdms_test_ops_total");
  const TimeSeries* rate = sampler.Find("gdms_test_ops_total:rate");
  ASSERT_NE(value, nullptr);
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(value->last(), 150.0);
  EXPECT_DOUBLE_EQ(rate->last(), 50.0);
  c->Add(25);
  sampler.SampleOnceAt(1500000000);  // +0.5 s
  EXPECT_DOUBLE_EQ(rate->last(), 50.0);  // 25 ops in 0.5 s
  EXPECT_EQ(sampler.ticks(), 3u);
}

TEST(SamplerTest, CounterResetClampsRateToZero) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("gdms_test_ops_total");
  Sampler sampler(&registry);
  c->Add(100);
  sampler.SampleOnceAt(0);
  registry.ResetAll();
  sampler.SampleOnceAt(1000000000);
  EXPECT_DOUBLE_EQ(sampler.Find("gdms_test_ops_total:rate")->last(), 0.0);
}

TEST(SamplerTest, GaugeSeriesTracksValue) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("gdms_test_depth");
  Sampler sampler(&registry);
  g->Set(7);
  sampler.SampleOnceAt(0);
  g->Set(-3);
  sampler.SampleOnceAt(1000000000);
  auto points = sampler.Find("gdms_test_depth")->Snapshot();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].value, 7.0);
  EXPECT_DOUBLE_EQ(points[1].value, -3.0);
}

TEST(SamplerTest, WindowedQuantilesTrackTheRecentWindow) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("gdms_test_latency_us");
  Sampler sampler(&registry);
  SamplerOptions opt;
  opt.window = 1;  // quantiles over the delta since the previous sample only
  sampler.Configure(opt);

  // 100 values of 10 before the first sample.
  for (int i = 0; i < 100; ++i) h->Record(10);
  sampler.SampleOnceAt(0);

  // 100 values of ~1000 between samples 1 and 2: the windowed p50 must land
  // in the [512, 1024] bucket even though the since-start aggregate is an
  // even mixture of 10s and 1000s.
  for (int i = 0; i < 100; ++i) h->Record(1000);
  sampler.SampleOnceAt(1000000000);
  const TimeSeries* p50 = sampler.Find("gdms_test_latency_us:p50");
  ASSERT_NE(p50, nullptr);
  EXPECT_GE(p50->last(), 512.0);
  EXPECT_LE(p50->last(), 1024.0);
  // Aggregate p50 over all 200 samples sits at the 10s/1000s boundary —
  // distinctly below the windowed figure.
  EXPECT_LT(h->Quantile(0.5), 512.0);

  // Next window: 100 values of 12. Windowed p50 drops back to [8, 16].
  for (int i = 0; i < 100; ++i) h->Record(12);
  sampler.SampleOnceAt(2000000000);
  EXPECT_GE(p50->last(), 8.0);
  EXPECT_LE(p50->last(), 16.0);

  // Histogram sample rate: 100 new recordings over 1 s.
  EXPECT_DOUBLE_EQ(sampler.Find("gdms_test_latency_us:rate")->last(), 100.0);
}

TEST(HistogramTest, QuantileFromBucketDeltasHandComputed) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(10);
  auto before = h.SnapshotBuckets();
  for (int i = 0; i < 100; ++i) h.Record(1000);
  auto after = h.SnapshotBuckets();
  std::array<uint64_t, Histogram::kBuckets> delta;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    delta[b] = after[b] - before[b];
  }
  // The delta contains exactly the 100 values of 1000 (bucket [512, 1024)).
  double p50 = Histogram::QuantileFromBuckets(delta, 0.5);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p50, 1024.0);
  std::array<uint64_t, Histogram::kBuckets> zero = {};
  EXPECT_DOUBLE_EQ(Histogram::QuantileFromBuckets(zero, 0.5), 0.0);
}

TEST(SamplerTest, BackgroundThreadTicksAndInvokesOnTick) {
  MetricsRegistry registry;
  registry.GetCounter("gdms_test_ops_total")->Add(1);
  Sampler sampler(&registry);
  std::atomic<uint64_t> callbacks{0};
  SamplerOptions opt;
  opt.period_ms = 2;
  opt.on_tick = [&](uint64_t) { callbacks.fetch_add(1); };
  sampler.Start(opt);
  EXPECT_TRUE(sampler.running());
  for (int i = 0; i < 500 && sampler.ticks() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.ticks(), 3u);
  EXPECT_GE(callbacks.load(), 3u);
  uint64_t ticks_after_stop = sampler.ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(sampler.ticks(), ticks_after_stop);
}

TEST(SamplerTest, ConcurrentSamplerVsMutators) {
  // The TSan scenario: mutator threads hammer the instruments while the
  // sampler thread snapshots them and readers walk the derived series.
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("gdms_test_ops_total");
  Gauge* g = registry.GetGauge("gdms_test_depth");
  Histogram* h = registry.GetHistogram("gdms_test_latency_us");
  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < 2; ++t) {
    mutators.emplace_back([&, t] {
      uint64_t i = 1;
      while (!stop.load()) {
        c->Add(1);
        g->Set(static_cast<int64_t>(i % 100));
        h->Record(i % 4096 + 1);
        ++i;
        (void)t;
      }
    });
  }
  Sampler sampler(&registry);
  SamplerOptions opt;
  opt.period_ms = 1;
  sampler.Start(opt);
  // Concurrent reader: series lookups and snapshots while both sides run.
  for (int round = 0; round < 100; ++round) {
    const TimeSeries* rate = sampler.Find("gdms_test_ops_total:rate");
    if (rate != nullptr) {
      for (const auto& point : rate->Snapshot()) {
        EXPECT_GE(point.value, 0.0);
      }
    }
    const TimeSeries* value = sampler.Find("gdms_test_ops_total");
    if (value != nullptr) {
      auto points = value->Snapshot();
      for (size_t i = 1; i < points.size(); ++i) {
        EXPECT_GE(points[i].value, points[i - 1].value);  // monotone counter
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  sampler.Stop();
  stop.store(true);
  for (auto& m : mutators) m.join();
  EXPECT_GE(sampler.ticks(), 1u);
  EXPECT_GT(c->value(), 0u);
}

// ----------------------------------------------------------- exposition ---

TEST(ExpositionTest, RendersTypesUnitsAndValues) {
  MetricsRegistry registry;
  registry.GetCounter("gdms_test_bytes_total")->Add(7);
  registry.GetGauge("gdms_test_depth")->Set(-2);
  Histogram* h = registry.GetHistogram("gdms_test_latency_us");
  for (uint64_t v = 1; v <= 100; ++v) h->Record(v);
  std::string text = RenderExposition(registry);
  EXPECT_NE(text.find("# TYPE gdms_test_bytes_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# UNIT gdms_test_bytes_total bytes"),
            std::string::npos);
  EXPECT_NE(text.find("gdms_test_bytes_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gdms_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("gdms_test_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gdms_test_latency_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("gdms_test_latency_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gdms_test_latency_us_sum 5050\n"), std::string::npos);
  EXPECT_NE(text.find("gdms_test_latency_us_count 100\n"),
            std::string::npos);
}

TEST(ExpositionTest, ParseRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("gdms_test_bytes_total")->Add(1234);
  registry.GetGauge("gdms_fed_staged_bytes{node=\"site_a\"}")->Set(42);
  registry.GetGauge("gdms_fed_staged_bytes{node=\"site_b\"}")->Set(0);
  Histogram* h = registry.GetHistogram("gdms_test_latency_us");
  h->Record(100);
  ScrapedExposition scrape = ParseExposition(RenderExposition(registry));
  EXPECT_DOUBLE_EQ(scrape.samples.at("gdms_test_bytes_total"), 1234.0);
  EXPECT_DOUBLE_EQ(
      scrape.samples.at("gdms_fed_staged_bytes{node=\"site_a\"}"), 42.0);
  EXPECT_DOUBLE_EQ(
      scrape.samples.at("gdms_fed_staged_bytes{node=\"site_b\"}"), 0.0);
  EXPECT_DOUBLE_EQ(scrape.samples.at("gdms_test_latency_us_count"), 1.0);
  EXPECT_EQ(scrape.types.at("gdms_test_bytes_total"), "counter");
  EXPECT_EQ(scrape.types.at("gdms_fed_staged_bytes"), "gauge");
  EXPECT_EQ(scrape.types.at("gdms_test_latency_us"), "summary");
  EXPECT_EQ(scrape.units.at("gdms_test_bytes_total"), "bytes");
}

TEST(ExpositionTest, WriteFileIsAtomicAndReadable) {
  MetricsRegistry registry;
  registry.GetCounter("gdms_test_ops_total")->Add(3);
  std::string path = ::testing::TempDir() + "telemetry_expo_test.prom";
  ASSERT_TRUE(WriteExpositionFile(registry, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  ScrapedExposition scrape = ParseExposition(buf.str());
  EXPECT_DOUBLE_EQ(scrape.samples.at("gdms_test_ops_total"), 3.0);
  // The temp file used for atomicity must not linger.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
  EXPECT_FALSE(WriteExpositionFile(registry, "/nonexistent-dir/x.prom"));
}

TEST(ExpositionTest, MetricUnitScheme) {
  EXPECT_STREQ(MetricUnit("gdms_engine_queue_wait_ns"), "ns");
  EXPECT_STREQ(MetricUnit("gdms_runner_query_latency_us"), "us");
  EXPECT_STREQ(MetricUnit("gdms_fed_staged_bytes{node=\"a\"}"), "bytes");
  EXPECT_STREQ(MetricUnit("gdms_fed_bytes_shipped_total"), "bytes");
  EXPECT_STREQ(MetricUnit("gdms_engine_tasks_total"), "count");
  EXPECT_STREQ(MetricUnit("gdms_wall_seconds"), "s");
  EXPECT_STREQ(MetricUnit("mystery"), "");
}

TEST(MetricsTest, JsonEscapeControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("nul\x01", 4)), "nul\\u0001");
  EXPECT_EQ(JsonEscape("x{node=\"site_a\"}"), "x{node=\\\"site_a\\\"}");
}

// ------------------------------------------------------------ query log ---

/// Runs one traced query through the parallel engine and returns its
/// filled-in log entry (profile attached).
QueryLogEntry TracedEntry(const std::string& gmql) {
  engine::EngineOptions options;
  options.threads = 2;
  engine::ParallelExecutor executor(options);
  core::QueryRunner runner(&executor);
  auto genome = gdm::GenomeAssembly::HumanLike(4, 10000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 4;
  popt.peaks_per_sample = 500;
  runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 3));
  auto catalog = sim::GenerateGenes(genome, 100, 3);
  runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 3));
  auto results = runner.Run(gmql);
  EXPECT_TRUE(results.ok()) << results.status().ToString();
  return core::MakeQueryLogEntry(gmql, runner.last_stats());
}

TEST(QueryLogTest, FormatEntryCarriesEveryFigure) {
  QueryLogEntry entry;
  entry.query = "R = MAP(n AS COUNT) A B; MATERIALIZE R;";
  entry.wall_ms = 12.5;
  entry.operators = 3;
  entry.cache_hits = 1;
  entry.intermediate_datasets = 2;
  entry.fused_chains = 1;
  entry.tasks = 96;
  entry.partitions = 24;
  entry.shuffle_bytes = 4096;
  entry.stage_barriers = 4;
  entry.fed_requests = 2;
  entry.fed_bytes_shipped = 100;
  entry.fed_bytes_received = 5000;
  QueryLogOptions opt;  // no path: format-only
  QueryLog log(opt);
  std::string line = log.FormatEntry(entry, 3);
  EXPECT_NE(line.find("\"seq\":3"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\"wall_ms\":12.5"), std::string::npos);
  EXPECT_NE(line.find("\"operators\":3"), std::string::npos);
  EXPECT_NE(line.find("\"tasks\":96"), std::string::npos);
  EXPECT_NE(line.find("\"shuffle_bytes\":4096"), std::string::npos);
  EXPECT_NE(line.find("\"fed\":{\"requests\":2,\"bytes_shipped\":100,"
                      "\"bytes_received\":5000}"),
            std::string::npos);
  EXPECT_NE(line.find("\"slow\":false"), std::string::npos);
  EXPECT_EQ(line.find("\"explain\""), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line per entry
}

TEST(QueryLogTest, FailedEntryCarriesError) {
  QueryLogEntry entry;
  entry.query = "BROKEN";
  entry.ok = false;
  entry.error = "ParseError: expected '=' near \"BROKEN\"";
  QueryLogOptions opt;
  QueryLog log(opt);
  std::string line = log.FormatEntry(entry, 1);
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  // The error text's quotes must arrive escaped.
  EXPECT_NE(line.find("near \\\"BROKEN\\\""), std::string::npos);
}

TEST(QueryLogTest, SlowEntryEmbedsExplainAnalyze) {
  ScopedTracing tracing;
  QueryLogEntry entry = TracedEntry(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "R = MAP(n AS COUNT) PROMS ENCODE;\nMATERIALIZE R;\n");
  ASSERT_NE(entry.profile, nullptr);
  EXPECT_GT(entry.operators, 0u);
  EXPECT_GT(entry.tasks, 0u);

  QueryLogOptions slow_all;
  slow_all.slow_ms = 0;  // escalate everything
  QueryLog log(slow_all);
  std::string line = log.FormatEntry(entry, 1);
  EXPECT_NE(line.find("\"slow\":true"), std::string::npos);
  EXPECT_NE(line.find("\"explain\":\""), std::string::npos);
  // The embedded tree names the operators and stays on the one JSONL line.
  EXPECT_NE(line.find("MATERIALIZE R"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  // Per-operator self-times surfaced from the profile.
  EXPECT_NE(line.find("\"ops\":["), std::string::npos);
  EXPECT_NE(line.find("\"self_ms\":"), std::string::npos);
  // Scheduler figures derived from stage spans.
  EXPECT_NE(line.find("\"queue_wait_mean_us\":"), std::string::npos);

  QueryLogOptions fast;
  fast.slow_ms = 1e9;  // nothing is slow
  QueryLog fast_log(fast);
  std::string fast_line = fast_log.FormatEntry(entry, 1);
  EXPECT_NE(fast_line.find("\"slow\":false"), std::string::npos);
  EXPECT_EQ(fast_line.find("\"explain\""), std::string::npos);
}

TEST(QueryLogTest, WritesOneFlushedLinePerEntry) {
  std::string path = ::testing::TempDir() + "telemetry_query_log_test.jsonl";
  std::remove(path.c_str());
  QueryLogOptions opt;
  opt.path = path;
  opt.slow_ms = 5000;
  QueryLog log(opt);
  ASSERT_TRUE(log.ok());
  QueryLogEntry entry;
  entry.query = "Q";
  entry.wall_ms = 1;
  log.Record(entry);
  entry.wall_ms = 9999;  // slow
  log.Record(entry);
  EXPECT_EQ(log.entries(), 2u);
  EXPECT_EQ(log.slow_entries(), 1u);
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"slow\":true"), std::string::npos);
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  std::remove(path.c_str());
}

TEST(QueryLogTest, TruncatesOversizedQueryText) {
  QueryLogOptions opt;
  opt.max_query_chars = 8;
  QueryLog log(opt);
  QueryLogEntry entry;
  entry.query = std::string(100, 'Q');
  std::string line = log.FormatEntry(entry, 1);
  EXPECT_EQ(line.find(std::string(9, 'Q')), std::string::npos);
  EXPECT_NE(line.find("QQQQQQQQ"), std::string::npos);
}

}  // namespace
}  // namespace gdms::obs
