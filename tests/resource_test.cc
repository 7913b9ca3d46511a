// Resource-accounting tests: tracked bytes against ground truth (columnar
// caches, .gdmz images, per-query accounting), the watermark shedder's
// budget contract, eviction-then-requery bit-identity, concurrent
// accounting under the flat scheduler, and per-query attribution of spans
// and bytes across runners running side by side (exercised under TSan in
// CI).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>

#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "gdm/dataset.h"
#include "gdm/region_columns.h"
#include "io/gdm_format.h"
#include "io/gdmz.h"
#include "obs/profile.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "sim/generators.h"

namespace gdms::obs {
namespace {

/// Restores the global tracker's budget and accounting switch on scope
/// exit, so tests cannot leak shedding behavior into each other.
class TrackerStateGuard {
 public:
  TrackerStateGuard() = default;
  ~TrackerStateGuard() {
    ResourceTracker::Global().set_budget_bytes(0);
    ResourceTracker::Global().set_accounting_enabled(true);
  }
};

gdm::Dataset PeakDataset(int samples, int peaks, uint32_t seed) {
  auto genome = gdm::GenomeAssembly::HumanLike(4, 20000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = samples;
  popt.peaks_per_sample = peaks;
  return sim::GeneratePeakDataset(genome, popt, seed);
}

TEST(QueryAccountingTest, ChargeReleaseArithmetic) {
  QueryAccounting account;
  account.SetCurrentOp("SELECT");
  account.Charge(1000);
  account.SetCurrentOp("MAP");
  account.Charge(3000);
  EXPECT_EQ(account.alloc_bytes(), 4000u);
  EXPECT_EQ(account.current_bytes(), 4000u);
  EXPECT_EQ(account.peak_bytes(), 4000u);

  account.ReleaseFrom("SELECT", 1000);
  EXPECT_EQ(account.current_bytes(), 3000u);
  EXPECT_EQ(account.peak_bytes(), 4000u);   // high-water sticks
  EXPECT_EQ(account.alloc_bytes(), 4000u);  // cumulative never decreases

  account.ChargeTo("JOIN", 500);
  auto stats = account.OperatorStats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].op, "MAP");  // largest alloc first
  EXPECT_EQ(stats[0].alloc_bytes, 3000u);
  uint64_t total = 0;
  for (const auto& op : stats) total += op.alloc_bytes;
  EXPECT_EQ(total, account.alloc_bytes());

  std::string tree = account.RenderTree("q1");
  EXPECT_NE(tree.find("q1"), std::string::npos);
  EXPECT_NE(tree.find("MAP"), std::string::npos);

  account.Drain();
  EXPECT_EQ(account.current_bytes(), 0u);
  EXPECT_EQ(account.peak_bytes(), 4000u);  // 500 charged after the release
}

TEST(QueryAccountingTest, ScopedChargeKeepsAttributionAcrossOpChange) {
  auto account = std::make_shared<QueryAccounting>();
  account->SetCurrentOp("MAP");
  {
    ScopedCharge charge(account, 2048);
    // The runner has moved on, but the scoped bytes stay on MAP.
    account->SetCurrentOp("SELECT");
    EXPECT_EQ(account->current_bytes(), 2048u);
  }
  EXPECT_EQ(account->current_bytes(), 0u);
  EXPECT_EQ(account->peak_bytes(), 2048u);
  auto stats = account->OperatorStats();
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].op, "MAP");

  // Without an account the charge is a no-op.
  ScopedCharge idle(nullptr, 4096);
  EXPECT_EQ(account->current_bytes(), 0u);
}

TEST(ResourceTest, ColumnarCacheBytesMatchGroundTruth) {
  gdm::Dataset ds = PeakDataset(3, 400, 11);
  EXPECT_EQ(ds.ColumnarCacheBytes(), 0u);

  uint64_t expected = 0;
  for (const auto& sample : ds.samples()) {
    expected += sample.columns(ds.schema()).MemoryBytes();
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(ds.ColumnarCacheBytes(), expected);

  uint64_t samples_evicted = 0;
  uint64_t freed = ds.EvictColumnarCaches(&samples_evicted);
  EXPECT_EQ(freed, expected);
  EXPECT_EQ(samples_evicted, ds.samples().size());
  EXPECT_EQ(ds.ColumnarCacheBytes(), 0u);

  // Caches rebuild lazily from the intact rows to the same bytes.
  uint64_t rebuilt = 0;
  for (const auto& sample : ds.samples()) {
    rebuilt += sample.columns(ds.schema()).MemoryBytes();
  }
  EXPECT_EQ(rebuilt, expected);
}

TEST(ResourceTest, MappedGdmzResidencyAndColdPageDrop) {
  gdm::Dataset ds = PeakDataset(4, 5000, 13);
  std::string blob = io::WriteGdmzString(ds);
  std::string path = ::testing::TempDir() + "resource_test_map.gdmz";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  auto opened = io::MappedGdmz::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  io::MappedGdmz mapped = std::move(opened).value();
  EXPECT_EQ(mapped.map_length(), blob.size());
  EXPECT_EQ(mapped.bytes(), std::string_view(blob));

  mapped.WillNeedPrefix();
  auto first = mapped.Parse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::string first_text = io::WriteGdmString(first.value());

  // A second parse of the same image is bit-identical.
  auto second = mapped.Parse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(io::WriteGdmString(second.value()), first_text);
  std::remove(path.c_str());
}

TEST(ResourceTest, ShedderRespectsBudgetAndLruOrder) {
  ResourceTracker tracker;  // private instance: deterministic registry
  uint64_t cold_bytes = 60000, warm_bytes = 40000;
  int cold_sheds = 0, warm_sheds = 0;
  uint64_t cold = tracker.RegisterStorage(
      "cold",
      [&] {
        StorageUsage usage;
        usage.columnar_bytes = cold_bytes;
        return usage;
      },
      [&](uint64_t want) {
        ++cold_sheds;
        uint64_t freed = std::min(want, cold_bytes);
        cold_bytes -= freed;
        return freed;
      });
  uint64_t warm = tracker.RegisterStorage(
      "warm",
      [&] {
        StorageUsage usage;
        usage.columnar_bytes = warm_bytes;
        return usage;
      },
      [&](uint64_t want) {
        ++warm_sheds;
        uint64_t freed = std::min(want, warm_bytes);
        warm_bytes -= freed;
        return freed;
      });
  tracker.Touch(cold);
  tracker.Touch(warm);  // "cold" is now least recently touched

  EXPECT_EQ(tracker.ReclaimableBytes(), 100000u);
  EXPECT_EQ(tracker.MaybeShed(), 0u);  // no budget, no shedding

  tracker.set_budget_bytes(50000);
  uint64_t freed = tracker.MaybeShed();
  EXPECT_GT(freed, 0u);
  EXPECT_LE(tracker.ReclaimableBytes(), 50000u);
  // LRU-first: the 60000-byte cold registration alone covers the request
  // down to the low watermark, so the warm one is never asked.
  EXPECT_EQ(cold_sheds, 1);
  EXPECT_EQ(warm_sheds, 0);

  EXPECT_EQ(tracker.MaybeShed(), 0u);  // already under budget
  tracker.UnregisterStorage(cold);
  tracker.UnregisterStorage(warm);
  EXPECT_EQ(tracker.ReclaimableBytes(), 0u);
}

TEST(ResourceTest, QueryPeakBytesTracksGroundTruth) {
  TrackerStateGuard guard;
  core::QueryRunner runner;
  runner.RegisterDataset(PeakDataset(4, 500, 19));

  auto results = runner.Run(
      "S = SELECT(dataType == 'ChipSeq'; region: signal >= 2) ENCODE; "
      "MATERIALIZE S;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const core::RunStats& stats = runner.last_stats();

  // Single-operator program: the peak is exactly the SELECT output's
  // resident footprint (MATERIALIZE passes through uncharged).
  auto it = results.value().find("S");
  ASSERT_NE(it, results.value().end());
  uint64_t ground_truth = it->second.EstimateResidentBytes();
  ASSERT_GT(ground_truth, 0u);
  EXPECT_EQ(stats.peak_bytes, ground_truth);
  EXPECT_EQ(stats.alloc_bytes, ground_truth);
  ASSERT_EQ(stats.op_bytes.size(), 1u);
  EXPECT_EQ(stats.op_bytes[0].op, "SELECT");
  EXPECT_EQ(stats.op_bytes[0].alloc_bytes, ground_truth);

  // The kill switch zeroes the whole pipeline.
  ResourceTracker::Global().set_accounting_enabled(false);
  auto again = runner.Run(
      "S = SELECT(dataType == 'ChipSeq'; region: signal >= 2) ENCODE; "
      "MATERIALIZE S;");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(runner.last_stats().peak_bytes, 0u);
  EXPECT_EQ(runner.last_stats().alloc_bytes, 0u);
  EXPECT_TRUE(runner.last_stats().op_bytes.empty());
}

TEST(ResourceTest, MetadataOnlySelectChargesNoRegionBytes) {
  TrackerStateGuard guard;
  core::QueryRunner runner;
  runner.RegisterDataset(PeakDataset(4, 500, 31));
  auto results =
      runner.Run("S = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE S;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  // The output passes every input region store through, so the operator is
  // charged its metadata and nothing for regions.
  const gdm::Dataset& s = results.value().at("S");
  const gdm::Dataset* encode = runner.FindDataset("ENCODE");
  ASSERT_EQ(s.num_samples(), encode->num_samples());
  uint64_t region_bytes = 0;
  for (size_t i = 0; i < s.num_samples(); ++i) {
    ASSERT_EQ(s.sample(i).regions.storage_id(),
              encode->sample(i).regions.storage_id());
    region_bytes += s.sample(i).regions.RowBytes();
  }
  ASSERT_GT(region_bytes, 0u);
  const core::RunStats& stats = runner.last_stats();
  ASSERT_EQ(stats.op_bytes.size(), 1u);
  EXPECT_EQ(stats.op_bytes[0].op, "SELECT");
  EXPECT_GT(stats.op_bytes[0].alloc_bytes, 0u);
  EXPECT_EQ(stats.op_bytes[0].alloc_bytes,
            s.EstimateResidentBytes() - region_bytes);
}

TEST(ResourceTest, EvictionThenRequeryIsBitIdentical) {
  TrackerStateGuard guard;
  core::QueryRunner runner;
  runner.RegisterDataset(PeakDataset(4, 500, 23));
  const char* kQuery =
      "S = SELECT(dataType == 'ChipSeq'; region: signal >= 2) ENCODE; "
      "MATERIALIZE S;";

  // Build the columnar overlay, then capture the unbudgeted result.
  const gdm::Dataset* encode = runner.FindDataset("ENCODE");
  ASSERT_NE(encode, nullptr);
  for (const auto& sample : encode->samples()) {
    sample.columns(encode->schema());
  }
  ASSERT_GT(encode->ColumnarCacheBytes(), 0u);
  auto before = runner.Run(kQuery);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  std::string before_text = io::WriteGdmString(before.value().at("S"));

  // A 1-byte budget forces the end-of-query watermark pass to shed every
  // reclaimable byte this runner registered.
  ResourceTracker& tracker = ResourceTracker::Global();
  uint64_t evictions0 = tracker.evictions();
  uint64_t evicted_bytes0 = tracker.evicted_bytes();
  tracker.set_budget_bytes(1);
  auto budgeted = runner.Run(kQuery);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_EQ(io::WriteGdmString(budgeted.value().at("S")), before_text);
  EXPECT_GT(tracker.evictions(), evictions0);
  EXPECT_GT(tracker.evicted_bytes(), evicted_bytes0);
  EXPECT_EQ(encode->ColumnarCacheBytes(), 0u);

  // Re-query after shedding: caches rebuild, results unchanged.
  tracker.set_budget_bytes(0);
  auto after = runner.Run(kQuery);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(io::WriteGdmString(after.value().at("S")), before_text);
}

TEST(ResourceTest, ConcurrentAccountingUnderFlatScheduler) {
  TrackerStateGuard guard;
  engine::EngineOptions options;
  options.threads = 4;
  engine::ParallelExecutor executor(options);
  core::QueryRunner runner(&executor);
  auto genome = gdm::GenomeAssembly::HumanLike(4, 20000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 4;
  popt.peaks_per_sample = 400;
  runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 29));
  auto catalog = sim::GenerateGenes(genome, 200, 29);
  runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 29));

  // The sampler thread refreshes gauges (usage callbacks walk live cache
  // pointers) while engine workers charge shuffle buffers into the active
  // account — the race surface TSan checks.
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    while (!stop.load()) {
      ResourceTracker::Global().UpdateGauges();
      ResourceTracker::Global().ReclaimableBytes();
      ResourceTracker::Global().RenderStorageSummary();
    }
  });
  for (int i = 0; i < 6; ++i) {
    auto results = runner.Run(
        "M = MAP(n AS COUNT) ANNOTATIONS ENCODE; MATERIALIZE M;");
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    EXPECT_GT(runner.last_stats().peak_bytes, 0u);
    EXPECT_GE(runner.last_stats().alloc_bytes,
              runner.last_stats().peak_bytes);
  }
  stop.store(true);
  sampler.join();
}

/// Forwards to a wrapped executor; when gated, its MAP Execute announces its
/// entry and then waits to be released before delegating.
class GatedExecutor : public core::Executor {
 public:
  GatedExecutor(core::Executor* inner, bool gated)
      : inner_(inner), gated_(gated) {}

  Result<gdm::Dataset> Execute(
      const core::PlanNode& node,
      const std::vector<const gdm::Dataset*>& inputs) override {
    if (gated_ && node.kind == core::OpKind::kMap) {
      entered_.set_value();
      released_.wait();
    }
    return inner_->Execute(node, inputs);
  }
  core::ExecutorStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  void WaitEntered() { entered_.get_future().wait(); }
  void Release() { release_.set_value(); }

 private:
  core::Executor* inner_;
  bool gated_;
  std::promise<void> entered_;
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

/// One traced runner over a materialized-backend engine (so MAP shuffles
/// and charges its shuffle buffers), optionally gated at its MAP.
struct TracedMapRunner {
  explicit TracedMapRunner(bool gated)
      : engine([] {
          engine::EngineOptions options;
          options.threads = 2;
          options.backend = engine::BackendKind::kMaterialized;
          return options;
        }()),
        gate(&engine, gated),
        runner(&gate) {
    auto genome = gdm::GenomeAssembly::HumanLike(4, 20000000);
    sim::PeakDatasetOptions popt;
    popt.num_samples = 3;
    popt.peaks_per_sample = 300;
    runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 37));
    auto catalog = sim::GenerateGenes(genome, 150, 37);
    runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 37));
  }

  Status Run() {
    return runner
        .Run("M = MAP(n AS COUNT) ANNOTATIONS ENCODE; MATERIALIZE M;")
        .status();
  }

  engine::ParallelExecutor engine;
  GatedExecutor gate;
  core::QueryRunner runner;
};

double SpanAttr(const SpanRecord& rec, const std::string& key) {
  for (const auto& [k, v] : rec.attrs) {
    if (k == key) return v;
  }
  return 0;
}

/// The MAP span's `tasks` and the sum of its child stage spans' `tasks`.
std::pair<double, double> MapTasksAndStageSum(const Profile& profile) {
  for (const Profile::Node& node : profile.nodes()) {
    if (node.rec->name != "MAP") continue;
    double stages = 0;
    for (size_t child : node.children) {
      const SpanRecord& rec = *profile.nodes()[child].rec;
      if (rec.category == "stage") stages += SpanAttr(rec, "tasks");
    }
    return {SpanAttr(*node.rec, "tasks"), stages};
  }
  return {-1, -1};
}

// Two runners side by side, ordered by latches so that each one's MAP runs
// while the other is inside its own MAP: A enters its MAP and waits; B
// starts and waits inside its MAP; A then runs and finishes; then B runs.
// Each query's stage spans must nest under its own MAP span and its
// shuffle charge land in its own account, exactly as when run alone.
TEST(QueryAccountingTest, ConcurrentRunnersAttributeStagesAndBytes) {
  TrackerStateGuard guard;
  Tracer::Global().set_enabled(true);
  uint64_t alone_alloc = 0;
  {
    TracedMapRunner alone(/*gated=*/false);
    ASSERT_TRUE(alone.Run().ok());
    alone_alloc = alone.runner.last_stats().alloc_bytes;
    ASSERT_GT(alone.runner.last_stats().executor.shuffle_bytes, 0u);
  }
  TracedMapRunner a(/*gated=*/true);
  TracedMapRunner b(/*gated=*/true);
  Status a_status, b_status;
  std::thread a_thread([&] { a_status = a.Run(); });
  a.gate.WaitEntered();
  std::thread b_thread([&] { b_status = b.Run(); });
  b.gate.WaitEntered();
  a.gate.Release();
  a_thread.join();
  b.gate.Release();
  b_thread.join();
  Tracer::Global().set_enabled(false);

  ASSERT_TRUE(a_status.ok()) << a_status.ToString();
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  for (const TracedMapRunner* r : {&a, &b}) {
    const core::RunStats& stats = r->runner.last_stats();
    ASSERT_NE(stats.profile, nullptr);
    auto [tasks, stage_tasks] = MapTasksAndStageSum(*stats.profile);
    EXPECT_GT(tasks, 0);
    EXPECT_EQ(stage_tasks, tasks);
    EXPECT_EQ(stats.alloc_bytes, alone_alloc);
  }
}

}  // namespace
}  // namespace gdms::obs
