// Tests for the src/serve session layer: query normalization, plan-cache
// hit/rebind result equivalence, result-cache invalidation on dataset
// publish (bit-identical to an uncached run), admission control that sheds
// instead of blocking, queue deadlines, and — the TSan target — concurrent
// sessions hammering the caches while a writer bumps dataset versions.

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.h"
#include "io/gdm_format.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/plan_cache.h"
#include "serve/serve_catalog.h"
#include "serve/session_manager.h"
#include "sim/generators.h"

namespace gdms::serve {
namespace {

gdm::GenomeAssembly TestGenome() {
  return gdm::GenomeAssembly::HumanLike(4, 40000000);
}

gdm::Dataset Encode(uint64_t seed) {
  sim::PeakDatasetOptions popt;
  popt.num_samples = 2;
  popt.peaks_per_sample = 500;
  return sim::GeneratePeakDataset(TestGenome(), popt, seed);
}

gdm::Dataset Annotations() {
  sim::GeneCatalog genes = sim::GenerateGenes(TestGenome(), 200, 21);
  return sim::GenerateAnnotations(TestGenome(), genes, {}, 21);
}

const char* kJoinQuery =
    "J = JOIN(DLE(20000); CAT) ANNOTATIONS ENCODE;\n"
    "MATERIALIZE J;\n";

const char* kCoverQuery =
    "MARKED = SELECT(dataType == 'ChipSeq') ENCODE;\n"
    "ACTIVE = COVER(2, ANY) MARKED;\n"
    "MATERIALIZE ACTIVE;\n";

std::string MapQuery(const std::string& antibody) {
  return "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
         "PEAKS = SELECT(antibody == '" +
         antibody +
         "') ENCODE;\n"
         "R = MAP(peak_count AS COUNT) PROMS PEAKS;\n"
         "MATERIALIZE R;\n";
}

/// Reference run with a plain (uncached, unserved) QueryRunner over the
/// given datasets: the ground truth served results must be bit-identical to.
std::map<std::string, std::string> UncachedRun(
    const std::vector<gdm::Dataset>& datasets, const std::string& gmql) {
  core::QueryRunner runner;
  for (const auto& ds : datasets) runner.RegisterDataset(ds);
  auto results = runner.Run(gmql);
  std::map<std::string, std::string> out;
  for (const auto& [name, ds] : results.ValueOrDie()) {
    out[name] = io::WriteGdmString(ds);
  }
  return out;
}

std::map<std::string, std::string> Serialize(const ResultCache::Results& r) {
  std::map<std::string, std::string> out;
  EXPECT_NE(r, nullptr);
  if (r == nullptr) return out;
  for (const auto& [name, ds] : *r) out[name] = io::WriteGdmString(ds);
  return out;
}

TEST(NormalizeGmql, SameShapeDifferentLiterals) {
  auto a = NormalizeGmql(MapQuery("CTCF")).ValueOrDie();
  auto b = NormalizeGmql(MapQuery("EP300")).ValueOrDie();
  EXPECT_EQ(a.key, b.key);
  ASSERT_EQ(a.literals.size(), b.literals.size());
  EXPECT_EQ(a.literals[1], "'CTCF'");
  EXPECT_EQ(b.literals[1], "'EP300'");
  auto c = NormalizeGmql(kCoverQuery).ValueOrDie();
  EXPECT_NE(a.key, c.key);
}

TEST(SessionManager, PlanHitAndRebindReturnCorrectResults) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  catalog.Publish(Annotations());
  ServeOptions opts;
  opts.workers = 2;
  SessionManager manager(&catalog, opts);

  ServeResponse first = manager.Execute(MapQuery("CTCF"));
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  EXPECT_STREQ(first.plan_cache, "miss");

  // Same shape, new literal: a rebind, and its results must match an
  // uncached run with that literal (not the first binding's results).
  ServeResponse rebound = manager.Execute(MapQuery("EP300"));
  ASSERT_TRUE(rebound.status.ok()) << rebound.status.message();
  EXPECT_STREQ(rebound.plan_cache, "rebind");
  EXPECT_EQ(Serialize(rebound.results),
            UncachedRun({Encode(7), Annotations()}, MapQuery("EP300")));

  // Exact repeat: plan hit, identical bytes.
  ServeResponse repeat = manager.Execute(MapQuery("EP300"));
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_STREQ(repeat.plan_cache, "hit");
  EXPECT_TRUE(repeat.result_cache_hit);
  EXPECT_EQ(Serialize(repeat.results), Serialize(rebound.results));
}

TEST(SessionManager, ResultCacheInvalidationServesFreshBytes) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  ServeOptions opts;
  opts.workers = 1;
  SessionManager manager(&catalog, opts);

  ServeResponse v1 = manager.Execute(kCoverQuery);
  ASSERT_TRUE(v1.status.ok()) << v1.status.message();
  EXPECT_FALSE(v1.result_cache_hit);
  EXPECT_EQ(Serialize(v1.results), UncachedRun({Encode(7)}, kCoverQuery));

  ServeResponse cached = manager.Execute(kCoverQuery);
  ASSERT_TRUE(cached.status.ok());
  EXPECT_TRUE(cached.result_cache_hit);

  // Republish ENCODE with different data: the cached entry must become
  // unreachable and the re-query must match an uncached run on the new
  // version, bit for bit.
  catalog.Publish(Encode(99));
  ServeResponse v2 = manager.Execute(kCoverQuery);
  ASSERT_TRUE(v2.status.ok()) << v2.status.message();
  EXPECT_FALSE(v2.result_cache_hit);
  EXPECT_STREQ(v2.plan_cache, "hit");  // the plan survives, the result doesn't
  EXPECT_EQ(Serialize(v2.results), UncachedRun({Encode(99)}, kCoverQuery));
  EXPECT_NE(Serialize(v2.results), Serialize(v1.results));
  EXPECT_GE(manager.result_cache().stats().invalidations, 1u);
}

TEST(SessionManager, AdmissionShedsInsteadOfBlocking) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  ServeOptions opts;
  opts.workers = 1;
  opts.queue_limit = 4;
  opts.result_cache_bytes = 0;  // every admitted query costs real work
  SessionManager manager(&catalog, opts);
  manager.Execute(kCoverQuery);  // warm the plan cache

  std::mutex mu;
  std::map<uint64_t, int> responses;
  std::vector<uint64_t> admitted;
  uint64_t rejected = 0;
  for (int i = 0; i < 64; ++i) {
    auto id = manager.Submit(kCoverQuery, [&](const ServeResponse& resp) {
      std::lock_guard<std::mutex> lock(mu);
      ++responses[resp.id];
    });
    if (id.ok()) {
      admitted.push_back(id.ValueOrDie());
    } else {
      EXPECT_EQ(id.status().code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  manager.Drain();  // must return: every admitted query answers
  EXPECT_GT(rejected, 0u) << "queue of 4 absorbed a 64-query burst";
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(responses.size(), admitted.size());
  for (uint64_t id : admitted) {
    EXPECT_EQ(responses[id], 1) << "query " << id << " answered != once";
  }
}

TEST(SessionManager, QueueDeadlineShedsWithoutExecuting) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  ServeOptions opts;
  opts.workers = 1;
  opts.queue_limit = 64;
  opts.result_cache_bytes = 0;
  SessionManager manager(&catalog, opts);
  manager.Execute(kCoverQuery);

  // Fill the single worker's pipeline with no-deadline work, then submit a
  // query whose deadline will certainly pass while it waits in the queue:
  // the first query's callback holds the worker until the late query has
  // been submitted and 1 ms has passed. (Relying on COVER's run time alone
  // let the worker go idle before the late query was submitted when the
  // test thread was descheduled in between.)
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(manager
                    .Submit(kCoverQuery,
                            [&done, released, i](const ServeResponse&) {
                              if (i == 0) released.wait();
                              ++done;
                            })
                    .ok());
  }
  std::promise<ServeResponse> late_response;
  auto late_id = manager.Submit(
      kCoverQuery,
      [&late_response](const ServeResponse& r) { late_response.set_value(r); },
      /*deadline_ms=*/0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  release.set_value();
  ASSERT_TRUE(late_id.ok());
  ServeResponse late = late_response.get_future().get();
  EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.results, nullptr);
  manager.Drain();
  EXPECT_EQ(done.load(), 8);
  EXPECT_GE(manager.stats().deadline_exceeded, 1u);
}

// The TSan workhorse: concurrent submitters hammer the plan and result
// caches while a writer republishes ENCODE. Pinned snapshots mean every
// query must still succeed and answer exactly once.
TEST(SessionManager, ConcurrentSessionsSurviveVersionBumps) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  catalog.Publish(Annotations());
  ServeOptions opts;
  opts.workers = 4;
  opts.queue_limit = 512;
  SessionManager manager(&catalog, opts);

  const std::string queries[] = {MapQuery("CTCF"), MapQuery("EP300"),
                                 std::string(kCoverQuery)};
  std::mutex mu;
  std::map<uint64_t, int> responses;
  std::vector<uint64_t> admitted;
  std::atomic<uint64_t> errors{0};

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto id = manager.Submit(queries[(t + i) % 3],
                                 [&](const ServeResponse& resp) {
                                   if (!resp.status.ok()) ++errors;
                                   std::lock_guard<std::mutex> lock(mu);
                                   ++responses[resp.id];
                                 });
        if (id.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          admitted.push_back(id.ValueOrDie());
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 10; ++i) {
      catalog.Publish(Encode(i % 2 == 0 ? 7 : 99));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : threads) t.join();
  writer.join();
  manager.Drain();

  EXPECT_EQ(errors.load(), 0u);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(admitted.size(),
            static_cast<size_t>(kSubmitters) * kPerThread);
  EXPECT_EQ(responses.size(), admitted.size());
  for (uint64_t id : admitted) EXPECT_EQ(responses.at(id), 1);
  EXPECT_GE(catalog.Version("ENCODE"), 11u);
}

double SpanAttr(const obs::SpanRecord& rec, const std::string& key) {
  for (const auto& [k, v] : rec.attrs) {
    if (k == key) return v;
  }
  return 0;
}

// Four traced workers run MAP, COVER and JOIN side by side. Every engine
// stage span must nest under the operator of its own query, so in every
// response's profile each operator span's `tasks` equals the sum of its
// child stage spans' `tasks`.
TEST(SessionManager, ConcurrentTracedQueriesKeepTheirOwnStageSpans) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  catalog.Publish(Annotations());
  ServeOptions opts;
  opts.workers = 4;
  opts.queue_limit = 64;
  opts.result_cache_bytes = 0;  // every query runs the engine
  SessionManager manager(&catalog, opts);
  const std::string queries[] = {MapQuery("CTCF"), std::string(kCoverQuery),
                                 std::string(kJoinQuery)};

  obs::Tracer::Global().Clear();
  obs::Tracer::Global().set_enabled(true);
  std::mutex mu;
  std::vector<ServeResponse> responses;
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(manager
                    .Submit(queries[i % 3],
                            [&](const ServeResponse& resp) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses.push_back(resp);
                            })
                    .ok());
  }
  manager.Drain();
  obs::Tracer::Global().set_enabled(false);
  obs::Tracer::Global().Clear();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), 48u);
  for (const ServeResponse& resp : responses) {
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ASSERT_NE(resp.stats.profile, nullptr);
    const obs::Profile& profile = *resp.stats.profile;
    double query_tasks = 0;
    for (const obs::Profile::Node& node : profile.nodes()) {
      if (node.rec->category != "operator") continue;
      double stage_tasks = 0;
      for (size_t child : node.children) {
        const obs::SpanRecord& rec = *profile.nodes()[child].rec;
        if (rec.category == "stage") stage_tasks += SpanAttr(rec, "tasks");
      }
      EXPECT_EQ(stage_tasks, SpanAttr(*node.rec, "tasks"))
          << node.rec->name << " of query " << resp.id;
      query_tasks += stage_tasks;
    }
    EXPECT_GT(query_tasks, 0) << "query " << resp.id;
  }
}

}  // namespace
}  // namespace gdms::serve
