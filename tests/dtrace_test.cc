// End-to-end distributed tracing: context codecs, SimClock stitching of
// coordinator + remote spans, critical-path attribution, hedge-loser
// tagging, the serve-path trace (including minimal shed traces), and the
// exemplar ring. Federation faults are seeded, so the determinism
// expectations here are bit-exact, not statistical.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/dtrace.h"
#include "repo/federation.h"
#include "repo/transport.h"
#include "serve/serve_catalog.h"
#include "serve/session_manager.h"
#include "sim/generators.h"

namespace gdms {
namespace {

using repo::Coordinator;
using repo::FederatedNode;
using repo::FedPolicies;
using repo::LinkProfile;
using repo::MessageKind;
using repo::MessageKindBit;

constexpr const char* kQuery =
    "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
    "PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;\n"
    "R = MAP(peak_count AS COUNT) PROMS PEAKS;\n"
    "MATERIALIZE R;\n";

void Populate(FederatedNode* node, uint64_t seed = 1) {
  auto genome = gdm::GenomeAssembly::HumanLike(3, 20000000);
  sim::PeakDatasetOptions opt;
  opt.num_samples = 3;
  opt.peaks_per_sample = 150;
  node->catalog()->Put(sim::GeneratePeakDataset(genome, opt, seed));
  auto catalog = sim::GenerateGenes(genome, 100, seed);
  node->catalog()->Put(sim::GenerateAnnotations(genome, catalog, {}, seed));
}

// -- ids and codecs -------------------------------------------------------

TEST(TraceId, MintIsDeterministicNonZeroAndSeedSensitive) {
  obs::TraceId a = obs::MintTraceId(1, 2);
  obs::TraceId b = obs::MintTraceId(1, 2);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.ToHex(), b.ToHex());
  // Either seed changing moves BOTH halves, so hex prefixes (what `.trace`
  // matches on) never collide between namespaces sharing a counter.
  obs::TraceId c = obs::MintTraceId(2, 2);
  obs::TraceId d = obs::MintTraceId(1, 3);
  EXPECT_NE(a.hi, c.hi);
  EXPECT_NE(a.lo, c.lo);
  EXPECT_NE(a.hi, d.hi);
  EXPECT_NE(a.lo, d.lo);
  EXPECT_EQ(a.ToHex().size(), 32u);
  EXPECT_EQ(obs::TraceId::FromHex(a.ToHex()).ToHex(), a.ToHex());
}

TEST(TraceContextCodec, RoundTripsAndRejectsGarbage) {
  obs::TraceContext ctx;
  ctx.id = obs::MintTraceId(42, 99);
  ctx.parent_span = 1234567;
  ctx.arrival_us = 987654321;
  obs::TraceContext back;
  ASSERT_TRUE(obs::DecodeTraceContext(obs::EncodeTraceContext(ctx), &back));
  EXPECT_EQ(back.id.ToHex(), ctx.id.ToHex());
  EXPECT_EQ(back.parent_span, ctx.parent_span);
  EXPECT_EQ(back.arrival_us, ctx.arrival_us);
  obs::TraceContext junk;
  EXPECT_FALSE(obs::DecodeTraceContext("not-a-context", &junk));
  EXPECT_FALSE(obs::DecodeTraceContext("", &junk));
}

TEST(DistSpanCodec, RoundTripsSpansWithAttrs) {
  std::vector<obs::DistSpan> spans(2);
  spans[0].origin = "milan";
  spans[0].id = 7;
  spans[0].parent_origin = "";
  spans[0].parent = 3;
  spans[0].name = "remote:FETCH";
  spans[0].segment = "wire.fetch";
  spans[0].start_us = 1000;
  spans[0].duration_us = 250;
  spans[0].attrs = {{"chunk", 2.0}, {"bytes", 4096.0}};
  spans[1].origin = "milan";
  spans[1].id = 8;
  spans[1].parent_origin = "milan";
  spans[1].parent = 7;
  spans[1].name = "remote:engine";
  spans[1].wasted = true;
  std::vector<obs::DistSpan> back =
      obs::DecodeDistSpans(obs::EncodeDistSpans(spans));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].origin, "milan");
  EXPECT_EQ(back[0].parent, 3u);
  EXPECT_EQ(back[0].segment, "wire.fetch");
  ASSERT_EQ(back[0].attrs.size(), 2u);
  EXPECT_EQ(back[0].attrs[1].first, "bytes");
  EXPECT_DOUBLE_EQ(back[0].attrs[1].second, 4096.0);
  EXPECT_TRUE(back[1].wasted);
  EXPECT_EQ(back[1].parent_origin, "milan");
}

// -- critical path --------------------------------------------------------

TEST(CriticalPath, SegmentsSumExactlyToRootWithSelfRemainder) {
  std::vector<obs::DistSpan> spans(4);
  spans[0].id = 1;
  spans[0].name = "root";
  spans[0].start_us = 0;
  spans[0].duration_us = 1000;
  spans[1].id = 2;
  spans[1].parent = 1;
  spans[1].name = "a";
  spans[1].segment = "plan.prepare";
  spans[1].start_us = 100;
  spans[1].duration_us = 200;
  // Overlaps the tail of "a": only the uncovered part may be claimed.
  spans[2].id = 3;
  spans[2].parent = 1;
  spans[2].name = "b";
  spans[2].segment = "engine";
  spans[2].start_us = 250;
  spans[2].duration_us = 500;
  // Wasted spans are never on the critical path.
  spans[3].id = 4;
  spans[3].parent = 1;
  spans[3].name = "hedge";
  spans[3].segment = "wire.fetch";
  spans[3].start_us = 0;
  spans[3].duration_us = 1000;
  spans[3].wasted = true;
  obs::DistTrace trace = obs::StitchTrace(obs::MintTraceId(1, 1), spans);
  std::vector<obs::PathSegment> path = obs::CriticalPath(trace);
  std::map<std::string, uint64_t> by_label;
  uint64_t sum = 0;
  for (const obs::PathSegment& seg : path) {
    by_label[seg.label] += seg.us;
    sum += seg.us;
  }
  EXPECT_EQ(sum, 1000u);
  EXPECT_EQ(by_label["plan.prepare"], 200u);  // 100..300
  EXPECT_EQ(by_label["engine"], 450u);        // 300..750 (250..300 was a's)
  EXPECT_EQ(by_label["self"], 350u);          // 0..100 and 750..1000
  EXPECT_EQ(by_label.count("wire.fetch"), 0u);
}

TEST(Stitch, DedupsFirstWinsAcrossOrigins) {
  std::vector<obs::DistSpan> spans(3);
  spans[0].id = 1;
  spans[0].name = "root";
  spans[0].duration_us = 10;
  spans[1].origin = "a";
  spans[1].id = 1;  // same bare id, different origin: distinct span
  spans[1].parent_origin = "";
  spans[1].parent = 1;
  spans[1].name = "remote";
  spans[2].origin = "a";
  spans[2].id = 1;  // exact duplicate (re-shipped buffer): dropped
  spans[2].parent_origin = "";
  spans[2].parent = 1;
  spans[2].name = "remote-dup";
  obs::DistTrace trace = obs::StitchTrace(obs::MintTraceId(1, 1), spans);
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[1].name, "remote");
}

// -- federation: determinism, hedges --------------------------------------

obs::DistTrace RunFaultedFederation(uint64_t seed) {
  FederatedNode milan("milan");
  FederatedNode geneva("geneva");
  Populate(&milan);
  Populate(&geneva);
  Coordinator coordinator;
  coordinator.AddNode(&milan);
  coordinator.AddNode(&geneva);
  LinkProfile lossy;
  lossy.drop_rate = 0.3;
  lossy.latency_us = 2000;
  lossy.seed = seed;
  coordinator.transport()->SetLinkProfile("milan", lossy);
  lossy.seed = seed + 1;
  coordinator.transport()->SetLinkProfile("geneva", lossy);
  coordinator.BeginTrace(obs::MintTraceId(1, seed));
  auto result = coordinator.RunEverywhere(kQuery);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return coordinator.FinishTrace("test");
}

TEST(FederationTrace, SameSeedProducesBitIdenticalStitchedTraces) {
  obs::DistTrace a = RunFaultedFederation(11);
  obs::DistTrace b = RunFaultedFederation(11);
  obs::DistTrace c = RunFaultedFederation(12);
  // Virtual-time spans + deterministic faults: byte-for-byte equal.
  EXPECT_EQ(a.RenderJson(), b.RenderJson());
  EXPECT_NE(a.RenderJson(), c.RenderJson());
  std::vector<obs::PathSegment> pa = obs::CriticalPath(a);
  std::vector<obs::PathSegment> pb = obs::CriticalPath(b);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].label, pb[i].label);
    EXPECT_EQ(pa[i].us, pb[i].us);
  }
}

TEST(FederationTrace, StitchedTraceHasRemoteSpansWithResolvedParents) {
  obs::DistTrace trace = RunFaultedFederation(11);
  ASSERT_FALSE(trace.spans.empty());
  std::map<std::pair<std::string, uint64_t>, size_t> ids;
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    ids[{trace.spans[i].origin, trace.spans[i].id}] = i;
  }
  size_t remote = 0;
  size_t roots = 0;
  for (const obs::DistSpan& s : trace.spans) {
    if (!s.origin.empty()) ++remote;
    if (s.parent == 0) {
      ++roots;
      continue;
    }
    EXPECT_TRUE(ids.count({s.parent_origin, s.parent}))
        << s.origin << "/" << s.id << " -> " << s.parent_origin << "/"
        << s.parent;
  }
  EXPECT_GT(remote, 0u);
  EXPECT_EQ(roots, 1u);
  // Critical path covers the whole root window, exactly.
  uint64_t sum = 0;
  for (const obs::PathSegment& seg : obs::CriticalPath(trace)) sum += seg.us;
  EXPECT_EQ(sum, trace.total_us());
}

TEST(FederationTrace, HedgeLoserSpanRetainedAndTaggedWasted) {
  FederatedNode milan("milan");
  Populate(&milan);
  Coordinator coordinator;
  coordinator.AddNode(&milan);
  FedPolicies policies;
  policies.hedge.min_observations = 4;
  coordinator.set_policies(policies);
  milan.set_chunk_bytes(256);  // several FETCHes per run -> p95 warms fast
  LinkProfile fast;
  fast.latency_us = 1000;
  coordinator.transport()->SetLinkProfile("milan", fast);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(coordinator.RunRemote("milan", kQuery).ok());
  }
  LinkProfile slow = fast;
  slow.stall_rate = 1.0;
  slow.stall_us = 400'000;
  slow.fault_kinds = MessageKindBit(MessageKind::kFetch);
  coordinator.transport()->SetLinkProfile("milan", slow);
  coordinator.BeginTrace(obs::MintTraceId(7, 7));
  auto result = coordinator.RunRemote("milan", kQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  obs::DistTrace trace = coordinator.FinishTrace("hedged");
  ASSERT_GT(coordinator.fed_stats().hedges, 0u);
  size_t hedge_spans = 0;
  size_t wasted = 0;
  for (const obs::DistSpan& s : trace.spans) {
    if (s.name.find(":hedge@") != std::string::npos) ++hedge_spans;
    if (!s.wasted) continue;
    ++wasted;
    // Losers are pure detail: no segment, so the race's wait is never
    // double-counted on the critical path.
    EXPECT_TRUE(s.segment.empty()) << s.name;
  }
  EXPECT_GT(hedge_spans, 0u);
  EXPECT_GT(wasted, 0u);
  uint64_t sum = 0;
  for (const obs::PathSegment& seg : obs::CriticalPath(trace)) sum += seg.us;
  EXPECT_EQ(sum, trace.total_us());
}

TEST(FederationTrace, UntracedWireIsByteIdentical) {
  // Tracing is opt-in on the wire: an untraced coordinator must ship the
  // exact bytes a pre-tracing build shipped (bench_e8's baselines).
  auto run = [](bool traced) {
    FederatedNode milan("milan");
    Populate(&milan);
    Coordinator coordinator;
    coordinator.AddNode(&milan);
    if (traced) coordinator.BeginTrace(obs::MintTraceId(1, 1));
    auto result = coordinator.RunRemote("milan", kQuery);
    EXPECT_TRUE(result.ok());
    if (traced) coordinator.FinishTrace();
    return coordinator.counters().bytes_sent;
  };
  uint64_t untraced = run(false);
  uint64_t traced = run(true);
  EXPECT_LT(untraced, traced);  // the @trace headers are the only delta
}

// -- serve path -----------------------------------------------------------

gdm::Dataset ServePeaks() {
  sim::PeakDatasetOptions opt;
  opt.num_samples = 3;
  opt.peaks_per_sample = 300;
  return sim::GeneratePeakDataset(gdm::GenomeAssembly::HumanLike(3, 20000000),
                                  opt, 1);
}

TEST(ServeTrace, AdmittedQueryCarriesTraceWithExactCriticalPath) {
  serve::ServeCatalog catalog;
  catalog.Publish(ServePeaks());
  serve::ServeOptions opt;
  opt.workers = 1;
  serve::SessionManager manager(&catalog, opt);
  serve::ServeResponse resp = manager.Execute(
      "R = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE R;");
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  ASSERT_NE(resp.trace, nullptr);
  EXPECT_TRUE(resp.trace->id.valid());
  // Root, queue, plan and exec spans at minimum.
  EXPECT_GE(resp.trace->spans.size(), 4u);
  std::map<std::string, int> segments;
  for (const obs::DistSpan& s : resp.trace->spans) {
    if (!s.segment.empty()) ++segments[s.segment];
  }
  EXPECT_EQ(segments.count("admit.queue"), 1u);
  EXPECT_EQ(segments.count("plan.prepare"), 1u);
  EXPECT_EQ(segments.count("engine"), 1u);
  uint64_t sum = 0;
  for (const obs::PathSegment& seg : obs::CriticalPath(*resp.trace)) {
    sum += seg.us;
  }
  EXPECT_EQ(sum, resp.trace->total_us());
}

TEST(ServeTrace, ShedQueryEmitsMinimalTraceWithQueueSegment) {
  serve::ServeCatalog catalog;
  catalog.Publish(ServePeaks());
  serve::ServeOptions opt;
  opt.workers = 1;
  serve::SessionManager manager(&catalog, opt);
  // Occupy the single worker so the deadlined query expires in the queue:
  // the first query's callback holds the worker until the deadline of the
  // second has passed. (Relying on COVER's run time alone let the worker
  // go idle before the second query was submitted when the test thread
  // was descheduled in between.)
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto id = manager.Submit("C = COVER(2, ANY) ENCODE; MATERIALIZE C;",
                           [released](const serve::ServeResponse&) {
                             released.wait();
                           });
  ASSERT_TRUE(id.ok());
  std::promise<serve::ServeResponse> shed;
  auto shed_id = manager.Submit(
      "R = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE R;",
      [&shed](const serve::ServeResponse& r) { shed.set_value(r); },
      /*deadline_ms=*/0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  release.set_value();
  ASSERT_TRUE(shed_id.ok());
  serve::ServeResponse resp = shed.get_future().get();
  ASSERT_FALSE(resp.status.ok());
  ASSERT_NE(resp.trace, nullptr);
  EXPECT_EQ(resp.trace->reason, "shed");
  ASSERT_EQ(resp.trace->spans.size(), 2u);
  EXPECT_EQ(resp.trace->spans[1].segment, "admit.queue");
  // The queue wait IS the query: it spans the whole trace.
  EXPECT_EQ(resp.trace->spans[1].duration_us, resp.trace->total_us());
}

// -- exemplar ring --------------------------------------------------------

TEST(TraceExemplars, RingKeepsNewestFirstAndFindsByPrefix) {
  obs::TraceExemplars ring;
  ring.set_capacity(2);
  for (uint64_t i = 1; i <= 3; ++i) {
    auto trace = std::make_shared<obs::DistTrace>();
    trace->id = obs::MintTraceId(i, 500);
    trace->reason = "slow";
    obs::DistSpan root;
    root.id = 1;
    root.duration_us = i * 1000;
    trace->spans.push_back(root);
    ring.Keep(trace);
  }
  auto snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);  // capacity evicted the oldest
  EXPECT_EQ(snapshot[0]->id.ToHex(), obs::MintTraceId(3, 500).ToHex());
  EXPECT_EQ(snapshot[1]->id.ToHex(), obs::MintTraceId(2, 500).ToHex());
  EXPECT_EQ(ring.Find("last")->id.ToHex(), snapshot[0]->id.ToHex());
  std::string prefix = snapshot[1]->id.ToHex().substr(0, 8);
  ASSERT_NE(ring.Find(prefix), nullptr);
  EXPECT_EQ(ring.Find(prefix)->id.ToHex(), snapshot[1]->id.ToHex());
  EXPECT_EQ(ring.Find("ffffffffffffffff0000"), nullptr);
}

}  // namespace
}  // namespace gdms
