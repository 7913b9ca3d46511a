#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gdm/region.h"
#include "interval/accumulation.h"
#include "interval/interval_tree.h"
#include "interval/sweep.h"

namespace gdms::interval {
namespace {

using gdm::GenomicRegion;
using gdm::InternChrom;
using gdm::SortRegions;

std::vector<GenomicRegion> MakeRegions(
    const std::vector<std::tuple<const char*, int64_t, int64_t>>& spec) {
  std::vector<GenomicRegion> out;
  for (const auto& [chrom, l, r] : spec) {
    out.emplace_back(InternChrom(chrom), l, r);
  }
  SortRegions(&out);
  return out;
}

/// Brute-force overlap pairs for validation.
std::set<std::pair<size_t, size_t>> BruteOverlaps(
    const std::vector<GenomicRegion>& a, const std::vector<GenomicRegion>& b) {
  std::set<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (a[i].Overlaps(b[j])) out.insert({i, j});
    }
  }
  return out;
}

TEST(OverlapJoinTest, BasicPairs) {
  auto refs = MakeRegions({{"chr1", 100, 200}, {"chr1", 300, 400}});
  auto exps = MakeRegions(
      {{"chr1", 150, 160}, {"chr1", 250, 260}, {"chr1", 390, 500}});
  std::set<std::pair<size_t, size_t>> got;
  OverlapJoin(refs, exps, [&](size_t i, size_t j) { got.insert({i, j}); });
  EXPECT_EQ(got, BruteOverlaps(refs, exps));
  EXPECT_EQ(got.size(), 2u);
}

TEST(OverlapJoinTest, CrossChromosomeNeverMatches) {
  auto refs = MakeRegions({{"chr1", 100, 200}});
  auto exps = MakeRegions({{"chr2", 100, 200}});
  size_t count = 0;
  OverlapJoin(refs, exps, [&](size_t, size_t) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST(OverlapJoinTest, RandomizedAgainstBruteForce) {
  Rng rng(11);
  for (int round = 0; round < 10; ++round) {
    std::vector<GenomicRegion> a;
    std::vector<GenomicRegion> b;
    const char* chroms[] = {"chr1", "chr2", "chr3"};
    for (int i = 0; i < 120; ++i) {
      int64_t l = rng.Uniform(0, 4000);
      a.emplace_back(InternChrom(chroms[rng.Next() % 3]), l,
                     l + rng.Uniform(1, 600));
      int64_t l2 = rng.Uniform(0, 4000);
      b.emplace_back(InternChrom(chroms[rng.Next() % 3]), l2,
                     l2 + rng.Uniform(1, 600));
    }
    SortRegions(&a);
    SortRegions(&b);
    std::set<std::pair<size_t, size_t>> got;
    OverlapJoin(a, b, [&](size_t i, size_t j) { got.insert({i, j}); });
    EXPECT_EQ(got, BruteOverlaps(a, b)) << "round " << round;
  }
}

TEST(DistanceJoinTest, WindowedPairs) {
  auto refs = MakeRegions({{"chr1", 1000, 1100}});
  auto exps = MakeRegions({{"chr1", 1150, 1200},    // dist 50
                           {"chr1", 2000, 2100},    // dist 900
                           {"chr1", 1050, 1080}});  // overlap, dist -30
  std::vector<int64_t> dists;
  DistanceJoin(refs, exps, 0, 100, [&](size_t i, size_t j) {
    dists.push_back(refs[i].DistanceTo(exps[j]));
  });
  ASSERT_EQ(dists.size(), 1u);
  EXPECT_EQ(dists[0], 50);
  // Negative min admits overlaps.
  size_t count = 0;
  DistanceJoin(refs, exps, -1000, 100, [&](size_t, size_t) { ++count; });
  EXPECT_EQ(count, 2u);
}

TEST(DistanceJoinTest, RandomizedAgainstBruteForce) {
  Rng rng(13);
  std::vector<GenomicRegion> a;
  std::vector<GenomicRegion> b;
  for (int i = 0; i < 150; ++i) {
    int64_t l = rng.Uniform(0, 20000);
    a.emplace_back(InternChrom("chr1"), l, l + rng.Uniform(1, 300));
    int64_t l2 = rng.Uniform(0, 20000);
    b.emplace_back(InternChrom("chr1"), l2, l2 + rng.Uniform(1, 300));
  }
  SortRegions(&a);
  SortRegions(&b);
  const int64_t min_d = 10;
  const int64_t max_d = 500;
  std::set<std::pair<size_t, size_t>> got;
  DistanceJoin(a, b, min_d, max_d,
               [&](size_t i, size_t j) { got.insert({i, j}); });
  std::set<std::pair<size_t, size_t>> want;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      int64_t d = a[i].DistanceTo(b[j]);
      if (d >= min_d && d <= max_d) want.insert({i, j});
    }
  }
  EXPECT_EQ(got, want);
}

TEST(NearestKTest, FindsNearestByDistance) {
  auto refs = MakeRegions({{"chr1", 1000, 1100}});
  auto exps = MakeRegions({{"chr1", 0, 10},        // far left
                           {"chr1", 900, 950},     // dist 50
                           {"chr1", 1500, 1600},   // dist 400
                           {"chr1", 1050, 1070}}); // overlap
  std::vector<size_t> picked;
  NearestK(refs, exps, 2, [&](size_t, size_t j) { picked.push_back(j); });
  ASSERT_EQ(picked.size(), 2u);
  // The two nearest are the overlapping one and the dist-50 one.
  std::set<int64_t> dists;
  for (size_t j : picked) dists.insert(refs[0].DistanceTo(exps[j]));
  EXPECT_TRUE(dists.count(-20));
  EXPECT_TRUE(dists.count(50));
}

TEST(NearestKTest, KLargerThanCandidates) {
  auto refs = MakeRegions({{"chr1", 100, 200}});
  auto exps = MakeRegions({{"chr1", 300, 400}, {"chr1", 500, 600}});
  size_t count = 0;
  NearestK(refs, exps, 10, [&](size_t, size_t) { ++count; });
  EXPECT_EQ(count, 2u);
}

TEST(NearestKTest, RandomizedAgainstBruteForce) {
  Rng rng(17);
  std::vector<GenomicRegion> a;
  std::vector<GenomicRegion> b;
  for (int i = 0; i < 60; ++i) {
    int64_t l = rng.Uniform(0, 1000000);
    a.emplace_back(InternChrom("chr1"), l, l + rng.Uniform(1, 500));
  }
  for (int i = 0; i < 200; ++i) {
    int64_t l = rng.Uniform(0, 1000000);
    b.emplace_back(InternChrom("chr1"), l, l + rng.Uniform(1, 500));
  }
  SortRegions(&a);
  SortRegions(&b);
  const size_t k = 3;
  std::vector<std::vector<size_t>> got(a.size());
  NearestK(a, b, k, [&](size_t i, size_t j) { got[i].push_back(j); });
  for (size_t i = 0; i < a.size(); ++i) {
    // Brute force: the set of k smallest distances must match.
    std::vector<int64_t> all;
    for (const auto& e : b) all.push_back(a[i].DistanceTo(e));
    std::sort(all.begin(), all.end());
    std::multiset<int64_t> want(all.begin(), all.begin() + k);
    std::multiset<int64_t> have;
    for (size_t j : got[i]) have.insert(a[i].DistanceTo(b[j]));
    EXPECT_EQ(have, want) << "ref " << i;
  }
}

TEST(ExistsOverlapTest, Flags) {
  auto refs = MakeRegions({{"chr1", 0, 10}, {"chr1", 100, 200}});
  auto exps = MakeRegions({{"chr1", 150, 160}});
  auto flags = ExistsOverlap(refs, exps);
  ASSERT_EQ(flags.size(), 2u);
  EXPECT_EQ(flags[0], 0);
  EXPECT_EQ(flags[1], 1);
}

TEST(MergeTouchingTest, MergesOverlapAndTouch) {
  auto rs = MakeRegions(
      {{"chr1", 0, 10}, {"chr1", 10, 20}, {"chr1", 30, 40}, {"chr2", 5, 15}});
  auto merged = MergeTouching(rs);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].left, 0);
  EXPECT_EQ(merged[0].right, 20);
}

TEST(CoordHelpersTest, IntersectAndSpan) {
  GenomicRegion a(InternChrom("chr1"), 100, 300, gdm::Strand::kPlus);
  GenomicRegion b(InternChrom("chr1"), 200, 400, gdm::Strand::kPlus);
  auto i = IntersectCoords(a, b);
  EXPECT_EQ(i.left, 200);
  EXPECT_EQ(i.right, 300);
  EXPECT_EQ(i.strand, gdm::Strand::kPlus);
  auto s = SpanCoords(a, b);
  EXPECT_EQ(s.left, 100);
  EXPECT_EQ(s.right, 400);
  b.strand = gdm::Strand::kMinus;
  EXPECT_EQ(IntersectCoords(a, b).strand, gdm::Strand::kNone);
}

TEST(AccumulationTest, ProfileBasic) {
  auto rs = MakeRegions({{"chr1", 0, 100}, {"chr1", 50, 150}});
  auto profile = AccumulationProfile(rs);
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_EQ(profile[0].count, 1);
  EXPECT_EQ(profile[1].count, 2);
  EXPECT_EQ(profile[1].left, 50);
  EXPECT_EQ(profile[1].right, 100);
  EXPECT_EQ(profile[2].count, 1);
  EXPECT_EQ(MaxAccumulation(profile), 2);
}

TEST(AccumulationTest, ZeroLengthIgnored) {
  std::vector<GenomicRegion> rs = {{InternChrom("chr1"), 5, 5}};
  EXPECT_TRUE(AccumulationProfile(rs).empty());
}

TEST(CoverTest, MinAccTwoMergesPlateau) {
  auto rs = MakeRegions(
      {{"chr1", 0, 100}, {"chr1", 50, 150}, {"chr1", 120, 200}});
  auto profile = AccumulationProfile(rs);
  auto covers = Cover(profile, {2, CoverBounds::kAny});
  ASSERT_EQ(covers.size(), 2u);
  EXPECT_EQ(covers[0].left, 50);
  EXPECT_EQ(covers[0].right, 100);
  EXPECT_EQ(covers[1].left, 120);
  EXPECT_EQ(covers[1].right, 150);
}

TEST(CoverTest, AllBoundResolves) {
  auto rs = MakeRegions({{"chr1", 0, 100}, {"chr1", 0, 100}, {"chr1", 50, 80}});
  auto profile = AccumulationProfile(rs);
  auto covers = Cover(profile, {CoverBounds::kAll, CoverBounds::kAny});
  ASSERT_EQ(covers.size(), 1u);
  EXPECT_EQ(covers[0].left, 50);
  EXPECT_EQ(covers[0].right, 80);
}

TEST(CoverTest, MaxAccExcludesDeepRegions) {
  auto rs = MakeRegions({{"chr1", 0, 100}, {"chr1", 0, 100}, {"chr1", 40, 60}});
  auto profile = AccumulationProfile(rs);
  auto covers = Cover(profile, {1, 2});
  // The 3-deep middle segment is excluded, splitting the area.
  ASSERT_EQ(covers.size(), 2u);
  EXPECT_EQ(covers[0].right, 40);
  EXPECT_EQ(covers[1].left, 60);
}

TEST(HistogramTest, SegmentsWithCounts) {
  auto rs = MakeRegions({{"chr1", 0, 100}, {"chr1", 50, 150}});
  auto profile = AccumulationProfile(rs);
  std::vector<int64_t> counts;
  auto segs = Histogram(profile, {1, CoverBounds::kAny}, &counts);
  ASSERT_EQ(segs.size(), 3u);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[1], 2);
}

TEST(SummitTest, PeakSegmentOnly) {
  auto rs = MakeRegions(
      {{"chr1", 0, 300}, {"chr1", 100, 200}, {"chr1", 120, 180}});
  auto profile = AccumulationProfile(rs);
  std::vector<int64_t> counts;
  auto summits = Summit(profile, {1, CoverBounds::kAny}, &counts);
  ASSERT_EQ(summits.size(), 1u);
  EXPECT_EQ(summits[0].left, 120);
  EXPECT_EQ(summits[0].right, 180);
  EXPECT_EQ(counts[0], 3);
}

TEST(FlatTest, ExtendsToContributingInputs) {
  auto rs = MakeRegions({{"chr1", 0, 100}, {"chr1", 80, 300}});
  auto profile = AccumulationProfile(rs);
  auto flats = Flat(profile, {2, CoverBounds::kAny}, rs);
  ASSERT_EQ(flats.size(), 1u);
  EXPECT_EQ(flats[0].left, 0);
  EXPECT_EQ(flats[0].right, 300);
}

TEST(IntervalIndexTest, EmptyIndex) {
  std::vector<GenomicRegion> none;
  IntervalIndex idx(none);
  EXPECT_EQ(idx.CountOverlaps(InternChrom("chr1"), 0, 100), 0u);
}

TEST(IntervalIndexTest, SingleRegion) {
  auto rs = MakeRegions({{"chr1", 100, 200}});
  IntervalIndex idx(rs);
  EXPECT_EQ(idx.CountOverlaps(InternChrom("chr1"), 150, 160), 1u);
  EXPECT_EQ(idx.CountOverlaps(InternChrom("chr1"), 200, 300), 0u);
}

TEST(IntervalIndexTest, RandomizedAgainstBruteForce) {
  Rng rng(23);
  std::vector<GenomicRegion> rs;
  const char* chroms[] = {"chr1", "chr2"};
  for (int i = 0; i < 500; ++i) {
    int64_t l = rng.Uniform(0, 100000);
    rs.emplace_back(InternChrom(chroms[rng.Next() % 2]), l,
                    l + rng.Uniform(1, 3000));
  }
  IntervalIndex idx(rs);
  EXPECT_EQ(idx.size(), rs.size());
  for (int q = 0; q < 200; ++q) {
    int32_t chrom = InternChrom(chroms[rng.Next() % 2]);
    int64_t l = rng.Uniform(0, 100000);
    int64_t r = l + rng.Uniform(1, 5000);
    size_t want = 0;
    for (const auto& reg : rs) {
      if (reg.chrom == chrom && reg.left < r && l < reg.right) ++want;
    }
    EXPECT_EQ(idx.CountOverlaps(chrom, l, r), want) << "query " << q;
  }
}

}  // namespace
}  // namespace gdms::interval
