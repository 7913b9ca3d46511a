// Property-based sweeps over randomized datasets: algebraic invariants of
// the GMQL operators, round-trip identities of the codecs, and engine
// equivalence — each checked across many seeds with TEST_P.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/operators.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "engine/shuffle.h"
#include "interval/accumulation.h"
#include "interval/sweep.h"
#include "io/gdm_format.h"

namespace gdms {
namespace {

using core::Operators;
using gdm::AttrType;
using gdm::Dataset;
using gdm::GenomicRegion;
using gdm::InternChrom;
using gdm::RegionSchema;
using gdm::Sample;
using gdm::Strand;
using gdm::Value;

/// A random dataset: `samples` samples of `regions` regions over 3 chroms,
/// with one double attribute and one (sometimes NULL) string attribute.
Dataset RandomDataset(uint64_t seed, size_t samples, size_t regions,
                      const char* name = "D") {
  Rng rng(seed);
  RegionSchema schema;
  EXPECT_TRUE(schema.AddAttr("score", AttrType::kDouble).ok());
  EXPECT_TRUE(schema.AddAttr("tag", AttrType::kString).ok());
  Dataset ds(name, schema);
  static const char* kChroms[] = {"chr1", "chr2", "chr3"};
  static const char* kCells[] = {"K562", "HeLa", "GM12878"};
  for (size_t s = 0; s < samples; ++s) {
    Sample sample(s + 1);
    sample.metadata.Add("cell", kCells[rng.Next() % 3]);
    sample.metadata.Add("rep", std::to_string(s % 2));
    for (size_t r = 0; r < regions; ++r) {
      int64_t left = rng.Uniform(0, 100000);
      GenomicRegion region(InternChrom(kChroms[rng.Next() % 3]), left,
                           left + rng.Uniform(1, 2000));
      region.strand = static_cast<Strand>(rng.Next() % 3);
      region.values.push_back(Value(rng.Normal(5.0, 2.0)));
      region.values.push_back(
          rng.Bernoulli(0.2) ? Value::Null()
                             : Value("t" + std::to_string(rng.Next() % 5)));
      sample.regions.push_back(std::move(region));
    }
    sample.SortNow();
    ds.AddSample(std::move(sample));
  }
  EXPECT_TRUE(ds.Validate().ok());
  return ds;
}

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --------------------------------------------------------- COVER family ---

TEST_P(PropertyTest, CoverOneAnyEqualsMergeTouching) {
  Dataset ds = RandomDataset(GetParam(), 3, 120);
  core::CoverParams params;
  params.min_acc = 1;
  params.max_acc = -1;
  Dataset cover = Operators::Cover(params, ds).ValueOrDie();
  // Pool all regions and merge-touching: identical intervals.
  std::vector<GenomicRegion> pooled;
  for (const auto& s : ds.samples()) {
    pooled.insert(pooled.end(), s.regions.begin(), s.regions.end());
  }
  gdm::SortRegions(&pooled);
  auto merged = interval::MergeTouching(pooled);
  const auto& got = cover.sample(0).regions;
  ASSERT_EQ(got.size(), merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(got[i].chrom, merged[i].chrom);
    EXPECT_EQ(got[i].left, merged[i].left);
    EXPECT_EQ(got[i].right, merged[i].right);
  }
}

TEST_P(PropertyTest, CoverRegionsDisjointSortedWithinBounds) {
  Dataset ds = RandomDataset(GetParam(), 4, 100);
  core::CoverParams params;
  params.min_acc = 2;
  params.max_acc = 3;
  Dataset cover = Operators::Cover(params, ds).ValueOrDie();
  const auto& regions = cover.sample(0).regions;
  EXPECT_TRUE(gdm::RegionsSorted(regions));
  for (size_t i = 1; i < regions.size(); ++i) {
    if (regions[i].chrom == regions[i - 1].chrom) {
      EXPECT_GE(regions[i].left, regions[i - 1].right);  // disjoint
    }
  }
}

TEST_P(PropertyTest, HistogramPartitionsCoverExactly) {
  // HISTOGRAM(1, ANY) segments tile exactly the COVER(1, ANY) area, and
  // their count-weighted length equals the total input base count.
  Dataset ds = RandomDataset(GetParam(), 3, 80);
  core::CoverParams hist;
  hist.variant = core::CoverVariant::kHistogram;
  hist.min_acc = 1;
  hist.max_acc = -1;
  Dataset histogram = Operators::Cover(hist, ds).ValueOrDie();
  size_t acc_idx = *histogram.schema().IndexOf("acc_index");
  int64_t weighted = 0;
  for (const auto& r : histogram.sample(0).regions) {
    weighted += r.length() * r.values[acc_idx].AsInt();
  }
  int64_t input_bases = 0;
  for (const auto& s : ds.samples()) {
    for (const auto& r : s.regions) input_bases += r.length();
  }
  EXPECT_EQ(weighted, input_bases);
}

TEST_P(PropertyTest, SummitsAreHistogramLocalMaxima) {
  Dataset ds = RandomDataset(GetParam(), 4, 60);
  core::CoverParams params;
  params.variant = core::CoverVariant::kSummit;
  params.min_acc = 1;
  params.max_acc = -1;
  Dataset summits = Operators::Cover(params, ds).ValueOrDie();
  params.variant = core::CoverVariant::kHistogram;
  Dataset histogram = Operators::Cover(params, ds).ValueOrDie();
  // Every summit coincides with a histogram segment.
  std::set<std::tuple<int32_t, int64_t, int64_t>> segments;
  for (const auto& r : histogram.sample(0).regions) {
    segments.insert({r.chrom, r.left, r.right});
  }
  for (const auto& r : summits.sample(0).regions) {
    EXPECT_TRUE(segments.count({r.chrom, r.left, r.right}))
        << r.CoordString();
  }
  EXPECT_LE(summits.sample(0).regions.size(),
            histogram.sample(0).regions.size());
}

// ------------------------------------------------------------------ MAP ---

TEST_P(PropertyTest, MapCountEqualsBruteForceOverlaps) {
  Dataset refs = RandomDataset(GetParam() * 31 + 1, 1, 50, "REFS");
  Dataset exps = RandomDataset(GetParam() * 31 + 2, 2, 70, "EXPS");
  Dataset mapped = Operators::Map(core::MapParams{}, refs, exps).ValueOrDie();
  size_t count_idx = *mapped.schema().IndexOf("count");
  ASSERT_EQ(mapped.num_samples(), 2u);
  for (size_t e = 0; e < 2; ++e) {
    const auto& out = mapped.sample(e);
    const auto& ref_regions = refs.sample(0).regions;
    ASSERT_EQ(out.regions.size(), ref_regions.size());
    for (size_t i = 0; i < ref_regions.size(); ++i) {
      int64_t brute = 0;
      for (const auto& er : exps.sample(e).regions) {
        if (ref_regions[i].Overlaps(er)) ++brute;
      }
      EXPECT_EQ(out.regions[i].values[count_idx].AsInt(), brute)
          << "ref " << i << " exp " << e;
    }
  }
}

TEST_P(PropertyTest, MapAggregatesMatchBruteForce) {
  Dataset refs = RandomDataset(GetParam() * 17 + 3, 1, 40, "REFS");
  Dataset exps = RandomDataset(GetParam() * 17 + 4, 1, 60, "EXPS");
  core::MapParams params;
  params.aggregates = {{"s", core::AggFunc::kSum, "score"},
                       {"mx", core::AggFunc::kMax, "score"},
                       {"bag", core::AggFunc::kBag, "tag"}};
  Dataset mapped = Operators::Map(params, refs, exps).ValueOrDie();
  size_t s_idx = *mapped.schema().IndexOf("s");
  size_t mx_idx = *mapped.schema().IndexOf("mx");
  const auto& out = mapped.sample(0);
  for (size_t i = 0; i < refs.sample(0).regions.size(); ++i) {
    const auto& rr = refs.sample(0).regions[i];
    double sum = 0;
    double mx = -1e300;
    size_t n = 0;
    for (const auto& er : exps.sample(0).regions) {
      if (!rr.Overlaps(er)) continue;
      ++n;
      double v = er.values[0].AsDouble();
      sum += v;
      mx = std::max(mx, v);
    }
    if (n == 0) {
      EXPECT_TRUE(out.regions[i].values[s_idx].is_null());
      EXPECT_TRUE(out.regions[i].values[mx_idx].is_null());
    } else {
      EXPECT_NEAR(out.regions[i].values[s_idx].AsDouble(), sum, 1e-9);
      EXPECT_NEAR(out.regions[i].values[mx_idx].AsDouble(), mx, 1e-12);
    }
  }
}

// ----------------------------------------------------------- DIFFERENCE ---

TEST_P(PropertyTest, DifferencePartitionsLeftRegions) {
  Dataset left = RandomDataset(GetParam() * 7 + 5, 2, 60, "L");
  Dataset right = RandomDataset(GetParam() * 7 + 6, 2, 60, "R");
  Dataset kept =
      Operators::Difference(core::DifferenceParams{}, left, right).ValueOrDie();
  // Pool right regions.
  std::vector<GenomicRegion> negatives;
  for (const auto& s : right.samples()) {
    negatives.insert(negatives.end(), s.regions.begin(), s.regions.end());
  }
  gdm::SortRegions(&negatives);
  for (size_t si = 0; si < left.num_samples(); ++si) {
    const auto& orig = left.sample(si).regions;
    const auto& now = kept.sample(si).regions;
    // Every kept region is original and overlap-free; every dropped one
    // overlaps some negative.
    EXPECT_LE(now.size(), orig.size());
    auto flags = interval::ExistsOverlap(orig, negatives);
    size_t expected_kept = 0;
    for (size_t i = 0; i < orig.size(); ++i) {
      if (!flags[i]) ++expected_kept;
    }
    EXPECT_EQ(now.size(), expected_kept);
    for (const auto& r : now) {
      for (const auto& neg : negatives) {
        EXPECT_FALSE(r.Overlaps(neg)) << r.CoordString();
      }
    }
  }
}

// ---------------------------------------------------------------- UNION ---

TEST_P(PropertyTest, UnionPreservesRegionsAndValidates) {
  Dataset a = RandomDataset(GetParam() * 3 + 7, 2, 40, "A");
  Dataset b = RandomDataset(GetParam() * 3 + 8, 3, 30, "B");
  Dataset u = Operators::Union(a, b).ValueOrDie();
  EXPECT_EQ(u.num_samples(), a.num_samples() + b.num_samples());
  EXPECT_EQ(u.TotalRegions(), a.TotalRegions() + b.TotalRegions());
  EXPECT_TRUE(u.Validate().ok());
  // Same schemas share attributes: merged width equals the originals'.
  EXPECT_EQ(u.schema().size(), a.schema().size());
}

// ----------------------------------------------------------------- JOIN ---

TEST_P(PropertyTest, JoinLeftOutputCoordsComeFromLeft) {
  Dataset left = RandomDataset(GetParam() * 11 + 9, 1, 30, "L");
  Dataset right = RandomDataset(GetParam() * 11 + 10, 1, 50, "R");
  core::JoinParams params;
  params.predicate.max_dist = 5000;
  params.predicate.has_upper = true;
  Dataset joined = Operators::Join(params, left, right).ValueOrDie();
  std::set<std::tuple<int32_t, int64_t, int64_t>> left_coords;
  for (const auto& r : left.sample(0).regions) {
    left_coords.insert({r.chrom, r.left, r.right});
  }
  for (const auto& r : joined.sample(0).regions) {
    EXPECT_TRUE(left_coords.count({r.chrom, r.left, r.right}))
        << r.CoordString();
  }
}

TEST_P(PropertyTest, JoinPairCountMatchesBruteForce) {
  Dataset left = RandomDataset(GetParam() * 13 + 11, 1, 30, "L");
  Dataset right = RandomDataset(GetParam() * 13 + 12, 1, 40, "R");
  core::JoinParams params;
  params.predicate.min_dist = 10;
  params.predicate.max_dist = 3000;
  params.predicate.has_upper = true;
  Dataset joined = Operators::Join(params, left, right).ValueOrDie();
  size_t brute = 0;
  for (const auto& lr : left.sample(0).regions) {
    for (const auto& rr : right.sample(0).regions) {
      int64_t d = lr.DistanceTo(rr);
      if (d >= 10 && d <= 3000) ++brute;
    }
  }
  EXPECT_EQ(joined.sample(0).regions.size(), brute);
}

// --------------------------------------------------------------- codecs ---

TEST_P(PropertyTest, GdmFormatRoundTrip) {
  Dataset ds = RandomDataset(GetParam() * 19 + 13, 3, 40, "RT");
  std::string once = io::WriteGdmString(ds);
  Dataset back = io::ReadGdmString(once).ValueOrDie();
  EXPECT_EQ(io::WriteGdmString(back), once);
  EXPECT_EQ(back.TotalRegions(), ds.TotalRegions());
  EXPECT_EQ(back.TotalMetadata(), ds.TotalMetadata());
}

TEST_P(PropertyTest, RegionCodecRoundTrip) {
  Dataset ds = RandomDataset(GetParam() * 23 + 14, 1, 60, "RC");
  const auto& regions = ds.sample(0).regions;
  std::string buf;
  engine::RegionCodec::Encode(regions, 0, regions.size(), &buf);
  auto back = engine::RegionCodec::Decode(buf).ValueOrDie();
  ASSERT_EQ(back.size(), regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    EXPECT_EQ(back[i].left, regions[i].left);
    EXPECT_EQ(back[i].strand, regions[i].strand);
    ASSERT_EQ(back[i].values.size(), regions[i].values.size());
    for (size_t v = 0; v < back[i].values.size(); ++v) {
      EXPECT_EQ(back[i].values[v].Compare(regions[i].values[v]), 0);
    }
  }
}

// --------------------------------------------------- engine equivalence ---

TEST_P(PropertyTest, ParallelEnginesMatchReferenceOnRandomData) {
  const char* query =
      "S = SELECT(cell == 'K562'; region: score >= 4) D;\n"
      "M = MAP(n AS COUNT, avg AS AVG(score)) REFS D;\n"
      "C = COVER(2, ANY) D;\n"
      "J = JOIN(DLE(2000); INT) REFS D;\n"
      "MATERIALIZE S; MATERIALIZE M; MATERIALIZE C; MATERIALIZE J;\n";
  auto run = [&](core::Executor* executor) {
    core::QueryRunner runner =
        executor ? core::QueryRunner(executor) : core::QueryRunner();
    runner.RegisterDataset(RandomDataset(GetParam() * 29 + 15, 3, 80, "D"));
    runner.RegisterDataset(RandomDataset(GetParam() * 29 + 16, 1, 40, "REFS"));
    return runner.Run(query).ValueOrDie();
  };
  auto reference = run(nullptr);
  for (auto backend :
       {engine::BackendKind::kPipelined, engine::BackendKind::kMaterialized}) {
    engine::EngineOptions options;
    options.backend = backend;
    options.threads = 3;
    engine::ParallelExecutor executor(options);
    auto parallel = run(&executor);
    ASSERT_EQ(parallel.size(), reference.size());
    for (const auto& [name, ds] : reference) {
      const Dataset& other = parallel.at(name);
      ASSERT_EQ(other.num_samples(), ds.num_samples()) << name;
      EXPECT_EQ(other.TotalRegions(), ds.TotalRegions()) << name;
      for (const auto& s : ds.samples()) {
        const Sample* os = other.FindSample(s.id);
        ASSERT_NE(os, nullptr);
        ASSERT_EQ(os->regions.size(), s.regions.size()) << name;
        for (size_t i = 0; i < s.regions.size(); ++i) {
          EXPECT_EQ(os->regions[i].left, s.regions[i].left);
          for (size_t v = 0; v < s.regions[i].values.size(); ++v) {
            EXPECT_EQ(os->regions[i].values[v].Compare(s.regions[i].values[v]),
                      0)
                << name;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ optimizer ---

TEST_P(PropertyTest, OptimizerNeverChangesResults) {
  const char* query =
      "A = SELECT(cell == 'K562') D;\n"
      "B = SELECT(rep == '0') A;\n"
      "U = UNION() D E;\n"
      "F = SELECT(cell == 'HeLa') U;\n"
      "M1 = MAP(n AS COUNT) B D;\n"
      "M2 = MAP(n AS COUNT) B D;\n"
      "MATERIALIZE F; MATERIALIZE M1; MATERIALIZE M2;\n";
  auto run = [&](bool optimize) {
    core::QueryRunner runner;
    runner.set_optimize(optimize);
    runner.RegisterDataset(RandomDataset(GetParam() * 37 + 17, 4, 50, "D"));
    runner.RegisterDataset(RandomDataset(GetParam() * 37 + 18, 3, 50, "E"));
    return runner.Run(query).ValueOrDie();
  };
  auto off = run(false);
  auto on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (const auto& [name, ds] : off) {
    EXPECT_EQ(on.at(name).TotalRegions(), ds.TotalRegions()) << name;
    EXPECT_EQ(on.at(name).num_samples(), ds.num_samples()) << name;
  }
}

}  // namespace
}  // namespace gdms
