// Columnar storage and batch-kernel tests: RegionColumns round-trips, the
// batch sweeps against their row-based references (identical matches, same
// emission order), engine-level equality of the columnar kernels with the
// reference executor, and the thread-safety of the lazy per-sample caches
// (run under `ctest -L tsan`).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <random>
#include <thread>

#include "core/aggregates.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "gdm/region_columns.h"
#include "interval/accumulation.h"
#include "interval/batch.h"
#include "interval/sweep.h"
#include "io/gdm_format.h"
#include "io/gdmz.h"
#include "obs/metrics.h"
#include "sim/generators.h"

namespace gdms {
namespace {

using gdm::AttrType;
using gdm::Dataset;
using gdm::GenomicRegion;
using gdm::InternChrom;
using gdm::RegionColumns;
using gdm::RegionSchema;
using gdm::Sample;
using gdm::Strand;
using gdm::Value;

std::vector<GenomicRegion> RandomRegions(std::mt19937* rng, size_t n,
                                         int chroms, int64_t span,
                                         int64_t max_len) {
  std::uniform_int_distribution<int> chrom_d(0, chroms - 1);
  std::uniform_int_distribution<int64_t> left_d(0, span);
  std::uniform_int_distribution<int64_t> len_d(0, max_len);
  std::vector<GenomicRegion> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string chrom = "chr" + std::to_string(chrom_d(*rng) + 1);
    int64_t left = left_d(*rng);
    out.emplace_back(InternChrom(chrom), left, left + len_d(*rng));
  }
  gdm::SortRegions(&out);
  return out;
}

interval::CoordView WholeView(const RegionColumns& cols) {
  return interval::CoordView::Of(cols, 0, cols.size());
}

// 64-bit copies of narrow columns' coordinates, so the batch kernels can be
// fed the same regions at either coordinate width.
struct WideCoords {
  explicit WideCoords(const RegionColumns& cols) {
    for (size_t i = 0; i < cols.size(); ++i) {
      left.push_back(cols.left(i));
      right.push_back(cols.right(i));
    }
  }

  interval::CoordView View(size_t begin, size_t end) const {
    interval::CoordView v;
    v.l64 = left.data() + begin;
    v.r64 = right.data() + begin;
    v.size = end - begin;
    return v;
  }

  std::vector<int64_t> left, right;
};

// ----------------------------------------------------------- RegionColumns

TEST(RegionColumnsTest, RoundTripsAllValueTypes) {
  RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("i", AttrType::kInt).ok());
  ASSERT_TRUE(schema.AddAttr("d", AttrType::kDouble).ok());
  ASSERT_TRUE(schema.AddAttr("s", AttrType::kString).ok());
  ASSERT_TRUE(schema.AddAttr("b", AttrType::kBool).ok());

  std::vector<GenomicRegion> regions;
  GenomicRegion a(InternChrom("chr1"), 10, 20, Strand::kPlus);
  a.values = {Value(int64_t{42}), Value(2.5), Value("peak_a"), Value(true)};
  GenomicRegion b(InternChrom("chr1"), 15, 30, Strand::kMinus);
  b.values = {Value::Null(), Value(-1.25), Value::Null(), Value(false)};
  GenomicRegion c(InternChrom("chr2"), 5, 5, Strand::kNone);
  c.values = {Value(int64_t{-7}), Value::Null(), Value("peak_a"),
              Value::Null()};
  regions = {a, b, c};
  gdm::SortRegions(&regions);

  RegionColumns cols = RegionColumns::Build(regions, schema);
  EXPECT_TRUE(cols.narrow());
  EXPECT_EQ(cols.size(), 3u);
  ASSERT_EQ(cols.chunks().size(), 2u);
  EXPECT_EQ(cols.chunks()[0].chrom, InternChrom("chr1"));
  EXPECT_EQ(cols.chunks()[0].end, 2u);
  EXPECT_EQ(cols.FindChunk(InternChrom("chr1"))->max_len, 15);
  EXPECT_EQ(cols.FindChunk(InternChrom("chr2"))->max_len, 0);
  // The shared string interns once in the dictionary.
  EXPECT_EQ(cols.attr(2).dict().size(), 1u);

  std::vector<GenomicRegion> back = cols.ToRegions();
  ASSERT_EQ(back.size(), regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    EXPECT_EQ(back[i].chrom, regions[i].chrom);
    EXPECT_EQ(back[i].left, regions[i].left);
    EXPECT_EQ(back[i].right, regions[i].right);
    EXPECT_EQ(back[i].strand, regions[i].strand);
    ASSERT_EQ(back[i].values.size(), regions[i].values.size());
    for (size_t v = 0; v < regions[i].values.size(); ++v) {
      EXPECT_EQ(back[i].values[v], regions[i].values[v])
          << "row " << i << " attr " << v;
    }
  }
}

TEST(RegionColumnsTest, WideCoordinatesEscapeToInt64) {
  RegionSchema schema;
  std::vector<GenomicRegion> regions;
  regions.emplace_back(InternChrom("chr1"), 100,
                       int64_t{1} << 33);  // beyond int32
  RegionColumns cols = RegionColumns::Build(regions, schema);
  EXPECT_FALSE(cols.narrow());
  EXPECT_EQ(cols.right(0), int64_t{1} << 33);
  auto back = cols.ToRegions();
  EXPECT_EQ(back[0].right, int64_t{1} << 33);
}

TEST(RegionColumnsTest, ChunkDirectoryMatchesRowScan) {
  std::mt19937 rng(7);
  Sample s(1);
  s.regions = RandomRegions(&rng, 500, 5, 1000000, 5000);
  RegionSchema schema;
  const RegionColumns& cols = s.columns(schema);
  // One chunk per run of equal chromosomes, with the run's max length.
  const std::vector<GenomicRegion>& rows = s.regions.rows();
  std::vector<gdm::ColumnChunk> runs;
  for (size_t i = 0; i < rows.size(); ++i) {
    const GenomicRegion& r = rows[i];
    if (runs.empty() || runs.back().chrom != r.chrom) {
      runs.push_back({r.chrom, i, i, 0});
    }
    runs.back().end = i + 1;
    runs.back().max_len = std::max(runs.back().max_len, r.length());
  }
  ASSERT_EQ(cols.chunks().size(), runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(cols.chunks()[i].chrom, runs[i].chrom);
    EXPECT_EQ(cols.chunks()[i].begin, runs[i].begin);
    EXPECT_EQ(cols.chunks()[i].end, runs[i].end);
    EXPECT_EQ(cols.chunks()[i].max_len, runs[i].max_len);
    EXPECT_EQ(cols.FindChunk(runs[i].chrom), &cols.chunks()[i]);
  }
}

TEST(RegionColumnsTest, CacheInvalidatesOnMutation) {
  Sample s(1);
  s.regions.emplace_back(InternChrom("chr1"), 0, 10);
  RegionSchema schema;
  const RegionColumns* first = &s.columns(schema);
  EXPECT_EQ(first, &s.columns(schema));  // cached
  s.regions.emplace_back(InternChrom("chr1"), 5, 15);
  s.SortNow();
  const RegionColumns& rebuilt = s.columns(schema);
  EXPECT_EQ(rebuilt.size(), 2u);
}

// ------------------------------------------------------------ batch kernels

TEST(BatchKernelTest, CollectOverlapsMatchesRowJoinOrder) {
  std::mt19937 rng(11);
  for (int round = 0; round < 20; ++round) {
    auto all_refs = RandomRegions(&rng, 200, 3, 100000, 3000);
    auto all_exps = RandomRegions(&rng, 300, 3, 100000, 3000);
    RegionSchema schema;
    RegionColumns rcols = RegionColumns::Build(all_refs, schema);
    RegionColumns ecols = RegionColumns::Build(all_exps, schema);
    ASSERT_TRUE(rcols.narrow() && ecols.narrow());
    WideCoords rwide(rcols);
    WideCoords ewide(ecols);

    // Row reference, chunk by chromosome like the engine does.
    for (const auto& rc : rcols.chunks()) {
      const gdm::ColumnChunk* ec = ecols.FindChunk(rc.chrom);
      size_t eb = ec == nullptr ? 0 : ec->begin;
      size_t ee = ec == nullptr ? 0 : ec->end;
      std::vector<GenomicRegion> refs(all_refs.begin() + rc.begin,
                                      all_refs.begin() + rc.end);
      std::vector<GenomicRegion> exps(all_exps.begin() + eb,
                                      all_exps.begin() + ee);
      // Window 0 is MAP's and COVER's overlap sweep; a window w > 0 is
      // JOIN's, whose row kernel is DistanceJoin up to distance w - 1.
      for (int64_t window : {int64_t{0}, int64_t{1}, int64_t{2500}}) {
        std::vector<std::pair<size_t, size_t>> row_pairs;
        auto sink = [&](size_t i, size_t a) { row_pairs.emplace_back(i, a); };
        if (window == 0) {
          interval::OverlapJoin(refs, exps, sink);
        } else {
          interval::DistanceJoin(refs, exps, INT64_MIN / 4, window - 1, sink);
        }

        // Every coordinate-width pairing: 32/32, 32/64, 64/32, 64/64.
        const interval::CoordView ref_views[] = {
            interval::CoordView::Of(rcols, rc.begin, rc.end),
            rwide.View(rc.begin, rc.end)};
        const interval::CoordView exp_views[] = {
            interval::CoordView::Of(ecols, eb, ee), ewide.View(eb, ee)};
        for (const interval::CoordView& rv : ref_views) {
          for (const interval::CoordView& ev : exp_views) {
            std::vector<interval::MatchPair> batch;
            interval::CollectOverlaps(rv, ev, window, &batch);
            ASSERT_EQ(batch.size(), row_pairs.size())
                << "window " << window << ", narrow refs " << rv.narrow()
                << ", exps " << ev.narrow();
            for (size_t i = 0; i < batch.size(); ++i) {
              EXPECT_EQ(batch[i].ref, row_pairs[i].first);
              EXPECT_EQ(batch[i].exp, row_pairs[i].second);
            }
          }
        }
      }
    }
  }
}

TEST(BatchKernelTest, ExistsOverlapMatchesRowKernel) {
  std::mt19937 rng(13);
  for (int round = 0; round < 20; ++round) {
    auto refs = RandomRegions(&rng, 150, 1, 50000, 2000);
    auto exps = RandomRegions(&rng, 100, 1, 50000, 2000);
    RegionSchema schema;
    RegionColumns rcols = RegionColumns::Build(refs, schema);
    RegionColumns ecols = RegionColumns::Build(exps, schema);
    ASSERT_TRUE(rcols.narrow() && ecols.narrow());
    WideCoords rwide(rcols);
    WideCoords ewide(ecols);
    auto row_flags = interval::ExistsOverlap(refs, exps);
    // Every coordinate-width pairing: 32/32, 32/64, 64/32, 64/64.
    const interval::CoordView ref_views[] = {WholeView(rcols),
                                             rwide.View(0, refs.size())};
    const interval::CoordView exp_views[] = {WholeView(ecols),
                                             ewide.View(0, exps.size())};
    for (const interval::CoordView& rv : ref_views) {
      for (const interval::CoordView& ev : exp_views) {
        std::vector<char> batch_flags(refs.size(), 0);
        interval::ExistsOverlapInto(rv, ev, 0, &batch_flags);
        for (size_t i = 0; i < refs.size(); ++i) {
          EXPECT_EQ(static_cast<bool>(batch_flags[i]),
                    static_cast<bool>(row_flags[i]))
              << "ref " << i << ", narrow refs " << rv.narrow() << ", exps "
              << ev.narrow();
        }
      }
    }
  }
}

TEST(BatchKernelTest, ProfileFromCoordsMatchesRowProfile) {
  std::mt19937 rng(17);
  for (int round = 0; round < 20; ++round) {
    auto regions = RandomRegions(&rng, 200, 1, 20000, 500);
    auto row_profile = interval::AccumulationProfile(regions);
    std::vector<int64_t> lefts, rights;
    for (const auto& r : regions) {
      lefts.push_back(r.left);
      rights.push_back(r.right);
    }
    std::vector<interval::AccSegment> batch_profile;
    interval::ProfileFromCoords(regions.empty() ? 0 : regions[0].chrom,
                                lefts.data(), rights.data(), lefts.size(),
                                &batch_profile);
    ASSERT_EQ(batch_profile.size(), row_profile.size());
    for (size_t i = 0; i < row_profile.size(); ++i) {
      EXPECT_EQ(batch_profile[i].chrom, row_profile[i].chrom);
      EXPECT_EQ(batch_profile[i].left, row_profile[i].left);
      EXPECT_EQ(batch_profile[i].right, row_profile[i].right);
      EXPECT_EQ(batch_profile[i].count, row_profile[i].count);
    }
  }
}

TEST(BatchKernelTest, MergeSlicesEqualsStableSortOfConcatenation) {
  // Narrow coordinates and three strands make ties within and across
  // slices; each slice is one chromosome's chunk of columns that also hold
  // another chromosome, so slices start at nonzero rows too.
  std::mt19937 rng(19);
  std::uniform_int_distribution<int64_t> coord(0, 30);
  std::uniform_int_distribution<int> strand(0, 2);
  const int32_t chrom = InternChrom("chrM1");
  const int32_t other = InternChrom("chrM0");
  RegionSchema schema;
  for (int round = 0; round < 20; ++round) {
    const size_t n_slices = 1 + round % 5;
    std::vector<std::vector<GenomicRegion>> rows(n_slices);
    std::vector<RegionColumns> cols;
    cols.reserve(n_slices);
    std::vector<interval::ColumnSlice> slices;
    for (size_t sl = 0; sl < n_slices; ++sl) {
      for (int i = 0; i < 40; ++i) {
        int64_t left = coord(rng);
        rows[sl].emplace_back(i % 4 == 0 ? other : chrom, left,
                              left + coord(rng) % 4,
                              static_cast<Strand>(strand(rng)));
      }
      gdm::SortRegions(&rows[sl]);
      cols.push_back(RegionColumns::Build(rows[sl], schema));
      const gdm::ColumnChunk* c = cols.back().FindChunk(chrom);
      ASSERT_NE(c, nullptr);
      slices.push_back({&cols.back(), c->begin, c->end});
    }
    std::vector<std::pair<size_t, size_t>> want;  // (slice, row)
    for (size_t sl = 0; sl < n_slices; ++sl) {
      for (size_t r = slices[sl].begin; r < slices[sl].end; ++r) {
        want.emplace_back(sl, r);
      }
    }
    std::stable_sort(want.begin(), want.end(),
                     [&](const auto& a, const auto& b) {
                       return rows[a.first][a.second].CoordLess(
                           rows[b.first][b.second]);
                     });
    std::vector<std::pair<size_t, size_t>> got;
    interval::MergeSlices(
        slices, [&](size_t sl, size_t r) { got.emplace_back(sl, r); });
    EXPECT_EQ(got, want) << "round " << round;
  }
}

TEST(BatchKernelTest, ProfileSweepMatchesRowProfileOnEdgeShapes) {
  // Seeded shapes the sweep must fold exactly as AccumulationProfile's
  // event sort does: duplicate left ends (a narrow left range), zero-length
  // regions, regions nested in and containing others (a long-region mix),
  // and coordinates past int32 (an int64-escape offset).
  std::mt19937_64 rng(23);
  const int32_t chrom = InternChrom("chrProfile");
  for (int round = 0; round < 60; ++round) {
    const int64_t offset = round % 3 == 2 ? (int64_t{1} << 40) : 0;
    const int64_t span = round % 2 == 0 ? 40 : 5000;
    const size_t n = 1 + rng() % 300;
    std::vector<GenomicRegion> regions;
    for (size_t i = 0; i < n; ++i) {
      int64_t left = offset + static_cast<int64_t>(rng() % span);
      int64_t len = 0;
      switch (rng() % 4) {
        case 0: break;  // zero-length
        case 1: len = static_cast<int64_t>(rng() % (4 * span)); break;
        default: len = 1 + static_cast<int64_t>(rng() % 20); break;
      }
      regions.emplace_back(chrom, left, left + len);
    }
    gdm::SortRegions(&regions);
    auto row_profile = interval::AccumulationProfile(regions);
    std::vector<int64_t> lefts, rights;
    for (const auto& r : regions) {
      lefts.push_back(r.left);
      rights.push_back(r.right);
    }
    std::vector<interval::AccSegment> sweep;
    interval::ProfileFromCoords(chrom, lefts.data(), rights.data(),
                                lefts.size(), &sweep);
    ASSERT_EQ(sweep.size(), row_profile.size()) << "round " << round;
    for (size_t i = 0; i < row_profile.size(); ++i) {
      EXPECT_EQ(sweep[i].chrom, row_profile[i].chrom) << "round " << round;
      EXPECT_EQ(sweep[i].left, row_profile[i].left) << "round " << round;
      EXPECT_EQ(sweep[i].right, row_profile[i].right) << "round " << round;
      EXPECT_EQ(sweep[i].count, row_profile[i].count) << "round " << round;
    }
  }
}

TEST(BatchKernelTest, MergeSlicesMatchesStableSortForAnySliceCount) {
  // 1, 2, 3 and 8 slices, some of them empty, over a narrow coordinate
  // range (ties within and across slices) and, in odd rounds, past int32
  // (wide columns).
  std::mt19937_64 rng(29);
  const int32_t chrom = InternChrom("chrMerge");
  RegionSchema schema;
  for (size_t n_slices : {1, 2, 3, 8}) {
    for (int round = 0; round < 12; ++round) {
      const int64_t offset = round % 2 == 1 ? (int64_t{1} << 36) : 0;
      std::vector<std::vector<GenomicRegion>> rows(n_slices);
      std::vector<RegionColumns> cols;
      cols.reserve(n_slices);
      std::vector<interval::ColumnSlice> slices;
      for (size_t sl = 0; sl < n_slices; ++sl) {
        const size_t n = rng() % 4 == 0 ? 0 : rng() % 40;
        for (size_t i = 0; i < n; ++i) {
          int64_t left = offset + static_cast<int64_t>(rng() % 12);
          rows[sl].emplace_back(chrom, left,
                                left + static_cast<int64_t>(rng() % 3),
                                static_cast<Strand>(rng() % 3));
        }
        gdm::SortRegions(&rows[sl]);
        cols.push_back(RegionColumns::Build(rows[sl], schema));
        slices.push_back({&cols.back(), 0, rows[sl].size()});
      }
      std::vector<std::pair<size_t, size_t>> want;  // (slice, row)
      for (size_t sl = 0; sl < n_slices; ++sl) {
        for (size_t r = 0; r < rows[sl].size(); ++r) want.emplace_back(sl, r);
      }
      std::stable_sort(want.begin(), want.end(),
                       [&](const auto& a, const auto& b) {
                         return rows[a.first][a.second].CoordLess(
                             rows[b.first][b.second]);
                       });
      std::vector<std::pair<size_t, size_t>> got;
      interval::MergeSlices(
          slices, [&](size_t sl, size_t r) { got.emplace_back(sl, r); });
      EXPECT_EQ(got, want) << n_slices << " slices, round " << round;
    }
  }
}

// --------------------------------------------------- engine equivalence ---

/// Text serializations of every output of one GMQL program; `exec` null
/// runs the ReferenceExecutor. With `exact`, each output also appears under
/// "<name>.gdmz" as .gdmz bytes, which keep every double's bits where the
/// text rounds to six digits.
std::map<std::string, std::string> RunToText(
    const std::string& gmql, const std::vector<Dataset>& sources,
    core::Executor* exec, bool exact = false) {
  core::QueryRunner runner =
      exec != nullptr ? core::QueryRunner(exec) : core::QueryRunner();
  for (const auto& ds : sources) runner.RegisterDataset(ds);
  auto results = runner.Run(gmql);
  EXPECT_TRUE(results.ok()) << results.status().ToString();
  std::map<std::string, std::string> texts;
  if (!results.ok()) return texts;
  for (const auto& [name, ds] : results.value()) {
    texts[name] = io::WriteGdmString(ds);
    if (exact) texts[name + ".gdmz"] = io::WriteGdmzString(ds);
  }
  return texts;
}

/// Runs one GMQL program on the engine, under both backends, and on the
/// ReferenceExecutor, and expects identical text and bit-identical values
/// in every output. The pipelined run must take a columnar kernel; with
/// `all_columnar`, every partition on both backends must.
void ExpectColumnarEquals(const std::string& gmql,
                          const std::vector<Dataset>& sources,
                          bool all_columnar = false) {
  std::map<std::string, std::string> reference =
      RunToText(gmql, sources, nullptr, /*exact=*/true);
  ASSERT_FALSE(reference.empty()) << gmql;
  for (auto backend : {engine::BackendKind::kPipelined,
                       engine::BackendKind::kMaterialized}) {
    engine::EngineOptions opt;
    opt.threads = 3;
    opt.backend = backend;
    engine::ParallelExecutor exec(opt);
    EXPECT_EQ(RunToText(gmql, sources, &exec, /*exact=*/true), reference)
        << engine::BackendKindName(backend) << ": " << gmql;
    if (backend == engine::BackendKind::kPipelined) {
      EXPECT_GT(exec.trace().columnar_tasks.load(), 0u)
          << "columnar kernel not taken for: " << gmql;
    }
    if (all_columnar) {
      EXPECT_EQ(exec.trace().columnar_tasks.load(),
                exec.trace().partitions.load())
          << engine::BackendKindName(backend) << ": " << gmql;
    }
  }
}

std::vector<Dataset> SimSources() {
  auto genome = gdm::GenomeAssembly::HumanLike(4, 20000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 5;
  popt.peaks_per_sample = 800;
  std::vector<Dataset> out;
  out.push_back(sim::GeneratePeakDataset(genome, popt, 3));
  auto catalog = sim::GenerateGenes(genome, 200, 3);
  out.push_back(sim::GenerateAnnotations(genome, catalog, {}, 3));
  return out;
}

TEST(ColumnarEngineTest, MapEquivalence) {
  ExpectColumnarEquals(
      "R = MAP(n AS COUNT, avg_s AS AVG(signal), mx AS MAX(signal), "
      "sd AS STD(signal), sm AS SUM(score), mn AS MIN(p_value), "
      "nn AS COUNT(name)) ANNOTATIONS ENCODE; MATERIALIZE R;",
      SimSources());
}

TEST(ColumnarEngineTest, MapStringAggregateEquivalence) {
  // MIN/MAX over a STRING column: non-null counting without numerics.
  ExpectColumnarEquals(
      "R = MAP(m AS MIN(name), s AS SUM(name)) ANNOTATIONS ENCODE; "
      "MATERIALIZE R;",
      SimSources());
}

TEST(ColumnarEngineTest, DifferenceEquivalence) {
  ExpectColumnarEquals("D = DIFFERENCE() ANNOTATIONS ENCODE; MATERIALIZE D;",
                       SimSources());
}

TEST(ColumnarEngineTest, CoverVariantsEquivalence) {
  // Every variant, aggregate and grouping takes the one columnar path, with
  // one profile task per (group x chromosome) partition on both backends.
  for (const char* gmql : {
           "C = COVER(2, ANY) ENCODE; MATERIALIZE C;",
           "H = HISTOGRAM(1, ANY) ENCODE; MATERIALIZE H;",
           "S = SUMMIT(2, 5) ENCODE; MATERIALIZE S;",
           "F = FLAT(2, ANY) ENCODE; MATERIALIZE F;",
           "A = COVER(1, ANY; n AS COUNT, s AS SUM(signal), a AS AVG(score), "
           "sd AS STD(signal), md AS MEDIAN(p_value), b AS BAG(name), "
           "mn AS MIN(name)) ENCODE; MATERIALIZE A;",
           "G = HISTOGRAM(1, ALL; groupby: lab) ENCODE; MATERIALIZE G;",
       }) {
    ExpectColumnarEquals(gmql, SimSources(), /*all_columnar=*/true);
  }
}

/// The values of every region of output `R`, in sample and region order.
std::vector<Value> ValuesOfR(const std::string& gmql, const Dataset& source,
                             core::Executor* exec) {
  core::QueryRunner runner =
      exec != nullptr ? core::QueryRunner(exec) : core::QueryRunner();
  runner.RegisterDataset(source);
  auto results = runner.Run(gmql);
  EXPECT_TRUE(results.ok()) << results.status().ToString();
  std::vector<Value> values;
  if (!results.ok()) return values;
  for (const auto& s : results.value().at("R").samples()) {
    for (const auto& r : s.regions) {
      values.insert(values.end(), r.values.begin(), r.values.end());
    }
  }
  return values;
}

// Regions tied on coordinates but carrying different values: every
// executor folds them in member order, then row order. The doubles make a
// sum depend on that order (1e16 + 1 - 1e16), and there are enough ties
// for an unstable sort to reorder them: with libstdc++'s std::sort, the
// reference once summed these draws to -78 instead of -69.5.
TEST(ColumnarEngineTest, CoordinateTiesFoldInMemberOrder) {
  RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("x", AttrType::kDouble).ok());
  Dataset ties("TIES", schema);
  const double kDraws[] = {1e16, -1e16, 1.0, 2.5, -3.0};
  // Fresh names intern in order, so the tied chromosome sorts first.
  const int32_t tied = InternChrom("chrTiesA");
  const int32_t apart = InternChrom("chrTiesB");
  std::mt19937 rng(5);
  std::vector<double> member_order;  // the tied values, member-major
  for (int m = 0; m < 3; ++m) {
    Sample smp(m + 1);
    for (int i = 0; i < 30; ++i) {
      GenomicRegion r(tied, 100, 200);
      member_order.push_back(kDraws[rng() % 5]);
      r.values = {Value(member_order.back())};
      smp.regions.push_back(std::move(r));
    }
    GenomicRegion other(apart, 10 * m, 10 * m + 15);
    other.values = {Value(1.0 + m)};
    smp.regions.push_back(std::move(other));
    ties.AddSample(std::move(smp));
  }
  ASSERT_TRUE(ties.Validate().ok());

  auto fold = [&](core::AggFunc func) {
    core::AggAccumulator acc(func);
    for (double x : member_order) acc.Add(Value(x));
    return acc.Finish();
  };
  const char* kCover =
      "R = COVER(1, ANY; s AS SUM(x), a AS AVG(x), d AS STD(x)) TIES; "
      "MATERIALIZE R;";
  const char* kFlat = "R = FLAT(1, ANY; s AS SUM(x)) TIES; MATERIALIZE R;";
  std::vector<Value> cover = ValuesOfR(kCover, ties, nullptr);
  std::vector<Value> flat = ValuesOfR(kFlat, ties, nullptr);
  ASSERT_GE(cover.size(), 3u);
  ASSERT_GE(flat.size(), 1u);
  EXPECT_EQ(cover[0].AsDouble(), fold(core::AggFunc::kSum).AsDouble());
  EXPECT_EQ(cover[1].AsDouble(), fold(core::AggFunc::kAvg).AsDouble());
  EXPECT_EQ(cover[2].AsDouble(), fold(core::AggFunc::kStd).AsDouble());
  EXPECT_EQ(flat[0].AsDouble(), fold(core::AggFunc::kSum).AsDouble());
  for (auto backend : {engine::BackendKind::kPipelined,
                       engine::BackendKind::kMaterialized}) {
    engine::EngineOptions opt;
    opt.threads = 3;
    opt.backend = backend;
    engine::ParallelExecutor exec(opt);
    EXPECT_EQ(ValuesOfR(kCover, ties, &exec), cover)
        << engine::BackendKindName(backend);
    EXPECT_EQ(ValuesOfR(kFlat, ties, &exec), flat)
        << engine::BackendKindName(backend);
  }
}

TEST(ColumnarEngineTest, MedianAndBagRunColumnarKernel) {
  // MEDIAN and BAG keep the matched value multiset, yet run the same batch
  // kernel as the moment aggregates on both backends.
  const char* gmql =
      "R = MAP(md AS MEDIAN(signal), b AS BAG(name)) ANNOTATIONS ENCODE; "
      "MATERIALIZE R;";
  std::map<std::string, std::string> reference =
      RunToText(gmql, SimSources(), nullptr);
  for (auto backend : {engine::BackendKind::kPipelined,
                       engine::BackendKind::kMaterialized}) {
    engine::EngineOptions opt;
    opt.threads = 2;
    opt.backend = backend;
    engine::ParallelExecutor exec(opt);
    EXPECT_EQ(RunToText(gmql, SimSources(), &exec), reference)
        << engine::BackendKindName(backend);
    EXPECT_GT(exec.trace().columnar_tasks.load(), 0u)
        << engine::BackendKindName(backend);
    EXPECT_EQ(exec.trace().columnar_tasks.load(),
              exec.trace().partitions.load())
        << engine::BackendKindName(backend);
  }
}

TEST(ColumnarEngineTest, NullValuesEquivalence) {
  // Hand-built exp dataset with NULL-heavy columns.
  RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("v", AttrType::kDouble).ok());
  ASSERT_TRUE(schema.AddAttr("tag", AttrType::kString).ok());
  Dataset exp("EXP", schema);
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> val(0, 100);
  for (int s = 0; s < 3; ++s) {
    Sample smp(s + 1);
    smp.metadata.Add("k", "v");
    auto regions = RandomRegions(&rng, 150, 2, 50000, 1500);
    for (size_t i = 0; i < regions.size(); ++i) {
      regions[i].values = {
          i % 3 == 0 ? Value::Null() : Value(val(rng)),
          i % 4 == 0 ? Value::Null() : Value("t" + std::to_string(i % 5))};
    }
    smp.regions = std::move(regions);
    smp.SortNow();
    exp.AddSample(std::move(smp));
  }
  ASSERT_TRUE(exp.Validate().ok());

  RegionSchema ref_schema;
  Dataset ref("REF", ref_schema);
  Sample rs(1);
  rs.metadata.Add("k", "v");
  rs.regions = RandomRegions(&rng, 100, 2, 50000, 3000);
  rs.SortNow();
  ref.AddSample(std::move(rs));
  ASSERT_TRUE(ref.Validate().ok());

  ExpectColumnarEquals(
      "R = MAP(n AS COUNT, a AS AVG(v), sd AS STD(v), nv AS COUNT(v), "
      "nt AS COUNT(tag), md AS MEDIAN(v), b AS BAG(tag)) REF EXP; "
      "MATERIALIZE R;",
      {ref, exp});
}

// ------------------------------------------------------- cache thread-safety

// Exercises the lazy RegionColumns and attribute-column publication under
// concurrent first access (the regression the engine's pre-touch loops used
// to paper over). Run under `ctest -L tsan` to verify with ThreadSanitizer.
TEST(ColumnarCacheTest, ConcurrentLazyBuildIsSafe) {
  std::mt19937 rng(29);
  RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("x", AttrType::kInt).ok());
  for (int round = 0; round < 5; ++round) {
    Sample s(1);
    s.regions = RandomRegions(&rng, 400, 4, 500000, 2000);
    for (auto& r : s.regions.mutable_rows()) r.values = {Value(int64_t{1})};
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    std::vector<size_t> chunk_counts(kThreads), attr_sizes(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        // Every thread races the columns; half then read the chunk
        // directory first, half race the lazy attribute column first.
        const RegionColumns& cols = s.columns(schema);
        if (t % 2 == 0) {
          chunk_counts[t] = cols.chunks().size();
          attr_sizes[t] = cols.attr(0).size();
        } else {
          attr_sizes[t] = cols.attr(0).size();
          chunk_counts[t] = cols.chunks().size();
        }
      });
    }
    for (auto& w : workers) w.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(attr_sizes[t], s.regions.size());
      EXPECT_EQ(chunk_counts[t], s.columns(schema).chunks().size());
    }
  }
}


// ------------------------------------------------- column-primary storage

/// True when no sample of `ds` has built its rows.
bool NoRowsBuilt(const Dataset& ds) {
  for (const auto& s : ds.samples()) {
    if (s.regions.rows_built()) return false;
  }
  return true;
}

TEST(ColumnPrimaryStoreTest, PipelinedMapOverOpenedGdmzBuildsNoExpRows) {
  std::vector<Dataset> sources = SimSources();  // ENCODE, ANNOTATIONS
  std::string path = ::testing::TempDir() + "columnar_test_stored.gdmz";
  ASSERT_TRUE(io::WriteGdmz(sources[0], path).ok());
  const char* gmql =
      "R = MAP(n AS COUNT, s AS SUM(signal), a AS AVG(score), "
      "m AS MAX(p_value), c AS COUNT(name)) ANNOTATIONS ENCODE; "
      "MATERIALIZE R;";
  auto for_reference = io::OpenGdmz(path);
  ASSERT_TRUE(for_reference.ok()) << for_reference.status().ToString();
  std::map<std::string, std::string> reference =
      RunToText(gmql, {sources[1], for_reference.value()}, nullptr);
  ASSERT_FALSE(reference.empty());

  auto opened = io::OpenGdmz(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const Dataset& stored = opened.value();
  ASSERT_TRUE(NoRowsBuilt(stored));
  engine::EngineOptions opt;
  opt.threads = 3;
  opt.backend = engine::BackendKind::kPipelined;
  engine::ParallelExecutor exec(opt);
  EXPECT_EQ(RunToText(gmql, {sources[1], stored}, &exec), reference);
  EXPECT_GT(exec.trace().columnar_tasks.load(), 0u);
  EXPECT_TRUE(NoRowsBuilt(stored));

  // The decoded columns are the only copy: nothing is evictable, and a
  // later query is unchanged.
  Dataset held = stored;
  EXPECT_EQ(held.ColumnarCacheBytes(), 0u);
  EXPECT_EQ(held.EvictColumnarCaches(), 0u);
  for (const auto& s : stored.samples()) {
    EXPECT_EQ(s.EvictColumns(), 0u);
    EXPECT_GT(s.regions.RowBytes(), 0u);
  }
  EXPECT_EQ(RunToText(gmql, {sources[1], stored}, &exec), reference);
  EXPECT_TRUE(NoRowsBuilt(stored));

  // The materialized backend encodes row slices, so it builds the rows.
  opt.backend = engine::BackendKind::kMaterialized;
  engine::ParallelExecutor materialized(opt);
  EXPECT_EQ(RunToText(gmql, {sources[1], stored}, &materialized), reference);
  for (const auto& s : stored.samples()) {
    EXPECT_TRUE(s.regions.rows_built());
  }
  std::remove(path.c_str());
}

// Concurrent first rows() callers on a column-primary store race benignly:
// one row vector is published and every caller sees it. Run under
// `ctest -L tsan` to verify with ThreadSanitizer.
TEST(ColumnPrimaryStoreTest, ConcurrentFirstRowsCallersSeeOnePublishedVector) {
  Dataset source = SimSources()[0];
  std::string blob = io::WriteGdmzString(source);
  for (int round = 0; round < 3; ++round) {
    auto decoded = io::ReadGdmzString(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const Sample& s = decoded.value().sample(0);
    ASSERT_FALSE(s.regions.rows_built());
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<const std::vector<GenomicRegion>*> seen(kThreads);
    std::vector<size_t> sizes(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        // Half also read the columns and the size, which build nothing.
        if (t % 2 == 0) {
          sizes[t] = s.columns(source.schema()).size() + s.regions.size();
        }
        seen[t] = &s.regions.rows();
      });
    }
    for (auto& w : workers) w.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t], seen[0]);
      if (t % 2 == 0) {
        EXPECT_EQ(sizes[t], 2 * seen[0]->size());
      }
    }
    EXPECT_TRUE(s.regions.rows_built());
    EXPECT_EQ(io::WriteGdmString(decoded.value()),
              io::WriteGdmString(source));
  }
}

TEST(ColumnPrimaryStoreTest, MutationMaterializesRowsAndSparesSharers) {
  Dataset source = SimSources()[0];
  auto decoded = io::ReadGdmzString(io::WriteGdmzString(source));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Sample& stored = decoded.value().sample(0);
  const RegionColumns& cols = stored.columns(source.schema());
  const size_t n = stored.regions.size();
  EXPECT_EQ(stored.regions.RowBytes(), cols.MemoryBytes());

  // A sharer that mutates gets rows of its own; the stored sample keeps
  // its columns and builds no rows.
  Sample sharer = stored;
  sharer.regions.mutable_rows().pop_back();
  EXPECT_EQ(sharer.regions.size(), n - 1);
  EXPECT_EQ(stored.regions.size(), n);
  EXPECT_FALSE(stored.regions.rows_built());
  EXPECT_EQ(&stored.columns(source.schema()), &cols);

  // Rows built on demand add to the store's footprint.
  EXPECT_EQ(stored.regions.rows().size(), n);
  EXPECT_GT(stored.regions.RowBytes(), cols.MemoryBytes());

  // The exclusive holder's mutation turns the store row-primary: its
  // columns become an evictable cache like any row store's.
  Sample own = decoded.value().sample(0);
  decoded.value().mutable_samples()->clear();
  own.regions.mutable_rows();
  EXPECT_TRUE(own.regions.rows_built());
  EXPECT_EQ(own.ColumnarCacheBytes(), 0u);
  (void)own.columns(source.schema());
  uint64_t cached = own.ColumnarCacheBytes();
  EXPECT_GT(cached, 0u);
  EXPECT_EQ(own.EvictColumns(), cached);
  EXPECT_EQ(own.regions.size(), n);
}

// ------------------------------------------------ lazy stored attributes

uint64_t AttrBuiltBytes() {
  return obs::MetricsRegistry::Global()
      .GetCounter("gdms_mem_attr_columns_built_bytes_total")
      ->value();
}

/// SimSources() after a text round-trip, so its doubles sit on the decimal
/// grid a .gdmz round-trip preserves exactly.
std::vector<Dataset> TextStableSimSources() {
  std::vector<Dataset> out;
  for (const Dataset& ds : SimSources()) {
    auto round = io::ReadGdmString(io::WriteGdmString(ds));
    EXPECT_TRUE(round.ok()) << round.status().ToString();
    out.push_back(std::move(round).value());
  }
  return out;
}

// The engine's MAP reads one attribute of the stored side, so only that
// column is decoded — once per sample, by concurrent tasks — and the rest
// stay encoded until a row consumer asks. Run under `ctest -L tsan`.
TEST(LazyAttrTest, ConcurrentMapDecodesOnlyItsInput) {
  std::vector<Dataset> sources = TextStableSimSources();  // ENCODE, ANNOTATIONS
  const char* gmql =
      "R = MAP(n AS COUNT, s AS SUM(signal)) ANNOTATIONS ENCODE; "
      "MATERIALIZE R;";
  std::map<std::string, std::string> reference =
      RunToText(gmql, {sources[1], sources[0]}, nullptr);
  ASSERT_FALSE(reference.empty());

  std::string path = ::testing::TempDir() + "columnar_test_lazy.gdmz";
  ASSERT_TRUE(io::WriteGdmz(sources[0], path).ok());
  auto opened = io::OpenGdmz(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const Dataset& stored = opened.value();
  const RegionSchema& schema = stored.schema();
  const size_t signal = schema.IndexOf("signal").value();

  engine::EngineOptions opt;
  opt.threads = 4;
  engine::ParallelExecutor exec(opt);
  const uint64_t built_before = AttrBuiltBytes();
  EXPECT_EQ(RunToText(gmql, {sources[1], stored}, &exec), reference);
  const uint64_t built_after = AttrBuiltBytes();

  uint64_t signal_bytes = 0;
  for (const Sample& s : stored.samples()) {
    const RegionColumns* cols = s.regions.stored_columns();
    ASSERT_NE(cols, nullptr);
    for (size_t a = 0; a < schema.size(); ++a) {
      EXPECT_EQ(cols->attr_built(a), a == signal)
          << "sample " << s.id << " attribute " << schema.attr(a).name;
    }
    EXPECT_NE(cols->encoded_attrs(), nullptr);
    EXPECT_TRUE(cols->attr_error(signal).ok());
    signal_bytes += cols->attr(signal).MemoryBytes();
  }
  // Writing the output's rows reads the ref's attributes through the ref's
  // columns, which build each from the ref's rows once per ref sample.
  uint64_t ref_bytes = 0;
  for (const Sample& s : sources[1].samples()) {
    const RegionColumns& cols = s.regions.columns(sources[1].schema());
    for (size_t a = 0; a < cols.num_attrs(); ++a) {
      if (cols.attr_built(a)) ref_bytes += cols.attr(a).MemoryBytes();
    }
  }
  EXPECT_EQ(built_after - built_before, signal_bytes + ref_bytes);

  // A row consumer decodes the rest and sees the source's rows; the stored
  // bytes stay with the columns.
  EXPECT_EQ(io::WriteGdmString(stored), io::WriteGdmString(sources[0]));
  for (const Sample& s : stored.samples()) {
    EXPECT_NE(s.regions.stored_columns()->encoded_attrs(), nullptr);
  }
}

TEST(LazyAttrTest, PassThroughWriteDecodesNothing) {
  std::string blob = io::WriteGdmzString(TextStableSimSources()[0]);
  auto decoded = io::ReadGdmzString(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(io::WriteGdmzString(decoded.value()), blob);
  for (const Sample& s : decoded.value().samples()) {
    const RegionColumns* cols = s.regions.stored_columns();
    ASSERT_NE(cols, nullptr);
    for (size_t a = 0; a < cols->num_attrs(); ++a) {
      EXPECT_FALSE(cols->attr_built(a));
    }
  }
  // Fully decoded, the samples still write their stored bytes.
  (void)io::WriteGdmString(decoded.value());
  EXPECT_EQ(io::WriteGdmzString(decoded.value()), blob);
}

TEST(LazyAttrTest, ValidateAndResidentEstimateDecodeNothing) {
  auto decoded = io::ReadGdmzString(io::WriteGdmzString(SimSources()[0]));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Dataset& ds = decoded.value();
  const uint64_t built_before = AttrBuiltBytes();
  EXPECT_TRUE(ds.Validate().ok());
  uint64_t held = ds.EstimateResidentBytes();
  EXPECT_EQ(AttrBuiltBytes(), built_before);
  for (const Sample& s : ds.samples()) {
    const RegionColumns* cols = s.regions.stored_columns();
    ASSERT_NE(cols, nullptr);
    for (size_t a = 0; a < cols->num_attrs(); ++a) {
      EXPECT_FALSE(cols->attr_built(a));
    }
  }
  // Decoding a column adds exactly its bytes to the estimate.
  const RegionColumns& cols = *ds.sample(0).regions.stored_columns();
  uint64_t decoded_bytes = cols.attr(0).MemoryBytes();
  EXPECT_EQ(ds.EstimateResidentBytes(), held + decoded_bytes);
}

// Eight first touches of one slot: one decode, charged once, and every
// caller gets the same column. Run under `ctest -L tsan`.
TEST(LazyAttrTest, ConcurrentFirstTouchDecodesOnce) {
  std::string blob = io::WriteGdmzString(SimSources()[0]);
  for (int round = 0; round < 3; ++round) {
    auto decoded = io::ReadGdmzString(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const RegionColumns& cols =
        *decoded.value().sample(0).regions.stored_columns();
    const uint64_t built_before = AttrBuiltBytes();
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<const gdm::ValueColumn*> seen(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        seen[t] = &cols.attr(0);  // the front-coded name column
      });
    }
    for (auto& w : workers) w.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(seen[0]->size(), cols.size());
    EXPECT_EQ(AttrBuiltBytes() - built_before, seen[0]->MemoryBytes());
  }
}


// ----------------------------------------------- column-primary MAP output

/// A ref whose samples cover the MAP edge cases: sample 1 has a chromosome
/// (chr9) the exps lack, sample 2 has coordinates past 2^31 (its columns
/// are not narrow), sample 3 is empty. `label` is NULL on every third row.
Dataset ComposedRef() {
  RegionSchema schema;
  EXPECT_TRUE(schema.AddAttr("label", AttrType::kString).ok());
  EXPECT_TRUE(schema.AddAttr("rank", AttrType::kInt).ok());
  Dataset ref("REF", schema);
  std::mt19937 rng(41);
  auto fill = [](std::vector<GenomicRegion> regions) {
    for (size_t i = 0; i < regions.size(); ++i) {
      regions[i].values = {
          i % 3 == 0 ? Value::Null() : Value("g" + std::to_string(i % 7)),
          Value(static_cast<int64_t>(i))};
    }
    return regions;
  };
  Sample a(1);
  a.metadata.Add("k", "a");
  std::vector<GenomicRegion> rows = RandomRegions(&rng, 120, 2, 60000, 3000);
  for (int64_t left : {100, 5000, 40000}) {
    rows.emplace_back(InternChrom("chr9"), left, left + 800);
  }
  gdm::SortRegions(&rows);
  a.regions = fill(std::move(rows));
  ref.AddSample(std::move(a));
  Sample wide(2);
  wide.metadata.Add("k", "b");
  rows.clear();
  for (int64_t i = 0; i < 40; ++i) {
    int64_t left = (int64_t{3} << 30) + i * 2500;
    rows.emplace_back(InternChrom("chr1"), left, left + 4000);
  }
  wide.regions = fill(std::move(rows));
  ref.AddSample(std::move(wide));
  Sample empty(3);
  empty.metadata.Add("k", "a");
  ref.AddSample(std::move(empty));
  EXPECT_TRUE(ref.Validate().ok());
  return ref;
}

/// Exps with DOUBLE, STRING and INT inputs holding NULLs, and an all-NULL
/// column `z`; each sample also reaches past 2^31 on chr1.
Dataset ComposedExp() {
  RegionSchema schema;
  EXPECT_TRUE(schema.AddAttr("v", AttrType::kDouble).ok());
  EXPECT_TRUE(schema.AddAttr("tag", AttrType::kString).ok());
  EXPECT_TRUE(schema.AddAttr("c", AttrType::kInt).ok());
  EXPECT_TRUE(schema.AddAttr("z", AttrType::kDouble).ok());
  Dataset exp("EXP", schema);
  std::mt19937 rng(43);
  std::uniform_real_distribution<double> val(-50, 50);
  for (int s = 0; s < 3; ++s) {
    Sample smp(s + 1);
    smp.metadata.Add("k", s == 2 ? "b" : "a");
    std::vector<GenomicRegion> rows = RandomRegions(&rng, 200, 2, 60000, 2000);
    for (int64_t i = 0; i < 30; ++i) {
      int64_t left = (int64_t{3} << 30) + i * 3100 + s * 700;
      rows.emplace_back(InternChrom("chr1"), left, left + 1500);
    }
    gdm::SortRegions(&rows);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i].values = {
          i % 3 == 0 ? Value::Null() : Value(val(rng)),
          i % 4 == 0 ? Value::Null() : Value("t" + std::to_string(i % 5)),
          i % 5 == 0 ? Value::Null() : Value(static_cast<int64_t>(i % 11)),
          Value::Null()};
    }
    smp.regions = std::move(rows);
    exp.AddSample(std::move(smp));
  }
  EXPECT_TRUE(exp.Validate().ok());
  return exp;
}

/// Runs `gmql` on the engine at 1 and 4 threads on both backends and
/// expects every output to equal the ReferenceExecutor's, bit for bit
/// (.gdmz bytes), also after a round trip through a .gdmz file.
void ExpectMapMatchesReference(const std::string& gmql,
                               const std::vector<Dataset>& sources) {
  std::map<std::string, std::string> reference =
      RunToText(gmql, sources, nullptr, /*exact=*/true);
  ASSERT_FALSE(reference.empty()) << gmql;
  // Tests run as parallel processes: each writes a file of its own.
  const std::string path =
      ::testing::TempDir() + "columnar_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".gdmz";
  for (size_t threads : {1, 4}) {
    for (auto backend : {engine::BackendKind::kPipelined,
                         engine::BackendKind::kMaterialized}) {
      engine::EngineOptions opt;
      opt.threads = threads;
      opt.backend = backend;
      engine::ParallelExecutor exec(opt);
      std::map<std::string, std::string> got =
          RunToText(gmql, sources, &exec, /*exact=*/true);
      EXPECT_EQ(got, reference) << engine::BackendKindName(backend) << " x"
                                << threads << ": " << gmql;
      for (const auto& [name, bytes] : got) {
        if (name.size() < 5 || name.substr(name.size() - 5) != ".gdmz") {
          continue;
        }
        {
          std::FILE* f = std::fopen(path.c_str(), "wb");
          ASSERT_NE(f, nullptr);
          std::fwrite(bytes.data(), 1, bytes.size(), f);
          std::fclose(f);
        }
        auto opened = io::OpenGdmz(path);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        const std::string text_name = name.substr(0, name.size() - 5);
        EXPECT_EQ(io::WriteGdmString(opened.value()), reference[text_name])
            << text_name << ": " << gmql;
        EXPECT_EQ(io::WriteGdmzString(opened.value()), reference[name])
            << text_name << ": " << gmql;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ComposedMapTest, EveryAggregateMatchesReference) {
  ExpectMapMatchesReference(
      "R = MAP(n AS COUNT, s AS SUM(v), a AS AVG(c), mn AS MIN(v), "
      "mx AS MAX(c), sd AS STD(v), md AS MEDIAN(c), mdv AS MEDIAN(v), "
      "b AS BAG(tag), bc AS BAG(c), st AS SUM(tag), mt AS MIN(tag), "
      "nz AS COUNT(z), az AS AVG(z), sz AS STD(z), bz AS BAG(z)) REF EXP; "
      "MATERIALIZE R;",
      {ComposedRef(), ComposedExp()});
}

TEST(ComposedMapTest, JoinbyMatchesReference) {
  ExpectMapMatchesReference(
      "R = MAP(n AS COUNT, s AS SUM(v), b AS BAG(tag); joinby: k) REF EXP; "
      "MATERIALIZE R;",
      {ComposedRef(), ComposedExp()});
}

TEST(ComposedMapTest, OutputFeedsEveryOperator) {
  // A MAP output as MAP ref and exp, JOIN left, COVER input (aggregating
  // its own columns) and DIFFERENCE left.
  ExpectMapMatchesReference(
      "M = MAP(n AS COUNT, s AS SUM(v), b AS BAG(tag)) REF EXP;\n"
      "M2 = MAP(k2 AS COUNT, t AS SUM(c)) M EXP;\n"
      "M3 = MAP(tn AS SUM(n), bb AS BAG(label)) REF M;\n"
      "J = JOIN(DLE(5000); CAT) M EXP;\n"
      "C = COVER(1, ANY; t AS SUM(n), bb AS BAG(b)) M;\n"
      "D = DIFFERENCE() M EXP;\n"
      "MATERIALIZE M2; MATERIALIZE M3; MATERIALIZE J; MATERIALIZE C;\n"
      "MATERIALIZE D;",
      {ComposedRef(), ComposedExp()});
}

TEST(ComposedMapTest, FusedTailsMatchReference) {
  for (const char* tail : {"T = SELECT(region: n >= 1) M;",
                           "T = PROJECT(n, label; dbl AS n + n) M;",
                           "T = EXTEND(total AS SUM(n), cnt AS COUNT) M;"}) {
    const std::string gmql =
        std::string("M = MAP(n AS COUNT, s AS SUM(v)) REF EXP;\n") + tail +
        "\nMATERIALIZE T;";
    std::vector<Dataset> sources = {ComposedRef(), ComposedExp()};
    ExpectMapMatchesReference(gmql, sources);
    engine::ParallelExecutor exec(engine::EngineOptions{});
    core::QueryRunner runner(&exec);
    for (const auto& ds : sources) runner.RegisterDataset(ds);
    ASSERT_TRUE(runner.Run(gmql).ok()) << gmql;
    EXPECT_EQ(runner.last_stats().fusion.chains_fused, 1u) << gmql;
  }
}

/// Output `R` of a pipelined MAP over `ref` and `exp` at 2 threads.
Dataset PipelinedMap(const std::string& gmql, const Dataset& ref,
                     const Dataset& exp) {
  engine::EngineOptions opt;
  opt.threads = 2;
  opt.backend = engine::BackendKind::kPipelined;
  engine::ParallelExecutor exec(opt);
  core::QueryRunner runner(&exec);
  runner.RegisterDataset(ref);
  runner.RegisterDataset(exp);
  auto out = runner.Run(gmql);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? out.value().at("R") : Dataset();
}

constexpr char kComposedMap[] =
    "R = MAP(n AS COUNT, s AS SUM(v), b AS BAG(tag)) REF EXP; MATERIALIZE R;";

TEST(ComposedMapTest, OutputSharesRefColumnsAndIsChargedForItsOwn) {
  Dataset ref = ComposedRef();
  Dataset exp = ComposedExp();
  Dataset out = PipelinedMap(kComposedMap, ref, exp);
  ASSERT_EQ(out.num_samples(), ref.num_samples() * exp.num_samples());
  uint64_t own = 0, meta = 0;
  for (const Sample& s : out.samples()) {
    EXPECT_FALSE(s.regions.rows_built()) << "sample " << s.id;
    const RegionColumns* cols = s.regions.stored_columns();
    ASSERT_NE(cols, nullptr);
    EXPECT_EQ(cols->num_attrs(), out.schema().size());
    EXPECT_EQ(cols->encoded_attrs(), nullptr);
    if (s.num_regions() > 0) {
      // An empty ref sample has no storage to share.
      ASSERT_NE(s.regions.base(), nullptr);
      const RegionColumns& base = s.regions.base()->columns(ref.schema());
      EXPECT_EQ(cols->left32().data(), base.left32().data());
      EXPECT_EQ(cols->left64().data(), base.left64().data());
      EXPECT_EQ(&cols->attr(0), &base.attr(0));
    }
    own += s.regions.RowBytes();
    for (const auto& e : s.metadata.entries()) {
      meta += sizeof(e) + e.attr.capacity() + e.value.capacity();
    }
  }
  EXPECT_EQ(out.EstimateResidentBytes({&ref, &exp}), own + meta);
  // Without the inputs, each ref storage — its rows and the columns the
  // outputs hold — counts once, however many outputs share it.
  uint64_t refs = 0;
  for (const Sample& s : ref.samples()) {
    refs += s.regions.RowBytes() + s.regions.ColumnarCacheBytes();
  }
  EXPECT_EQ(out.EstimateResidentBytes(), own + meta + refs);
}

// Evicting a ref's columns while MAP outputs hold them frees nothing, so
// the shedder is told nothing was freed, the ref's cache still reports
// them, and an output charged without its ref counts them. Once the
// outputs are gone the eviction frees them.
TEST(ComposedMapTest, EvictingAHeldRefFreesNothingAndKeepsItCounted) {
  Dataset ref = ComposedRef();
  Dataset exp = ComposedExp();
  uint64_t ref_rows = 0;
  for (const Sample& s : ref.samples()) ref_rows += s.regions.RowBytes();
  {
    Dataset out = PipelinedMap(kComposedMap, ref, exp);
    const uint64_t cached = ref.ColumnarCacheBytes();
    ASSERT_GT(cached, 0u);
    const uint64_t own = out.EstimateResidentBytes({&ref, &exp});
    EXPECT_EQ(out.EstimateResidentBytes(), own + ref_rows + cached);
    EXPECT_EQ(ref.EvictColumnarCaches(), 0u);
    EXPECT_EQ(ref.ColumnarCacheBytes(), cached);
    EXPECT_EQ(out.EstimateResidentBytes(), own + ref_rows + cached);
  }
  const uint64_t cached = ref.ColumnarCacheBytes();
  ASSERT_GT(cached, 0u);
  EXPECT_EQ(ref.EvictColumnarCaches(), cached);
  EXPECT_EQ(ref.ColumnarCacheBytes(), 0u);
}

// A MAP output stays valid and unchanged whatever happens to its ref: the
// ref dataset destroyed, an eviction of its columns (which keeps the ones
// the output holds), it or a copy of it mutated.
// Run under `ctest -L tsan`.
TEST(ComposedMapTest, OutputOutlivesAndIgnoresItsRef) {
  const Dataset exp = ComposedExp();
  const std::string stored_blob = io::WriteGdmzString(ComposedRef());
  for (bool stored : {false, true}) {
    auto make_ref = [&] {
      return stored ? io::ReadGdmzString(stored_blob).value() : ComposedRef();
    };
    const std::string expected =
        io::WriteGdmString(PipelinedMap(kComposedMap, make_ref(), exp));

    Dataset orphan;
    {
      Dataset ref = make_ref();
      orphan = PipelinedMap(kComposedMap, ref, exp);
    }
    EXPECT_EQ(io::WriteGdmString(orphan), expected) << "stored " << stored;

    Dataset ref = make_ref();
    Dataset evicted = PipelinedMap(kComposedMap, ref, exp);
    EXPECT_EQ(ref.EvictColumnarCaches(), 0u) << "stored " << stored;
    EXPECT_EQ(io::WriteGdmString(evicted), expected) << "stored " << stored;

    Dataset mutated = PipelinedMap(kComposedMap, ref, exp);
    Dataset copy = ref;
    for (Dataset* d : {&copy, &ref}) {
      for (size_t i = 0; i < d->num_samples(); ++i) {
        for (GenomicRegion& r : d->mutable_sample(i)->regions.mutable_rows()) {
          r.values = {Value("changed"), Value(int64_t{-1})};
        }
      }
    }
    EXPECT_EQ(io::WriteGdmString(mutated), expected) << "stored " << stored;
    EXPECT_EQ(io::WriteGdmString(evicted), expected) << "stored " << stored;
  }
}

// First reads of a lazy stored ref attribute race from threads reading it
// through a composed output and through the ref itself: one decode, one
// column, seen by all. Run under `ctest -L tsan`.
TEST(ComposedMapTest, ConcurrentFirstReadsShareOneRefSlot) {
  const std::string blob = io::WriteGdmzString(ComposedRef());
  for (int round = 0; round < 4; ++round) {
    auto ref = io::ReadGdmzString(blob);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    const Dataset& ds = ref.value();
    const gdm::RegionStore& base = ds.sample(0).regions;
    gdm::ValueColumn extra(AttrType::kInt, base.size(), {});
    gdm::RegionStore out =
        gdm::RegionStore::Extend(base, ds.schema(), {std::move(extra)});
    const RegionColumns& out_cols = *out.stored_columns();
    const RegionColumns& ref_cols = *base.stored_columns();
    ASSERT_FALSE(ref_cols.attr_built(0));
    ASSERT_FALSE(out_cols.attr_built(0));
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<const gdm::ValueColumn*> seen(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        seen[t] = t % 2 == 0 ? &out_cols.attr(0) : &ref_cols.attr(0);
      });
    }
    for (auto& w : workers) w.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
    EXPECT_FALSE(ref_cols.attr_built(1));
    ASSERT_EQ(out.size(), base.size());
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].values.size(), 3u);
      EXPECT_EQ(out[i].values[0], base[i].values[0]);
      EXPECT_EQ(out[i].values[1], base[i].values[1]);
      EXPECT_EQ(out[i].values[2], Value(int64_t{0}));
    }
  }
}

}  // namespace
}  // namespace gdms
