#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "engine/shuffle.h"
#include "obs/metrics.h"
#include "sim/generators.h"

namespace gdms::engine {
namespace {

using core::QueryRunner;
using gdm::Dataset;
using gdm::GenomicRegion;
using gdm::InternChrom;
using gdm::Sample;
using gdm::Value;

// ---------------------------------------------------------------- codec ---

TEST(RegionCodecTest, RoundTripAllValueTypes) {
  std::vector<GenomicRegion> rs;
  GenomicRegion r(InternChrom("chr1"), 100, 200, gdm::Strand::kMinus);
  r.values = {Value(int64_t{7}), Value(2.5), Value("hello"), Value(true),
              Value::Null()};
  rs.push_back(r);
  rs.emplace_back(InternChrom("chr2"), 0, 1, gdm::Strand::kNone);
  std::string buf;
  RegionCodec::Encode(rs, 0, rs.size(), &buf);
  auto back = RegionCodec::Decode(buf).ValueOrDie();
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].chrom, rs[0].chrom);
  EXPECT_EQ(back[0].strand, gdm::Strand::kMinus);
  ASSERT_EQ(back[0].values.size(), 5u);
  EXPECT_EQ(back[0].values[0].AsInt(), 7);
  EXPECT_DOUBLE_EQ(back[0].values[1].AsDouble(), 2.5);
  EXPECT_EQ(back[0].values[2].AsString(), "hello");
  EXPECT_TRUE(back[0].values[3].AsBool());
  EXPECT_TRUE(back[0].values[4].is_null());
}

TEST(RegionCodecTest, RejectsTruncated) {
  std::vector<GenomicRegion> rs = {GenomicRegion(InternChrom("chr1"), 0, 5)};
  std::string buf;
  RegionCodec::Encode(rs, 0, 1, &buf);
  buf.resize(buf.size() - 1);
  EXPECT_FALSE(RegionCodec::Decode(buf).ok());
}

TEST(RegionCodecTest, SliceEncoding) {
  std::vector<GenomicRegion> rs;
  for (int i = 0; i < 10; ++i) {
    rs.emplace_back(InternChrom("chr1"), i * 10, i * 10 + 5);
  }
  std::string buf;
  RegionCodec::Encode(rs, 3, 7, &buf);
  auto back = RegionCodec::Decode(buf).ValueOrDie();
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back[0].left, 30);
}

// ------------------------------------------------- engine vs reference ----

/// Structural dataset equality ignoring sample order within the dataset.
void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.schema().ToString(), b.schema().ToString());
  ASSERT_EQ(a.num_samples(), b.num_samples());
  for (const auto& sa : a.samples()) {
    const Sample* sb = b.FindSample(sa.id);
    ASSERT_NE(sb, nullptr) << "missing sample " << sa.id;
    EXPECT_EQ(sa.metadata.entries().size(), sb->metadata.entries().size());
    EXPECT_TRUE(sa.metadata == sb->metadata);
    ASSERT_EQ(sa.regions.size(), sb->regions.size()) << "sample " << sa.id;
    for (size_t i = 0; i < sa.regions.size(); ++i) {
      const auto& ra = sa.regions[i];
      const auto& rb = sb->regions[i];
      EXPECT_EQ(ra.chrom, rb.chrom);
      EXPECT_EQ(ra.left, rb.left);
      EXPECT_EQ(ra.right, rb.right);
      EXPECT_EQ(ra.strand, rb.strand);
      ASSERT_EQ(ra.values.size(), rb.values.size());
      for (size_t v = 0; v < ra.values.size(); ++v) {
        EXPECT_EQ(ra.values[v].Compare(rb.values[v]), 0)
            << "sample " << sa.id << " region " << i << " value " << v << ": "
            << ra.values[v].ToString() << " vs " << rb.values[v].ToString();
      }
    }
  }
}

/// `id_bin` is an id component only: JOIN once cut range partitions of
/// that genomic bin width, and instances keep the "_b<width>" it put in
/// their ids, as they keep the "_flat" suffix (the engine once had a
/// second, per-pair scheduler), so test ids stay stable.
struct EngineCase {
  BackendKind backend;
  size_t threads;
  int64_t id_bin;
};

std::string EngineCaseName(const EngineCase& c) {
  return std::string(BackendKindName(c.backend)) + "_t" +
         std::to_string(c.threads) + "_b" + std::to_string(c.id_bin) +
         "_flat";
}

/// ctest ids embed the printed parameter. googletest used to print a case
/// as a byte dump of its 32-byte layout, which then also held a `columnar`
/// flag (set in every surviving instance) and uninitialised padding. Print
/// the same dump with the padding zeroed, so the ids stay as they were but
/// no longer change from build to build.
void PrintTo(const EngineCase& c, std::ostream* os) {
  unsigned char bytes[32] = {};
  const int32_t backend = static_cast<int32_t>(c.backend);
  const uint64_t threads = c.threads;
  std::memcpy(bytes, &backend, sizeof backend);
  std::memcpy(bytes + 8, &threads, sizeof threads);
  std::memcpy(bytes + 16, &c.id_bin, sizeof c.id_bin);
  bytes[24] = 1;  // columnar
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

/// The ENCODE and ANNOTATIONS datasets every EngineEquivalenceTest runs on.
QueryRunner MakeEquivalenceRunner(core::Executor* executor) {
  QueryRunner runner = executor ? QueryRunner(executor) : QueryRunner();
  auto genome = gdm::GenomeAssembly::HumanLike(5, 30000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 5;
  popt.peaks_per_sample = 800;
  runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 99));
  auto catalog = sim::GenerateGenes(genome, 200, 99);
  runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 99));
  return runner;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  void CheckQuery(const char* query) {
    EngineCase c = GetParam();
    EngineOptions options;
    options.backend = c.backend;
    options.threads = c.threads;
    ParallelExecutor parallel(options);
    QueryRunner ref_runner = MakeEquivalenceRunner(nullptr);
    QueryRunner par_runner = MakeEquivalenceRunner(&parallel);
    auto ref = ref_runner.Run(query).ValueOrDie();
    auto par = par_runner.Run(query).ValueOrDie();
    ASSERT_EQ(ref.size(), par.size());
    for (const auto& [name, ds] : ref) {
      ExpectDatasetsEqual(ds, par.at(name));
    }
  }
};

TEST_P(EngineEquivalenceTest, SelectMatchesReference) {
  CheckQuery(
      "X = SELECT(dataType == 'ChipSeq'; region: signal >= 8 AND chr == "
      "'chr2') ENCODE;\nMATERIALIZE X;\n");
}

TEST_P(EngineEquivalenceTest, MapMatchesReference) {
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "R = MAP(n AS COUNT, s AS SUM(signal), m AS MAX(p_value), "
      "md AS MEDIAN(signal), b AS BAG(name)) PROMS ENCODE;\n"
      "MATERIALIZE R;\n");
}

TEST_P(EngineEquivalenceTest, JoinDistanceMatchesReference) {
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "J = JOIN(DLE(50000) AND DGE(1); CAT) PROMS ENCODE;\n"
      "MATERIALIZE J;\n");
}

TEST_P(EngineEquivalenceTest, JoinMdMatchesReference) {
  CheckQuery(
      "GENES = SELECT(annType == 'gene') ANNOTATIONS;\n"
      "J = JOIN(MD(2) AND DLE(1000000); INT) GENES ENCODE;\n"
      "MATERIALIZE J;\n");
}

TEST_P(EngineEquivalenceTest, DifferenceMatchesReference) {
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "D = DIFFERENCE() PROMS ENCODE;\n"
      "MATERIALIZE D;\n");
}

TEST_P(EngineEquivalenceTest, CoverMatchesReference) {
  CheckQuery(
      "P = SELECT(dataType == 'ChipSeq') ENCODE;\n"
      "C = COVER(2, ANY; n AS COUNT, avg AS AVG(signal)) P;\n"
      "MATERIALIZE C;\n");
}

TEST_P(EngineEquivalenceTest, HistogramAllMatchesReference) {
  CheckQuery(
      "P = SELECT(dataType == 'ChipSeq') ENCODE;\n"
      "H = HISTOGRAM(1, ALL) P;\n"
      "MATERIALIZE H;\n");
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineEquivalenceTest,
    ::testing::Values(
        EngineCase{BackendKind::kPipelined, 4, 5000000},
        EngineCase{BackendKind::kMaterialized, 4, 5000000},
        EngineCase{BackendKind::kPipelined, 1, 5000000},
        EngineCase{BackendKind::kPipelined, 8, 500000},   // many partitions
        EngineCase{BackendKind::kMaterialized, 2, 1000000}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return EngineCaseName(info.param);
    });

// ------------------------------------------------- skewed-input sweeps ----

/// Same equivalence contract as above, but over inputs crafted to stress
/// the flat task graph: one giant sample among tiny ones (task-length skew),
/// empty samples (zero-partition pairs), and single-chromosome datasets
/// (no chromosome-level slicing to hide behind).
class EngineSkewTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  static void AddSample(Dataset* ds, gdm::SampleId id, int32_t chroms,
                        size_t regions, int64_t spacing, uint64_t seed,
                        const std::string& kind) {
    Sample s(id);
    s.metadata.Add("dataType", "ChipSeq");
    s.metadata.Add("kind", kind);
    uint64_t state = seed * 2654435761u + 1;
    for (size_t i = 0; i < regions; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      int32_t chrom = InternChrom("chr" + std::to_string(1 + (state >> 33) %
                                                                 chroms));
      int64_t left = static_cast<int64_t>((state >> 17) % 97) * spacing +
                     static_cast<int64_t>(i) * spacing;
      int64_t len = 50 + static_cast<int64_t>(state % 2000);
      GenomicRegion r(chrom, left, left + len);
      r.values.push_back(Value(static_cast<double>(state % 100)));
      s.regions.push_back(r);
    }
    s.SortNow();
    ds->AddSample(std::move(s));
  }

  static QueryRunner MakeRunner(core::Executor* executor, int32_t chroms) {
    QueryRunner runner = executor ? QueryRunner(executor) : QueryRunner();
    gdm::RegionSchema schema;
    (void)schema.AddAttr("signal", gdm::AttrType::kDouble);
    Dataset peaks("ENCODE", schema);
    // One giant sample among tiny ones, plus empty samples.
    AddSample(&peaks, 1, chroms, 4000, 400, 11, "giant");
    for (gdm::SampleId i = 0; i < 4; ++i) {
      AddSample(&peaks, 2 + i, chroms, 20, 90000, 100 + i, "tiny");
    }
    peaks.AddSample(Sample(6));
    Sample empty2(7);
    empty2.metadata.Add("dataType", "ChipSeq");
    peaks.AddSample(std::move(empty2));
    runner.RegisterDataset(std::move(peaks));

    Dataset anns("ANNOTATIONS", schema);
    AddSample(&anns, 1, chroms, 300, 60000, 7, "ref");
    runner.RegisterDataset(std::move(anns));
    return runner;
  }

  /// Runs `query` on both executors and demands identical outputs; `check`,
  /// when set, then inspects the parallel runner and its outputs.
  using ParallelCheck = std::function<void(
      const QueryRunner&, const std::map<std::string, Dataset>&)>;
  void CheckQuery(const char* query, int32_t chroms,
                  const ParallelCheck& check = nullptr) {
    EngineCase c = GetParam();
    EngineOptions options;
    options.backend = c.backend;
    options.threads = c.threads;
    ParallelExecutor parallel(options);
    QueryRunner ref_runner = MakeRunner(nullptr, chroms);
    QueryRunner par_runner = MakeRunner(&parallel, chroms);
    auto ref = ref_runner.Run(query).ValueOrDie();
    auto par = par_runner.Run(query).ValueOrDie();
    ASSERT_EQ(ref.size(), par.size());
    for (const auto& [name, ds] : ref) {
      ExpectDatasetsEqual(ds, par.at(name));
    }
    if (check) check(par_runner, par);
  }
};

TEST_P(EngineSkewTest, MapSkewedMatchesReference) {
  CheckQuery(
      "R = MAP(n AS COUNT, s AS SUM(signal)) ANNOTATIONS ENCODE;\n"
      "MATERIALIZE R;\n",
      4);
}

TEST_P(EngineSkewTest, MapSingleChromosomeMatchesReference) {
  CheckQuery(
      "R = MAP(n AS COUNT) ANNOTATIONS ENCODE;\nMATERIALIZE R;\n", 1);
}

TEST_P(EngineSkewTest, JoinSkewedMatchesReference) {
  CheckQuery(
      "J = JOIN(DLE(100000); CAT) ANNOTATIONS ENCODE;\nMATERIALIZE J;\n", 4);
}

TEST_P(EngineSkewTest, DifferenceSkewedMatchesReference) {
  CheckQuery("D = DIFFERENCE() ANNOTATIONS ENCODE;\nMATERIALIZE D;\n", 4);
}

TEST_P(EngineSkewTest, DifferenceJoinbyMatchesReference) {
  CheckQuery(
      "D = DIFFERENCE(joinby: kind) ENCODE ENCODE;\nMATERIALIZE D;\n", 4);
}

TEST_P(EngineSkewTest, DifferenceUnmatchedLeftMatchesReference) {
  // The "ref" sample has no "kind" partner in ENCODE: nothing is subtracted,
  // so the output passes the input's region storage through.
  CheckQuery(
      "D = DIFFERENCE(joinby: kind) ANNOTATIONS ENCODE;\nMATERIALIZE D;\n", 4,
      [](const QueryRunner& runner,
         const std::map<std::string, Dataset>& out) {
        const Dataset& d = out.at("D");
        const Dataset* anns = runner.FindDataset("ANNOTATIONS");
        ASSERT_EQ(d.num_samples(), 1u);
        EXPECT_EQ(d.sample(0).regions.storage_id(),
                  anns->sample(0).regions.storage_id());
      });
}

TEST_P(EngineSkewTest, CoverSkewedMatchesReference) {
  CheckQuery("C = COVER(2, ANY) ENCODE;\nMATERIALIZE C;\n", 4);
}

TEST_P(EngineSkewTest, CoverGroupbySingleChromMatchesReference) {
  CheckQuery("C = COVER(1, ALL; groupby: kind) ENCODE;\nMATERIALIZE C;\n", 1);
}

TEST_P(EngineSkewTest, MapJoinbyMatchesReference) {
  CheckQuery(
      "R = MAP(n AS COUNT; joinby: dataType) ENCODE ENCODE;\n"
      "MATERIALIZE R;\n",
      4);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadSweep, EngineSkewTest,
    ::testing::Values(
        EngineCase{BackendKind::kPipelined, 1, 2000000},
        EngineCase{BackendKind::kPipelined, 2, 2000000},
        EngineCase{BackendKind::kPipelined, 8, 2000000},
        EngineCase{BackendKind::kMaterialized, 1, 2000000},
        EngineCase{BackendKind::kMaterialized, 2, 2000000},
        EngineCase{BackendKind::kMaterialized, 8, 2000000}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return EngineCaseName(info.param);
    });

// ---------------------------------------------------- joinby pair match ---

TEST(TaskGraphTest, MatchJoinbyPairsEqualsNestedScan) {
  gdm::RegionSchema schema;
  Dataset left("L", schema);
  Dataset right("R", schema);
  auto add = [](Dataset* ds, gdm::SampleId id,
                std::vector<std::pair<std::string, std::string>> meta) {
    Sample s(id);
    for (auto& [k, v] : meta) s.metadata.Add(k, v);
    ds->AddSample(std::move(s));
  };
  add(&left, 10, {{"cell", "K562"}, {"tf", "CTCF"}});
  add(&left, 11, {{"cell", "HeLa"}, {"tf", "CTCF"}, {"tf", "MYC"}});
  add(&left, 12, {{"cell", "K562"}});  // missing tf
  add(&left, 13, {});
  add(&right, 20, {{"cell", "K562"}, {"tf", "MYC"}});
  add(&right, 21, {{"cell", "HeLa"}, {"tf", "MYC"}});
  add(&right, 22, {{"cell", "K562"}, {"tf", "CTCF"}});
  add(&right, 23, {{"cell", "GM12878"}, {"tf", "CTCF"}});

  for (const auto& joinby : std::vector<std::vector<std::string>>{
           {}, {"cell"}, {"tf"}, {"cell", "tf"}, {"absent"}}) {
    std::vector<std::pair<size_t, size_t>> expected;
    for (size_t l = 0; l < left.num_samples(); ++l) {
      for (size_t r = 0; r < right.num_samples(); ++r) {
        if (core::Operators::JoinbyMatch(joinby, left.sample(l).metadata,
                                         right.sample(r).metadata)) {
          expected.emplace_back(l, r);
        }
      }
    }
    EXPECT_EQ(MatchJoinbyPairs(left, right, joinby), expected)
        << "joinby size " << joinby.size();
  }
}

TEST(EngineTraceTest, MaterializedCountsShuffleBytes) {
  auto genome = gdm::GenomeAssembly::HumanLike(3, 10000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 2;
  popt.peaks_per_sample = 300;
  Dataset peaks = sim::GeneratePeakDataset(genome, popt, 5);
  auto catalog = sim::GenerateGenes(genome, 100, 5);
  Dataset annotations = sim::GenerateAnnotations(genome, catalog, {}, 5);
  struct Counts {
    uint64_t tasks, partitions, columnar_tasks, shuffle_bytes, barriers;
  };
  auto run = [&](BackendKind backend, const char* query) {
    EngineOptions options;
    options.backend = backend;
    options.threads = 2;
    ParallelExecutor executor(options);
    QueryRunner runner(&executor);
    runner.RegisterDataset(peaks);
    runner.RegisterDataset(annotations);
    auto r = runner.Run(query);
    EXPECT_TRUE(r.ok()) << BackendKindName(backend) << ": " << query;
    const EngineTrace& t = executor.trace();
    return Counts{t.tasks.load(), t.partitions.load(),
                  t.columnar_tasks.load(), t.shuffle_bytes.load(),
                  t.stage_barriers.load()};
  };
  // Each program runs exactly one shuffling operator, whose whole flat task
  // list crosses one stage boundary: exactly one barrier. Both backends run
  // the same task graph; the materialized one adds one shuffle-write task
  // per partition in front of it.
  for (const char* query : {
           "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
           "R = MAP() PROMS ENCODE;\nMATERIALIZE R;\n",
           "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
           "R = JOIN(DLE(20000); CAT) PROMS ENCODE;\nMATERIALIZE R;\n",
           "R = COVER(2, ANY) ENCODE;\nMATERIALIZE R;\n",
       }) {
    Counts mat = run(BackendKind::kMaterialized, query);
    Counts pip = run(BackendKind::kPipelined, query);
    EXPECT_GT(mat.shuffle_bytes, 0u) << query;
    EXPECT_EQ(mat.barriers, 1u) << query;
    EXPECT_GT(mat.tasks, 0u) << query;
    EXPECT_GT(pip.partitions, 0u) << query;
    EXPECT_EQ(mat.partitions, pip.partitions) << query;
    EXPECT_EQ(mat.columnar_tasks, pip.columnar_tasks) << query;
    EXPECT_EQ(mat.tasks, pip.tasks + pip.partitions) << query;
  }
}

TEST(EngineTraceTest, JoinPartitionsArePairChromosomes) {
  // JOIN cuts one partition per (pair x chromosome on both sides), MAP's
  // partitions, and sweeps each through the columnar batch kernel.
  EngineOptions options;
  options.backend = BackendKind::kPipelined;
  options.threads = 2;
  ParallelExecutor executor(options);
  QueryRunner runner = MakeEquivalenceRunner(&executor);
  auto r = runner.Run(
      "J = JOIN(DLE(50000) AND DGE(1); CAT) ANNOTATIONS ENCODE;\n"
      "MATERIALIZE J;\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto chroms = [](const Sample& s) {
    std::set<int32_t> out;
    for (const GenomicRegion& g : s.regions) out.insert(g.chrom);
    return out;
  };
  uint64_t expected = 0;
  for (const Sample& l : runner.FindDataset("ANNOTATIONS")->samples()) {
    std::set<int32_t> lc = chroms(l);
    for (const Sample& e : runner.FindDataset("ENCODE")->samples()) {
      for (int32_t c : chroms(e)) expected += lc.count(c);
    }
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(executor.trace().partitions.load(), expected);
  EXPECT_EQ(executor.trace().columnar_tasks.load(), expected);
}

TEST(EngineTest, JoinKeepsCoordinateTiedRowsInEmissionOrder) {
  // Two tied refs span [0, 1000); twenty exps nest inside them and one lies
  // 1000 bp past them. Under CAT the nested pairs all span [0, 1000) and
  // the far pairs [0, 2010): 42 rows in two tie runs, well above the 16
  // below which an unstable sort happens to keep ties in order. Output
  // order is a stable coordinate sort of the emission order (refs
  // ascending, then exps ascending per ref).
  const int32_t chrom = InternChrom("chrJoinTies");
  gdm::RegionSchema ref_schema;
  ASSERT_TRUE(ref_schema.AddAttr("name", gdm::AttrType::kString).ok());
  Dataset refs("REFS", ref_schema);
  Sample rs(1);
  for (const char* name : {"a", "b"}) {
    rs.regions.emplace_back(chrom, 0, 1000, gdm::Strand::kNone,
                            std::vector<Value>{Value(name)});
  }
  refs.AddSample(std::move(rs));
  gdm::RegionSchema exp_schema;
  ASSERT_TRUE(exp_schema.AddAttr("k", gdm::AttrType::kInt).ok());
  Dataset exps("EXPS", exp_schema);
  Sample es(2);
  for (int64_t k = 0; k < 20; ++k) {
    es.regions.emplace_back(chrom, 100 + 10 * k, 105 + 10 * k,
                            gdm::Strand::kNone, std::vector<Value>{Value(k)});
  }
  es.regions.emplace_back(chrom, 2000, 2010, gdm::Strand::kNone,
                          std::vector<Value>{Value(int64_t{20})});
  exps.AddSample(std::move(es));

  struct Row {
    int64_t right;
    std::string name;
    int64_t k;
  };
  std::vector<Row> want;
  for (const char* name : {"a", "b"}) {
    for (int64_t k = 0; k < 20; ++k) want.push_back({1000, name, k});
  }
  for (const char* name : {"a", "b"}) want.push_back({2010, name, 20});

  auto check = [&](core::Executor* executor, const std::string& label) {
    QueryRunner runner = executor ? QueryRunner(executor) : QueryRunner();
    runner.RegisterDataset(refs);
    runner.RegisterDataset(exps);
    auto r = runner.Run("J = JOIN(DLE(1500); CAT) REFS EXPS;\nMATERIALIZE J;\n");
    ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
    const Dataset& j = r.value().at("J");
    ASSERT_EQ(j.num_samples(), 1u) << label;
    const auto& rows = j.sample(0).regions.rows();
    ASSERT_EQ(rows.size(), want.size()) << label;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].left, 0) << label << " row " << i;
      EXPECT_EQ(rows[i].right, want[i].right) << label << " row " << i;
      EXPECT_EQ(rows[i].values[0].AsString(), want[i].name)
          << label << " row " << i;
      EXPECT_EQ(rows[i].values[1].AsInt(), want[i].k) << label << " row " << i;
    }
  };
  check(nullptr, "reference");
  for (BackendKind backend :
       {BackendKind::kPipelined, BackendKind::kMaterialized}) {
    for (size_t threads : {1, 4}) {
      EngineOptions options;
      options.backend = backend;
      options.threads = threads;
      ParallelExecutor executor(options);
      check(&executor, std::string(BackendKindName(backend)) + "_t" +
                           std::to_string(threads));
    }
  }
}

TEST(EngineTraceTest, PipelinedMovesNoShuffleBytes) {
  EngineOptions options;
  options.backend = BackendKind::kPipelined;
  options.threads = 2;
  ParallelExecutor executor(options);
  QueryRunner runner(&executor);
  auto genome = gdm::GenomeAssembly::HumanLike(3, 10000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 2;
  popt.peaks_per_sample = 300;
  runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 5));
  auto catalog = sim::GenerateGenes(genome, 100, 5);
  runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 5));
  auto r = runner.Run(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "R = MAP() PROMS ENCODE;\nMATERIALIZE R;\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(executor.trace().shuffle_bytes.load(), 0u);
  EXPECT_EQ(executor.trace().stage_barriers.load(), 0u);
}

TEST(EngineTest, RepeatedSection2QueryBuildsNoNewColumns) {
  // The metadata-only SELECTs hand MAP the sources' own region storage, so
  // the columns the first run builds stay on the sources: a second run of
  // the same query builds exactly zero columnar bytes.
  EngineOptions options;
  options.threads = 2;
  ParallelExecutor executor(options);
  QueryRunner runner(&executor);
  auto genome = gdm::GenomeAssembly::HumanLike(3, 10000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 4;
  popt.peaks_per_sample = 300;
  runner.RegisterDataset(sim::GeneratePeakDataset(genome, popt, 7));
  auto catalog = sim::GenerateGenes(genome, 100, 7);
  runner.RegisterDataset(sim::GenerateAnnotations(genome, catalog, {}, 7));
  const char* kQuery =
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;\n"
      "R = MAP(n AS COUNT) PROMS PEAKS;\n"
      "MATERIALIZE PEAKS;\n"
      "MATERIALIZE R;\n";
  obs::Counter* built = obs::MetricsRegistry::Global().GetCounter(
      "gdms_mem_columnar_built_bytes_total");
  uint64_t before = built->value();
  auto first = runner.Run(kQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  uint64_t after_first = built->value();
  EXPECT_GT(after_first, before);
  const Dataset& peaks = first.value().at("PEAKS");
  const Dataset* encode = runner.FindDataset("ENCODE");
  ASSERT_EQ(peaks.num_samples(), encode->num_samples());
  for (size_t i = 0; i < peaks.num_samples(); ++i) {
    EXPECT_EQ(peaks.sample(i).regions.storage_id(),
              encode->sample(i).regions.storage_id());
  }
  auto second = runner.Run(kQuery);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(built->value(), after_first);
}

TEST(EngineTest, JoinWithoutUpperBoundRejected) {
  ParallelExecutor executor;
  QueryRunner runner(&executor);
  gdm::RegionSchema schema;
  runner.RegisterDataset(gdm::Dataset("A", schema));
  runner.RegisterDataset(gdm::Dataset("B", schema));
  auto r = runner.Run("X = JOIN(DGE(5); LEFT) A B;");
  EXPECT_FALSE(r.ok());
}

TEST(EngineTest, FusedNodeWithUnfusableProducerIsInternalError) {
  // The optimizer never fuses a PROJECT producer; the engine must reject
  // such a node instead of running its stages some other way.
  ParallelExecutor executor;
  Dataset in("A", gdm::RegionSchema());
  auto producer = std::make_shared<core::PlanNode>();
  producer->kind = core::OpKind::kProject;
  core::PlanNode fused;
  fused.kind = core::OpKind::kFused;
  fused.fused_stages.push_back(producer);
  auto r = executor.Execute(fused, {&in});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace gdms::engine
