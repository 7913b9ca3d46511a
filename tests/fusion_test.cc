// Equivalence tests for per-partition operator fusion: every fusable chain
// must produce byte-identical datasets (schema, sample ids, metadata, region
// coordinates and values) with fusion on and off, across the reference
// executor and the parallel engine on both backends. The fused runs also
// assert that fusion actually happened (chains_fused > 0), so a
// silently-disabled pass cannot fake equivalence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>

#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "io/gdmz.h"
#include "sim/generators.h"

namespace gdms::engine {
namespace {

using core::QueryRunner;
using gdm::Dataset;
using gdm::Sample;

/// Structural dataset equality ignoring sample order within the dataset.
void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.schema().ToString(), b.schema().ToString());
  ASSERT_EQ(a.num_samples(), b.num_samples());
  for (const auto& sa : a.samples()) {
    const Sample* sb = b.FindSample(sa.id);
    ASSERT_NE(sb, nullptr) << "missing sample " << sa.id;
    EXPECT_TRUE(sa.metadata == sb->metadata) << "sample " << sa.id;
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
            << "sample " << sa.id << " region " << i << " value " << v;
      }
    }
  }
}

struct FusionCase {
  enum Executor { kReference, kParallel };
  Executor executor = kParallel;
  BackendKind backend = BackendKind::kPipelined;
  size_t threads = 4;
};

/// Engine instances keep their historical "_flat" infix (the engine once had
/// a second, per-pair scheduler) so test ids stay stable.
std::string FusionCaseName(const FusionCase& c) {
  if (c.executor == FusionCase::kReference) return "reference";
  return std::string(BackendKindName(c.backend)) + "_flat_t" +
         std::to_string(c.threads);
}

/// ctest ids embed the printed parameter. googletest used to print a case
/// as a byte dump of its 24-byte layout, which then also held a `columnar`
/// flag (set in every surviving instance) and uninitialised padding. Print
/// the same dump with the padding zeroed, so the ids stay as they were but
/// no longer change from build to build.
void PrintTo(const FusionCase& c, std::ostream* os) {
  unsigned char bytes[24] = {};
  const int32_t executor = c.executor;
  const int32_t backend = static_cast<int32_t>(c.backend);
  const uint64_t threads = c.threads;
  std::memcpy(bytes, &executor, sizeof executor);
  std::memcpy(bytes + 4, &backend, sizeof backend);
  bytes[8] = 1;  // columnar
  std::memcpy(bytes + 16, &threads, sizeof threads);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class FusionEquivalenceTest : public ::testing::TestWithParam<FusionCase> {
 public:
  static QueryRunner MakeRunner(core::Executor* executor) {
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

  static std::unique_ptr<ParallelExecutor> MakeExecutor(const FusionCase& c) {
    if (c.executor == FusionCase::kReference) return nullptr;
    EngineOptions options;
    options.backend = c.backend;
    options.threads = c.threads;
    return std::make_unique<ParallelExecutor>(options);
  }

  /// Runs `query` twice on identical inputs — fusion on vs off — and demands
  /// identical outputs plus exactly `expected_chains` fused chains.
  void CheckQuery(const char* query, size_t expected_chains) {
    FusionCase c = GetParam();
    auto fused_exec = MakeExecutor(c);
    auto plain_exec = MakeExecutor(c);
    QueryRunner fused_runner = MakeRunner(fused_exec.get());
    QueryRunner plain_runner = MakeRunner(plain_exec.get());
    plain_runner.set_fusion(false);
    auto fused = fused_runner.Run(query).ValueOrDie();
    auto plain = plain_runner.Run(query).ValueOrDie();
    EXPECT_EQ(fused_runner.last_stats().fusion.chains_fused, expected_chains);
    EXPECT_EQ(plain_runner.last_stats().fusion.chains_fused, 0u);
    ASSERT_EQ(fused.size(), plain.size());
    for (const auto& [name, ds] : plain) {
      ExpectDatasetsEqual(ds, fused.at(name));
    }
  }
};

TEST_P(FusionEquivalenceTest, MapSelectRegion) {
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "R = MAP(n AS COUNT, s AS SUM(signal)) PROMS ENCODE;\n"
      "E = SELECT(region: n >= 2) R;\n"
      "MATERIALIZE E;\n",
      1);
}

TEST_P(FusionEquivalenceTest, MapSelectMetadataDropsSamples) {
  // The consumer SELECT's metadata predicate drops whole samples inside the
  // fused tail (MAP output carries the union of ref+exp metadata).
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "R = MAP(n AS COUNT) PROMS ENCODE;\n"
      "E = SELECT(karyotype == 'cancer') R;\n"
      "MATERIALIZE E;\n",
      1);
}

TEST_P(FusionEquivalenceTest, MapExtend) {
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "R = MAP(n AS COUNT, m AS MAX(p_value)) PROMS ENCODE;\n"
      "E = EXTEND(total AS SUM(n), regions AS COUNT) R;\n"
      "MATERIALIZE E;\n",
      1);
}

TEST_P(FusionEquivalenceTest, MapSelectProjectThreeStages) {
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "R = MAP(n AS COUNT) PROMS ENCODE;\n"
      "E = SELECT(region: n >= 1) R;\n"
      "P = PROJECT(n; doubled AS n + n) E;\n"
      "MATERIALIZE P;\n",
      1);
}

TEST_P(FusionEquivalenceTest, JoinSelect) {
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "J = JOIN(DLE(50000) AND DGE(1); CAT) PROMS ENCODE;\n"
      "S = SELECT(region: chr == 'chr2') J;\n"
      "MATERIALIZE S;\n",
      1);
}

TEST_P(FusionEquivalenceTest, JoinMdProject) {
  // MD(k) joins parallelize per pair (no genomic partitioning); the tail
  // still applies inside the pair tasks.
  CheckQuery(
      "GENES = SELECT(annType == 'gene') ANNOTATIONS;\n"
      "J = JOIN(MD(2) AND DLE(1000000); INT) GENES ENCODE;\n"
      "P = PROJECT(*; meta: provider) J;\n"
      "MATERIALIZE P;\n",
      1);
}

TEST_P(FusionEquivalenceTest, SelectProject) {
  CheckQuery(
      "X = SELECT(dataType == 'ChipSeq'; region: signal >= 8) ENCODE;\n"
      "P = PROJECT(signal, p_value; reg_len AS right - left) X;\n"
      "MATERIALIZE P;\n",
      1);
}

TEST_P(FusionEquivalenceTest, DifferenceExtend) {
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "D = DIFFERENCE() PROMS ENCODE;\n"
      "E = EXTEND(n AS COUNT) D;\n"
      "MATERIALIZE E;\n",
      1);
}

TEST_P(FusionEquivalenceTest, CoverSelect) {
  CheckQuery(
      "P = SELECT(dataType == 'ChipSeq') ENCODE;\n"
      "C = COVER(2, ANY; n AS COUNT) P;\n"
      "S = SELECT(region: chr == 'chr1') C;\n"
      "MATERIALIZE S;\n",
      1);
}

TEST_P(FusionEquivalenceTest, EmptyPartitions) {
  // The region predicate empties every sample before the chain; fused and
  // unfused runs must agree on the empty (but present) samples.
  CheckQuery(
      "X = SELECT(region: signal >= 100000) ENCODE;\n"
      "P = PROJECT(signal; reg_len AS right - left) X;\n"
      "MATERIALIZE P;\n",
      1);
}

TEST_P(FusionEquivalenceTest, EmptyInputDataset) {
  // The meta predicate matches no samples, so the fused chain runs over an
  // empty dataset (zero tasks in every stage).
  CheckQuery(
      "NONE = SELECT(annType == 'nonexistent') ANNOTATIONS;\n"
      "R = MAP(n AS COUNT) NONE ENCODE;\n"
      "E = SELECT(region: n >= 1) R;\n"
      "MATERIALIZE E;\n",
      1);
}

TEST_P(FusionEquivalenceTest, SingleSampleChain) {
  // ANNOTATIONS' promoter track is a single sample: the chain fuses and
  // the one-task stages still agree with the unfused plan.
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "P = PROJECT(*; meta: provider) PROMS;\n"
      "MATERIALIZE P;\n",
      1);
}

TEST_P(FusionEquivalenceTest, MaterializedProducerNotFused) {
  // R is materialized AND consumed downstream: fusing it away would lose a
  // sink payload, so the pass must leave the chain alone.
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "R = MAP(n AS COUNT) PROMS ENCODE;\n"
      "E = SELECT(region: n >= 2) R;\n"
      "MATERIALIZE R;\n"
      "MATERIALIZE E;\n",
      0);
}

TEST_P(FusionEquivalenceTest, TwoIndependentChains) {
  CheckQuery(
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "R = MAP(n AS COUNT) PROMS ENCODE;\n"
      "E = SELECT(region: n >= 2) R;\n"
      "X = SELECT(dataType == 'ChipSeq'; region: signal >= 8) ENCODE;\n"
      "P = PROJECT(signal) X;\n"
      "MATERIALIZE E;\n"
      "MATERIALIZE P;\n",
      2);
}

// ------------------------------------------------- copy-on-write sharing ---

TEST_P(FusionEquivalenceTest, TailThatChangesRegionsLeavesSourceIntact) {
  // DIFFERENCE without a partner and a metadata-only SELECT pass ENCODE's
  // region storage through; the fused tails then drop and rewrite regions,
  // which must detach from the source instead of writing into it.
  FusionCase c = GetParam();
  auto exec = MakeExecutor(c);
  QueryRunner runner = MakeRunner(exec.get());
  auto out = runner
                 .Run("D = DIFFERENCE(joinby: nosuch) ENCODE ANNOTATIONS;\n"
                      "S = SELECT(region: signal >= 8) D;\n"
                      "X = SELECT(dataType == 'ChipSeq') ENCODE;\n"
                      "P = PROJECT(signal; reg_len AS right - left) X;\n"
                      "MATERIALIZE S;\n"
                      "MATERIALIZE P;\n")
                 .ValueOrDie();
  EXPECT_EQ(runner.last_stats().fusion.chains_fused, 2u);
  const Dataset& encode = *runner.FindDataset("ENCODE");
  EXPECT_LT(out.at("S").TotalRegions(), encode.TotalRegions());
  EXPECT_EQ(out.at("P").schema().size(), 2u);
  QueryRunner fresh = MakeRunner(nullptr);
  ExpectDatasetsEqual(*fresh.FindDataset("ENCODE"), encode);
}

TEST_P(FusionEquivalenceTest, TailThatKeepsEveryRegionSharesSource) {
  FusionCase c = GetParam();
  auto exec = MakeExecutor(c);
  QueryRunner runner = MakeRunner(exec.get());
  auto out = runner
                 .Run("D = DIFFERENCE(joinby: nosuch) ENCODE ANNOTATIONS;\n"
                      "S = SELECT(region: signal > 0) D;\n"
                      "MATERIALIZE S;\n")
                 .ValueOrDie();
  EXPECT_EQ(runner.last_stats().fusion.chains_fused, 1u);
  const Dataset& encode = *runner.FindDataset("ENCODE");
  const Dataset& s = out.at("S");
  ASSERT_EQ(s.num_samples(), encode.num_samples());
  for (const auto& sample : encode.samples()) {
    const Sample* kept = s.FindSample(sample.id);
    ASSERT_NE(kept, nullptr);
    EXPECT_EQ(kept->regions.storage_id(), sample.regions.storage_id());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Executors, FusionEquivalenceTest,
    ::testing::Values(
        FusionCase{FusionCase::kReference},
        FusionCase{FusionCase::kParallel, BackendKind::kPipelined, 4},
        FusionCase{FusionCase::kParallel, BackendKind::kMaterialized, 4},
        FusionCase{FusionCase::kParallel, BackendKind::kPipelined, 1}),
    [](const ::testing::TestParamInfo<FusionCase>& info) {
      return FusionCaseName(info.param);
    });

// ------------------------------------------------------- bind errors ---

// An unknown attribute in a consumer stage fails with the same Status fused
// (the stage binds inside the producer's output stage) and unfused (the
// operator binds over the materialized intermediate dataset).
TEST_P(FusionEquivalenceTest, BindErrorsMatchUnfused) {
  const char* kMap =
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "R = MAP(n AS COUNT) PROMS ENCODE;\n";
  for (const char* tail : {"T = PROJECT(n, nosuch) R;",
                           "T = PROJECT(n; x AS nosuch + 1) R;",
                           "T = EXTEND(t AS SUM(nosuch)) R;",
                           "T = SELECT(region: nosuch >= 1) R;"}) {
    const std::string query =
        std::string(kMap) + tail + "\nMATERIALIZE T;\n";
    FusionCase c = GetParam();
    auto fused_exec = MakeExecutor(c);
    auto plain_exec = MakeExecutor(c);
    QueryRunner fused_runner = MakeRunner(fused_exec.get());
    QueryRunner plain_runner = MakeRunner(plain_exec.get());
    plain_runner.set_fusion(false);
    auto fused = fused_runner.Run(query);
    auto plain = plain_runner.Run(query);
    EXPECT_EQ(fused_runner.last_stats().fusion.chains_fused, 1u) << tail;
    ASSERT_FALSE(plain.ok()) << tail;
    ASSERT_FALSE(fused.ok()) << tail;
    EXPECT_EQ(fused.status().code(), plain.status().code()) << tail;
    EXPECT_EQ(fused.status().message(), plain.status().message()) << tail;
    EXPECT_NE(plain.status().message().find("nosuch"), std::string::npos)
        << plain.status().ToString();
  }
}

// ------------------------------------------------ metadata-only SELECT ---

// A SELECT without a region predicate keeps each kept sample's region store
// as it is: over samples decoded from .gdmz (column-primary) it reads no
// row, so no row is built and the output shares the input's storage.
TEST_P(FusionEquivalenceTest, MetadataOnlySelectReadsNoStoredRow) {
  FusionCase c = GetParam();
  auto exec = MakeExecutor(c);
  QueryRunner runner = MakeRunner(exec.get());
  const std::string blob = io::WriteGdmzString(*runner.FindDataset("ENCODE"));
  auto stored = io::ReadGdmzBytes(blob);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  runner.RegisterDataset(std::move(stored).value());
  auto out = runner.Run("S = SELECT(dataType == 'ChipSeq') ENCODE;\n"
                        "MATERIALIZE S;\n");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Dataset& encode = *runner.FindDataset("ENCODE");
  const Dataset& s = out.value().at("S");
  ASSERT_GT(s.num_samples(), 0u);
  for (const auto& sample : s.samples()) {
    const Sample* in = encode.FindSample(sample.id);
    ASSERT_NE(in, nullptr);
    EXPECT_FALSE(sample.regions.rows_built()) << "sample " << sample.id;
    EXPECT_EQ(sample.regions.storage_id(), in->regions.storage_id());
  }
}

// The engine's MAP output is column-primary (its ref sample's columns plus
// one column per aggregate); a fused metadata-only SELECT tail leaves it
// so. The reference MAP builds rows, so only the engine is checked.
TEST(FusedSelectTest, MetadataOnlyTailKeepsMapOutputColumnar) {
  for (auto backend : {BackendKind::kPipelined, BackendKind::kMaterialized}) {
    for (size_t threads : {1, 4}) {
      SCOPED_TRACE(std::string(BackendKindName(backend)) + " x" +
                   std::to_string(threads));
      auto exec = FusionEquivalenceTest::MakeExecutor(
          FusionCase{FusionCase::kParallel, backend, threads});
      QueryRunner runner = FusionEquivalenceTest::MakeRunner(exec.get());
      auto out =
          runner.Run("PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
                     "R = MAP(n AS COUNT) PROMS ENCODE;\n"
                     "S = SELECT(karyotype == 'cancer') R;\n"
                     "MATERIALIZE S;\n");
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(runner.last_stats().fusion.chains_fused, 1u);
      const Dataset& annotations = *runner.FindDataset("ANNOTATIONS");
      const Dataset& s = out.value().at("S");
      ASSERT_GT(s.num_samples(), 0u);
      for (const auto& sample : s.samples()) {
        EXPECT_FALSE(sample.regions.rows_built()) << "sample " << sample.id;
        const gdm::RegionStore* base = sample.regions.base();
        ASSERT_NE(base, nullptr);
        bool shares_ref = false;
        for (const auto& ref : annotations.samples()) {
          shares_ref |= base->storage_id() == ref.regions.storage_id();
        }
        EXPECT_TRUE(shares_ref) << "sample " << sample.id;
      }
    }
  }
}

// ------------------------------------------------ allocation accounting ---

TEST(FusionStatsTest, FusionEliminatesIntermediateDatasets) {
  auto run = [](bool fusion) {
    QueryRunner runner = FusionEquivalenceTest::MakeRunner(nullptr);
    runner.set_fusion(fusion);
    auto r = runner
                 .Run(
                     "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
                     "R = MAP(n AS COUNT) PROMS ENCODE;\n"
                     "E = SELECT(region: n >= 2) R;\n"
                     "MATERIALIZE E;\n")
                 .ValueOrDie();
    (void)r;
    return runner.last_stats();
  };
  core::RunStats fused = run(true);
  core::RunStats plain = run(false);
  // Unfused: PROMS and R are materialized only to feed the next operator.
  // Fused: the MAP+SELECT chain materializes once, leaving only PROMS.
  EXPECT_EQ(plain.intermediate_datasets, 2u);
  EXPECT_EQ(fused.intermediate_datasets, 1u);
  EXPECT_EQ(fused.fusion.chains_fused, 1u);
  EXPECT_EQ(fused.fusion.stages_fused, 1u);
}

TEST(FusionStatsTest, ThreeStageChainCountsOnce) {
  QueryRunner runner = FusionEquivalenceTest::MakeRunner(nullptr);
  auto r = runner
               .Run(
                   "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
                   "R = MAP(n AS COUNT) PROMS ENCODE;\n"
                   "E = SELECT(region: n >= 1) R;\n"
                   "P = PROJECT(n) E;\n"
                   "MATERIALIZE P;\n")
               .ValueOrDie();
  (void)r;
  EXPECT_EQ(runner.last_stats().fusion.chains_fused, 1u);
  EXPECT_EQ(runner.last_stats().fusion.stages_fused, 2u);
  EXPECT_EQ(runner.last_stats().intermediate_datasets, 1u);
}

}  // namespace
}  // namespace gdms::engine
