// .gdmz binary format tests: round-trip fidelity against the text format,
// rejection of truncated and corrupted documents (exercised under
// ASan/UBSan in CI), framing of concatenated documents, and the file
// reader. The fidelity contract is "text-equivalent": a dataset that has
// been through one text round-trip (the decimal-6 double grid) must survive
// a .gdmz round-trip byte-exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "gdm/region_columns.h"
#include "io/gdm_format.h"
#include "io/gdmz.h"
#include "repo/federation.h"
#include "sim/generators.h"

namespace gdms::io {
namespace {

/// A mixed-type dataset snapped to the text format's value grid, so both
/// serializations are exact round-trips of it.
gdm::Dataset TextStableDataset() {
  auto genome = gdm::GenomeAssembly::HumanLike(4, 20000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 4;
  popt.peaks_per_sample = 600;
  gdm::Dataset raw = sim::GeneratePeakDataset(genome, popt, 11);
  auto round = ReadGdmString(WriteGdmString(raw));
  EXPECT_TRUE(round.ok()) << round.status().ToString();
  return round.value();
}

TEST(GdmzTest, RoundTripMatchesTextFormat) {
  gdm::Dataset base = TextStableDataset();
  std::string text = WriteGdmString(base);
  std::string blob = WriteGdmzString(base);
  ASSERT_TRUE(LooksLikeGdmz(blob));
  auto framed = GdmzFramedSize(blob);
  ASSERT_TRUE(framed.ok());
  EXPECT_EQ(framed.value(), blob.size());

  auto back = ReadGdmzString(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(WriteGdmString(back.value()), text);
  EXPECT_EQ(back.value().name(), base.name());
}

TEST(GdmzTest, CompressesVersusText) {
  gdm::Dataset base = TextStableDataset();
  std::string text = WriteGdmString(base);
  std::string blob = WriteGdmzString(base);
  // The headline claim is measured on the E7 corpus in EXPERIMENTS.md; this
  // guards against encoding regressions on worst-case random-double data.
  EXPECT_LT(blob.size() * 2, text.size());
}

TEST(GdmzTest, EmptyAndEdgeDatasets) {
  // Empty dataset.
  gdm::RegionSchema schema;
  gdm::Dataset empty("EMPTY", schema);
  auto back = ReadGdmzString(WriteGdmzString(empty));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().num_samples(), 0u);

  // Sample with no regions, metadata only; plus wide coordinates and nulls.
  ASSERT_TRUE(schema.AddAttr("v", gdm::AttrType::kDouble).ok());
  ASSERT_TRUE(schema.AddAttr("t", gdm::AttrType::kString).ok());
  gdm::Dataset edge("EDGE", schema);
  gdm::Sample meta_only(1);
  meta_only.metadata.Add("k", "v with spaces");
  edge.AddSample(std::move(meta_only));
  gdm::Sample wide(2);
  wide.metadata.Add("k", "v2");
  gdm::GenomicRegion r(gdm::InternChrom("chr1"), 100, int64_t{1} << 34,
                       gdm::Strand::kMinus);
  r.values = {gdm::Value::Null(), gdm::Value("tag")};
  wide.regions.push_back(r);
  wide.SortNow();
  edge.AddSample(std::move(wide));
  ASSERT_TRUE(edge.Validate().ok());

  auto back2 = ReadGdmzString(WriteGdmzString(edge));
  ASSERT_TRUE(back2.ok()) << back2.status().ToString();
  EXPECT_EQ(WriteGdmString(back2.value()), WriteGdmString(edge));
  EXPECT_EQ(back2.value().samples()[1].regions[0].right, int64_t{1} << 34);
}

TEST(GdmzTest, TruncationIsRejectedEverywhere) {
  gdm::Dataset base = TextStableDataset();
  std::string blob = WriteGdmzString(base);
  // Every prefix must fail cleanly: exhaustive near the header, sampled
  // beyond it.
  for (size_t cut = 0; cut < blob.size(); cut = cut < 64 ? cut + 1 : cut + 97) {
    auto r = ReadGdmzBytes(std::string_view(blob.data(), cut));
    EXPECT_FALSE(r.ok()) << "truncation to " << cut << " bytes accepted";
  }
}

TEST(GdmzTest, HeaderCorruptionIsRejectedOrSafe) {
  gdm::Dataset base = TextStableDataset();
  std::string blob = WriteGdmzString(base);
  std::string text = WriteGdmString(base);
  // Flip each header byte: the reader must either reject the document or
  // (for don't-care bits) still decode the original — never crash or read
  // out of bounds.
  for (size_t i = 0; i < kGdmzHeaderSize; ++i) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string bad = blob;
      bad[i] = static_cast<char>(static_cast<uint8_t>(bad[i]) ^ bit);
      auto r = ReadGdmzBytes(bad);
      if (r.ok()) {
        EXPECT_EQ(WriteGdmString(r.value()), text)
            << "header byte " << i << " flip decoded to different data";
      }
    }
  }
}

TEST(GdmzTest, BodyCorruptionNeverCrashes) {
  gdm::Dataset base = TextStableDataset();
  std::string blob = WriteGdmzString(base);
  std::mt19937 rng(5);
  std::uniform_int_distribution<size_t> pos(kGdmzHeaderSize, blob.size() - 1);
  for (int round = 0; round < 200; ++round) {
    std::string bad = blob;
    bad[pos(rng)] ^= 0x5a;
    auto r = ReadGdmzBytes(bad);  // any Status is fine; no crash, no UB
    if (r.ok()) {
      r.value().Validate().ok();  // decoded data must at least be walkable
      // Attributes decode on first use: force every one, so a payload the
      // open did not read is exercised too.
      for (const auto& s : r.value().samples()) (void)s.regions.rows();
      (void)WriteGdmString(r.value());
    }
  }
}

TEST(GdmzTest, ConcatenatedDocumentsFrameCleanly) {
  gdm::Dataset a = TextStableDataset();
  gdm::RegionSchema schema;
  gdm::Dataset b("SECOND", schema);
  gdm::Sample s(1);
  s.metadata.Add("x", "y");
  b.AddSample(std::move(s));

  std::string payload = WriteGdmzString(a) + WriteGdmzString(b);
  std::string_view rest = payload;
  auto framed = GdmzFramedSize(rest);
  ASSERT_TRUE(framed.ok());
  size_t first = static_cast<size_t>(framed.value());
  ASSERT_GT(first, size_t{0});
  ASSERT_LT(first, payload.size());
  auto da = ReadGdmzBytes(rest.substr(0, first));
  ASSERT_TRUE(da.ok());
  EXPECT_EQ(WriteGdmString(da.value()), WriteGdmString(a));
  auto db = ReadGdmzBytes(rest.substr(first));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().name(), "SECOND");
}

TEST(GdmzTest, FileRoundTripViaOpenGdmz) {
  gdm::Dataset base = TextStableDataset();
  std::string blob = WriteGdmzString(base);
  std::string path = ::testing::TempDir() + "gdmz_test_file.gdmz";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  auto ds = OpenGdmz(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(WriteGdmString(ds.value()), WriteGdmString(base));
  std::remove(path.c_str());

  EXPECT_FALSE(OpenGdmz(::testing::TempDir() + "no_such_file.gdmz").ok());
}

TEST(GdmzTest, RewriteLeavesOldMappingIntact) {
  gdm::Dataset v1 = TextStableDataset();
  gdm::Dataset v2("V2", v1.schema());
  v2.AddSample(v1.sample(0));
  std::string path = ::testing::TempDir() + "gdmz_test_rewrite.gdmz";
  ASSERT_TRUE(WriteGdmz(v1, path).ok());
  auto mapped = MappedGdmz::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // A smaller v2 replaces the file: written in place, it would cut the
  // mapping short and the parse below would fault past the new end.
  ASSERT_TRUE(WriteGdmz(v2, path).ok());
  auto old = mapped.value().Parse();
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ(WriteGdmString(old.value()), WriteGdmString(v1));
  auto fresh = OpenGdmz(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(WriteGdmString(fresh.value()), WriteGdmString(v2));
  std::remove(path.c_str());
}

// ------------------------------------------------ deferred payload errors ---

/// The text of output `R` of `gmql` over `sources`, run on `exec` (the
/// ReferenceExecutor when null).
Result<std::string> RunR(const std::string& gmql,
                         const std::vector<gdm::Dataset>& sources,
                         core::Executor* exec) {
  core::QueryRunner runner =
      exec != nullptr ? core::QueryRunner(exec) : core::QueryRunner();
  for (const auto& ds : sources) runner.RegisterDataset(ds);
  GDMS_ASSIGN_OR_RETURN(auto outputs, runner.Run(gmql));
  return WriteGdmString(outputs.at("R"));
}

/// Where sample `si`'s stored span of attribute `attr` starts in `blob` (a
/// .gdmz of peaks), found through the framing the open recorded; npos when
/// it is not found. A span is the attribute's type byte, its validity byte
/// (0 when all valid), then the type's payload.
size_t AttrSpan(const std::string& blob, size_t si, const std::string& attr) {
  auto clean = ReadGdmzString(blob);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  if (!clean.ok()) return std::string::npos;
  const size_t a = clean.value().schema().IndexOf(attr).value();
  const gdm::RegionColumns& cols =
      *clean.value().sample(si).regions.stored_columns();
  const size_t section = blob.find(*cols.encoded_attrs());
  EXPECT_NE(section, std::string::npos);
  if (section == std::string::npos) return section;
  EXPECT_EQ(blob[section + cols.encoded_attr_offset(a) + 1], 0)
      << "expected an all-valid " << attr << " column";
  return section + cols.encoded_attr_offset(a);
}

/// `blob` with sample `si`'s p_value payload broken: the mode byte of its
/// exponent stream is flipped to an unknown mode. A DOUBLE payload is its
/// encoding byte, then the stream's length varint and mode.
std::string BreakPValue(const std::string& blob, size_t si) {
  const size_t span = AttrSpan(blob, si, "p_value");
  if (span == std::string::npos) return blob;
  size_t mode = span + 3;
  while ((static_cast<uint8_t>(blob[mode]) & 0x80) != 0) ++mode;
  std::string bad = blob;
  bad[mode + 1] ^= 0x40;
  return bad;
}

/// `blob` with sample `si`'s name payload broken: the first value of its
/// front-coded stream claims a prefix shared with a previous value, and
/// there is none. A front-coded STRING payload is its encoding byte (1),
/// then the stream's length varint and the stream: per value, the shared
/// prefix length, the suffix length and the suffix.
std::string BreakName(const std::string& blob, size_t si) {
  const size_t span = AttrSpan(blob, si, "name");
  if (span == std::string::npos) return blob;
  EXPECT_EQ(blob[span + 2], 1) << "expected a front-coded name column";
  size_t first = span + 3;
  while ((static_cast<uint8_t>(blob[first]) & 0x80) != 0) ++first;
  std::string bad = blob;
  bad[first + 1] = 0x01;
  return bad;
}

gdm::Dataset ParseOk(const std::string& bytes) {
  auto ds = ReadGdmzString(bytes);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return ds.ok() ? std::move(ds).value() : gdm::Dataset();
}

constexpr char kSumSignal[] =
    "R = MAP(n AS COUNT, s AS SUM(signal)) ANNOTATIONS ENCODE; MATERIALIZE R;";
constexpr char kMaxPValue[] =
    "R = MAP(m AS MAX(p_value)) ANNOTATIONS ENCODE; MATERIALIZE R;";

gdm::Dataset Annotations() {
  auto genome = gdm::GenomeAssembly::HumanLike(4, 20000000);
  return sim::GenerateAnnotations(genome, sim::GenerateGenes(genome, 200, 3),
                                  {}, 3);
}

void ExpectParseError(const Result<std::string>& got) {
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError)
      << got.status().ToString();
}

// One parsed dataset serves every query: the corrupt p_value column fails
// each query that reads it, while a query over intact columns succeeds
// before and after it, and after a row consumer decoded everything.
TEST(GdmzTest, CorruptAttributePayloadFailsOnlyQueriesThatReadIt) {
  gdm::Dataset peaks = TextStableDataset();
  gdm::Dataset ref = Annotations();
  const std::string bad = BreakPValue(WriteGdmzString(peaks), 1);
  auto expected = RunR(kSumSignal, {ref, peaks}, nullptr);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  engine::EngineOptions opt;
  opt.threads = 2;
  engine::ParallelExecutor exec(opt);
  const size_t p_value = peaks.schema().IndexOf("p_value").value();

  gdm::Dataset stored = ParseOk(bad);
  auto sum = RunR(kSumSignal, {ref, stored}, &exec);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum.value(), expected.value());
  ExpectParseError(RunR(kMaxPValue, {ref, stored}, &exec));
  EXPECT_EQ(
      stored.sample(1).regions.stored_columns()->attr_error(p_value).code(),
      StatusCode::kParseError);
  sum = RunR(kSumSignal, {ref, stored}, &exec);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum.value(), expected.value());
  ExpectParseError(RunR(kMaxPValue, {ref, stored}, &exec));

  // A row consumer outside any query decodes every column; queries still
  // fail only on what they read.
  (void)WriteGdmString(stored);
  sum = RunR(kSumSignal, {ref, stored}, &exec);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum.value(), expected.value());
  // The reference executor's MAP reads the stored side's rows, and a row
  // carries every attribute, so it reads the corrupt column too.
  ExpectParseError(RunR(kSumSignal, {ref, stored}, nullptr));

  // The pass-through copy fails in the same places.
  const std::string copy = WriteGdmzString(stored);
  EXPECT_EQ(copy, bad);
  gdm::Dataset copied = ParseOk(copy);
  sum = RunR(kSumSignal, {ref, copied}, &exec);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum.value(), expected.value());
  ExpectParseError(RunR(kMaxPValue, {ref, copied}, &exec));
  ExpectParseError(RunR(kMaxPValue, {ref, ParseOk(copy)}, nullptr));
}

// An output that shares the stored samples — a metadata-only SELECT, or a
// program that materializes the source itself — hands its consumer every
// attribute: the query fails on the corrupt column instead of handing it
// out as NULLs.
TEST(GdmzTest, CorruptColumnFailsMetadataOnlySelect) {
  gdm::Dataset peaks = TextStableDataset();
  const std::string blob = WriteGdmzString(peaks);
  const std::string bad = BreakPValue(blob, 1);
  const char* kSelect =
      "R = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE R;";
  engine::EngineOptions opt;
  opt.threads = 2;
  engine::ParallelExecutor exec(opt);
  for (core::Executor* e : {static_cast<core::Executor*>(nullptr),
                            static_cast<core::Executor*>(&exec)}) {
    ExpectParseError(RunR(kSelect, {ParseOk(bad)}, e));
    auto intact = RunR(kSelect, {ParseOk(blob)}, e);
    ASSERT_TRUE(intact.ok()) << intact.status().ToString();
    gdm::Dataset want = peaks;
    want.set_name("R");
    EXPECT_EQ(intact.value(), WriteGdmString(want));
  }
  core::QueryRunner runner;
  runner.RegisterDataset(ParseOk(bad));
  core::Program bare;
  bare.sinks.push_back(
      core::PlanNode::Materialize(core::PlanNode::Source("ENCODE"), "R"));
  auto got = runner.RunProgram(bare);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError)
      << got.status().ToString();
}

// Queries over one shared dataset run side by side: whichever decodes the
// corrupt column first, only the query that reads it fails.
TEST(GdmzTest, ConcurrentQueriesFailOnlyOnWhatTheyRead) {
  gdm::Dataset peaks = TextStableDataset();
  gdm::Dataset ref = Annotations();
  auto expected = RunR(kSumSignal, {ref, peaks}, nullptr);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::string bad = BreakPValue(WriteGdmzString(peaks), 1);
  // Many rounds: the engine's tasks read on pool threads as well as on the
  // query's own, and each must report what it read.
  for (int round = 0; round < 16; ++round) {
    const gdm::Dataset stored = ParseOk(bad);
    std::vector<Result<std::string>> got(2, Status::Internal("not run"));
    std::vector<std::thread> queries;
    for (int q = 0; q < 2; ++q) {
      queries.emplace_back([&, q] {
        engine::EngineOptions opt;
        opt.threads = 2;
        engine::ParallelExecutor exec(opt);
        got[q] = RunR(q == 0 ? kMaxPValue : kSumSignal, {ref, stored}, &exec);
      });
    }
    for (auto& t : queries) t.join();
    ExpectParseError(got[0]);
    ASSERT_TRUE(got[1].ok()) << got[1].status().ToString();
    EXPECT_EQ(got[1].value(), expected.value());
  }
}

// COVER over stored samples reads their coordinates and the attributes it
// aggregates, nothing else: with a corrupt `name` payload, SUM(signal)
// gives the bits it gives over the intact file and decodes no `name` and
// no member's rows, while BAG(name) fails on the corrupt column.
TEST(GdmzTest, StoredCoverReadsOnlyWhatItAggregates) {
  gdm::Dataset peaks = TextStableDataset();
  const std::string blob = WriteGdmzString(peaks);
  const std::string bad = BreakName(blob, 1);
  const size_t name = peaks.schema().IndexOf("name").value();
  engine::EngineOptions opt;
  opt.threads = 2;
  opt.backend = engine::BackendKind::kPipelined;
  engine::ParallelExecutor exec(opt);
  auto run = [&](const char* gmql,
                 const gdm::Dataset& source) -> Result<std::string> {
    core::QueryRunner runner(&exec);
    runner.RegisterDataset(source);
    GDMS_ASSIGN_OR_RETURN(auto outputs, runner.Run(gmql));
    return WriteGdmzString(outputs.at("R"));
  };
  const char* kSum =
      "R = COVER(1, ANY; s AS SUM(signal)) ENCODE; MATERIALIZE R;";
  auto intact = run(kSum, ParseOk(blob));
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();

  gdm::Dataset stored = ParseOk(bad);
  auto sum = run(kSum, stored);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum.value(), intact.value());
  for (const auto& s : stored.samples()) {
    EXPECT_FALSE(s.regions.rows_built()) << "sample " << s.id;
    EXPECT_FALSE(s.regions.stored_columns()->attr_built(name))
        << "sample " << s.id;
  }

  auto bag = run(
      "R = COVER(1, ANY; s AS SUM(signal), b AS BAG(name)) ENCODE; "
      "MATERIALIZE R;",
      stored);
  ASSERT_FALSE(bag.ok());
  const gdm::RegionColumns* cols = stored.sample(1).regions.stored_columns();
  EXPECT_EQ(bag.status().code(), StatusCode::kParseError);
  EXPECT_EQ(bag.status().message(),
            stored.NameReadFailure({cols, name, cols->attr_error(name)})
                .message());
}

// A MAP output shares its stored ref's attribute slots. A corrupt ref
// attribute fails the queries that hand it out or read it — naming the
// stored ref sample, on every thread count and backend — while a query that
// reads only coordinates and intact columns through the output succeeds.
TEST(GdmzTest, MapOverCorruptStoredRefFailsNamingTheStoredSample) {
  gdm::Dataset peaks = TextStableDataset();
  gdm::Dataset genes = Annotations();
  const std::string blob = WriteGdmzString(peaks);
  const std::string bad = BreakName(blob, 1);
  const size_t name = peaks.schema().IndexOf("name").value();
  const char* kRefMap =
      "R = MAP(n AS COUNT) ENCODE ANNOTATIONS; MATERIALIZE R;";
  const char* kCoverOfMap =
      "M = MAP(n AS COUNT) ENCODE ANNOTATIONS;\n"
      "R = COVER(1, ANY; t AS SUM(n), s AS SUM(signal)) M; MATERIALIZE R;";
  const char* kBagOfExp =
      "R = MAP(b AS BAG(name)) ANNOTATIONS ENCODE; MATERIALIZE R;";
  for (size_t threads : {1, 4}) {
    for (auto backend : {engine::BackendKind::kPipelined,
                         engine::BackendKind::kMaterialized}) {
      engine::EngineOptions opt;
      opt.threads = threads;
      opt.backend = backend;
      engine::ParallelExecutor exec(opt);
      for (const char* gmql : {kRefMap, kBagOfExp}) {
        gdm::Dataset stored = ParseOk(bad);
        auto got = RunR(gmql, {stored, genes}, &exec);
        ASSERT_FALSE(got.ok()) << gmql;
        const gdm::RegionColumns* cols =
            stored.sample(1).regions.stored_columns();
        EXPECT_EQ(got.status().code(), StatusCode::kParseError);
        EXPECT_EQ(got.status().message(),
                  stored.NameReadFailure({cols, name, cols->attr_error(name)})
                      .message())
            << gmql;
      }
      if (backend == engine::BackendKind::kMaterialized) continue;
      // The materialized backend ships rows, which carry every attribute;
      // the pipelined one reads the MAP output's columns.
      auto intact = RunR(kCoverOfMap, {ParseOk(blob), genes}, &exec);
      ASSERT_TRUE(intact.ok()) << intact.status().ToString();
      gdm::Dataset stored = ParseOk(bad);
      auto cover = RunR(kCoverOfMap, {stored, genes}, &exec);
      ASSERT_TRUE(cover.ok()) << cover.status().ToString();
      EXPECT_EQ(cover.value(), intact.value());
      for (const auto& s : stored.samples()) {
        EXPECT_FALSE(s.regions.stored_columns()->attr_built(name));
      }
    }
  }
}

// A site serving a stored dataset whose column is corrupt fails the remote
// query with the ParseError instead of shipping the column as NULLs.
TEST(GdmzTest, CorruptStoredColumnFailsRemoteQuery) {
  gdm::Dataset peaks = TextStableDataset();
  repo::FederatedNode site("site");
  site.catalog()->Put(ParseOk(BreakPValue(WriteGdmzString(peaks), 1)));
  repo::Coordinator coordinator;
  coordinator.AddNode(&site);
  auto got = coordinator.RunRemote(
      "site", "R = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE R;");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError)
      << got.status().ToString();

  repo::FederatedNode intact("intact");
  intact.catalog()->Put(ParseOk(WriteGdmzString(peaks)));
  coordinator.AddNode(&intact);
  auto ok = coordinator.RunRemote(
      "intact", "R = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE R;");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  gdm::Dataset r = ok.value().at("R");
  r.set_name(peaks.name());
  EXPECT_EQ(WriteGdmString(r), WriteGdmString(peaks));
}

// ------------------------------------------------------ byte stability ---

/// A sorted sample whose rows tie on coordinates in runs (same chromosome,
/// left, right and strand) while their values differ, so any re-sort that
/// is not stable would reorder them.
gdm::Dataset TiedDataset() {
  gdm::RegionSchema schema;
  EXPECT_TRUE(schema.AddAttr("k", gdm::AttrType::kInt).ok());
  gdm::Dataset ds("TIES", schema);
  gdm::Sample s(1);
  std::vector<gdm::GenomicRegion>& rows = s.regions.mutable_rows();
  const int32_t chrom = gdm::InternChrom("chrTies");
  for (int64_t k = 0; k < 600; ++k) {
    int64_t left = 1000 * (k % 7);
    rows.emplace_back(chrom, left, left + 50, gdm::Strand::kNone,
                      std::vector<gdm::Value>{gdm::Value(k)});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const gdm::GenomicRegion& a, const gdm::GenomicRegion& b) {
                     return a.CoordLess(b);
                   });
  ds.AddSample(std::move(s));
  return ds;
}

TEST(GdmzTest, RoundTripIsByteStableWithCoordinateTies) {
  std::string first = WriteGdmzString(TiedDataset());
  auto once = ReadGdmzString(first);
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  std::string second = WriteGdmzString(once.value());
  EXPECT_EQ(second, first);
  auto twice = ReadGdmzString(second);
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  EXPECT_EQ(WriteGdmzString(twice.value()), first);
  // Tied rows keep their stored order.
  const auto& rows = once.value().sample(0).regions.rows();
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].left == rows[i - 1].left) {
      EXPECT_LT(rows[i - 1].values[0].AsInt(), rows[i].values[0].AsInt());
    }
  }
}

/// Two fixed datasets that together touch every column encoding: generated
/// peaks (front-coded names, decimal doubles, a uniform strand column) and
/// a hand-seeded sample with INT, BOOL, dictionary STRING and DOUBLE
/// columns, NULLs and a packed strand column. Each sample sits on one
/// chromosome, so the bytes do not depend on the process's chromosome
/// interning order.
std::string GoldenGdmzBytes() {
  auto genome = gdm::GenomeAssembly::HumanLike(1, 8000000);
  sim::PeakDatasetOptions popt;
  popt.num_samples = 2;
  popt.peaks_per_sample = 400;
  gdm::Dataset peaks = sim::GeneratePeakDataset(genome, popt, 20160315);

  gdm::RegionSchema schema;
  EXPECT_TRUE(schema.AddAttr("i", gdm::AttrType::kInt).ok());
  EXPECT_TRUE(schema.AddAttr("b", gdm::AttrType::kBool).ok());
  EXPECT_TRUE(schema.AddAttr("tag", gdm::AttrType::kString).ok());
  EXPECT_TRUE(schema.AddAttr("x", gdm::AttrType::kDouble).ok());
  gdm::Dataset mixed("MIXED", schema);
  static const char* kTags[] = {"a", "bb", "ccc", "dddd"};
  uint64_t x = 42;
  const int32_t chrom = gdm::InternChrom("chrGolden");
  for (gdm::SampleId id = 1; id <= 2; ++id) {
    gdm::Sample s(id);
    s.metadata.Add("k", "v" + std::to_string(id));
    std::vector<gdm::GenomicRegion>& rows = s.regions.mutable_rows();
    for (int k = 0; k < 300; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      int64_t left = static_cast<int64_t>((x >> 33) % 1000000);
      gdm::GenomicRegion r(chrom, left,
                           left + 1 + static_cast<int64_t>((x >> 40) % 5000),
                           static_cast<gdm::Strand>((x >> 20) % 3));
      r.values = {
          k % 7 == 0 ? gdm::Value::Null()
                     : gdm::Value(static_cast<int64_t>((x >> 30) % 2001) - 1000),
          gdm::Value(((x >> 17) & 1) != 0),
          k % 11 == 0 ? gdm::Value::Null() : gdm::Value(kTags[(x >> 50) % 4]),
          gdm::Value(static_cast<double>((x >> 11) % 1000000) / 1000.0)};
      rows.push_back(std::move(r));
    }
    s.SortNow();
    mixed.AddSample(std::move(s));
  }
  return WriteGdmzString(peaks) + WriteGdmzString(mixed);
}

TEST(GdmzTest, WriterBytesMatchRecordedGolden) {
  // Recorded from the bit-at-a-time writer: packing words must not change
  // a single output byte.
  std::string bytes = GoldenGdmzBytes();
  EXPECT_EQ(bytes.size(), 20155u);
  EXPECT_EQ(Fnv1a64(bytes), 0x3f7af74acadb5a09ULL);
}

// ------------------------------------------------ column-primary decode ---

/// Every decoded sample is column-primary, and its columns equal
/// RegionColumns::Build / ValueColumn::Build over its materialized rows.
void ExpectDecodedColumnsMatchRows(const std::string& bytes) {
  auto ds = ReadGdmzString(bytes);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const gdm::RegionSchema& schema = ds.value().schema();
  for (const gdm::Sample& s : ds.value().samples()) {
    EXPECT_FALSE(s.regions.rows_built()) << "sample " << s.id;
    const gdm::RegionColumns& dec = s.columns(schema);
    const std::vector<gdm::GenomicRegion>& rows = s.regions.rows();
    ASSERT_TRUE(s.regions.rows_built());
    ASSERT_TRUE(gdm::RegionsSorted(rows));
    gdm::RegionColumns built = gdm::RegionColumns::Build(rows, schema);
    ASSERT_EQ(dec.size(), built.size());
    EXPECT_EQ(dec.narrow(), built.narrow());
    ASSERT_EQ(dec.chunks().size(), built.chunks().size());
    for (size_t c = 0; c < dec.chunks().size(); ++c) {
      EXPECT_EQ(dec.chunks()[c].chrom, built.chunks()[c].chrom);
      EXPECT_EQ(dec.chunks()[c].begin, built.chunks()[c].begin);
      EXPECT_EQ(dec.chunks()[c].end, built.chunks()[c].end);
      EXPECT_EQ(dec.chunks()[c].max_len, built.chunks()[c].max_len);
    }
    EXPECT_EQ(dec.left32(), built.left32());
    EXPECT_EQ(dec.right32(), built.right32());
    EXPECT_EQ(dec.left64(), built.left64());
    EXPECT_EQ(dec.right64(), built.right64());
    EXPECT_EQ(dec.strands(), built.strands());
    ASSERT_EQ(dec.num_attrs(), schema.size());
    for (size_t a = 0; a < schema.size(); ++a) {
      EXPECT_TRUE(dec.attr(a) ==
                  gdm::ValueColumn::Build(rows, a, schema.attr(a).type))
          << "sample " << s.id << " attribute " << schema.attr(a).name;
    }
  }
}

TEST(GdmzTest, DecodedColumnsEqualColumnsBuiltFromRows) {
  ExpectDecodedColumnsMatchRows(WriteGdmzString(TextStableDataset()));
  ExpectDecodedColumnsMatchRows(GoldenGdmzBytes());
}

TEST(GdmzTest, OutOfOrderChromosomesFallBackToSortedRows) {
  // Two chromosomes whose names are swapped in the file's name table: the
  // reader then sees the second chunk on the smaller chromosome id, so the
  // decoded columns are out of order and the sample falls back to
  // stable-sorted rows.
  const int32_t lo = gdm::InternChrom("chrSwapA");
  const int32_t hi = gdm::InternChrom("chrSwapB");
  ASSERT_LT(lo, hi);
  gdm::RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("k", gdm::AttrType::kInt).ok());
  gdm::Dataset ds("SWAP", schema);
  gdm::Sample s(1);
  for (int64_t k = 0; k < 40; ++k) {
    s.regions.emplace_back(k < 20 ? lo : hi, 100 * (k % 4), 100 * (k % 4) + 10,
                           gdm::Strand::kNone,
                           std::vector<gdm::Value>{gdm::Value(k)});
  }
  std::stable_sort(s.regions.mutable_rows().begin(),
                   s.regions.mutable_rows().end(),
                   [](const gdm::GenomicRegion& a, const gdm::GenomicRegion& b) {
                     return a.CoordLess(b);
                   });
  ds.AddSample(std::move(s));
  std::string bytes = WriteGdmzString(ds);
  size_t a = bytes.rfind("chrSwapA");
  size_t b = bytes.rfind("chrSwapB");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  bytes[a + 7] = 'B';
  bytes[b + 7] = 'A';

  auto back = ReadGdmzString(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const gdm::Sample& got = back.value().sample(0);
  EXPECT_TRUE(got.regions.rows_built());
  const auto& rows = got.regions.rows();
  ASSERT_EQ(rows.size(), 40u);
  ASSERT_TRUE(gdm::RegionsSorted(rows));
  // The rows stored on chrSwapB (k >= 20) now lead, ties in stored order.
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].chrom, i < 20 ? lo : hi);
    EXPECT_EQ(rows[i].values[0].AsInt() >= 20, i < 20);
    if (i > 0 && !rows[i].CoordLess(rows[i - 1]) &&
        !rows[i - 1].CoordLess(rows[i])) {
      EXPECT_LT(rows[i - 1].values[0].AsInt(), rows[i].values[0].AsInt());
    }
  }
  EXPECT_TRUE(back.value().Validate().ok());
}

TEST(GdmzTest, WriterSortsAnUnsortedSampleStably) {
  // Three interleaved runs of 20 rows tied on coordinates, each row with
  // its own value: more than the 16 rows below which an unstable sort
  // happens to keep ties in order. The writer sorts the sample; tied rows
  // must come back in input order.
  gdm::RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("k", gdm::AttrType::kInt).ok());
  gdm::Dataset ds("UNSORTED", schema);
  gdm::Sample s(1);
  const int32_t chrom = gdm::InternChrom("chrUnsorted");
  for (int64_t k = 0; k < 60; ++k) {
    int64_t left = 1000 * (2 - k % 3);
    s.regions.emplace_back(chrom, left, left + 50, gdm::Strand::kNone,
                           std::vector<gdm::Value>{gdm::Value(k)});
  }
  ASSERT_FALSE(s.IsSorted());
  ds.AddSample(std::move(s));

  auto back = ReadGdmzString(WriteGdmzString(ds));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const auto& rows = back.value().sample(0).regions.rows();
  ASSERT_EQ(rows.size(), 60u);
  for (size_t i = 0; i < rows.size(); ++i) {
    // Row i is the (i % 20)-th input row of run i / 20; run r holds the
    // inputs k with k % 3 == 2 - r.
    int64_t run = static_cast<int64_t>(i / 20);
    int64_t want = 3 * static_cast<int64_t>(i % 20) + (2 - run);
    EXPECT_EQ(rows[i].left, 1000 * run) << "row " << i;
    EXPECT_EQ(rows[i].values[0].AsInt(), want) << "row " << i;
  }
}

// ------------------------------------------------ packed integer streams ---

/// Reference bit-at-a-time packer: mode byte, width byte, values LSB-first.
std::string RefPack(const std::vector<uint64_t>& vals, int width) {
  std::string out = {char{2}, static_cast<char>(width)};
  std::vector<uint8_t> bytes((vals.size() * width + 7) / 8, 0);
  size_t bit = 0;
  for (uint64_t v : vals) {
    for (int b = 0; b < width; ++b, ++bit) {
      if ((v >> b) & 1) bytes[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
    }
  }
  out.append(bytes.begin(), bytes.end());
  return out;
}

/// Reference bit-at-a-time unpacker of a RefPack stream (no validation).
std::vector<uint64_t> RefUnpack(const std::string& stream, size_t count) {
  int width = static_cast<uint8_t>(stream[1]);
  std::vector<uint64_t> out;
  size_t bit = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    for (int b = 0; b < width; ++b, ++bit) {
      if ((static_cast<uint8_t>(stream[2 + (bit >> 3)]) >> (bit & 7)) & 1) {
        v |= uint64_t{1} << b;
      }
    }
    out.push_back(v);
  }
  return out;
}

/// `count` values of exactly `width` bits (the first has its top bit set).
std::vector<uint64_t> WidthValues(int width, size_t count, std::mt19937_64* rng) {
  const uint64_t mask = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  std::vector<uint64_t> vals;
  for (size_t i = 0; i < count; ++i) vals.push_back((*rng)() & mask);
  if (!vals.empty()) vals[0] |= uint64_t{1} << (width - 1);
  return vals;
}

std::vector<int> EdgeWidths() {
  std::vector<int> widths = {1, 7, 8, 9};
  for (int w = 57; w <= 64; ++w) widths.push_back(w);
  return widths;
}

TEST(GdmzIntStreamTest, WordUnpackingMatchesBitReference) {
  std::mt19937_64 rng(7);
  for (int width : EdgeWidths()) {
    for (size_t count : {size_t{1}, size_t{3}, size_t{7}, size_t{8},
                         size_t{9}, size_t{13}, size_t{63}, size_t{64},
                         size_t{65}, size_t{301}}) {
      std::vector<uint64_t> vals = WidthValues(width, count, &rng);
      std::string stream = RefPack(vals, width);
      ASSERT_EQ(RefUnpack(stream, count), vals);
      auto got = DecodeIntStream(stream, count);
      ASSERT_TRUE(got.ok()) << "width " << width << " count " << count;
      EXPECT_EQ(got.value(), vals) << "width " << width << " count " << count;
    }
  }
}

TEST(GdmzIntStreamTest, WordPackingMatchesBitReference) {
  std::mt19937_64 rng(11);
  for (int width : EdgeWidths()) {
    size_t packed = 0;
    for (size_t count : {size_t{1}, size_t{5}, size_t{8}, size_t{9},
                         size_t{27}, size_t{64}, size_t{129}}) {
      std::vector<uint64_t> vals = WidthValues(width, count, &rng);
      std::string stream = EncodeIntStream(vals);
      auto back = DecodeIntStream(stream, count);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back.value(), vals);
      if (stream[0] == 2) {  // the writer chose the packed layout
        ++packed;
        EXPECT_EQ(stream, RefPack(vals, width))
            << "width " << width << " count " << count;
      }
    }
    EXPECT_GT(packed, 0u) << "width " << width << " never packed";
  }
}

TEST(GdmzIntStreamTest, CorruptStreamsAreParseErrors) {
  std::mt19937_64 rng(13);
  auto expect_parse_error = [](const std::string& stream, size_t count,
                               const std::string& what) {
    auto got = DecodeIntStream(stream, count);
    ASSERT_FALSE(got.ok()) << what;
    EXPECT_EQ(got.status().code(), StatusCode::kParseError) << what;
  };
  for (int width : EdgeWidths()) {
    for (size_t count : {size_t{1}, size_t{7}, size_t{9}, size_t{65}}) {
      std::string stream = RefPack(WidthValues(width, count, &rng), width);
      std::string what =
          "width " + std::to_string(width) + " count " + std::to_string(count);
      // One payload byte short: the last value's bits are cut.
      expect_parse_error(stream.substr(0, stream.size() - 1), count,
                         what + " short");
      // One byte too many: the stream must be consumed exactly.
      expect_parse_error(stream + '\0', count, what + " long");
      // More values than the payload holds.
      expect_parse_error(stream, count + 8, what + " over-count");
    }
  }
  expect_parse_error(std::string(), 1, "empty");
  expect_parse_error(std::string({char{2}}), 1, "no width");
  expect_parse_error(std::string({char{2}, char{0}, char{0}}), 1, "width 0");
  expect_parse_error(std::string({char{2}, char{65}, char{0}}), 1, "width 65");
  expect_parse_error(std::string({char{3}, char{1}}), 1, "unknown mode");
  expect_parse_error(std::string({char{0}, char{1}}), 2, "varint short");
  expect_parse_error(std::string({char{1}, char{3}, char{5}}), 2,
                     "run longer than count");
  expect_parse_error(std::string({char{1}, char{1}}), 1, "run without value");
}

}  // namespace
}  // namespace gdms::io
