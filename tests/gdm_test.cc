#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>

#include "gdm/dataset.h"
#include "gdm/metadata.h"
#include "gdm/region.h"
#include "gdm/schema.h"
#include "gdm/value.h"

namespace gdms::gdm {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), AttrType::kNull);
  EXPECT_EQ(v.ToString(), ".");
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_TRUE(Value(int64_t{5}).is_int());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(true).is_bool());
}

TEST(ValueTest, NumericConversion) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).ToNumeric().ValueOrDie(), 3.0);
  EXPECT_DOUBLE_EQ(Value(2.5).ToNumeric().ValueOrDie(), 2.5);
  EXPECT_DOUBLE_EQ(Value(true).ToNumeric().ValueOrDie(), 1.0);
  EXPECT_FALSE(Value("x").ToNumeric().ok());
  EXPECT_FALSE(Value().ToNumeric().ok());
}

TEST(ValueTest, ParseRoundTrip) {
  EXPECT_EQ(Value::Parse("42", AttrType::kInt).ValueOrDie().AsInt(), 42);
  EXPECT_DOUBLE_EQ(
      Value::Parse("0.25", AttrType::kDouble).ValueOrDie().AsDouble(), 0.25);
  EXPECT_EQ(Value::Parse("hi", AttrType::kString).ValueOrDie().AsString(),
            "hi");
  EXPECT_TRUE(Value::Parse("true", AttrType::kBool).ValueOrDie().AsBool());
  EXPECT_TRUE(Value::Parse(".", AttrType::kInt).ValueOrDie().is_null());
  EXPECT_FALSE(Value::Parse("zz", AttrType::kInt).ok());
}

TEST(ValueTest, CompareCrossNumeric) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
}

TEST(ValueTest, NullsSortFirstAndEqual) {
  EXPECT_EQ(Value().Compare(Value()), 0);
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_GT(Value("a").Compare(Value()), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
}

TEST(AttrTypeTest, ParseNames) {
  EXPECT_EQ(ParseAttrType("INT").ValueOrDie(), AttrType::kInt);
  EXPECT_EQ(ParseAttrType("double").ValueOrDie(), AttrType::kDouble);
  EXPECT_EQ(ParseAttrType("String").ValueOrDie(), AttrType::kString);
  EXPECT_EQ(ParseAttrType("BOOLEAN").ValueOrDie(), AttrType::kBool);
  EXPECT_FALSE(ParseAttrType("blob").ok());
}

TEST(SchemaTest, FixedAttributesAreFive) {
  EXPECT_EQ(RegionSchema::FixedAttributeNames().size(), 5u);
}

TEST(SchemaTest, AddAndLookup) {
  RegionSchema s;
  ASSERT_TRUE(s.AddAttr("p_value", AttrType::kDouble).ok());
  EXPECT_TRUE(s.Contains("p_value"));
  EXPECT_EQ(*s.IndexOf("p_value"), 0u);
  EXPECT_FALSE(s.IndexOf("other").has_value());
  EXPECT_FALSE(s.AddAttr("p_value", AttrType::kInt).ok());  // duplicate
  EXPECT_FALSE(s.AddAttr("chr", AttrType::kString).ok());   // reserved
}

TEST(SchemaTest, MergeSharesSameTypedAttrs) {
  RegionSchema a;
  ASSERT_TRUE(a.AddAttr("score", AttrType::kDouble).ok());
  RegionSchema b;
  ASSERT_TRUE(b.AddAttr("score", AttrType::kDouble).ok());
  ASSERT_TRUE(b.AddAttr("extra", AttrType::kString).ok());
  RegionSchema m = RegionSchema::Merge(a, b);
  EXPECT_EQ(m.size(), 2u);  // score shared, extra appended
  EXPECT_TRUE(m.Contains("extra"));
}

TEST(SchemaTest, MergeRenamesTypeConflicts) {
  RegionSchema a;
  ASSERT_TRUE(a.AddAttr("score", AttrType::kDouble).ok());
  RegionSchema b;
  ASSERT_TRUE(b.AddAttr("score", AttrType::kString).ok());
  RegionSchema m = RegionSchema::Merge(a, b);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.Contains("right_score"));
}

TEST(SchemaTest, ConcatAlwaysAppends) {
  RegionSchema a;
  ASSERT_TRUE(a.AddAttr("x", AttrType::kDouble).ok());
  RegionSchema b;
  ASSERT_TRUE(b.AddAttr("x", AttrType::kDouble).ok());
  RegionSchema c = RegionSchema::Concat(a, b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(c.Contains("right_x"));
}

TEST(RegionTest, ChromInterning) {
  int32_t a = InternChrom("chrTestA");
  int32_t b = InternChrom("chrTestB");
  EXPECT_NE(a, b);
  EXPECT_EQ(InternChrom("chrTestA"), a);
  EXPECT_EQ(ChromName(a), "chrTestA");
}

TEST(RegionTest, OverlapHalfOpen) {
  int32_t c = InternChrom("chr1");
  GenomicRegion a(c, 100, 200);
  GenomicRegion b(c, 200, 300);
  EXPECT_FALSE(a.Overlaps(b));  // touching, half-open
  GenomicRegion d(c, 199, 300);
  EXPECT_TRUE(a.Overlaps(d));
  GenomicRegion e(InternChrom("chr2"), 100, 200);
  EXPECT_FALSE(a.Overlaps(e));
}

TEST(RegionTest, GenometricDistance) {
  int32_t c = InternChrom("chr1");
  GenomicRegion a(c, 100, 200);
  EXPECT_EQ(a.DistanceTo(GenomicRegion(c, 300, 400)), 100);
  EXPECT_EQ(a.DistanceTo(GenomicRegion(c, 200, 400)), 0);   // adjacent
  EXPECT_EQ(a.DistanceTo(GenomicRegion(c, 150, 400)), -50); // overlap
  EXPECT_EQ(a.DistanceTo(GenomicRegion(c, 0, 40)), 60);
  GenomicRegion other(InternChrom("chr2"), 100, 200);
  EXPECT_EQ(a.DistanceTo(other), INT64_MAX);
  // Symmetry.
  GenomicRegion b(c, 300, 400);
  EXPECT_EQ(a.DistanceTo(b), b.DistanceTo(a));
}

TEST(RegionTest, SortAndSortedCheck) {
  int32_t c1 = InternChrom("chr1");
  int32_t c2 = InternChrom("chr2");
  std::vector<GenomicRegion> rs = {
      {c2, 10, 20}, {c1, 50, 60}, {c1, 5, 100}, {c1, 5, 20}};
  EXPECT_FALSE(RegionsSorted(rs));
  SortRegions(&rs);
  EXPECT_TRUE(RegionsSorted(rs));
  EXPECT_EQ(rs[0].left, 5);
  EXPECT_EQ(rs[0].right, 20);  // shorter first on ties
}

TEST(RegionTest, StrandChars) {
  EXPECT_EQ(StrandChar(Strand::kPlus), '+');
  EXPECT_EQ(StrandFromChar('-'), Strand::kMinus);
  EXPECT_EQ(StrandFromChar('?'), Strand::kNone);
}

TEST(GenomeAssemblyTest, HumanLikeShape) {
  GenomeAssembly g = GenomeAssembly::HumanLike(22, 240000000);
  EXPECT_EQ(g.num_chromosomes(), 22u);
  EXPECT_GT(g.chrom_length(0), g.chrom_length(21));
  EXPECT_GT(g.TotalLength(), 0);
  EXPECT_EQ(g.LengthOf(g.chrom_id(3)), g.chrom_length(3));
  EXPECT_EQ(g.LengthOf(-999), 0);
}

TEST(MetadataTest, AddLookupMultivalue) {
  Metadata m;
  m.Add("antibody", "CTCF");
  m.Add("antibody", "POLR2A");
  m.Add("antibody", "CTCF");  // duplicate ignored
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.Has("antibody"));
  EXPECT_TRUE(m.HasPair("antibody", "CTCF"));
  EXPECT_FALSE(m.HasPair("antibody", "EP300"));
  auto vals = m.ValuesOf("antibody");
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], "CTCF");
}

TEST(MetadataTest, UnionMergesSorted) {
  Metadata a;
  a.Add("cell", "K562");
  Metadata b;
  b.Add("cell", "K562");
  b.Add("sex", "female");
  Metadata u = Metadata::Union(a, b);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_TRUE(u.HasPair("sex", "female"));
}

TEST(MetadataTest, PrefixAndRemove) {
  Metadata m;
  m.Add("cell", "K562");
  Metadata p = m.WithPrefix("left.");
  EXPECT_TRUE(p.HasPair("left.cell", "K562"));
  m.Add("cell", "HeLa");
  m.RemoveAttr("cell");
  EXPECT_FALSE(m.Has("cell"));
}

TEST(MetadataTest, AttributeNamesDistinct) {
  Metadata m;
  m.Add("a", "1");
  m.Add("a", "2");
  m.Add("b", "3");
  auto names = m.AttributeNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
}

Dataset Fig2Dataset() {
  // The PEAKS dataset of Figure 2: two samples, P_VALUE variable attribute.
  RegionSchema schema;
  EXPECT_TRUE(schema.AddAttr("p_value", AttrType::kDouble).ok());
  Dataset ds("PEAKS", schema);
  int32_t c1 = InternChrom("chr1");
  int32_t c2 = InternChrom("chr2");
  Sample s1(1);
  s1.metadata.Add("antibody_target", "CTCF");
  s1.metadata.Add("karyotype", "cancer");
  s1.regions = {{c1, 100, 300, Strand::kPlus, {Value(1e-5)}},
                {c1, 500, 800, Strand::kMinus, {Value(2e-4)}},
                {c2, 100, 250, Strand::kPlus, {Value(3e-6)}}};
  Sample s2(2);
  s2.metadata.Add("sex", "female");
  s2.regions = {{c1, 150, 350, Strand::kNone, {Value(5e-3)}},
                {c2, 300, 500, Strand::kNone, {Value(1e-2)}}};
  s1.SortNow();
  s2.SortNow();
  ds.AddSample(std::move(s1));
  ds.AddSample(std::move(s2));
  return ds;
}

TEST(DatasetTest, Fig2Validates) {
  Dataset ds = Fig2Dataset();
  EXPECT_TRUE(ds.Validate().ok());
  EXPECT_EQ(ds.num_samples(), 2u);
  EXPECT_EQ(ds.TotalRegions(), 5u);
  EXPECT_EQ(ds.TotalMetadata(), 3u);
  EXPECT_NE(ds.FindSample(1), nullptr);
  EXPECT_EQ(ds.FindSample(99), nullptr);
}

TEST(DatasetTest, ValidateRejectsDuplicateIds) {
  Dataset ds = Fig2Dataset();
  ds.mutable_sample(1)->id = 1;
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsArityMismatch) {
  Dataset ds = Fig2Dataset();
  ds.mutable_sample(0)->regions[0].values.clear();
  auto st = ds.Validate();
  EXPECT_EQ(st.code(), StatusCode::kSchemaMismatch);
}

TEST(DatasetTest, ValidateRejectsTypeMismatch) {
  Dataset ds = Fig2Dataset();
  ds.mutable_sample(0)->regions[0].values[0] = Value("oops");
  auto st = ds.Validate();
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST(DatasetTest, ValidateAcceptsNulls) {
  Dataset ds = Fig2Dataset();
  ds.mutable_sample(0)->regions[0].values[0] = Value::Null();
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsInvertedCoords) {
  Dataset ds = Fig2Dataset();
  ds.mutable_sample(0)->regions[0].left = 1000;
  ds.mutable_sample(0)->regions[0].right = 10;
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, EstimateBytesPositive) {
  Dataset ds = Fig2Dataset();
  EXPECT_GT(ds.EstimateBytes(), 100u);
}

TEST(DatasetTest, DescribeMentionsSchemaAndMeta) {
  Dataset ds = Fig2Dataset();
  std::string d = ds.Describe();
  EXPECT_NE(d.find("p_value:DOUBLE"), std::string::npos);
  EXPECT_NE(d.find("karyotype"), std::string::npos);
}

// The columns' chunk directory is a sample's per-chromosome index: the
// engine's partitioners read chromosome ranges from it.
TEST(ChunkDirectoryTest, SlicesAndMaxLen) {
  // Raw chromosome ids, so the absent chromosome's insertion point does not
  // depend on the order names were interned in.
  constexpr int32_t kChr1 = 1, kChr2 = 2, kChr3 = 3, kChr4 = 4;
  std::vector<GenomicRegion> rs;
  rs.emplace_back(kChr1, 100, 200);
  rs.emplace_back(kChr1, 150, 1150);
  rs.emplace_back(kChr1, 300, 320);
  rs.emplace_back(kChr3, 5, 10);
  SortRegions(&rs);
  RegionColumns cols = RegionColumns::Build(rs, RegionSchema());
  ASSERT_EQ(cols.chunks().size(), 2u);
  const ColumnChunk* c1 = cols.FindChunk(kChr1);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->begin, 0u);
  EXPECT_EQ(c1->end, 3u);
  EXPECT_EQ(c1->max_len, 1000);
  EXPECT_EQ(cols.FindChunk(kChr2), nullptr);
  EXPECT_EQ(cols.FindChunk(kChr4), nullptr);
  ASSERT_NE(cols.FindChunk(kChr3), nullptr);
  EXPECT_EQ(cols.FindChunk(kChr3)->begin, 3u);
  EXPECT_EQ(cols.FindChunk(kChr3)->max_len, 5);
}

TEST(ChunkDirectoryTest, SampleCachesAndReuses) {
  Sample s(1);
  s.regions.emplace_back(InternChrom("chr1"), 10, 20);
  s.regions.emplace_back(InternChrom("chr2"), 5, 105);
  RegionSchema schema;
  const RegionColumns& cols = s.columns(schema);
  EXPECT_EQ(cols.FindChunk(InternChrom("chr2"))->max_len, 100);
  // Unchanged storage: same cached object.
  EXPECT_EQ(&s.columns(schema), &cols);
}

TEST(ChunkDirectoryTest, InvalidatesAfterRegionMutation) {
  Sample s(1);
  RegionSchema schema;
  for (int i = 0; i < 8; ++i) {
    s.regions.emplace_back(InternChrom("chr1"), i * 100, i * 100 + 10);
  }
  EXPECT_EQ(s.columns(schema).FindChunk(InternChrom("chr1"))->max_len, 10);
  // Size change (append) is detected automatically.
  s.regions.emplace_back(InternChrom("chr2"), 0, 500);
  EXPECT_EQ(s.columns(schema).FindChunk(InternChrom("chr2"))->max_len, 500);
  // In-place coordinate mutation goes through a non-const accessor, which
  // drops the columns too.
  s.regions[0].right = s.regions[0].left + 9000;
  s.SortNow();
  EXPECT_EQ(s.columns(schema).FindChunk(InternChrom("chr1"))->max_len, 9000);
  s.regions[1].right = s.regions[1].left + 20000;
  EXPECT_EQ(s.columns(schema).FindChunk(InternChrom("chr1"))->max_len, 20000);
}

TEST(RegionStoreTest, CopiesShareUntilWritten) {
  RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("x", AttrType::kInt).ok());
  Sample a(1);
  a.regions.emplace_back(InternChrom("chr1"), 10, 20, Strand::kNone,
                         std::vector<Value>{Value(int64_t{1})});
  a.regions.emplace_back(InternChrom("chr2"), 5, 105, Strand::kNone,
                         std::vector<Value>{Value(int64_t{2})});
  const RegionColumns& built = a.columns(schema);

  // A copy shares the rows and the layouts already built.
  Sample b = a;
  EXPECT_EQ(b.regions.storage_id(), a.regions.storage_id());
  EXPECT_EQ(&b.columns(schema), &built);
  EXPECT_EQ(&std::as_const(b).regions[0], &std::as_const(a).regions[0]);

  // Writing through one copy detaches it; the other keeps rows and columns.
  b.regions[0].values[0] = Value(int64_t{7});
  EXPECT_NE(b.regions.storage_id(), a.regions.storage_id());
  EXPECT_EQ(std::as_const(a).regions[0].values[0], Value(int64_t{1}));
  EXPECT_EQ(std::as_const(b).regions[0].values[0], Value(int64_t{7}));
  EXPECT_EQ(&a.columns(schema), &built);
  EXPECT_EQ(a.columns(schema).attr(0).ints()[0], 1);
  EXPECT_EQ(b.columns(schema).attr(0).ints()[0], 7);

  // A selection that keeps every row shares; one that drops a row copies.
  RegionStore all = a.regions.Filtered({1, 1});
  EXPECT_EQ(all.storage_id(), a.regions.storage_id());
  RegionStore one = a.regions.Filtered({0, 1});
  EXPECT_NE(one.storage_id(), a.regions.storage_id());
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].chrom, InternChrom("chr2"));
}

TEST(RegionStoreTest, MutatingUnsharedStoreDropsDerivedFacts) {
  RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("x", AttrType::kInt).ok());
  Sample s(1);
  s.regions.emplace_back(InternChrom("chr1"), 10, 20, Strand::kNone,
                         std::vector<Value>{Value(int64_t{1})});
  EXPECT_EQ(s.columns(schema).FindChunk(InternChrom("chr1"))->max_len, 10);
  EXPECT_EQ(s.columns(schema).attr(0).ints()[0], 1);
  uint64_t bytes = s.regions.RowBytes();
  const void* id = s.regions.storage_id();

  // Sole holder: the rows are written in place, the derived facts dropped.
  auto& rows = s.regions.mutable_rows();
  EXPECT_EQ(s.regions.storage_id(), id);
  EXPECT_EQ(s.ColumnarCacheBytes(), 0u);
  rows[0].right = 510;
  rows[0].values[0] = Value(int64_t{9});
  rows.emplace_back(InternChrom("chr1"), 600, 700, Strand::kNone,
                    std::vector<Value>{Value(int64_t{3})});
  EXPECT_EQ(s.columns(schema).FindChunk(InternChrom("chr1"))->max_len, 500);
  EXPECT_EQ(s.columns(schema).attr(0).ints()[0], 9);
  EXPECT_GT(s.regions.RowBytes(), bytes);
}

TEST(RegionStoreTest, EmptyStoreColumnsFollowTheSchema) {
  RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("x", AttrType::kInt).ok());
  ASSERT_TRUE(schema.AddAttr("name", AttrType::kString).ok());
  Sample s;
  const RegionColumns& cols = s.columns(schema);
  EXPECT_EQ(cols.size(), 0u);
  ASSERT_EQ(cols.num_attrs(), schema.size());
  EXPECT_EQ(cols.attr(0).type(), AttrType::kInt);
  EXPECT_EQ(cols.attr(1).type(), AttrType::kString);
  EXPECT_EQ(s.columns(RegionSchema()).num_attrs(), 0u);
  EXPECT_EQ(s.ColumnarCacheBytes(), 0u);
}

TEST(RegionStoreTest, DatasetCountsSharedColumnsOnce) {
  RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("x", AttrType::kInt).ok());
  Sample a(1);
  a.regions.emplace_back(InternChrom("chr1"), 10, 20, Strand::kNone,
                         std::vector<Value>{Value(int64_t{1})});
  uint64_t one = a.columns(schema).MemoryBytes();
  ASSERT_GT(one, 0u);
  Sample b = a;
  b.id = 2;
  Dataset ds("D", schema);
  ds.AddSample(std::move(a));
  ds.AddSample(std::move(b));
  EXPECT_EQ(ds.ColumnarCacheBytes(), one);
  uint64_t evicted = 0;
  EXPECT_EQ(ds.EvictColumnarCaches(&evicted), one);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(ds.ColumnarCacheBytes(), 0u);
}

// Readers build and read columns on copies of one store while a writer
// detaches and rewrites its own copy; readers drop their copies as they
// finish, so the writer may also find itself the sole holder and write in
// place. Run under `ctest -L tsan` to verify with ThreadSanitizer.
TEST(RegionStoreTest, ConcurrentReadersAndDetachingWriter) {
  RegionSchema schema;
  ASSERT_TRUE(schema.AddAttr("x", AttrType::kInt).ok());
  constexpr int kRegions = 2000;
  constexpr int kReaders = 4;
  for (int round = 0; round < 5; ++round) {
    Sample base(1);
    auto& rows = base.regions.mutable_rows();
    for (int i = 0; i < kRegions; ++i) {
      rows.emplace_back(InternChrom(i % 2 ? "chr1" : "chr2"), i * 10,
                        i * 10 + 5, Strand::kNone,
                        std::vector<Value>{Value(int64_t{i})});
    }
    base.SortNow();
    std::vector<Sample> reader_copies(kReaders, base);
    Sample writer_copy = base;
    base = Sample();  // the readers and the writer are the only holders

    std::atomic<bool> go{false};
    std::vector<int64_t> sums(kReaders, 0);
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        Sample mine = std::move(reader_copies[r]);
        while (!go.load(std::memory_order_acquire)) {
        }
        const auto& ints = mine.columns(schema).attr(0).ints();
        int64_t sum = 0;
        for (size_t i = 0; i < mine.regions.size(); ++i) {
          sum += ints[i] + mine.regions.rows()[i].values[0].AsInt();
        }
        sums[r] = sum;
      });
    }
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (auto& reg : writer_copy.regions.mutable_rows()) {
        reg.values[0] = Value(int64_t{-1});
      }
    });
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();

    const int64_t expected = int64_t{kRegions} * (kRegions - 1);
    for (int r = 0; r < kReaders; ++r) EXPECT_EQ(sums[r], expected);
    for (int64_t v : writer_copy.columns(schema).attr(0).ints()) {
      EXPECT_EQ(v, -1);
    }
  }
}

TEST(DeriveSampleIdTest, DeterministicAndTagged) {
  SampleId a = DeriveSampleId("MAP", {1, 2});
  EXPECT_EQ(a, DeriveSampleId("MAP", {1, 2}));
  EXPECT_NE(a, DeriveSampleId("MAP", {2, 1}));
  EXPECT_NE(a, DeriveSampleId("JOIN", {1, 2}));
  EXPECT_NE(a & (1ULL << 63), 0u);  // derived-id bit set
}

}  // namespace
}  // namespace gdms::gdm
