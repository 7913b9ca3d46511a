#ifndef GDMS_GDM_REGION_COLUMNS_H_
#define GDMS_GDM_REGION_COLUMNS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gdm/region.h"
#include "gdm/schema.h"

namespace gdms::gdm {

/// One per-chromosome entry of a sample's chunk directory: the contiguous
/// [begin, end) row range of the chromosome plus its maximum region length —
/// the figures the engine's partitioners need, derived in the single
/// column-building pass. The chunk directory is the only per-sample index.
struct ColumnChunk {
  int32_t chrom = 0;
  size_t begin = 0;
  size_t end = 0;
  int64_t max_len = 0;
};

/// \brief First-appearance numbering of strings: the order of a STRING
/// ValueColumn's dictionary, shared by Build() and the .gdmz decoder so
/// both number a column alike. Open addressing over indices into the
/// caller's string list, sized for `max_distinct` strings so it never fills.
class StringNumbering {
 public:
  explicit StringNumbering(size_t max_distinct);

  /// The number of `s`, appending it to `*strings` when new; `*strings`
  /// must hold exactly the strings numbered so far.
  uint32_t Number(std::string_view s, std::vector<std::string>* strings);

 private:
  std::vector<uint32_t> slots_;  // 1 + index into the strings; 0 = empty
};

/// \brief One schema attribute of a sample, stored as a column.
///
/// Coordinates live in RegionColumns; this carries the variable part. The
/// physical layout depends on the attribute type: INT/DOUBLE/BOOL columns
/// hold the non-null values densely typed, STRING columns are
/// dictionary-encoded (distinct strings once, uint32 codes per row). NULLs
/// are tracked by a validity bitmap that is elided when every row is valid.
class ValueColumn {
 public:
  ValueColumn() = default;

  /// A column of `size` rows of `type` that a decoder fills in place (the
  /// .gdmz reader): the payload vector matching `type` is zeroed, and
  /// `validity` holds one bit per row (bits past `size` zero), empty when
  /// every row is valid. Once the decoder has written each valid row's
  /// payload — and, for STRING, the dictionary in first-appearance order —
  /// the column equals Build() over the rows it denotes.
  ValueColumn(AttrType type, size_t size, std::vector<uint8_t> validity);

  /// Builds the column for attribute `attr_index` over `regions`.
  static ValueColumn Build(const std::vector<GenomicRegion>& regions,
                           size_t attr_index, AttrType type);

  AttrType type() const { return type_; }
  size_t size() const { return size_; }

  /// True when no row is NULL (the validity bitmap is elided).
  bool all_valid() const { return validity_.empty(); }
  bool IsValid(size_t i) const {
    return validity_.empty() || ((validity_[i >> 3] >> (i & 7)) & 1) != 0;
  }

  /// Materializes row `i` as a Value (NULL when invalid).
  Value At(size_t i) const;

  /// Dense typed payloads, indexed by ROW (null rows hold a zero/empty
  /// placeholder so kernels can index without rank queries).
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  const std::vector<std::string>& dict() const { return dict_; }

  /// In-place payload access for decoders (see the decoding constructor).
  std::vector<int64_t>& mutable_ints() { return ints_; }
  std::vector<double>& mutable_doubles() { return doubles_; }
  std::vector<uint8_t>& mutable_bools() { return bools_; }
  std::vector<uint32_t>& mutable_codes() { return codes_; }
  std::vector<std::string>& mutable_dict() { return dict_; }

  uint64_t MemoryBytes() const;

  bool operator==(const ValueColumn& other) const = default;

 private:
  AttrType type_ = AttrType::kNull;
  size_t size_ = 0;
  std::vector<uint8_t> validity_;  // bit per row; empty = all valid
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<uint32_t> codes_;
  std::vector<std::string> dict_;

  friend class RegionColumns;
};

/// \brief Columnar (structure-of-arrays) layout of one sample's regions.
///
/// The row layout scatters the hot coordinates across the heap: every
/// GenomicRegion carries a std::vector<Value> whose payload is a separate
/// allocation, so the sweep kernels pay a cache miss per region. Columns
/// pack the coordinates densely — as int32 when every coordinate fits (the
/// human genome's do; coordinates >= 2^31 escape to int64) — with strand as
/// one dictionary byte per row and each schema attribute as a ValueColumn.
///
/// Either built in one pass over a coordinate-sorted region list and kept
/// beside the rows it describes (RegionStore::columns()), or decoded
/// straight from a .gdmz blob (FromDecoded()), when they are the sample's
/// only form and the rows are built from them on demand. Its chunk
/// directory (chunks(), FindChunk(), MaxLen(), LowerBoundLeft()) is the
/// sample's per-chromosome index.
class RegionColumns {
 public:
  RegionColumns() = default;

  /// Builds columns over `regions`, which must be coordinate-sorted.
  static RegionColumns Build(const std::vector<GenomicRegion>& regions,
                             const RegionSchema& schema);

  /// Columns over coordinates and attributes decoded elsewhere (the .gdmz
  /// reader). `chunks` are consecutive and cover every row; their
  /// `max_len` is recomputed here, not trusted. Coordinates are narrowed
  /// to int32 when every value fits (Build's rule); `attrs` holds one
  /// column of left.size() rows per schema attribute. Every region must
  /// have left <= right. The result equals Build() over ToRegions() when
  /// CoordSorted() holds.
  static RegionColumns FromDecoded(std::vector<int64_t> left,
                                   std::vector<int64_t> right,
                                   std::vector<uint8_t> strands,
                                   std::vector<ColumnChunk> chunks,
                                   std::vector<ValueColumn> attrs);

  /// True when the rows are in coordinate order with one chunk per
  /// chromosome: chunks ascend by chromosome id and (left, right, strand)
  /// never decreases inside a chunk — the order Build() requires.
  bool CoordSorted() const;

  size_t size() const { return size_; }

  /// True when coordinates are stored as int32.
  bool narrow() const { return narrow_; }

  const std::vector<ColumnChunk>& chunks() const { return chunks_; }
  /// The chromosome's chunk, or nullptr when the chromosome is absent;
  /// O(log #chroms).
  const ColumnChunk* FindChunk(int32_t chrom) const;
  /// Max region length on `chrom`; 0 when the chromosome is absent.
  int64_t MaxLen(int32_t chrom) const;
  /// First row of the chromosome's chunk whose left >= pos (the chunk's end
  /// when every row starts before pos). For an absent chromosome, its
  /// insertion point: the first row of the next larger chromosome, or
  /// size().
  size_t LowerBoundLeft(int32_t chrom, int64_t pos) const;

  int64_t left(size_t i) const { return narrow_ ? left32_[i] : left64_[i]; }
  int64_t right(size_t i) const {
    return narrow_ ? right32_[i] : right64_[i];
  }

  /// Raw coordinate arrays; the 32/64 pair matching narrow() is populated,
  /// the other is empty.
  const std::vector<int32_t>& left32() const { return left32_; }
  const std::vector<int32_t>& right32() const { return right32_; }
  const std::vector<int64_t>& left64() const { return left64_; }
  const std::vector<int64_t>& right64() const { return right64_; }

  /// Strand dictionary codes, one byte per row (values of gdm::Strand).
  const std::vector<uint8_t>& strands() const { return strands_; }
  Strand strand(size_t i) const { return static_cast<Strand>(strands_[i]); }

  size_t num_attrs() const { return attrs_.size(); }

  /// The attribute's column, built on first access. Attribute columns are
  /// lazy because most queries touch a fraction of the schema (a MAP over
  /// one aggregate input never pays for dictionary-interning an unrelated
  /// STRING column); the coordinate pass in Build() stays cheap and each
  /// ValueColumn materializes only when a consumer asks for it (decoded
  /// columns arrive with every attribute built). First accesses may race — like the Sample caches, each slot is published
  /// with a compare-and-swap and the loser adopts the winner's column.
  const ValueColumn& attr(size_t a) const;

  /// True when attribute `a` has already been materialized (accounting /
  /// test hook; never triggers a build).
  bool attr_built(size_t a) const {
    return std::atomic_load(&attrs_[a]) != nullptr;
  }

  /// Materializes the row form (RegionStore::rows() of a decoded sample).
  std::vector<GenomicRegion> ToRegions() const;

  /// Resident bytes of the columnar form (vectors + dictionaries).
  uint64_t MemoryBytes() const;

 private:
  size_t size_ = 0;
  bool narrow_ = true;
  std::vector<int32_t> left32_, right32_;
  std::vector<int64_t> left64_, right64_;
  std::vector<uint8_t> strands_;
  std::vector<ColumnChunk> chunks_;  // ordered by chrom (input is sorted)
  /// One lazily published slot per schema attribute; see attr(). The source
  /// region vector outlives the columns built over it (a RegionStore drops
  /// its columns before its rows change); decoded columns fill every slot
  /// up front and have no source.
  mutable std::vector<std::shared_ptr<const ValueColumn>> attrs_;
  std::vector<AttrType> attr_types_;
  const std::vector<GenomicRegion>* source_ = nullptr;
};

}  // namespace gdms::gdm

#endif  // GDMS_GDM_REGION_COLUMNS_H_
