#ifndef GDMS_GDM_REGION_COLUMNS_H_
#define GDMS_GDM_REGION_COLUMNS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
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

  /// The validity bitmap of `n` rows in which row i is valid when
  /// `valid(i)`: one bit per row, or empty (the elided form) when every row
  /// is valid. Pass it to the filling constructor above.
  template <typename Valid>
  static std::vector<uint8_t> Validity(size_t n, Valid&& valid) {
    std::vector<uint8_t> bits((n + 7) / 8, 0);
    bool any_null = false;
    for (size_t i = 0; i < n; ++i) {
      if (valid(i)) {
        bits[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
      } else {
        any_null = true;
      }
    }
    if (!any_null) return {};
    return bits;
  }

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

/// \brief A sample's attribute columns still in their stored encoding: one
/// immutable byte buffer the sample owns, the end of each attribute's span
/// in it (attribute a spans [ends[a-1], ends[a]), the first from 0), and
/// the decoder that turns one span into a column. The .gdmz reader frames
/// the spans at open; the payloads are decoded one attribute at a time, on
/// first use (RegionColumns::attr()).
struct EncodedAttrs {
  /// Decodes `span` into a column of `n` rows of `type`; ParseError when
  /// the payload is corrupt.
  using Decoder = Status (*)(std::string_view span, size_t n, AttrType type,
                             ValueColumn* out);

  std::string bytes;
  std::vector<size_t> ends;
  Decoder decode = nullptr;
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
/// The columns come three ways:
///  * built in one pass over a coordinate-sorted region list and kept
///    beside the rows they describe (Build(), RegionStore::columns());
///  * decoded from a .gdmz blob (FromDecoded(): the coordinates at once,
///    each attribute on first use), when they are the sample's only form
///    and the rows are built from them on demand;
///  * composed (Extend()): another columns object, held and read through
///    without a copy, plus attribute columns of their own — a MAP output is
///    its ref sample's columns plus one column per aggregate.
/// Its chunk directory (chunks(), FindChunk()) is the sample's
/// per-chromosome index.
class RegionColumns {
 public:
  RegionColumns() = default;
  RegionColumns(RegionColumns&&) noexcept = default;
  RegionColumns& operator=(RegionColumns&&) noexcept = default;

  /// Builds columns over `regions`, which must be coordinate-sorted.
  static RegionColumns Build(const std::vector<GenomicRegion>& regions,
                             const RegionSchema& schema);

  /// Columns over coordinates decoded elsewhere (the .gdmz reader), with
  /// one attribute per entry of `types` left in its stored encoding.
  /// `chunks` are consecutive and cover every row; their `max_len` is
  /// recomputed here, not trusted. Coordinates are narrowed to int32 when
  /// every value fits (Build's rule). Every region must have left <= right.
  /// `encoded` holds one span per type. The result equals Build() over
  /// ToRegions() when CoordSorted() holds and every payload is intact.
  static RegionColumns FromDecoded(std::vector<int64_t> left,
                                   std::vector<int64_t> right,
                                   std::vector<uint8_t> strands,
                                   std::vector<ColumnChunk> chunks,
                                   std::vector<AttrType> types,
                                   EncodedAttrs encoded);

  /// Columns over `base`'s regions whose attributes are `base`'s followed
  /// by `extra` (each of base->size() rows). Coordinates, chunks and the
  /// first base->num_attrs() attributes are read through `base`, which the
  /// result holds: an attribute `base` has not materialized stays lazy,
  /// and whichever of the two reads it first materializes it for both. A
  /// Build() base materializes its attributes from the rows it was built
  /// over, which must then outlive the result unchanged
  /// (RegionStore::Extend() holds them).
  static RegionColumns Extend(std::shared_ptr<const RegionColumns> base,
                              std::vector<ValueColumn> extra);

  /// True when the rows are in coordinate order with one chunk per
  /// chromosome: chunks ascend by chromosome id and (left, right, strand)
  /// never decreases inside a chunk — the order Build() requires.
  bool CoordSorted() const;

  size_t size() const { return size_; }

  /// True when coordinates are stored as int32.
  bool narrow() const { return narrow_; }

  const std::vector<ColumnChunk>& chunks() const { return coords().chunks_; }
  /// The chromosome's chunk, or nullptr when the chromosome is absent;
  /// O(log #chroms).
  const ColumnChunk* FindChunk(int32_t chrom) const;

  int64_t left(size_t i) const { return narrow_ ? row_.l32[i] : row_.l64[i]; }
  int64_t right(size_t i) const {
    return narrow_ ? row_.r32[i] : row_.r64[i];
  }

  /// Raw coordinate arrays; the 32/64 pair matching narrow() is populated,
  /// the other is empty.
  const std::vector<int32_t>& left32() const { return coords().left32_; }
  const std::vector<int32_t>& right32() const { return coords().right32_; }
  const std::vector<int64_t>& left64() const { return coords().left64_; }
  const std::vector<int64_t>& right64() const { return coords().right64_; }

  /// Strand dictionary codes, one byte per row (values of gdm::Strand).
  const std::vector<uint8_t>& strands() const { return coords().strands_; }
  Strand strand(size_t i) const { return static_cast<Strand>(row_.strands[i]); }

  size_t num_attrs() const { return attr_types_.size(); }

  /// The declared type of attribute `a` (never materializes the column).
  AttrType attr_type(size_t a) const { return attr_types_[a]; }

  /// The attribute's column, materialized on first access: built from the
  /// source rows, or decoded from the stored bytes (FromDecoded()). Most
  /// queries touch a fraction of the schema — a MAP over one aggregate
  /// input never pays for decoding or dictionary-interning an unrelated
  /// STRING column. Each slot is materialized exactly once: the first
  /// caller does the work, callers arriving meanwhile wait for it, and
  /// every caller gets the same column. A stored payload that turns out
  /// corrupt yields an all-NULL column of size() rows; attr_error() keeps
  /// the error, and every call that returns such a column reports it to
  /// the calling thread's query (QueryContext). Composed columns (Extend())
  /// read a base attribute through their base, so its slot, and the error
  /// report naming the stored columns, are the base's.
  const ValueColumn& attr(size_t a) const;

  /// True when attribute `a` has already been materialized (accounting /
  /// test hook; never triggers a build).
  bool attr_built(size_t a) const {
    if (base_ != nullptr) {
      return a >= base_->num_attrs() || base_->attr_built(a);
    }
    return slots_->slot[a].built.load(std::memory_order_acquire);
  }

  /// The error attribute `a` hit decoding its stored payload; OK when it
  /// decoded cleanly or has not been materialized (never triggers one).
  Status attr_error(size_t a) const {
    if (base_ != nullptr) {
      return a < base_->num_attrs() ? base_->attr_error(a) : Status::OK();
    }
    return attr_built(a) ? slots_->slot[a].error : Status::OK();
  }

  /// Reports every materialized attribute whose stored payload proved
  /// corrupt to the calling thread's query: RegionStore::rows() calls
  /// it on every access, since a row carries every attribute. One atomic
  /// load when no attribute is corrupt.
  void ReportAttrErrors() const;

  /// The stored attribute bytes, all attributes' spans back to back; the
  /// columns hold them for their whole life (FromDecoded()), nullptr for
  /// columns built from rows or composed (Extend()). Writers copy them
  /// verbatim instead of re-encoding.
  const std::string* encoded_attrs() const {
    return encoded_.decode != nullptr ? &encoded_.bytes : nullptr;
  }

  /// Where attribute `a`'s span starts in encoded_attrs() (stored columns
  /// only); the next attribute's span starts where it ends.
  size_t encoded_attr_offset(size_t a) const {
    return a == 0 ? 0 : encoded_.ends[a - 1];
  }

  /// Materializes every attribute still in its stored encoding
  /// (FromDecoded(), also read through composed columns); attributes a
  /// Build() base would build from its rows stay unbuilt.
  void DecodeStoredAttrs() const;

  /// Materializes the row form (RegionStore::rows() of a column-primary
  /// sample).
  std::vector<GenomicRegion> ToRegions() const;

  /// Resident bytes of the columnar form: coordinate vectors, the stored
  /// attribute bytes, and the attribute columns materialized so far. The
  /// base of composed columns counts apart (RegionStore::RowBytes()), so
  /// composed columns count only their own attribute columns.
  uint64_t MemoryBytes() const;

 private:
  /// One attribute's lazily materialized column. `once` runs the build;
  /// `built` (released after `column` and `error` are set) lets observers
  /// (attr_built(), attr_error(), MemoryBytes()) read them without running
  /// it.
  struct AttrSlot {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::unique_ptr<const ValueColumn> column;
    Status error;
  };
  /// The slots of every schema attribute, and whether any of them holds a
  /// decode error (so row reads check one flag, not every slot).
  struct AttrSlots {
    explicit AttrSlots(size_t n) : slot(std::make_unique<AttrSlot[]>(n)) {}
    std::unique_ptr<AttrSlot[]> slot;
    std::atomic<bool> any_error{false};
  };

  /// Raw pointers into the coordinate and strand arrays, read by the row
  /// accessors: these columns' own, or their base's. A vector keeps its
  /// buffer when the columns move, so they stay valid.
  struct RowPointers {
    const int32_t* l32 = nullptr;
    const int32_t* r32 = nullptr;
    const int64_t* l64 = nullptr;
    const int64_t* r64 = nullptr;
    const uint8_t* strands = nullptr;
  };

  void InitSlots(std::vector<AttrType> types);
  void SetRowPointers();
  ValueColumn Materialize(size_t a, Status* error) const;
  /// The columns that own the coordinate arrays: these, or their base's.
  const RegionColumns& coords() const {
    return base_ != nullptr ? base_->coords() : *this;
  }

  size_t size_ = 0;
  bool narrow_ = true;
  RowPointers row_;
  std::vector<int32_t> left32_, right32_;
  std::vector<int64_t> left64_, right64_;
  std::vector<uint8_t> strands_;
  std::vector<ColumnChunk> chunks_;  // ordered by chrom (input is sorted)
  std::vector<AttrType> attr_types_;
  /// One slot per schema attribute; see attr().
  std::unique_ptr<AttrSlots> slots_;
  /// Where unmaterialized columns come from: the source rows (Build(); the
  /// region vector outlives the columns built over it, since a RegionStore
  /// drops its columns before its rows change), or the stored bytes
  /// (FromDecoded()), which stay until the columns are dropped.
  const std::vector<GenomicRegion>* source_ = nullptr;
  EncodedAttrs encoded_;
  /// Composed (Extend()): the columns read through for coordinates and the
  /// first base_->num_attrs() attributes, and the attribute columns that
  /// follow them. The own coordinate vectors and slots_ stay empty.
  std::shared_ptr<const RegionColumns> base_;
  std::vector<ValueColumn> extra_;
};

/// \brief The first corrupt stored attribute one query read.
///
/// A stored (.gdmz) column whose payload proves corrupt when first decoded
/// reads as all-NULL (RegionColumns::attr()), so a result computed from it
/// is wrong. The query that reads it must fail — and only that query: the
/// slot keeps its error, but a query that reads only intact columns of the
/// same sample, before or after or beside it, succeeds. So reads report to
/// a per-query log rather than marking the dataset: the log travels in the
/// query's QueryContext, and each read of a corrupt column —
/// RegionColumns::attr(), or RegionStore::rows() over such columns —
/// reports to the calling thread's context, naming the stored columns also
/// when the read goes through composed columns (a MAP output over a stored
/// ref). Reads outside any query (a catalog decoding ahead, a test) report
/// nowhere.
class AttrReadLog {
 public:
  struct Failure {
    const RegionColumns* columns = nullptr;
    size_t attr = 0;
    Status error;
  };

  /// Keeps the first failure reported; thread-safe.
  void Report(const RegionColumns* columns, size_t attr, const Status& error);

  /// The first failure reported, if any.
  std::optional<Failure> first() const;

 private:
  mutable std::mutex mu_;
  std::optional<Failure> first_;
};

}  // namespace gdms::gdm

#endif  // GDMS_GDM_REGION_COLUMNS_H_
