#ifndef GDMS_GDM_REGION_STORE_H_
#define GDMS_GDM_REGION_STORE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "gdm/region.h"
#include "gdm/region_columns.h"
#include "gdm/schema.h"

namespace gdms::gdm {

/// \brief A sample's regions: copy-on-write rows shared by reference, plus
/// the facts derived from them (columns with their per-chromosome chunk
/// directory, resident-byte estimate), each computed at most once per
/// storage.
///
/// A store is row-primary (built from rows; columns() derives the columns)
/// or column-primary, when columns are its only form and rows() derives the
/// rows once, on first use: decoded columns (the .gdmz reader's form), or
/// composed columns (Extend(): a MAP output is its ref sample's columns,
/// shared, plus one column per aggregate). Columnar consumers — the
/// engine's MAP and COVER — never make a column-primary store build its
/// rows.
///
/// Copying a RegionStore copies a pointer. Operators that pass a sample's
/// regions through unchanged (metadata-only SELECT, SEMIJOIN, EXTEND,
/// ORDER, MATERIALIZE, DIFFERENCE without negatives, ...) therefore share
/// the rows instead of duplicating them, and every holder sees the columns
/// any holder already built.
///
/// Const access never copies. mutable_rows() (and the non-const operator[],
/// push_back and emplace_back built on it) first makes the storage
/// exclusive — copying the rows, without the derived facts, when another
/// holder shares them — and otherwise drops the derived facts, so a mutation
/// is never visible to another holder and no column set outlives the rows
/// it describes. A composed store holds its base store, so the base's
/// storage stays shared (a mutation of it copies) and alive for as long as
/// the composed columns may read it. Hence the rules for writers:
///  * take mutable_rows() once per loop, not once per row (each call checks
///    sharing and the derived facts);
///  * take it again after any columns() call: a `Rows&` held across one
///    would mutate rows the built layout still describes;
///  * share a store only between samples whose datasets have the same
///    schema, since columns() is built once, against the first caller's.
class RegionStore {
 public:
  using Rows = std::vector<GenomicRegion>;
  using const_iterator = Rows::const_iterator;

  RegionStore() = default;
  /// Implicit, so `sample.regions = std::move(rows)` installs a row vector.
  RegionStore(Rows rows);  // NOLINT(google-explicit-constructor)
  RegionStore(std::initializer_list<GenomicRegion> rows)
      : RegionStore(Rows(rows)) {}
  /// A column-primary store: `columns` (decoded coordinates with their
  /// attributes still encoded — see RegionColumns::FromDecoded — and
  /// CoordSorted()) are the regions; rows() builds the row form from them
  /// on first use, decoding every attribute.
  explicit RegionStore(RegionColumns columns);

  /// A column-primary store over `base`'s regions (RegionColumns::Extend
  /// over base.columns(base_schema)): `base`'s attributes, read through
  /// `base`'s columns and as lazy as they are there, followed by `extra`,
  /// each of base.size() rows. The store holds `base` and its columns, so
  /// it stays valid — and its reads of `base`'s attributes stay the same —
  /// after `base`'s other holders are gone or mutate it; while it lives,
  /// base.EvictColumns() keeps the columns it holds.
  static RegionStore Extend(const RegionStore& base,
                            const RegionSchema& base_schema,
                            std::vector<ValueColumn> extra);

  RegionStore(const RegionStore& other);
  RegionStore(RegionStore&& other) noexcept
      : storage_(std::exchange(other.storage_, nullptr)) {}
  RegionStore& operator=(RegionStore other) noexcept {
    std::swap(storage_, other.storage_);
    return *this;
  }
  ~RegionStore();

  // ---- Read-only view: never copies, never drops a derived fact.

  /// The rows. On a column-primary store the first call builds them from
  /// the columns; concurrent first callers race benignly like columns().
  /// Every call over columns with a corrupt stored attribute reports it to
  /// the calling thread's query (see RegionColumns::attr()).
  const Rows& rows() const;
  /// Lets a sample's regions bind to `const std::vector<GenomicRegion>&`
  /// parameters (the interval kernels, codecs and writers).
  operator const Rows&() const { return rows(); }  // NOLINT

  /// Number of regions; never builds rows.
  size_t size() const;
  bool empty() const { return size() == 0; }
  size_t capacity() const { return rows().capacity(); }
  const GenomicRegion& operator[](size_t i) const { return rows()[i]; }
  const_iterator begin() const { return rows().begin(); }
  const_iterator end() const { return rows().end(); }

  /// The columnar layout over the rows, built against `schema` on first
  /// use. Concurrent first callers race benignly: one build is published,
  /// the others are dropped, and every caller sees the published one. A
  /// column-primary store returns its own columns (their schema is the
  /// one they were decoded with).
  const RegionColumns& columns(const RegionSchema& schema) const;

  /// False only on a column-primary store whose rows nobody has asked for
  /// yet (accounting and test hook; never builds anything).
  bool rows_built() const;

  /// The columns of a column-primary store, nullptr on a row-primary one
  /// (never builds anything). They keep their stored attribute bytes, and
  /// any attribute decode error, until mutable_rows() drops them.
  const RegionColumns* stored_columns() const;

  /// The store a composed store's columns share (Extend()); nullptr on any
  /// other store, and when that base is empty (never builds anything).
  const RegionStore* base() const;

  /// Resident bytes of the built columnar layout when it is a reclaimable
  /// cache beside the rows (0 when not built, and always 0 on a
  /// column-primary store, whose columns are not a cache).
  uint64_t ColumnarCacheBytes() const;

  /// Drops only the columnar layout — for every holder of this storage —
  /// returning the bytes freed; the next columns() call rebuilds identical
  /// columns from the untouched rows. Returns 0 and drops nothing on a
  /// column-primary store, which holds the only copy of its columns, and
  /// while composed columns hold the layout (Extend()): dropping it would
  /// free nothing. The
  /// resource shedder calls this with no query in flight; it must not race
  /// readers holding a columns() reference.
  uint64_t EvictColumns() const;

  /// Identity of the underlying storage: two stores with the same non-null
  /// identity share their rows and derived facts. Empty default-constructed
  /// stores have none.
  const void* storage_id() const { return storage_; }

  /// Resident bytes of the primary storage: on a row-primary store the
  /// rows' region structs, Value payload vectors and string heap (derived
  /// layouts excluded); on a column-primary store the column bytes it owns
  /// (RegionColumns::MemoryBytes(): a decoded store's coordinates, stored
  /// attribute bytes and the attribute columns decoded so far; a composed
  /// store's own attribute columns only, its base() counting apart), plus
  /// the rows once built. The row walk runs once per storage, so charging a
  /// shared store never re-walks its rows.
  uint64_t RowBytes() const;

  /// The rows whose `keep` flag (one per row) is non-zero, in order. When
  /// every row is kept the result shares this store's storage and derived
  /// facts, so a selection that drops nothing copies nothing.
  RegionStore Filtered(const std::vector<char>& keep) const;

  // ---- Mutation: each call makes the storage exclusive first.

  /// The rows, exclusively owned. A column-primary store materializes its
  /// rows and drops its columns, becoming row-primary.
  Rows& mutable_rows();
  GenomicRegion& operator[](size_t i) { return mutable_rows()[i]; }
  void push_back(GenomicRegion region) {
    mutable_rows().push_back(std::move(region));
  }
  template <typename... Args>
  GenomicRegion& emplace_back(Args&&... args) {
    return mutable_rows().emplace_back(std::forward<Args>(args)...);
  }

 private:
  struct Storage;

  /// columns(), as the shared pointer the storage holds them through.
  const std::shared_ptr<const RegionColumns>& SharedColumns(
      const RegionSchema& schema) const;

  // Intrusively counted, so the uniqueness check in mutable_rows() can be
  // an acquire load that synchronizes with the last other holder's release.
  Storage* storage_ = nullptr;
};

}  // namespace gdms::gdm

#endif  // GDMS_GDM_REGION_STORE_H_
