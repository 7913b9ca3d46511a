#include "gdm/region_store.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace gdms::gdm {

namespace {

// Cumulative bytes of columnar layouts built (the publishing builds only;
// racing losers drop their copy without counting). Paired with
// gdms_mem_columnar_cache_bytes (current occupancy, sampled by the resource
// tracker) and gdms_mem_evicted_bytes_total this exposes cache churn.
obs::Counter* ColumnarBuiltCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "gdms_mem_columnar_built_bytes_total");
  return c;
}

const RegionStore::Rows& EmptyRows() {
  static const RegionStore::Rows* empty = new RegionStore::Rows();
  return *empty;
}

/// Publishes a fresh `build()` into `slot` unless another thread already
/// did; returns the published object and whether this call published it.
template <typename T, typename Build>
std::pair<const T*, bool> BuildOnce(std::atomic<const T*>* slot,
                                    Build&& build) {
  const T* cur = slot->load(std::memory_order_acquire);
  if (cur != nullptr) return {cur, false};
  auto fresh = std::make_unique<const T>(build());
  if (slot->compare_exchange_strong(cur, fresh.get(),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return {fresh.release(), true};
  }
  return {cur, false};  // another thread won; ours is freed
}

using ColumnsPtr = std::shared_ptr<const RegionColumns>;

/// Columns over no rows with one attribute slot per `schema` attribute, so
/// an empty store honours num_attrs() == schema.size(). Built once per
/// distinct attribute-type list and kept for the process.
const ColumnsPtr& EmptyColumns(const RegionSchema& schema) {
  using Key = std::vector<AttrType>;
  static std::mutex* mu = new std::mutex();
  static auto* built = new std::map<Key, ColumnsPtr>();
  Key types;
  types.reserve(schema.size());
  for (size_t a = 0; a < schema.size(); ++a) {
    types.push_back(schema.attr(a).type);
  }
  std::lock_guard<std::mutex> lock(*mu);
  ColumnsPtr& slot = (*built)[types];
  if (slot == nullptr) {
    slot = std::make_shared<const RegionColumns>(
        RegionColumns::Build(EmptyRows(), schema));
  }
  return slot;
}

/// Resident bytes of `rows`: region structs, Value payload vectors and the
/// string heap.
uint64_t WalkRowBytes(const RegionStore::Rows& rows) {
  uint64_t total = rows.capacity() * sizeof(GenomicRegion);
  for (const auto& r : rows) {
    total += r.values.capacity() * sizeof(Value);
    for (const auto& v : r.values) {
      // Strings beyond the SSO buffer own a heap block.
      if (v.is_string() && v.AsString().size() > 15) {
        total += v.AsString().capacity();
      }
    }
  }
  return total;
}

}  // namespace

/// The shared payload: the primary form (rows, or columns) and the facts
/// derived from it. Derived layouts are owned through atomic raw pointers
/// so the build race is a plain compare-exchange and checking an unbuilt
/// slot costs one load. The columns are held through a shared pointer
/// besides, which composed columns (RegionColumns::Extend()) copy to hold
/// their base.
struct RegionStore::Storage {
  static constexpr uint64_t kUnknownBytes = ~uint64_t{0};

  /// Row-primary: the rows themselves. Unused while column_primary.
  Rows rows;
  /// Column-primary: the rows built from the columns by rows().
  std::atomic<const Rows*> built_rows{nullptr};
  /// Row-primary: the columns built by columns(). Column-primary: the
  /// decoded or composed columns, set at construction and dropped only by
  /// MakeRowsMutable().
  std::atomic<const ColumnsPtr*> columns{nullptr};
  std::atomic<uint32_t> refs{1};
  /// Resident bytes of the rows (row-primary rows, or built_rows).
  std::atomic<uint64_t> row_bytes{kUnknownBytes};
  /// Changes only under exclusive ownership (mutable_rows()).
  bool column_primary = false;
  /// Composed: the base store (RegionStore::Extend()), held so the rows a
  /// Build() base materializes its attributes from stay alive, unchanged.
  RegionStore base;

  explicit Storage(Rows r) : rows(std::move(r)) {}
  Storage(RegionColumns cols, RegionStore base_store)
      : columns(new ColumnsPtr(
            std::make_shared<const RegionColumns>(std::move(cols)))),
        column_primary(true),
        base(std::move(base_store)) {}
  ~Storage() {
    delete built_rows.load(std::memory_order_relaxed);
    delete columns.load(std::memory_order_relaxed);
  }
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  const RegionColumns& primary_columns() const {
    return **columns.load(std::memory_order_acquire);
  }

  /// A copy of the rows for a new exclusive storage (shared case of
  /// mutable_rows()); never publishes anything here.
  Rows CopyRows() const {
    if (!column_primary) return rows;
    const Rows* built = built_rows.load(std::memory_order_acquire);
    return built != nullptr ? *built : primary_columns().ToRegions();
  }

  /// Makes an exclusively held storage row-primary with no derived facts,
  /// so its rows can change. Only called by the exclusive holder, so no
  /// reader can hold a layout.
  void MakeRowsMutable() {
    if (column_primary) {
      rows = CopyRows();
      delete built_rows.exchange(nullptr, std::memory_order_relaxed);
      column_primary = false;
      base = RegionStore();
    }
    delete columns.exchange(nullptr, std::memory_order_relaxed);
    row_bytes.store(kUnknownBytes, std::memory_order_relaxed);
  }

  static void Release(Storage* s) {
    if (s != nullptr && s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete s;
    }
  }
};

RegionStore::RegionStore(Rows rows) : storage_(new Storage(std::move(rows))) {}

RegionStore::RegionStore(RegionColumns columns)
    : storage_(new Storage(std::move(columns), RegionStore())) {}

RegionStore RegionStore::Extend(const RegionStore& base,
                                const RegionSchema& base_schema,
                                std::vector<ValueColumn> extra) {
  RegionStore out;
  out.storage_ = new Storage(
      RegionColumns::Extend(base.SharedColumns(base_schema), std::move(extra)),
      base);
  return out;
}

RegionStore::RegionStore(const RegionStore& other) : storage_(other.storage_) {
  if (storage_ != nullptr) {
    storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

RegionStore::~RegionStore() { Storage::Release(storage_); }

const RegionStore::Rows& RegionStore::rows() const {
  if (storage_ == nullptr) return EmptyRows();
  const Storage& s = *storage_;
  if (!s.column_primary) return s.rows;
  const RegionColumns& cols = s.primary_columns();
  const Rows& rows =
      *BuildOnce(&storage_->built_rows, [&] { return cols.ToRegions(); })
           .first;
  // Every row carries every attribute: each read of rows built over a
  // corrupt stored column reports it, not just the read that built them.
  cols.ReportAttrErrors();
  return rows;
}

size_t RegionStore::size() const {
  if (storage_ == nullptr) return 0;
  return storage_->column_primary ? storage_->primary_columns().size()
                                  : storage_->rows.size();
}

const RegionStore* RegionStore::base() const {
  return storage_ != nullptr && storage_->base.storage_ != nullptr
             ? &storage_->base
             : nullptr;
}

bool RegionStore::rows_built() const {
  return storage_ == nullptr || !storage_->column_primary ||
         storage_->built_rows.load(std::memory_order_acquire) != nullptr;
}

const RegionColumns* RegionStore::stored_columns() const {
  return storage_ != nullptr && storage_->column_primary
             ? &storage_->primary_columns()
             : nullptr;
}

RegionStore::Rows& RegionStore::mutable_rows() {
  if (storage_ == nullptr) {
    storage_ = new Storage(Rows());
  } else if (storage_->refs.load(std::memory_order_acquire) != 1) {
    // Shared: copy the rows into a storage of our own; the derived facts
    // stay with the other holders.
    Storage* own = new Storage(storage_->CopyRows());
    Storage::Release(std::exchange(storage_, own));
  } else {
    // Exclusive: the acquire load above ordered us after every former
    // holder's release, so no one else can be reading this storage.
    storage_->MakeRowsMutable();
  }
  return storage_->rows;
}

const RegionColumns& RegionStore::columns(const RegionSchema& schema) const {
  return *SharedColumns(schema);
}

const std::shared_ptr<const RegionColumns>& RegionStore::SharedColumns(
    const RegionSchema& schema) const {
  if (storage_ == nullptr) return EmptyColumns(schema);
  const Storage& s = *storage_;
  auto [cols, built] = BuildOnce(&storage_->columns, [&] {
    return std::make_shared<const RegionColumns>(
        RegionColumns::Build(s.rows, schema));
  });
  if (built) ColumnarBuiltCounter()->Add((*cols)->MemoryBytes());
  return *cols;
}

uint64_t RegionStore::ColumnarCacheBytes() const {
  if (storage_ == nullptr || storage_->column_primary) return 0;
  const ColumnsPtr* cols = storage_->columns.load(std::memory_order_acquire);
  return cols != nullptr ? (*cols)->MemoryBytes() : 0;
}

uint64_t RegionStore::EvictColumns() const {
  if (storage_ == nullptr || storage_->column_primary) return 0;
  std::unique_ptr<const ColumnsPtr> evicted(
      storage_->columns.exchange(nullptr, std::memory_order_acq_rel));
  if (evicted == nullptr) return 0;
  if (evicted->use_count() > 1) {
    // Composed columns hold these (a MAP output over this ref): dropping
    // them would free nothing, and the next query would build a second
    // copy beside them. Put them back.
    const ColumnsPtr* empty = nullptr;
    if (storage_->columns.compare_exchange_strong(
            empty, evicted.get(), std::memory_order_acq_rel)) {
      evicted.release();
    }
    return 0;
  }
  return (*evicted)->MemoryBytes();
}

uint64_t RegionStore::RowBytes() const {
  if (storage_ == nullptr) return 0;
  Storage& s = *storage_;
  const Rows* rows = &s.rows;
  uint64_t total = 0;
  if (s.column_primary) {
    total = s.primary_columns().MemoryBytes();
    rows = s.built_rows.load(std::memory_order_acquire);
    if (rows == nullptr) return total;
  }
  uint64_t cached = s.row_bytes.load(std::memory_order_relaxed);
  if (cached == Storage::kUnknownBytes) {
    // Concurrent first callers compute the same value; any store wins.
    cached = WalkRowBytes(*rows);
    s.row_bytes.store(cached, std::memory_order_relaxed);
  }
  return total + cached;
}

RegionStore RegionStore::Filtered(const std::vector<char>& keep) const {
  size_t kept = 0;
  for (char k : keep) kept += k != 0 ? 1 : 0;
  if (kept == size()) return *this;
  const Rows& in = rows();
  Rows out;
  out.reserve(kept);
  for (size_t i = 0; i < in.size(); ++i) {
    if (keep[i]) out.push_back(in[i]);
  }
  return RegionStore(std::move(out));
}

}  // namespace gdms::gdm
