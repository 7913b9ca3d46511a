#include "gdm/region_columns.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <limits>
#include <utility>

#include "gdm/query_context.h"
#include "obs/metrics.h"

namespace gdms::gdm {

namespace {

// Cumulative bytes of lazily materialized attribute columns (each slot's
// one successful build or decode). Distinct from
// gdms_mem_columnar_built_bytes_total: coordinate columns count there when
// a RegionStore publishes them; attribute columns count here at first
// access.
obs::Counter* AttrBuiltCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "gdms_mem_attr_columns_built_bytes_total");
  return c;
}

/// First chunk whose chromosome is >= `chrom` (chunks are ordered by chrom).
std::vector<ColumnChunk>::const_iterator ChunkLowerBound(
    const std::vector<ColumnChunk>& chunks, int32_t chrom) {
  return std::lower_bound(
      chunks.begin(), chunks.end(), chrom,
      [](const ColumnChunk& c, int32_t id) { return c.chrom < id; });
}

}  // namespace

StringNumbering::StringNumbering(size_t max_distinct)
    : slots_(std::bit_ceil(2 * max_distinct + 2), 0) {}

uint32_t StringNumbering::Number(std::string_view s,
                                 std::vector<std::string>* strings) {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = std::hash<std::string_view>()(s) & mask;;
       slot = (slot + 1) & mask) {
    uint32_t v = slots_[slot];
    if (v == 0) {
      strings->emplace_back(s);
      slots_[slot] = static_cast<uint32_t>(strings->size());
      return slots_[slot] - 1;
    }
    if ((*strings)[v - 1] == s) return v - 1;
  }
}

ValueColumn::ValueColumn(AttrType type, size_t size,
                         std::vector<uint8_t> validity)
    : type_(type), size_(size), validity_(std::move(validity)) {
  switch (type) {
    case AttrType::kInt:
      ints_.assign(size, 0);
      break;
    case AttrType::kDouble:
      doubles_.assign(size, 0.0);
      break;
    case AttrType::kBool:
      bools_.assign(size, 0);
      break;
    case AttrType::kString:
      codes_.assign(size, 0);
      break;
    case AttrType::kNull:
      break;  // all-null column: validity bitmap only
  }
}

ValueColumn ValueColumn::Build(const std::vector<GenomicRegion>& regions,
                               size_t attr_index, AttrType type) {
  const size_t n = regions.size();
  // A row is null when the region's value vector is short or the slot
  // holds a NULL (both legal per Dataset::Validate).
  auto is_null = [&](const GenomicRegion& r) {
    return attr_index >= r.values.size() || r.values[attr_index].is_null();
  };
  std::vector<uint8_t> validity =
      Validity(n, [&](size_t i) { return !is_null(regions[i]); });
  if (type == AttrType::kNull) {
    // Every row of a NULL-typed attribute reads as NULL.
    std::fill(validity.begin(), validity.end(), 0);
    return ValueColumn(type, n, std::move(validity));
  }
  ValueColumn col(type, n, std::move(validity));

  StringNumbering numbering(type == AttrType::kString ? n : 0);
  for (size_t i = 0; i < n; ++i) {
    const auto& r = regions[i];
    if (is_null(r)) continue;
    const Value& v = r.values[attr_index];
    switch (type) {
      case AttrType::kInt:
        col.ints_[i] = v.AsInt();
        break;
      case AttrType::kDouble:
        col.doubles_[i] = v.AsDouble();
        break;
      case AttrType::kBool:
        col.bools_[i] = v.AsBool() ? 1 : 0;
        break;
      case AttrType::kString:
        col.codes_[i] = numbering.Number(v.AsString(), &col.dict_);
        break;
      case AttrType::kNull:
        break;
    }
  }
  return col;
}

Value ValueColumn::At(size_t i) const {
  if (!IsValid(i)) return Value::Null();
  switch (type_) {
    case AttrType::kInt:
      return Value(ints_[i]);
    case AttrType::kDouble:
      return Value(doubles_[i]);
    case AttrType::kBool:
      return Value(bools_[i] != 0);
    case AttrType::kString:
      return Value(dict_[codes_[i]]);
    case AttrType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

uint64_t ValueColumn::MemoryBytes() const {
  uint64_t bytes = sizeof(*this);
  bytes += validity_.capacity();
  bytes += ints_.capacity() * sizeof(int64_t);
  bytes += doubles_.capacity() * sizeof(double);
  bytes += bools_.capacity();
  bytes += codes_.capacity() * sizeof(uint32_t);
  bytes += dict_.capacity() * sizeof(std::string);
  for (const auto& s : dict_) bytes += s.capacity();
  return bytes;
}

RegionColumns RegionColumns::Build(const std::vector<GenomicRegion>& regions,
                                   const RegionSchema& schema) {
  assert(RegionsSorted(regions));
  RegionColumns cols;
  cols.size_ = regions.size();
  const size_t n = regions.size();

  bool narrow = true;
  for (const auto& r : regions) {
    // left <= right by convention, so checking right covers both; left can
    // still be negative-adjacent from windowed ops, keep the explicit check.
    if (r.right > std::numeric_limits<int32_t>::max() ||
        r.left < std::numeric_limits<int32_t>::min()) {
      narrow = false;
      break;
    }
  }
  cols.narrow_ = narrow;

  if (narrow) {
    cols.left32_.resize(n);
    cols.right32_.resize(n);
  } else {
    cols.left64_.resize(n);
    cols.right64_.resize(n);
  }
  cols.strands_.resize(n);

  int32_t cur_chrom = 0;
  bool have_chunk = false;
  ColumnChunk chunk;
  for (size_t i = 0; i < n; ++i) {
    const auto& r = regions[i];
    if (narrow) {
      cols.left32_[i] = static_cast<int32_t>(r.left);
      cols.right32_[i] = static_cast<int32_t>(r.right);
    } else {
      cols.left64_[i] = r.left;
      cols.right64_[i] = r.right;
    }
    cols.strands_[i] = static_cast<uint8_t>(r.strand);
    if (!have_chunk || r.chrom != cur_chrom) {
      if (have_chunk) {
        chunk.end = i;
        cols.chunks_.push_back(chunk);
      }
      have_chunk = true;
      cur_chrom = r.chrom;
      chunk = ColumnChunk{r.chrom, i, i, 0};
    }
    chunk.max_len = std::max(chunk.max_len, r.length());
  }
  if (have_chunk) {
    chunk.end = n;
    cols.chunks_.push_back(chunk);
  }

  // Attribute columns stay empty slots until attr() materializes them.
  std::vector<AttrType> types;
  types.reserve(schema.size());
  for (size_t a = 0; a < schema.size(); ++a) {
    types.push_back(schema.attr(a).type);
  }
  cols.InitSlots(std::move(types));
  cols.SetRowPointers();
  cols.source_ = &regions;
  return cols;
}

RegionColumns RegionColumns::FromDecoded(std::vector<int64_t> left,
                                         std::vector<int64_t> right,
                                         std::vector<uint8_t> strands,
                                         std::vector<ColumnChunk> chunks,
                                         std::vector<AttrType> types,
                                         EncodedAttrs encoded) {
  assert(encoded.ends.size() == types.size());
  RegionColumns cols;
  const size_t n = left.size();
  cols.size_ = n;
  bool narrow = true;
  for (ColumnChunk& c : chunks) {
    c.max_len = 0;
    for (size_t i = c.begin; i < c.end; ++i) {
      assert(left[i] <= right[i]);
      c.max_len = std::max(c.max_len, right[i] - left[i]);
      narrow = narrow && right[i] <= std::numeric_limits<int32_t>::max() &&
               left[i] >= std::numeric_limits<int32_t>::min();
    }
  }
  cols.narrow_ = narrow;
  if (narrow) {
    cols.left32_.assign(left.begin(), left.end());
    cols.right32_.assign(right.begin(), right.end());
  } else {
    cols.left64_ = std::move(left);
    cols.right64_ = std::move(right);
  }
  cols.strands_ = std::move(strands);
  cols.chunks_ = std::move(chunks);
  cols.InitSlots(std::move(types));
  cols.SetRowPointers();
  cols.encoded_ = std::move(encoded);
  return cols;
}

RegionColumns RegionColumns::Extend(std::shared_ptr<const RegionColumns> base,
                                    std::vector<ValueColumn> extra) {
  RegionColumns cols;
  cols.size_ = base->size_;
  cols.narrow_ = base->narrow_;
  cols.row_ = base->row_;
  cols.attr_types_ = base->attr_types_;
  for (const ValueColumn& col : extra) {
    assert(col.size() == base->size_);
    cols.attr_types_.push_back(col.type());
  }
  cols.base_ = std::move(base);
  cols.extra_ = std::move(extra);
  return cols;
}

void RegionColumns::InitSlots(std::vector<AttrType> types) {
  attr_types_ = std::move(types);
  slots_ = std::make_unique<AttrSlots>(attr_types_.size());
}

void RegionColumns::SetRowPointers() {
  row_.l32 = left32_.data();
  row_.r32 = right32_.data();
  row_.l64 = left64_.data();
  row_.r64 = right64_.data();
  row_.strands = strands_.data();
}

bool RegionColumns::CoordSorted() const {
  const std::vector<ColumnChunk>& chunks = this->chunks();
  for (size_t c = 0; c < chunks.size(); ++c) {
    const ColumnChunk& chunk = chunks[c];
    if (c > 0 && chunk.chrom <= chunks[c - 1].chrom) return false;
    for (size_t i = chunk.begin + 1; i < chunk.end; ++i) {
      int64_t l0 = left(i - 1), l1 = left(i);
      if (l1 != l0) {
        if (l1 < l0) return false;
        continue;
      }
      int64_t r0 = right(i - 1), r1 = right(i);
      if (r1 < r0 || (r1 == r0 && strand(i) < strand(i - 1))) {
        return false;
      }
    }
  }
  return true;
}

ValueColumn RegionColumns::Materialize(size_t a, Status* error) const {
  if (encoded_.decode == nullptr) {
    return ValueColumn::Build(*source_, a, attr_types_[a]);
  }
  const size_t begin = encoded_attr_offset(a);
  std::string_view span = std::string_view(encoded_.bytes)
                              .substr(begin, encoded_.ends[a] - begin);
  ValueColumn col;
  *error = encoded_.decode(span, size_, attr_types_[a], &col);
  if (error->ok()) return col;
  // A corrupt payload reads as NULL in every row; attr_error() keeps it.
  return ValueColumn(attr_types_[a], size_,
                     std::vector<uint8_t>((size_ + 7) / 8, 0));
}

const ValueColumn& RegionColumns::attr(size_t a) const {
  if (base_ != nullptr) {
    const size_t shared = base_->num_attrs();
    return a < shared ? base_->attr(a) : extra_[a - shared];
  }
  AttrSlot& slot = slots_->slot[a];
  std::call_once(slot.once, [&] {
    auto col =
        std::make_unique<const ValueColumn>(Materialize(a, &slot.error));
    if (slot.error.ok()) {
      AttrBuiltCounter()->Add(col->MemoryBytes());
    } else {
      slots_->any_error.store(true, std::memory_order_release);
    }
    slot.column = std::move(col);
    slot.built.store(true, std::memory_order_release);
  });
  if (!slot.error.ok()) {
    if (AttrReadLog* log = QueryContext::Current().attr_reads) {
      log->Report(this, a, slot.error);
    }
  }
  return *slot.column;
}

void RegionColumns::ReportAttrErrors() const {
  if (base_ != nullptr) {
    base_->ReportAttrErrors();
    return;
  }
  if (slots_ == nullptr ||
      !slots_->any_error.load(std::memory_order_acquire)) {
    return;
  }
  AttrReadLog* log = QueryContext::Current().attr_reads;
  if (log == nullptr) return;
  for (size_t a = 0; a < num_attrs(); ++a) {
    Status error = attr_error(a);
    if (!error.ok()) log->Report(this, a, error);
  }
}

void AttrReadLog::Report(const RegionColumns* columns, size_t attr,
                         const Status& error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!first_.has_value()) first_ = Failure{columns, attr, error};
}

std::optional<AttrReadLog::Failure> AttrReadLog::first() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

const ColumnChunk* RegionColumns::FindChunk(int32_t chrom) const {
  const std::vector<ColumnChunk>& chunks = this->chunks();
  auto it = ChunkLowerBound(chunks, chrom);
  return it == chunks.end() || it->chrom != chrom ? nullptr : &*it;
}

void RegionColumns::DecodeStoredAttrs() const {
  if (base_ != nullptr) {
    base_->DecodeStoredAttrs();
    return;
  }
  if (encoded_.decode == nullptr) return;
  for (size_t a = 0; a < num_attrs(); ++a) (void)attr(a);
}

std::vector<GenomicRegion> RegionColumns::ToRegions() const {
  std::vector<const ValueColumn*> cols;
  cols.reserve(num_attrs());
  for (size_t a = 0; a < num_attrs(); ++a) cols.push_back(&attr(a));
  std::vector<GenomicRegion> out;
  out.resize(size_);
  for (const auto& chunk : chunks()) {
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      GenomicRegion& r = out[i];
      r.chrom = chunk.chrom;
      r.left = left(i);
      r.right = right(i);
      r.strand = strand(i);
      if (!cols.empty()) {
        r.values.reserve(cols.size());
        for (const ValueColumn* col : cols) r.values.push_back(col->At(i));
      }
    }
  }
  return out;
}

uint64_t RegionColumns::MemoryBytes() const {
  uint64_t bytes = sizeof(*this);
  bytes += left32_.capacity() * sizeof(int32_t);
  bytes += right32_.capacity() * sizeof(int32_t);
  bytes += left64_.capacity() * sizeof(int64_t);
  bytes += right64_.capacity() * sizeof(int64_t);
  bytes += strands_.capacity();
  bytes += chunks_.capacity() * sizeof(ColumnChunk);
  if (const std::string* stored = encoded_attrs()) {
    bytes += stored->capacity();
  }
  // Only materialized attribute columns occupy memory.
  for (size_t a = 0; slots_ != nullptr && a < num_attrs(); ++a) {
    const AttrSlot& slot = slots_->slot[a];
    if (slot.built.load(std::memory_order_acquire)) {
      bytes += slot.column->MemoryBytes();
    }
  }
  for (const ValueColumn& col : extra_) bytes += col.MemoryBytes();
  return bytes;
}

}  // namespace gdms::gdm
