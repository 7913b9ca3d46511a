#include "gdm/region_columns.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

#include "obs/metrics.h"

namespace gdms::gdm {

namespace {

void SetBit(std::vector<uint8_t>* bits, size_t i) {
  (*bits)[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
}

// Cumulative bytes of lazily materialized attribute columns (CAS winners
// only). Distinct from gdms_mem_columnar_built_bytes_total: coordinate
// columns count there when a RegionStore publishes them; attribute columns
// count here at first access.
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

ValueColumn ValueColumn::Build(const std::vector<GenomicRegion>& regions,
                               size_t attr_index, AttrType type) {
  ValueColumn col;
  col.type_ = type;
  col.size_ = regions.size();
  const size_t n = regions.size();

  // First pass: find nulls. A row is null when the region's value vector is
  // short or the slot holds a NULL (both legal per Dataset::Validate).
  size_t nulls = 0;
  for (const auto& r : regions) {
    if (attr_index >= r.values.size() || r.values[attr_index].is_null()) {
      ++nulls;
    }
  }
  if (nulls > 0) {
    col.validity_.assign((n + 7) / 8, 0);
  }

  switch (type) {
    case AttrType::kInt:
      col.ints_.assign(n, 0);
      break;
    case AttrType::kDouble:
      col.doubles_.assign(n, 0.0);
      break;
    case AttrType::kBool:
      col.bools_.assign(n, 0);
      break;
    case AttrType::kString:
      col.codes_.assign(n, 0);
      break;
    case AttrType::kNull:
      return col;  // all-null column: validity bitmap only
  }

  std::unordered_map<std::string, uint32_t> dict_index;
  for (size_t i = 0; i < n; ++i) {
    const auto& r = regions[i];
    if (attr_index >= r.values.size() || r.values[attr_index].is_null()) {
      continue;
    }
    const Value& v = r.values[attr_index];
    if (nulls > 0) SetBit(&col.validity_, i);
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
      case AttrType::kString: {
        const std::string& s = v.AsString();
        auto [it, inserted] = dict_index.emplace(
            s, static_cast<uint32_t>(col.dict_.size()));
        if (inserted) col.dict_.push_back(s);
        col.codes_[i] = it->second;
        break;
      }
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
  cols.attrs_.resize(schema.size());
  cols.attr_types_.reserve(schema.size());
  for (size_t a = 0; a < schema.size(); ++a) {
    cols.attr_types_.push_back(schema.attr(a).type);
  }
  cols.source_ = &regions;
  return cols;
}

const ValueColumn& RegionColumns::attr(size_t a) const {
  std::shared_ptr<const ValueColumn> col = std::atomic_load(&attrs_[a]);
  if (col == nullptr) {
    auto built = std::make_shared<const ValueColumn>(
        ValueColumn::Build(*source_, a, attr_types_[a]));
    std::shared_ptr<const ValueColumn> expected;
    if (std::atomic_compare_exchange_strong(&attrs_[a], &expected, built)) {
      AttrBuiltCounter()->Add(built->MemoryBytes());
      col = std::move(built);
    } else {
      col = std::move(expected);  // another thread won the race; adopt its column
    }
  }
  return *col;
}

const ColumnChunk* RegionColumns::FindChunk(int32_t chrom) const {
  auto it = ChunkLowerBound(chunks_, chrom);
  return it == chunks_.end() || it->chrom != chrom ? nullptr : &*it;
}

int64_t RegionColumns::MaxLen(int32_t chrom) const {
  const ColumnChunk* c = FindChunk(chrom);
  return c == nullptr ? 0 : c->max_len;
}

size_t RegionColumns::LowerBoundLeft(int32_t chrom, int64_t pos) const {
  auto it = ChunkLowerBound(chunks_, chrom);
  if (it == chunks_.end()) return size_;
  if (it->chrom != chrom) return it->begin;
  size_t lo = it->begin;
  size_t hi = it->end;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (left(mid) < pos) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<GenomicRegion> RegionColumns::ToRegions() const {
  std::vector<const ValueColumn*> cols;
  cols.reserve(attrs_.size());
  for (size_t a = 0; a < attrs_.size(); ++a) cols.push_back(&attr(a));
  std::vector<GenomicRegion> out;
  out.resize(size_);
  for (const auto& chunk : chunks_) {
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
  // Only materialized attribute columns occupy memory.
  for (const auto& slot : attrs_) {
    std::shared_ptr<const ValueColumn> col = std::atomic_load(&slot);
    if (col != nullptr) bytes += col->MemoryBytes();
  }
  return bytes;
}

}  // namespace gdms::gdm
