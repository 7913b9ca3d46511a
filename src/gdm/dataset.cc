#include "gdm/dataset.h"

#include <unordered_set>

#include "common/hash.h"

namespace gdms::gdm {

uint64_t Dataset::TotalRegions() const {
  uint64_t total = 0;
  for (const auto& s : samples_) total += s.regions.size();
  return total;
}

uint64_t Dataset::TotalMetadata() const {
  uint64_t total = 0;
  for (const auto& s : samples_) total += s.metadata.size();
  return total;
}

Status Dataset::ValidateColumns(const RegionColumns& cols) const {
  if (cols.num_attrs() != schema_.size()) {
    return Status::SchemaMismatch(
        "region columns have " + std::to_string(cols.num_attrs()) +
        " attributes, schema has " + std::to_string(schema_.size()) +
        " (dataset " + name_ + ")");
  }
  for (size_t a = 0; a < cols.num_attrs(); ++a) {
    AttrType type = cols.attr_type(a);
    if (type != AttrType::kNull && type != schema_.attr(a).type) {
      return Status::TypeError("attribute " + schema_.attr(a).name +
                               " expects " + AttrTypeName(schema_.attr(a).type) +
                               " but its column holds " + AttrTypeName(type));
    }
  }
  return Status::OK();
}

Status Dataset::Validate() const {
  std::unordered_set<SampleId> seen;
  for (const auto& s : samples_) {
    if (!seen.insert(s.id).second) {
      return Status::InvalidArgument("duplicate sample id " +
                                     std::to_string(s.id) + " in dataset " +
                                     name_);
    }
    if (const RegionColumns* cols = s.regions.stored_columns()) {
      // Column-primary storage (a decoded .gdmz sample): typed columns and
      // left <= right hold by construction, so only the declared attribute
      // types can disagree with the schema — and checking them builds no
      // rows and decodes no attribute.
      GDMS_RETURN_NOT_OK(ValidateColumns(*cols));
      continue;
    }
    for (const auto& r : s.regions) {
      if (r.left > r.right) {
        return Status::InvalidArgument("region with left > right in sample " +
                                       std::to_string(s.id) + ": " +
                                       r.CoordString());
      }
      if (r.values.size() != schema_.size()) {
        return Status::SchemaMismatch(
            "region has " + std::to_string(r.values.size()) +
            " values, schema has " + std::to_string(schema_.size()) +
            " attributes (dataset " + name_ + ")");
      }
      for (size_t i = 0; i < r.values.size(); ++i) {
        const Value& v = r.values[i];
        if (v.is_null()) continue;
        if (v.type() != schema_.attr(i).type) {
          return Status::TypeError("attribute " + schema_.attr(i).name +
                                   " expects " +
                                   AttrTypeName(schema_.attr(i).type) +
                                   " but region carries " +
                                   AttrTypeName(v.type()));
        }
      }
    }
  }
  return Status::OK();
}

Status Dataset::NameReadFailure(const AttrReadLog::Failure& failure) const {
  for (const auto& s : samples_) {
    if (s.regions.stored_columns() != failure.columns) continue;
    const size_t a = failure.attr;
    std::string attr = a < schema_.size() ? schema_.attr(a).name
                                          : "#" + std::to_string(a);
    return Status::ParseError(failure.error.message() + " (attribute " +
                              attr + " of sample " + std::to_string(s.id) +
                              " in dataset " + name_ + ")");
  }
  return Status::OK();
}

void Dataset::DecodeStoredAttrs() const {
  for (const auto& s : samples_) {
    if (const RegionColumns* cols = s.regions.stored_columns()) {
      cols->DecodeStoredAttrs();
    }
  }
}

uint64_t Dataset::EstimateBytes() const {
  // Text-serialization estimate: fixed part ~ 40 bytes per region, each value
  // rendered plus a tab, each metadata entry attr+value+id.
  uint64_t total = 0;
  for (const auto& s : samples_) {
    for (const auto& r : s.regions) {
      total += 40;
      for (const auto& v : r.values) total += v.ToString().size() + 1;
    }
    for (const auto& e : s.metadata.entries()) {
      total += e.attr.size() + e.value.size() + 22;
    }
  }
  return total;
}

uint64_t Dataset::EstimateResidentBytes(
    const std::vector<const Dataset*>& inputs) const {
  // Storages already held elsewhere (or counted once here) cost nothing. A
  // composed store holds its base store and the base's columns, so those
  // count as storage of the sample too.
  std::unordered_set<const void*> counted;
  for (const Dataset* in : inputs) {
    for (const auto& s : in->samples()) {
      for (const RegionStore* st = &s.regions; st != nullptr; st = st->base()) {
        counted.insert(st->storage_id());
      }
    }
  }
  uint64_t total = 0;
  for (const auto& s : samples_) {
    for (const RegionStore* st = &s.regions; st != nullptr; st = st->base()) {
      if (!counted.insert(st->storage_id()).second) break;
      total += st->RowBytes();
      if (st != &s.regions) total += st->ColumnarCacheBytes();
    }
    for (const auto& e : s.metadata.entries()) {
      total += sizeof(e) + e.attr.capacity() + e.value.capacity();
    }
  }
  return total;
}

uint64_t Dataset::ColumnarCacheBytes() const {
  std::unordered_set<const void*> counted;
  uint64_t total = 0;
  for (const auto& s : samples_) {
    if (counted.insert(s.regions.storage_id()).second) {
      total += s.ColumnarCacheBytes();
    }
  }
  return total;
}

uint64_t Dataset::EvictColumnarCaches(uint64_t* samples_evicted) {
  uint64_t freed = 0;
  for (const auto& s : samples_) {
    uint64_t b = s.EvictColumns();
    if (b > 0) {
      freed += b;
      if (samples_evicted != nullptr) ++*samples_evicted;
    }
  }
  return freed;
}

const Sample* Dataset::FindSample(SampleId id) const {
  for (const auto& s : samples_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::string Dataset::Describe(size_t max_samples, size_t max_regions) const {
  std::string out = "Dataset " + name_ + " [" + schema_.ToString() + "]  (" +
                    std::to_string(samples_.size()) + " samples, " +
                    std::to_string(TotalRegions()) + " regions)\n";
  size_t shown = 0;
  for (const auto& s : samples_) {
    if (shown++ >= max_samples) {
      out += "  ...\n";
      break;
    }
    out += "  sample " + std::to_string(s.id) + " (" +
           std::to_string(s.regions.size()) + " regions)\n";
    size_t rn = 0;
    for (const auto& r : s.regions) {
      if (rn++ >= max_regions) {
        out += "    ...\n";
        break;
      }
      out += "    " + std::to_string(s.id) + "\t" + r.ToString() + "\n";
    }
    for (const auto& e : s.metadata.entries()) {
      out += "    meta " + std::to_string(s.id) + "\t" + e.attr + "\t" +
             e.value + "\n";
    }
  }
  return out;
}

SampleId DeriveSampleId(const std::string& op_tag,
                        const std::vector<SampleId>& parents) {
  uint64_t h = Fnv1a64(op_tag);
  for (SampleId p : parents) h = HashCombine(h, Mix64(p));
  // Keep derived ids out of the small-integer space used by source samples.
  return h | (1ULL << 63);
}

}  // namespace gdms::gdm
