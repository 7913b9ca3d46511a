#ifndef GDMS_GDM_DATASET_H_
#define GDMS_GDM_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "gdm/metadata.h"
#include "gdm/region.h"
#include "gdm/region_columns.h"
#include "gdm/region_store.h"
#include "gdm/schema.h"

namespace gdms::gdm {

/// Sample identifier. Source samples get small ids; derived samples get
/// content-hashed ids so provenance is reproducible (paper, Section 2:
/// "tracing provenance ... is a unique aspect of our approach").
using SampleId = uint64_t;

/// \brief One biological sample: an id, its regions, and its metadata.
///
/// The sample id is the many-to-many connection between regions and metadata
/// (Figure 2). Regions are kept coordinate-sorted by convention; operations
/// that construct samples call SortNow() (or produce sorted output directly).
///
/// Copying a sample shares its regions (copy-on-write, see RegionStore):
/// reading `regions` never copies, while `regions.mutable_rows()` gives the
/// sample rows of its own. Writers follow three rules:
///  * share a sample's regions only with samples of a dataset with the same
///    schema (the shared columns are built against one schema);
///  * take `regions.mutable_rows()` once per loop, not once per row — the
///    `io` readers and `sim` generators bind it before their row loops;
///  * take it again after any columns() call, which builds a layout of the
///    rows as they are at that moment.
struct Sample {
  SampleId id = 0;
  Metadata metadata;
  RegionStore regions;

  Sample() = default;
  explicit Sample(SampleId sample_id) : id(sample_id) {}

  size_t num_regions() const { return regions.size(); }

  void SortNow() { SortRegions(&regions.mutable_rows()); }
  bool IsSorted() const { return RegionsSorted(regions); }

  /// The columnar (SoA) layout over `regions` (see gdm/region_columns.h),
  /// built against the owning dataset's `schema`; see
  /// RegionStore::columns().
  const RegionColumns& columns(const RegionSchema& schema) const {
    return regions.columns(schema);
  }

  /// See RegionStore::ColumnarCacheBytes() / EvictColumns().
  uint64_t ColumnarCacheBytes() const { return regions.ColumnarCacheBytes(); }
  uint64_t EvictColumns() const { return regions.EvictColumns(); }
};

/// \brief A named dataset: samples sharing one region schema.
///
/// The GDM constraint (Section 2): "data samples can be included into a named
/// dataset when their genomic regions have the same schema". Validate()
/// enforces it structurally (value arity and types).
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, RegionSchema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const RegionSchema& schema() const { return schema_; }
  RegionSchema* mutable_schema() { return &schema_; }

  const std::vector<Sample>& samples() const { return samples_; }
  std::vector<Sample>* mutable_samples() { return &samples_; }

  size_t num_samples() const { return samples_.size(); }
  const Sample& sample(size_t i) const { return samples_[i]; }
  Sample* mutable_sample(size_t i) { return &samples_[i]; }

  void AddSample(Sample sample) { samples_.push_back(std::move(sample)); }

  /// Total number of regions across samples.
  uint64_t TotalRegions() const;

  /// Total number of metadata entries across samples.
  uint64_t TotalMetadata() const;

  /// Checks the GDM constraint: every region of every sample has exactly
  /// schema().size() values whose types match the schema (NULL always
  /// matches), region coordinates are valid (left <= right), and sample ids
  /// are unique within the dataset. A column-primary sample (see
  /// RegionStore) is checked on its columns, without building its rows.
  Status Validate() const;

  /// `failure` (a corrupt stored attribute payload a query read, see
  /// AttrReadLog) as a ParseError naming the attribute, sample and dataset
  /// when its columns are one of this dataset's stored samples; OK when
  /// they are not.
  Status NameReadFailure(const AttrReadLog::Failure& failure) const;

  /// Decodes every attribute of every column-primary sample — stored
  /// (.gdmz), or composed over one (a MAP output's shared ref attributes) —
  /// that has not been decoded yet, for callers that pay that cost up front
  /// instead of at first use. A corrupt payload is reported as on any read
  /// (RegionColumns::attr()), naming the stored sample.
  void DecodeStoredAttrs() const;

  /// Estimated serialized size in bytes (used by the federated protocol's
  /// size estimates and by the E1 experiment's "29 GB" figure).
  uint64_t EstimateBytes() const;

  /// Estimated in-memory (resident) bytes of the regions' primary form
  /// (RegionStore::RowBytes(): rows, or the columns a column-primary store
  /// owns) and the metadata. Derived layouts (the columns beside rows) are
  /// not included — except a composed store's base columns, which it holds
  /// — and region storage shared by several samples counts once, also the
  /// base store a composed store holds (a MAP output's ref sample, with
  /// its columns). Storage shared with a sample of `inputs` counts nothing,
  /// so an operator output that passes its input's regions through is
  /// charged for its metadata only, and a MAP output for its aggregate
  /// columns and metadata.
  uint64_t EstimateResidentBytes(
      const std::vector<const Dataset*>& inputs = {}) const;

  /// Resident bytes of the samples' built columnar caches (the reclaimable
  /// overlay the resource shedder may drop; 0 when nothing is built).
  /// Region storage shared by several samples counts once. A storage this
  /// dataset shares with another dataset counts in both: per-dataset
  /// gauges summed across datasets overstate shared columns.
  uint64_t ColumnarCacheBytes() const;

  /// Evicts every sample's columnar cache (EvictColumns per sample),
  /// returning total bytes freed and counting evicted samples in
  /// `*samples_evicted` when non-null. Eviction drops the columns of a
  /// shared storage for every holder, other datasets included; the freed
  /// bytes are counted once, by the first holder evicted.
  uint64_t EvictColumnarCaches(uint64_t* samples_evicted = nullptr);

  /// Finds a sample by id; nullptr if absent.
  const Sample* FindSample(SampleId id) const;

  /// Renders the first `max_samples` samples / `max_regions` regions per
  /// sample, Figure 2 style (region table + metadata triples).
  std::string Describe(size_t max_samples = 2, size_t max_regions = 5) const;

 private:
  /// The attribute-type half of Validate() for a column-primary sample.
  Status ValidateColumns(const RegionColumns& cols) const;

  std::string name_;
  RegionSchema schema_;
  std::vector<Sample> samples_;
};

/// Derives a reproducible sample id from an operation tag and parent ids,
/// e.g. DeriveSampleId("MAP", {ref_id, exp_id}).
SampleId DeriveSampleId(const std::string& op_tag,
                        const std::vector<SampleId>& parents);

}  // namespace gdms::gdm

#endif  // GDMS_GDM_DATASET_H_
