#ifndef GDMS_INTERVAL_INTERVAL_TREE_H_
#define GDMS_INTERVAL_INTERVAL_TREE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "gdm/region.h"

namespace gdms::interval {

/// \brief Static stabbing index over a set of regions.
///
/// An implicit augmented interval layout (cgranges-style): regions are
/// sorted by (chrom, left) and each entry carries the maximum right end of
/// the subtree rooted at it in the implicit binary layout. Build once,
/// query many times — used for random-access overlap queries (feature
/// search, genome-browser style probes) where a full sweep would be wasteful.
class IntervalIndex {
 public:
  IntervalIndex() = default;

  /// Builds the index over `regions`; the vector must outlive the index.
  /// Regions need not be pre-sorted.
  explicit IntervalIndex(const std::vector<gdm::GenomicRegion>& regions);

  /// Invokes `sink` with the index (into the original vector) of each region
  /// overlapping [left, right) on `chrom`.
  void Query(int32_t chrom, int64_t left, int64_t right,
             const std::function<void(size_t)>& sink) const;

  /// Number of regions overlapping [left, right) on `chrom`.
  size_t CountOverlaps(int32_t chrom, int64_t left, int64_t right) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    int64_t left;
    int64_t right;
    int64_t max_right;  // max right end within the implicit subtree
    size_t original_index;
  };

  struct ChromRange {
    size_t begin = 0;
    size_t end = 0;
    int levels = 0;
  };

  static int BuildAugmentation(std::vector<Entry>* entries, size_t begin,
                               size_t end);
  void QueryRange(const ChromRange& cr, int64_t left, int64_t right,
                  const std::function<void(size_t)>& sink) const;

  std::vector<Entry> entries_;
  std::unordered_map<int32_t, ChromRange> chroms_;
};

}  // namespace gdms::interval

#endif  // GDMS_INTERVAL_INTERVAL_TREE_H_
