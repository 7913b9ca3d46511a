#ifndef GDMS_INTERVAL_ACCUMULATION_H_
#define GDMS_INTERVAL_ACCUMULATION_H_

#include <cstdint>
#include <vector>

#include "gdm/region.h"

namespace gdms::interval {

/// One maximal genomic segment with constant accumulation (overlap count).
struct AccSegment {
  int32_t chrom;
  int64_t left;
  int64_t right;
  int64_t count;  // number of input regions covering every base of the segment
};

/// \brief Computes the accumulation profile of a region multiset.
///
/// The profile is the sequence of maximal constant-count segments with
/// count > 0, in coordinate order — the primitive beneath GMQL's COVER
/// family (COVER / FLAT / SUMMIT / HISTOGRAM). Input must be sorted.
std::vector<AccSegment> AccumulationProfile(
    const std::vector<gdm::GenomicRegion>& regions);

/// Bounds for COVER: minimum and maximum accepted accumulation.
/// `max_acc` of kAny means "no upper bound" (the GMQL ANY keyword);
/// `min_acc` of kAll means "the maximum accumulation observed" (ALL).
struct CoverBounds {
  static constexpr int64_t kAny = -1;
  static constexpr int64_t kAll = -2;
  int64_t min_acc = 1;
  int64_t max_acc = kAny;
};

/// COVER: merges consecutive profile segments whose count lies within
/// bounds into maximal result regions.
std::vector<gdm::GenomicRegion> Cover(const std::vector<AccSegment>& profile,
                                      CoverBounds bounds);

/// HISTOGRAM: one region per profile segment within bounds; the segment
/// count is exposed by the caller (returned parallel vector).
std::vector<gdm::GenomicRegion> Histogram(
    const std::vector<AccSegment>& profile, CoverBounds bounds,
    std::vector<int64_t>* counts);

/// SUMMIT: regions of local accumulation maxima within bounds (count
/// strictly greater than both neighbouring in-cover segments).
std::vector<gdm::GenomicRegion> Summit(const std::vector<AccSegment>& profile,
                                       CoverBounds bounds,
                                       std::vector<int64_t>* counts);

/// FLAT: for each COVER region, extends to the union span of every input
/// region that intersects it. Inputs must be sorted.
std::vector<gdm::GenomicRegion> Flat(
    const std::vector<AccSegment>& profile, CoverBounds bounds,
    const std::vector<gdm::GenomicRegion>& inputs);

/// Maximum accumulation in a profile (0 if empty).
int64_t MaxAccumulation(const std::vector<AccSegment>& profile);

/// Resolves ANY/ALL placeholders against a profile's max accumulation.
CoverBounds ResolveBounds(CoverBounds bounds,
                          const std::vector<AccSegment>& profile);

/// Resolves ANY/ALL placeholders against a maximum accumulation (a COVER
/// group's, over profiles computed per chromosome).
CoverBounds ResolveBounds(CoverBounds bounds, int64_t max_acc);

}  // namespace gdms::interval

#endif  // GDMS_INTERVAL_ACCUMULATION_H_
