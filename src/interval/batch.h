#ifndef GDMS_INTERVAL_BATCH_H_
#define GDMS_INTERVAL_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <tuple>
#include <vector>

#include "gdm/region_columns.h"
#include "interval/accumulation.h"

namespace gdms::interval {

/// \brief A borrowed view over one chromosome's sorted coordinate columns.
///
/// The batch kernels sweep these dense arrays instead of row-structured
/// GenomicRegion vectors: no Value payloads in the cache lines, 4-byte
/// elements in the common (narrow) case. Exactly one of the 32/64-bit
/// pointer pairs is set; the kernels are instantiated per width pairing.
struct CoordView {
  const int32_t* l32 = nullptr;
  const int32_t* r32 = nullptr;
  const int64_t* l64 = nullptr;
  const int64_t* r64 = nullptr;
  size_t size = 0;

  bool narrow() const { return l32 != nullptr; }

  /// View over rows [begin, end) of `cols` — typically one ColumnChunk's
  /// range, since a view carries no chromosome ids of its own.
  static CoordView Of(const gdm::RegionColumns& cols, size_t begin,
                      size_t end);
};

/// One overlap match between a ref row and an exp row, as indices local to
/// the two views (add the chunk offsets back to address the full columns).
struct MatchPair {
  uint32_t ref = 0;
  uint32_t exp = 0;
};

/// \brief Batch overlap sweep: appends every overlapping (ref, exp) pair to
/// `out` in the same order the row-based OverlapJoin reports them (refs
/// ascending, active exps ascending per ref) so downstream accumulation is
/// bit-identical to the reference executor's. A `window` w > 0 widens the
/// sweep to DistanceJoin's: every pair at genometric distance < w, in
/// DistanceJoin(min_dist = INT64_MIN / 4, max_dist = w - 1) order.
///
/// Both views must cover a single chromosome and be sorted by (left, right).
void CollectOverlaps(const CoordView& refs, const CoordView& exps,
                     int64_t window, std::vector<MatchPair>* out);

/// \brief Batch exists-overlap: sets flags[flag_offset + i] for each ref row
/// i of the view that overlaps at least one exp row. Flags are never
/// cleared, so one flag vector can accumulate across chromosome chunks.
void ExistsOverlapInto(const CoordView& refs, const CoordView& exps,
                       size_t flag_offset, std::vector<char>* flags);

/// \brief Accumulation profile from sorted coordinate pairs of a single
/// chromosome, appended to `out`. Identical output to AccumulationProfile
/// over the equivalent rows (zero-length regions are skipped).
void ProfileFromCoords(int32_t chrom, const int64_t* lefts,
                       const int64_t* rights, size_t n,
                       std::vector<AccSegment>* out);

/// Rows [begin, end) of a sample's columns: typically one chromosome's
/// chunk.
struct ColumnSlice {
  const gdm::RegionColumns* cols = nullptr;
  size_t begin = 0;
  size_t end = 0;
};

/// \brief K-way merge of coordinate-sorted slices (one chromosome): calls
/// emit(slice, row) once per row of every slice, in (left, right, strand)
/// order, breaking ties by slice index and then row. That is the order a
/// stable sort of the slices' concatenation yields, without re-sorting rows
/// that are already in order.
template <typename Emit>
void MergeSlices(const std::vector<ColumnSlice>& slices, Emit&& emit) {
  if (slices.size() == 1) {
    for (size_t row = slices[0].begin; row < slices[0].end; ++row) {
      emit(size_t{0}, row);
    }
    return;
  }
  struct Head {
    int64_t left, right;
    uint8_t strand;
    size_t slice, row;
  };
  auto after = [](const Head& a, const Head& b) {
    return std::tie(a.left, a.right, a.strand, a.slice) >
           std::tie(b.left, b.right, b.strand, b.slice);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heads(after);
  auto push = [&](size_t s, size_t row) {
    if (row == slices[s].end) return;
    const gdm::RegionColumns& c = *slices[s].cols;
    heads.push({c.left(row), c.right(row),
                static_cast<uint8_t>(c.strand(row)), s, row});
  };
  for (size_t s = 0; s < slices.size(); ++s) push(s, slices[s].begin);
  while (!heads.empty()) {
    Head h = heads.top();
    heads.pop();
    emit(h.slice, h.row);
    push(h.slice, h.row + 1);
  }
}

}  // namespace gdms::interval

#endif  // GDMS_INTERVAL_BATCH_H_
