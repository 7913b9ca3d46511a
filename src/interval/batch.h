#ifndef GDMS_INTERVAL_BATCH_H_
#define GDMS_INTERVAL_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
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

/// \brief Accumulation profile from coordinate pairs of a single
/// chromosome whose left ends ascend (MergeSlices' order), appended to
/// `out`. Identical output to AccumulationProfile over the equivalent rows
/// (zero-length regions are skipped).
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
///
/// A loser tree holds each slice's head row: internal node t (1 <= t < k)
/// keeps the loser of the match played there, node 0 the overall winner,
/// and slice s enters at node (s + k) / 2. Each emitted row costs one replay
/// of about log2(k) comparisons up its slice's path.
template <typename Emit>
void MergeSlices(const std::vector<ColumnSlice>& slices, Emit&& emit) {
  const size_t k = slices.size();
  if (k == 0) return;
  struct Head {
    int64_t left = 0;
    int64_t right = 0;
    uint8_t strand = 0;
    bool done = false;
    size_t row = 0;
  };
  std::vector<Head> heads(k);
  auto load = [&](size_t s, size_t row) {
    Head& h = heads[s];
    h.row = row;
    h.done = row == slices[s].end;
    if (h.done) return;
    const gdm::RegionColumns& c = *slices[s].cols;
    h.left = c.left(row);
    h.right = c.right(row);
    h.strand = static_cast<uint8_t>(c.strand(row));
  };
  // True when slice a's head goes first; an exhausted slice goes last.
  auto before = [&](size_t a, size_t b) {
    const Head& x = heads[a];
    const Head& y = heads[b];
    if (x.done || y.done) return !x.done;
    return std::tie(x.left, x.right, x.strand, a) <
           std::tie(y.left, y.right, y.strand, b);
  };
  constexpr size_t kEmpty = SIZE_MAX;
  std::vector<size_t> tree(k, kEmpty);
  // Each slice climbs until it parks at an empty node (to wait for the
  // other side's winner) or, having won every match, reaches the root.
  for (size_t s = 0; s < k; ++s) {
    load(s, slices[s].begin);
    size_t w = s;
    for (size_t t = (s + k) / 2; t > 0 && w != kEmpty; t /= 2) {
      if (tree[t] == kEmpty) {
        tree[t] = w;
        w = kEmpty;
      } else if (before(tree[t], w)) {
        std::swap(tree[t], w);
      }
    }
    if (w != kEmpty) tree[0] = w;
  }
  while (!heads[tree[0]].done) {
    size_t w = tree[0];
    emit(w, heads[w].row);
    load(w, heads[w].row + 1);
    for (size_t t = (w + k) / 2; t > 0; t /= 2) {
      if (before(tree[t], w)) std::swap(tree[t], w);
    }
    tree[0] = w;
  }
}

}  // namespace gdms::interval

#endif  // GDMS_INTERVAL_BATCH_H_
