#include "interval/batch.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace gdms::interval {

namespace {

/// WindowSweep in sweep.cc, specialized to one chromosome and dense
/// coordinate arrays of either width: admission (el[j] < ref right +
/// window), prune (er[a] > ref left - window), then match(i, a) for each
/// active exp that passes the admission re-test, in active-list order, until
/// it returns true. At window 0 the re-test equals the Overlaps predicate;
/// at window w > 0 it admits exactly the pairs at genometric distance
/// < w. Either way the matched pair set and order are the row kernel's.
template <typename R, typename E, typename Match>
void Sweep(const R* rl, const R* rr, size_t n, const E* el, const E* er,
           size_t m, int64_t window, Match& match) {
  size_t j = 0;
  std::vector<uint32_t> active;
  for (size_t i = 0; i < n; ++i) {
    const int64_t reach_left = rl[i] - window;
    const int64_t reach_right = rr[i] + window;
    while (j < m && el[j] < reach_right) {
      active.push_back(static_cast<uint32_t>(j));
      ++j;
    }
    size_t keep = 0;
    for (uint32_t a : active) {
      if (er[a] > reach_left) active[keep++] = a;
    }
    active.resize(keep);
    for (uint32_t a : active) {
      if (el[a] < reach_right && match(i, a)) break;
    }
  }
}

/// Sweep instantiated for the two views' own coordinate widths.
template <typename Match>
void SweepViews(const CoordView& refs, const CoordView& exps, int64_t window,
                Match match) {
  if (refs.size == 0 || exps.size == 0) return;
  auto over_exps = [&](const auto* rl, const auto* rr) {
    if (exps.narrow()) {
      Sweep(rl, rr, refs.size, exps.l32, exps.r32, exps.size, window, match);
    } else {
      Sweep(rl, rr, refs.size, exps.l64, exps.r64, exps.size, window, match);
    }
  };
  if (refs.narrow()) {
    over_exps(refs.l32, refs.r32);
  } else {
    over_exps(refs.l64, refs.r64);
  }
}

/// Ascending LSD radix sort of `v` on its offsets from the minimum, 11 bits
/// a pass, with only as many passes as the value range needs (three for a
/// chromosome under 8 Gb).
void RadixSort(std::vector<int64_t>* v) {
  if (v->size() < 2) return;
  const auto [lo, hi] = std::minmax_element(v->begin(), v->end());
  const uint64_t base = static_cast<uint64_t>(*lo);
  const uint64_t range = static_cast<uint64_t>(*hi) - base;
  constexpr int kBits = 11;
  constexpr size_t kMask = (size_t{1} << kBits) - 1;
  std::vector<int64_t> scratch(v->size());
  std::vector<size_t> offset(kMask + 1);
  for (int shift = 0; shift < 64 && (range >> shift) != 0; shift += kBits) {
    auto digit = [&](int64_t x) {
      return ((static_cast<uint64_t>(x) - base) >> shift) & kMask;
    };
    std::fill(offset.begin(), offset.end(), 0);
    for (int64_t x : *v) ++offset[digit(x)];
    size_t sum = 0;
    for (size_t& o : offset) sum += std::exchange(o, sum);
    for (int64_t x : *v) scratch[offset[digit(x)]++] = x;
    v->swap(scratch);
  }
}

}  // namespace

CoordView CoordView::Of(const gdm::RegionColumns& cols, size_t begin,
                        size_t end) {
  CoordView v;
  v.size = end - begin;
  if (cols.narrow()) {
    v.l32 = cols.left32().data() + begin;
    v.r32 = cols.right32().data() + begin;
  } else {
    v.l64 = cols.left64().data() + begin;
    v.r64 = cols.right64().data() + begin;
  }
  return v;
}

void CollectOverlaps(const CoordView& refs, const CoordView& exps,
                     int64_t window, std::vector<MatchPair>* out) {
  SweepViews(refs, exps, window, [out](size_t i, uint32_t a) {
    out->push_back({static_cast<uint32_t>(i), a});
    return false;
  });
}

void ExistsOverlapInto(const CoordView& refs, const CoordView& exps,
                       size_t flag_offset, std::vector<char>* flags) {
  SweepViews(refs, exps, 0, [&](size_t i, uint32_t) {
    (*flags)[flag_offset + i] = 1;
    return true;  // one match settles the ref
  });
}

void ProfileFromCoords(int32_t chrom, const int64_t* lefts,
                       const int64_t* rights, size_t n,
                       std::vector<AccSegment>* out) {
  // AccumulationProfile's event sweep without its event sort: the +1 events
  // (left ends) arrive sorted, so only the -1 events (right ends) are
  // sorted. Both sequences end in a sentinel past every coordinate. Each
  // step folds the next start and/or end at the current position, and a
  // segment is emitted once every event at that position is folded in.
  constexpr int64_t kEnd = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> starts;
  std::vector<int64_t> ends;
  starts.reserve(n + 1);
  ends.reserve(n + 1);
  for (size_t k = 0; k < n; ++k) {
    if (lefts[k] == rights[k]) continue;  // zero-length
    starts.push_back(lefts[k]);
    ends.push_back(rights[k]);
  }
  RadixSort(&ends);
  starts.push_back(kEnd);
  ends.push_back(kEnd);
  size_t i = 0;
  size_t j = 0;
  int64_t acc = 0;
  for (int64_t pos = std::min(starts[0], ends[0]); pos != kEnd;) {
    const bool start = starts[i] == pos;
    const bool end = ends[j] == pos;
    i += start;
    j += end;
    acc += int64_t{start} - int64_t{end};
    const int64_t next = std::min(starts[i], ends[j]);
    if (next != pos && acc > 0) out->push_back({chrom, pos, next, acc});
    pos = next;
  }
}

}  // namespace gdms::interval
