#include "interval/batch.h"

#include <algorithm>
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
  // Mirror of AccumulationProfile's per-chromosome event sweep.
  std::vector<std::pair<int64_t, int32_t>> events;
  events.reserve(2 * n);
  for (size_t k = 0; k < n; ++k) {
    if (lefts[k] == rights[k]) continue;  // zero-length
    events.push_back({lefts[k], +1});
    events.push_back({rights[k], -1});
  }
  std::sort(events.begin(), events.end());
  int64_t acc = 0;
  size_t e = 0;
  while (e < events.size()) {
    int64_t pos = events[e].first;
    while (e < events.size() && events[e].first == pos) {
      acc += events[e].second;
      ++e;
    }
    if (e >= events.size()) break;
    int64_t next = events[e].first;
    if (acc > 0 && next > pos) {
      out->push_back({chrom, pos, next, acc});
    }
  }
}

}  // namespace gdms::interval
