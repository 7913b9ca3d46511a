#include "interval/batch.h"

#include <algorithm>
#include <utility>

namespace gdms::interval {

namespace {

/// Same structure as WindowSweep(window = 0) in sweep.cc, specialized to one
/// chromosome and dense coordinate arrays: admission (el[j] < ref right),
/// prune (er[a] > ref left), emit in active-list order. The admission
/// re-test equals the Overlaps predicate at window 0, so the emitted pair
/// set and order are exactly the row kernel's.
template <typename T>
void CollectOverlapsImpl(const T* rl, const T* rr, size_t n, const T* el,
                         const T* er, size_t m, std::vector<MatchPair>* out) {
  size_t j = 0;
  std::vector<uint32_t> active;
  for (size_t i = 0; i < n; ++i) {
    const int64_t ref_left = rl[i];
    const int64_t ref_right = rr[i];
    while (j < m && el[j] < ref_right) {
      active.push_back(static_cast<uint32_t>(j));
      ++j;
    }
    size_t keep = 0;
    for (uint32_t a : active) {
      if (er[a] > ref_left) active[keep++] = a;
    }
    active.resize(keep);
    for (uint32_t a : active) {
      if (el[a] < ref_right) {
        out->push_back({static_cast<uint32_t>(i), a});
      }
    }
  }
}

template <typename T>
void ExistsOverlapImpl(const T* rl, const T* rr, size_t n, const T* el,
                       const T* er, size_t m, size_t flag_offset,
                       std::vector<char>* flags) {
  size_t j = 0;
  std::vector<uint32_t> active;
  for (size_t i = 0; i < n; ++i) {
    const int64_t ref_left = rl[i];
    const int64_t ref_right = rr[i];
    while (j < m && el[j] < ref_right) {
      active.push_back(static_cast<uint32_t>(j));
      ++j;
    }
    size_t keep = 0;
    for (uint32_t a : active) {
      if (er[a] > ref_left) active[keep++] = a;
    }
    active.resize(keep);
    for (uint32_t a : active) {
      if (el[a] < ref_right) {
        (*flags)[flag_offset + i] = 1;
        break;
      }
    }
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
                     std::vector<MatchPair>* out) {
  if (refs.size == 0 || exps.size == 0) return;
  if (refs.narrow() && exps.narrow()) {
    CollectOverlapsImpl<int32_t>(refs.l32, refs.r32, refs.size, exps.l32,
                                 exps.r32, exps.size, out);
    return;
  }
  // Mixed-width pairs are rare (one sample escaped to int64); widen on the
  // fly via the accessor-based fallback.
  size_t j = 0;
  std::vector<uint32_t> active;
  for (size_t i = 0; i < refs.size; ++i) {
    const int64_t ref_left = refs.left(i);
    const int64_t ref_right = refs.right(i);
    while (j < exps.size && exps.left(j) < ref_right) {
      active.push_back(static_cast<uint32_t>(j));
      ++j;
    }
    size_t keep = 0;
    for (uint32_t a : active) {
      if (exps.right(a) > ref_left) active[keep++] = a;
    }
    active.resize(keep);
    for (uint32_t a : active) {
      if (exps.left(a) < ref_right) {
        out->push_back({static_cast<uint32_t>(i), a});
      }
    }
  }
}

void ExistsOverlapInto(const CoordView& refs, const CoordView& exps,
                       size_t flag_offset, std::vector<char>* flags) {
  if (refs.size == 0 || exps.size == 0) return;
  if (refs.narrow() && exps.narrow()) {
    ExistsOverlapImpl<int32_t>(refs.l32, refs.r32, refs.size, exps.l32,
                               exps.r32, exps.size, flag_offset, flags);
  } else {
    std::vector<MatchPair> pairs;
    CollectOverlaps(refs, exps, &pairs);
    for (const MatchPair& p : pairs) (*flags)[flag_offset + p.ref] = 1;
  }
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
