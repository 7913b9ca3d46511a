#include "interval/accumulation.h"

#include <algorithm>

#include "interval/sweep.h"

namespace gdms::interval {

namespace {

using gdm::GenomicRegion;

bool InBounds(int64_t count, const CoverBounds& b) {
  if (count < b.min_acc) return false;
  if (b.max_acc >= 0 && count > b.max_acc) return false;
  return true;
}

}  // namespace

std::vector<AccSegment> AccumulationProfile(
    const std::vector<GenomicRegion>& regions) {
  // Event sweep per chromosome: +1 at left ends, -1 at right ends.
  std::vector<AccSegment> out;
  size_t i = 0;
  while (i < regions.size()) {
    int32_t chrom = regions[i].chrom;
    size_t j = i;
    while (j < regions.size() && regions[j].chrom == chrom) ++j;
    std::vector<std::pair<int64_t, int32_t>> events;  // (pos, +-1)
    events.reserve(2 * (j - i));
    for (size_t k = i; k < j; ++k) {
      if (regions[k].left == regions[k].right) continue;  // zero-length
      events.push_back({regions[k].left, +1});
      events.push_back({regions[k].right, -1});
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
        out.push_back({chrom, pos, next, acc});
      }
    }
    i = j;
  }
  return out;
}

int64_t MaxAccumulation(const std::vector<AccSegment>& profile) {
  int64_t mx = 0;
  for (const auto& s : profile) mx = std::max(mx, s.count);
  return mx;
}

CoverBounds ResolveBounds(CoverBounds bounds,
                          const std::vector<AccSegment>& profile) {
  return ResolveBounds(bounds, MaxAccumulation(profile));
}

CoverBounds ResolveBounds(CoverBounds bounds, int64_t mx) {
  if (bounds.min_acc == CoverBounds::kAll) bounds.min_acc = mx;
  if (bounds.max_acc == CoverBounds::kAll) bounds.max_acc = mx;
  // kAny for max stays negative (no bound); kAny for min means 1.
  if (bounds.min_acc == CoverBounds::kAny) bounds.min_acc = 1;
  return bounds;
}

std::vector<GenomicRegion> Cover(const std::vector<AccSegment>& profile,
                                 CoverBounds bounds) {
  bounds = ResolveBounds(bounds, profile);
  std::vector<GenomicRegion> out;
  for (const auto& s : profile) {
    if (!InBounds(s.count, bounds)) continue;
    if (!out.empty() && out.back().chrom == s.chrom &&
        out.back().right == s.left) {
      out.back().right = s.right;  // contiguous in-bounds segments merge
    } else {
      out.emplace_back(s.chrom, s.left, s.right, gdm::Strand::kNone);
    }
  }
  return out;
}

std::vector<GenomicRegion> Histogram(const std::vector<AccSegment>& profile,
                                     CoverBounds bounds,
                                     std::vector<int64_t>* counts) {
  bounds = ResolveBounds(bounds, profile);
  std::vector<GenomicRegion> out;
  if (counts != nullptr) counts->clear();
  for (const auto& s : profile) {
    if (!InBounds(s.count, bounds)) continue;
    out.emplace_back(s.chrom, s.left, s.right, gdm::Strand::kNone);
    if (counts != nullptr) counts->push_back(s.count);
  }
  return out;
}

std::vector<GenomicRegion> Summit(const std::vector<AccSegment>& profile,
                                  CoverBounds bounds,
                                  std::vector<int64_t>* counts) {
  bounds = ResolveBounds(bounds, profile);
  std::vector<GenomicRegion> out;
  if (counts != nullptr) counts->clear();
  for (size_t i = 0; i < profile.size(); ++i) {
    const auto& s = profile[i];
    if (!InBounds(s.count, bounds)) continue;
    // A summit is a segment whose count is >= its adjacent segments (and
    // strictly greater than at least one side unless it is a plateau edge).
    int64_t prev = 0;
    int64_t next = 0;
    if (i > 0 && profile[i - 1].chrom == s.chrom &&
        profile[i - 1].right == s.left) {
      prev = profile[i - 1].count;
    }
    if (i + 1 < profile.size() && profile[i + 1].chrom == s.chrom &&
        profile[i + 1].left == s.right) {
      next = profile[i + 1].count;
    }
    if (s.count >= prev && s.count >= next &&
        (s.count > prev || s.count > next || (prev == 0 && next == 0))) {
      out.emplace_back(s.chrom, s.left, s.right, gdm::Strand::kNone);
      if (counts != nullptr) counts->push_back(s.count);
    }
  }
  return out;
}

std::vector<GenomicRegion> Flat(const std::vector<AccSegment>& profile,
                                CoverBounds bounds,
                                const std::vector<GenomicRegion>& inputs) {
  std::vector<GenomicRegion> covers = Cover(profile, bounds);
  if (covers.empty()) return covers;
  std::vector<GenomicRegion> out = covers;
  OverlapJoin(covers, inputs, [&](size_t ci, size_t ii) {
    out[ci].left = std::min(out[ci].left, inputs[ii].left);
    out[ci].right = std::max(out[ci].right, inputs[ii].right);
  });
  // Extension can make neighbours overlap; merge them.
  return MergeTouching(out);
}

}  // namespace gdms::interval
