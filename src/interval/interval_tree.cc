#include "interval/interval_tree.h"

#include <algorithm>

namespace gdms::interval {

IntervalIndex::IntervalIndex(const std::vector<gdm::GenomicRegion>& regions) {
  entries_.reserve(regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    entries_.push_back(
        {regions[i].left, regions[i].right, regions[i].right, i});
  }
  // Sort by (chrom, left): chrom comes from the original regions, so sort an
  // index permutation keyed by it.
  std::vector<size_t> order(entries_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const auto& ra = regions[a];
    const auto& rb = regions[b];
    if (ra.chrom != rb.chrom) return ra.chrom < rb.chrom;
    if (ra.left != rb.left) return ra.left < rb.left;
    return ra.right < rb.right;
  });
  std::vector<Entry> sorted;
  sorted.reserve(entries_.size());
  for (size_t idx : order) {
    sorted.push_back({regions[idx].left, regions[idx].right, regions[idx].right,
                      idx});
  }
  entries_ = std::move(sorted);
  // Chromosome segments + per-segment augmentation.
  size_t i = 0;
  while (i < order.size()) {
    int32_t chrom = regions[order[i]].chrom;
    size_t j = i;
    while (j < order.size() && regions[order[j]].chrom == chrom) ++j;
    ChromRange cr{i, j, 0};
    cr.levels = BuildAugmentation(&entries_, i, j);
    chroms_.emplace(chrom, cr);
    i = j;
  }
}

int IntervalIndex::BuildAugmentation(std::vector<Entry>* entries, size_t begin,
                                     size_t end) {
  // cgranges-style implicit augmented tree (Li, "cgranges"): entries sorted
  // by left; max_right of each implicit internal node covers its subtree.
  int64_t n = static_cast<int64_t>(end - begin);
  if (n == 0) return 0;
  Entry* a = entries->data() + begin;
  int64_t last_i = 0;
  int64_t last = 0;
  for (int64_t i = 0; i < n; i += 2) {
    last_i = i;
    a[i].max_right = a[i].right;
    last = a[i].max_right;
  }
  int k = 1;
  for (; (1LL << k) <= n; ++k) {
    int64_t x = 1LL << (k - 1);
    int64_t i0 = (x << 1) - 1;
    int64_t step = x << 2;
    for (int64_t i = i0; i < n; i += step) {
      int64_t el = a[i - x].max_right;
      int64_t er = (i + x < n) ? a[i + x].max_right : last;
      int64_t e = a[i].right;
      if (el > e) e = el;
      if (er > e) e = er;
      a[i].max_right = e;
    }
    last_i = ((last_i >> k) & 1) ? last_i - x : last_i + x;
    if (last_i < n && a[last_i].max_right > last) last = a[last_i].max_right;
  }
  return k - 1;
}

void IntervalIndex::QueryRange(const ChromRange& cr, int64_t left,
                               int64_t right,
                               const std::function<void(size_t)>& sink) const {
  int64_t n = static_cast<int64_t>(cr.end - cr.begin);
  if (n == 0 || right <= left) return;
  const Entry* a = entries_.data() + cr.begin;
  struct Frame {
    int64_t x;
    int k;
    int w;
  };
  Frame stack[64];
  int t = 0;
  stack[t++] = {(1LL << cr.levels) - 1, cr.levels, 0};
  while (t > 0) {
    Frame z = stack[--t];
    if (z.k <= 3) {
      int64_t i0 = (z.x >> z.k) << z.k;
      int64_t i1 = i0 + (1LL << (z.k + 1)) - 1;
      if (i1 >= n) i1 = n;
      for (int64_t i = i0; i < i1 && a[i].left < right; ++i) {
        if (left < a[i].right) sink(a[i].original_index);
      }
    } else if (z.w == 0) {
      int64_t y = z.x - (1LL << (z.k - 1));
      stack[t++] = {z.x, z.k, 1};
      if (y >= n || a[y].max_right > left) stack[t++] = {y, z.k - 1, 0};
    } else if (z.x < n && a[z.x].left < right) {
      if (left < a[z.x].right) sink(a[z.x].original_index);
      stack[t++] = {z.x + (1LL << (z.k - 1)), z.k - 1, 0};
    }
  }
}

void IntervalIndex::Query(int32_t chrom, int64_t left, int64_t right,
                          const std::function<void(size_t)>& sink) const {
  auto it = chroms_.find(chrom);
  if (it == chroms_.end()) return;
  QueryRange(it->second, left, right, sink);
}

size_t IntervalIndex::CountOverlaps(int32_t chrom, int64_t left,
                                    int64_t right) const {
  size_t count = 0;
  Query(chrom, left, right, [&](size_t) { ++count; });
  return count;
}

}  // namespace gdms::interval
