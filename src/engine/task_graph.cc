#include "engine/task_graph.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "core/operators.h"
#include "obs/metrics.h"

namespace gdms::engine {

namespace {

/// Cross-product cap above which a sample's joinby keys are not enumerated
/// and the sample falls back to the direct O(S) metadata scan.
constexpr size_t kMaxKeysPerSample = 64;

/// Length-prefixed concatenation of one value tuple; unambiguous for
/// arbitrary metadata values.
std::string EncodeKey(const std::vector<const std::string*>& tuple) {
  std::string key;
  for (const std::string* v : tuple) {
    key += std::to_string(v->size());
    key += ':';
    key += *v;
  }
  return key;
}

/// All joinby key tuples of one sample: the cross-product of its value sets
/// over the joinby attributes. Empty result means "matches nothing" (some
/// attribute has no value) — unless `overflow` is set, in which case the
/// cross-product exceeded the cap and the caller must fall back to scanning.
std::vector<std::string> SampleKeys(const gdm::Metadata& meta,
                                    const std::vector<std::string>& joinby,
                                    bool* overflow) {
  *overflow = false;
  std::vector<std::vector<std::string>> values(joinby.size());
  size_t product = 1;
  for (size_t a = 0; a < joinby.size(); ++a) {
    values[a] = meta.ValuesOf(joinby[a]);
    if (values[a].empty()) return {};
    product *= values[a].size();
    if (product > kMaxKeysPerSample) {
      *overflow = true;
      return {};
    }
  }
  std::vector<std::string> keys;
  keys.reserve(product);
  std::vector<size_t> odometer(joinby.size(), 0);
  std::vector<const std::string*> tuple(joinby.size());
  while (true) {
    for (size_t a = 0; a < joinby.size(); ++a) {
      tuple[a] = &values[a][odometer[a]];
    }
    keys.push_back(EncodeKey(tuple));
    size_t a = joinby.size();
    while (a > 0) {
      --a;
      if (++odometer[a] < values[a].size()) break;
      odometer[a] = 0;
      if (a == 0) return keys;
    }
  }
}

}  // namespace

void AppendChunkPartitions(const gdm::RegionColumns& refs,
                           const gdm::RegionColumns& exps,
                           std::vector<TaskPartition>* out) {
  for (const gdm::ColumnChunk& rc : refs.chunks()) {
    const gdm::ColumnChunk* ec = exps.FindChunk(rc.chrom);
    if (ec != nullptr) out->push_back({rc.begin, rc.end, ec->begin, ec->end});
  }
}

std::vector<std::pair<size_t, size_t>> MatchJoinbyPairs(
    const gdm::Dataset& left, const gdm::Dataset& right,
    const std::vector<std::string>& joinby) {
  static obs::Counter* matched = obs::MetricsRegistry::Global().GetCounter(
      "gdms_engine_joinby_pairs_total");
  std::vector<std::pair<size_t, size_t>> pairs;
  if (joinby.empty()) {
    pairs.reserve(left.num_samples() * right.num_samples());
    for (size_t l = 0; l < left.num_samples(); ++l) {
      for (size_t r = 0; r < right.num_samples(); ++r) {
        pairs.emplace_back(l, r);
      }
    }
    matched->Add(pairs.size());
    return pairs;
  }

  // Group right samples by key tuple; cross-product overflows go to the
  // scan list and are checked directly per left sample.
  std::unordered_map<std::string, std::vector<size_t>> by_key;
  std::vector<size_t> scan_right;
  for (size_t r = 0; r < right.num_samples(); ++r) {
    bool overflow = false;
    auto keys = SampleKeys(right.sample(r).metadata, joinby, &overflow);
    if (overflow) {
      scan_right.push_back(r);
      continue;
    }
    for (auto& key : keys) by_key[std::move(key)].push_back(r);
  }

  // A key-tuple collision IS a match: sharing one tuple means sharing a
  // value on every attribute, which is exactly JoinbyMatch. Dedup via
  // stamps (a pair can collide on several tuples).
  std::vector<size_t> stamp(right.num_samples(), SIZE_MAX);
  std::vector<size_t> candidates;
  for (size_t l = 0; l < left.num_samples(); ++l) {
    const gdm::Sample& ls = left.sample(l);
    candidates.clear();
    bool overflow = false;
    auto keys = SampleKeys(ls.metadata, joinby, &overflow);
    if (overflow) {
      for (size_t r = 0; r < right.num_samples(); ++r) {
        if (core::Operators::JoinbyMatch(joinby, ls.metadata,
                                         right.sample(r).metadata)) {
          candidates.push_back(r);
        }
      }
    } else {
      for (const auto& key : keys) {
        auto it = by_key.find(key);
        if (it == by_key.end()) continue;
        for (size_t r : it->second) {
          if (stamp[r] != l) {
            stamp[r] = l;
            candidates.push_back(r);
          }
        }
      }
      for (size_t r : scan_right) {
        if (core::Operators::JoinbyMatch(joinby, ls.metadata,
                                         right.sample(r).metadata)) {
          candidates.push_back(r);
        }
      }
      std::sort(candidates.begin(), candidates.end());
    }
    for (size_t r : candidates) pairs.emplace_back(l, r);
  }
  matched->Add(pairs.size());
  return pairs;
}

}  // namespace gdms::engine
