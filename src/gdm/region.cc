#include "gdm/region.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace gdms::gdm {

char StrandChar(Strand s) {
  switch (s) {
    case Strand::kPlus:
      return '+';
    case Strand::kMinus:
      return '-';
    case Strand::kNone:
      return '*';
  }
  return '*';
}

Strand StrandFromChar(char c) {
  if (c == '+') return Strand::kPlus;
  if (c == '-') return Strand::kMinus;
  return Strand::kNone;
}

namespace {

struct ChromDictImpl {
  mutable std::shared_mutex mu;
  std::unordered_map<std::string, int32_t> by_name;
  std::vector<std::string> by_id;
};

}  // namespace

struct ChromDictImplAccess {
  static ChromDictImpl* Get(const ChromDict& dict) {
    if (dict.impl_ == nullptr) {
      dict.impl_ = new ChromDictImpl();
    }
    return static_cast<ChromDictImpl*>(dict.impl_);
  }
};

ChromDict& ChromDict::Global() {
  static ChromDict* kDict = new ChromDict();
  return *kDict;
}

int32_t ChromDict::Intern(const std::string& name) {
  ChromDictImpl* impl = ChromDictImplAccess::Get(*this);
  {
    std::shared_lock<std::shared_mutex> lk(impl->mu);
    auto it = impl->by_name.find(name);
    if (it != impl->by_name.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lk(impl->mu);
  auto it = impl->by_name.find(name);
  if (it != impl->by_name.end()) return it->second;
  int32_t id = static_cast<int32_t>(impl->by_id.size());
  impl->by_id.push_back(name);
  impl->by_name.emplace(name, id);
  return id;
}

std::string ChromDict::Name(int32_t id) const {
  ChromDictImpl* impl = ChromDictImplAccess::Get(*this);
  std::shared_lock<std::shared_mutex> lk(impl->mu);
  if (id < 0 || static_cast<size_t>(id) >= impl->by_id.size()) return "?";
  return impl->by_id[id];
}

size_t ChromDict::size() const {
  ChromDictImpl* impl = ChromDictImplAccess::Get(*this);
  std::shared_lock<std::shared_mutex> lk(impl->mu);
  return impl->by_id.size();
}

int32_t InternChrom(const std::string& name) {
  return ChromDict::Global().Intern(name);
}

std::string ChromName(int32_t id) { return ChromDict::Global().Name(id); }

int64_t GenomicRegion::DistanceTo(const GenomicRegion& other) const {
  if (chrom != other.chrom) return std::numeric_limits<int64_t>::max();
  if (Overlaps(other)) {
    int64_t ov = std::min(right, other.right) - std::max(left, other.left);
    return -ov;
  }
  if (right <= other.left) return other.left - right;
  return left - other.right;
}

std::string GenomicRegion::CoordString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s:%lld-%lld(%c)", ChromName(chrom).c_str(),
                static_cast<long long>(left), static_cast<long long>(right),
                StrandChar(strand));
  return buf;
}

std::string GenomicRegion::ToString() const {
  std::string out = ChromName(chrom);
  out += "\t" + std::to_string(left);
  out += "\t" + std::to_string(right);
  out += "\t";
  out.push_back(StrandChar(strand));
  for (const auto& v : values) {
    out += "\t" + v.ToString();
  }
  return out;
}

void SortRegions(std::vector<GenomicRegion>* regions) {
  std::stable_sort(regions->begin(), regions->end(),
                   [](const GenomicRegion& a, const GenomicRegion& b) {
                     return a.CoordLess(b);
                   });
}

bool RegionsSorted(const std::vector<GenomicRegion>& regions) {
  for (size_t i = 1; i < regions.size(); ++i) {
    if (regions[i].CoordLess(regions[i - 1])) return false;
  }
  return true;
}

GenomeAssembly GenomeAssembly::HumanLike(int chroms, int64_t first_length) {
  GenomeAssembly g;
  for (int i = 0; i < chroms; ++i) {
    // Lengths taper from first_length down to ~20% of it, echoing the human
    // karyotype's decay from chr1 to chr22.
    double frac =
        1.0 - 0.8 * (static_cast<double>(i) / std::max(1, chroms - 1));
    int64_t len =
        static_cast<int64_t>(static_cast<double>(first_length) * frac);
    g.AddChromosome("chr" + std::to_string(i + 1), len);
  }
  return g;
}

void GenomeAssembly::AddChromosome(const std::string& name, int64_t length) {
  chrom_ids_.push_back(InternChrom(name));
  lengths_.push_back(length);
}

int64_t GenomeAssembly::LengthOf(int32_t chrom_id) const {
  for (size_t i = 0; i < chrom_ids_.size(); ++i) {
    if (chrom_ids_[i] == chrom_id) return lengths_[i];
  }
  return 0;
}

int64_t GenomeAssembly::TotalLength() const {
  int64_t total = 0;
  for (int64_t l : lengths_) total += l;
  return total;
}

}  // namespace gdms::gdm
