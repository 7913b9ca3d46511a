#include "core/aggregates.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace gdms::core {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kMedian:
      return "MEDIAN";
    case AggFunc::kStd:
      return "STD";
    case AggFunc::kBag:
      return "BAG";
  }
  return "?";
}

Result<AggFunc> ParseAggFunc(const std::string& name) {
  std::string up = ToLower(name);
  if (up == "count") return AggFunc::kCount;
  if (up == "sum") return AggFunc::kSum;
  if (up == "avg" || up == "mean") return AggFunc::kAvg;
  if (up == "min") return AggFunc::kMin;
  if (up == "max") return AggFunc::kMax;
  if (up == "median") return AggFunc::kMedian;
  if (up == "std" || up == "stddev") return AggFunc::kStd;
  if (up == "bag") return AggFunc::kBag;
  return Status::ParseError("unknown aggregate function: " + name);
}

gdm::AttrType AggOutputType(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return gdm::AttrType::kInt;
    case AggFunc::kBag:
      return gdm::AttrType::kString;
    default:
      return gdm::AttrType::kDouble;
  }
}

std::string AggregateSpec::ToString() const {
  std::string out = output_name;
  out += " AS ";
  out += AggFuncName(func);
  if (!input_attr.empty()) {
    out += "(";
    out += input_attr;
    out += ")";
  }
  return out;
}

void AggAccumulator::Add(const gdm::Value& v) {
  ++region_count_;
  if (v.is_null()) return;
  ++non_null_;
  if (func_ == AggFunc::kBag) {
    strings_.push_back(v.ToString());
    return;
  }
  auto num = v.ToNumeric();
  if (!num.ok()) return;  // non-numeric values are skipped by numeric aggs
  double x = num.value();
  sum_ += x;
  sum_sq_ += x * x;
  if (non_null_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  if (func_ == AggFunc::kMedian) numbers_.push_back(x);
}

gdm::Value AggAccumulator::Finish() const {
  using gdm::Value;
  switch (func_) {
    case AggFunc::kCount:
      return Value(region_count_);
    case AggFunc::kSum:
      return non_null_ == 0 ? Value::Null() : Value(sum_);
    case AggFunc::kAvg:
      return non_null_ == 0 ? Value::Null()
                            : Value(sum_ / static_cast<double>(non_null_));
    case AggFunc::kMin:
      return non_null_ == 0 ? Value::Null() : Value(min_);
    case AggFunc::kMax:
      return non_null_ == 0 ? Value::Null() : Value(max_);
    case AggFunc::kMedian: {
      std::optional<double> median = Median();
      return median.has_value() ? Value(*median) : Value::Null();
    }
    case AggFunc::kStd: {
      if (non_null_ < 2) return non_null_ == 0 ? Value::Null() : Value(0.0);
      double n = static_cast<double>(non_null_);
      double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
      if (var < 0) var = 0;  // numeric noise
      return Value(std::sqrt(var));
    }
    case AggFunc::kBag: {
      std::optional<std::string> bag = Bag();
      return bag.has_value() ? Value(std::move(*bag)) : Value::Null();
    }
  }
  return Value::Null();
}

std::optional<double> AggAccumulator::Median() const {
  if (numbers_.empty()) return std::nullopt;
  std::vector<double> copy = numbers_;
  size_t mid = copy.size() / 2;
  std::nth_element(copy.begin(), copy.begin() + mid, copy.end());
  double hi = copy[mid];
  if (copy.size() % 2 == 1) return hi;
  double lo = *std::max_element(copy.begin(), copy.begin() + mid);
  return (lo + hi) / 2.0;
}

std::optional<std::string> AggAccumulator::Bag() const {
  std::vector<std::string> copy = strings_;
  std::sort(copy.begin(), copy.end());
  copy.erase(std::unique(copy.begin(), copy.end()), copy.end());
  if (copy.empty()) return std::nullopt;
  return Join(copy, " ");
}

Result<std::vector<size_t>> ResolveAggInputs(
    const std::vector<AggregateSpec>& specs, const gdm::RegionSchema& schema) {
  std::vector<size_t> out;
  out.reserve(specs.size());
  for (const auto& spec : specs) {
    if (spec.func == AggFunc::kCount && spec.input_attr.empty()) {
      out.push_back(SIZE_MAX);
      continue;
    }
    auto idx = schema.IndexOf(spec.input_attr);
    if (!idx.has_value()) {
      return Status::InvalidArgument(
          "aggregate input attribute not in schema: " + spec.input_attr);
    }
    out.push_back(*idx);
  }
  return out;
}

std::vector<gdm::Value> EvaluateAggregates(
    const std::vector<AggregateSpec>& specs, const std::vector<size_t>& inputs,
    const std::vector<gdm::GenomicRegion>& regions,
    const std::vector<size_t>& selected) {
  std::vector<AggAccumulator> accs;
  accs.reserve(specs.size());
  for (const auto& spec : specs) accs.emplace_back(spec.func);
  for (size_t ri : selected) {
    const auto& r = regions[ri];
    for (size_t a = 0; a < specs.size(); ++a) {
      if (inputs[a] == SIZE_MAX) {
        accs[a].AddRegion();
      } else {
        accs[a].Add(r.values[inputs[a]]);
      }
    }
  }
  std::vector<gdm::Value> out;
  out.reserve(specs.size());
  for (const auto& acc : accs) out.push_back(acc.Finish());
  return out;
}

}  // namespace gdms::core
