#ifndef GDMS_CORE_AGGREGATES_H_
#define GDMS_CORE_AGGREGATES_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "gdm/dataset.h"
#include "gdm/schema.h"
#include "gdm/value.h"

namespace gdms::core {

/// Aggregate functions available to MAP / EXTEND / GROUP / COVER (paper,
/// Section 2: "typed and named attributes serve the purpose of any numerical
/// or statistical operation across compatible values").
enum class AggFunc {
  kCount,   ///< number of regions; needs no input attribute
  kSum,
  kAvg,
  kMin,
  kMax,
  kMedian,
  kStd,     ///< sample standard deviation (N-1 denominator; 0 for N<2)
  kBag,     ///< space-joined distinct values, sorted (STRING)
};

const char* AggFuncName(AggFunc f);
Result<AggFunc> ParseAggFunc(const std::string& name);

/// Result type of an aggregate: COUNT is INT, BAG is STRING, the rest DOUBLE.
gdm::AttrType AggOutputType(AggFunc f);

/// One requested aggregate: `output_name AS func(input_attr)`.
struct AggregateSpec {
  std::string output_name;
  AggFunc func = AggFunc::kCount;
  /// Attribute of the aggregated regions; empty for COUNT.
  std::string input_attr;

  std::string ToString() const;
};

/// \brief Streaming accumulator for one AggregateSpec.
///
/// Add() each region's attribute value (resolved by the caller), then
/// Finish(). NULL values are skipped for every function except COUNT, which
/// counts regions regardless.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggFunc func) : func_(func) {}

  void Add(const gdm::Value& v);
  /// Convenience for COUNT: count a region without resolving a value.
  void AddRegion() { ++region_count_; }

  gdm::Value Finish() const;

  /// Finish() of MEDIAN and of BAG, typed (nullopt for NULL).
  std::optional<double> Median() const;
  std::optional<std::string> Bag() const;

 private:
  AggFunc func_;
  int64_t region_count_ = 0;
  int64_t non_null_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<double> numbers_;        // MEDIAN only
  std::vector<std::string> strings_;   // BAG only
};

/// Resolves the schema index of each spec's input attribute; COUNT specs get
/// index SIZE_MAX. Errors when an attribute is missing.
Result<std::vector<size_t>> ResolveAggInputs(
    const std::vector<AggregateSpec>& specs, const gdm::RegionSchema& schema);

/// Evaluates all specs over a set of regions (by index into `regions`).
/// `inputs` comes from ResolveAggInputs.
std::vector<gdm::Value> EvaluateAggregates(
    const std::vector<AggregateSpec>& specs, const std::vector<size_t>& inputs,
    const std::vector<gdm::GenomicRegion>& regions,
    const std::vector<size_t>& selected);

}  // namespace gdms::core

#endif  // GDMS_CORE_AGGREGATES_H_
