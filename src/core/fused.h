#ifndef GDMS_CORE_FUSED_H_
#define GDMS_CORE_FUSED_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/plan.h"
#include "gdm/dataset.h"

namespace gdms::core {

/// \brief Bound consumer stages of a fused operator chain.
///
/// A kFused plan node carries a producer stage followed by unary consumer
/// stages (SELECT / PROJECT / EXTEND). The producer's executor finishes each
/// output sample exactly once; a FusedTail applies every consumer stage to
/// that sample in place — the downstream operators never see (or allocate) an
/// intermediate dataset. Binding resolves predicates, projection indexes and
/// aggregate inputs against the producer's output schema once; ApplySample is
/// then const and safe to call concurrently from worker threads (the same
/// contract as a bound RegionPredicate).
class FusedTail {
 public:
  FusedTail() = default;

  /// Binds the consumer stages (`node->fused_stages[1..]`) against the
  /// producer's output schema. Errors mirror the unfused operators (unknown
  /// attribute in a predicate, projection or aggregate). A null `node`
  /// binds the empty tail of an unfused producer: it keeps every sample
  /// and names the output `producer_name`.
  static Result<FusedTail> Bind(const PlanNode* node,
                                const char* producer_name,
                                const gdm::RegionSchema& producer_schema);

  /// Region schema after every stage (PROJECT rewrites it; SELECT and
  /// EXTEND pass it through).
  const gdm::RegionSchema& output_schema() const { return schema_; }

  /// Dataset name the final stage's unfused operator would have produced
  /// (the producer's name when there is no consumer stage).
  const char* output_name() const;

  /// Runs every stage over one finished producer sample, mutating it in
  /// place. Returns false when a SELECT's metadata predicate drops the
  /// sample (the caller must not emit it).
  bool ApplySample(gdm::Sample* sample) const;

 private:
  struct Stage;
  const char* producer_name_ = "";
  gdm::RegionSchema schema_;
  std::vector<std::shared_ptr<const Stage>> stages_;
};

}  // namespace gdms::core

#endif  // GDMS_CORE_FUSED_H_
