#ifndef GDMS_CORE_FUSED_H_
#define GDMS_CORE_FUSED_H_

#include <vector>

#include "common/status.h"
#include "core/operators.h"
#include "core/plan.h"
#include "gdm/dataset.h"

namespace gdms::core {

/// \brief Bound consumer stages of a fused operator chain.
///
/// A kFused plan node carries a producer stage followed by unary consumer
/// stages (SELECT / PROJECT / EXTEND). The producer's executor finishes each
/// output sample exactly once; a FusedTail applies every consumer stage to
/// that sample in place — the downstream operators never see (or allocate) an
/// intermediate dataset. The stages are the operators' own bound bodies
/// (SampleOp), each bound once against the previous stage's output schema;
/// ApplySample is then const and safe to call concurrently from worker
/// threads.
class FusedTail {
 public:
  FusedTail() = default;

  /// Binds the consumer stages (`node->fused_stages[1..]`) against the
  /// producer's output schema, with the unfused operators' errors. A null
  /// `node` binds the empty tail of an unfused producer: it keeps every
  /// sample and names the output `producer_name`.
  static Result<FusedTail> Bind(const PlanNode* node,
                                const char* producer_name,
                                const gdm::RegionSchema& producer_schema);

  /// Region schema after every stage.
  const gdm::RegionSchema& output_schema() const;

  /// Dataset name the final stage's unfused operator would have produced
  /// (the producer's name when there is no consumer stage).
  const char* output_name() const;

  /// Runs every stage over one finished producer sample, mutating it in
  /// place. Returns false when a SELECT's metadata predicate drops the
  /// sample (the caller must not emit it).
  bool ApplySample(gdm::Sample* sample) const;

 private:
  const char* producer_name_ = "";
  gdm::RegionSchema producer_schema_;
  std::vector<SampleOp::Ptr> stages_;
};

}  // namespace gdms::core

#endif  // GDMS_CORE_FUSED_H_
