#include "core/fused.h"

#include <utility>

namespace gdms::core {

Result<FusedTail> FusedTail::Bind(const PlanNode* node,
                                  const char* producer_name,
                                  const gdm::RegionSchema& producer_schema) {
  FusedTail tail;
  tail.producer_name_ = producer_name;
  tail.producer_schema_ = producer_schema;
  if (node == nullptr) return tail;
  for (size_t i = 1; i < node->fused_stages.size(); ++i) {
    GDMS_ASSIGN_OR_RETURN(
        SampleOp::Ptr stage,
        SampleOp::Bind(*node->fused_stages[i], tail.output_schema()));
    tail.stages_.push_back(std::move(stage));
  }
  return tail;
}

const gdm::RegionSchema& FusedTail::output_schema() const {
  return stages_.empty() ? producer_schema_ : stages_.back()->output_schema();
}

const char* FusedTail::output_name() const {
  return stages_.empty() ? producer_name_ : stages_.back()->name();
}

bool FusedTail::ApplySample(gdm::Sample* sample) const {
  for (const auto& stage : stages_) {
    if (!stage->Apply(sample)) return false;
  }
  return true;
}

}  // namespace gdms::core
