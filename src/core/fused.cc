#include "core/fused.h"

#include <algorithm>
#include <utility>

#include "core/aggregates.h"
#include "core/predicates.h"

namespace gdms::core {

using gdm::GenomicRegion;
using gdm::RegionSchema;
using gdm::Sample;

/// One bound consumer stage. Only the fields of the stage's kind are set.
struct FusedTail::Stage {
  OpKind kind = OpKind::kSelect;

  // SELECT: the metadata predicate is shared with the plan node (stateless
  // Eval); the region predicate is a private clone bound to this stage's
  // input schema.
  MetaPredicate::Ptr select_meta;
  RegionPredicate::Ptr select_region;

  // PROJECT: input-schema indexes of kept attributes, bound new-attribute
  // expressions, and the metadata projection.
  std::vector<size_t> keep_indexes;
  std::vector<RegionExpr::Ptr> new_exprs;
  std::vector<std::string> keep_meta;
  bool meta_all = true;

  // EXTEND: aggregate specs plus their resolved input indexes.
  std::vector<AggregateSpec> aggregates;
  std::vector<size_t> agg_inputs;
};

Result<FusedTail> FusedTail::Bind(const PlanNode* node,
                                  const char* producer_name,
                                  const RegionSchema& producer_schema) {
  FusedTail tail;
  tail.producer_name_ = producer_name;
  tail.schema_ = producer_schema;
  if (node == nullptr) return tail;
  for (size_t i = 1; i < node->fused_stages.size(); ++i) {
    const PlanNode& stage_node = *node->fused_stages[i];
    auto stage = std::make_shared<Stage>();
    stage->kind = stage_node.kind;
    switch (stage_node.kind) {
      case OpKind::kSelect: {
        stage->select_meta = stage_node.select.meta;
        stage->select_region = stage_node.select.region->Clone();
        GDMS_RETURN_NOT_OK(stage->select_region->Bind(tail.schema_));
        break;
      }
      case OpKind::kProject: {
        const ProjectParams& params = stage_node.project;
        RegionSchema schema;
        if (params.keep_all) {
          schema = tail.schema_;
          for (size_t k = 0; k < tail.schema_.size(); ++k) {
            stage->keep_indexes.push_back(k);
          }
        } else {
          for (const auto& name : params.keep_attrs) {
            auto idx = tail.schema_.IndexOf(name);
            if (!idx.has_value()) {
              return Status::InvalidArgument(
                  "PROJECT keeps unknown attribute: " + name);
            }
            stage->keep_indexes.push_back(*idx);
            GDMS_RETURN_NOT_OK(
                schema.AddAttr(name, tail.schema_.attr(*idx).type));
          }
        }
        for (const auto& na : params.new_attrs) {
          RegionExpr::Ptr expr = na.expr->Clone();
          GDMS_RETURN_NOT_OK(expr->Bind(tail.schema_));
          GDMS_RETURN_NOT_OK(
              schema.AddAttr(na.name, expr->OutputType(tail.schema_)));
          stage->new_exprs.push_back(std::move(expr));
        }
        stage->keep_meta = params.keep_meta;
        stage->meta_all = params.meta_all;
        tail.schema_ = std::move(schema);
        break;
      }
      case OpKind::kExtend: {
        stage->aggregates = stage_node.extend.aggregates;
        GDMS_ASSIGN_OR_RETURN(
            stage->agg_inputs,
            ResolveAggInputs(stage->aggregates, tail.schema_));
        break;
      }
      default:
        return Status::Internal(std::string("non-fusable tail stage: ") +
                                OpKindName(stage_node.kind));
    }
    tail.stages_.push_back(std::move(stage));
  }
  return tail;
}

const char* FusedTail::output_name() const {
  if (stages_.empty()) return producer_name_;
  return OpKindName(stages_.back()->kind);
}

bool FusedTail::ApplySample(Sample* sample) const {
  for (const auto& stage : stages_) {
    switch (stage->kind) {
      case OpKind::kSelect: {
        if (!stage->select_meta->Eval(sample->metadata)) return false;
        sample->regions =
            SelectRegions(sample->regions, *stage->select_region);
        break;
      }
      case OpKind::kProject: {
        for (auto& r : sample->regions.mutable_rows()) {
          std::vector<gdm::Value> values;
          values.reserve(stage->keep_indexes.size() +
                         stage->new_exprs.size());
          for (size_t ki : stage->keep_indexes) {
            values.push_back(r.values[ki]);
          }
          for (const auto& expr : stage->new_exprs) {
            values.push_back(expr->Eval(r));
          }
          r.values = std::move(values);
        }
        if (!stage->meta_all) {
          gdm::Metadata projected;
          for (const auto& attr : stage->keep_meta) {
            for (const auto& value : sample->metadata.ValuesOf(attr)) {
              projected.Add(attr, value);
            }
          }
          sample->metadata = std::move(projected);
        }
        break;
      }
      case OpKind::kExtend: {
        std::vector<size_t> all(sample->regions.size());
        for (size_t i = 0; i < all.size(); ++i) all[i] = i;
        auto values = EvaluateAggregates(stage->aggregates, stage->agg_inputs,
                                         sample->regions, all);
        for (size_t a = 0; a < stage->aggregates.size(); ++a) {
          sample->metadata.Add(stage->aggregates[a].output_name,
                               values[a].ToString());
        }
        break;
      }
      default:
        break;
    }
  }
  return true;
}

}  // namespace gdms::core
