#include "repo/estimator.h"

#include <algorithm>

namespace gdms::repo {

namespace {
constexpr double kBytesPerRegion = 48.0;
constexpr double kMetaSelectivity = 0.5;
constexpr double kRegionSelectivity = 0.5;
}  // namespace

Result<Estimate> Estimator::EstimatePlan(const core::PlanNode& node) const {
  using core::OpKind;
  Estimate out;
  std::vector<Estimate> kids;
  kids.reserve(node.children.size());
  for (const auto& child : node.children) {
    GDMS_ASSIGN_OR_RETURN(Estimate e, EstimatePlan(*child));
    kids.push_back(e);
  }
  switch (node.kind) {
    case OpKind::kSource: {
      GDMS_ASSIGN_OR_RETURN(DatasetInfo info, catalog_->Info(node.name));
      out.samples = static_cast<double>(info.num_samples);
      out.regions = static_cast<double>(info.num_regions);
      out.bytes = static_cast<double>(info.estimated_bytes);
      return out;
    }
    case OpKind::kSelect: {
      out = kids[0];
      if (node.select.meta->ToString() != "true") {
        out.samples *= kMetaSelectivity;
        out.regions *= kMetaSelectivity;
      }
      if (!node.select.region->IsTriviallyTrue()) {
        out.regions *= kRegionSelectivity;
      }
      break;
    }
    case OpKind::kProject:
    case OpKind::kExtend:
    case OpKind::kOrder:
      out = kids[0];
      if (node.kind == OpKind::kOrder && node.order.top > 0 &&
          out.samples > static_cast<double>(node.order.top)) {
        double keep = static_cast<double>(node.order.top) /
                      std::max(1.0, out.samples);
        out.samples *= keep;
        out.regions *= keep;
      }
      break;
    case OpKind::kMerge:
    case OpKind::kGroup:
      out.samples = std::max(1.0, kids[0].samples / 4.0);
      out.regions = kids[0].regions;
      break;
    case OpKind::kUnion:
      out.samples = kids[0].samples + kids[1].samples;
      out.regions = kids[0].regions + kids[1].regions;
      break;
    case OpKind::kDifference:
      out = kids[0];
      out.regions *= 0.5;
      break;
    case OpKind::kSemijoin:
      out = kids[0];
      out.samples *= kMetaSelectivity;
      out.regions *= kMetaSelectivity;
      break;
    case OpKind::kJoin: {
      double pairs = std::max(1.0, kids[0].samples) *
                     std::max(1.0, kids[1].samples);
      double per_sample_left =
          kids[0].regions / std::max(1.0, kids[0].samples);
      out.samples = pairs;
      out.regions = pairs * per_sample_left;  // ~1 match per left region
      break;
    }
    case OpKind::kMap: {
      double pairs = std::max(1.0, kids[0].samples) *
                     std::max(1.0, kids[1].samples);
      double ref_regions_per_sample =
          kids[0].regions / std::max(1.0, kids[0].samples);
      out.samples = pairs;
      out.regions = pairs * ref_regions_per_sample;
      break;
    }
    case OpKind::kCover:
      out.samples = 1;
      out.regions = kids[0].regions * 0.25;
      break;
    case OpKind::kFused: {
      // The producer stage shares this node's children, so its estimate is
      // the chain's base; consumer SELECT stages keep the usual selectivity
      // haircut, PROJECT/EXTEND are size-preserving.
      GDMS_ASSIGN_OR_RETURN(out, EstimatePlan(*node.fused_stages[0]));
      for (size_t i = 1; i < node.fused_stages.size(); ++i) {
        const core::PlanNode& stage = *node.fused_stages[i];
        if (stage.kind != OpKind::kSelect) continue;
        if (stage.select.meta->ToString() != "true") {
          out.samples *= kMetaSelectivity;
          out.regions *= kMetaSelectivity;
        }
        if (!stage.select.region->IsTriviallyTrue()) {
          out.regions *= kRegionSelectivity;
        }
      }
      break;
    }
    case OpKind::kMaterialize:
      out = kids[0];
      break;
  }
  out.bytes = out.regions * kBytesPerRegion;
  return out;
}

}  // namespace gdms::repo
