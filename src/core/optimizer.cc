#include "core/optimizer.h"

#include <unordered_map>
#include <unordered_set>

namespace gdms::core {

namespace {

/// True when a SELECT has no region predicate component.
bool IsMetaOnlySelect(const PlanNode& node) {
  return node.kind == OpKind::kSelect &&
         node.select.region->IsTriviallyTrue();
}

size_t CountNodes(const Program& program) {
  std::unordered_set<const PlanNode*> seen;
  std::vector<const PlanNode*> stack;
  for (const auto& s : program.sinks) stack.push_back(s.get());
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    for (const auto& c : n->children) stack.push_back(c.get());
  }
  return seen.size();
}

class Pass {
 public:
  explicit Pass(OptimizerStats* stats) : stats_(stats) {}

  PlanNode::Ptr Rewrite(const PlanNode::Ptr& node) {
    // Pin the node for the lifetime of the pass: the memo tables key by raw
    // pointer, and without pinning a rewritten-away node could be freed and
    // its address reused by a new node, resurrecting a stale memo entry.
    pinned_.push_back(node);
    auto it = rewritten_.find(node.get());
    if (it != rewritten_.end()) return it->second;
    // Rewrite children first.
    PlanNode::Ptr result = node;
    for (auto& child : result->children) {
      child = Rewrite(child);
    }
    // Rule 1: fuse SELECT over SELECT.
    if (result->kind == OpKind::kSelect && result->children.size() == 1 &&
        result->children[0]->kind == OpKind::kSelect) {
      const PlanNode::Ptr inner = result->children[0];
      SelectParams fused;
      fused.meta =
          MetaPredicate::And(inner->select.meta, result->select.meta);
      fused.region =
          RegionPredicate::And(inner->select.region, result->select.region);
      result = PlanNode::Select(inner->children[0], std::move(fused));
      ++stats_->selects_fused;
      // The fused node may expose new opportunities.
      result = Rewrite(result);
      rewritten_[node.get()] = result;
      return result;
    }
    // Rule 2: push metadata-only SELECT through UNION.
    if (IsMetaOnlySelect(*result) && result->children.size() == 1 &&
        result->children[0]->kind == OpKind::kUnion) {
      const PlanNode::Ptr u = result->children[0];
      SelectParams left_params;
      left_params.meta = result->select.meta;
      SelectParams right_params;
      right_params.meta = result->select.meta;
      result = PlanNode::Union(
          Rewrite(PlanNode::Select(u->children[0], std::move(left_params))),
          Rewrite(PlanNode::Select(u->children[1], std::move(right_params))));
      ++stats_->selects_pushed_through_union;
    }
    // Rule 3: CSE by canonical signature.
    std::string sig = result->Signature();
    auto cse = canonical_.find(sig);
    if (cse != canonical_.end()) {
      if (cse->second != result) ++stats_->nodes_deduplicated;
      result = cse->second;
    } else {
      canonical_.emplace(std::move(sig), result);
    }
    rewritten_[node.get()] = result;
    return result;
  }

 private:
  OptimizerStats* stats_;
  std::vector<PlanNode::Ptr> pinned_;
  std::unordered_map<const PlanNode*, PlanNode::Ptr> rewritten_;
  std::unordered_map<std::string, PlanNode::Ptr> canonical_;
};

}  // namespace

OptimizerStats Optimizer::Optimize(Program* program) {
  OptimizerStats stats;
  stats.nodes_before = CountNodes(*program);
  Pass pass(&stats);
  for (auto& sink : program->sinks) {
    sink = pass.Rewrite(sink);
  }
  stats.nodes_after = CountNodes(*program);
  return stats;
}

namespace {

bool IsFusableProducer(OpKind kind) {
  switch (kind) {
    case OpKind::kSelect:
    case OpKind::kMap:
    case OpKind::kJoin:
    case OpKind::kDifference:
    case OpKind::kCover:
    case OpKind::kFused:
      return true;
    default:
      return false;
  }
}

bool IsFusableConsumer(const PlanNode& node) {
  return (node.kind == OpKind::kSelect || node.kind == OpKind::kProject ||
          node.kind == OpKind::kExtend) &&
         node.children.size() == 1;
}

/// Fusion rewriter: bottom-up over the (possibly shared) DAG with a memo so
/// a shared subtree rewrites to one shared fused node.
class FusionPass {
 public:
  FusionPass(FusionStats* stats,
             std::unordered_map<const PlanNode*, size_t> consumers)
      : stats_(stats), consumers_(std::move(consumers)) {}

  PlanNode::Ptr Rewrite(const PlanNode::Ptr& node) {
    pinned_.push_back(node);
    auto it = rewritten_.find(node.get());
    if (it != rewritten_.end()) return it->second;
    PlanNode::Ptr result = node;
    for (auto& child : result->children) {
      child = Rewrite(child);
    }
    if (IsFusableConsumer(*result)) {
      const PlanNode::Ptr& producer = result->children[0];
      if (IsFusableProducer(producer->kind) &&
          consumers_[producer.get()] == 1) {
        std::vector<PlanNode::Ptr> stages;
        if (producer->kind == OpKind::kFused) {
          stages = producer->fused_stages;
        } else {
          stages.push_back(producer);
          ++stats_->chains_fused;
        }
        stages.push_back(result);
        PlanNode::Ptr fused = PlanNode::Fused(std::move(stages));
        // The chain head's consumers become the fused node's, so a yet
        // longer chain can keep growing on top of it.
        consumers_[fused.get()] = consumers_[result.get()];
        ++stats_->stages_fused;
        rewritten_[node.get()] = fused;
        return fused;
      }
    }
    rewritten_[node.get()] = result;
    return result;
  }

 private:
  FusionStats* stats_;
  std::unordered_map<const PlanNode*, size_t> consumers_;
  std::vector<PlanNode::Ptr> pinned_;
  std::unordered_map<const PlanNode*, PlanNode::Ptr> rewritten_;
};

}  // namespace

FusionStats Optimizer::FusePerPartitionChains(Program* program) {
  FusionStats stats;
  // Count consumer EDGES per node (a node referenced by two parents — or
  // twice by one — must be materialized once and shared, never fused).
  std::unordered_map<const PlanNode*, size_t> consumers;
  {
    std::unordered_set<const PlanNode*> seen;
    std::vector<const PlanNode*> stack;
    for (const auto& s : program->sinks) {
      // A sink payload is read out of the memo by name; count the sink
      // itself as one consumer edge of its subtree root.
      stack.push_back(s.get());
      ++consumers[s.get()];
    }
    while (!stack.empty()) {
      const PlanNode* n = stack.back();
      stack.pop_back();
      if (!seen.insert(n).second) continue;
      for (const auto& c : n->children) {
        ++consumers[c.get()];
        stack.push_back(c.get());
      }
    }
  }
  FusionPass pass(&stats, std::move(consumers));
  for (auto& sink : program->sinks) {
    sink = pass.Rewrite(sink);
  }
  return stats;
}

}  // namespace gdms::core
