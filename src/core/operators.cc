#include "core/operators.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/string_util.h"
#include "interval/accumulation.h"
#include "interval/sweep.h"

namespace gdms::core {

namespace {

using gdm::AttrType;
using gdm::Dataset;
using gdm::GenomicRegion;
using gdm::Metadata;
using gdm::RegionSchema;
using gdm::Sample;
using gdm::SampleId;
using gdm::Value;

void AddProvenance(Sample* sample, const std::string& op,
                   const std::vector<SampleId>& parents) {
  std::string entry = op + "[";
  for (size_t i = 0; i < parents.size(); ++i) {
    if (i > 0) entry += ",";
    entry += std::to_string(parents[i]);
  }
  entry += "]";
  sample->metadata.Add("_provenance", entry);
}

/// Numeric-aware comparison for metadata values (ORDER, GROUP keys).
int CompareMetaValues(const std::string& a, const std::string& b) {
  auto na = ParseDouble(a);
  auto nb = ParseDouble(b);
  if (na.ok() && nb.ok()) {
    double x = na.value();
    double y = nb.value();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// Replays RegionSchema::Merge and records, for each right attribute, its
/// index in the merged schema. Needed by UNION to remap right-side values.
RegionSchema MergeWithMapping(const RegionSchema& left,
                              const RegionSchema& right,
                              std::vector<size_t>* right_mapping) {
  RegionSchema out = left;
  right_mapping->clear();
  right_mapping->reserve(right.size());
  for (const auto& attr : right.attrs()) {
    auto idx = out.IndexOf(attr.name);
    if (idx.has_value() && out.attr(*idx).type == attr.type) {
      right_mapping->push_back(*idx);
      continue;
    }
    std::string name = attr.name;
    if (idx.has_value()) name = "right_" + name;
    while (out.Contains(name)) name = "right_" + name;
    right_mapping->push_back(out.size());
    (void)out.AddAttr(name, attr.type);
  }
  return out;
}

/// Appends aggregate output attributes to a schema, renaming collisions
/// with a numeric suffix. Returns the final names.
std::vector<std::string> AppendAggAttrs(
    const std::vector<AggregateSpec>& specs, RegionSchema* schema) {
  std::vector<std::string> names;
  for (const auto& spec : specs) {
    std::string name = spec.output_name;
    int suffix = 1;
    while (schema->Contains(name)) {
      name = spec.output_name + "_" + std::to_string(suffix++);
    }
    (void)schema->AddAttr(name, AggOutputType(spec.func));
    names.push_back(name);
  }
  return names;
}

/// Concatenated, sorted regions of several samples. SortRegions is stable,
/// so regions tied on coordinates keep sample order, then row order: folds
/// over them (COVER's aggregates) have one defined order, the one a merge
/// of the sorted samples produces.
std::vector<GenomicRegion> ConcatRegions(
    const std::vector<const Sample*>& samples) {
  std::vector<GenomicRegion> out;
  size_t total = 0;
  for (const auto* s : samples) total += s->regions.size();
  out.reserve(total);
  for (const auto* s : samples) {
    out.insert(out.end(), s->regions.begin(), s->regions.end());
  }
  gdm::SortRegions(&out);
  return out;
}

class SelectOp final : public SampleOp {
 public:
  SelectOp(MetaPredicate::Ptr meta, RegionPredicate::Ptr region,
           const RegionSchema& schema)
      : SampleOp("SELECT", schema),
        meta_(std::move(meta)),
        region_(std::move(region)) {}

  bool Keeps(const Metadata& meta) const override { return meta_->Eval(meta); }

  /// The rows the region predicate accepts, through RegionStore::Filtered:
  /// a selection that keeps every row shares the input's storage. A
  /// trivially true predicate reads no row, so a column-primary store
  /// stays column-primary.
  void Rewrite(Sample* sample) const override {
    if (region_->IsTriviallyTrue()) return;
    const gdm::RegionStore& in = sample->regions;
    const gdm::RegionStore::Rows& rows = in.rows();
    std::vector<char> keep(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) keep[i] = region_->Eval(rows[i]);
    sample->regions = in.Filtered(keep);
  }

 private:
  MetaPredicate::Ptr meta_;
  RegionPredicate::Ptr region_;
};

class ProjectOp final : public SampleOp {
 public:
  ProjectOp(const ProjectParams& params, std::vector<size_t> keep_indexes,
            std::vector<RegionExpr::Ptr> exprs, RegionSchema schema)
      : SampleOp("PROJECT", std::move(schema)),
        keep_indexes_(std::move(keep_indexes)),
        exprs_(std::move(exprs)),
        keep_meta_(params.keep_meta),
        meta_all_(params.meta_all) {}

  /// Builds each output row once from its input row: kept attributes, then
  /// the new ones.
  void Rewrite(Sample* sample) const override {
    const gdm::RegionStore& in = sample->regions;
    std::vector<GenomicRegion> rows;
    rows.reserve(in.size());
    for (const auto& r : in.rows()) {
      GenomicRegion nr(r.chrom, r.left, r.right, r.strand);
      nr.values.reserve(output_schema().size());
      for (size_t ki : keep_indexes_) nr.values.push_back(r.values[ki]);
      for (const auto& expr : exprs_) nr.values.push_back(expr->Eval(r));
      rows.push_back(std::move(nr));
    }
    sample->regions = std::move(rows);
    if (meta_all_) return;
    Metadata projected;
    for (const auto& attr : keep_meta_) {
      for (const auto& value : sample->metadata.ValuesOf(attr)) {
        projected.Add(attr, value);
      }
    }
    sample->metadata = std::move(projected);
  }

 private:
  std::vector<size_t> keep_indexes_;
  std::vector<RegionExpr::Ptr> exprs_;
  std::vector<std::string> keep_meta_;
  bool meta_all_;
};

class ExtendOp final : public SampleOp {
 public:
  ExtendOp(std::vector<AggregateSpec> aggregates, std::vector<size_t> inputs,
           const RegionSchema& schema)
      : SampleOp("EXTEND", schema),
        aggregates_(std::move(aggregates)),
        inputs_(std::move(inputs)) {}

  void Rewrite(Sample* sample) const override {
    std::vector<size_t> all(sample->regions.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    auto values =
        EvaluateAggregates(aggregates_, inputs_, sample->regions, all);
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      sample->metadata.Add(aggregates_[a].output_name, values[a].ToString());
    }
  }

 private:
  std::vector<AggregateSpec> aggregates_;
  std::vector<size_t> inputs_;
};

}  // namespace

Result<SampleOp::Ptr> SampleOp::BindSelect(const SelectParams& params,
                                           const RegionSchema& in) {
  RegionPredicate::Ptr region = params.region->Clone();
  GDMS_RETURN_NOT_OK(region->Bind(in));
  return Ptr(std::make_shared<SelectOp>(params.meta, std::move(region), in));
}

Result<SampleOp::Ptr> SampleOp::BindProject(const ProjectParams& params,
                                            const RegionSchema& in) {
  // Output schema: kept attributes then new attributes.
  RegionSchema schema;
  std::vector<size_t> keep_indexes;
  if (params.keep_all) {
    schema = in;
    for (size_t i = 0; i < in.size(); ++i) keep_indexes.push_back(i);
  } else {
    for (const auto& name : params.keep_attrs) {
      auto idx = in.IndexOf(name);
      if (!idx.has_value()) {
        return Status::InvalidArgument("PROJECT keeps unknown attribute: " +
                                       name);
      }
      keep_indexes.push_back(*idx);
      GDMS_RETURN_NOT_OK(schema.AddAttr(name, in.attr(*idx).type));
    }
  }
  std::vector<RegionExpr::Ptr> exprs;
  for (const auto& na : params.new_attrs) {
    RegionExpr::Ptr expr = na.expr->Clone();
    GDMS_RETURN_NOT_OK(expr->Bind(in));
    GDMS_RETURN_NOT_OK(schema.AddAttr(na.name, expr->OutputType(in)));
    exprs.push_back(std::move(expr));
  }
  return Ptr(std::make_shared<ProjectOp>(params, std::move(keep_indexes),
                                         std::move(exprs), std::move(schema)));
}

Result<SampleOp::Ptr> SampleOp::BindExtend(const ExtendParams& params,
                                           const RegionSchema& in) {
  GDMS_ASSIGN_OR_RETURN(std::vector<size_t> inputs,
                        ResolveAggInputs(params.aggregates, in));
  return Ptr(
      std::make_shared<ExtendOp>(params.aggregates, std::move(inputs), in));
}

Result<SampleOp::Ptr> SampleOp::Bind(const PlanNode& node,
                                     const RegionSchema& in) {
  switch (node.kind) {
    case OpKind::kSelect:
      return BindSelect(node.select, in);
    case OpKind::kProject:
      return BindProject(node.project, in);
    case OpKind::kExtend:
      return BindExtend(node.extend, in);
    default:
      return Status::Internal(std::string("not a per-sample operator: ") +
                              OpKindName(node.kind));
  }
}

bool SampleOp::Apply(Sample* sample) const {
  if (!Keeps(sample->metadata)) return false;
  Rewrite(sample);
  return true;
}

Dataset SampleOp::Run(const Dataset& in) const {
  Dataset out(name_, schema_);
  for (const auto& s : in.samples()) {
    if (!Keeps(s.metadata)) continue;
    Sample ns = s;
    Rewrite(&ns);
    out.AddSample(std::move(ns));
  }
  return out;
}

Result<gdm::Dataset> Operators::Select(const SelectParams& params,
                                       const Dataset& in) {
  GDMS_ASSIGN_OR_RETURN(SampleOp::Ptr op,
                        SampleOp::BindSelect(params, in.schema()));
  return op->Run(in);
}

Result<gdm::Dataset> Operators::Project(const ProjectParams& params,
                                        const Dataset& in) {
  GDMS_ASSIGN_OR_RETURN(SampleOp::Ptr op,
                        SampleOp::BindProject(params, in.schema()));
  return op->Run(in);
}

Result<gdm::Dataset> Operators::Extend(const ExtendParams& params,
                                       const Dataset& in) {
  GDMS_ASSIGN_OR_RETURN(SampleOp::Ptr op,
                        SampleOp::BindExtend(params, in.schema()));
  return op->Run(in);
}

Result<gdm::Dataset> Operators::Merge(const MergeParams& params,
                                      const Dataset& in) {
  Dataset out("MERGE", in.schema());
  // Group samples by the groupby value ("" = single group).
  std::map<std::string, std::vector<const Sample*>> groups;
  for (const auto& s : in.samples()) {
    std::string key =
        params.groupby.empty() ? "" : s.metadata.FirstValue(params.groupby);
    groups[key].push_back(&s);
  }
  for (const auto& [key, members] : groups) {
    std::vector<SampleId> parents;
    Metadata meta;
    for (const auto* m : members) {
      parents.push_back(m->id);
      meta = Metadata::Union(meta, m->metadata);
    }
    Sample ns(gdm::DeriveSampleId("MERGE", parents));
    ns.metadata = std::move(meta);
    ns.regions = ConcatRegions(members);
    AddProvenance(&ns, "MERGE", parents);
    if (!params.groupby.empty()) ns.metadata.Add(params.groupby, key);
    out.AddSample(std::move(ns));
  }
  return out;
}

Result<gdm::Dataset> Operators::Group(const GroupParams& params,
                                      const Dataset& in) {
  if (params.meta_attr.empty()) {
    return Status::InvalidArgument("GROUP requires a metadata attribute");
  }
  GDMS_ASSIGN_OR_RETURN(std::vector<size_t> inputs,
                        ResolveAggInputs(params.aggregates, in.schema()));
  Dataset out("GROUP", in.schema());
  std::map<std::string, std::vector<const Sample*>> groups;
  for (const auto& s : in.samples()) {
    groups[s.metadata.FirstValue(params.meta_attr)].push_back(&s);
  }
  for (const auto& [key, members] : groups) {
    std::vector<SampleId> parents;
    Metadata meta;
    for (const auto* m : members) {
      parents.push_back(m->id);
      meta = Metadata::Union(meta, m->metadata);
    }
    Sample ns(gdm::DeriveSampleId("GROUP", parents));
    ns.metadata = std::move(meta);
    std::vector<GenomicRegion> rows = ConcatRegions(members);
    // GROUP eliminates duplicate regions (same coordinates and values).
    rows.erase(std::unique(rows.begin(), rows.end(),
                           [](const GenomicRegion& a, const GenomicRegion& b) {
                             return a.chrom == b.chrom && a.left == b.left &&
                                    a.right == b.right &&
                                    a.strand == b.strand &&
                                    a.values == b.values;
                           }),
               rows.end());
    ns.regions = std::move(rows);
    std::vector<size_t> all(ns.regions.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    auto values =
        EvaluateAggregates(params.aggregates, inputs, ns.regions, all);
    for (size_t a = 0; a < params.aggregates.size(); ++a) {
      ns.metadata.Add(params.aggregates[a].output_name, values[a].ToString());
    }
    AddProvenance(&ns, "GROUP", parents);
    out.AddSample(std::move(ns));
  }
  return out;
}

Result<gdm::Dataset> Operators::Order(const OrderParams& params,
                                      const Dataset& in) {
  if (params.meta_attr.empty()) {
    return Status::InvalidArgument("ORDER requires a metadata attribute");
  }
  Dataset out("ORDER", in.schema());
  std::vector<const Sample*> ordered;
  ordered.reserve(in.num_samples());
  for (const auto& s : in.samples()) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const Sample* a, const Sample* b) {
                     std::string va = a->metadata.FirstValue(params.meta_attr);
                     std::string vb = b->metadata.FirstValue(params.meta_attr);
                     // Missing values sort last regardless of direction.
                     bool ma = !a->metadata.Has(params.meta_attr);
                     bool mb = !b->metadata.Has(params.meta_attr);
                     if (ma != mb) return mb;
                     int cmp = CompareMetaValues(va, vb);
                     return params.descending ? cmp > 0 : cmp < 0;
                   });
  // Optional region clause: keep only the best region_top regions per
  // sample by the given attribute; output regions stay coordinate-sorted.
  std::optional<size_t> region_attr_index;
  if (!params.region_attr.empty()) {
    region_attr_index = in.schema().IndexOf(params.region_attr);
    if (!region_attr_index.has_value()) {
      return Status::InvalidArgument(
          "ORDER region clause references unknown attribute: " +
          params.region_attr);
    }
    if (params.region_top == 0) {
      return Status::InvalidArgument("ORDER region clause requires TOP > 0");
    }
  }

  size_t limit = params.top == 0 ? ordered.size()
                                 : std::min(params.top, ordered.size());
  for (size_t i = 0; i < limit; ++i) {
    Sample ns = *ordered[i];
    ns.metadata.RemoveAttr("_rank");
    ns.metadata.Add("_rank", std::to_string(i + 1));
    if (region_attr_index.has_value() &&
        ns.regions.size() > params.region_top) {
      size_t attr = *region_attr_index;
      std::vector<GenomicRegion>& rows = ns.regions.mutable_rows();
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const GenomicRegion& a, const GenomicRegion& b) {
                         // NULLs sort last regardless of direction.
                         bool na = a.values[attr].is_null();
                         bool nb = b.values[attr].is_null();
                         if (na != nb) return nb;
                         int cmp = a.values[attr].Compare(b.values[attr]);
                         return params.region_descending ? cmp > 0 : cmp < 0;
                       });
      rows.resize(params.region_top);
      ns.SortNow();
    }
    out.AddSample(std::move(ns));
  }
  return out;
}

Result<gdm::Dataset> Operators::Union(const Dataset& left,
                                      const Dataset& right) {
  std::vector<size_t> right_mapping;
  RegionSchema schema = MergeWithMapping(left.schema(), right.schema(),
                                         &right_mapping);
  Dataset out("UNION", schema);
  for (const auto& s : left.samples()) {
    Sample ns(gdm::DeriveSampleId("UNION-L", {s.id}));
    ns.metadata = s.metadata;
    std::vector<GenomicRegion> rows;
    rows.reserve(s.regions.size());
    for (const auto& r : s.regions) {
      GenomicRegion nr(r.chrom, r.left, r.right, r.strand);
      nr.values = r.values;
      nr.values.resize(schema.size());  // extra slots default to NULL
      rows.push_back(std::move(nr));
    }
    ns.regions = std::move(rows);
    AddProvenance(&ns, "UNION-L", {s.id});
    out.AddSample(std::move(ns));
  }
  for (const auto& s : right.samples()) {
    Sample ns(gdm::DeriveSampleId("UNION-R", {s.id}));
    ns.metadata = s.metadata;
    std::vector<GenomicRegion> rows;
    rows.reserve(s.regions.size());
    for (const auto& r : s.regions) {
      GenomicRegion nr(r.chrom, r.left, r.right, r.strand);
      nr.values.resize(schema.size());
      for (size_t i = 0; i < r.values.size(); ++i) {
        nr.values[right_mapping[i]] = r.values[i];
      }
      rows.push_back(std::move(nr));
    }
    ns.regions = std::move(rows);
    AddProvenance(&ns, "UNION-R", {s.id});
    out.AddSample(std::move(ns));
  }
  return out;
}

Result<gdm::Dataset> Operators::Difference(const DifferenceParams& params,
                                           const Dataset& left,
                                           const Dataset& right) {
  Dataset out("DIFFERENCE", left.schema());
  for (const auto& ls : left.samples()) {
    // Pool the regions of every matching right sample.
    std::vector<const Sample*> matching;
    for (const auto& rs : right.samples()) {
      if (JoinbyMatch(params.joinby, ls.metadata, rs.metadata)) {
        matching.push_back(&rs);
      }
    }
    Sample ns(ls.id);
    ns.metadata = ls.metadata;
    if (matching.empty()) {
      ns.regions = ls.regions;
    } else {
      std::vector<GenomicRegion> negatives = ConcatRegions(matching);
      std::vector<char> keep = interval::ExistsOverlap(ls.regions, negatives);
      for (char& k : keep) k = !k;
      ns.regions = ls.regions.Filtered(keep);
    }
    out.AddSample(std::move(ns));
  }
  return out;
}

Result<gdm::Dataset> Operators::Semijoin(const SemijoinParams& params,
                                         const Dataset& left,
                                         const Dataset& right) {
  if (params.attrs.empty()) {
    return Status::InvalidArgument("SEMIJOIN requires at least one attribute");
  }
  Dataset out("SEMIJOIN", left.schema());
  for (const auto& ls : left.samples()) {
    bool matched = false;
    for (const auto& rs : right.samples()) {
      if (JoinbyMatch(params.attrs, ls.metadata, rs.metadata)) {
        matched = true;
        break;
      }
    }
    if (matched != params.negated) out.AddSample(ls);
  }
  return out;
}

bool Operators::JoinbyMatch(const std::vector<std::string>& joinby,
                            const Metadata& a, const Metadata& b) {
  for (const auto& attr : joinby) {
    auto va = a.ValuesOf(attr);
    auto vb = b.ValuesOf(attr);
    bool shared = false;
    for (const auto& x : va) {
      for (const auto& y : vb) {
        if (x == y) {
          shared = true;
          break;
        }
      }
      if (shared) break;
    }
    if (!shared) return false;
  }
  return true;
}

gdm::RegionSchema Operators::JoinOutputSchema(const RegionSchema& left,
                                              const RegionSchema& right) {
  return RegionSchema::Concat(left, right, "right_");
}

gdm::Sample Operators::DerivedSample(const std::string& op_tag,
                                     const Sample& left, const Sample& right,
                                     bool prefix_left_right) {
  Sample ns(gdm::DeriveSampleId(op_tag, {left.id, right.id}));
  if (prefix_left_right) {
    ns.metadata = Metadata::Union(left.metadata.WithPrefix("left."),
                                  right.metadata.WithPrefix("right."));
  } else {
    ns.metadata = Metadata::Union(left.metadata, right.metadata);
  }
  AddProvenance(&ns, op_tag, {left.id, right.id});
  return ns;
}

gdm::Sample Operators::DerivedGroupSample(
    const std::string& op_tag, const std::vector<const Sample*>& members) {
  std::vector<gdm::SampleId> parents;
  Metadata meta;
  for (const auto* m : members) {
    parents.push_back(m->id);
    meta = Metadata::Union(meta, m->metadata);
  }
  Sample ns(gdm::DeriveSampleId(op_tag, parents));
  ns.metadata = std::move(meta);
  AddProvenance(&ns, op_tag, parents);
  return ns;
}

gdm::Sample Operators::JoinPair(const JoinParams& params,
                                const Sample& left_sample,
                                const Sample& right_sample) {
  Sample ns = DerivedSample("JOIN", left_sample, right_sample, true);

  const auto& pred = params.predicate;
  std::vector<GenomicRegion>& out = ns.regions.mutable_rows();
  auto emit = [&](size_t li, size_t ri) {
    JoinEmit(params, left_sample.regions[li], right_sample.regions[ri], &out);
  };

  if (pred.md_k > 0) {
    interval::NearestK(left_sample.regions, right_sample.regions,
                       static_cast<size_t>(pred.md_k), emit);
  } else {
    interval::DistanceJoin(left_sample.regions, right_sample.regions,
                           pred.min_dist == INT64_MIN ? INT64_MIN / 4
                                                      : pred.min_dist,
                           pred.max_dist, emit);
  }
  ns.SortNow();
  return ns;
}

bool Operators::JoinEmit(const JoinParams& params, const GenomicRegion& lr,
                         const GenomicRegion& rr,
                         std::vector<GenomicRegion>* out) {
  const auto& pred = params.predicate;
  int64_t d = lr.DistanceTo(rr);
  if (d < pred.min_dist || d > pred.max_dist) return false;
  if (pred.upstream || pred.downstream) {
    // Strand-aware relative position of the right region w.r.t. the left.
    bool minus = lr.strand == gdm::Strand::kMinus;
    bool right_is_up = minus ? rr.left >= lr.right : rr.right <= lr.left;
    bool right_is_down = minus ? rr.right <= lr.left : rr.left >= lr.right;
    if (pred.upstream && !right_is_up) return false;
    if (pred.downstream && !right_is_down) return false;
  }
  GenomicRegion out_region;
  switch (params.output) {
    case JoinOutput::kLeft:
      out_region = GenomicRegion(lr.chrom, lr.left, lr.right, lr.strand);
      break;
    case JoinOutput::kRight:
      out_region = GenomicRegion(rr.chrom, rr.left, rr.right, rr.strand);
      break;
    case JoinOutput::kIntersection:
      if (!lr.Overlaps(rr)) return false;  // INT only emits overlapping pairs
      out_region = interval::IntersectCoords(lr, rr);
      break;
    case JoinOutput::kContig:
      if (lr.chrom != rr.chrom) return false;
      out_region = interval::SpanCoords(lr, rr);
      break;
  }
  out_region.values.reserve(lr.values.size() + rr.values.size());
  out_region.values.insert(out_region.values.end(), lr.values.begin(),
                           lr.values.end());
  out_region.values.insert(out_region.values.end(), rr.values.begin(),
                           rr.values.end());
  out->push_back(std::move(out_region));
  return true;
}

Result<gdm::Dataset> Operators::Join(const JoinParams& params,
                                     const Dataset& left,
                                     const Dataset& right) {
  if (!params.predicate.has_upper && params.predicate.md_k == 0) {
    return Status::InvalidArgument(
        "genometric JOIN requires an upper distance bound (DLE/DLT) or MD(k)");
  }
  Dataset out("JOIN", JoinOutputSchema(left.schema(), right.schema()));
  for (const auto& ls : left.samples()) {
    for (const auto& rs : right.samples()) {
      if (!JoinbyMatch(params.joinby, ls.metadata, rs.metadata)) continue;
      out.AddSample(JoinPair(params, ls, rs));
    }
  }
  return out;
}

std::vector<AggregateSpec> Operators::EffectiveMapAggregates(
    const MapParams& params) {
  if (!params.aggregates.empty()) return params.aggregates;
  return {AggregateSpec{"count", AggFunc::kCount, ""}};
}

Result<gdm::RegionSchema> Operators::MapOutputSchema(
    const MapParams& params, const RegionSchema& ref_schema) {
  RegionSchema schema = ref_schema;
  AppendAggAttrs(EffectiveMapAggregates(params), &schema);
  return schema;
}

gdm::Sample Operators::MapPair(const std::vector<AggregateSpec>& specs,
                               const std::vector<size_t>& agg_inputs,
                               const Sample& ref_sample,
                               const Sample& exp_sample) {
  Sample ns = DerivedSample("MAP", ref_sample, exp_sample, false);

  // One accumulator row per ref region.
  std::vector<std::vector<AggAccumulator>> accs(ref_sample.regions.size());
  for (auto& row : accs) {
    row.reserve(specs.size());
    for (const auto& spec : specs) row.emplace_back(spec.func);
  }
  interval::OverlapJoin(
      ref_sample.regions, exp_sample.regions, [&](size_t ri, size_t ei) {
        auto& row = accs[ri];
        for (size_t a = 0; a < specs.size(); ++a) {
          if (agg_inputs[a] == SIZE_MAX) {
            row[a].AddRegion();
          } else {
            row[a].Add(exp_sample.regions[ei].values[agg_inputs[a]]);
          }
        }
      });
  std::vector<GenomicRegion>& out = ns.regions.mutable_rows();
  out.reserve(ref_sample.regions.size());
  for (size_t ri = 0; ri < ref_sample.regions.size(); ++ri) {
    GenomicRegion nr = ref_sample.regions[ri];
    for (auto& acc : accs[ri]) nr.values.push_back(acc.Finish());
    out.push_back(std::move(nr));
  }
  return ns;
}

Result<gdm::Dataset> Operators::Map(const MapParams& params,
                                    const Dataset& ref, const Dataset& exp) {
  auto specs = EffectiveMapAggregates(params);
  GDMS_ASSIGN_OR_RETURN(std::vector<size_t> inputs,
                        ResolveAggInputs(specs, exp.schema()));
  GDMS_ASSIGN_OR_RETURN(RegionSchema schema,
                        MapOutputSchema(params, ref.schema()));
  Dataset out("MAP", schema);
  for (const auto& rs : ref.samples()) {
    for (const auto& es : exp.samples()) {
      if (!JoinbyMatch(params.joinby, rs.metadata, es.metadata)) continue;
      out.AddSample(MapPair(specs, inputs, rs, es));
    }
  }
  return out;
}

gdm::RegionSchema Operators::CoverOutputSchema(const CoverParams& params) {
  RegionSchema schema;
  if (params.variant == CoverVariant::kHistogram ||
      params.variant == CoverVariant::kSummit) {
    (void)schema.AddAttr("acc_index", AttrType::kInt);
  }
  AppendAggAttrs(params.aggregates, &schema);
  return schema;
}

Result<gdm::Dataset> Operators::Cover(const CoverParams& params,
                                      const Dataset& in) {
  GDMS_ASSIGN_OR_RETURN(std::vector<size_t> inputs,
                        ResolveAggInputs(params.aggregates, in.schema()));
  bool with_acc = params.variant == CoverVariant::kHistogram ||
                  params.variant == CoverVariant::kSummit;
  Dataset out(CoverVariantName(params.variant), CoverOutputSchema(params));

  std::map<std::string, std::vector<const Sample*>> groups;
  for (const auto& s : in.samples()) {
    std::string key =
        params.groupby.empty() ? "" : s.metadata.FirstValue(params.groupby);
    groups[key].push_back(&s);
  }

  for (const auto& [key, members] : groups) {
    std::vector<GenomicRegion> pooled = ConcatRegions(members);
    auto profile = interval::AccumulationProfile(pooled);
    interval::CoverBounds bounds{params.min_acc, params.max_acc};

    std::vector<GenomicRegion> regions;
    std::vector<int64_t> counts;
    switch (params.variant) {
      case CoverVariant::kCover:
        regions = interval::Cover(profile, bounds);
        break;
      case CoverVariant::kFlat:
        regions = interval::Flat(profile, bounds, pooled);
        break;
      case CoverVariant::kHistogram:
        regions = interval::Histogram(profile, bounds, &counts);
        break;
      case CoverVariant::kSummit:
        regions = interval::Summit(profile, bounds, &counts);
        break;
    }

    Sample ns = DerivedGroupSample(CoverVariantName(params.variant), members);
    if (!params.groupby.empty()) ns.metadata.Add(params.groupby, key);

    // Aggregates over the input regions intersecting each output region.
    std::vector<std::vector<AggAccumulator>> accs(regions.size());
    if (!params.aggregates.empty()) {
      for (auto& row : accs) {
        row.reserve(params.aggregates.size());
        for (const auto& spec : params.aggregates) row.emplace_back(spec.func);
      }
      interval::OverlapJoin(regions, pooled, [&](size_t oi, size_t ii) {
        auto& row = accs[oi];
        for (size_t a = 0; a < params.aggregates.size(); ++a) {
          if (inputs[a] == SIZE_MAX) {
            row[a].AddRegion();
          } else {
            row[a].Add(pooled[ii].values[inputs[a]]);
          }
        }
      });
    }
    for (size_t i = 0; i < regions.size(); ++i) {
      GenomicRegion& nr = regions[i];
      if (with_acc) nr.values.push_back(Value(counts[i]));
      if (!params.aggregates.empty()) {
        for (auto& acc : accs[i]) nr.values.push_back(acc.Finish());
      }
    }
    ns.regions = std::move(regions);
    out.AddSample(std::move(ns));
  }
  return out;
}

}  // namespace gdms::core
