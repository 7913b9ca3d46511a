#ifndef GDMS_CORE_OPERATORS_H_
#define GDMS_CORE_OPERATORS_H_

#include <memory>
#include <utility>

#include "common/status.h"
#include "core/plan.h"
#include "gdm/dataset.h"

namespace gdms::core {

/// \brief SELECT, PROJECT or EXTEND bound to its input schema: the one body
/// of each per-sample operator.
///
/// Operators::Select / Project / Extend run it over a dataset (Run), a
/// FusedTail over each sample a fused producer finishes (Apply), and the
/// engine's SELECT splits it into its sequential metadata pass (Keeps) and
/// parallel region step (Rewrite). Binding clones and binds the operator's
/// predicates and expressions, so a bound operator is immutable and every
/// method may run concurrently.
class SampleOp {
 public:
  using Ptr = std::shared_ptr<const SampleOp>;

  virtual ~SampleOp() = default;
  SampleOp(const SampleOp&) = delete;
  SampleOp& operator=(const SampleOp&) = delete;

  /// Errors are the operator's own: an unknown attribute in a region
  /// predicate, a PROJECT keep list or expression, or an aggregate input.
  static Result<Ptr> BindSelect(const SelectParams& params,
                                const gdm::RegionSchema& in);
  static Result<Ptr> BindProject(const ProjectParams& params,
                                 const gdm::RegionSchema& in);
  static Result<Ptr> BindExtend(const ExtendParams& params,
                                const gdm::RegionSchema& in);
  /// Binds a kSelect, kProject or kExtend plan node.
  static Result<Ptr> Bind(const PlanNode& node, const gdm::RegionSchema& in);

  /// Name of the output dataset ("SELECT", "PROJECT" or "EXTEND").
  const char* name() const { return name_; }
  const gdm::RegionSchema& output_schema() const { return schema_; }

  /// False when SELECT's metadata predicate rejects a sample's metadata.
  virtual bool Keeps(const gdm::Metadata&) const { return true; }
  /// Rewrites a kept sample's regions and metadata in place.
  virtual void Rewrite(gdm::Sample* sample) const = 0;
  /// Keeps() then Rewrite(); false, leaving the sample as it was, when the
  /// sample is dropped.
  bool Apply(gdm::Sample* sample) const;
  /// The operator over a dataset: each kept sample is copied (sharing its
  /// regions) and rewritten.
  gdm::Dataset Run(const gdm::Dataset& in) const;

 protected:
  SampleOp(const char* name, gdm::RegionSchema schema)
      : name_(name), schema_(std::move(schema)) {}

 private:
  const char* name_;
  gdm::RegionSchema schema_;
};

/// \brief Reference (sequential) implementations of every GMQL operator.
///
/// These definitions are the semantics of the language: the parallel
/// executors in src/engine must produce datasets equal to these up to sample
/// order. Each operator computes BOTH regions and metadata, connected by
/// sample ids, and stamps a `_provenance` metadata entry on derived samples
/// (paper, Section 2: "knowing why resulting regions were produced is quite
/// relevant").
class Operators {
 public:
  Operators() = delete;

  static Result<gdm::Dataset> Select(const SelectParams& params,
                                     const gdm::Dataset& in);
  static Result<gdm::Dataset> Project(const ProjectParams& params,
                                      const gdm::Dataset& in);
  static Result<gdm::Dataset> Extend(const ExtendParams& params,
                                     const gdm::Dataset& in);
  static Result<gdm::Dataset> Merge(const MergeParams& params,
                                    const gdm::Dataset& in);
  static Result<gdm::Dataset> Group(const GroupParams& params,
                                    const gdm::Dataset& in);
  static Result<gdm::Dataset> Order(const OrderParams& params,
                                    const gdm::Dataset& in);
  static Result<gdm::Dataset> Union(const gdm::Dataset& left,
                                    const gdm::Dataset& right);
  static Result<gdm::Dataset> Difference(const DifferenceParams& params,
                                         const gdm::Dataset& left,
                                         const gdm::Dataset& right);
  /// Metadata semijoin: keeps left samples that share a value on every
  /// listed attribute with at least one right sample (or with none, when
  /// negated). Regions, metadata, ids and schema pass through untouched.
  static Result<gdm::Dataset> Semijoin(const SemijoinParams& params,
                                       const gdm::Dataset& left,
                                       const gdm::Dataset& right);
  static Result<gdm::Dataset> Join(const JoinParams& params,
                                   const gdm::Dataset& left,
                                   const gdm::Dataset& right);
  static Result<gdm::Dataset> Map(const MapParams& params,
                                  const gdm::Dataset& ref,
                                  const gdm::Dataset& exp);
  static Result<gdm::Dataset> Cover(const CoverParams& params,
                                    const gdm::Dataset& in);

  /// The effective aggregate list of a MAP: params.aggregates, or the
  /// default single `count AS COUNT` when empty.
  static std::vector<AggregateSpec> EffectiveMapAggregates(
      const MapParams& params);

  /// Output schema of a MAP with the given inputs (ref schema + aggregate
  /// columns, deduplicating collisions with a numeric suffix).
  static Result<gdm::RegionSchema> MapOutputSchema(
      const MapParams& params, const gdm::RegionSchema& ref_schema);

  /// Output schema of a genometric JOIN (left concat right, with renames).
  static gdm::RegionSchema JoinOutputSchema(const gdm::RegionSchema& left,
                                            const gdm::RegionSchema& right);

  /// Output schema of a COVER-family operator: `acc_index` for HISTOGRAM
  /// and SUMMIT, then the aggregate columns (collisions suffixed).
  static gdm::RegionSchema CoverOutputSchema(const CoverParams& params);

  /// True when two samples match on every joinby attribute (sharing at
  /// least one value per attribute). An empty list always matches.
  static bool JoinbyMatch(const std::vector<std::string>& joinby,
                          const gdm::Metadata& a, const gdm::Metadata& b);

  /// Computes one MAP output sample for the pair (ref_sample, exp_sample);
  /// exposed so the parallel engine can reuse the exact region semantics.
  static gdm::Sample MapPair(const std::vector<AggregateSpec>& specs,
                             const std::vector<size_t>& agg_inputs,
                             const gdm::Sample& ref_sample,
                             const gdm::Sample& exp_sample);

  /// Computes the JOIN output regions for one sample pair; exposed for the
  /// parallel engine.
  static gdm::Sample JoinPair(const JoinParams& params,
                              const gdm::Sample& left_sample,
                              const gdm::Sample& right_sample);

  /// Builds the derived sample shell (content-hashed id, merged metadata,
  /// `_provenance` stamp) for a binary operation over `parents`. With
  /// `prefix_left_right`, parent metadata is namespaced "left." / "right."
  /// (JOIN); otherwise it is unioned as-is (MAP). Regions are left empty.
  static gdm::Sample DerivedSample(const std::string& op_tag,
                                   const gdm::Sample& left,
                                   const gdm::Sample& right,
                                   bool prefix_left_right);

  /// N-ary variant used by MERGE / GROUP / COVER groups: unioned metadata of
  /// all members, content-hashed id, `_provenance` stamp. Regions empty.
  static gdm::Sample DerivedGroupSample(
      const std::string& op_tag,
      const std::vector<const gdm::Sample*>& members);

  /// Applies the genometric predicate and output option to one candidate
  /// region pair, appending the output region on success. Returns true when
  /// a region was emitted. Shared by the reference and parallel JOINs.
  static bool JoinEmit(const JoinParams& params, const gdm::GenomicRegion& lr,
                       const gdm::GenomicRegion& rr,
                       std::vector<gdm::GenomicRegion>* out);
};

}  // namespace gdms::core

#endif  // GDMS_CORE_OPERATORS_H_
