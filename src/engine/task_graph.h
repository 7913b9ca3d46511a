#ifndef GDMS_ENGINE_TASK_GRAPH_H_
#define GDMS_ENGINE_TASK_GRAPH_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "gdm/dataset.h"
#include "gdm/region_columns.h"

namespace gdms::engine {

/// \brief Builders of the flat (sample-pair x genomic-partition) task graph.
///
/// The scheduler's dominant parallelism axis at paper scale is the sample
/// pair (Section 2: thousands of ENCODE samples against one reference), so
/// the engine emits ONE flat task list spanning every pair x partition and
/// runs it through a single ParallelFor instead of looping pairs
/// sequentially. These helpers build that list cheaply: pair enumeration is
/// hash-grouped on the joinby key (O(S) expected instead of the O(S^2)
/// nested metadata scan), and MAP's and JOIN's per-pair partitions come
/// straight from the chunk directories of the two samples' columns.
/// (DIFFERENCE and COVER partition by chromosome chunk too.)

/// One (ref-chunk, exp-chunk) partition: the unit of the flat task list.
struct TaskPartition {
  size_t ref_begin = 0;
  size_t ref_end = 0;
  size_t exp_begin = 0;
  size_t exp_end = 0;
};

/// Appends one partition per chromosome present in both `refs` and `exps`,
/// in ref chunk order: the ref chromosome's chunk against the whole exp
/// chunk of the same chromosome. Neither overlap nor genometric distance
/// crosses chromosomes, so a per-pair sweep over these partitions, in
/// order, reports what the whole-sample sweep reports, in the same order.
void AppendChunkPartitions(const gdm::RegionColumns& refs,
                           const gdm::RegionColumns& exps,
                           std::vector<TaskPartition>* out);

/// Enumerates (left, right) sample-index pairs matching on the joinby
/// attributes, in the same (left-major) order as the reference executor's
/// nested loop. Samples are hash-grouped on their joinby key tuples; pairs
/// with multi-valued attributes enumerate the value cross-product (capped —
/// pathological samples fall back to the direct metadata scan), so the
/// result is exactly the set accepted by Operators::JoinbyMatch.
std::vector<std::pair<size_t, size_t>> MatchJoinbyPairs(
    const gdm::Dataset& left, const gdm::Dataset& right,
    const std::vector<std::string>& joinby);

}  // namespace gdms::engine

#endif  // GDMS_ENGINE_TASK_GRAPH_H_
