#ifndef GDMS_ENGINE_TASK_GRAPH_H_
#define GDMS_ENGINE_TASK_GRAPH_H_

#include <cstddef>
#include <cstdint>
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
/// nested metadata scan) and JOIN's per-pair partitioning reuses bin chunks
/// of the shared ref sample plus the chunk directory of the exp sample's
/// columns. (MAP, DIFFERENCE and COVER partition by chromosome chunk.)

/// One (ref-chunk, exp-range) partition: the unit of the flat task list.
struct TaskPartition {
  size_t ref_begin = 0;
  size_t ref_end = 0;
  size_t exp_begin = 0;
  size_t exp_end = 0;
};

/// A contiguous (chromosome, bin-range) chunk of a sorted ref region list.
/// Chunks depend only on (ref regions, bin_size), so one chunk list is
/// shared by every pair with the same ref sample.
struct RefChunk {
  size_t begin = 0;
  size_t end = 0;
  int32_t chrom = 0;
  int64_t span_start = 0;  ///< left of the first region in the chunk
  int64_t max_right = 0;   ///< max right coordinate within the chunk
};

/// Splits a sorted region list into (chromosome, bin)-granularity chunks.
std::vector<RefChunk> MakeRefChunks(
    const std::vector<gdm::GenomicRegion>& refs, int64_t bin_size);

/// Attaches to every ref chunk the exp range that can reach it: exps whose
/// span widened by `slack` may touch [span_start, max_right). Uses the chunk
/// directory of the exp sample's columns for the chromosome's max region
/// length and an O(log) search of its left column, instead of rescanning
/// every exp region.
std::vector<TaskPartition> BindPartitions(const std::vector<RefChunk>& chunks,
                                          const gdm::RegionColumns& exps,
                                          int64_t slack);

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
