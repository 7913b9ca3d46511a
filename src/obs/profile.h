#ifndef GDMS_OBS_PROFILE_H_
#define GDMS_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace gdms::obs {

/// \brief A collected span set arranged as the per-query profile tree,
/// with the two exporters: the human-readable EXPLAIN ANALYZE rendering
/// and the Chrome trace-event JSON (chrome://tracing / Perfetto).
class Profile {
 public:
  /// Tree node over one span; children sorted by start time.
  struct Node {
    const SpanRecord* rec = nullptr;
    std::vector<size_t> children;  ///< indexes into nodes()
    /// Wall time not covered by child spans (clamped at 0): child spans are
    /// strictly nested and sequential, so self times telescope — they sum
    /// to the root's duration across the whole tree.
    int64_t self_ns = 0;
  };

  explicit Profile(std::vector<SpanRecord> spans);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  /// Indexes of nodes whose parent is absent from the collected set.
  const std::vector<size_t>& roots() const { return roots_; }
  /// Total duration of the root spans.
  int64_t total_ns() const { return total_ns_; }

  /// The annotated plan tree:
  ///
  ///   query                               12.53ms  self 2.1%
  ///   └─ MATERIALIZE RESULT               12.27ms  self 0.1%
  ///      └─ MAP                           12.26ms  self 34.0%  out_regions=...
  ///         ├─ SELECT                      1.05ms  self 100%
  ///         └─ map:compute [stage]         7.11ms  tasks=96 part_max_us=...
  std::string RenderTree() const;

  /// Chrome trace-event JSON ("X" complete events; ts/dur in microseconds).
  /// Spans share one pid and tid, so strictly nested ranges render as a
  /// nested flame.
  std::string RenderChromeTrace() const;

  /// Writes RenderChromeTrace to `path`; false (with stderr note) on error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<Node> nodes_;
  std::vector<size_t> roots_;
  int64_t total_ns_ = 0;
};

}  // namespace gdms::obs

#endif  // GDMS_OBS_PROFILE_H_
