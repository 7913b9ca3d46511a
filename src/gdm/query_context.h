#ifndef GDMS_GDM_QUERY_CONTEXT_H_
#define GDMS_GDM_QUERY_CONTEXT_H_

#include <cstdint>
#include <memory>

namespace gdms::obs {
class QueryAccounting;
class SpanSink;
}  // namespace gdms::obs

namespace gdms::gdm {

class AttrReadLog;

/// \brief Which query the calling thread works for.
///
/// Everything that attributes work to a query reads it from here: a read of
/// a corrupt stored column reports to `attr_reads`, byte charges land on
/// `account`, and spans opened below the runner (engine stages, federation
/// hops, metadata searches) nest under `span` and end into `sink`, the
/// query's own span set. QueryRunner::RunProgram
/// installs one on its thread, Evaluate re-installs it with the operator's
/// span around each Execute, and the parallel executor installs the
/// caller's on every task of a stage, so concurrent queries — one per serve
/// worker — never see each other's context. Outside any Scope (a catalog
/// decoding ahead, a test) Current() is empty: no log, no account, span 0,
/// no sink (so no spans).
struct QueryContext {
  AttrReadLog* attr_reads = nullptr;
  std::shared_ptr<obs::QueryAccounting> account;
  uint64_t span = 0;
  /// Null when the query is untraced.
  obs::SpanSink* sink = nullptr;

  /// The calling thread's context.
  static const QueryContext& Current();

  /// Makes `context` the calling thread's context until destroyed, then
  /// restores the previous one. `context` must outlive the Scope.
  class Scope {
   public:
    explicit Scope(const QueryContext& context);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const QueryContext* previous_;
  };
};

}  // namespace gdms::gdm

#endif  // GDMS_GDM_QUERY_CONTEXT_H_
