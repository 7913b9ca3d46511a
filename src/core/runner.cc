#include "core/runner.h"

#include <chrono>
#include <optional>
#include <set>

#include "gdm/query_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gdms::core {

namespace {

obs::Counter* EvictionsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "gdms_mem_evictions_total");
  return c;
}

}  // namespace

QueryRunner::QueryRunner()
    : owned_executor_(std::make_unique<ReferenceExecutor>()),
      executor_(owned_executor_.get()) {}

QueryRunner::QueryRunner(Executor* executor) : executor_(executor) {}

QueryRunner::~QueryRunner() {
  for (const auto& [name, token] : storage_tokens_) {
    obs::ResourceTracker::Global().UnregisterStorage(token);
  }
}

QueryRunner::QueryRunner(QueryRunner&& other) noexcept
    : owned_executor_(std::move(other.owned_executor_)),
      executor_(other.executor_),
      sources_(std::move(other.sources_)),
      storage_tokens_(std::move(other.storage_tokens_)),
      provider_(std::move(other.provider_)),
      shed_at_quiesce_(other.shed_at_quiesce_),
      options_(other.options_),
      stats_(std::move(other.stats_)) {
  other.executor_ = nullptr;
  other.sources_.clear();
  other.storage_tokens_.clear();
}

QueryRunner& QueryRunner::operator=(QueryRunner&& other) noexcept {
  if (this != &other) {
    for (const auto& [name, token] : storage_tokens_) {
      obs::ResourceTracker::Global().UnregisterStorage(token);
    }
    owned_executor_ = std::move(other.owned_executor_);
    executor_ = other.executor_;
    sources_ = std::move(other.sources_);
    storage_tokens_ = std::move(other.storage_tokens_);
    provider_ = std::move(other.provider_);
    shed_at_quiesce_ = other.shed_at_quiesce_;
    options_ = other.options_;
    stats_ = std::move(other.stats_);
    other.executor_ = nullptr;
    other.sources_.clear();
    other.storage_tokens_.clear();
  }
  return *this;
}

void QueryRunner::RegisterDataset(gdm::Dataset dataset) {
  std::string name = dataset.name();
  obs::ResourceTracker& tracker = obs::ResourceTracker::Global();
  // Replacement destroys the old Dataset in place; drop its registration
  // first so the sampler cannot walk a dataset mid-assignment (Unregister
  // synchronizes with the tracker's callback lock).
  auto tok = storage_tokens_.find(name);
  if (tok != storage_tokens_.end()) {
    tracker.UnregisterStorage(tok->second);
    storage_tokens_.erase(tok);
  }
  auto [it, inserted] =
      sources_.insert_or_assign(std::move(name), std::move(dataset));
  (void)inserted;
  gdm::Dataset* ds = &it->second;
  // Row storage is immutable once registered, so its (O(regions)) estimate
  // is computed once here; only the columnar-cache occupancy is live.
  uint64_t row_bytes = ds->EstimateResidentBytes();
  uint64_t token = tracker.RegisterStorage(
      it->first,
      [ds, row_bytes] {
        obs::StorageUsage usage;
        usage.rows_bytes = row_bytes;
        usage.columnar_bytes = ds->ColumnarCacheBytes();
        return usage;
      },
      [ds](uint64_t want_bytes) {
        // Shed callback: drop built columnar caches sample by sample until
        // the request is satisfied. Caches rebuild lazily from the intact
        // row storage, so results are unaffected. Only ever called between
        // queries (ResourceTracker::MaybeShed contract).
        uint64_t freed = 0, evicted = 0;
        for (auto& s : *ds->mutable_samples()) {
          if (freed >= want_bytes) break;
          uint64_t b = s.EvictColumns();
          if (b > 0) {
            freed += b;
            ++evicted;
          }
        }
        if (evicted > 0) EvictionsCounter()->Add(evicted);
        return freed;
      });
  storage_tokens_.emplace(it->first, token);
}

const gdm::Dataset* QueryRunner::FindDataset(const std::string& name) const {
  auto it = sources_.find(name);
  return it == sources_.end() ? nullptr : &it->second;
}

const gdm::Dataset* QueryRunner::ResolveSource(const std::string& name) {
  const gdm::Dataset* found = nullptr;
  if (provider_) {
    if (std::shared_ptr<const gdm::Dataset> snapshot = provider_(name)) {
      found = snapshot.get();
      pinned_.push_back(std::move(snapshot));
    }
  }
  if (found == nullptr) found = FindDataset(name);
  if (found != nullptr) resolved_.push_back(found);
  return found;
}

std::vector<std::string> QueryRunner::DatasetNames() const {
  std::vector<std::string> out;
  out.reserve(sources_.size());
  for (const auto& [name, ds] : sources_) out.push_back(name);
  return out;
}

Result<std::map<std::string, gdm::Dataset>> QueryRunner::Run(
    const std::string& gmql_text) {
  GDMS_ASSIGN_OR_RETURN(Program program, Parser::Parse(gmql_text));
  return RunProgram(std::move(program));
}

Result<std::map<std::string, gdm::Dataset>> QueryRunner::RunProgram(
    Program program) {
  auto start = std::chrono::steady_clock::now();
  // RunStats (counters, memo figures, profile) are rebuilt from zero here
  // and the executor's scheduling counters are re-based, so back-to-back
  // Run() calls never leak telemetry into each other.
  stats_ = RunStats{};
  executor_->ResetStats();
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::Span query_span = tracer.StartSpan("query", "query", 0);
  if (options_.trace.valid()) {
    stats_.trace_id = options_.trace.id;
    if (query_span.active()) {
      query_span.AddAttr("trace_parent",
                         static_cast<double>(options_.trace.parent_span));
    }
  }
  obs::ResourceTracker& tracker = obs::ResourceTracker::Global();
  bool accounting = tracker.accounting_enabled();
  pinned_.clear();
  resolved_.clear();
  // Clears the per-run source pins on every exit path.
  struct RunCleanup {
    QueryRunner* runner;
    ~RunCleanup() {
      runner->pinned_.clear();
      runner->resolved_.clear();
    }
  } cleanup{this};
  // This query's context, on this thread and on every engine task it runs:
  // reads of corrupt stored attribute columns land in `attr_reads` (see the
  // check after evaluation), operator outputs and engine scratch buffers
  // are charged to `account`, and spans opened below the runner nest under
  // the query's spans, whatever other queries run beside it.
  gdm::AttrReadLog attr_reads;
  gdm::QueryContext query{
      &attr_reads,
      accounting ? std::make_shared<obs::QueryAccounting>() : nullptr,
      query_span.id()};
  gdm::QueryContext::Scope query_scope(query);
  if (options_.optimize) {
    stats_.optimizer = Optimizer::Optimize(&program);
  }
  if (options_.fusion) {
    stats_.fusion = Optimizer::FusePerPartitionChains(&program);
  }
  std::map<const PlanNode*, gdm::Dataset> memo;
  std::map<std::string, gdm::Dataset> outputs;
  // Evaluate every sink first (the memo may be shared across sinks), then
  // extract results. A sink result is moved out of the memo when no other
  // sink shares its subtree — large results are not copied on the way out.
  for (const auto& sink : program.sinks) {
    GDMS_RETURN_NOT_OK(Evaluate(sink, &memo, query_span.id()).status());
  }
  // Everything in the memo that is not about to be handed out as a sink
  // payload was an intermediate dataset: materialized only to feed the next
  // operator. Count before extraction erases the payload entries.
  {
    std::set<const PlanNode*> payloads;
    for (const auto& sink : program.sinks) {
      payloads.insert(sink->kind == OpKind::kMaterialize
                          ? sink->children[0].get()
                          : sink.get());
    }
    for (const auto& [node, ds] : memo) {
      if (payloads.count(node) == 0) ++stats_.intermediate_datasets;
    }
  }
  for (size_t i = 0; i < program.sinks.size(); ++i) {
    const PlanNode::Ptr& sink = program.sinks[i];
    const PlanNode* payload = sink->kind == OpKind::kMaterialize
                                  ? sink->children[0].get()
                                  : sink.get();
    bool shared = false;
    for (size_t j = i + 1; j < program.sinks.size(); ++j) {
      const PlanNode* other = program.sinks[j]->kind == OpKind::kMaterialize
                                  ? program.sinks[j]->children[0].get()
                                  : program.sinks[j].get();
      if (other == payload) shared = true;
    }
    gdm::Dataset out;
    auto it = memo.find(payload);
    if (it != memo.end()) {
      if (shared) {
        out = it->second;
      } else {
        out = std::move(it->second);
        memo.erase(it);
      }
    } else {
      // The payload is a source dataset; never move registry entries.
      const gdm::Dataset* src = ResolveSource(payload->name);
      if (src == nullptr) {
        return Status::NotFound("unknown dataset: " + payload->name);
      }
      out = *src;
    }
    out.set_name(sink->name);
    outputs.insert_or_assign(sink->name, std::move(out));
  }
  // An output that still shares a stored sample (a metadata-only SELECT,
  // a bare source) hands its consumer every attribute, so decode them now,
  // inside this query's log.
  for (const auto& [name, out] : outputs) out.DecodeStoredAttrs();
  // A stored attribute decodes on first use; one whose payload proved
  // corrupt reads as NULLs, so a result that read it cannot be trusted.
  if (std::optional<gdm::AttrReadLog::Failure> failure = attr_reads.first()) {
    for (const gdm::Dataset* src : resolved_) {
      GDMS_RETURN_NOT_OK(src->NameReadFailure(*failure));
    }
    return Status::ParseError(failure->error.message());
  }
  stats_.executor = executor_->stats();
  if (accounting) {
    stats_.alloc_bytes = query.account->alloc_bytes();
    stats_.peak_bytes = query.account->peak_bytes();
    stats_.op_bytes = query.account->OperatorStats();
    tracker.NoteQueryPeak(stats_.peak_bytes);
    if (query_span.active()) {
      query_span.AddAttr("peak_bytes",
                         static_cast<double>(stats_.peak_bytes));
      query_span.AddAttr("alloc_bytes",
                         static_cast<double>(stats_.alloc_bytes));
    }
  }
  // The query has quiesced: its intermediates are freed with the memo table
  // below, so this is the safe point for the watermark shedder to drop
  // columnar caches / cold pages if a budget is set. Disabled on serve
  // workers (set_shed_at_quiesce(false)): with sibling queries in flight
  // the process has NOT quiesced, and the session manager sheds when the
  // last in-flight query drains instead.
  if (shed_at_quiesce_) tracker.MaybeShed();
  uint64_t query_span_id = query_span.id();
  query_span.End();
  if (query_span_id != 0) {
    stats_.profile =
        std::make_shared<obs::Profile>(tracer.Collect(query_span_id));
  }
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("gdms_runner_queries_total");
  static obs::Histogram* latency = obs::MetricsRegistry::Global().GetHistogram(
      "gdms_runner_query_latency_us");
  static obs::Counter* intermediates =
      obs::MetricsRegistry::Global().GetCounter(
          "gdms_runner_intermediate_datasets_total");
  static obs::Counter* fused_chains =
      obs::MetricsRegistry::Global().GetCounter(
          "gdms_runner_fused_chains_total");
  queries->Add();
  latency->Record(static_cast<uint64_t>(stats_.wall_seconds * 1e6));
  intermediates->Add(stats_.intermediate_datasets);
  fused_chains->Add(stats_.fusion.chains_fused);
  return outputs;
}

Result<const gdm::Dataset*> QueryRunner::Evaluate(
    const PlanNode::Ptr& node, std::map<const PlanNode*, gdm::Dataset>* memo,
    uint64_t parent_span) {
  auto it = memo->find(node.get());
  if (it != memo->end()) {
    ++stats_.cache_hits;
    return &it->second;
  }
  if (node->kind == OpKind::kSource) {
    const gdm::Dataset* src = ResolveSource(node->name);
    if (src == nullptr) {
      return Status::NotFound("unknown dataset: " + node->name);
    }
    // LRU bump for the shedder: this dataset's caches were just used.
    // (Provider-served datasets are touched by the catalog's Resolve.)
    auto tok = storage_tokens_.find(node->name);
    if (tok != storage_tokens_.end()) {
      obs::ResourceTracker::Global().Touch(tok->second);
    }
    return src;
  }
  obs::Tracer& tracer = obs::Tracer::Global();
  // MATERIALIZE is a sink marker with no data semantics: pass the child
  // through so large results are never copied just to be renamed. It still
  // gets a span so the profile tree is rooted at the named sink.
  if (node->kind == OpKind::kMaterialize) {
    obs::Span span = tracer.StartSpan("MATERIALIZE " + node->name, "operator",
                                      parent_span);
    return Evaluate(node->children[0], memo, span.id());
  }
  // A fused node's span names every logical operator in the chain
  // ("MAP+SELECT") and carries fused=true, so EXPLAIN ANALYZE stays truthful
  // about which operators ran even though they share one physical stage.
  std::string op_name = node->kind == OpKind::kFused ? node->FusedChainName()
                                                     : OpKindName(node->kind);
  obs::Span span = tracer.StartSpan(op_name, "operator", parent_span);
  if (node->kind == OpKind::kFused && span.active()) {
    span.AddAttr("fused", 1);
    span.AddAttr("fused_stages",
                 static_cast<double>(node->fused_stages.size()));
  }
  std::vector<const gdm::Dataset*> inputs;
  inputs.reserve(node->children.size());
  for (const auto& child : node->children) {
    GDMS_ASSIGN_OR_RETURN(const gdm::Dataset* in,
                          Evaluate(child, memo, span.id()));
    inputs.push_back(in);
  }
  ExecutorStats before = span.active() ? executor_->stats() : ExecutorStats{};
  // Name the operator for byte attribution: scratch buffers the engine
  // charges during Execute and the output charge below land on it.
  const gdm::QueryContext& query = gdm::QueryContext::Current();
  obs::QueryAccounting* account = query.account.get();
  if (account != nullptr) account->SetCurrentOp(op_name);
  gdm::Dataset out;
  {
    // Engine stage spans and federation hops emitted inside Execute nest
    // under this operator's span.
    gdm::QueryContext op_query = query;
    op_query.span = span.id();
    gdm::QueryContext::Scope scope(op_query);
    GDMS_ASSIGN_OR_RETURN(out, executor_->Execute(*node, inputs));
  }
  if (account != nullptr) {
    // Region storage shared with an input (a pass-through) was not
    // allocated by this operator, so it is not charged again.
    uint64_t out_bytes = out.EstimateResidentBytes(inputs);
    account->Charge(out_bytes);
    if (span.active()) {
      span.AddAttr("out_bytes", static_cast<double>(out_bytes));
    }
  }
  if (span.active()) {
    ExecutorStats after = executor_->stats();
    span.AddAttr("out_samples", static_cast<double>(out.num_samples()));
    span.AddAttr("out_regions", static_cast<double>(out.TotalRegions()));
    if (after.tasks > before.tasks) {
      span.AddAttr("tasks", static_cast<double>(after.tasks - before.tasks));
    }
    if (after.partitions > before.partitions) {
      span.AddAttr("partitions",
                   static_cast<double>(after.partitions - before.partitions));
    }
    if (after.shuffle_bytes > before.shuffle_bytes) {
      span.AddAttr("shuffle_bytes", static_cast<double>(after.shuffle_bytes -
                                                        before.shuffle_bytes));
    }
  }
  ++stats_.operators_evaluated;
  auto [pos, inserted] = memo->emplace(node.get(), std::move(out));
  (void)inserted;
  return &pos->second;
}

obs::QueryLogEntry MakeQueryLogEntry(const std::string& query,
                                     const RunStats& stats,
                                     const std::string& error) {
  obs::QueryLogEntry entry;
  entry.query = query;
  entry.ok = error.empty();
  entry.error = error;
  entry.wall_ms = stats.wall_seconds * 1e3;
  entry.operators = stats.operators_evaluated;
  entry.cache_hits = stats.cache_hits;
  entry.intermediate_datasets = stats.intermediate_datasets;
  entry.fused_chains = stats.fusion.chains_fused;
  entry.tasks = stats.executor.tasks;
  entry.partitions = stats.executor.partitions;
  entry.shuffle_bytes = stats.executor.shuffle_bytes;
  entry.stage_barriers = stats.executor.stage_barriers;
  entry.alloc_bytes = stats.alloc_bytes;
  entry.peak_bytes = stats.peak_bytes;
  entry.profile = stats.profile;
  if (stats.trace_id.valid()) entry.trace_id = stats.trace_id.ToHex();
  return entry;
}

}  // namespace gdms::core
