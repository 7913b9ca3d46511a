#include "serve/session_manager.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <utility>

#include "engine/parallel_executor.h"
#include "obs/metrics.h"
#include "obs/resource.h"

namespace gdms::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct ServeMetrics {
  obs::Gauge* active;
  obs::Gauge* queue_depth;
  obs::Gauge* workers;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* completed;
  obs::Counter* failed;
  obs::Counter* deadline_exceeded;
  obs::Histogram* latency_us;
  obs::Histogram* queue_wait_us;
  obs::Histogram* exec_us;

  static ServeMetrics& Get() {
    static ServeMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      ServeMetrics out;
      out.active = reg.GetGauge("gdms_serve_active_sessions");
      out.queue_depth = reg.GetGauge("gdms_serve_queue_depth");
      out.workers = reg.GetGauge("gdms_serve_workers");
      out.admitted = reg.GetCounter("gdms_serve_admitted_total");
      out.rejected = reg.GetCounter("gdms_serve_rejected_total");
      out.completed = reg.GetCounter("gdms_serve_completed_total");
      out.failed = reg.GetCounter("gdms_serve_failed_total");
      out.deadline_exceeded =
          reg.GetCounter("gdms_serve_deadline_exceeded_total");
      out.latency_us = reg.GetHistogram("gdms_serve_latency_us");
      out.queue_wait_us = reg.GetHistogram("gdms_serve_queue_wait_us");
      out.exec_us = reg.GetHistogram("gdms_serve_exec_us");
      return out;
    }();
    return m;
  }
};

/// Whitespace is structural in the span list/wire formats, and serve span
/// names derived from operator names ("MATERIALIZE OUT") can carry spaces.
std::string SpanName(std::string name) {
  for (char& c : name) {
    if (c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  return name;
}

/// Collects the kSource names a program reads, in first-use order. Walks
/// children and fused stages so fused chains don't hide their inputs.
void CollectSources(const core::PlanNode::Ptr& node,
                    std::vector<std::string>* out) {
  if (node == nullptr) return;
  if (node->kind == core::OpKind::kSource) {
    if (std::find(out->begin(), out->end(), node->name) == out->end()) {
      out->push_back(node->name);
    }
  }
  for (const core::PlanNode::Ptr& child : node->children) {
    CollectSources(child, out);
  }
  for (const core::PlanNode::Ptr& stage : node->fused_stages) {
    CollectSources(stage, out);
  }
}

}  // namespace

SessionManager::SessionManager(ServeCatalog* catalog, ServeOptions options)
    : catalog_(catalog),
      options_([&] {
        ServeOptions o = options;
        o.workers = std::max<size_t>(1, o.workers);
        o.queue_limit = std::max<size_t>(1, o.queue_limit);
        return o;
      }()),
      plan_cache_(options.plan_cache_shapes, options.plan_bindings_per_shape),
      result_cache_(options.result_cache_bytes),
      pool_(std::max<size_t>(1, options.workers)) {
  for (size_t i = 0; i < options_.workers; ++i) {
    auto ctx = std::make_unique<WorkerContext>();
    ctx->id = i;
    if (options_.engine_threads > 0) {
      engine::EngineOptions eopts;
      eopts.threads = options_.engine_threads;
      ctx->executor = std::make_unique<engine::ParallelExecutor>(eopts);
    } else {
      ctx->executor = std::make_unique<core::ReferenceExecutor>();
    }
    ctx->runner = std::make_unique<core::QueryRunner>(ctx->executor.get());
    // Cached programs are already optimized and fused; the worker must run
    // them verbatim so the shared plan nodes are never mutated.
    core::ExecOptions worker_exec = options_.exec;
    worker_exec.optimize = false;
    worker_exec.fusion = false;
    ctx->runner->set_exec_options(worker_exec);
    ctx->runner->set_shed_at_quiesce(false);
    free_contexts_.push_back(ctx.get());
    contexts_.push_back(std::move(ctx));
  }
  ServeMetrics::Get().workers->Set(static_cast<int64_t>(options_.workers));
  catalog_->set_on_publish(
      [this](const std::string& name) { result_cache_.InvalidateDataset(name); });
}

SessionManager::~SessionManager() {
  Drain();
  catalog_->set_on_publish(nullptr);
}

Result<PlanCache::Prepared> SessionManager::Prepare(
    const std::string& text) const {
  GDMS_ASSIGN_OR_RETURN(core::Program program, core::Parser::Parse(text));
  if (options_.exec.optimize) core::Optimizer::Optimize(&program);
  if (options_.exec.fusion) core::Optimizer::FusePerPartitionChains(&program);
  PlanCache::Prepared prepared;
  std::string plan_key;
  for (const core::PlanNode::Ptr& sink : program.sinks) {
    CollectSources(sink, &prepared.sources);
    plan_key += sink->Signature();
    plan_key += '\n';
  }
  prepared.plan_key = std::move(plan_key);
  prepared.program = std::make_shared<const core::Program>(std::move(program));
  return prepared;
}

Result<uint64_t> SessionManager::Submit(std::string gmql, ResponseFn done,
                                        double deadline_ms) {
  ServeMetrics& m = ServeMetrics::Get();
  // Admission: reserve a queue slot or fast-fail. fetch_add + undo keeps the
  // check race-free without a lock on the admission path.
  size_t depth = queued_.fetch_add(1, std::memory_order_acq_rel);
  if (depth >= options_.queue_limit) {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    m.rejected->Add();
    return Status::Unavailable("serve queue full (" +
                               std::to_string(options_.queue_limit) +
                               " queries pending)");
  }
  m.queue_depth->Set(static_cast<int64_t>(depth + 1));
  admitted_.fetch_add(1, std::memory_order_relaxed);
  m.admitted->Add();

  auto job = std::make_shared<Job>();
  job->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  job->gmql = std::move(gmql);
  job->done = std::move(done);
  job->submitted = Clock::now();
  // Trace identity is minted at admission, from the query id, so traced
  // runs replay with identical ids and the queue wait is already inside
  // the trace window.
  job->trace.id = obs::MintTraceId(job->id, 0x73657276ull);
  double effective = deadline_ms < 0 ? options_.default_deadline_ms : deadline_ms;
  if (effective > 0) {
    job->has_deadline = true;
    job->deadline =
        job->submitted + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(effective));
  }
  uint64_t id = job->id;
  pool_.Submit([this, job] { RunJob(job.get()); });
  return id;
}

void SessionManager::RunJob(Job* job) {
  ServeMetrics& m = ServeMetrics::Get();
  Clock::time_point dequeued = Clock::now();
  size_t remaining = queued_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  m.queue_depth->Set(static_cast<int64_t>(remaining));

  ServeResponse resp;
  resp.id = job->id;
  resp.queue_ms = MsSince(job->submitted, dequeued);
  m.queue_wait_us->Record(static_cast<uint64_t>(resp.queue_ms * 1000.0));

  // Serve-path trace assembly: spans in wall microseconds since admission,
  // stitched into one DistTrace when the job finishes (or is shed). The
  // same builder runs for every admitted query; retention is tail-based.
  std::vector<obs::DistSpan> tspans;
  uint64_t tnext = 1;
  auto temit = [&](std::string name, std::string segment, uint64_t start_us,
                   uint64_t duration_us, uint64_t parent) {
    obs::DistSpan s;
    s.id = tnext++;
    s.parent = parent;
    s.name = std::move(name);
    s.segment = std::move(segment);
    s.start_us = start_us;
    s.duration_us = duration_us;
    tspans.push_back(std::move(s));
    return tspans.back().id;
  };
  const uint64_t queue_us = static_cast<uint64_t>(resp.queue_ms * 1000.0);
  const uint64_t troot = temit("serve:query", "", 0, 0, 0);
  tspans.back().attrs.emplace_back("query", static_cast<double>(job->id));
  temit("serve:queue", "admit.queue", 0, queue_us, troot);
  // Closes the root at total_ms, stitches, records critical-path metrics,
  // and retains the exemplar when the tail-based criteria fire.
  auto finish_trace = [&](const char* forced_reason) {
    // Spans with id == troot are at a fixed index, but find defensively.
    uint64_t total_us = static_cast<uint64_t>(resp.total_ms * 1000.0);
    for (obs::DistSpan& s : tspans) {
      if (s.id == troot) s.duration_us = std::max(s.duration_us, total_us);
    }
    std::string reason = forced_reason;
    if (reason.empty() && !resp.status.ok()) reason = "error";
    if (reason.empty() && options_.trace_slow_ms > 0 &&
        resp.total_ms >= options_.trace_slow_ms) {
      reason = "slow";
    }
    obs::DistTrace trace = obs::StitchTrace(job->trace.id, std::move(tspans));
    trace.reason = reason;
    auto shared = std::make_shared<const obs::DistTrace>(std::move(trace));
    obs::RecordCriticalPathMetrics(obs::CriticalPath(*shared));
    if (!shared->reason.empty()) obs::TraceExemplars::Global().Keep(shared);
    resp.trace = shared;
  };

  // Expired while queued: shed without executing.
  if (job->has_deadline && dequeued >= job->deadline) {
    resp.status = Status::DeadlineExceeded(
        "deadline expired after " + std::to_string(resp.queue_ms) +
        " ms in queue");
    resp.total_ms = resp.queue_ms;
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    failed_.fetch_add(1, std::memory_order_relaxed);
    m.deadline_exceeded->Add();
    m.failed->Add();
    m.latency_us->Record(static_cast<uint64_t>(resp.total_ms * 1000.0));
    // Even a query that never executed leaves a (minimal) trace: the root
    // plus the queue-wait span, so shed storms are attributable.
    finish_trace("shed");
    job->done(resp);
    TryQuiesceShed();
    return;
  }

  active_.fetch_add(1, std::memory_order_acq_rel);
  m.active->Set(static_cast<int64_t>(active_.load(std::memory_order_relaxed)));
  {
    // Shared side of the execution gate: while held, the quiesce shedder
    // cannot evict storage under this query.
    std::shared_lock<std::shared_mutex> gate(exec_gate_);
    WorkerContext* ctx = AcquireContext();
    resp.worker = ctx->id;

    Clock::time_point plan0 = Clock::now();
    Result<PlanCache::Lookup> lookup_or = plan_cache_.GetOrPrepare(
        job->gmql, [this](const std::string& text) { return Prepare(text); });
    Clock::time_point plan1 = Clock::now();
    const uint64_t plan_off =
        static_cast<uint64_t>(MsSince(job->submitted, plan0) * 1000.0);
    const uint64_t plan_dur =
        static_cast<uint64_t>(MsSince(plan0, plan1) * 1000.0);
    if (!lookup_or.ok()) {
      temit("serve:plan:error", "plan.prepare", plan_off, plan_dur, troot);
      resp.status = lookup_or.status();
    } else {
      const PlanCache::Lookup& lookup = lookup_or.value();
      const PlanCache::Prepared& prepared = *lookup.prepared;
      switch (lookup.outcome) {
        case PlanCache::Outcome::kHit: resp.plan_cache = "hit"; break;
        case PlanCache::Outcome::kRebind: resp.plan_cache = "rebind"; break;
        case PlanCache::Outcome::kMiss: resp.plan_cache = "miss"; break;
      }
      temit(std::string("serve:plan:") + resp.plan_cache, "plan.prepare",
            plan_off, plan_dur, troot);

      // Pin every source snapshot up front; the version key is built from
      // exactly these pins, so a cached entry always matches the bytes the
      // query would read.
      std::map<std::string, ServeCatalog::Snapshot> pins;
      std::string key = prepared.plan_key;
      key += '|';
      for (const std::string& name : prepared.sources) {
        ServeCatalog::Snapshot snap = catalog_->Resolve(name);
        key += name;
        key += '@';
        key += std::to_string(snap.version);
        key += ';';
        pins.emplace(name, std::move(snap));
      }

      bool cache_results = options_.result_cache_bytes > 0;
      if (cache_results) {
        Clock::time_point rc0 = Clock::now();
        if (ResultCache::Results cached = result_cache_.Get(key)) {
          resp.results = std::move(cached);
          resp.result_cache_hit = true;
          resp.status = Status::OK();
          temit("serve:result_cache", "result.cache",
                static_cast<uint64_t>(MsSince(job->submitted, rc0) * 1000.0),
                static_cast<uint64_t>(MsSince(rc0, Clock::now()) * 1000.0),
                troot);
        }
      }
      if (resp.results == nullptr) {
        ctx->runner->set_source_provider(
            [&pins, this](const std::string& name)
                -> std::shared_ptr<const gdm::Dataset> {
              auto it = pins.find(name);
              if (it != pins.end()) return it->second.data;
              return catalog_->Resolve(name).data;
            });
        Clock::time_point t0 = Clock::now();
        const uint64_t exec_off =
            static_cast<uint64_t>(MsSince(job->submitted, t0) * 1000.0);
        const uint64_t texec = temit("serve:exec", "engine", exec_off, 0, troot);
        // Thread the trace into the runner for exactly this program: the
        // engine's wall profile (when the tracer is on) gets rebased under
        // the exec span below, and RunStats carries the trace id into the
        // query log.
        const core::ExecOptions worker_opts = ctx->runner->exec_options();
        core::ExecOptions traced_opts = worker_opts;
        traced_opts.trace = job->trace;
        traced_opts.trace.parent_span = texec;
        ctx->runner->set_exec_options(traced_opts);
        Result<std::map<std::string, gdm::Dataset>> run =
            ctx->runner->RunProgram(*prepared.program);
        ctx->runner->set_exec_options(worker_opts);
        resp.exec_ms = MsSince(t0, Clock::now());
        m.exec_us->Record(static_cast<uint64_t>(resp.exec_ms * 1000.0));
        resp.stats = ctx->runner->last_stats();
        ctx->runner->set_source_provider(nullptr);
        // temit never erases, so span id N sits at index N - 1.
        tspans[texec - 1].duration_us =
            static_cast<uint64_t>(resp.exec_ms * 1000.0);
        // Rebase the engine's operator spans (wall profile) under the exec
        // span. Parents start before their children, so a start-ordered
        // sweep resolves every parent link in one pass; bounded so a huge
        // plan can't bloat the exemplar ring.
        if (resp.stats.profile != nullptr &&
            !resp.stats.profile->roots().empty()) {
          const obs::Profile& prof = *resp.stats.profile;
          int64_t anchor = prof.nodes()[prof.roots()[0]].rec->start_ns;
          std::vector<const obs::SpanRecord*> ops;
          for (const obs::SpanRecord& rec : prof.spans()) {
            if (rec.category == "operator") ops.push_back(&rec);
          }
          std::sort(ops.begin(), ops.end(),
                    [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
                      return a->start_ns < b->start_ns;
                    });
          if (ops.size() > 64) ops.resize(64);
          std::map<std::pair<uint64_t, uint64_t>, uint64_t> remap;
          for (const obs::SpanRecord* rec : ops) {
            uint64_t parent = texec;
            auto it = remap.find({rec->origin, rec->parent});
            if (it != remap.end()) parent = it->second;
            int64_t off_ns = std::max<int64_t>(0, rec->start_ns - anchor);
            uint64_t id = temit(
                SpanName("op:" + rec->name), "",
                exec_off + static_cast<uint64_t>(off_ns / 1000),
                static_cast<uint64_t>(std::max<int64_t>(0, rec->duration_ns) /
                                      1000),
                parent);
            remap[{rec->origin, rec->id}] = id;
          }
        }
        if (!run.ok()) {
          resp.status = run.status();
        } else {
          resp.results =
              std::make_shared<const std::map<std::string, gdm::Dataset>>(
                  std::move(run).value());
          if (cache_results) {
            result_cache_.Put(key, prepared.sources, resp.results);
          }
        }
      }
    }
    ReleaseContext(ctx);
  }
  active_.fetch_sub(1, std::memory_order_acq_rel);
  m.active->Set(static_cast<int64_t>(active_.load(std::memory_order_relaxed)));

  resp.total_ms = MsSince(job->submitted, Clock::now());
  m.latency_us->Record(static_cast<uint64_t>(resp.total_ms * 1000.0));
  finish_trace("");
  if (resp.status.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    m.completed->Add();
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    m.failed->Add();
  }
  job->done(resp);
  TryQuiesceShed();
}

void SessionManager::TryQuiesceShed() {
  obs::ResourceTracker& tracker = obs::ResourceTracker::Global();
  if (tracker.budget_bytes() == 0) return;
  if (queued_.load(std::memory_order_acquire) != 0) return;
  // Exclusive side of the gate: acquires only when no job is executing. A
  // failed try-lock just defers to whichever job finishes next.
  std::unique_lock<std::shared_mutex> gate(exec_gate_, std::try_to_lock);
  if (!gate.owns_lock()) return;
  tracker.MaybeShed();
}

SessionManager::WorkerContext* SessionManager::AcquireContext() {
  std::lock_guard<std::mutex> lk(ctx_mu_);
  // Never empty: the pool has exactly `workers` threads, so at most
  // `workers` jobs run concurrently.
  WorkerContext* ctx = free_contexts_.back();
  free_contexts_.pop_back();
  return ctx;
}

void SessionManager::ReleaseContext(WorkerContext* ctx) {
  std::lock_guard<std::mutex> lk(ctx_mu_);
  free_contexts_.push_back(ctx);
}

ServeResponse SessionManager::Execute(const std::string& gmql,
                                      double deadline_ms) {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  ServeResponse out;
  Result<uint64_t> id = Submit(
      gmql,
      [&](const ServeResponse& resp) {
        std::lock_guard<std::mutex> lk(mu);
        out = resp;
        ready = true;
        cv.notify_one();
      },
      deadline_ms);
  if (!id.ok()) {
    out.status = id.status();
    return out;
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return ready; });
  return out;
}

void SessionManager::Drain() { pool_.WaitIdle(); }

SessionManager::Stats SessionManager::stats() const {
  Stats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.active = active_.load(std::memory_order_relaxed);
  s.queued = queued_.load(std::memory_order_relaxed);
  return s;
}

std::string SessionManager::RenderSessions() const {
  ServeMetrics& m = ServeMetrics::Get();
  Stats s = stats();
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "serve: %zu workers  active=%zu queued=%zu (limit %zu)\n",
                options_.workers, s.active, s.queued, options_.queue_limit);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  admitted=%llu rejected=%llu completed=%llu failed=%llu "
                "deadline_exceeded=%llu\n",
                static_cast<unsigned long long>(s.admitted),
                static_cast<unsigned long long>(s.rejected),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.failed),
                static_cast<unsigned long long>(s.deadline_exceeded));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  latency p50=%.2fms p95=%.2fms p99=%.2fms  queue p95=%.2fms\n",
                m.latency_us->Quantile(0.50) / 1000.0,
                m.latency_us->Quantile(0.95) / 1000.0,
                m.latency_us->Quantile(0.99) / 1000.0,
                m.queue_wait_us->Quantile(0.95) / 1000.0);
  out += buf;
  return out;
}

}  // namespace gdms::serve
