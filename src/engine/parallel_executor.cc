#include "engine/parallel_executor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "core/fused.h"
#include "engine/shuffle.h"
#include "gdm/query_context.h"
#include "gdm/region_columns.h"
#include "interval/accumulation.h"
#include "interval/batch.h"
#include "interval/sweep.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace gdms::engine {

namespace {

using core::AggAccumulator;
using core::AggFunc;
using core::AggregateSpec;
using core::FusedTail;
using core::OpKind;
using core::Operators;
using gdm::ColumnChunk;
using gdm::Dataset;
using gdm::GenomicRegion;
using gdm::RegionColumns;
using gdm::RegionSchema;
using gdm::Sample;
using gdm::Value;
using interval::ColumnSlice;
using interval::MergeSlices;

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Per-(spec x ref-row) state of the MAP kernel, finished by
/// AggAccumulator's rules so results are bit-identical to the reference
/// executor. COUNT keeps nothing here (it reads the pair's match counts).
/// MEDIAN and BAG need the matched value multiset and keep one
/// AggAccumulator per ref row. Every other function folds streaming moments
/// whose update and finish steps replay AggAccumulator::Add / ::Finish
/// operation for operation.
class MapAggState {
 public:
  void Init(AggFunc func, size_t rows) {
    func_ = func;
    if (func == AggFunc::kCount) return;
    if (KeepsValues()) {
      accs_.assign(rows, AggAccumulator(func));
      return;
    }
    nn_.assign(rows, 0);
    sum_.assign(rows, 0.0);
    sumsq_.assign(rows, 0.0);
    minv_.assign(rows, 0.0);
    maxv_.assign(rows, 0.0);
  }

  /// Folds one partition's overlap matches, fetching each matched input
  /// value from the exp side's attribute column (late materialization:
  /// matches are sparse relative to the exp row count, so random fetches
  /// beat a dense pass). Match (ref, exp) indices are local to the
  /// partition, whose rows start at `ref_offset` / `input[exp_offset]`.
  /// The column's type is switched on once. Mirrors AggAccumulator::Add:
  /// NULLs are skipped entirely, and string values count toward non-null
  /// but contribute no numerics (their moments stay at the zero
  /// initializer, exactly like the accumulator's).
  void AddMatches(const std::vector<interval::MatchPair>& matches,
                  const gdm::ValueColumn& input, size_t ref_offset,
                  size_t exp_offset) {
    if (func_ == AggFunc::kCount) return;
    auto each_valid = [&](auto&& add) {
      for (const auto& mp : matches) {
        size_t ei = exp_offset + mp.exp;
        if (input.IsValid(ei)) add(ref_offset + mp.ref, ei);
      }
    };
    if (KeepsValues()) {
      each_valid([&](size_t ri, size_t ei) { accs_[ri].Add(input.At(ei)); });
      return;
    }
    switch (input.type()) {
      case gdm::AttrType::kDouble: {
        const double* v = input.doubles().data();
        each_valid([&](size_t ri, size_t ei) { Update(ri, v[ei]); });
        break;
      }
      case gdm::AttrType::kInt: {
        const int64_t* v = input.ints().data();
        each_valid([&](size_t ri, size_t ei) {
          Update(ri, static_cast<double>(v[ei]));
        });
        break;
      }
      case gdm::AttrType::kBool: {
        const uint8_t* v = input.bools().data();
        each_valid([&](size_t ri, size_t ei) {
          Update(ri, v[ei] != 0 ? 1.0 : 0.0);
        });
        break;
      }
      case gdm::AttrType::kString:
        // Non-numeric: ToNumeric fails after non_null_ counted.
        each_valid([&](size_t ri, size_t) { ++nn_[ri]; });
        break;
      case gdm::AttrType::kNull:
        break;  // every row is NULL
    }
  }

  /// The aggregate's output column over the pair's ref rows (`matches`
  /// holds each row's match count), of the schema's type
  /// (core::AggOutputType), with NULL as a cleared validity bit. Row for
  /// row it holds what AggAccumulator::Finish gives.
  gdm::ValueColumn FinishColumn(const std::vector<int64_t>& matches) const {
    const size_t n = matches.size();
    switch (core::AggOutputType(func_)) {
      case gdm::AttrType::kInt: {  // COUNT
        gdm::ValueColumn col(gdm::AttrType::kInt, n, {});
        col.mutable_ints() = matches;
        return col;
      }
      case gdm::AttrType::kString: {  // BAG
        std::vector<std::optional<std::string>> bags(n);
        for (size_t ri = 0; ri < n; ++ri) bags[ri] = accs_[ri].Bag();
        gdm::ValueColumn col(gdm::AttrType::kString, n,
                             gdm::ValueColumn::Validity(n, [&](size_t ri) {
                               return bags[ri].has_value();
                             }));
        gdm::StringNumbering numbering(n);
        for (size_t ri = 0; ri < n; ++ri) {
          if (bags[ri].has_value()) {
            col.mutable_codes()[ri] =
                numbering.Number(*bags[ri], &col.mutable_dict());
          }
        }
        return col;
      }
      default: {
        std::vector<std::optional<double>> values(n);
        for (size_t ri = 0; ri < n; ++ri) values[ri] = FinishDouble(ri);
        gdm::ValueColumn col(gdm::AttrType::kDouble, n,
                             gdm::ValueColumn::Validity(n, [&](size_t ri) {
                               return values[ri].has_value();
                             }));
        std::vector<double>& out = col.mutable_doubles();
        for (size_t ri = 0; ri < n; ++ri) out[ri] = values[ri].value_or(0.0);
        return col;
      }
    }
  }

 private:
  bool KeepsValues() const {
    return func_ == AggFunc::kMedian || func_ == AggFunc::kBag;
  }

  /// AggAccumulator::Finish of a DOUBLE-valued function for ref row `ri`
  /// (nullopt: NULL).
  std::optional<double> FinishDouble(size_t ri) const {
    if (func_ == AggFunc::kMedian) return accs_[ri].Median();
    if (nn_[ri] == 0) return std::nullopt;
    switch (func_) {
      case AggFunc::kSum:
        return sum_[ri];
      case AggFunc::kAvg:
        return sum_[ri] / static_cast<double>(nn_[ri]);
      case AggFunc::kMin:
        return minv_[ri];
      case AggFunc::kMax:
        return maxv_[ri];
      case AggFunc::kStd: {
        if (nn_[ri] < 2) return 0.0;
        double n = static_cast<double>(nn_[ri]);
        double var = (sumsq_[ri] - sum_[ri] * sum_[ri] / n) / (n - 1.0);
        if (var < 0) var = 0;  // numeric noise
        return std::sqrt(var);
      }
      default:
        return std::nullopt;  // unreachable: COUNT / BAG finish apart
    }
  }

  void Update(size_t ri, double x) {
    int64_t n = ++nn_[ri];
    sum_[ri] += x;
    sumsq_[ri] += x * x;
    if (n == 1) {
      minv_[ri] = maxv_[ri] = x;
    } else {
      minv_[ri] = std::min(minv_[ri], x);
      maxv_[ri] = std::max(maxv_[ri], x);
    }
  }

  AggFunc func_ = AggFunc::kCount;
  std::vector<int64_t> nn_;  // non-null matched values per ref row
  std::vector<double> sum_, sumsq_, minv_, maxv_;
  std::vector<AggAccumulator> accs_;  // MEDIAN / BAG only
};

/// 64-bit coordinate columns: COVER's merged inputs, or the coordinates of
/// its output regions, which carry no RegionColumns, lifted out for a batch
/// kernel.
struct Coords64 {
  Coords64() = default;
  explicit Coords64(const std::vector<GenomicRegion>& rows) {
    left.reserve(rows.size());
    right.reserve(rows.size());
    for (const GenomicRegion& r : rows) {
      left.push_back(r.left);
      right.push_back(r.right);
    }
  }

  interval::CoordView view() const {
    interval::CoordView v;
    v.l64 = left.data();
    v.r64 = right.data();
    v.size = left.size();
    return v;
  }

  std::vector<int64_t> left, right;
};

}  // namespace

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMaterialized:
      return "materialized";
    case BackendKind::kPipelined:
      return "pipelined";
  }
  return "?";
}

ParallelExecutor::ParallelExecutor(EngineOptions options)
    : options_(options), pool_(options.threads) {}

Result<gdm::Dataset> ParallelExecutor::Execute(
    const core::PlanNode& node, const std::vector<const Dataset*>& inputs) {
  // Publish this operator's EngineTrace deltas into the process-wide
  // registry (once per operator, not per task): the per-executor atomics
  // stay the single hot-path increment site.
  core::ExecutorStats before = stats();
  uint64_t columnar_before = trace_.columnar_tasks.load(kRelaxed);
  Result<gdm::Dataset> result = ExecuteOp(node, inputs);
  core::ExecutorStats after = stats();
  static obs::Counter* tasks =
      obs::MetricsRegistry::Global().GetCounter("gdms_engine_tasks_total");
  static obs::Counter* partitions =
      obs::MetricsRegistry::Global().GetCounter("gdms_engine_partitions_total");
  static obs::Counter* shuffle_bytes =
      obs::MetricsRegistry::Global().GetCounter(
          "gdms_engine_shuffle_bytes_total");
  static obs::Counter* stage_barriers =
      obs::MetricsRegistry::Global().GetCounter(
          "gdms_engine_stage_barriers_total");
  static obs::Counter* columnar_tasks =
      obs::MetricsRegistry::Global().GetCounter(
          "gdms_engine_columnar_tasks_total");
  tasks->Add(after.tasks - before.tasks);
  partitions->Add(after.partitions - before.partitions);
  shuffle_bytes->Add(after.shuffle_bytes - before.shuffle_bytes);
  stage_barriers->Add(after.stage_barriers - before.stage_barriers);
  columnar_tasks->Add(trace_.columnar_tasks.load(kRelaxed) - columnar_before);
  return result;
}

void ParallelExecutor::RunStage(const char* name, size_t n,
                                const std::function<void(size_t)>& task) {
  trace_.tasks.fetch_add(n, kRelaxed);
  if (n == 0) return;
  // Tasks work for the query that runs the stage, on whichever thread they
  // run: corrupt stored columns they read report to its log.
  const gdm::QueryContext& query = gdm::QueryContext::Current();
  const std::function<void(size_t)> fn = [&](size_t i) {
    gdm::QueryContext::Scope scope(query);
    task(i);
  };
  obs::Tracer& tracer = obs::Tracer::Global();
  if (!tracer.enabled()) {
    pool_.ParallelFor(n, fn);
    return;
  }
  obs::Span span = tracer.StartSpan(name, "stage", query.span, query.sink);
  std::vector<int64_t> starts(n);
  std::vector<int64_t> durations(n);
  int64_t stage_start = tracer.NowNs();
  pool_.ParallelFor(n, [&](size_t i) {
    int64_t t0 = tracer.NowNs();
    fn(i);
    int64_t t1 = tracer.NowNs();
    starts[i] = t0 - stage_start;
    durations[i] = t1 - t0;
  });
  double wait_sum = 0;
  for (int64_t s : starts) wait_sum += static_cast<double>(s);
  obs::SkewStats skew = obs::ComputeSkew(std::move(durations));
  span.AddAttr("tasks", static_cast<double>(n));
  span.AddAttr("queue_wait_mean_us",
               wait_sum / static_cast<double>(n) / 1e3);
  span.AddAttr("part_min_us", static_cast<double>(skew.min_ns) / 1e3);
  span.AddAttr("part_median_us", static_cast<double>(skew.median_ns) / 1e3);
  span.AddAttr("part_max_us", static_cast<double>(skew.max_ns) / 1e3);
}

Status ParallelExecutor::RunPartitionStages(const char* shuffle_stage,
                                            const char* compute_stage,
                                            size_t n,
                                            const SliceLister& slices,
                                            const PartitionKernel& kernel) {
  if (options_.backend == BackendKind::kPipelined) {
    RunStage(compute_stage, n, [&](size_t pi) {
      std::vector<Slice> in;
      slices(pi, &in);
      kernel(pi, in);
    });
    return Status::OK();
  }
  // Stage 1: serialize every slice of every partition (the shuffle write);
  // ONE global barrier; stage 2: deserialize and compute.
  std::vector<std::vector<std::string>> buffers(n);
  std::atomic<uint64_t> held{0};
  RunStage(shuffle_stage, n, [&](size_t pi) {
    std::vector<Slice> in;
    slices(pi, &in);
    buffers[pi].resize(in.size());
    uint64_t bytes = 0;
    for (size_t s = 0; s < in.size(); ++s) {
      RegionCodec::Encode(in[s].store->rows(), in[s].begin, in[s].end,
                          &buffers[pi][s]);
      bytes += buffers[pi][s].size();
    }
    trace_.shuffle_bytes.fetch_add(bytes, kRelaxed);
    held.fetch_add(bytes, kRelaxed);
  });
  trace_.stage_barriers.fetch_add(1, kRelaxed);
  // Charged to the query's current operator while the buffers live: behind
  // the barrier, the runner thread is still inside that operator.
  obs::ScopedCharge shuffle_charge(gdm::QueryContext::Current().account,
                                   held.load(kRelaxed));
  FirstError errors;
  RunStage(compute_stage, n, [&](size_t pi) {
    if (errors.failed()) return;
    std::vector<gdm::RegionStore> decoded;
    decoded.reserve(buffers[pi].size());
    for (const std::string& buf : buffers[pi]) {
      auto rows = RegionCodec::Decode(buf);
      if (!rows.ok()) {
        errors.Capture(rows.status());
        return;
      }
      decoded.emplace_back(std::move(rows).value());
    }
    std::vector<Slice> in;
    for (const gdm::RegionStore& store : decoded) {
      in.push_back({&store, 0, store.size()});
    }
    kernel(pi, in);
  });
  return errors.status();
}

Result<Dataset> ParallelExecutor::EmitStage(
    const char* stage, size_t n, const core::PlanNode* fused,
    const char* name, const RegionSchema& schema,
    const std::function<Sample(size_t)>& build) {
  GDMS_ASSIGN_OR_RETURN(FusedTail tail, FusedTail::Bind(fused, name, schema));
  std::vector<Sample> results(n);
  std::vector<char> keep(n, 0);
  RunStage(stage, n, [&](size_t i) {
    results[i] = build(i);
    keep[i] = tail.ApplySample(&results[i]);
  });
  Dataset out(tail.output_name(), tail.output_schema());
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) out.AddSample(std::move(results[i]));
  }
  return out;
}

Result<gdm::Dataset> ParallelExecutor::ExecuteOp(
    const core::PlanNode& node, const std::vector<const Dataset*>& inputs) {
  switch (node.kind) {
    case OpKind::kSelect:
      return ParallelSelect(node.select, *inputs[0]);
    case OpKind::kMap:
      return ParallelMap(node.map, *inputs[0], *inputs[1]);
    case OpKind::kJoin:
      return ParallelJoin(node.join, *inputs[0], *inputs[1]);
    case OpKind::kCover:
      return ParallelCover(node.cover, *inputs[0]);
    case OpKind::kDifference:
      return ParallelDifference(node.difference, *inputs[0], *inputs[1]);
    case OpKind::kFused:
      return ExecuteFused(node, inputs);
    default:
      return fallback_.Execute(node, inputs);
  }
}

Result<gdm::Dataset> ParallelExecutor::ExecuteFused(
    const core::PlanNode& node, const std::vector<const Dataset*>& inputs) {
  if (node.fused_stages.empty()) {
    return Status::Internal("fused node with no stages");
  }
  const core::PlanNode& producer = *node.fused_stages[0];
  static obs::Counter* fused_chains =
      obs::MetricsRegistry::Global().GetCounter(
          "gdms_engine_fused_chains_total");
  fused_chains->Add();
  switch (producer.kind) {
    case OpKind::kSelect:
      return ParallelSelect(producer.select, *inputs[0], &node);
    case OpKind::kMap:
      return ParallelMap(producer.map, *inputs[0], *inputs[1], &node);
    case OpKind::kJoin:
      return ParallelJoin(producer.join, *inputs[0], *inputs[1], &node);
    case OpKind::kDifference:
      return ParallelDifference(producer.difference, *inputs[0], *inputs[1],
                                &node);
    case OpKind::kCover:
      return ParallelCover(producer.cover, *inputs[0], &node);
    default:
      return Status::Internal("fused node with unsupported producer kind");
  }
}

Result<gdm::Dataset> ParallelExecutor::ParallelSelect(
    const core::SelectParams& params, const Dataset& in,
    const core::PlanNode* fused) {
  GDMS_ASSIGN_OR_RETURN(core::SampleOp::Ptr select,
                        core::SampleOp::BindSelect(params, in.schema()));
  // Metadata pass is cheap and sequential ("meta-first" evaluation).
  std::vector<const Sample*> kept;
  for (const auto& s : in.samples()) {
    if (select->Keeps(s.metadata)) kept.push_back(&s);
  }
  return EmitStage("select:samples", kept.size(), fused, select->name(),
                   select->output_schema(), [&](size_t si) {
                     Sample ns = *kept[si];
                     select->Rewrite(&ns);
                     return ns;
                   });
}

Result<gdm::Dataset> ParallelExecutor::ParallelDifference(
    const core::DifferenceParams& params, const Dataset& left,
    const Dataset& right, const core::PlanNode* fused) {
  // Tasks span (left sample x chromosome). Negatives are merged per
  // chromosome as bare coordinates out of each matched right sample's
  // sorted chunk columns (no Value payload copies), and the exists-sweep
  // runs over packed coordinate arrays — overlap never crosses
  // chromosomes, so per-chromosome difference equals the whole-sample
  // difference.
  auto pair_idx = MatchJoinbyPairs(left, right, params.joinby);
  std::vector<std::vector<const Sample*>> matched(left.num_samples());
  for (const auto& [l, r] : pair_idx) matched[l].push_back(&right.sample(r));

  // The column caches build lazily and thread-safely; this stage only
  // pre-builds them in parallel so overlapping tasks don't duplicate the
  // work. A left sample without a partner loses nothing and is passed
  // through as is, so it needs no columns and no tasks.
  std::vector<std::pair<const Sample*, const Dataset*>> to_build;
  to_build.reserve(left.num_samples());
  for (size_t si = 0; si < left.num_samples(); ++si) {
    if (!matched[si].empty()) to_build.emplace_back(&left.sample(si), &left);
  }
  std::unordered_map<const Sample*, char> seen;
  for (const auto& per_left : matched) {
    for (const Sample* rs : per_left) {
      if (seen.emplace(rs, 1).second) to_build.emplace_back(rs, &right);
    }
  }
  RunStage("difference:columnarize", to_build.size(), [&](size_t i) {
    (void)to_build[i].first->columns(to_build[i].second->schema());
  });

  struct DiffTask {
    size_t sample;
    int32_t chrom;
    size_t begin;
    size_t end;
  };
  std::vector<DiffTask> tasks;
  // One selection vector per partnered left sample; tasks clear the flags
  // of their chromosome's overlapped rows (disjoint ranges, no
  // synchronization).
  std::vector<std::vector<char>> keep(left.num_samples());
  for (size_t si = 0; si < left.num_samples(); ++si) {
    if (matched[si].empty()) continue;
    keep[si].assign(left.sample(si).num_regions(), 1);
    for (const auto& c : left.sample(si).columns(left.schema()).chunks()) {
      tasks.push_back({si, c.chrom, c.begin, c.end});
    }
  }
  trace_.partitions.fetch_add(tasks.size(), kRelaxed);

  RunStage("difference:partitions", tasks.size(), [&](size_t ti) {
    const DiffTask& t = tasks[ti];
    const Sample& ls = left.sample(t.sample);
    trace_.columnar_tasks.fetch_add(1, kRelaxed);
    std::vector<ColumnSlice> chunks;
    for (const Sample* rs : matched[t.sample]) {
      const RegionColumns& rc = rs->columns(right.schema());
      if (const ColumnChunk* ch = rc.FindChunk(t.chrom)) {
        chunks.push_back({&rc, ch->begin, ch->end});
      }
    }
    if (chunks.empty()) return;
    Coords64 negs;
    MergeSlices(chunks, [&](size_t c, size_t row) {
      negs.left.push_back(chunks[c].cols->left(row));
      negs.right.push_back(chunks[c].cols->right(row));
    });
    interval::CoordView rview =
        interval::CoordView::Of(ls.columns(left.schema()), t.begin, t.end);
    size_t n = t.end - t.begin;
    std::vector<char> flags(n, 0);
    interval::ExistsOverlapInto(rview, negs.view(), 0, &flags);
    for (size_t i = 0; i < n; ++i) {
      if (flags[i]) keep[t.sample][t.begin + i] = 0;
    }
  });

  auto assemble = [&](size_t si) {
    const Sample& ls = left.sample(si);
    Sample ns(ls.id);
    ns.metadata = ls.metadata;
    ns.regions =
        matched[si].empty() ? ls.regions : ls.regions.Filtered(keep[si]);
    return ns;
  };
  return EmitStage("difference:assemble", left.num_samples(), fused,
                   "DIFFERENCE", left.schema(), assemble);
}

Result<gdm::Dataset> ParallelExecutor::ParallelMap(
    const core::MapParams& params, const Dataset& ref, const Dataset& exp,
    const core::PlanNode* fused) {
  auto specs = Operators::EffectiveMapAggregates(params);
  GDMS_ASSIGN_OR_RETURN(std::vector<size_t> agg_inputs,
                        core::ResolveAggInputs(specs, exp.schema()));
  GDMS_ASSIGN_OR_RETURN(RegionSchema schema,
                        Operators::MapOutputSchema(params, ref.schema()));

  auto pair_idx = MatchJoinbyPairs(ref, exp, params.joinby);

  // ONE task list spanning every pair x partition: the batch kernel sweeps
  // packed coordinate columns (no Value payloads in the cache lines),
  // buffers the match list, and folds each aggregate's input over it into
  // per-ref-row state, which assembly finishes into typed columns. Match
  // emission order equals the reference sweep's, so double accumulation is
  // bit-identical.
  //
  // Partitions are chunk-aligned (AppendChunkPartitions, shared with JOIN):
  // one task per ref chromosome present on both sides, with no duplicated
  // exp boundary rows.
  struct PairState {
    const Sample* rs;
    const Sample* es;
    std::vector<int64_t> match_count;  // per ref row
    std::vector<MapAggState> aggs;     // per spec
  };
  std::vector<PairState> pairs;
  pairs.reserve(pair_idx.size());
  std::vector<Partition> parts;
  std::vector<size_t> owner;  // parts[i] belongs to pairs[owner[i]]
  for (const auto& [l, r] : pair_idx) {
    PairState ps;
    ps.rs = &ref.sample(l);
    ps.es = &exp.sample(r);
    // A ref chromosome the exp lacks gets no task; its rows still get
    // their zero-match aggregates.
    AppendChunkPartitions(ps.rs->columns(ref.schema()),
                          ps.es->columns(exp.schema()), &parts);
    size_t rows = ps.rs->regions.size();
    ps.match_count.assign(rows, 0);
    ps.aggs.resize(specs.size());
    for (size_t x = 0; x < specs.size(); ++x) {
      ps.aggs[x].Init(specs[x].func, rows);
    }
    owner.resize(parts.size(), pairs.size());
    pairs.push_back(std::move(ps));
  }
  trace_.partitions.fetch_add(parts.size(), kRelaxed);

  GDMS_RETURN_NOT_OK(RunPartitionStages(
      "map:shuffle-write", "map:compute", parts.size(),
      [&](size_t pi, std::vector<Slice>* in) {
        const PairState& ps = pairs[owner[pi]];
        const Partition& part = parts[pi];
        in->push_back({&ps.rs->regions, part.ref_begin, part.ref_end});
        in->push_back({&ps.es->regions, part.exp_begin, part.exp_end});
      },
      [&](size_t pi, const std::vector<Slice>& in) {
        PairState& ps = pairs[owner[pi]];
        trace_.columnar_tasks.fetch_add(1, kRelaxed);
        const RegionColumns& rcols = in[0].store->columns(ref.schema());
        const RegionColumns& ecols = in[1].store->columns(exp.schema());
        std::vector<interval::MatchPair> matches;
        interval::CollectOverlaps(
            interval::CoordView::Of(rcols, in[0].begin, in[0].end),
            interval::CoordView::Of(ecols, in[1].begin, in[1].end), 0,
            &matches);
        // Ref rows are disjoint across partitions, so the per-pair arrays
        // need no synchronization.
        size_t ref_offset = parts[pi].ref_begin;
        for (const auto& mp : matches) {
          ++ps.match_count[ref_offset + mp.ref];
        }
        for (size_t x = 0; x < specs.size(); ++x) {
          if (specs[x].func == AggFunc::kCount) continue;
          ps.aggs[x].AddMatches(matches, ecols.attr(agg_inputs[x]),
                                ref_offset, in[1].begin);
        }
      }));

  // Each output sample is its ref sample's columns, shared, plus one typed
  // column per aggregate; rows are built only if a consumer asks.
  auto assemble = [&](size_t p) {
    const PairState& ps = pairs[p];
    Sample ns = Operators::DerivedSample("MAP", *ps.rs, *ps.es, false);
    std::vector<gdm::ValueColumn> extra;
    extra.reserve(specs.size());
    for (const MapAggState& agg : ps.aggs) {
      extra.push_back(agg.FinishColumn(ps.match_count));
    }
    ns.regions = gdm::RegionStore::Extend(ps.rs->regions, ref.schema(),
                                          std::move(extra));
    return ns;
  };
  return EmitStage("map:assemble", pairs.size(), fused, "MAP", schema,
                   assemble);
}

Result<gdm::Dataset> ParallelExecutor::ParallelJoin(
    const core::JoinParams& params, const Dataset& left, const Dataset& right,
    const core::PlanNode* fused) {
  if (!params.predicate.has_upper && params.predicate.md_k == 0) {
    return Status::InvalidArgument(
        "genometric JOIN requires an upper distance bound (DLE/DLT) or MD(k)");
  }
  RegionSchema schema =
      Operators::JoinOutputSchema(left.schema(), right.schema());
  auto pair_idx = MatchJoinbyPairs(left, right, params.joinby);

  if (params.predicate.md_k > 0) {
    // MD(k) crosses partition boundaries; parallelize over pairs only.
    auto join_pair = [&](size_t p) {
      return Operators::JoinPair(params, left.sample(pair_idx[p].first),
                                 right.sample(pair_idx[p].second));
    };
    return EmitStage("join:md-pairs", pair_idx.size(), fused, "JOIN", schema,
                     join_pair);
  }

  int64_t window = std::max<int64_t>(0, params.predicate.max_dist) + 1;

  // One task list over all pairs x partitions, the partitions MAP uses: the
  // batch kernel sweeps the two chunks' coordinate columns within the
  // distance window and emits each match from the rows, refs ascending and
  // exps ascending per ref, the reference's order. Each task then sorts its
  // own rows in SortRegions' stable order. A partition is one chromosome of
  // one pair and chromosome is the primary sort key, so the per-pair
  // assembly only concatenates the partitions in order: that is the stable
  // sort of the whole sample the reference makes.
  struct PairState {
    const Sample* ls;
    const Sample* rs;
    size_t part_begin;
    size_t part_end;
  };
  std::vector<PairState> pairs;
  pairs.reserve(pair_idx.size());
  std::vector<Partition> parts;
  std::vector<size_t> owner;
  for (const auto& [l, r] : pair_idx) {
    PairState ps{&left.sample(l), &right.sample(r), parts.size(), 0};
    AppendChunkPartitions(ps.ls->columns(left.schema()),
                          ps.rs->columns(right.schema()), &parts);
    ps.part_end = parts.size();
    owner.resize(parts.size(), pairs.size());
    pairs.push_back(ps);
  }
  trace_.partitions.fetch_add(parts.size(), kRelaxed);

  std::vector<std::vector<GenomicRegion>> chunk_out(parts.size());
  GDMS_RETURN_NOT_OK(RunPartitionStages(
      "join:shuffle-write", "join:compute", parts.size(),
      [&](size_t pi, std::vector<Slice>* in) {
        const PairState& ps = pairs[owner[pi]];
        const Partition& part = parts[pi];
        in->push_back({&ps.ls->regions, part.ref_begin, part.ref_end});
        in->push_back({&ps.rs->regions, part.exp_begin, part.exp_end});
      },
      [&](size_t pi, const std::vector<Slice>& in) {
        trace_.columnar_tasks.fetch_add(1, kRelaxed);
        std::vector<interval::MatchPair> matches;
        interval::CollectOverlaps(
            interval::CoordView::Of(in[0].store->columns(left.schema()),
                                    in[0].begin, in[0].end),
            interval::CoordView::Of(in[1].store->columns(right.schema()),
                                    in[1].begin, in[1].end),
            window, &matches);
        const GenomicRegion* lv = in[0].store->rows().data() + in[0].begin;
        const GenomicRegion* rv = in[1].store->rows().data() + in[1].begin;
        std::vector<GenomicRegion> emitted;
        emitted.reserve(matches.size());
        for (const auto& mp : matches) {
          Operators::JoinEmit(params, lv[mp.ref], rv[mp.exp], &emitted);
        }
        // Sort a permutation of the rows' keys (the partition holds one
        // chromosome), the emission index last so the order is the stable
        // one, then move each row once.
        struct Key {
          int64_t left, right;
          uint32_t row;
          gdm::Strand strand;
        };
        std::vector<Key> keys;
        keys.reserve(emitted.size());
        for (size_t i = 0; i < emitted.size(); ++i) {
          const GenomicRegion& r = emitted[i];
          keys.push_back({r.left, r.right, static_cast<uint32_t>(i), r.strand});
        }
        std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
          return std::tie(a.left, a.right, a.strand, a.row) <
                 std::tie(b.left, b.right, b.strand, b.row);
        });
        std::vector<GenomicRegion>& out = chunk_out[pi];
        out.reserve(keys.size());
        for (const Key& k : keys) out.push_back(std::move(emitted[k.row]));
      }));

  auto assemble = [&](size_t p) {
    const PairState& ps = pairs[p];
    Sample ns = Operators::DerivedSample("JOIN", *ps.ls, *ps.rs, true);
    std::vector<GenomicRegion>& rows = ns.regions.mutable_rows();
    size_t total = 0;
    for (size_t pi = ps.part_begin; pi < ps.part_end; ++pi) {
      total += chunk_out[pi].size();
    }
    rows.reserve(total);
    for (size_t pi = ps.part_begin; pi < ps.part_end; ++pi) {
      rows.insert(rows.end(), std::make_move_iterator(chunk_out[pi].begin()),
                  std::make_move_iterator(chunk_out[pi].end()));
    }
    return ns;
  };
  return EmitStage("join:assemble", pairs.size(), fused, "JOIN", schema,
                   assemble);
}

Result<gdm::Dataset> ParallelExecutor::ParallelCover(
    const core::CoverParams& params, const Dataset& in,
    const core::PlanNode* fused) {
  const std::vector<AggregateSpec>& specs = params.aggregates;
  GDMS_ASSIGN_OR_RETURN(std::vector<size_t> agg_inputs,
                        core::ResolveAggInputs(specs, in.schema()));
  RegionSchema schema = Operators::CoverOutputSchema(params);
  const char* variant = core::CoverVariantName(params.variant);

  // Partitions are (group x chromosome), one per chromosome present in any
  // member's chunk directory. Each merges its members' sorted chunk rows,
  // ties in member order, which is the reference's pooled order. Every
  // later step reads only the merged coordinates and the aggregate inputs
  // gathered in that order, so no stage builds a member's rows on the
  // pipelined backend.
  struct CoverPart {
    size_t group;
    int32_t chrom;
    std::vector<Slice> chunks;               // in member order
    Coords64 pooled;                         // the merged member rows
    std::vector<std::vector<Value>> values;  // per aggregate, merged order
    std::vector<interval::AccSegment> profile;
    std::vector<GenomicRegion> regions;  // output rows
  };
  struct Group {
    std::string key;
    std::vector<const Sample*> members;
    size_t part_begin;
    size_t part_end;
    interval::CoverBounds bounds;
  };
  std::map<std::string, std::vector<const Sample*>> group_map;
  for (const auto& s : in.samples()) {
    std::string key =
        params.groupby.empty() ? "" : s.metadata.FirstValue(params.groupby);
    group_map[key].push_back(&s);
  }
  std::vector<Group> groups;
  std::vector<CoverPart> parts;
  for (auto& [key, members] : group_map) {
    std::map<int32_t, std::vector<Slice>> by_chrom;
    for (const Sample* m : members) {
      for (const ColumnChunk& c : m->columns(in.schema()).chunks()) {
        by_chrom[c.chrom].push_back({&m->regions, c.begin, c.end});
      }
    }
    groups.push_back({key, std::move(members), parts.size(), 0, {}});
    for (auto& [chrom, chunks] : by_chrom) {
      CoverPart& part = parts.emplace_back();
      part.group = groups.size() - 1;
      part.chrom = chrom;
      part.chunks = std::move(chunks);
    }
    groups.back().part_end = parts.size();
  }
  trace_.partitions.fetch_add(parts.size(), kRelaxed);

  GDMS_RETURN_NOT_OK(RunPartitionStages(
      "cover:shuffle-write", "cover:profile", parts.size(),
      [&](size_t pi, std::vector<Slice>* slices) {
        *slices = parts[pi].chunks;
      },
      [&](size_t pi, const std::vector<Slice>& members) {
        CoverPart& part = parts[pi];
        trace_.columnar_tasks.fetch_add(1, kRelaxed);
        std::vector<ColumnSlice> chunks;
        for (const Slice& m : members) {
          chunks.push_back({&m.store->columns(in.schema()), m.begin, m.end});
        }
        // inputs[c * specs + x]: chunk c's column of aggregate x's input.
        std::vector<const gdm::ValueColumn*> inputs;
        for (const ColumnSlice& c : chunks) {
          for (size_t a : agg_inputs) {
            inputs.push_back(a == SIZE_MAX ? nullptr : &c.cols->attr(a));
          }
        }
        size_t rows = 0;
        for (const ColumnSlice& c : chunks) rows += c.end - c.begin;
        part.pooled.left.reserve(rows);
        part.pooled.right.reserve(rows);
        part.values.resize(specs.size());
        MergeSlices(chunks, [&](size_t c, size_t row) {
          part.pooled.left.push_back(chunks[c].cols->left(row));
          part.pooled.right.push_back(chunks[c].cols->right(row));
          for (size_t x = 0; x < specs.size(); ++x) {
            const gdm::ValueColumn* col = inputs[c * specs.size() + x];
            if (col != nullptr) part.values[x].push_back(col->At(row));
          }
        });
        const Coords64& p = part.pooled;
        interval::ProfileFromCoords(part.chrom, p.left.data(), p.right.data(),
                                    p.left.size(), &part.profile);
      }));

  // ANY/ALL resolve against the group's maximum over all its chromosomes.
  for (Group& g : groups) {
    int64_t max_acc = 0;
    for (size_t pi = g.part_begin; pi < g.part_end; ++pi) {
      max_acc = std::max(max_acc, interval::MaxAccumulation(parts[pi].profile));
    }
    g.bounds = interval::ResolveBounds({params.min_acc, params.max_acc},
                                       max_acc);
  }

  // Variant regions, then aggregates folded over the inputs each region
  // overlaps, in CollectOverlaps order (OverlapJoin's, the reference's).
  RunStage("cover:compute", parts.size(), [&](size_t pi) {
    CoverPart& part = parts[pi];
    const interval::CoverBounds& bounds = groups[part.group].bounds;
    // The task takes the merged inputs and the profile, so they are freed
    // on this worker when it ends, not serially when the operator returns.
    const Coords64 merged = std::move(part.pooled);
    const std::vector<interval::AccSegment> profile = std::move(part.profile);
    const std::vector<std::vector<Value>> values = std::move(part.values);
    const interval::CoordView pooled = merged.view();
    std::vector<interval::MatchPair> matches;
    std::vector<int64_t> counts;
    switch (params.variant) {
      case core::CoverVariant::kCover:
        part.regions = interval::Cover(profile, bounds);
        break;
      case core::CoverVariant::kFlat:
        // Each cover region spans the inputs it overlaps; extension can
        // make neighbours touch, so they merge.
        part.regions = interval::Cover(profile, bounds);
        interval::CollectOverlaps(Coords64(part.regions).view(), pooled, 0,
                                  &matches);
        for (const auto& mp : matches) {
          GenomicRegion& r = part.regions[mp.ref];
          r.left = std::min(r.left, merged.left[mp.exp]);
          r.right = std::max(r.right, merged.right[mp.exp]);
        }
        part.regions = interval::MergeTouching(part.regions);
        matches.clear();
        break;
      case core::CoverVariant::kHistogram:
        part.regions = interval::Histogram(profile, bounds, &counts);
        break;
      case core::CoverVariant::kSummit:
        part.regions = interval::Summit(profile, bounds, &counts);
        break;
    }
    for (size_t oi = 0; oi < counts.size(); ++oi) {
      part.regions[oi].values.push_back(Value(counts[oi]));
    }
    if (specs.empty()) return;
    std::vector<AggAccumulator> accs;
    accs.reserve(part.regions.size() * specs.size());
    for (size_t oi = 0; oi < part.regions.size(); ++oi) {
      for (const auto& spec : specs) accs.emplace_back(spec.func);
    }
    interval::CollectOverlaps(Coords64(part.regions).view(), pooled, 0,
                              &matches);
    for (const auto& mp : matches) {
      for (size_t x = 0; x < specs.size(); ++x) {
        AggAccumulator& acc = accs[mp.ref * specs.size() + x];
        if (agg_inputs[x] == SIZE_MAX) {
          acc.AddRegion();
        } else {
          acc.Add(values[x][mp.exp]);
        }
      }
    }
    for (size_t oi = 0; oi < part.regions.size(); ++oi) {
      for (size_t x = 0; x < specs.size(); ++x) {
        part.regions[oi].values.push_back(accs[oi * specs.size() + x].Finish());
      }
    }
  });

  auto assemble = [&](size_t gi) {
    const Group& g = groups[gi];
    Sample ns = Operators::DerivedGroupSample(variant, g.members);
    if (!params.groupby.empty()) ns.metadata.Add(params.groupby, g.key);
    std::vector<GenomicRegion>& rows = ns.regions.mutable_rows();
    for (size_t pi = g.part_begin; pi < g.part_end; ++pi) {
      for (GenomicRegion& r : parts[pi].regions) rows.push_back(std::move(r));
    }
    return ns;
  };
  return EmitStage("cover:assemble", groups.size(), fused, variant, schema,
                   assemble);
}

}  // namespace gdms::engine
