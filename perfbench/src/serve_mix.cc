// serve_mix: reads arrive at a fixed rate (open loop) into one
// serve::SessionManager over an E9-shaped ServeCatalog, while a share of
// arrivals publishes a new version of ENCODE decoded from a pre-built
// .gdmz image. A traced run adds a closed-loop phase over the same mix
// that measures capacity. Every read's result is checked against the
// reference executor on the dataset version(s) it could have read.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/hash.h"
#include "common/rng.h"
#include "core/runner.h"
#include "io/gdmz.h"
#include "obs/trace.h"
#include "serve/serve_catalog.h"
#include "serve/session_manager.h"
#include "sim/generators.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace gdm = gdms::gdm;
namespace serve = gdms::serve;
namespace sim = gdms::sim;

using Sources = std::map<std::string, std::shared_ptr<const gdm::Dataset>>;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kSetups = 5;
/// Offered load of the open loop (reads and writes): about a quarter of
/// capacity, the median serve.capacity_qps of five traced runs (504
/// reads/s on a 4-vCPU VM). E9 offers 60% of capacity, but there queueing
/// made the median latency spread 0.27 across seeds. A constant of the
/// benchmark, so every commit is offered the same traffic.
constexpr double kArrivalQps = 130;
/// Every kWriteEvery-th arrival (open loop) or operation (closed loop)
/// publishes a new ENCODE version: a 2% write share. A choice of the
/// benchmark, not a measured rate: a cached result can serve about 49
/// reads before a write invalidates it.
constexpr uint64_t kWriteEvery = 50;
/// Zipf exponent of binding and user popularity: the classic s = 1, a
/// choice of the benchmark, not a measured popularity.
constexpr double kZipfExponent = 1.0;
constexpr double kTailPct = 95;
/// Query families: E1-shaped MAP by antibody and by cell, E3-shaped COVER
/// and JOIN, E7-shaped panel MAP by cell and by lab.
constexpr size_t kFamilies = 6;

/// Literal bindings per family: more than the 64 bindings per shape the
/// default plan cache keeps, so rebinds continue in steady state.
size_t Bindings(bool tiny) { return tiny ? 8 : 96; }
/// Users per family. Each user spells the intermediate variables of a
/// query its own way, which makes a shape of its own: 6 x 64 = 384 shapes,
/// more than the 256 the default plan cache keeps, so misses continue too.
size_t Users(bool tiny) { return tiny ? 3 : 64; }

/// One read: a family, a literal binding of it, and the user who spells
/// it. The output depends on the family and binding only.
struct Variant {
  size_t family = 0;
  size_t binding = 0;
  size_t user = 0;
};

std::string Decimal(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", x);
  return buf;
}

/// The GMQL text of a read. The literal ranges are narrow: a binding
/// changes the literals, not the scale of the work, so the seed's choice
/// of hot bindings leaves the cost of the mix alone.
std::string Gmql(const Variant& v) {
  static const char* const antibodies[] = {"CTCF",    "POLR2A",  "H3K27ac",
                                           "H3K4me1", "H3K4me3", "EP300"};
  static const char* const cells[] = {"HeLa-S3", "K562", "GM12878", "HepG2",
                                      "IMR90"};
  static const char* const labs[] = {"broad", "uw", "stanford", "polimi"};
  std::string u = "_";
  for (size_t n = v.user;; n /= 26) {
    u += static_cast<char>('a' + n % 26);
    if (n < 26) break;
  }
  const size_t b = v.binding;
  const std::string proms =
      "PROMS" + u + " = SELECT(annType == 'promoter') ANNOTATIONS;\n";
  switch (v.family) {
    case 0:
      return proms + "PEAKS" + u + " = SELECT(antibody == '" + antibodies[b % 6] +
             "'; region: score >= " + std::to_string(300 + 8 * (b / 6)) +
             ") ENCODE;\nR = MAP(peak_count AS COUNT) PROMS" + u + " PEAKS" + u +
             ";\nMATERIALIZE R;\n";
    case 1:
      return proms + "PEAKS" + u + " = SELECT(cell == '" + cells[b % 5] +
             "'; region: signal >= " + Decimal(2 + 0.1 * static_cast<double>(b / 5)) +
             ") ENCODE;\nR = MAP(n AS COUNT, a AS AVG(signal)) PROMS" + u +
             " PEAKS" + u + ";\nMATERIALIZE R;\n";
    case 2:
      return "MARKED" + u + " = SELECT(dataType == 'ChipSeq'; region: signal >= " +
             Decimal(1 + 0.1 * static_cast<double>(b / 4)) +
             ") ENCODE;\nACTIVE = COVER(" + std::to_string(1 + b % 4) +
             ", ANY) MARKED" + u + ";\nMATERIALIZE ACTIVE;\n";
    case 3:
      return proms + "MARKED" + u + " = SELECT(dataType == 'ChipSeq') ENCODE;\n" +
             "ACTIVE" + u + " = COVER(2, ANY) MARKED" + u + ";\n" +
             "PAIRS = JOIN(DLE(" + std::to_string(150000 + 500 * b) + "); CAT) PROMS" +
             u + " ACTIVE" + u + ";\nMATERIALIZE PAIRS;\n";
    case 4:
      return "PEAKS" + u + " = SELECT(cell == '" + cells[b % 5] +
             "'; region: score >= " + std::to_string(200 + 10 * (b / 5)) +
             ") ENCODE;\nR = MAP(n AS COUNT, s AS SUM(signal)) PANELS PEAKS" + u +
             ";\nMATERIALIZE R;\n";
    default:
      return "PEAKS" + u + " = SELECT(lab == '" + labs[b % 4] +
             "'; region: signal >= " + Decimal(1 + 0.1 * static_cast<double>(b / 4)) +
             ") ENCODE;\nR = MAP(n AS COUNT, m AS MAX(p_value)) PANELS PEAKS" + u +
             ";\nMATERIALIZE R;\n";
  }
}

/// The operation stream: every kWriteEvery-th operation is a write; each
/// run of six reads takes every family once, in a seeded order, and each
/// read takes a binding of its family and a user, each drawn with seeded
/// Zipf popularity (a seeded permutation assigns the ranks). Families and
/// writes keep fixed shares, so the seed moves which bindings and users
/// are hot, not how much work the mix is.
class MixPicker {
 public:
  MixPicker(size_t bindings, size_t users, uint64_t seed) : rng_(seed) {
    for (std::vector<size_t>& order : binding_order_) order = Permutation(bindings);
    user_order_ = Permutation(users);
    for (size_t i = 0; i < kFamilies; ++i) block_.push_back(i);
  }
  /// True when the next operation is a write.
  bool Write() { return ++ops_ % kWriteEvery == 0; }
  /// The next read.
  Variant Next() {
    if (reads_ % kFamilies == 0) Shuffle(&block_);
    Variant v;
    v.family = block_[reads_++ % kFamilies];
    const std::vector<size_t>& bindings = binding_order_[v.family];
    v.binding = bindings[static_cast<size_t>(
        rng_.Zipf(static_cast<int64_t>(bindings.size()), kZipfExponent))];
    v.user = user_order_[static_cast<size_t>(
        rng_.Zipf(static_cast<int64_t>(user_order_.size()), kZipfExponent))];
    return v;
  }

 private:
  void Shuffle(std::vector<size_t>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng_.Next() % i]);
    }
  }
  std::vector<size_t> Permutation(size_t n) {
    std::vector<size_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = i;
    Shuffle(&v);
    return v;
  }

  gdms::Rng rng_;
  std::array<std::vector<size_t>, kFamilies> binding_order_;
  std::vector<size_t> user_order_;
  std::vector<size_t> block_;  ///< family order of the current six reads
  uint64_t ops_ = 0;
  uint64_t reads_ = 0;
};

/// Set-up: the catalog's datasets, the two ENCODE versions as .gdmz
/// images, and every (family, binding) reference digest on both versions.
struct ServeState {
  size_t bindings = 0;
  size_t users = 0;
  Sources base;  ///< PANELS, ANNOTATIONS
  std::shared_ptr<const gdm::Dataset> versions[2];
  std::string images[2];
  uint64_t version_regions = 0;
  double write_gdmz_ms = 0;
  double input_resident_mb = 0;
  /// expected[family * bindings + binding][k]: reference digest on version k.
  std::vector<std::array<uint64_t, 2>> expected;

  uint64_t Expected(const Variant& v, uint64_t version) const {
    return expected[v.family * bindings + v.binding][version % 2];
  }
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return gdms::Mix64(gdms::HashCombine(seed, stream ^ 0x5e7e));
}

std::unique_ptr<ServeState> Setup(const Config& cfg, std::string* error) {
  auto st = std::make_unique<ServeState>();
  st->bindings = Bindings(cfg.tiny);
  st->users = Users(cfg.tiny);
  auto genome = gdm::GenomeAssembly::HumanLike(8, 60000000);
  sim::PeakDatasetOptions panels;
  panels.num_samples = 4;
  panels.peaks_per_sample = cfg.tiny ? 50 : 400;
  st->base["PANELS"] = std::make_shared<const gdm::Dataset>(
      sim::GeneratePeakDataset(genome, panels, SubSeed(cfg.seed, 1), "PANELS"));
  sim::GeneCatalog genes =
      sim::GenerateGenes(genome, cfg.tiny ? 100 : 2000, SubSeed(cfg.seed, 2));
  st->base["ANNOTATIONS"] = std::make_shared<const gdm::Dataset>(
      sim::GenerateAnnotations(genome, genes, {}, SubSeed(cfg.seed, 3)));
  for (int k = 0; k < 2; ++k) {
    sim::PeakDatasetOptions peaks;
    peaks.num_samples = cfg.tiny ? 6 : 8;
    peaks.peaks_per_sample = cfg.tiny ? 200 : 5000;
    gdm::Dataset ds =
        sim::GeneratePeakDataset(genome, peaks, SubSeed(cfg.seed, 4 + k));
    std::string path =
        cfg.workdir + "/serve_mix_encode_v" + std::to_string(k) + ".gdmz";
    Clock::time_point t0 = Clock::now();
    gdms::Status written = gdms::io::WriteGdmz(ds, path);
    st->write_gdmz_ms += MsBetween(t0, Clock::now()) / 2;
    if (!written.ok()) {
      *error = "WriteGdmz: " + written.ToString();
      return nullptr;
    }
    std::ifstream f(path, std::ios::binary);
    std::stringstream image;
    image << f.rdbuf();
    st->images[k] = image.str();
    // The served versions are what the images decode to.
    auto decoded = gdms::io::ReadGdmzBytes(st->images[k]);
    if (!decoded.ok()) {
      *error = "ReadGdmzBytes: " + decoded.status().ToString();
      return nullptr;
    }
    st->version_regions = decoded.value().TotalRegions();
    st->versions[k] =
        std::make_shared<const gdm::Dataset>(std::move(decoded).value());
  }
  for (const auto& [name, ds] : st->base) {
    st->input_resident_mb += static_cast<double>(ds->EstimateResidentBytes()) / kMiB;
  }
  st->input_resident_mb +=
      static_cast<double>(st->versions[0]->EstimateResidentBytes()) / kMiB;

  // Reference digests, split over the hardware threads: each thread has
  // its own sequential ReferenceExecutor runner. User 0 spells them.
  st->expected.resize(kFamilies * st->bindings);
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  auto work = [&] {
    gdms::core::QueryRunner runners[2];
    for (int k = 0; k < 2; ++k) {
      Sources sources = st->base;
      sources["ENCODE"] = st->versions[k];
      runners[k].set_source_provider(
          [sources](const std::string& name) -> std::shared_ptr<const gdm::Dataset> {
            auto it = sources.find(name);
            return it == sources.end() ? nullptr : it->second;
          });
    }
    for (size_t i = next++; i < st->expected.size(); i = next++) {
      const std::string gmql = Gmql({i / st->bindings, i % st->bindings, 0});
      for (int k = 0; k < 2; ++k) {
        auto out = runners[k].Run(gmql);
        if (!out.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          *error = "reference run: " + out.status().ToString();
          failed = true;
          return;
        }
        st->expected[i][k] = DigestOutputs(out.value());
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i) {
    threads.emplace_back(work);
  }
  for (std::thread& t : threads) t.join();
  if (failed) return nullptr;
  return st;
}

/// What the bench records of one read response.
struct ReadRecord {
  Variant variant;
  uint64_t publishes_before = 0;  ///< publishes completed at submit
  uint64_t publishes_after = 0;   ///< publishes started at response
  gdms::serve::ServeResponse resp;
  double latency_ms = 0;          ///< due (open loop) or send time -> response
};

/// The writer thread: decodes the next ENCODE version and publishes it.
/// Versions alternate, so after k publishes ENCODE is version k % 2.
class Writer {
 public:
  Writer(const ServeState* st, serve::ServeCatalog* catalog)
      : st_(st), catalog_(catalog), thread_([this] { Loop(); }) {}
  ~Writer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Queues a write due at `due`.
  void Enqueue(Clock::time_point due) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(due);
    }
    cv_.notify_all();
  }
  /// Blocks until every enqueued write has been published.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  }

  std::atomic<uint64_t> started{0};
  std::atomic<uint64_t> done{0};

  struct Stats {
    std::vector<double> latency_ms;  ///< due -> Publish returned
    double decode_ms = 0;
    double publish_ms = 0;
    uint64_t regions = 0;
    uint64_t errors = 0;
    std::string first_error;
  };
  Stats TakeStats() {
    std::lock_guard<std::mutex> lock(mu_);
    Stats out = std::move(stats_);
    stats_ = Stats{};
    return out;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and drained
      const Clock::time_point due = queue_.front();
      queue_.pop_front();
      busy_ = true;
      lock.unlock();
      const std::string& image = st_->images[(done.load() + 1) % 2];
      Clock::time_point t0 = Clock::now();
      auto ds = gdms::io::ReadGdmzBytes(image);
      Clock::time_point t1 = Clock::now();
      if (ds.ok()) {
        ++started;
        catalog_->Publish(std::move(ds).value());
        ++done;
      }
      Clock::time_point t2 = Clock::now();
      lock.lock();
      busy_ = false;
      if (!ds.ok()) {
        ++stats_.errors;
        if (stats_.first_error.empty()) stats_.first_error = ds.status().ToString();
      } else {
        stats_.latency_ms.push_back(MsBetween(due, t2));
        stats_.decode_ms += MsBetween(t0, t1);
        stats_.publish_ms += MsBetween(t1, t2);
        stats_.regions += st_->version_regions;
      }
      if (queue_.empty()) idle_cv_.notify_all();
    }
  }

  const ServeState* st_;
  serve::ServeCatalog* catalog_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Clock::time_point> queue_;
  bool busy_ = false;
  bool stop_ = false;
  Stats stats_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Checks responses on a thread of its own at SCHED_IDLE priority, so the
/// check runs on otherwise idle CPU: it neither delays the load generator
/// nor takes CPU from the session workers. Its CPU time is kept apart, and
/// the phase's CPU figure leaves it out.
class Checker {
 public:
  explicit Checker(const ServeState* st) : st_(st), thread_([this] { Loop(); }) {}
  ~Checker() { Finish(); }
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  void Push(ReadRecord rec) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(std::move(rec));
    }
    cv_.notify_one();
  }
  /// Checks every pushed response and stops the thread. The figures below
  /// are final once it returns.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// Read outcomes of the phase, in completion order.
  std::vector<ReadRecord> done;
  /// Latency of each read that succeeded.
  std::vector<double> ok_latency_ms;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
  std::string first_error;
  double result_mb = 0;
  /// CPU time the checking took.
  double cpu_ms = 0;
  /// Plan-cache step of each read's serve trace, split by outcome.
  double plan_hit_ms = 0, plan_prepare_ms = 0;
  uint64_t plan_hits = 0, plan_prepares = 0;

 private:
  void Loop() {
    sched_param param{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) break;  // stop requested and drained
      ReadRecord rec = std::move(pending_.front());
      pending_.pop_front();
      lock.unlock();
      Check(rec);
      lock.lock();
    }
    cpu_ms = ThreadCpuMs();
  }

  void Check(ReadRecord& rec) {
    if (!rec.resp.status.ok()) {
      ++errors;
      if (first_error.empty()) first_error = rec.resp.status.ToString();
    } else {
      ok_latency_ms.push_back(rec.latency_ms);
      uint64_t digest = DigestOutputs(*rec.resp.results);
      bool match = false;
      // The read pinned ENCODE after between publishes_before and
      // publishes_after publishes.
      for (uint64_t k = rec.publishes_before;
           k <= rec.publishes_after && k <= rec.publishes_before + 1; ++k) {
        match |= digest == st_->Expected(rec.variant, k);
      }
      if (!match) ++mismatches;
      for (const auto& [name, ds] : *rec.resp.results) {
        result_mb += static_cast<double>(ds.EstimateResidentBytes()) / kMiB;
      }
    }
    if (rec.resp.trace != nullptr) {
      for (const gdms::obs::DistSpan& s : rec.resp.trace->spans) {
        if (s.name.rfind("serve:plan:", 0) != 0) continue;
        double ms = static_cast<double>(s.duration_us) / 1e3;
        if (s.name == "serve:plan:hit") {
          plan_hit_ms += ms;
          ++plan_hits;
        } else {
          plan_prepare_ms += ms;
          ++plan_prepares;
        }
      }
    }
    rec.resp.results.reset();
    rec.resp.trace.reset();
    done.push_back(std::move(rec));
  }

  const ServeState* st_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ReadRecord> pending_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

/// Operations one load phase issued.
struct LoopResult {
  uint64_t reads = 0;
  uint64_t rejected = 0;
  Writer::Stats writes;
  std::vector<double> lag_ms;  ///< open loop: send time - due time
  double cpu_ms = 0;           ///< open loop: process CPU of the phase
  double check_cpu_ms = 0;     ///< open loop: CPU of the output check
  double qps = 0;              ///< closed loop: see ClosedLoop
};

/// The options a gdms_shell user gets, apart from the thread split the
/// workload fixes: nproc - 1 session workers of one engine thread each,
/// beside the load generator.
serve::ServeOptions Options() {
  serve::ServeOptions o;
  o.workers = std::max(2u, std::thread::hardware_concurrency()) - 1;
  o.engine_threads = 1;
  return o;
}

/// The query of the read the self-test makes fail.
constexpr const char* kBadRead =
    "R = SELECT(cell == 'K562') NO_SUCH_DATASET;\nMATERIALIZE R;\n";

/// Sends reads and writes on a fixed schedule for `seconds`; each read is
/// timed from its due time, so a stalled generator or server shows up.
/// The phase's CPU figure leaves out the checker's CPU.
void OpenLoop(serve::SessionManager* manager, Writer* writer,
              MixPicker* picker, double seconds, bool inject_read_error,
              Checker* checker, LoopResult* out) {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kArrivalQps));
  const size_t arrivals = static_cast<size_t>(seconds * kArrivalQps);
  double cpu0 = ProcessCpuMs();
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (size_t i = 0; i < arrivals; ++i) {
    Clock::time_point due = start + interval * i;
    std::this_thread::sleep_until(due);
    out->lag_ms.push_back(MsBetween(due, Clock::now()));
    // With tracing on, drop collected spans now and then so the tracer's
    // buffer (which every query's profile collection scans) stays small.
    if (i % 64 == 63 && gdms::obs::Tracer::Global().enabled()) {
      gdms::obs::Tracer::Global().Clear();
    }
    if (picker->Write()) {
      writer->Enqueue(due);
      continue;
    }
    Variant v = picker->Next();
    std::string gmql = Gmql(v);
    if (inject_read_error && out->reads == 0) gmql = kBadRead;
    ++out->reads;
    uint64_t before = writer->done.load();
    auto id = manager->Submit(
        gmql, [v, before, due, writer, checker](const serve::ServeResponse& resp) {
          ReadRecord rec;
          rec.latency_ms = MsBetween(due, Clock::now());
          rec.variant = v;
          rec.publishes_before = before;
          rec.publishes_after = writer->started.load();
          rec.resp = resp;
          checker->Push(std::move(rec));
        });
    if (!id.ok()) ++out->rejected;
  }
  manager->Drain();
  writer->Wait();
  checker->Finish();
  out->check_cpu_ms = checker->cpu_ms;
  out->cpu_ms = ProcessCpuMs() - cpu0 - checker->cpu_ms;
  out->writes = writer->TakeStats();
}

/// Keeps `in_flight` reads outstanding for `seconds`, with writes at the
/// same share as the open loop. Throughput is the median over half-second
/// windows of completed reads per second, so a burst of CPU steal on the
/// host moves it less than a whole-phase mean would.
void ClosedLoop(serve::SessionManager* manager, Writer* writer,
                MixPicker* picker, double seconds, size_t in_flight,
                Checker* checker, LoopResult* out) {
  std::mutex mu;
  std::condition_variable cv;
  size_t outstanding = 0;
  std::vector<Clock::time_point> completions;
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < in_flight; });
      ++outstanding;
    }
    if (picker->Write()) {
      // Writes go to the writer thread as in the open loop; only reads
      // hold in-flight slots.
      writer->Enqueue(Clock::now());
      std::lock_guard<std::mutex> lock(mu);
      --outstanding;
      continue;
    }
    ++out->reads;
    Variant v = picker->Next();
    uint64_t before = writer->done.load();
    Clock::time_point sent = Clock::now();
    auto id = manager->Submit(
        Gmql(v), [&, v, before, sent](const serve::ServeResponse& resp) {
          ReadRecord rec;
          rec.latency_ms = MsBetween(sent, Clock::now());
          rec.variant = v;
          rec.publishes_before = before;
          rec.publishes_after = writer->started.load();
          rec.resp = resp;
          checker->Push(std::move(rec));
          std::lock_guard<std::mutex> lock(mu);
          --outstanding;
          completions.push_back(Clock::now());
          cv.notify_all();
        });
    if (!id.ok()) {
      ++out->rejected;
      std::lock_guard<std::mutex> lock(mu);
      --outstanding;
    }
  }
  manager->Drain();
  writer->Wait();
  checker->Finish();
  out->writes = writer->TakeStats();
  constexpr double kWindowMs = 500;
  std::vector<double> per_window(
      std::max<size_t>(1, static_cast<size_t>(seconds * 1e3 / kWindowMs)));
  std::lock_guard<std::mutex> lock(mu);
  for (Clock::time_point t : completions) {
    size_t w = static_cast<size_t>(MsBetween(start, t) / kWindowMs);
    if (w < per_window.size()) per_window[w] += 1e3 / kWindowMs;
  }
  out->qps = Median(per_window);
}

/// Every failed read or write makes the run incorrect: a failure is never
/// counted as a fast operation.
void Tally(const Checker& checker, const LoopResult& loop, Report* report) {
  const Writer::Stats& writes = loop.writes;
  report->attempted += loop.reads + writes.latency_ms.size() + writes.errors;
  uint64_t failed = checker.errors + checker.mismatches + loop.rejected + writes.errors;
  report->failed += failed;
  if (failed > 0) report->correct = false;
  if (checker.mismatches > 0) {
    report->Note(std::to_string(checker.mismatches) +
                 " read results disagree with the reference executor");
  }
  if (!checker.first_error.empty()) report->Note("read error: " + checker.first_error);
  if (loop.rejected > 0) {
    report->Note(std::to_string(loop.rejected) + " reads rejected at admission");
  }
  if (!writes.first_error.empty()) report->Note("write error: " + writes.first_error);
}

/// The serving side: the catalog with ENCODE at version 0, the session
/// manager and the writer, warmed up. Member order is destruction order
/// in reverse: the writer and manager stop before the catalog goes.
struct Serving {
  Serving(const ServeState* st, const serve::ServeOptions& options)
      : manager(&catalog, options), writer(st, &catalog) {
    for (const auto& [name, ds] : st->base) catalog.Publish(*ds);
    catalog.Publish(*st->versions[0]);
    // Warm-up: one read of every family builds the served datasets' lazy
    // indexes.
    for (size_t f = 0; f < kFamilies; ++f) manager.Execute(Gmql({f, 0, 0}));
  }

  serve::ServeCatalog catalog;
  serve::SessionManager manager;
  Writer writer;
};

}  // namespace

bool RunServeMix(const Config& cfg, Report* report, std::string* error) {
  const serve::ServeOptions options = Options();
  std::vector<double> setup_s;
  std::unique_ptr<ServeState> st;
  std::unique_ptr<Serving> serving;
  for (int i = 0; i < (cfg.trace ? 1 : kSetups); ++i) {
    serving.reset();  // the previous set-up is freed before the next is timed
    st.reset();
    Clock::time_point t0 = Clock::now();
    st = Setup(cfg, error);
    if (st == nullptr) return false;
    serving = std::make_unique<Serving>(st.get(), options);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  serve::SessionManager& manager = serving->manager;
  Writer& writer = serving->writer;
  MixPicker picker(st->bindings, st->users, SubSeed(cfg.seed, 9));
  if (!ResetPeakRss()) report->Note("peak RSS could not be reset after set-up");

  if (!cfg.trace) {
    Checker open_checker(st.get());
    LoopResult open;
    OpenLoop(&manager, &writer, &picker, cfg.seconds, cfg.inject_read_error,
             &open_checker, &open);
    Tally(open_checker, open, report);

    const std::vector<double>& lat = open_checker.ok_latency_ms;
    Tail tail = TailOf(lat, kTailPct);
    double ops = static_cast<double>(open.reads + open.writes.latency_ms.size());
    std::map<std::string, double> v = {
        {"setup_s", Median(setup_s)},
        {"latency_p50_ms", Median(lat)},
        {"latency_tail_ms", tail.value},
        {"cpu_ms_per_query", open.cpu_ms / ops},
        {"peak_rss_mb", PeakRssMb()},
    };
    EmitAll(EndToEndMetrics(), v, report);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "latency_tail_ms is p%g of %zu reads (%zu beyond it); "
                  "open loop %g arrivals/s, %zu writes, write p50 %.3f ms; "
                  "output check %.1f ms CPU, not in cpu_ms_per_query",
                  tail.percentile, tail.samples, tail.beyond, kArrivalQps,
                  open.writes.latency_ms.size(), Median(open.writes.latency_ms),
                  open.check_cpu_ms);
    report->Note(buf);
    return true;
  }
  // Traced run, in thirds: an untraced open loop for the overhead baseline,
  // the same open loop with the global tracer on (engine spans rebased into
  // every query's serve trace), then the closed loop for capacity.
  Checker base_checker(st.get());
  LoopResult base;
  OpenLoop(&manager, &writer, &picker, cfg.seconds / 3, false, &base_checker,
           &base);
  Tally(base_checker, base, report);

  serve::PlanCache::Stats plan0 = manager.plan_cache().stats();
  serve::ResultCache::Stats res0 = manager.result_cache().stats();
  serve::SessionManager::Stats sess0 = manager.stats();
  gdms::obs::Tracer::Global().set_enabled(true);
  Checker checker(st.get());
  LoopResult traced;
  OpenLoop(&manager, &writer, &picker, cfg.seconds / 3, false, &checker,
           &traced);
  gdms::obs::Tracer::Global().set_enabled(false);
  gdms::obs::Tracer::Global().Clear();
  Tally(checker, traced, report);
  serve::PlanCache::Stats plan1 = manager.plan_cache().stats();
  serve::ResultCache::Stats res1 = manager.result_cache().stats();
  serve::SessionManager::Stats sess1 = manager.stats();
  Checker closed_checker(st.get());
  LoopResult closed;
  ClosedLoop(&manager, &writer, &picker, cfg.seconds / 3, options.workers,
             &closed_checker, &closed);
  Tally(closed_checker, closed, report);

  std::map<std::string, double> v;
  std::vector<double> queue, exec;
  for (const ReadRecord& r : checker.done) {
    queue.push_back(r.resp.queue_ms);
    if (!r.resp.result_cache_hit && r.resp.status.ok()) exec.push_back(r.resp.exec_ms);
  }
  v["serve.queue_p50_ms"] = Median(queue);
  v["serve.queue_tail_ms"] = TailOf(queue, kTailPct).value;
  v["serve.exec_p50_ms"] = Median(exec);
  v["serve.exec_tail_ms"] = TailOf(exec, kTailPct).value;
  double lookups = static_cast<double>((plan1.hits + plan1.rebinds + plan1.misses) -
                                       (plan0.hits + plan0.rebinds + plan0.misses));
  v["serve.plan_lookups"] = lookups;
  if (lookups > 0) {
    v["serve.plan_hit_frac"] = static_cast<double>(plan1.hits - plan0.hits) / lookups;
    v["serve.plan_rebind_frac"] =
        static_cast<double>(plan1.rebinds - plan0.rebinds) / lookups;
    v["serve.plan_miss_frac"] =
        static_cast<double>(plan1.misses - plan0.misses) / lookups;
  }
  if (checker.plan_hits > 0) {
    v["serve.plan_hit_ms"] =
        checker.plan_hit_ms / static_cast<double>(checker.plan_hits);
  }
  if (checker.plan_prepares > 0) {
    v["serve.plan_prepare_ms"] =
        checker.plan_prepare_ms / static_cast<double>(checker.plan_prepares);
  }
  double rlookups = static_cast<double>((res1.hits + res1.misses) - (res0.hits + res0.misses));
  v["serve.result_lookups"] = rlookups;
  if (rlookups > 0) {
    v["serve.result_hit_frac"] = static_cast<double>(res1.hits - res0.hits) / rlookups;
  }
  v["serve.result_invalidations"] =
      static_cast<double>(res1.invalidations - res0.invalidations);
  v["serve.result_evictions"] = static_cast<double>(res1.evictions - res0.evictions);
  const Writer::Stats& w = traced.writes;
  double writes = static_cast<double>(w.latency_ms.size());
  v["serve.writes"] = writes;
  if (writes > 0) {
    v["serve.publish_ms"] = w.publish_ms / writes;
    v["io.decode_mregions_per_s"] =
        static_cast<double>(w.regions) / 1e6 / (w.decode_ms / 1e3);
  }
  v["serve.write_p50_ms"] = Median(w.latency_ms);
  v["serve.rejected"] = static_cast<double>(sess1.rejected - sess0.rejected);
  v["serve.deadline_exceeded"] =
      static_cast<double>(sess1.deadline_exceeded - sess0.deadline_exceeded);
  v["serve.generator_lag_ms"] = TailOf(traced.lag_ms, kTailPct).value;
  v["serve.capacity_qps"] = closed.qps;
  v["io.write_gdmz_ms"] = st->write_gdmz_ms;
  v["io.stored_bytes_per_region"] =
      static_cast<double>(st->images[0].size() + st->images[1].size()) / 2 /
      static_cast<double>(st->version_regions);
  v["gdm.input_resident_mb"] = st->input_resident_mb;
  if (!checker.done.empty()) {
    v["gdm.result_resident_mb"] =
        checker.result_mb / static_cast<double>(checker.done.size());
  }
  double p50 = Median(base_checker.ok_latency_ms);
  v["obs.trace_overhead_frac"] = (Median(checker.ok_latency_ms) - p50) / p50;
  EmitAll(PerLayerMetrics(), v, report);
  return true;
}

}  // namespace perfbench
