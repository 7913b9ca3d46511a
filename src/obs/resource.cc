#include "obs/resource.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#ifdef __unix__
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"

namespace gdms::obs {

namespace {

std::string BytesLabel(uint64_t bytes) {
  char buf[32];
  if (bytes >= 10ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f MB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 10ull * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " B", bytes);
  }
  return buf;
}

/// The canonical instruments, resolved once (registry pointers are stable).
struct MemMetrics {
  Gauge* rss;
  Gauge* tracked;
  Gauge* reclaimable;
  Gauge* columnar;
  Gauge* budget;
  Counter* minor_faults;
  Counter* major_faults;
  Counter* evictions;
  Counter* evicted_bytes;
  Counter* shed_passes;
  Histogram* query_peak;

  static const MemMetrics& Get() {
    auto& reg = MetricsRegistry::Global();
    static MemMetrics m{
        reg.GetGauge("gdms_mem_rss_bytes"),
        reg.GetGauge("gdms_mem_tracked_bytes"),
        reg.GetGauge("gdms_mem_reclaimable_bytes"),
        reg.GetGauge("gdms_mem_columnar_cache_bytes"),
        reg.GetGauge("gdms_mem_budget_bytes"),
        reg.GetCounter("gdms_mem_minor_page_faults_total"),
        reg.GetCounter("gdms_mem_major_page_faults_total"),
        reg.GetCounter("gdms_mem_evictions_total"),
        reg.GetCounter("gdms_mem_evicted_bytes_total"),
        reg.GetCounter("gdms_mem_shed_passes_total"),
        reg.GetHistogram("gdms_mem_query_peak_bytes")};
    return m;
  }
};

Gauge* DatasetGauge(const char* family, const std::string& label) {
  return MetricsRegistry::Global().GetGauge(std::string(family) +
                                            "{dataset=\"" + label + "\"}");
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryAccounting
// ---------------------------------------------------------------------------

void QueryAccounting::SetCurrentOp(const std::string& op) {
  std::lock_guard<std::mutex> lk(mu_);
  current_op_ = op;
}

void QueryAccounting::Charge(uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  OpByteStat& op = ops_[current_op_];
  if (op.op.empty()) op.op = current_op_;
  op.alloc_bytes += bytes;
  ++op.charges;
  uint64_t& live = op_live_[current_op_];
  live += bytes;
  op.peak_bytes = std::max(op.peak_bytes, live);
  alloc_ += bytes;
  current_ += bytes;
  peak_ = std::max(peak_, current_);
}

void QueryAccounting::ChargeTo(const std::string& op_name, uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  OpByteStat& op = ops_[op_name];
  if (op.op.empty()) op.op = op_name;
  op.alloc_bytes += bytes;
  ++op.charges;
  uint64_t& live = op_live_[op_name];
  live += bytes;
  op.peak_bytes = std::max(op.peak_bytes, live);
  alloc_ += bytes;
  current_ += bytes;
  peak_ = std::max(peak_, current_);
}

void QueryAccounting::ReleaseFrom(const std::string& op_name,
                                  uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t& live = op_live_[op_name];
  live = live >= bytes ? live - bytes : 0;
  current_ = current_ >= bytes ? current_ - bytes : 0;
}

void QueryAccounting::Drain() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [op, live] : op_live_) live = 0;
  current_ = 0;
}

uint64_t QueryAccounting::alloc_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return alloc_;
}

uint64_t QueryAccounting::peak_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return peak_;
}

uint64_t QueryAccounting::current_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return current_;
}

std::string QueryAccounting::current_op() const {
  std::lock_guard<std::mutex> lk(mu_);
  return current_op_;
}

std::vector<OpByteStat> QueryAccounting::OperatorStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<OpByteStat> out;
  out.reserve(ops_.size());
  for (const auto& [name, op] : ops_) out.push_back(op);
  std::sort(out.begin(), out.end(),
            [](const OpByteStat& a, const OpByteStat& b) {
              return a.alloc_bytes != b.alloc_bytes
                         ? a.alloc_bytes > b.alloc_bytes
                         : a.op < b.op;
            });
  return out;
}

std::string QueryAccounting::RenderTree(
    const std::string& query_label) const {
  std::vector<OpByteStat> ops = OperatorStats();
  uint64_t alloc, peak;
  {
    std::lock_guard<std::mutex> lk(mu_);
    alloc = alloc_;
    peak = peak_;
  }
  std::string out = "query " + query_label + "  alloc " + BytesLabel(alloc) +
                    "  peak " + BytesLabel(peak) + "\n";
  for (const OpByteStat& op : ops) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  %-24s alloc %-12s peak %-12s (%" PRIu64 " charge%s)\n",
                  op.op.c_str(), BytesLabel(op.alloc_bytes).c_str(),
                  BytesLabel(op.peak_bytes).c_str(), op.charges,
                  op.charges == 1 ? "" : "s");
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// ScopedCharge
// ---------------------------------------------------------------------------

ScopedCharge::ScopedCharge(std::shared_ptr<QueryAccounting> account,
                           uint64_t bytes) {
  if (account == nullptr || bytes == 0) return;
  account_ = std::move(account);
  op_ = account_->current_op();
  bytes_ = bytes;
  account_->ChargeTo(op_, bytes_);
}

ScopedCharge& ScopedCharge::operator=(ScopedCharge&& other) noexcept {
  if (this != &other) {
    Release();
    account_ = std::move(other.account_);
    op_ = std::move(other.op_);
    bytes_ = other.bytes_;
    other.account_.reset();
    other.bytes_ = 0;
  }
  return *this;
}

void ScopedCharge::Release() {
  if (account_ == nullptr) return;
  account_->ReleaseFrom(op_, bytes_);
  account_.reset();
  bytes_ = 0;
}

// ---------------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------------

ProcessMemory ReadProcessMemory() {
  ProcessMemory mem;
#ifdef __unix__
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    unsigned long long vm_pages = 0, rss_pages = 0;
    if (std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages) == 2) {
      long page = ::sysconf(_SC_PAGESIZE);
      uint64_t page_bytes = page > 0 ? static_cast<uint64_t>(page) : 4096;
      mem.vm_bytes = vm_pages * page_bytes;
      mem.rss_bytes = rss_pages * page_bytes;
    }
    std::fclose(f);
  }
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    mem.minor_faults = static_cast<uint64_t>(usage.ru_minflt);
    mem.major_faults = static_cast<uint64_t>(usage.ru_majflt);
  }
#endif
  return mem;
}

// ---------------------------------------------------------------------------
// ResourceTracker
// ---------------------------------------------------------------------------

ResourceTracker& ResourceTracker::Global() {
  static ResourceTracker* tracker = new ResourceTracker();
  return *tracker;
}

uint64_t ResourceTracker::RegisterStorage(const std::string& label,
                                          UsageFn usage, ShedFn shed) {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t token = next_token_++;
  Registration& reg = registrations_[token];
  reg.label = label;
  reg.usage = std::move(usage);
  reg.shed = std::move(shed);
  reg.last_touch = touch_clock_.fetch_add(1, std::memory_order_relaxed);
  return token;
}

void ResourceTracker::UnregisterStorage(uint64_t token) {
  std::string label;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = registrations_.find(token);
    if (it == registrations_.end()) return;
    label = it->second.label;
    registrations_.erase(it);
  }
  DatasetGauge("gdms_storage_dataset_resident_bytes", label)->Set(0);
  DatasetGauge("gdms_storage_dataset_columnar_bytes", label)->Set(0);
}

void ResourceTracker::Touch(uint64_t token) {
  uint64_t now = touch_clock_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = registrations_.find(token);
  if (it != registrations_.end()) it->second.last_touch = now;
}

void ResourceTracker::set_budget_bytes(uint64_t bytes) {
  budget_.store(bytes, std::memory_order_relaxed);
  MemMetrics::Get().budget->Set(static_cast<int64_t>(bytes));
}

uint64_t ResourceTracker::ReclaimableBytes() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [token, reg] : registrations_) {
    if (!reg.usage) continue;
    StorageUsage usage = reg.usage();
    total += usage.columnar_bytes;
  }
  return total;
}

uint64_t ResourceTracker::MaybeShed() {
  uint64_t budget = budget_bytes();
  if (budget == 0) return 0;
  uint64_t reclaimable = ReclaimableBytes();
  if (reclaimable <= budget) return 0;
  const MemMetrics& m = MemMetrics::Get();
  m.shed_passes->Add();
  // Shed down to the low watermark so a steady workload does not trigger a
  // pass per query right at the boundary.
  uint64_t low = budget - budget / 10;
  uint64_t freed_total = 0;
  // Snapshot the shed order (LRU first) outside the loop; callbacks may
  // take their own locks.
  std::vector<std::pair<uint64_t, ShedFn>> order;
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<const Registration*> regs;
    for (const auto& [token, reg] : registrations_) {
      if (reg.shed) regs.push_back(&reg);
    }
    std::sort(regs.begin(), regs.end(),
              [](const Registration* a, const Registration* b) {
                return a->last_touch < b->last_touch;
              });
    for (const Registration* reg : regs) {
      order.emplace_back(reg->last_touch, reg->shed);
    }
  }
  for (const auto& [touch, shed] : order) {
    if (reclaimable - freed_total <= low) break;
    uint64_t want = reclaimable - freed_total - low;
    uint64_t freed = shed(want);
    if (freed == 0) continue;
    freed_total += freed;
    m.evicted_bytes->Add(freed);
  }
  UpdateGauges();
  return freed_total;
}

void ResourceTracker::UpdateGauges() {
  const MemMetrics& m = MemMetrics::Get();
  ProcessMemory proc = ReadProcessMemory();
  m.rss->Set(static_cast<int64_t>(proc.rss_bytes));
  {
    std::lock_guard<std::mutex> lk(fault_mu_);
    if (have_prev_faults_) {
      if (proc.minor_faults > prev_minor_faults_) {
        m.minor_faults->Add(proc.minor_faults - prev_minor_faults_);
      }
      if (proc.major_faults > prev_major_faults_) {
        m.major_faults->Add(proc.major_faults - prev_major_faults_);
      }
    }
    prev_minor_faults_ = proc.minor_faults;
    prev_major_faults_ = proc.major_faults;
    have_prev_faults_ = true;
  }
  uint64_t rows_total = 0, columnar_total = 0;
  std::vector<std::pair<std::string, StorageUsage>> per_label;
  {
    std::lock_guard<std::mutex> lk(mu_);
    per_label.reserve(registrations_.size());
    for (const auto& [token, reg] : registrations_) {
      if (!reg.usage) continue;
      per_label.emplace_back(reg.label, reg.usage());
    }
  }
  for (const auto& [label, usage] : per_label) {
    rows_total += usage.rows_bytes;
    columnar_total += usage.columnar_bytes;
    if (usage.rows_bytes > 0 || usage.columnar_bytes > 0) {
      DatasetGauge("gdms_storage_dataset_resident_bytes", label)
          ->Set(static_cast<int64_t>(usage.rows_bytes));
      DatasetGauge("gdms_storage_dataset_columnar_bytes", label)
          ->Set(static_cast<int64_t>(usage.columnar_bytes));
    }
  }
  m.columnar->Set(static_cast<int64_t>(columnar_total));
  m.reclaimable->Set(static_cast<int64_t>(columnar_total));
  m.tracked->Set(static_cast<int64_t>(rows_total + columnar_total));
}

std::string ResourceTracker::RenderStorageSummary() const {
  std::vector<std::pair<std::string, StorageUsage>> per_label;
  {
    std::lock_guard<std::mutex> lk(mu_);
    per_label.reserve(registrations_.size());
    for (const auto& [token, reg] : registrations_) {
      if (!reg.usage) continue;
      per_label.emplace_back(reg.label, reg.usage());
    }
  }
  ProcessMemory proc = ReadProcessMemory();
  uint64_t budget = budget_bytes();
  std::string out = "storage residency  rss " + BytesLabel(proc.rss_bytes) +
                    "  budget " +
                    (budget == 0 ? std::string("off") : BytesLabel(budget)) +
                    "  evictions " + std::to_string(evictions()) + " (" +
                    BytesLabel(evicted_bytes()) + ")\n";
  for (const auto& [label, usage] : per_label) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %-20s rows %-12s columnar %-12s\n",
                  label.c_str(), BytesLabel(usage.rows_bytes).c_str(),
                  BytesLabel(usage.columnar_bytes).c_str());
    out += buf;
  }
  return out;
}

uint64_t ResourceTracker::evictions() const {
  return MemMetrics::Get().evictions->value();
}

uint64_t ResourceTracker::evicted_bytes() const {
  return MemMetrics::Get().evicted_bytes->value();
}

void ResourceTracker::NoteQueryPeak(uint64_t peak_bytes) {
  MemMetrics::Get().query_peak->Record(peak_bytes);
}

}  // namespace gdms::obs
