#include "serve/serve_catalog.h"

#include "obs/metrics.h"
#include "obs/resource.h"

namespace gdms::serve {

namespace {

obs::Counter* EvictionsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("gdms_mem_evictions_total");
  return c;
}

}  // namespace

ServeCatalog::~ServeCatalog() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, entry] : entries_) {
    obs::ResourceTracker::Global().UnregisterStorage(entry.tracker_token);
  }
}

uint64_t ServeCatalog::Publish(gdm::Dataset dataset) {
  std::string name = dataset.name();
  // A corrupt payload stays in its slot and fails the queries that read it.
  dataset.DecodeStoredAttrs();
  auto snapshot = std::make_shared<const gdm::Dataset>(std::move(dataset));
  obs::ResourceTracker& tracker = obs::ResourceTracker::Global();
  // Row storage is immutable once published; only the columnar-cache
  // occupancy is live. The usage/shed callbacks capture the shared snapshot,
  // so they stay valid however long the tracker keeps them.
  uint64_t row_bytes = snapshot->EstimateResidentBytes();
  uint64_t token = tracker.RegisterStorage(
      name,
      [snapshot, row_bytes] {
        obs::StorageUsage usage;
        usage.rows_bytes = row_bytes;
        usage.columnar_bytes = snapshot->ColumnarCacheBytes();
        return usage;
      },
      [snapshot](uint64_t want_bytes) {
        // Drop built columnar caches sample by sample until satisfied; they
        // rebuild lazily from the intact rows. Only called at quiesce
        // (ResourceTracker::MaybeShed contract, enforced by the session
        // manager under concurrency).
        uint64_t freed = 0, evicted = 0;
        for (const auto& s : snapshot->samples()) {
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
  uint64_t version = 0;
  uint64_t old_token = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Entry& entry = entries_[name];
    old_token = entry.tracker_token;
    entry.data = std::move(snapshot);
    entry.version += 1;
    entry.tracker_token = token;
    version = entry.version;
  }
  if (old_token != 0) tracker.UnregisterStorage(old_token);
  std::function<void(const std::string&)> hook;
  {
    std::lock_guard<std::mutex> lk(mu_);
    hook = on_publish_;
  }
  if (hook) hook(name);
  return version;
}

ServeCatalog::Snapshot ServeCatalog::Resolve(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return {};
  Snapshot snap;
  snap.data = it->second.data;
  snap.version = it->second.version;
  // LRU bump for the shedder: this dataset's caches are about to be used.
  obs::ResourceTracker::Global().Touch(it->second.tracker_token);
  return snap;
}

uint64_t ServeCatalog::Version(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.version;
}

std::vector<std::string> ServeCatalog::Names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

size_t ServeCatalog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

void ServeCatalog::set_on_publish(std::function<void(const std::string&)> fn) {
  std::lock_guard<std::mutex> lk(mu_);
  on_publish_ = std::move(fn);
}

}  // namespace gdms::serve
