#ifndef GDMS_SERVE_SERVE_CATALOG_H_
#define GDMS_SERVE_SERVE_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gdm/dataset.h"

namespace gdms::serve {

/// \brief Copy-on-write, versioned dataset catalog shared by concurrent
/// sessions.
///
/// Each dataset lives behind a `shared_ptr<const Dataset>`: queries pin the
/// snapshot they started with, so a writer republishing a dataset never
/// mutates storage a reader is traversing — the old snapshot stays alive
/// until its last in-flight query drops it. Every Publish bumps the
/// dataset's version; (name, version) pairs key the result cache, so a bump
/// makes every cached result that read the old snapshot unreachable.
///
/// Residency is registered with obs::ResourceTracker per dataset (same
/// gauges + columnar shed callback as QueryRunner::RegisterDataset), so the
/// memory budget covers served datasets too.
class ServeCatalog {
 public:
  /// One dataset snapshot + its version, resolved atomically (the pair a
  /// query pins before computing its result-cache key).
  struct Snapshot {
    std::shared_ptr<const gdm::Dataset> data;
    uint64_t version = 0;
  };

  ServeCatalog() = default;
  ~ServeCatalog();
  ServeCatalog(const ServeCatalog&) = delete;
  ServeCatalog& operator=(const ServeCatalog&) = delete;

  /// Inserts or replaces `dataset` under its name and bumps its version
  /// (first publish = version 1). Returns the new version. Fires the
  /// on_publish hook (result-cache invalidation) after the swap. Stored
  /// (.gdmz) samples decode their attributes here, before the swap, so the
  /// writer pays for them rather than the new version's first reader.
  uint64_t Publish(gdm::Dataset dataset);

  /// The current snapshot, or {nullptr, 0} when absent.
  Snapshot Resolve(const std::string& name) const;

  /// Current version; 0 when absent.
  uint64_t Version(const std::string& name) const;

  std::vector<std::string> Names() const;
  size_t size() const;

  /// Called after every Publish with the dataset's name, outside the
  /// catalog lock. The session manager hooks result-cache invalidation
  /// here. Pass nullptr to clear.
  void set_on_publish(std::function<void(const std::string&)> fn);

 private:
  struct Entry {
    std::shared_ptr<const gdm::Dataset> data;
    uint64_t version = 0;
    uint64_t tracker_token = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::function<void(const std::string&)> on_publish_;
};

}  // namespace gdms::serve

#endif  // GDMS_SERVE_SERVE_CATALOG_H_
