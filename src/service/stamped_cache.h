#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/result.h"
#include "plan/physical_plan.h"

namespace costdb {

/// Counters of a StampedCache. A cache without caps never evicts, and one
/// whose fills report no size holds 0 bytes.
struct StampedCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t invalidations = 0;  // stale entries dropped on lookup
  size_t evictions = 0;      // LRU evictions at the entry or byte cap
  size_t entries = 0;
  size_t bytes = 0;          // sum of the entries' reported sizes
};

/// A shared cache of immutable values under string keys: the facade's plan
/// cache and its result cache.
///
/// Each entry is stamped with the calibration version current when its
/// value began computing and with the layout version of every table its
/// plan scans. A lookup serves the entry only while both still match;
/// otherwise it drops the entry (an invalidation) and recomputes. The
/// version is read under the cache lock, so the check is atomic with the
/// lookup.
///
/// Lookups are single-flighted: concurrent misses of one key compute once,
/// and the other callers wait, then hit — or take over if it failed.
///
/// Optional caps bound the entry count and the summed entry sizes. Past
/// either, the least recently used entries are evicted, but the newest
/// entry always stays.
template <typename V>
class StampedCache {
 public:
  struct Caps {
    size_t max_entries = 0;  // 0 = unbounded
    size_t max_bytes = 0;    // 0 = unbounded
  };

  /// What a miss computes: the value, the plan whose scanned tables stamp
  /// it, and its size against the byte cap.
  struct Fill {
    std::shared_ptr<const V> value;
    const PhysicalPlan* plan = nullptr;
    double bytes = 0.0;
  };

  /// `calibration_version` stamps the entries and must outlive the cache.
  explicit StampedCache(const std::atomic<int>* calibration_version,
                        Caps caps = {})
      : version_(calibration_version), caps_(caps) {}

  /// The value cached under `key` while its stamp is current (`*hit` set),
  /// else the value `compute` returns, which is then cached. A failed
  /// compute caches nothing and returns its status.
  Result<std::shared_ptr<const V>> GetOrCompute(
      const std::string& key, const std::function<Result<Fill>()>& compute,
      bool* hit) {
    *hit = false;
    int version = 0;
    std::shared_ptr<Flight> flight;
    {
      UniqueMutexLock lock(mu_);
      while (true) {
        auto it = entries_.find(key);
        if (it != entries_.end()) {
          if (Current(it->second)) {
            ++stats_.hits;
            it->second.last_used = ++tick_;
            *hit = true;
            return it->second.value;
          }
          // The calibration moved, or a scanned table's layout changed
          // (append, compaction, recluster, repartition): the value may
          // describe a plan or rows that no longer hold.
          bytes_ -= it->second.bytes;
          entries_.erase(it);
          ++stats_.invalidations;
          break;
        }
        auto in_flight = flights_.find(key);
        if (in_flight == flights_.end()) break;  // compute it here
        std::shared_ptr<Flight> ticket = in_flight->second;
        while (!ticket->done) ticket->cv.wait(lock);
        // Re-check: the computing caller published (hit), failed (take
        // over), or the entry went stale meanwhile (recompute).
      }
      ++stats_.misses;
      // The version before computing: if the calibration moves meanwhile,
      // the entry is stale on its next lookup, never falsely current.
      version = version_->load();
      flight = std::make_shared<Flight>();
      flights_[key] = flight;
    }
    Result<Fill> filled = compute();
    {
      MutexLock lock(mu_);
      if (filled.ok()) Publish(key, *filled, version);
      flights_.erase(key);
      flight->done = true;
    }
    flight->cv.notify_all();
    if (!filled.ok()) return filled.status();
    return filled->value;
  }

  StampedCacheStats stats() const {
    MutexLock lock(mu_);
    StampedCacheStats out = stats_;
    out.entries = entries_.size();
    out.bytes = static_cast<size_t>(bytes_);
    return out;
  }

  /// Drop every entry and zero the counters.
  void Clear() {
    MutexLock lock(mu_);
    entries_.clear();
    stats_ = StampedCacheStats{};
    bytes_ = 0.0;
  }

 private:
  using TableLayouts =
      std::vector<std::pair<std::shared_ptr<Table>, uint64_t>>;

  struct Entry {
    std::shared_ptr<const V> value;
    int calibration_version = 0;
    TableLayouts table_layouts;
    double bytes = 0.0;
    uint64_t last_used = 0;  // LRU tick
  };

  /// Single-flight marker of one key being computed.
  struct Flight {
    std::condition_variable_any cv;
    /// Guarded by the cache's mu_ (not annotatable: the analysis cannot
    /// name another object's mutex); waiters read it only under that lock.
    bool done = false;
  };

  static void CollectScanTables(const PhysicalPlan* node, TableLayouts* out) {
    if (node == nullptr) return;
    if (node->kind == PhysicalPlan::Kind::kTableScan &&
        node->table != nullptr) {
      out->emplace_back(node->table, node->table->layout_version());
    }
    for (const auto& c : node->children) CollectScanTables(c.get(), out);
  }

  bool Current(const Entry& entry) const REQUIRES(mu_) {
    if (entry.calibration_version != version_->load()) return false;
    for (const auto& [table, layout] : entry.table_layouts) {
      if (table->layout_version() != layout) return false;
    }
    return true;
  }

  void EvictLeastRecentlyUsed() REQUIRES(mu_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++stats_.evictions;
  }

  void Publish(const std::string& key, const Fill& fill, int version)
      REQUIRES(mu_) {
    Entry entry{fill.value, version, {}, fill.bytes, ++tick_};
    CollectScanTables(fill.plan, &entry.table_layouts);
    auto [slot, inserted] = entries_.try_emplace(key);
    if (!inserted) bytes_ -= slot->second.bytes;
    bytes_ += entry.bytes;
    slot->second = std::move(entry);
    while (caps_.max_entries > 0 && entries_.size() > caps_.max_entries) {
      EvictLeastRecentlyUsed();
    }
    // size() > 1: evicting the value just computed would make an
    // over-budget value uncacheable and churn the rest of the cache.
    while (caps_.max_bytes > 0 && entries_.size() > 1 &&
           bytes_ > static_cast<double>(caps_.max_bytes)) {
      EvictLeastRecentlyUsed();
    }
  }

  const std::atomic<int>* version_;
  const Caps caps_;
  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Flight>> flights_ GUARDED_BY(mu_);
  StampedCacheStats stats_ GUARDED_BY(mu_);
  uint64_t tick_ GUARDED_BY(mu_) = 0;
  double bytes_ GUARDED_BY(mu_) = 0.0;
};

}  // namespace costdb
