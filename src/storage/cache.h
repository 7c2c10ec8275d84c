#pragma once

/// BlockCache — a byte-budgeted cache for decoded cold block columns, with
/// admission and eviction priced in dollars rather than recency alone.
///
/// An entry is one column of one block, charged that column's encoded
/// bytes (the manifest's column_bytes), so a column is cached once no
/// matter how many scan projections read it. Each entry's retention
/// priority follows GDSF (greedy-dual-size-frequency):
///
///   priority = clock + hits * miss_cost_dollars / bytes
///
/// where miss_cost_dollars is what re-materializing the entry would cost —
/// one whole-block GET: the fee plus (block bytes / storage_read_gibps +
/// storage_get_seconds) of rented node time (docs/STORAGE.md works the
/// formula through with the calibrated terms). Eviction removes the lowest
/// priority entries; `clock` rises to each victim's priority so long-idle
/// entries age out no matter how expensive they once were. The upshot:
/// between two entries of equal size, the one that is dearer to re-fetch
/// survives.
///
/// Thread-safe: sharded-engine workers pin blocks concurrently.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/units.h"
#include "storage/column_vector.h"

namespace costdb {

/// Per-query (and cache-lifetime) counters for the cold-read path; surfaced
/// on ExecutionResult::storage. See docs/STORAGE.md for how to read them.
struct BlockCacheStats {
  int64_t hits = 0;            // block pins served entirely from the cache
  int64_t misses = 0;          // block pins that issued one object-store GET
  int64_t evictions = 0;       // column entries evicted to fit admissions
  int64_t rejected = 0;        // columns larger than the whole cache budget
  double bytes_read = 0.0;     // encoded object bytes the misses fetched
  double bytes_hit = 0.0;      // encoded bytes (manifest column_bytes) of the
                               // column entries served from the cache, also
                               // when the same pin fetched other columns
  Seconds miss_seconds = 0.0;  // measured wall time of fetch+verify+decode
  Dollars miss_get_dollars = 0.0;  // GET fees attributable to the misses

  void MergeFrom(const BlockCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    rejected += other.rejected;
    bytes_read += other.bytes_read;
    bytes_hit += other.bytes_hit;
    miss_seconds += other.miss_seconds;
    miss_get_dollars += other.miss_get_dollars;
  }
};

class BlockCache {
 public:
  explicit BlockCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Look up `columns` of the block `block_key` under one lock, filling
  /// (*out)[i] with column columns[i] when cached and nullptr otherwise; a
  /// returned shared_ptr keeps the column alive even if it is evicted
  /// mid-scan. Each found entry adds its bytes to `stats->bytes_hit`; only
  /// a pin that found every column counts as a hit (one that then has to
  /// GET is counted by RecordMiss). Returns whether every column was found.
  bool Lookup(const std::string& block_key, const std::vector<size_t>& columns,
              std::vector<std::shared_ptr<const ColumnVector>>* out,
              BlockCacheStats* stats);

  /// Admit one freshly decoded column. `bytes` is its encoded size and
  /// `miss_cost_dollars` the priced cost of re-materializing it (one
  /// whole-block GET + rented read/decode time) — the GDSF benefit density.
  /// Evicts lowest priority entries to fit; a column larger than the whole
  /// budget is rejected (counted in `stats->rejected`).
  void Insert(const std::string& block_key, size_t column,
              std::shared_ptr<const ColumnVector> data, double bytes,
              Dollars miss_cost_dollars, BlockCacheStats* stats);

  /// Account one cold read (one GET + verify + decode) in the per-query
  /// stats and the cache-lifetime totals. Called by the storage layer on
  /// every miss it services, whether or not the columns are then admitted.
  void RecordMiss(double bytes, Seconds seconds, Dollars get_dollars,
                  BlockCacheStats* stats);

  /// Drop every cached column of a block (compaction retires its blocks
  /// eagerly).
  void Erase(const std::string& block_key);

  size_t bytes_used() const;
  size_t capacity_bytes() const { return capacity_; }
  size_t entries() const;

  /// Lifetime totals across all queries (the per-query stats passed to
  /// Lookup/Insert only see their own traffic).
  BlockCacheStats totals() const;

 private:
  using Key = std::pair<std::string, size_t>;  // (block key, column)
  struct Entry {
    std::shared_ptr<const ColumnVector> data;
    double bytes = 0.0;
    Dollars miss_cost = 0.0;
    int64_t hits = 0;
    double priority = 0.0;
  };

  double PriorityOf(const Entry& e) const REQUIRES(mu_) {
    const double density =
        e.bytes > 0.0 ? e.miss_cost / e.bytes : e.miss_cost;
    return clock_ + static_cast<double>(e.hits + 1) * density;
  }
  void EvictToFit(double incoming_bytes, BlockCacheStats* stats)
      REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_;
  std::map<Key, Entry> entries_ GUARDED_BY(mu_);
  double used_bytes_ GUARDED_BY(mu_) = 0.0;
  double clock_ GUARDED_BY(mu_) = 0.0;  // GDSF aging floor
  BlockCacheStats totals_ GUARDED_BY(mu_);
};

}  // namespace costdb
