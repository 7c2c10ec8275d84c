#include "storage/cache.h"

#include <algorithm>
#include <vector>

namespace costdb {

bool BlockCache::Lookup(const std::string& block_key,
                        const std::vector<size_t>& columns,
                        std::vector<std::shared_ptr<const ColumnVector>>* out,
                        BlockCacheStats* stats) {
  out->assign(columns.size(), nullptr);
  bool all_found = true;
  double bytes_hit = 0.0;
  Key key(block_key, 0);
  MutexLock lock(mu_);
  for (size_t i = 0; i < columns.size(); ++i) {
    key.second = columns[i];
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      all_found = false;
      continue;
    }
    Entry& e = it->second;
    ++e.hits;
    e.priority = PriorityOf(e);
    bytes_hit += e.bytes;
    (*out)[i] = e.data;
  }
  if (stats != nullptr) {
    stats->bytes_hit += bytes_hit;
    if (all_found) ++stats->hits;
  }
  totals_.bytes_hit += bytes_hit;
  if (all_found) ++totals_.hits;
  return all_found;
}

void BlockCache::Insert(const std::string& block_key, size_t column,
                        std::shared_ptr<const ColumnVector> data, double bytes,
                        Dollars miss_cost_dollars, BlockCacheStats* stats) {
  MutexLock lock(mu_);
  if (bytes > static_cast<double>(capacity_)) {
    if (stats != nullptr) ++stats->rejected;
    ++totals_.rejected;
    return;
  }
  Key key(block_key, column);
  if (entries_.count(key) > 0) {
    // Raced with another pin of the same column: keep the resident entry.
    return;
  }
  EvictToFit(bytes, stats);
  Entry e;
  e.data = std::move(data);
  e.bytes = bytes;
  e.miss_cost = miss_cost_dollars;
  e.hits = 0;
  e.priority = PriorityOf(e);
  used_bytes_ += bytes;
  entries_.emplace(std::move(key), std::move(e));
}

void BlockCache::EvictToFit(double incoming_bytes, BlockCacheStats* stats) {
  while (!entries_.empty() &&
         used_bytes_ + incoming_bytes > static_cast<double>(capacity_)) {
    auto victim = entries_.begin();
    for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
      if (it->second.priority < victim->second.priority) victim = it;
    }
    // GDSF aging: the clock rises to the evicted priority, so entries that
    // stop being hit eventually fall below newly admitted ones regardless
    // of how expensive their misses are.
    clock_ = std::max(clock_, victim->second.priority);
    used_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    if (stats != nullptr) ++stats->evictions;
    ++totals_.evictions;
  }
}

void BlockCache::RecordMiss(double bytes, Seconds seconds,
                            Dollars get_dollars, BlockCacheStats* stats) {
  MutexLock lock(mu_);
  if (stats != nullptr) {
    ++stats->misses;
    stats->bytes_read += bytes;
    stats->miss_seconds += seconds;
    stats->miss_get_dollars += get_dollars;
  }
  ++totals_.misses;
  totals_.bytes_read += bytes;
  totals_.miss_seconds += seconds;
  totals_.miss_get_dollars += get_dollars;
}

void BlockCache::Erase(const std::string& block_key) {
  MutexLock lock(mu_);
  // Keys order by (block key, column): a block's columns are contiguous.
  auto it = entries_.lower_bound(Key(block_key, 0));
  while (it != entries_.end() && it->first.first == block_key) {
    used_bytes_ -= it->second.bytes;
    it = entries_.erase(it);
  }
}

size_t BlockCache::bytes_used() const {
  MutexLock lock(mu_);
  return static_cast<size_t>(used_bytes_);
}

size_t BlockCache::entries() const {
  MutexLock lock(mu_);
  return entries_.size();
}

BlockCacheStats BlockCache::totals() const {
  MutexLock lock(mu_);
  return totals_;
}

}  // namespace costdb
