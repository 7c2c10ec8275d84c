#include "storage/cache.h"

#include <algorithm>
#include <vector>

namespace costdb {

BlockCache::Entry* BlockCache::FindColumn(BlockEntries* entries,
                                          size_t column) {
  for (Entry& e : *entries) {
    if (e.column == column) return &e;
  }
  return nullptr;
}

bool BlockCache::Lookup(const std::string& block_key,
                        const std::vector<size_t>& columns,
                        std::vector<std::shared_ptr<const ColumnVector>>* out,
                        BlockCacheStats* stats) {
  out->assign(columns.size(), nullptr);
  bool all_found = true;
  double bytes_hit = 0.0;
  MutexLock lock(mu_);
  auto block = blocks_.find(block_key);
  for (size_t i = 0; i < columns.size(); ++i) {
    Entry* e = block == blocks_.end() ? nullptr
                                      : FindColumn(&block->second, columns[i]);
    if (e == nullptr) {
      all_found = false;
      continue;
    }
    ++e->hits;
    e->priority = PriorityOf(*e);
    bytes_hit += e->bytes;
    (*out)[i] = e->data;
  }
  if (stats != nullptr) {
    stats->bytes_hit += bytes_hit;
    if (all_found) ++stats->hits;
  }
  totals_.bytes_hit += bytes_hit;
  if (all_found) ++totals_.hits;
  return all_found;
}

bool BlockCache::Contains(const std::vector<std::string>& block_keys,
                          const std::vector<size_t>& columns) const {
  MutexLock lock(mu_);
  for (const std::string& block_key : block_keys) {
    auto block = blocks_.find(block_key);
    for (size_t c : columns) {
      if (block == blocks_.end()) return false;
      const BlockEntries& entries = block->second;
      if (std::none_of(entries.begin(), entries.end(),
                       [c](const Entry& e) { return e.column == c; })) {
        return false;
      }
    }
  }
  return true;
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
  auto block = blocks_.find(block_key);
  if (block != blocks_.end() && FindColumn(&block->second, column) != nullptr) {
    // Raced with another pin of the same column: keep the resident entry.
    return;
  }
  EvictToFit(bytes, stats);  // may drop this block's node
  block = blocks_.try_emplace(block_key).first;
  Entry e;
  e.column = column;
  e.data = std::move(data);
  e.bytes = bytes;
  e.miss_cost = miss_cost_dollars;
  e.hits = 0;
  e.priority = PriorityOf(e);
  e.rank = ranks_.insert(Rank{e.priority, &block->first, column}).first;
  block->second.push_back(std::move(e));
  used_bytes_ += bytes;
  ++entries_;
}

void BlockCache::EraseEntry(BlockMap::iterator block, Entry* e) {
  used_bytes_ -= e->bytes;
  ranks_.erase(e->rank);
  --entries_;
  BlockEntries& entries = block->second;
  if (e != &entries.back()) *e = std::move(entries.back());
  entries.pop_back();
  if (entries.empty()) blocks_.erase(block);
}

void BlockCache::EvictToFit(double incoming_bytes, BlockCacheStats* stats) {
  while (!ranks_.empty() &&
         used_bytes_ + incoming_bytes > static_cast<double>(capacity_)) {
    auto front = ranks_.begin();
    auto block = blocks_.find(*front->block);
    Entry* victim = FindColumn(&block->second, front->column);
    if (front->priority < victim->priority) {
      // Hit since it was ranked: re-rank it and look again. Every other
      // entry's rank is at most its priority, so the front is the victim
      // once its rank is current.
      auto node = ranks_.extract(front);
      node.value().priority = victim->priority;
      victim->rank = ranks_.insert(std::move(node)).position;
      continue;
    }
    // GDSF aging: the clock rises to the evicted priority, so entries that
    // stop being hit eventually fall below newly admitted ones regardless
    // of how expensive their misses are.
    clock_ = std::max(clock_, victim->priority);
    EraseEntry(block, victim);
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

void BlockCache::RecordHeldDecode(Seconds seconds, BlockCacheStats* stats) {
  MutexLock lock(mu_);
  if (stats != nullptr) stats->miss_seconds += seconds;
  totals_.miss_seconds += seconds;
}

void BlockCache::Erase(const std::string& block_key) {
  MutexLock lock(mu_);
  auto block = blocks_.find(block_key);
  if (block == blocks_.end()) return;
  for (const Entry& e : block->second) {
    used_bytes_ -= e.bytes;
    ranks_.erase(e.rank);
  }
  entries_ -= block->second.size();
  blocks_.erase(block);
}

size_t BlockCache::bytes_used() const {
  MutexLock lock(mu_);
  return static_cast<size_t>(used_bytes_);
}

size_t BlockCache::entries() const {
  MutexLock lock(mu_);
  return entries_;
}

BlockCacheStats BlockCache::totals() const {
  MutexLock lock(mu_);
  return totals_;
}

}  // namespace costdb
