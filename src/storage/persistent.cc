#include "storage/persistent.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <utility>

#include "cloud/object_store.h"
#include "common/annotated_mutex.h"
#include "storage/block/block_reader.h"
#include "storage/block/block_writer.h"
#include "storage/block/manifest.h"

namespace costdb {

namespace {

Seconds WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string ObjectKeyFor(const std::string& table, uint64_t block_id) {
  return "lsm/" + table + "/" + std::to_string(block_id);
}

std::string CacheKeyFor(const std::string& table, uint64_t block_id) {
  return "blk/" + table + "/" + std::to_string(block_id);
}

std::vector<size_t> AllColumns(size_t n) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  return all;
}

/// Row budget of a block at `level`: doubles per level (capped), so a merge
/// into the next level re-cuts the same rows into roughly half the blocks —
/// the mechanism by which compaction buys down future GET fees.
size_t BudgetRows(size_t block_rows, size_t level) {
  const size_t shift = std::min<size_t>(level, 20);
  return block_rows << shift;
}

}  // namespace

/// All block/ manifest state lives here so the public header exposes none
/// of the internal format types.
struct TableStorage::Impl {
  mutable SharedMutex mu;
  block::Manifest manifest GUARDED_BY(mu);
  // block_id -> (object key, encoded bytes, per-column encoded bytes): the
  // copy PinBlock takes under the reader lock so fetch+decode run unlocked.
  struct Locator {
    std::string object_key;
    double bytes = 0.0;
    std::vector<double> column_bytes;
  };
  std::map<uint64_t, Locator> locators GUARDED_BY(mu);
  size_t flushes GUARDED_BY(mu) = 0;

  void ReindexLocators() REQUIRES(mu);
  /// Encode `rows` into blocks at `level`'s budget and append them as one
  /// new run at that level.
  Status AppendRun(const std::string& table,
                   const std::vector<LogicalType>& types, size_t block_rows,
                   size_t level, SimulatedObjectStore* store,
                   const DataChunk& rows) REQUIRES(mu);
};

void TableStorage::Impl::ReindexLocators() {
  locators.clear();
  for (const auto& level : manifest.levels) {
    for (const block::RunMeta& run : level) {
      for (const block::BlockMeta& b : run.blocks) {
        locators[b.block_id] = Locator{b.object_key, b.bytes, b.column_bytes};
      }
    }
  }
}

Status TableStorage::Impl::AppendRun(const std::string& table,
                                     const std::vector<LogicalType>& types,
                                     size_t block_rows, size_t level,
                                     SimulatedObjectStore* store,
                                     const DataChunk& rows) {
  if (manifest.levels.size() <= level) manifest.levels.resize(level + 1);

  block::RunMeta run;
  run.run_id = manifest.next_run_id++;
  const size_t budget = BudgetRows(block_rows, level);
  const size_t total = rows.num_rows();
  block::BlockWriter writer(types);
  for (size_t begin = 0; begin < total; begin += budget) {
    const size_t end = std::min(begin + budget, total);
    DataChunk slice{types};
    slice.AppendRange(rows, begin, end);

    block::BlockMeta meta;
    meta.block_id = manifest.next_block_id++;
    meta.object_key = ObjectKeyFor(table, meta.block_id);
    meta.rows = end - begin;

    block::BlockLayout layout;
    const std::string bytes = writer.Encode(slice, &meta.zones, &layout);
    meta.bytes = layout.total_bytes;
    meta.column_bytes = layout.column_bytes;
    COSTDB_RETURN_NOT_OK(store->PutObject(meta.object_key, bytes));
    run.blocks.push_back(std::move(meta));
  }
  manifest.levels[level].push_back(std::move(run));
  ReindexLocators();
  return Status::OK();
}

TableStorage::TableStorage(std::string table_name,
                           std::vector<LogicalType> types, size_t block_rows,
                           SimulatedObjectStore* store, BlockCache* cache,
                           StorageOptions options,
                           std::function<StoragePricing()> pricing)
    : table_name_(std::move(table_name)),
      types_(std::move(types)),
      block_rows_(std::max<size_t>(block_rows, 1)),
      store_(store),
      cache_(cache),
      options_(options),
      pricing_(std::move(pricing)),
      impl_(std::make_unique<Impl>()) {}

TableStorage::~TableStorage() = default;

Status TableStorage::FlushRun(const DataChunk& rows) {
  if (rows.num_rows() == 0) return Status::OK();
  WriterMutexLock lock(impl_->mu);
  COSTDB_RETURN_NOT_OK(impl_->AppendRun(table_name_, types_, block_rows_,
                                        /*level=*/0, store_, rows));
  ++impl_->flushes;
  return Status::OK();
}

Result<bool> TableStorage::Compact(bool force) {
  // Snapshot the prices before locking: the supplier reads service-layer
  // state under its own locks (hw calibration), and planning threads read
  // this table's manifest while holding those — taking them in the other
  // order here would be a lock-order inversion.
  const StoragePricing price = pricing_();
  WriterMutexLock lock(impl_->mu);
  block::Manifest& m = impl_->manifest;
  const Dollars per_get = price.get_dollars +
                          price.get_seconds * price.node_dollars_per_second;

  // Evaluate every level: what would merging it into the next cost, and
  // what does the thinner layout save future cold scans?
  struct Candidate {
    size_t level = 0;
    size_t target = 0;
    Dollars net = 0.0;
  };
  bool have_best = false;
  Candidate best;
  for (size_t level = 0; level < m.levels.size(); ++level) {
    const auto& runs = m.levels[level];
    if (runs.empty()) continue;
    if (!force && runs.size() < options_.level_fanout) continue;
    const size_t target = std::min(level + 1, options_.max_level);

    size_t cur_blocks = 0, rows = 0;
    double bytes = 0.0;
    for (const block::RunMeta& run : runs) {
      cur_blocks += run.blocks.size();
      rows += run.rows();
      bytes += run.bytes();
    }
    const size_t budget = BudgetRows(block_rows_, target);
    const size_t new_blocks = (rows + budget - 1) / budget;
    // Merging a single run that would not get thinner is a no-op.
    if (runs.size() <= 1 && new_blocks >= cur_blocks) continue;

    // Merge cost: GET every old block, stream the bytes twice (read +
    // write-back) at the calibrated storage bandwidth on rented nodes,
    // PUT every new block.
    const Seconds merge_seconds =
        2.0 * bytes / (price.read_gibps * kGiB) +
        static_cast<double>(cur_blocks) * price.get_seconds;
    const Dollars merge_dollars =
        static_cast<double>(cur_blocks) * price.get_dollars +
        static_cast<double>(new_blocks) * price.put_dollars +
        merge_seconds * price.node_dollars_per_second;
    // Benefit: every future cold scan of these rows issues new_blocks GETs
    // instead of cur_blocks, over the configured amortization horizon.
    const size_t blocks_saved =
        cur_blocks > new_blocks ? cur_blocks - new_blocks : 0;
    const Dollars saved = options_.expected_scans_per_compaction *
                          static_cast<double>(blocks_saved) * per_get;
    const Dollars net = saved - merge_dollars;
    if (!have_best || net > best.net) {
      have_best = true;
      best = Candidate{level, target, net};
    }
  }
  if (!have_best) return false;
  if (!force && best.net <= 0.0) return false;

  // Execute: read the level in scan order (real GETs — compaction pays its
  // own request fees), concatenate preserving row order, re-cut at the
  // target level's budget, retire the old blocks.
  DataChunk merged{types_};
  const std::vector<size_t> all_columns = AllColumns(types_.size());
  std::vector<std::pair<uint64_t, std::string>> retired;  // id, object key
  for (const block::RunMeta& run : m.levels[best.level]) {
    for (const block::BlockMeta& b : run.blocks) {
      auto bytes = store_->GetObject(b.object_key);
      if (!bytes.ok()) return bytes.status();
      auto decoded = block::BlockReader::Decode(*bytes, types_, all_columns);
      if (!decoded.ok()) return decoded.status();
      merged.Append(decoded->chunk);
      retired.emplace_back(b.block_id, b.object_key);
    }
  }
  m.levels[best.level].clear();
  COSTDB_RETURN_NOT_OK(impl_->AppendRun(table_name_, types_, block_rows_,
                                        best.target, store_, merged));
  for (const auto& [id, key] : retired) {
    store_->Delete(key);
    if (cache_ != nullptr) cache_->Erase(CacheKeyFor(table_name_, id));
  }
  ++m.compactions;
  return true;
}

void TableStorage::DropAllRuns() {
  WriterMutexLock lock(impl_->mu);
  block::Manifest& m = impl_->manifest;
  for (const auto& level : m.levels) {
    for (const block::RunMeta& run : level) {
      for (const block::BlockMeta& b : run.blocks) {
        store_->Delete(b.object_key);
        if (cache_ != nullptr) {
          cache_->Erase(CacheKeyFor(table_name_, b.block_id));
        }
      }
    }
  }
  // Block ids stay monotonic across the reset so retired cache keys can
  // never alias future blocks.
  m.levels.clear();
  impl_->locators.clear();
}

Result<std::vector<std::shared_ptr<const ColumnVector>>>
TableStorage::PinBlock(uint64_t block_id, const std::vector<size_t>& columns,
                       BlockCacheStats* stats) const {
  const std::string cache_key = CacheKeyFor(table_name_, block_id);
  std::vector<std::shared_ptr<const ColumnVector>> pinned(columns.size());
  if (cache_ != nullptr && cache_->Lookup(cache_key, columns, &pinned, stats)) {
    return pinned;
  }
  std::vector<size_t> missing;  // schema indices, in `columns` order
  for (size_t i = 0; i < columns.size(); ++i) {
    if (pinned[i] == nullptr) missing.push_back(columns[i]);
  }

  Impl::Locator loc;
  {
    ReaderMutexLock lock(impl_->mu);
    auto it = impl_->locators.find(block_id);
    if (it == impl_->locators.end()) {
      return Status::NotFound("table '" + table_name_ + "': no block " +
                              std::to_string(block_id));
    }
    loc = it->second;
  }

  // Cold read outside every lock: one GET of the whole object, verify every
  // page, decode only the missing columns.
  const Seconds t0 = WallNow();
  auto bytes = store_->GetObject(loc.object_key);
  if (!bytes.ok()) return bytes.status();
  auto decoded = block::BlockReader::Decode(*bytes, types_, missing);
  if (!decoded.ok()) return decoded.status();
  const Seconds elapsed = WallNow() - t0;

  const StoragePricing price = pricing_();
  const Dollars miss_cost = price.MissCost(loc.bytes);
  if (cache_ != nullptr) {
    cache_->RecordMiss(loc.bytes, elapsed, price.get_dollars, stats);
  }
  for (size_t i = 0, j = 0; i < columns.size(); ++i) {
    if (pinned[i] != nullptr) continue;
    pinned[i] = std::make_shared<const ColumnVector>(
        std::move(decoded->chunk.column(j++)));
    if (cache_ != nullptr) {
      cache_->Insert(cache_key, columns[i], pinned[i],
                     loc.column_bytes[columns[i]], miss_cost, stats);
    }
  }
  return pinned;
}

std::vector<ColdBlockInfo> TableStorage::ScanOrderBlocks() const {
  ReaderMutexLock lock(impl_->mu);
  std::vector<ColdBlockInfo> out;
  const block::Manifest& m = impl_->manifest;
  for (size_t level = m.levels.size(); level-- > 0;) {
    for (const block::RunMeta& run : m.levels[level]) {
      for (const block::BlockMeta& b : run.blocks) {
        ColdBlockInfo info;
        info.block_id = b.block_id;
        info.rows = b.rows;
        info.bytes = b.bytes;
        info.zones = b.zones;
        out.push_back(std::move(info));
      }
    }
  }
  return out;
}

double TableStorage::ColumnBytes(size_t column_index) const {
  ReaderMutexLock lock(impl_->mu);
  double total = 0.0;
  for (const auto& level : impl_->manifest.levels) {
    for (const block::RunMeta& run : level) {
      for (const block::BlockMeta& b : run.blocks) {
        if (column_index < b.column_bytes.size()) {
          total += b.column_bytes[column_index];
        }
      }
    }
  }
  return total;
}

BlockManifestSummary TableStorage::Summary() const {
  ReaderMutexLock lock(impl_->mu);
  const block::Manifest& m = impl_->manifest;
  BlockManifestSummary s;
  for (const auto& level : m.levels) {
    if (!level.empty()) ++s.levels;
    s.runs += level.size();
    for (const block::RunMeta& run : level) {
      s.blocks += run.blocks.size();
      for (const block::BlockMeta& b : run.blocks) {
        s.rows += b.rows;
        s.bytes += b.bytes;
      }
    }
  }
  s.flushes = impl_->flushes;
  s.compactions = m.compactions;
  return s;
}

}  // namespace costdb
