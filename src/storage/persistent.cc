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

std::string ObjectKeyFor(const std::string& table, uint64_t object_id) {
  return "lsm/" + table + "/" + std::to_string(object_id);
}

std::string CacheKeyFor(const std::string& table, uint64_t block_id) {
  return "blk/" + table + "/" + std::to_string(block_id);
}

std::vector<size_t> AllColumns(size_t n) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  return all;
}

/// Row budget of a block at `level`: doubles per level, up to the format's
/// kMaxBlockRows, so a merge into the next level re-cuts the same rows into
/// roughly half the blocks — the mechanism by which compaction buys down
/// future GET fees.
size_t BudgetRows(size_t block_rows, size_t level) {
  const size_t shift = std::min<size_t>(level, 20);
  return std::min<size_t>(block_rows << shift, block::kMaxBlockRows);
}

/// Objects a run of `blocks` blocks of about `block_bytes` each packs into
/// at `object_bytes` per object (at least one block per object).
size_t ObjectsFor(size_t blocks, double block_bytes, double object_bytes) {
  if (blocks == 0) return 0;
  const double fit = block_bytes > 0.0 ? object_bytes / block_bytes
                                       : static_cast<double>(blocks);
  const size_t per_object =
      fit >= static_cast<double>(blocks) ? blocks
                                         : std::max<size_t>(1, size_t(fit));
  return (blocks + per_object - 1) / per_object;
}

}  // namespace

/// Where one block's image lives, with its sizes: the copy PinBlock takes
/// under the reader lock so fetch+decode run unlocked.
struct BlockLocator {
  uint64_t object_id = 0;
  uint64_t offset = 0;  // in the object
  double bytes = 0.0;   // encoded image
  std::vector<double> column_bytes;  // plain, per column
};

/// A fetched range: the images of blocks [first_id, first_id + n) of one
/// object, each verified, with the locators they were fetched by.
struct BlockRun::Held {
  uint64_t first_id = 0;
  ObjectBytes bytes;
  uint64_t begin = 0;  // object offset of bytes[0]
  std::vector<BlockLocator> locs;
  std::vector<block::BlockFooter> footers;

  bool Holds(uint64_t block_id) const {
    return block_id >= first_id && block_id - first_id < footers.size();
  }
  std::string_view Image(size_t i) const {
    return bytes.view().substr(locs[i].offset - begin,
                               static_cast<size_t>(locs[i].bytes));
  }
};

BlockRun::BlockRun(std::vector<uint64_t> block_ids)
    : block_ids_(std::move(block_ids)), held_(std::make_unique<Held>()) {}

BlockRun::~BlockRun() = default;

/// All block/ manifest state lives here so the public header exposes none
/// of the internal format types.
struct TableStorage::Impl {
  mutable SharedMutex mu;
  block::Manifest manifest GUARDED_BY(mu);
  std::map<uint64_t, BlockLocator> locators GUARDED_BY(mu);
  size_t flushes GUARDED_BY(mu) = 0;

  void ReindexLocators() REQUIRES(mu);
  /// Encode `rows` into blocks at `level`'s budget and append them as one
  /// new run at that level, packed into objects of up to `object_bytes`.
  Status AppendRun(const std::string& table,
                   const std::vector<LogicalType>& types, size_t block_rows,
                   size_t level, double object_bytes,
                   SimulatedObjectStore* store, const DataChunk& rows)
      REQUIRES(mu);
};

void TableStorage::Impl::ReindexLocators() {
  locators.clear();
  for (const auto& level : manifest.levels) {
    for (const block::RunMeta& run : level) {
      for (const block::BlockMeta& b : run.blocks) {
        locators[b.block_id] =
            BlockLocator{b.object_id, b.offset, b.bytes, b.column_bytes};
      }
    }
  }
}

Status TableStorage::Impl::AppendRun(const std::string& table,
                                     const std::vector<LogicalType>& types,
                                     size_t block_rows, size_t level,
                                     double object_bytes,
                                     SimulatedObjectStore* store,
                                     const DataChunk& rows) {
  if (manifest.levels.size() <= level) manifest.levels.resize(level + 1);

  block::RunMeta run;
  run.run_id = manifest.next_run_id++;
  const size_t budget = BudgetRows(block_rows, level);
  const size_t total = rows.num_rows();
  block::BlockWriter writer(types);
  // Consecutive blocks share an object, image after image, while it stays
  // within the priced size; every object holds at least one block.
  std::string object;
  uint64_t object_id = 0;
  for (size_t begin = 0; begin < total; begin += budget) {
    const size_t end = std::min(begin + budget, total);
    DataChunk slice{types};
    slice.AppendRange(rows, begin, end);

    block::BlockMeta meta;
    meta.block_id = manifest.next_block_id++;
    meta.rows = end - begin;

    block::BlockLayout layout;
    const std::string bytes = writer.Encode(slice, &meta.zones, &layout);
    meta.bytes = layout.total_bytes;
    meta.column_bytes = layout.column_bytes;
    if (!object.empty() &&
        static_cast<double>(object.size() + bytes.size()) > object_bytes) {
      COSTDB_RETURN_NOT_OK(
          store->PutObject(ObjectKeyFor(table, object_id), object));
      object.clear();
    }
    if (object.empty()) object_id = meta.block_id;
    meta.object_id = object_id;
    meta.offset = object.size();
    object += bytes;
    run.blocks.push_back(std::move(meta));
  }
  if (!object.empty()) {
    COSTDB_RETURN_NOT_OK(
        store->PutObject(ObjectKeyFor(table, object_id), object));
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
  // Prices before the manifest lock, as in Compact.
  const double object_bytes = pricing_().PricedObjectBytes();
  WriterMutexLock lock(impl_->mu);
  COSTDB_RETURN_NOT_OK(impl_->AppendRun(table_name_, types_, block_rows_,
                                        /*level=*/0, object_bytes, store_,
                                        rows));
  ++impl_->flushes;
  return Status::OK();
}

Result<bool> TableStorage::Compact(bool force) {
  // Snapshot the prices before locking: the supplier reads service-layer
  // state under its own locks (hw calibration), and planning threads read
  // this table's manifest while holding those — taking them in the other
  // order here would be a lock-order inversion.
  const StoragePricing price = pricing_();
  const double object_bytes = price.PricedObjectBytes();
  WriterMutexLock lock(impl_->mu);
  block::Manifest& m = impl_->manifest;
  const Dollars per_get = price.get_dollars +
                          price.get_seconds * price.node_dollars_per_second;

  // Evaluate every level: what would merging it into the next cost, and
  // what does the new layout save future cold scans? A scan pays one GET
  // per object it touches, so both sides count objects.
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

    size_t cur_blocks = 0, cur_objects = 0, rows = 0;
    double bytes = 0.0;
    for (const block::RunMeta& run : runs) {
      cur_blocks += run.blocks.size();
      cur_objects += run.objects();
      rows += run.rows();
      bytes += run.bytes();
    }
    const size_t budget = BudgetRows(block_rows_, target);
    const size_t new_blocks = (rows + budget - 1) / budget;
    const size_t new_objects =
        ObjectsFor(new_blocks, bytes / static_cast<double>(new_blocks),
                   object_bytes);
    // Merging a single run that would not get thinner is a no-op.
    if (runs.size() <= 1 && new_blocks >= cur_blocks) continue;

    // Merge cost: GET every old object, stream the bytes twice (read +
    // write-back) at the calibrated storage bandwidth on rented nodes,
    // PUT every new object.
    const Seconds merge_seconds =
        2.0 * bytes / (price.read_gibps * kGiB) +
        static_cast<double>(cur_objects) * price.get_seconds;
    const Dollars merge_dollars =
        static_cast<double>(cur_objects) * price.get_dollars +
        static_cast<double>(new_objects) * price.put_dollars +
        merge_seconds * price.node_dollars_per_second;
    // Benefit: every future cold scan of these rows issues new_objects GETs
    // instead of cur_objects, over the configured amortization horizon.
    const size_t objects_saved =
        cur_objects > new_objects ? cur_objects - new_objects : 0;
    const Dollars saved = options_.expected_scans_per_compaction *
                          static_cast<double>(objects_saved) * per_get;
    const Dollars net = saved - merge_dollars;
    if (!have_best || net > best.net) {
      have_best = true;
      best = Candidate{level, target, net};
    }
  }
  if (!have_best) return false;
  if (!force && best.net <= 0.0) return false;

  // Execute: read the level in scan order, one GET per object (compaction
  // pays its own request fees), concatenate preserving row order, re-cut
  // at the target level's budget, retire the old objects and blocks.
  DataChunk merged{types_};
  const std::vector<size_t> all_columns = AllColumns(types_.size());
  std::vector<uint64_t> retired_objects, retired_blocks;
  for (const block::RunMeta& run : m.levels[best.level]) {
    ObjectBytes object;
    for (const block::BlockMeta& b : run.blocks) {
      if (retired_objects.empty() || retired_objects.back() != b.object_id) {
        auto got = store_->GetObject(ObjectKeyFor(table_name_, b.object_id));
        if (!got.ok()) return got.status();
        object = std::move(*got);
        retired_objects.push_back(b.object_id);
      }
      auto decoded = block::BlockReader::Decode(
          object.view().substr(b.offset, static_cast<size_t>(b.bytes)),
          types_, all_columns);
      if (!decoded.ok()) return decoded.status();
      merged.Append(decoded->chunk);
      retired_blocks.push_back(b.block_id);
    }
  }
  m.levels[best.level].clear();
  COSTDB_RETURN_NOT_OK(impl_->AppendRun(table_name_, types_, block_rows_,
                                        best.target, object_bytes, store_,
                                        merged));
  for (uint64_t id : retired_objects) {
    store_->Delete(ObjectKeyFor(table_name_, id));
  }
  if (cache_ != nullptr) {
    for (uint64_t id : retired_blocks) {
      cache_->Erase(CacheKeyFor(table_name_, id));
    }
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
        if (b.block_id == b.object_id) {
          store_->Delete(ObjectKeyFor(table_name_, b.object_id));
        }
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

Status TableStorage::FetchRange(uint64_t first_id, uint64_t last_id,
                                BlockRun::Held* held) const {
  BlockRun::Held range;
  range.first_id = first_id;
  {
    ReaderMutexLock lock(impl_->mu);
    for (uint64_t id = first_id; id <= last_id; ++id) {
      auto it = impl_->locators.find(id);
      if (it == impl_->locators.end()) {
        return Status::NotFound("table '" + table_name_ + "': no block " +
                                std::to_string(id));
      }
      range.locs.push_back(it->second);
    }
  }
  const BlockLocator& first = range.locs.front();
  const BlockLocator& last = range.locs.back();
  if (last.object_id != first.object_id) {
    return Status::Internal("table '" + table_name_ + "': blocks " +
                            std::to_string(first_id) + ".." +
                            std::to_string(last_id) + " span two objects");
  }
  range.begin = first.offset;
  const uint64_t end = last.offset + static_cast<uint64_t>(last.bytes);
  auto bytes = store_->GetRange(ObjectKeyFor(table_name_, first.object_id),
                                range.begin, end - range.begin);
  if (!bytes.ok()) return bytes.status();
  range.bytes = std::move(*bytes);
  // Every block of the range is verified before any column of it is used.
  range.footers.reserve(range.locs.size());
  for (size_t i = 0; i < range.locs.size(); ++i) {
    block::BlockFooter footer;
    COSTDB_ASSIGN_OR_RETURN(footer,
                            block::BlockReader::Verify(range.Image(i), types_));
    range.footers.push_back(std::move(footer));
  }
  *held = std::move(range);
  return Status::OK();
}

bool TableStorage::Cached(const std::vector<uint64_t>& block_ids,
                          const std::vector<size_t>& columns) const {
  if (cache_ == nullptr) return false;
  std::vector<std::string> keys;
  keys.reserve(block_ids.size());
  for (uint64_t id : block_ids) keys.push_back(CacheKeyFor(table_name_, id));
  return cache_->Contains(keys, columns);
}

Result<std::vector<std::shared_ptr<const ColumnVector>>>
TableStorage::PinBlock(uint64_t block_id, const std::vector<size_t>& columns,
                       BlockCacheStats* stats, BlockRun* run) const {
  const std::string cache_key = CacheKeyFor(table_name_, block_id);
  std::vector<std::shared_ptr<const ColumnVector>> pinned(columns.size());
  if (cache_ != nullptr && cache_->Lookup(cache_key, columns, &pinned, stats)) {
    return pinned;
  }
  std::vector<size_t> missing;  // schema indices, in `columns` order
  for (size_t i = 0; i < columns.size(); ++i) {
    if (pinned[i] == nullptr) missing.push_back(columns[i]);
  }

  // Cold read outside every lock. A pin outside a run holds its one block
  // here; a run's pin fetches only when its range does not hold the block.
  BlockRun::Held alone;
  BlockRun::Held* held = &alone;
  if (run != nullptr) {
    if (!run->failed_.ok()) return run->failed_;
    held = run->held_.get();
  }
  const Seconds t0 = WallNow();
  const bool fetch = !held->Holds(block_id);
  if (fetch) {
    // One ranged GET: this block through the run's last block, cached or
    // not: its admissions may evict a later block before that block's pin,
    // and a second GET costs more than the bytes the range carries.
    uint64_t last_id = block_id;
    if (run != nullptr) last_id = std::max(last_id, run->block_ids_.back());
    Status fetched = FetchRange(block_id, last_id, held);
    if (!fetched.ok()) {
      if (run != nullptr) run->failed_ = fetched;
      return fetched;
    }
  }
  const size_t i = static_cast<size_t>(block_id - held->first_id);
  auto decoded =
      block::BlockReader::DecodeVerified(held->Image(i), held->footers[i],
                                         missing);
  if (!decoded.ok()) return decoded.status();
  const Seconds elapsed = WallNow() - t0;

  const BlockLocator& loc = held->locs[i];
  const StoragePricing price = pricing_();
  const Dollars miss_cost = price.MissCost(loc.bytes);
  if (cache_ != nullptr) {
    if (fetch) {
      cache_->RecordMiss(static_cast<double>(held->bytes.size()), elapsed,
                         price.get_dollars, stats);
    } else {
      cache_->RecordHeldDecode(elapsed, stats);
    }
  }
  for (size_t c = 0, j = 0; c < columns.size(); ++c) {
    if (pinned[c] != nullptr) continue;
    pinned[c] = std::make_shared<const ColumnVector>(
        std::move(decoded->chunk.column(j++)));
    if (cache_ != nullptr) {
      cache_->Insert(cache_key, columns[c], pinned[c],
                     loc.column_bytes[columns[c]], miss_cost, stats);
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
        info.object_id = b.object_id;
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
      s.objects += run.objects();
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
