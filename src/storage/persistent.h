#pragma once

/// TableStorage — the persistent tier behind a Table: an LSM-lite layout of
/// immutable, leveled block runs in the SimulatedObjectStore, fronted by a
/// cost-priced BlockCache (docs/STORAGE.md).
///
/// Write path: Table::Append keeps a resident memtable (trailing row
/// groups); once it exceeds the flush threshold the rows are encoded into
/// blocks (BlockWriter) and written as a new level-0 run. A run's
/// consecutive blocks are packed back to back into objects of the priced
/// size (StoragePricing::PricedObjectBytes), one PUT per object. Compact()
/// merges a whole level into the next when the calibrated cost model says
/// the merge pays for itself in GETs saved by future scans.
///
/// Read path: Table::PinRowGroup asks PinBlock for the columns a scan
/// projects; cached columns are served from the BlockCache, and if any is
/// missing one ranged GET fetches the block — or, inside a BlockRun, the
/// block through the run's last block — every checksum is verified, only
/// the missing columns are decoded, and each is admitted at the priced miss
/// cost.
///
/// This facade intentionally hides the block format: only src/storage/ and
/// src/catalog/ may include storage/block/ headers (ci/check_layering.py),
/// and engines never see the object store at all.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/units.h"
#include "storage/cache.h"
#include "storage/data_chunk.h"
#include "storage/zone_map.h"

namespace costdb {

class SimulatedObjectStore;

/// Knobs of the LSM-lite layout (DatabaseOptions::storage).
struct StorageOptions {
  /// Resident rows a table accumulates before Append flushes them to a
  /// level-0 run.
  size_t memtable_flush_rows = 64 * 1024;
  /// Runs a level accumulates before compaction of that level is considered
  /// economical enough to evaluate.
  size_t level_fanout = 4;
  /// Deepest level; compaction of the last level merges in place.
  size_t max_level = 6;
  /// Cold scans the compaction cost model assumes will amortize a merge
  /// (the workload-level horizon of "Saving Money for Analytical
  /// Workloads": compaction is judged against future scans, not one query).
  double expected_scans_per_compaction = 64.0;
};

/// Snapshot of the price terms the storage layer needs; supplied by the
/// service layer from HardwareCalibration + PricingCatalog under its own
/// locks, so storage never reaches into cost/cloud state directly.
struct StoragePricing {
  double read_gibps = 0.5;            // calibrated storage_read_gibps
  Seconds get_seconds = 2e-3;         // calibrated storage_get_seconds
  Dollars get_dollars = 4e-7;         // per single GET request
  Dollars put_dollars = 5e-6;         // per single PUT request
  Dollars node_dollars_per_second = 0.0;

  /// Priced cost of re-materializing `bytes` of cold block: the GET fee
  /// plus the rented node time spent waiting on the read. This is both the
  /// cache's admission priority input and the unit of compaction benefit.
  Dollars MissCost(double bytes) const {
    const Seconds read_time =
        bytes / (read_gibps * kGiB) + get_seconds;
    return get_dollars + read_time * node_dollars_per_second;
  }

  /// The object size at which the byte part of MissCost equals its fixed
  /// part (the GET fee plus get_seconds of node time). A run packs its
  /// blocks into objects up to this size: below it the request dominates
  /// what a read costs, above it the bytes do. Unbounded at a zero node
  /// price, where a run is one object.
  double PricedObjectBytes() const {
    if (node_dollars_per_second <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    return (get_dollars + get_seconds * node_dollars_per_second) /
           node_dollars_per_second * read_gibps * kGiB;
  }
};

/// Catalog-facing summary of a table's persistent layout.
struct BlockManifestSummary {
  size_t levels = 0;  // non-empty levels
  size_t runs = 0;
  size_t objects = 0;  // object-store keys: what a cold full scan GETs
  size_t blocks = 0;
  uint64_t rows = 0;
  double bytes = 0.0;
  size_t flushes = 0;
  size_t compactions = 0;
};

/// Metadata of one cold block in table scan order — what Table keeps
/// resident per evicted row group (zones for pruning, sizes for costing).
struct ColdBlockInfo {
  uint64_t block_id = 0;
  uint64_t object_id = 0;  // equal for blocks stored in one object
  size_t rows = 0;
  double bytes = 0.0;
  std::vector<ZoneMapEntry> zones;
};

/// Consecutive blocks of one storage object that one thread pins in order:
/// what LocalEngine dispatches the surviving row groups of an object that
/// are not all cached as. The run's first pin that needs bytes fetches,
/// with one ranged GET, its own block through the run's last block, and
/// verifies every block in that range before any column is used. The
/// run's later pins decode from the held range; it is released with the
/// run.
class BlockRun {
 public:
  /// `block_ids`: the run's blocks, in pin order.
  explicit BlockRun(std::vector<uint64_t> block_ids);
  ~BlockRun();

  BlockRun(const BlockRun&) = delete;
  BlockRun& operator=(const BlockRun&) = delete;

 private:
  friend class TableStorage;
  struct Held;  // a fetched, verified range (persistent.cc)

  const std::vector<uint64_t> block_ids_;
  std::unique_ptr<Held> held_;
  Status failed_;  // a failed fetch, returned again by later pins
};

class TableStorage {
 public:
  TableStorage(std::string table_name, std::vector<LogicalType> types,
               size_t block_rows, SimulatedObjectStore* store,
               BlockCache* cache, StorageOptions options,
               std::function<StoragePricing()> pricing);
  ~TableStorage();

  TableStorage(const TableStorage&) = delete;
  TableStorage& operator=(const TableStorage&) = delete;

  const StorageOptions& options() const { return options_; }

  /// Encode `rows` into blocks and append them as a new level-0 run.
  [[nodiscard]] Status FlushRun(const DataChunk& rows);

  /// Costed compaction: evaluate every eligible level and merge the one
  /// with the best positive net benefit (GET fees saved by future scans
  /// minus the merge's own request fees and rented read/write time). With
  /// `force`, the best candidate merges even at negative net. Returns
  /// whether a merge happened.
  Result<bool> Compact(bool force);

  /// Delete every object of this table (compaction-independent reset used
  /// by ClusterBy's full rewrite).
  void DropAllRuns();

  /// Pin columns `columns` (schema indices) of one block: element i of the
  /// result is column columns[i]. A pin whose columns are all cached makes
  /// no GET. Otherwise the block's bytes come from `run`'s held range, or
  /// from one ranged GET (of the block alone outside a run, through the
  /// run's last block inside one); every page is verified,
  /// only the missing columns are decoded, and each is admitted, charged
  /// its plain column bytes and priced at the block's MissCost. `stats`
  /// (optional) receives the per-query counters.
  Result<std::vector<std::shared_ptr<const ColumnVector>>> PinBlock(
      uint64_t block_id, const std::vector<size_t>& columns,
      BlockCacheStats* stats, BlockRun* run = nullptr) const;

  /// Whether `columns` of every block in `block_ids` are cached (a peek:
  /// no hit is counted).
  bool Cached(const std::vector<uint64_t>& block_ids,
              const std::vector<size_t>& columns) const;

  /// Cold blocks in scan order (deepest level first, then level-0 runs in
  /// flush order) — what Table rebuilds its evicted row groups from.
  std::vector<ColdBlockInfo> ScanOrderBlocks() const;

  /// Plain (decoded) bytes of one column across all blocks
  /// (EstimateColumnBytes for evicted payloads).
  double ColumnBytes(size_t column_index) const;

  BlockManifestSummary Summary() const;

  BlockCache* cache() const { return cache_; }

 private:
  struct Impl;  // holds the block/ manifest types; see persistent.cc

  /// One ranged GET of blocks [first_id, last_id] (consecutive blocks of
  /// one object), every block verified, into `*held`.
  Status FetchRange(uint64_t first_id, uint64_t last_id,
                    BlockRun::Held* held) const;

  const std::string table_name_;
  const std::vector<LogicalType> types_;
  const size_t block_rows_;  // level-0 row budget; doubles per level
  SimulatedObjectStore* const store_;
  BlockCache* const cache_;
  const StorageOptions options_;
  const std::function<StoragePricing()> pricing_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace costdb
