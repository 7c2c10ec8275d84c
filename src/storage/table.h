#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/data_chunk.h"
#include "storage/zone_map.h"

namespace costdb {

struct TablePartitioning;  // storage/partition.h
class TableStorage;        // storage/persistent.h
class BlockRun;            // storage/persistent.h
struct BlockCacheStats;    // storage/cache.h

/// Column declaration within a table schema.
struct ColumnDef {
  std::string name;
  LogicalType type = LogicalType::kInt64;
};

/// A horizontal partition of a table with per-column zone maps — the unit
/// of scan pruning and of morsel assignment.
///
/// With persistent storage attached, a row group is either *resident*
/// (payload in `data`; the memtable tail) or *cold* (payload evicted to a
/// block in the object store; only zones and counts stay in RAM, so pruned
/// cold groups never cost a GET). Cold payloads come back through
/// Table::PinRowGroup.
struct RowGroup {
  DataChunk data;
  std::vector<ZoneMapEntry> zones;
  bool resident = true;
  uint64_t block_id = 0;   // valid when !resident
  uint64_t object_id = 0;  // valid when !resident: equal for the groups
                           // whose blocks share one storage object
  size_t cold_rows = 0;    // row count when !resident

  size_t num_rows() const { return resident ? data.num_rows() : cold_rows; }
};

/// In-process columnar table: append-only row groups with zone maps and an
/// optional clustering key. RAM-resident by default; AttachStorage() adds a
/// persistent tier (LSM-lite block runs in the simulated object store, see
/// docs/STORAGE.md) under the same row-group scan interface, which is what
/// lets datasets larger than RAM — and larger than the block cache — run
/// through the unchanged vectorized/fused/sharded engines.
class Table {
 public:
  Table(std::string name, std::vector<ColumnDef> columns,
        size_t row_group_size = 8192);

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  size_t row_group_size() const { return row_group_size_; }

  Result<size_t> ColumnIndex(const std::string& column_name) const;

  /// Append rows; splits into row groups and maintains zone maps.
  /// Invalidates any recorded partitioning (new rows are unassigned).
  /// On a persistent table the memtable auto-flushes (and compaction is
  /// re-evaluated) once it crosses StorageOptions::memtable_flush_rows;
  /// flush failures latch into last_storage_error().
  void Append(const DataChunk& chunk);

  size_t num_rows() const { return num_rows_; }
  const std::vector<RowGroup>& row_groups() const { return row_groups_; }

  // -- Persistent tier (storage/persistent.h) -----------------------------

  /// Attach a persistent tier and flush every currently resident row into
  /// it. Fails if storage is already attached.
  Status AttachStorage(std::shared_ptr<TableStorage> storage);

  bool persistent() const { return storage_ != nullptr; }
  TableStorage* storage() const { return storage_.get(); }

  /// Flush the resident memtable tail into a new level-0 run (no-op when
  /// empty or when no storage is attached).
  Status FlushMemtable();

  /// Run one costed compaction round (`force` merges the best candidate
  /// even at negative modeled net). Bumps layout_version() when the layout
  /// changed, which invalidates cached plans/results for free.
  Result<bool> CompactStorage(bool force = false);

  /// First error latched by an auto-flush inside Append (OK when none).
  const Status& last_storage_error() const { return storage_error_; }

  /// Rows currently resident in the memtable tail.
  size_t memtable_rows() const;

  /// A scan's borrowed handle on the requested columns of one row group.
  /// `columns` is indexed by table column and set only for the requested
  /// ones. Resident groups point straight at the group's data; for cold
  /// groups `hold` keeps the cached (or freshly decoded) columns alive for
  /// the duration of the morsel even if the cache evicts them mid-scan.
  struct RowGroupPin {
    std::vector<const ColumnVector*> columns;
    std::vector<std::shared_ptr<const ColumnVector>> hold;

    const ColumnVector& column(size_t index) const { return *columns[index]; }
  };

  /// Pin columns `columns` (schema indices) of group `group_index` for
  /// reading. Cold groups are served from the block cache per column, or
  /// read with one ranged object-store GET — or from the range an earlier
  /// pin of `run` fetched (see BlockRun) — checksum verified in full, and
  /// decoded only for the missing columns; `stats` (optional) accumulates
  /// the per-query hit/miss counters surfaced on ExecutionResult.
  Result<RowGroupPin> PinRowGroup(size_t group_index,
                                  const std::vector<size_t>& columns,
                                  BlockCacheStats* stats = nullptr,
                                  BlockRun* run = nullptr) const;

  /// Whether pinning `columns` of every group in `groups` needs no
  /// object-store bytes: each is resident or has every column cached. A
  /// peek that counts no hit.
  bool Cached(const std::vector<size_t>& groups,
              const std::vector<size_t>& columns) const;

  /// Every schema index, in order — the projection of whole-row readers.
  std::vector<size_t> AllColumnIndices() const;

  /// Physically re-sort the whole table by `column_name` and rebuild row
  /// groups/zone maps. This is the paper's "recluster table T on attribute
  /// A" tuning action; the advisor prices it via EstimateBytes(). On a
  /// persistent table this rewrites every run.
  Status ClusterBy(const std::string& column_name);

  const std::string& clustering_key() const { return clustering_key_; }

  /// Estimated on-disk bytes of the whole table (sum of column estimates).
  double EstimateBytes() const;

  /// Estimated bytes of one column across all row groups. Resident rows
  /// use a light encoding model (fixed width for numerics, observed average
  /// length for strings); evicted rows use the plain column bytes their
  /// blocks recorded when written (not the smaller encoded images).
  double EstimateColumnBytes(size_t column_index) const;

  /// Fraction of row groups a predicate `column op constant` can skip via
  /// zone maps (1.0 = everything pruned). The gain reclustering buys.
  Result<double> PruneFraction(const std::string& column_name, CompareOp op,
                               const Value& constant) const;

  /// Materialize all rows into one chunk, pinning cold groups as needed.
  Result<DataChunk> ScanPinned() const;

  /// Materialize all rows into one chunk (tests / small tables only; a
  /// cold-read failure yields an empty chunk — use ScanPinned() where the
  /// error matters).
  DataChunk Scan() const;

  // -- Partitioned layout (storage/partition.h) ---------------------------
  /// Load-time partitioning of this table, or nullptr. Set by
  /// PartitionTable(); the sharded engine assigns whole partitions to
  /// workers and the planner elides exchanges between co-partitioned
  /// tables.
  const TablePartitioning* partitioning() const { return partitioning_.get(); }
  void SetPartitioning(std::shared_ptr<const TablePartitioning> partitioning) {
    partitioning_ = std::move(partitioning);
  }

  /// Rebuild primitives for PartitionTable(): drop all rows (and any
  /// clustering/partitioning claims about them), and force the next
  /// Append to open a fresh row group so partition boundaries align with
  /// row-group boundaries.
  void ClearRows();
  void SealLastRowGroup() { seal_next_append_ = true; }

  /// Bumped on every physical change to the stored rows (Append,
  /// ClearRows, repartition, flush, compaction). Plans are cached against
  /// the layouts they were shaped for — zone-map pruning fractions,
  /// co-partitioned exchanges — so the plan cache validates this version
  /// on every hit and replans instead of serving a plan whose data moved.
  uint64_t layout_version() const { return layout_version_; }

 private:
  /// Re-derive the cold (evicted) row groups from the storage manifest's
  /// scan order, keeping the resident memtable tail in place.
  void RebuildColdGroups();
  /// Flush + costed-compaction check Append runs past the memtable
  /// threshold; errors latch into storage_error_.
  void MaybeFlushAndCompact();
  std::vector<LogicalType> ColumnTypes() const;

  std::string name_;
  std::vector<ColumnDef> columns_;
  size_t row_group_size_;
  size_t num_rows_ = 0;
  std::string clustering_key_;
  std::vector<RowGroup> row_groups_;
  std::shared_ptr<const TablePartitioning> partitioning_;
  std::shared_ptr<TableStorage> storage_;
  Status storage_error_;
  bool seal_next_append_ = false;
  uint64_t layout_version_ = 0;
};

}  // namespace costdb
