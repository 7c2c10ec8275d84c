#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/table_stats.h"
#include "common/annotated_mutex.h"
#include "cloud/cloud_env.h"
#include "common/result.h"
#include "storage/persistent.h"
#include "storage/table.h"

namespace costdb {

/// Descriptor of a materialized view registered by the auto-tuner: the view
/// is a regular table plus the join fingerprint it can substitute for.
struct MaterializedViewInfo {
  std::string name;
  /// Sorted "table.column=table.column" equi-join edges the MV covers.
  std::vector<std::string> join_edges;
  /// Base tables folded into the view.
  std::vector<std::string> base_tables;
  /// Rows written per maintenance refresh (drives the update cost).
  double refresh_rows = 0.0;
};

/// The metadata service of paper Figure 3: catalog of tables, their
/// statistics, and registered materialized views, with low-latency lookup
/// for query planning. Also the injection point for the stats-error
/// experiments.
class MetadataService {
 public:
  MetadataService() = default;
  // Copyable (the What-If Service clones the catalog to hypothesize
  // tuning actions); the stats-cache mutex is per-instance, not copied.
  MetadataService(const MetadataService& other);
  MetadataService& operator=(const MetadataService& other);

  /// Register a table; replaces an existing one with the same name.
  void RegisterTable(std::shared_ptr<Table> table);

  Result<std::shared_ptr<Table>> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }

  Status DropTable(const std::string& name);

  /// ANALYZE one table (rebuild statistics).
  Status Analyze(const std::string& name);

  /// ANALYZE every registered table.
  void AnalyzeAll();

  /// Statistics as the optimizer sees them: true stats scaled by the
  /// configured error factor. Returns nullptr when the table is unknown or
  /// not analyzed.
  const TableStats* GetStats(const std::string& name) const;

  /// Ground-truth statistics (no error injection) — what the execution
  /// simulator uses as reality.
  const TableStats* GetTrueStats(const std::string& name) const;

  /// Scale the *served* row counts of `table` by `factor` (1.0 = truthful).
  /// Lets experiments reproduce cardinality misestimation without touching
  /// data. Safe to call while planners run concurrently: the served-stats
  /// caches invalidate under the same lock that fills them.
  void SetStatsErrorFactor(const std::string& table, double factor)
      EXCLUDES(stats_mu_);
  double stats_error_factor(const std::string& table) const
      EXCLUDES(stats_mu_);

  /// Pretend `table` is `scale`x its in-process size — applied to BOTH the
  /// true and the served statistics (key NDVs scale along, bounded by the
  /// row count). This is how experiments run warehouse-sized workloads on
  /// the simulator while keeping in-process data small; the error factor
  /// then injects *disagreement* on top.
  void SetVirtualScale(const std::string& table, double scale)
      EXCLUDES(stats_mu_);
  double virtual_scale(const std::string& table) const EXCLUDES(stats_mu_);

  /// Mirror every table as objects in the cloud object store so storage
  /// rent accrues (one object per row group, Parquet-file style).
  void SyncToObjectStore(CloudEnv* env) const;

  /// Block-manifest summary of a persistent table (levels, runs, blocks,
  /// bytes, flush/compaction counts). NotFound for unknown tables,
  /// InvalidArgument for RAM-resident ones — the catalog is the only way
  /// service-layer code observes the block layout (docs/STORAGE.md).
  Result<BlockManifestSummary> GetBlockManifest(const std::string& name)
      const;

  /// Materialized views (registered by the background tuner).
  void RegisterMaterializedView(MaterializedViewInfo info);
  const std::vector<MaterializedViewInfo>& materialized_views() const {
    return mvs_;
  }

  std::vector<std::string> TableNames() const;

 private:
  /// Error factor / virtual scale for `table`; caller holds stats_mu_
  /// (the public accessors lock and delegate — the cache-fill paths call
  /// these while already holding the non-recursive lock).
  double StatsErrorFactorLocked(const std::string& table) const
      REQUIRES(stats_mu_);
  double VirtualScaleLocked(const std::string& table) const
      REQUIRES(stats_mu_);

  std::map<std::string, std::shared_ptr<Table>> tables_;
  /// Guards the lazily memoized served-stats maps below: concurrent
  /// planners (sessions planning on several threads) race on the
  /// first GetStats for a table otherwise, and the error/scale knobs are
  /// flipped mid-run by experiments. Returned pointers stay valid
  /// without the lock — map nodes are stable and entries are only erased
  /// by catalog mutations, which don't run concurrently with planning.
  mutable Mutex stats_mu_;
  mutable std::map<std::string, TableStats> stats_
      GUARDED_BY(stats_mu_);  // served copies
  mutable std::map<std::string, TableStats> true_served_
      GUARDED_BY(stats_mu_);  // scaled truth
  std::map<std::string, TableStats> true_stats_;  // as analyzed
  std::map<std::string, double> error_factors_ GUARDED_BY(stats_mu_);
  std::map<std::string, double> virtual_scales_ GUARDED_BY(stats_mu_);
  std::vector<MaterializedViewInfo> mvs_;
};

}  // namespace costdb
