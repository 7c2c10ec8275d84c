#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/billing.h"
#include "cloud/object_store.h"
#include "common/annotated_mutex.h"
#include "cloud/pricing.h"
#include "cost/calibration_updater.h"
#include "exec/engine.h"
#include "exec/sharded_engine.h"
#include "runtime/elastic_controller.h"
#include "runtime/policies.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "service/stamped_cache.h"
#include "sim/harness.h"
#include "storage/persistent.h"

namespace costdb {

/// Production-shaped billing knobs, applied per tenant when sessions
/// settle through Database::SettleTenantBill.
struct TenantPricingOptions {
  /// Tiered volume price over a tenant's *cumulative* compute
  /// machine-seconds (cloud/pricing.h): the first N seconds at one rate,
  /// the next cheaper, ... Empty = flat pricing at the node price — the
  /// pre-tenancy behavior, byte for byte.
  TieredSchedule compute_second_tiers;
  /// A result-cache hit is billed this fraction of the query's estimated
  /// cost (serving bytes from memory, not running the plan).
  double result_cache_hit_factor = 0.05;
};

struct DatabaseOptions {
  /// Morsel parallelism of one local query (one local "node"): at most
  /// exec_threads helpers from the process-wide pool run its morsels.
  size_t exec_threads = 8;
  /// Morsel parallelism inside each ShardedEngine worker (workers
  /// themselves come from the plan's resolved UserConstraint::workers
  /// knob).
  size_t sharded_threads_per_worker = 1;
  /// How sharded exchanges move partitions between workers: the in-process
  /// pass-through, or serialized through the checksummed wire format over
  /// a real socketpair (docs/TRANSPORT.md). The socket transport makes
  /// measured exchange times contain real serialization + link cost, the
  /// calibration's link group learns the link terms from them, and moved
  /// wire bytes are billed at the egress rate.
  TransportKind exchange_transport = TransportKind::kInProcess;
  /// Cap on UserConstraint::workers == 0 auto-resolution and on explicit
  /// worker requests routed to the sharded backend.
  size_t max_workers = 16;
  /// Cost-aware admission for asynchronously submitted queries
  /// (Session::Submit).
  AdmissionOptions admission;
  /// Shared result cache keyed by (statement shape, constraint, bound
  /// parameter vector): a hot repeated statement costs one execution, and
  /// every later identical submit is served the materialized rows.
  /// Entries are stamped with the calibration version and the layout
  /// versions of every scanned table; any drift misses. Single-flighted
  /// like the plan cache: N concurrent identical submits run the plan
  /// once. Off by default — results can be large and callers must opt
  /// into staleness-by-version semantics.
  bool enable_result_cache = false;
  /// LRU capacity of the result cache (entries, not bytes).
  size_t result_cache_max_entries = 256;
  /// Byte budget over the cached results' payloads (ChunkPayloadBytes);
  /// 0 = unbounded. Evicts least-recently-used entries until under
  /// budget, on top of the entry cap — a handful of huge results can no
  /// longer pin the cache at "only 256 entries" of arbitrary memory.
  size_t result_cache_max_bytes = 0;
  /// Persistent block storage (docs/STORAGE.md): when true the facade owns
  /// a byte-backed SimulatedObjectStore plus a shared cost-priced
  /// BlockCache, and PersistTable() attaches an LSM-lite block tier to
  /// catalog tables — scans of persisted tables then page cold blocks
  /// through the cache, paying (and billing) real GET fees.
  bool enable_persistent_storage = false;
  /// Byte budget of the shared BlockCache, charged in plain (decoded)
  /// column bytes.
  size_t block_cache_bytes = 64u << 20;
  /// Directory for the object store's byte-backed spill files; empty picks
  /// a per-instance directory under the system temp path.
  std::string storage_spill_dir;
  /// Per-tenant billing shape (tiered volume pricing, cache-hit rate).
  TenantPricingOptions pricing;
  /// Feed every execution's profile back into the hardware calibration
  /// (the paper's calibration loop).
  bool enable_calibration = true;
  /// Elastic sharded execution: when true, every sharded run (resolved
  /// workers > 1) consults an ElasticController at fragment boundaries —
  /// a fresh PipelineDopMonitor per query proposes widths from observed
  /// fragment timings, admission queue pressure gates growth, and the
  /// calibrated shuffle + spin-up terms veto net-negative resizes. Off by
  /// default: fixed-width runs stay exactly as planned.
  bool enable_elastic = false;
  BiObjectiveOptions optimizer;
};

/// Everything one run hands back (Session::Execute, Session::ExecuteSql,
/// QueryHandle::Take): the run's ExecProfile (the engine fills this base
/// directly; docs/STORAGE.md explains the storage counters), plus the
/// rows, the plan that produced them, what the run was billed, and what
/// the calibration feedback loop learned from it.
struct ExecutionResult : ExecProfile {
  QueryResult result;
  std::shared_ptr<const PlannedQuery> plan;
  bool plan_cache_hit = false;
  /// Rows came from the shared result cache — no engine ran, the profile
  /// is empty, and the billing layer charges the cache rate instead of the
  /// execution estimate.
  bool result_cache_hit = false;
  CalibrationReport calibration;
  /// Width of the backend that executed (> 1: the sharded engine).
  size_t workers = 1;
  /// Sharded runs only: the dollars the cloud billing layer charged for
  /// `usage` at the facade's node price. Session ledgers settle to it, so
  /// elastic runs are billed what they actually held.
  Dollars billed_dollars = 0.0;
  /// Sharded runs over a serializing transport only: the egress-style fee
  /// on the wire bytes the run's exchanges serialized
  /// (PricingCatalog::egress_per_gib; 0 for in-process runs, which move
  /// no wire bytes).
  Dollars egress_dollars = 0.0;
  /// Elastic runs only: every width decision the controller recorded.
  std::vector<ElasticController::Decision> elastic;
};

/// The single front door of the query stack (the unified architecture the
/// paper argues for): one object owning the catalog, the optimizer pass
/// pipeline, the shared cost estimator, and both execution backends —
/// LocalEngine for real rows, DistributedSimulator for cloud cost
/// simulation. Clients run queries through a Session (service/session.h)
/// over this shared facade. Only Session can run a plan, and its one run
/// step executes, calibrates (unless asked not to) and settles the
/// tenant's bill, so no real run goes unbilled. Direct binder/planner
/// wiring is an optimizer-internal detail.
///
/// The facade also closes the loop the seed left open: after each
/// execution, the run's profile flows through a CalibrationUpdater into
/// the HardwareCalibration that the shared CostEstimator reads, so cost
/// estimates tighten as the system runs.
class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());

  // -- Components (shared, calibrated, single-instance) ------------------
  MetadataService* meta() { return &meta_; }
  const MetadataService& meta() const { return meta_; }
  QueryService* query_service() { return query_service_.get(); }
  CostEstimator* estimator() { return estimator_.get(); }
  const CostEstimator* estimator() const { return estimator_.get(); }
  HardwareCalibration* hardware() { return &hw_; }
  const HardwareCalibration& hardware() const { return hw_; }
  const InstanceType& node_type() const { return node_; }
  DistributedSimulator* simulator() { return simulator_.get(); }

  // -- Planning ----------------------------------------------------------
  /// Lex + parse + bind only: resolves names/types against the catalog
  /// without planning or touching the cache. Errors are kInvalidArgument
  /// for malformed SQL and unknown names.
  Result<BoundQuery> BindSql(const std::string& sql) const;

  /// Plan through the pass pipeline and the plan cache. Cache entries are
  /// keyed by (statement shape, constraint) and stamped with the
  /// calibration version they were planned under; a lookup whose stamp
  /// predates the current version replans instead of returning a stale
  /// plan (see calibration_version()). The returned plan is immutable and
  /// shared — callers must not mutate it.
  Result<PlannedQuery> PlanSql(const std::string& sql,
                               const UserConstraint& constraint);

  /// Cache-aware planning returning the shared immutable plan (the form
  /// Session executes). `cache_hit` reports whether the shape-keyed cache
  /// served the plan.
  Result<std::shared_ptr<const PlannedQuery>> PlanCachedSql(
      const std::string& sql, const UserConstraint& constraint,
      bool* cache_hit);

  // -- Calibration, admission and bills ----------------------------------
  /// Fold one executed result's profile into the calibration (serialized
  /// internally; a no-op when options.enable_calibration is off). Session
  /// calls it after every run it was not told to skip
  /// (Session::SubmitOptions::calibrate); the report is computed once here
  /// and stored on the result.
  void CalibrateExecution(ExecutionResult* executed);

  /// The shared cost-aware admission controller behind Session::Submit.
  AdmissionController* admission() { return admission_.get(); }

  /// Snapshot of the facade's cloud bill for real sharded executions:
  /// every run is charged its measured worker-seconds (elastic runs at
  /// the widths they actually held) at the node price. Simulated runs
  /// bill their own CloudEnv, not this meter.
  BillingMeter billing_snapshot() const;

  /// Cumulative bill of one tenant: every run a Session completes settles
  /// into it.
  struct TenantBill {
    double machine_seconds = 0.0;  // compute consumption billed so far
    Dollars dollars = 0.0;
    size_t runs = 0;
    size_t result_cache_hits = 0;
    /// Cold-read traffic this tenant's scans caused: block-cache misses
    /// and the object-store GET fees attributed on top of compute.
    int64_t storage_gets = 0;
    Dollars storage_get_dollars = 0.0;
  };

  /// Per-tenant bill snapshot. Tenants only appear once they settle a
  /// run; disjoint sessions spend into disjoint entries (no cross-tenant
  /// bleed, by construction — tested in tenant_test).
  std::map<std::string, TenantBill> tenant_billing() const;

  // -- Persistent storage tier (docs/STORAGE.md) -------------------------
  /// Attach the facade's persistent block tier to a registered table:
  /// currently resident rows flush into level-0 runs, later appends
  /// auto-flush past the memtable threshold and re-evaluate costed
  /// compaction. NotSupported unless
  /// DatabaseOptions::enable_persistent_storage; NotFound for unknown
  /// tables; AlreadyExists when the table is already persistent.
  Status PersistTable(const std::string& name);

  /// Run one costed compaction round on a persisted table (`force` merges
  /// the best candidate even at negative modeled net). Returns whether a
  /// merge happened; on a merge the table's layout_version() bumps, so
  /// cached plans and results invalidate on their next lookup.
  Result<bool> CompactTable(const std::string& name, bool force = false);

  /// The facade's byte-backed object store / shared block cache (nullptr
  /// unless options.enable_persistent_storage initialized them).
  SimulatedObjectStore* storage_store() { return storage_store_.get(); }
  const SimulatedObjectStore* storage_store() const {
    return storage_store_.get();
  }
  BlockCache* block_cache() { return block_cache_.get(); }

  /// Object-store request fees billed so far through
  /// SettleStorageRequests.
  struct StorageBilling {
    int64_t gets = 0;
    int64_t puts = 0;
    Dollars dollars = 0.0;
  };

  /// Charge the object store's request-counter growth since the last
  /// settle to the facade bill (flat labels "storage:get"/"storage:put" at
  /// the pricing catalog's per-request rates). After a settle,
  /// storage_billing()'s counters equal the store's own request counters
  /// exactly — the dollar-conservation invariant bench_e17_storage gates.
  StorageBilling SettleStorageRequests();
  StorageBilling storage_billing() const;

  /// Egress-style fees charged for exchange wire bytes so far. Dollar
  /// conservation: `dollars` always equals `wire_bytes / GiB x
  /// pricing.egress_per_gib` of the runs it covers — the invariant
  /// bench_e18_transport gates.
  struct EgressBilling {
    double wire_bytes = 0.0;
    Dollars dollars = 0.0;
    size_t runs = 0;  // sharded runs that moved wire bytes
  };
  EgressBilling egress_billing() const;

  // -- Simulation backend ------------------------------------------------
  /// Bind + plan + derive ground-truth volumes for the simulator. This
  /// is the experiment-harness entry: the prepared query carries both
  /// the estimator's guesses and the derived true volumes, so benches
  /// can compare them.
  Result<PreparedQuery> Prepare(const std::string& sql,
                                const UserConstraint& constraint);

  /// Simulate a query's distributed execution without touching real
  /// rows; `policy`/`env` optional (static DOPs on a fresh CloudEnv by
  /// default). The returned dollars are exactly this query's simulated
  /// bill; when `env` is provided the charge also lands on its billing
  /// ledger. Simulation never feeds the calibration loop — only real
  /// executions do.
  Result<SimResult> SimulateSql(const std::string& sql,
                                const UserConstraint& constraint,
                                ResizePolicy* policy = nullptr,
                                CloudEnv* env = nullptr);

  // -- Calibration loop --------------------------------------------------
  const CalibrationUpdater& calibration() const { return *calibration_; }
  /// Bumped whenever a feedback round moves some term group by more than
  /// kRecalibrationThreshold (relative). Cached plans carry the
  /// version they were planned under; any entry older than the current
  /// version is invalidated lazily on its next lookup, so estimates that
  /// drifted materially can never serve a stale plan.
  int calibration_version() const { return calibration_version_.load(); }

  // -- Plan and result caches --------------------------------------------
  /// Both caches are StampedCaches and count alike. The plan cache has no
  /// caps and reports no sizes, so its evictions and bytes stay 0; the
  /// result cache's bytes sum ChunkPayloadBytes of the cached rows.
  using CacheStats = StampedCacheStats;
  using ResultCacheStats = StampedCacheStats;
  CacheStats plan_cache_stats() const { return plan_cache_.stats(); }
  void ClearPlanCache() { plan_cache_.Clear(); }
  ResultCacheStats result_cache_stats() const {
    return result_cache_.stats();
  }
  void ClearResultCache() { result_cache_.Clear(); }

  const DatabaseOptions& options() const { return options_; }

 private:
  /// Session alone uses the helpers below. Its charged run is the only
  /// caller of ExecutePlannedCached and SettleTenantBill, so every real
  /// run is charged to a session ledger and settled into a tenant bill.
  friend class Session;

  /// Same as PlanCachedSql, for an already-bound query under an explicit
  /// shape key — the prepared-statement path: Prepare binds once, every
  /// (re)plan goes through here so statements across sessions share cache
  /// entries.
  Result<std::shared_ptr<const PlannedQuery>> PlanCachedBound(
      const BoundQuery& query, const std::string& shape_key,
      const UserConstraint& constraint, bool* cache_hit);

  /// Bind parameter values into a cached prepared plan: deep-copies the
  /// plan tree substituting placeholders, then re-derives only the
  /// cardinality-sensitive terms — volumes from the (now constant)
  /// predicates and the cost estimate at the cached DOP assignment. No
  /// optimizer run. `query` must be the statement's bound query (its
  /// relations drive the cardinality re-estimate).
  Result<PlannedQuery> BindPreparedPlan(const PlannedQuery& cached,
                                        const BoundQuery& query,
                                        const std::vector<Value>& params);

  /// Execute a shared plan — the one execution path, reached only through
  /// Session's charged run. Plans whose resolved worker count is > 1 run
  /// on the partitioned ShardedEngine (results bit-identical for
  /// order-stable plans; the returned ExchangeStats report what the
  /// exchanges moved), the rest on the LocalEngine; both are facade-owned
  /// and reentrant, so concurrent callers share them. With the result
  /// cache enabled and a non-empty `result_key`, a valid cached entry is
  /// served without running anything (result_cache_hit set, rows copied);
  /// a miss executes once under a single-flight guard, so concurrent
  /// identical submits wait for the one leader instead of running the
  /// same plan N times, then publishes the materialized rows for later
  /// submits. No calibration; pair with CalibrateExecution.
  Result<ExecutionResult> ExecutePlannedCached(
      std::shared_ptr<const PlannedQuery> plan, bool cache_hit,
      const std::string& result_key);

  /// Result-cache identity of one executable statement: the plan-cache
  /// key (shape + constraint) extended with the bound parameter vector,
  /// type-tagged so 1 and "1" and 1.0 are distinct keys.
  static std::string ResultKey(const std::string& shape,
                               const UserConstraint& constraint,
                               const std::vector<Value>& params);

  /// Turn one executed result into the dollars the tenant actually owes
  /// and fold it into the tenant's cumulative bill. Result-cache hits are
  /// billed at pricing.result_cache_hit_factor x the reservation; real
  /// runs consume machine-seconds (measured worker-seconds for sharded
  /// runs, summed pipeline wall times for local ones) priced through the
  /// tenant's cumulative position in the tiered schedule — with no tiers
  /// configured, sharded runs settle to the flat cloud bill and local
  /// runs keep their reservation, the pre-tenancy behavior. Returns the
  /// amount the session ledger should settle `reserved` against.
  Dollars SettleTenantBill(const std::string& tenant,
                           ExecutionResult* executed, Dollars reserved);

  /// Plan-cache lookup shared by the SQL and bound planning paths;
  /// `plan_fn` runs only on a miss (under the hardware read lock).
  Result<std::shared_ptr<const PlannedQuery>> PlanCached(
      const std::string& cache_key,
      const std::function<Result<PlannedQuery>()>& plan_fn, bool* cache_hit);

  /// Fold one query's profile into the calibration (under lock) and bump
  /// the calibration version when it moved.
  CalibrationReport Calibrate(const ExecutionResult& executed);

  /// Run a plan on the engine its resolved width picks, which writes its
  /// profile straight into the result, and bill sharded runs.
  Result<ExecutionResult> Execute(std::shared_ptr<const PlannedQuery> plan,
                                  bool cache_hit);

  /// Cache key: normalized statement shape + constraint slot.
  static std::string CacheKey(const std::string& shape,
                              const UserConstraint& constraint);

  DatabaseOptions options_;
  MetadataService meta_;
  HardwareCalibration hw_;
  /// Price list the node shape and the storage request rates come from
  /// (declared before node_: the constructor reads it).
  PricingCatalog pricing_ = PricingCatalog::Default();
  InstanceType node_;
  std::unique_ptr<CostEstimator> estimator_;
  std::unique_ptr<QueryService> query_service_;
  std::unique_ptr<DistributedSimulator> simulator_;
  std::unique_ptr<CalibrationUpdater> calibration_;

  /// The facade's two engines. Both are reentrant (every per-run datum
  /// lives in the call's ExecProfile) and run their morsels on the
  /// process-wide thread pool, so every query shares them without a lock
  /// and no query builds an engine or a thread.
  LocalEngine local_engine_;
  ShardedEngine sharded_engine_;

  /// Persistent tier (options.enable_persistent_storage): built in the
  /// constructor, const thereafter — execution threads read the raw
  /// pointers without a lock. Catalog tables keep these raw pointers
  /// inside their TableStorage facades; that is safe across teardown
  /// because ~TableStorage never touches the store or cache, and no query
  /// can be running by then (admission_ is declared last and drains
  /// first).
  std::unique_ptr<BlockCache> block_cache_;
  std::unique_ptr<SimulatedObjectStore> storage_store_;
  /// Why the persistent tier is unavailable (spill-dir creation failed);
  /// OK when available or never requested.
  Status storage_env_status_;

  /// Real-execution cloud bill (sharded worker-seconds); own lock so
  /// concurrent runs charge it without contending on anything else.
  mutable Mutex billing_mu_;
  BillingMeter billing_ GUARDED_BY(billing_mu_);
  /// Monotone start offset for usage records.
  Seconds billing_clock_ GUARDED_BY(billing_mu_) = 0.0;
  /// Request counters already charged by SettleStorageRequests (the next
  /// settle bills only the delta).
  StorageBilling storage_billed_ GUARDED_BY(billing_mu_);
  /// Egress fees charged for exchange wire bytes so far.
  EgressBilling egress_billed_ GUARDED_BY(billing_mu_);

  /// Per-tenant cumulative bills; own lock so settling never contends
  /// with engines or caches.
  mutable Mutex tenant_mu_;
  std::map<std::string, TenantBill> tenant_billing_ GUARDED_BY(tenant_mu_);

  /// Readers (planning, simulation) take it shared; the calibration
  /// writer takes it exclusive — the estimator reads hw_ on every
  /// estimate, so planning must not overlap an update.
  SharedMutex hw_mu_;
  /// Bumped by Calibrate; both caches stamp their entries with it and
  /// read it under their own lock on every lookup.
  std::atomic<int> calibration_version_{0};

  /// Plans keyed by (statement shape, constraint); no caps.
  StampedCache<PlannedQuery> plan_cache_{&calibration_version_};
  /// Materialized rows keyed by ResultKey, under the LRU caps of
  /// DatabaseOptions (the entry cap is at least 1).
  StampedCache<QueryResult> result_cache_;

  /// Declared last: admission workers run closures that touch the members
  /// above, so the controller must be torn down (drained) first.
  std::unique_ptr<AdmissionController> admission_;
};

}  // namespace costdb
