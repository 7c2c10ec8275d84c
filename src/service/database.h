#pragma once

#include <condition_variable>
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
  /// Morsel workers per executed query (one local "node").
  size_t exec_threads = 8;
  /// Morsel threads inside each ShardedEngine worker (workers themselves
  /// come from the plan's resolved UserConstraint::workers knob).
  size_t sharded_threads_per_worker = 1;
  /// How sharded exchanges move partitions between workers: the in-process
  /// pass-through, or serialized through the checksummed wire format over
  /// a real socketpair (docs/TRANSPORT.md). The socket transport makes
  /// measured exchange times contain real serialization + link cost, the
  /// calibration learns the link terms from them (ObserveTransport), and
  /// moved wire bytes are billed at the egress rate.
  TransportKind exchange_transport = TransportKind::kInProcess;
  /// Where sharded fragments execute: LocalEngines on a thread pool, or
  /// forked worker processes whose results return serialized over
  /// sockets. Results are bit-identical across both for order-stable
  /// plans.
  WorkerMode worker_mode = WorkerMode::kThreads;
  /// Cap on UserConstraint::workers == 0 auto-resolution and on explicit
  /// worker requests routed to the sharded backend.
  size_t max_workers = 16;
  /// Concurrently executing queries in the admission controller (and so
  /// in SubmitBatch, which rides on it). Overridden by
  /// admission.max_concurrent when that is non-zero.
  size_t batch_threads = 4;
  /// Cost-aware admission for asynchronously submitted queries
  /// (Session::Submit); max_concurrent == 0 inherits batch_threads.
  AdmissionOptions admission;
  /// Cache bound+optimized plans keyed by (statement shape, constraint);
  /// invalidated when the calibration moves materially. The shape is the
  /// normalized token stream (sql/shape.h), so whitespace and keyword
  /// case do not fragment the cache, and prepared statements share one
  /// entry across all parameter values.
  bool enable_plan_cache = true;
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
  /// Lock shards of the facade's serial execution engines: tenants hash
  /// onto shards, so one tenant's serial query never queues behind
  /// another tenant's engine lock.
  size_t engine_shards = 4;
  /// Persistent block storage (docs/STORAGE.md): when true the facade owns
  /// a byte-backed SimulatedObjectStore plus a shared cost-priced
  /// BlockCache, and PersistTable() attaches an LSM-lite block tier to
  /// catalog tables — scans of persisted tables then page cold blocks
  /// through the cache, paying (and billing) real GET fees.
  bool enable_persistent_storage = false;
  /// Byte budget of the shared BlockCache, charged in encoded column bytes.
  size_t block_cache_bytes = 64u << 20;
  /// Directory for the object store's byte-backed spill files; empty picks
  /// a per-instance directory under the system temp path.
  std::string storage_spill_dir;
  /// LSM-lite layout knobs shared by every persisted table (flush
  /// threshold, level fanout, compaction horizon).
  StorageOptions storage;
  /// Per-tenant billing shape (tiered volume pricing, cache-hit rate).
  TenantPricingOptions pricing;
  /// Feed executed-pipeline wall times back into the hardware calibration
  /// after every local execution (the paper's calibration loop).
  bool enable_calibration = true;
  CalibrationUpdaterOptions calibration;
  /// Relative calibration movement that invalidates cached plans.
  double recalibration_threshold = 0.05;
  /// Elastic sharded execution: when true, every sharded run (resolved
  /// workers > 1) consults an ElasticController at fragment boundaries —
  /// a fresh PipelineDopMonitor per query proposes widths from observed
  /// fragment timings, admission queue pressure gates growth, and the
  /// calibrated shuffle + spin-up terms veto net-negative resizes. Off by
  /// default: fixed-width runs stay exactly as planned.
  bool enable_elastic = false;
  ElasticControllerOptions elastic;
  /// Monitor thresholds for the per-query elastic policy.
  DopMonitorOptions elastic_monitor;
  BiObjectiveOptions optimizer;
  SimOptions sim;
};

/// One query of a concurrent batch.
struct QueryRequest {
  std::string sql;
  UserConstraint constraint;
};

/// Everything ExecuteSql hands back: rows, the plan that produced them,
/// and what the calibration feedback loop learned from the run.
struct ExecutionResult {
  QueryResult result;
  std::shared_ptr<const PlannedQuery> plan;
  bool plan_cache_hit = false;
  /// Rows came from the shared result cache — no engine ran, timings are
  /// empty, and the billing layer charges the cache rate instead of the
  /// execution estimate.
  bool result_cache_hit = false;
  std::vector<PipelineTiming> timings;
  CalibrationReport calibration;
  /// Sharded runs only: which backend width executed and what the
  /// exchanges moved (the feedback signal of the shuffle-term
  /// calibration; empty timings on LocalEngine runs).
  size_t workers = 1;
  ExchangeStats exchange;
  /// Which morsels ran through the fused-kernel tier the fuse_kernels pass
  /// annotated (summed over workers on sharded runs), including runtime
  /// fallbacks and the wall time spent inside fused kernels — the feedback
  /// signal of the fused-term calibration.
  FusedExecStats fused;
  /// Block-cache traffic of the run's scans (all-zero unless a scanned
  /// table has persistent storage attached): cold-read wall time feeds the
  /// storage-term calibration, and the GET fees feed per-tenant billing.
  /// See docs/STORAGE.md for how to read the counters.
  BlockCacheStats storage;
  /// Sharded runs only: the worker-second ledger of the run (per-width
  /// segments for elastic runs) and the dollars the cloud billing layer
  /// charged for it at the facade's node price. Session ledgers settle to
  /// `billed_dollars` so elastic runs are billed what they actually held.
  WorkerUsage usage;
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
/// simulation. Every example, bench, and client enters here; direct
/// binder/planner wiring is an optimizer-internal detail.
///
/// The facade also closes the loop the seed left open: after each local
/// execution, per-pipeline wall times flow through a CalibrationUpdater
/// into the HardwareCalibration that the shared CostEstimator reads, so
/// cost estimates tighten as the system runs.
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

  /// Plan through the pass pipeline, honoring the plan cache when
  /// enabled. Cache entries are keyed by (statement shape, constraint)
  /// and stamped with the calibration version they were planned under; a
  /// lookup whose stamp predates the current version replans instead of
  /// returning a stale plan (see calibration_version()). The returned
  /// plan is immutable and shared — callers must not mutate it.
  Result<PlannedQuery> PlanSql(const std::string& sql,
                               const UserConstraint& constraint);

  /// Cache-aware planning returning the shared immutable plan (the form
  /// Session executes). `cache_hit` reports whether the shape-keyed cache
  /// served the plan.
  Result<std::shared_ptr<const PlannedQuery>> PlanCachedSql(
      const std::string& sql, const UserConstraint& constraint,
      bool* cache_hit);

  /// Same, for an already-bound query under an explicit shape key — the
  /// prepared-statement path: Prepare binds once, every (re)plan goes
  /// through here so statements across sessions share cache entries.
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

  // -- Local execution backend -------------------------------------------
  /// Parse -> bind -> optimize -> execute -> calibrate, in one call.
  /// Runs on the vectorized LocalEngine and returns real rows plus the
  /// plan that produced them, per-pipeline wall timings, and what the
  /// calibration feedback round did (a no-op report when
  /// options.enable_calibration is false). Serial ExecuteSql calls use
  /// one long-lived engine under a lock; concurrent callers should use
  /// SubmitBatch. Any bind/plan/execution failure returns the error and
  /// leaves calibration untouched.
  Result<ExecutionResult> ExecuteSql(
      const std::string& sql,
      const UserConstraint& constraint = UserConstraint());

  /// Execute a shared plan on the facade's serial engine (or on `engine`
  /// when given — concurrent callers pass their own). Plans whose
  /// resolved worker count is > 1 run on the partitioned ShardedEngine
  /// instead (results bit-identical for order-stable plans; the returned
  /// ExchangeStats report what the exchanges moved). No calibration;
  /// pair with CalibrateExecution. This is Session's synchronous
  /// execution primitive.
  Result<ExecutionResult> ExecutePlanned(
      std::shared_ptr<const PlannedQuery> plan, bool cache_hit,
      LocalEngine* engine = nullptr, const std::string& tenant = {});

  /// Execute a shared plan with the result pipeline streaming into
  /// `sink` (exec/engine.h) instead of materializing rows. The returned
  /// ExecutionResult carries the plan, timings, and an empty result chunk
  /// whose names/types describe the streamed schema. `engine` is
  /// required: streaming callers run concurrently by construction.
  Result<ExecutionResult> ExecutePlannedToSink(
      std::shared_ptr<const PlannedQuery> plan, bool cache_hit,
      ChunkSink* sink, LocalEngine* engine, const std::string& tenant = {});

  /// Execute through the shared result cache (Session's execution
  /// primitive). With the cache disabled or `result_key` empty this is
  /// exactly ExecutePlanned / ExecutePlannedToSink (sink != nullptr picks
  /// the streaming form). Otherwise: a valid cached entry is served
  /// without running anything (result_cache_hit set, rows copied — to
  /// `sink` when streaming); a miss executes once under a single-flight
  /// guard, so concurrent identical submits wait for the one leader
  /// instead of running the same plan N times, then publishes the
  /// materialized rows for later submits.
  Result<ExecutionResult> ExecutePlannedCached(
      std::shared_ptr<const PlannedQuery> plan, bool cache_hit,
      const std::string& result_key, ChunkSink* sink, LocalEngine* engine,
      const std::string& tenant);

  /// Result-cache identity of one executable statement: the plan-cache
  /// key (shape + constraint) extended with the bound parameter vector,
  /// type-tagged so 1 and "1" and 1.0 are distinct keys.
  static std::string ResultKey(const std::string& shape,
                               const UserConstraint& constraint,
                               const std::vector<Value>& params);

  /// Fold one executed result's timings into the calibration (serialized
  /// internally; a no-op when options.enable_calibration is off). The
  /// single feedback implementation shared by ExecuteSql, Session, and
  /// the SubmitBatch shim — the report is computed once here and stored
  /// on the result, never recomputed per worker.
  void CalibrateExecution(ExecutionResult* executed);

  /// The shared cost-aware admission controller behind Session::Submit
  /// and SubmitBatch.
  AdmissionController* admission() { return admission_.get(); }

  /// Snapshot of the facade's cloud bill for real sharded executions:
  /// every run is charged its measured worker-seconds (elastic runs at
  /// the widths they actually held) at the node price. Simulated runs
  /// bill their own CloudEnv, not this meter.
  BillingMeter billing_snapshot() const;

  /// Cumulative bill of one tenant, as settled by SettleTenantBill.
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

  /// Execute a batch concurrently through the admission controller, as a
  /// thin deterministic shim over the Session API. Planning stays serial
  /// and in request order (deterministic cache hit/miss pattern), the
  /// calibration feedback round is serialized in request order after the
  /// batch drains, and per-query results line up index-for-index with
  /// `requests`. One query's failure does not abort the rest.
  std::vector<Result<ExecutionResult>> SubmitBatch(
      const std::vector<QueryRequest>& requests);

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
  /// Bumped whenever a feedback round moves the calibration by more than
  /// options.recalibration_threshold (relative). Cached plans carry the
  /// version they were planned under; any entry older than the current
  /// version is invalidated lazily on its next lookup, so estimates that
  /// drifted materially can never serve a stale plan.
  int calibration_version() const {
    // Locked read: Calibrate bumps the version concurrently with running
    // queries, and a torn/stale read here would let a racing lookup serve
    // a plan priced under a calibration the reader believes is current.
    MutexLock lock(cache_mu_);
    return calibration_version_;
  }

  // -- Plan cache --------------------------------------------------------
  struct CacheStats {
    size_t hits = 0;
    size_t misses = 0;
    size_t invalidations = 0;
    size_t entries = 0;
  };
  CacheStats plan_cache_stats() const;
  void ClearPlanCache();

  // -- Result cache ------------------------------------------------------
  struct ResultCacheStats {
    size_t hits = 0;
    size_t misses = 0;
    size_t invalidations = 0;  // stale entries dropped on lookup
    size_t evictions = 0;      // LRU capacity evictions
    size_t entries = 0;
    size_t bytes = 0;  // cached payload bytes (ChunkPayloadBytes sum)
  };
  ResultCacheStats result_cache_stats() const;
  void ClearResultCache();

  const DatabaseOptions& options() const { return options_; }

 private:
  struct CacheEntry {
    std::shared_ptr<const PlannedQuery> plan;
    int calibration_version = 0;
    /// Layout versions of every table the plan scans, captured at plan
    /// time. A hit whose tables have physically changed (append,
    /// recluster, repartition) replans instead of serving a plan whose
    /// pruning fractions or co-partitioned exchanges describe data that
    /// moved.
    std::vector<std::pair<std::shared_ptr<Table>, uint64_t>> table_layouts;
  };

  /// Single-flight marker: one optimizer run per missed shape, with
  /// concurrent misses waiting on the planner instead of duplicating it.
  struct PlanInFlight {
    std::condition_variable_any cv;
    /// Guarded by the owning Database's cache_mu_ (not annotatable here:
    /// the analysis cannot express a member guarded by another object's
    /// mutex; waiters access it only under that lock).
    bool done = false;
  };

  /// Cache lookup + fill shared by the SQL and bound planning paths;
  /// `plan_fn` runs only on a miss (under the hardware read lock).
  Result<std::shared_ptr<const PlannedQuery>> PlanCachedImpl(
      const std::string& cache_key,
      const std::function<Result<PlannedQuery>()>& plan_fn, bool* cache_hit);

  /// Serialize one query's timings into the calibration (under lock).
  /// LocalEngine runs feed the pipeline-time loop; sharded runs feed the
  /// measured exchange timings into the shuffle-term loop.
  CalibrationReport Calibrate(const ExecutionResult& executed);

  /// Sharded execution backend: serial callers reuse the tenant shard's
  /// cached engine under its lock, concurrent (`serial == false`) callers
  /// build their own.
  Result<ExecutionResult> ExecuteSharded(
      std::shared_ptr<const PlannedQuery> plan, bool cache_hit,
      size_t workers, bool serial, const std::string& tenant);

  /// ExecutePlanned with the concurrency decision explicit: `concurrent`
  /// callers never serialize a sharded run on the tenant shard's engine —
  /// the result-cache leader on the async path needs materialized rows
  /// *and* private-engine concurrency, which the public signatures can't
  /// both express.
  Result<ExecutionResult> ExecuteMaterialized(
      std::shared_ptr<const PlannedQuery> plan, bool cache_hit,
      LocalEngine* engine, const std::string& tenant, bool concurrent);

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

  /// One lock shard of the serial execution engines. Engine timings are
  /// per-run state, so access within a shard is exclusive; sharding by
  /// tenant means tenants hashed to different shards never contend for a
  /// serial engine. Engines are built lazily — a shard no tenant executes
  /// on spawns no thread pools. Concurrent (sink/batch) callers build
  /// their own engines and never touch a shard.
  struct EngineShard {
    Mutex mu;
    std::unique_ptr<LocalEngine> engine GUARDED_BY(mu);  // lazy
    /// Sharded backends, one per requested worker count (bounded by the
    /// few widths a deployment uses).
    std::map<size_t, std::unique_ptr<ShardedEngine>> sharded GUARDED_BY(mu);
  };
  EngineShard& ShardFor(const std::string& tenant);
  std::vector<std::unique_ptr<EngineShard>> engine_shards_;

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

  /// Real-execution cloud bill (sharded worker-seconds); own lock so the
  /// concurrent (sink) execution path can charge without the engine lock.
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

  mutable Mutex cache_mu_;
  std::map<std::string, CacheEntry> plan_cache_ GUARDED_BY(cache_mu_);
  std::map<std::string, std::shared_ptr<PlanInFlight>> planning_
      GUARDED_BY(cache_mu_);
  CacheStats cache_stats_ GUARDED_BY(cache_mu_);

  /// One materialized result, stamped like a plan-cache entry: served
  /// only while the calibration version and every scanned table's layout
  /// version still match.
  struct ResultCacheEntry {
    std::shared_ptr<const QueryResult> result;
    int calibration_version = 0;
    std::vector<std::pair<std::shared_ptr<Table>, uint64_t>> table_layouts;
    uint64_t last_used = 0;        // LRU tick
    double payload_bytes = 0.0;    // ChunkPayloadBytes of the cached rows
  };
  /// Result cache + its single-flight markers; guarded by cache_mu_ like
  /// the plan cache (lookups are map probes, never executions).
  std::map<std::string, ResultCacheEntry> result_cache_ GUARDED_BY(cache_mu_);
  std::map<std::string, std::shared_ptr<PlanInFlight>> result_flights_
      GUARDED_BY(cache_mu_);
  ResultCacheStats result_cache_stats_ GUARDED_BY(cache_mu_);
  uint64_t result_cache_tick_ GUARDED_BY(cache_mu_) = 0;
  /// Payload bytes currently held by result_cache_ (the byte-budget
  /// eviction's ledger; mirrors the sum of entry payload_bytes).
  double result_cache_bytes_ GUARDED_BY(cache_mu_) = 0.0;

  /// Readers (planning, simulation) take it shared; the calibration
  /// writer takes it exclusive — the estimator reads hw_ on every
  /// estimate, so planning must not overlap an update.
  SharedMutex hw_mu_;
  /// Bumped by Calibrate under cache_mu_ (it stamps cache entries), so it
  /// shares that guard rather than hw_mu_.
  int calibration_version_ GUARDED_BY(cache_mu_) = 0;

  Mutex batch_mu_;

  /// Declared last: admission workers run closures that touch the members
  /// above, so the controller must be torn down (drained) first.
  std::unique_ptr<AdmissionController> admission_;
};

}  // namespace costdb
