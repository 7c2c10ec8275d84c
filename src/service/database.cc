#include "service/database.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>

#include "common/table_printer.h"
#include "optimizer/cardinality.h"
#include "sql/shape.h"

namespace costdb {

Database::Database(DatabaseOptions options)
    : options_(options),
      node_(pricing_.default_node()),
      local_engine_(options_.exec_threads),
      sharded_engine_(ShardedEngineOptions{options_.sharded_threads_per_worker,
                                           options_.exchange_transport}),
      result_cache_(&calibration_version_,
                    {std::max<size_t>(1, options_.result_cache_max_entries),
                     options_.result_cache_max_bytes}) {
  // One worker-count cap end to end: the optimizer's 0-auto resolution
  // honors the facade's limit.
  options_.optimizer.max_workers =
      static_cast<int>(std::max<size_t>(1, options_.max_workers));
  // The cost model must price exchanges for the transport the engine will
  // actually use: over a serializing transport, shuffle/broadcast/gather
  // estimates gain the calibrated link terms (cost/calibration.h).
  hw_.exchange_transport = options_.exchange_transport == TransportKind::kSocket
                               ? LinkTransport::kSocket
                               : LinkTransport::kInProcess;
  estimator_ = std::make_unique<CostEstimator>(&hw_, &node_);
  query_service_ = std::make_unique<QueryService>(&meta_, estimator_.get(),
                                                  options_.optimizer);
  simulator_ = std::make_unique<DistributedSimulator>(estimator_.get());
  calibration_ = std::make_unique<CalibrationUpdater>(&hw_);
  if (options_.enable_persistent_storage) {
    // The whole tier is built here and never reassigned: execution threads
    // read storage_store_/block_cache_ raw, so late initialization would
    // need a lock on every scan.
    std::string dir = options_.storage_spill_dir;
    if (dir.empty()) {
      // Per-instance default under the system temp path; two facades in
      // one process must not interleave spill files.
      std::ostringstream name;
      name << "costdb-spill-" << static_cast<const void*>(this);
      std::error_code ec;
      auto base = std::filesystem::temp_directory_path(ec);
      dir = (ec ? std::filesystem::path(".") : base) / name.str();
    }
    auto store = std::make_unique<SimulatedObjectStore>(&pricing_);
    storage_env_status_ = store->EnableSpill(dir);
    if (storage_env_status_.ok()) {
      block_cache_ =
          std::make_unique<BlockCache>(options_.block_cache_bytes);
      storage_store_ = std::move(store);
    }
  }
  admission_ = std::make_unique<AdmissionController>(options_.admission);
}

Status Database::PersistTable(const std::string& name) {
  if (!options_.enable_persistent_storage) {
    return Status::NotSupported(
        "persistent storage is disabled "
        "(DatabaseOptions::enable_persistent_storage)");
  }
  COSTDB_RETURN_NOT_OK(storage_env_status_);
  std::shared_ptr<Table> table;
  COSTDB_ASSIGN_OR_RETURN(table, meta_.GetTable(name));
  if (table->persistent()) {
    return Status::AlreadyExists("table '" + name +
                                 "' already has persistent storage");
  }
  std::vector<LogicalType> types;
  types.reserve(table->columns().size());
  for (const auto& c : table->columns()) types.push_back(c.type);
  // The pricing supplier snapshots the calibrated storage terms under the
  // hardware lock each time the storage layer prices a miss, an admission,
  // or a compaction — so cache and compaction economics track calibration
  // movement without storage ever reaching into cost/cloud state.
  auto pricing = [this]() {
    StoragePricing p;
    {
      ReaderMutexLock hw_lock(hw_mu_);
      p.read_gibps = hw_.storage_read_gibps;
      p.get_seconds = hw_.storage_get_seconds;
    }
    p.get_dollars = pricing_.per_1k_get_requests / 1000.0;
    p.put_dollars = pricing_.per_1k_put_requests / 1000.0;
    p.node_dollars_per_second = node_.price_per_second();
    return p;
  };
  auto storage = std::make_shared<TableStorage>(
      name, std::move(types), table->row_group_size(), storage_store_.get(),
      block_cache_.get(), StorageOptions(), std::move(pricing));
  return table->AttachStorage(std::move(storage));
}

Result<bool> Database::CompactTable(const std::string& name, bool force) {
  std::shared_ptr<Table> table;
  COSTDB_ASSIGN_OR_RETURN(table, meta_.GetTable(name));
  if (!table->persistent()) {
    return Status::InvalidArgument("table '" + name +
                                   "' has no persistent storage attached");
  }
  return table->CompactStorage(force);
}

Database::StorageBilling Database::SettleStorageRequests() {
  if (storage_store_ == nullptr) return StorageBilling{};
  const int64_t gets = storage_store_->get_requests();
  const int64_t puts = storage_store_->put_requests();
  MutexLock lock(billing_mu_);
  const int64_t new_gets = gets - storage_billed_.gets;
  const int64_t new_puts = puts - storage_billed_.puts;
  if (new_gets > 0) {
    const Dollars d =
        static_cast<double>(new_gets) * pricing_.per_1k_get_requests / 1000.0;
    billing_.ChargeFlat("storage:get", d);
    storage_billed_.dollars += d;
    storage_billed_.gets = gets;
  }
  if (new_puts > 0) {
    const Dollars d =
        static_cast<double>(new_puts) * pricing_.per_1k_put_requests / 1000.0;
    billing_.ChargeFlat("storage:put", d);
    storage_billed_.dollars += d;
    storage_billed_.puts = puts;
  }
  return storage_billed_;
}

Database::StorageBilling Database::storage_billing() const {
  MutexLock lock(billing_mu_);
  return storage_billed_;
}

Result<BoundQuery> Database::BindSql(const std::string& sql) const {
  return query_service_->Bind(sql);
}

std::string Database::CacheKey(const std::string& shape,
                               const UserConstraint& constraint) {
  std::string key = shape;
  key += '\x1f';
  key += constraint.mode == UserConstraint::Mode::kMinCostUnderSla ? 'S' : 'B';
  key += StrFormat("%.17g|%.17g|w%d", constraint.latency_sla,
                   constraint.budget, constraint.workers);
  return key;
}

std::string Database::ResultKey(const std::string& shape,
                                const UserConstraint& constraint,
                                const std::vector<Value>& params) {
  std::string key = CacheKey(shape, constraint);
  key += '\x1e';
  for (const Value& v : params) {
    // Type tags keep 1, 1.0, and '1' distinct keys — same printed form,
    // different scan predicates.
    if (v.is_null()) {
      key += 'n';
    } else if (v.is_int()) {
      key += 'i';
    } else if (v.is_double()) {
      key += 'd';
    } else {
      key += 's';
    }
    key += v.ToString();
    key += '\x1e';
  }
  return key;
}

Result<std::shared_ptr<const PlannedQuery>> Database::PlanCached(
    const std::string& cache_key,
    const std::function<Result<PlannedQuery>()>& plan_fn, bool* cache_hit) {
  return plan_cache_.GetOrCompute(
      cache_key,
      [&]() -> Result<StampedCache<PlannedQuery>::Fill> {
        // The estimator reads hw_ on every estimate; hold off calibration
        // writers while planning.
        ReaderMutexLock hw_lock(hw_mu_);
        PlannedQuery planned;
        COSTDB_ASSIGN_OR_RETURN(planned, plan_fn());
        auto shared = std::make_shared<const PlannedQuery>(std::move(planned));
        return StampedCache<PlannedQuery>::Fill{shared, shared->plan.get()};
      },
      cache_hit);
}

Result<std::shared_ptr<const PlannedQuery>> Database::PlanCachedSql(
    const std::string& sql, const UserConstraint& constraint,
    bool* cache_hit) {
  return PlanCached(
      CacheKey(NormalizeStatementShape(sql), constraint),
      [&] { return query_service_->PlanSql(sql, constraint); }, cache_hit);
}

Result<std::shared_ptr<const PlannedQuery>> Database::PlanCachedBound(
    const BoundQuery& query, const std::string& shape_key,
    const UserConstraint& constraint, bool* cache_hit) {
  return PlanCached(
      CacheKey(shape_key, constraint),
      [&] { return query_service_->Plan(query, constraint); }, cache_hit);
}

Result<PlannedQuery> Database::PlanSql(const std::string& sql,
                                       const UserConstraint& constraint) {
  bool cache_hit = false;
  std::shared_ptr<const PlannedQuery> shared;
  COSTDB_ASSIGN_OR_RETURN(shared, PlanCachedSql(sql, constraint, &cache_hit));
  return *shared;  // cheap: the plan tree itself stays shared
}

Result<PlannedQuery> Database::BindPreparedPlan(
    const PlannedQuery& cached, const BoundQuery& query,
    const std::vector<Value>& params) {
  PlannedQuery out;
  out.plan = BindPlanParams(cached.plan.get(), params);
  out.pipelines = BuildPipelines(out.plan.get());
  out.dops = cached.dops;  // pipeline ids are stable across the clone
  out.bushiness = cached.bushiness;
  out.feasible = cached.feasible;
  out.states_explored = cached.states_explored;
  out.workers = cached.workers;
  // Re-derive only the cardinality-sensitive terms: with constants bound,
  // histogram selectivities replace the default-selectivity guesses the
  // prepared plan was shaped under; the shape and DOPs stay fixed.
  CardinalityEstimator cards(&meta_, &query.relations);
  out.volumes = ComputeVolumes(out.plan.get(), cards);
  {
    ReaderMutexLock hw_lock(hw_mu_);
    out.estimate = estimator_->EstimatePlan(out.pipelines, out.dops,
                                            out.volumes);
  }
  return out;
}

Result<ExecutionResult> Database::Execute(
    std::shared_ptr<const PlannedQuery> plan, bool cache_hit) {
  ExecutionResult out;
  out.plan = std::move(plan);
  out.plan_cache_hit = cache_hit;
  // PlannedQuery::workers is already an executable width
  // (ResolveWorkerCount); > 1 routes to the partitioned backend.
  out.workers = static_cast<size_t>(std::max(1, out.plan->workers));
  const PhysicalPlan* root = out.plan->plan.get();
  if (out.workers == 1) {
    COSTDB_ASSIGN_OR_RETURN(out.result, local_engine_.Execute(root, &out));
  } else {
    // Per-query elastic state: a fresh DOP monitor proposes widths from
    // the engine's real fragment timings, the controller prices each
    // proposal (spin-up + shuffle dispatch vs predicted saving) and reads
    // the admission backlog before allowing growth. Policies are stateful
    // per query, so nothing here outlives the run.
    std::unique_ptr<PipelineDopMonitor> monitor;
    std::unique_ptr<ElasticController> controller;
    WidthDecider decider;
    if (options_.enable_elastic) {
      monitor = std::make_unique<PipelineDopMonitor>();
      ElasticControllerOptions elastic;
      elastic.max_workers = std::min<size_t>(
          elastic.max_workers, std::max<size_t>(1, options_.max_workers));
      controller = std::make_unique<ElasticController>(
          estimator_.get(), monitor.get(), elastic);
      controller->BeginQuery(
          &out.plan->pipelines, &out.plan->volumes,
          UserConstraint().WithWorkers(static_cast<int>(out.workers)),
          out.plan->estimate.latency, static_cast<int>(out.workers));
      controller->SetQueuePressure(admission_->queue_pressure());
      ElasticController* raw = controller.get();
      decider = [this, raw](const FragmentBoundary& boundary) {
        // The policy prices candidates through the shared estimator, which
        // reads the calibrated hardware model — shut out calibration
        // writers for the duration of the decision.
        ReaderMutexLock hw_lock(hw_mu_);
        return raw->Decide(boundary);
      };
    }
    COSTDB_ASSIGN_OR_RETURN(
        out.result,
        sharded_engine_.Execute(root, out.workers, &out, decider));
    if (controller != nullptr) out.elastic = controller->decisions();
  }
  if (out.workers == 1) return out;

  // Cloud billing: charge the measured machine time — wall seconds at the
  // widths the run actually held (elastic runs interleave widths; fixed
  // runs bill wall x workers) — at the facade's node price. The session
  // ledger settles its estimate against this.
  const Dollars price = node_.price_per_second();
  out.billed_dollars = out.usage.worker_seconds * price;
  // Egress: wire bytes the run's exchanges serialized are billed at the
  // catalog's egress rate (0 for in-process runs — nothing crosses a
  // link). Conservation: egress_billed_.dollars tracks wire_bytes/GiB x
  // rate exactly, the invariant bench_e18_transport gates.
  const double wire_bytes = out.exchange.wire_bytes();
  out.egress_dollars = wire_bytes / kGiB * pricing_.egress_per_gib;
  MutexLock lock(billing_mu_);
  UsageRecord record;
  record.label = options_.enable_elastic ? "query:elastic" : "query:sharded";
  record.start = billing_clock_;
  record.duration = out.usage.worker_seconds;  // machine-seconds, 1 "node"
  record.node_count = 1;
  record.price_per_node_second = price;
  billing_.Charge(record);
  billing_clock_ += out.usage.wall_seconds;
  if (wire_bytes > 0.0) {
    billing_.ChargeFlat("exchange:egress", out.egress_dollars);
    egress_billed_.wire_bytes += wire_bytes;
    egress_billed_.dollars += out.egress_dollars;
    ++egress_billed_.runs;
  }
  return out;
}

Database::EgressBilling Database::egress_billing() const {
  MutexLock lock(billing_mu_);
  return egress_billed_;
}

BillingMeter Database::billing_snapshot() const {
  MutexLock lock(billing_mu_);
  return billing_;
}

Result<ExecutionResult> Database::ExecutePlannedCached(
    std::shared_ptr<const PlannedQuery> plan, bool cache_hit,
    const std::string& result_key) {
  if (!options_.enable_result_cache || result_key.empty()) {
    return Execute(std::move(plan), cache_hit);
  }
  // Set only when this call ran the plan: the cache keeps a copy of the
  // rows, the caller gets the whole run.
  std::optional<ExecutionResult> executed;
  bool hit = false;
  std::shared_ptr<const QueryResult> rows;
  COSTDB_ASSIGN_OR_RETURN(
      rows, result_cache_.GetOrCompute(
                result_key,
                [&]() -> Result<StampedCache<QueryResult>::Fill> {
                  COSTDB_ASSIGN_OR_RETURN(executed, Execute(plan, cache_hit));
                  auto copy = std::make_shared<const QueryResult>(
                      executed->result);
                  return StampedCache<QueryResult>::Fill{
                      copy, plan->plan.get(), ChunkPayloadBytes(copy->chunk)};
                },
                &hit));
  if (executed.has_value()) return std::move(*executed);
  // Served from the cache: no engine ran, so the profile stays empty and
  // the calibration loop observes nothing.
  ExecutionResult out;
  out.plan = std::move(plan);
  out.plan_cache_hit = cache_hit;
  out.result_cache_hit = true;
  out.result = *rows;
  return out;
}

Dollars Database::SettleTenantBill(const std::string& tenant,
                                   ExecutionResult* executed,
                                   Dollars reserved) {
  if (executed == nullptr) return reserved;
  Dollars actual = reserved;
  double seconds = 0.0;
  if (!executed->result_cache_hit) {
    // Machine time consumed: measured worker-seconds for sharded runs,
    // summed pipeline wall times for local ones.
    seconds = executed->usage.worker_seconds;
    if (seconds <= 0.0) {
      for (const auto& t : executed->timings) seconds += t.seconds;
    }
  }
  MutexLock lock(tenant_mu_);
  TenantBill& bill = tenant_billing_[tenant];
  if (executed->result_cache_hit) {
    // Serving cached rows costs memory bandwidth, not an execution.
    actual = reserved * options_.pricing.result_cache_hit_factor;
    executed->billed_dollars = actual;
    ++bill.result_cache_hits;
  } else if (!options_.pricing.compute_second_tiers.empty()) {
    // Tiered volume pricing folds this run's marginal consumption across
    // the tenant's *cumulative* position in the schedule — heavy tenants
    // slide into cheaper tiers, exactly like production storage/egress
    // price sheets.
    actual =
        TieredCost(bill.machine_seconds, bill.machine_seconds + seconds,
                   options_.pricing.compute_second_tiers,
                   node_.price_per_second());
    executed->billed_dollars = actual;
  } else if (executed->billed_dollars > 0.0) {
    // Flat pricing, sharded run: settle to the measured cloud bill.
    actual = executed->billed_dollars;
  }
  // Flat pricing, local run: the reservation stands (pre-tenancy
  // behavior; billed_dollars stays 0 so callers can tell).
  if (executed->storage.misses > 0) {
    // Cold reads this run caused are the tenant's traffic: attribute the
    // GET fees on top of compute (compaction's own GETs are maintenance
    // and settle to the facade bill via SettleStorageRequests instead).
    bill.storage_gets += executed->storage.misses;
    bill.storage_get_dollars += executed->storage.miss_get_dollars;
    actual += executed->storage.miss_get_dollars;
  }
  bill.machine_seconds += seconds;
  bill.dollars += actual;
  ++bill.runs;
  return actual;
}

std::map<std::string, Database::TenantBill> Database::tenant_billing() const {
  MutexLock lock(tenant_mu_);
  return tenant_billing_;
}

CalibrationReport Database::Calibrate(const ExecutionResult& executed) {
  WriterMutexLock hw_lock(hw_mu_);
  CalibrationReport report = calibration_->Observe(
      executed, executed.plan->pipelines, executed.plan->volumes,
      *estimator_);
  if (report.moved) {
    // Estimates produced before this round are stale; lazily invalidate
    // cached plans and results by versioning.
    ++calibration_version_;
  }
  return report;
}

void Database::CalibrateExecution(ExecutionResult* executed) {
  if (!options_.enable_calibration || executed == nullptr ||
      executed->plan == nullptr) {
    return;
  }
  executed->calibration = Calibrate(*executed);
}

Result<PreparedQuery> Database::Prepare(const std::string& sql,
                                        const UserConstraint& constraint) {
  PreparedQuery out;
  COSTDB_ASSIGN_OR_RETURN(out.query, BindSql(sql));
  {
    ReaderMutexLock hw_lock(hw_mu_);
    COSTDB_ASSIGN_OR_RETURN(out.planned,
                            query_service_->Plan(out.query, constraint));
  }
  CardinalityEstimator truth(&meta_, &out.query.relations,
                             /*use_true_stats=*/true);
  out.truth = ComputeVolumes(out.planned.plan.get(), truth);
  return out;
}

Result<SimResult> Database::SimulateSql(const std::string& sql,
                                        const UserConstraint& constraint,
                                        ResizePolicy* policy, CloudEnv* env) {
  PreparedQuery prepared;
  COSTDB_ASSIGN_OR_RETURN(prepared, Prepare(sql, constraint));
  StaticPolicy static_policy;
  if (policy == nullptr) policy = &static_policy;
  // The simulator estimates against hw_ too; shut out calibration writers.
  ReaderMutexLock hw_lock(hw_mu_);
  return SimulateQuery(prepared, *simulator_, policy, constraint, env);
}

}  // namespace costdb
