#include "service/session.h"

#include <condition_variable>
#include <functional>
#include <utility>

#include "common/table_printer.h"

namespace costdb {

namespace {

/// Arity and physical-family check of a bind vector against the
/// statement's inferred parameter types. NULL binds to any type; an int
/// widens into a double slot; a double never silently truncates into an
/// int slot.
Status ValidateParams(const BoundQuery& query,
                      const std::vector<Value>& params) {
  if (params.size() != query.param_types.size()) {
    return Status::InvalidArgument(StrFormat(
        "statement takes %zu parameter(s), got %zu",
        query.param_types.size(), params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const Value& v = params[i];
    if (v.is_null()) continue;
    bool ok = false;
    switch (PhysicalTypeOf(query.param_types[i])) {
      case PhysicalType::kInt64:
        ok = v.is_int();
        break;
      case PhysicalType::kDouble:
        ok = v.is_int() || v.is_double();
        break;
      case PhysicalType::kString:
        ok = v.is_string();
        break;
    }
    if (!ok) {
      return Status::InvalidArgument(
          "parameter ?" + std::to_string(i) + " expects " +
          LogicalTypeName(query.param_types[i]) + ", got " + v.ToString());
    }
  }
  return Status::OK();
}

/// Working-set guess for the admission memory cap: bytes the plan's
/// breakers (aggregate/sort outputs, join build sides) and the final
/// result materialize, from the optimizer's believed volumes.
double EstimateWorkingSetBytes(const PlannedQuery& planned) {
  double total = 0.0;
  auto bytes_of = [&](const PhysicalPlan* node) {
    auto it = planned.volumes.find(node);
    if (it != planned.volumes.end()) return it->second.out_bytes;
    return node->est_rows * node->est_row_bytes;
  };
  std::function<void(const PhysicalPlan*)> walk =
      [&](const PhysicalPlan* node) {
        if (node == nullptr) return;
        switch (node->kind) {
          case PhysicalPlan::Kind::kHashAggregate:
          case PhysicalPlan::Kind::kSort:
            total += bytes_of(node);
            break;
          case PhysicalPlan::Kind::kHashJoin:
            if (node->children.size() > 1) {
              total += bytes_of(node->children[1].get());
            }
            break;
          default:
            break;
        }
        for (const auto& c : node->children) walk(c.get());
      };
  const PhysicalPlan* root = planned.plan.get();
  walk(root);
  // The materialized result itself — unless the root is a breaker the
  // walk already counted.
  if (root != nullptr && root->kind != PhysicalPlan::Kind::kHashAggregate &&
      root->kind != PhysicalPlan::Kind::kSort) {
    total += bytes_of(root);
  }
  return total;
}

}  // namespace

// ------------------------------------------------------------- ledger

struct Session::Ledger {
  mutable Mutex mu;
  Dollars budget GUARDED_BY(mu) = std::numeric_limits<double>::infinity();
  Dollars spent GUARDED_BY(mu) = 0.0;

  Status Charge(Dollars amount) {
    MutexLock lock(mu);
    if (spent + amount > budget) {
      return Status::ResourceExhausted(StrFormat(
          "session budget exceeded: %s spent + %s estimated > %s budget",
          FormatDollars(spent).c_str(), FormatDollars(amount).c_str(),
          FormatDollars(budget).c_str()));
    }
    spent += amount;
    return Status::OK();
  }

  void Refund(Dollars amount) {
    MutexLock lock(mu);
    spent -= amount;
    if (spent < 0.0) spent = 0.0;
  }

  /// Replace a reserved estimate with the amount the cloud billing layer
  /// actually charged (sharded/elastic runs report measured
  /// worker-seconds). The money is already spent, so no budget check —
  /// the ledger records truth even past the cap.
  void Settle(Dollars reserved, Dollars actual) {
    MutexLock lock(mu);
    spent += actual - reserved;
    if (spent < 0.0) spent = 0.0;
  }
};

// ---------------------------------------------------------- charged run

/// One run against a reservation already charged to `ledger`: the only
/// step that runs a plan (the facade's run step is private to Session),
/// taken by both the synchronous path and the admission closure. It holds
/// nothing of the Session, because an admitted run may outlive it.
struct Session::ChargedRun {
  Database* db = nullptr;
  RunnablePlan runnable;
  bool calibrate = true;
  std::string tenant;
  std::shared_ptr<Ledger> ledger;
  Dollars charged = 0.0;

  /// Execute, calibrate when asked, and settle the charge to what the run
  /// cost the tenant: the measured sharded/elastic bill, the tiered-volume
  /// price, or the cache rate on a result-cache hit. A failed run is
  /// refunded.
  Result<ExecutionResult> operator()() const {
    auto executed = db->ExecutePlannedCached(
        runnable.plan, runnable.cache_hit, runnable.result_key);
    if (!executed.ok()) {
      ledger->Refund(charged);
      return executed.status();
    }
    if (calibrate) db->CalibrateExecution(&*executed);
    const Dollars actual = db->SettleTenantBill(tenant, &*executed, charged);
    if (actual != charged) ledger->Settle(charged, actual);
    return executed;
  }
};

Result<Session::ChargedRun> Session::Charge(RunnablePlan runnable,
                                            bool calibrate) {
  const Dollars estimated = runnable.plan->estimate.cost;
  COSTDB_RETURN_NOT_OK(ledger_->Charge(estimated));
  return ChargedRun{db_,      std::move(runnable), calibrate,
                    options_.tenant_id, ledger_,   estimated};
}

// ------------------------------------------------- prepared statements

size_t PreparedStatement::times_planned() const {
  MutexLock lock(mu_);
  return times_planned_;
}

size_t PreparedStatement::reuses() const {
  MutexLock lock(mu_);
  return reuses_;
}

size_t PreparedStatement::executions() const {
  MutexLock lock(mu_);
  return executions_;
}

// --------------------------------------------------------- query handle

/// Completion state shared by the handle and the admission closures. The
/// closures own a reference, so the state (and the plan it pins) outlives
/// both the handle and the session.
struct QueryHandle::SharedState {
  // Immutable after Submit.
  Session::ChargedRun run;
  AdmissionController* controller = nullptr;
  AdmissionController::TicketPtr ticket;

  Mutex mu;
  std::condition_variable_any cv;
  bool done GUARDED_BY(mu) = false;
  Status final_status GUARDED_BY(mu);
  ExecutionResult result GUARDED_BY(mu);

  void Finish(Result<ExecutionResult> outcome) {
    {
      MutexLock lock(mu);
      if (outcome.ok()) {
        result = std::move(*outcome);
      } else {
        final_status = outcome.status();
      }
      done = true;
    }
    cv.notify_all();
  }
};

QueryHandle::State QueryHandle::Poll() const {
  {
    MutexLock lock(state_->mu);
    if (state_->done) {
      if (state_->final_status.IsCancelled()) return State::kCancelled;
      return state_->final_status.ok() ? State::kDone : State::kFailed;
    }
  }
  switch (state_->controller->state(state_->ticket)) {
    case AdmissionController::Ticket::State::kQueued:
      return State::kQueued;
    case AdmissionController::Ticket::State::kCancelled:
      return State::kCancelled;
    case AdmissionController::Ticket::State::kRunning:
    case AdmissionController::Ticket::State::kDone:
      // kDone with the done flag not yet set is the closing race of the
      // run closure; report it as still running.
      return State::kRunning;
  }
  return State::kRunning;
}

Status QueryHandle::Wait() const {
  UniqueMutexLock lock(state_->mu);
  while (!state_->done) state_->cv.wait(lock);
  return state_->final_status;
}

Result<ExecutionResult> QueryHandle::Take() {
  COSTDB_RETURN_NOT_OK(Wait());
  MutexLock lock(state_->mu);
  return std::exchange(state_->result, ExecutionResult());
}

bool QueryHandle::Cancel() {
  // Completion + refund happen in the submission's on_cancel callback,
  // the same path controller shutdown takes.
  return state_->controller->Cancel(state_->ticket);
}

const PlannedQuery& QueryHandle::plan() const {
  return *state_->run.runnable.plan;
}

// --------------------------------------------------------------- session

Session::Session(Database* db, SessionOptions options)
    : db_(db), options_(options), ledger_(std::make_shared<Ledger>()) {
  MutexLock lock(ledger_->mu);
  ledger_->budget = options_.budget;
}

Result<PreparedStatementPtr> Session::Prepare(const std::string& sql) {
  return Prepare(sql, options_.default_constraint);
}

Result<PreparedStatementPtr> Session::Prepare(
    const std::string& sql, const UserConstraint& constraint) {
  auto statement = std::make_shared<PreparedStatement>();
  statement->sql_ = sql;
  statement->shape_ = NormalizeStatementShape(sql);
  statement->constraint_ = constraint;
  COSTDB_ASSIGN_OR_RETURN(statement->query_, db_->BindSql(sql));
  // Plan eagerly so Prepare surfaces optimizer errors and later Executes
  // start from a warm cache entry.
  bool hit = false;
  auto planned = db_->PlanCachedBound(statement->query_, statement->shape_,
                                      constraint, &hit);
  if (!planned.ok()) return planned.status();
  {
    MutexLock lock(statement->mu_);
    if (hit) {
      ++statement->reuses_;
    } else {
      ++statement->times_planned_;
    }
  }
  MutexLock lock(mu_);
  if (hit) {
    ++stats_.replans_avoided;
  } else {
    ++stats_.plans;
  }
  return statement;
}

Result<Session::RunnablePlan> Session::PlanStatement(
    const PreparedStatementPtr& statement, const std::vector<Value>& params,
    const UserConstraint& constraint) {
  if (statement == nullptr) {
    return Status::InvalidArgument("null prepared statement");
  }
  COSTDB_RETURN_NOT_OK(ValidateParams(statement->query_, params));
  // Always resolve through the shared shape-keyed cache: a hit is the
  // replan avoided; a miss means the calibration moved (or the entry was
  // evicted) and the optimizer runs once for every session sharing the
  // shape. The cache key carries the constraint, so executing one shape
  // under different constraints keeps distinct (correctly-optimized)
  // slots.
  bool hit = false;
  std::shared_ptr<const PlannedQuery> cached;
  COSTDB_ASSIGN_OR_RETURN(
      cached, db_->PlanCachedBound(statement->query_, statement->shape_,
                                   constraint, &hit));
  {
    MutexLock lock(statement->mu_);
    ++statement->executions_;
    if (hit) {
      ++statement->reuses_;
    } else {
      ++statement->times_planned_;
    }
  }
  {
    MutexLock lock(mu_);
    if (hit) {
      ++stats_.replans_avoided;
    } else {
      ++stats_.plans;
    }
  }
  RunnablePlan runnable;
  runnable.cache_hit = hit;
  runnable.result_key =
      Database::ResultKey(statement->shape_, constraint, params);
  if (params.empty()) {
    runnable.plan = std::move(cached);
    return runnable;
  }
  PlannedQuery bound;
  COSTDB_ASSIGN_OR_RETURN(
      bound, db_->BindPreparedPlan(*cached, statement->query_, params));
  runnable.plan = std::make_shared<const PlannedQuery>(std::move(bound));
  return runnable;
}

Result<Session::RunnablePlan> Session::PlanRaw(
    const std::string& sql, const UserConstraint& constraint) {
  bool hit = false;
  RunnablePlan runnable;
  COSTDB_ASSIGN_OR_RETURN(runnable.plan,
                          db_->PlanCachedSql(sql, constraint, &hit));
  runnable.cache_hit = hit;
  if (PlanHasParams(runnable.plan->plan.get())) {
    return Status::InvalidArgument(
        "statement has '?' placeholders; use Prepare + Execute to bind "
        "them");
  }
  runnable.result_key =
      Database::ResultKey(NormalizeStatementShape(sql), constraint, {});
  MutexLock lock(mu_);
  if (hit) {
    ++stats_.replans_avoided;
  } else {
    ++stats_.plans;
  }
  return runnable;
}

Result<ExecutionResult> Session::RunSync(RunnablePlan runnable) {
  ChargedRun run;
  COSTDB_ASSIGN_OR_RETURN(run, Charge(std::move(runnable), /*calibrate=*/true));
  ExecutionResult executed;
  COSTDB_ASSIGN_OR_RETURN(executed, run());
  MutexLock lock(mu_);
  ++stats_.executions;
  return executed;
}

Result<ExecutionResult> Session::Execute(
    const PreparedStatementPtr& statement, const std::vector<Value>& params) {
  if (statement == nullptr) {
    return Status::InvalidArgument("null prepared statement");
  }
  RunnablePlan runnable;
  COSTDB_ASSIGN_OR_RETURN(
      runnable, PlanStatement(statement, params, statement->constraint_));
  return RunSync(std::move(runnable));
}

Result<ExecutionResult> Session::ExecuteSql(const std::string& sql) {
  return ExecuteSql(sql, options_.default_constraint);
}

Result<ExecutionResult> Session::ExecuteSql(const std::string& sql,
                                            const UserConstraint& constraint) {
  RunnablePlan runnable;
  COSTDB_ASSIGN_OR_RETURN(runnable, PlanRaw(sql, constraint));
  return RunSync(std::move(runnable));
}

Result<PlannedQuery> Session::Plan(const std::string& sql) {
  return Plan(sql, options_.default_constraint);
}

Result<PlannedQuery> Session::Plan(const std::string& sql,
                                   const UserConstraint& constraint) {
  RunnablePlan runnable;
  COSTDB_ASSIGN_OR_RETURN(runnable, PlanRaw(sql, constraint));
  return *runnable.plan;  // cheap: the plan tree itself stays shared
}

Result<QueryHandlePtr> Session::Submit(const std::string& sql) {
  return Submit(sql, SubmitOptions());
}

Result<QueryHandlePtr> Session::Submit(const PreparedStatementPtr& statement,
                                       const std::vector<Value>& params) {
  return Submit(statement, params, SubmitOptions());
}

Result<QueryHandlePtr> Session::Submit(const std::string& sql,
                                       const SubmitOptions& options) {
  const UserConstraint constraint =
      options.constraint.value_or(options_.default_constraint);
  RunnablePlan runnable;
  COSTDB_ASSIGN_OR_RETURN(runnable, PlanRaw(sql, constraint));
  return SubmitPlanned(std::move(runnable), constraint, options.calibrate,
                       options.query_class);
}

Result<QueryHandlePtr> Session::Submit(const PreparedStatementPtr& statement,
                                       const std::vector<Value>& params,
                                       const SubmitOptions& options) {
  if (statement == nullptr) {
    return Status::InvalidArgument("null prepared statement");
  }
  // A constraint override re-optimizes under that constraint (its own
  // cache slot), so the plan, the ledger charge, and the admission
  // deadline all agree on what the client asked for.
  const UserConstraint constraint =
      options.constraint.value_or(statement->constraint_);
  RunnablePlan runnable;
  COSTDB_ASSIGN_OR_RETURN(runnable,
                          PlanStatement(statement, params, constraint));
  return SubmitPlanned(std::move(runnable), constraint, options.calibrate,
                       options.query_class);
}

Result<QueryHandlePtr> Session::SubmitPlanned(RunnablePlan runnable,
                                              const UserConstraint& constraint,
                                              bool calibrate,
                                              const std::string& query_class) {
  auto state = std::make_shared<QueryHandle::SharedState>();
  COSTDB_ASSIGN_OR_RETURN(state->run, Charge(std::move(runnable), calibrate));
  state->controller = db_->admission();
  const PlannedQuery& planned = *state->run.runnable.plan;

  AdmissionController::Submission submission;
  submission.est_latency = planned.estimate.latency;
  submission.est_cost = state->run.charged;
  submission.est_memory_bytes = EstimateWorkingSetBytes(planned);
  submission.sla_deadline =
      constraint.mode == UserConstraint::Mode::kMinCostUnderSla
          ? constraint.latency_sla
          : std::numeric_limits<double>::infinity();
  submission.tenant = options_.tenant_id;
  submission.query_class = query_class;
  submission.client = pace_;
  // The facade's shared engines run the query on helpers from the
  // process-wide pool — no per-query threads.
  submission.run = [state] { state->Finish(state->run()); };

  // One completion path for every way a query can fail to run: cancelled
  // while queued (QueryHandle::Cancel), controller shutdown, or a Submit
  // into an already-draining controller.
  submission.on_cancel = [state] {
    // Refund before signalling completion, so a waiter that wakes on
    // `done` already sees the reservation returned.
    state->run.ledger->Refund(state->run.charged);
    state->Finish(Status::Cancelled("query cancelled before admission"));
  };

  state->ticket = state->controller->Submit(std::move(submission));
  {
    MutexLock lock(mu_);
    ++stats_.submissions;
  }
  return QueryHandlePtr(new QueryHandle(std::move(state)));
}

Dollars Session::spent() const {
  MutexLock lock(ledger_->mu);
  return ledger_->spent;
}

Dollars Session::budget_remaining() const {
  MutexLock lock(ledger_->mu);
  return ledger_->budget - ledger_->spent;
}

SessionStats Session::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace costdb
