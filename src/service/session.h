#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "service/admission.h"
#include "service/database.h"
#include "sql/shape.h"

namespace costdb {

class Session;
class PreparedStatement;
using PreparedStatementPtr = std::shared_ptr<PreparedStatement>;
class QueryHandle;
using QueryHandlePtr = std::shared_ptr<QueryHandle>;

struct SessionOptions {
  /// Constraint applied when a call does not pass one explicitly.
  UserConstraint default_constraint;
  /// Session dollar budget: every execution charges its estimated bill to
  /// the ledger; past the cap, calls fail with ResourceExhausted. Ledgers
  /// are per-session — concurrent sessions spend disjoint budgets.
  Dollars budget = std::numeric_limits<double>::infinity();
  /// The tenant this session belongs to. Admission fair-shares across
  /// tenants (AdmissionOptions::tenant_quotas), and every run settles
  /// into the tenant's cumulative bill (Database::tenant_billing) — many
  /// sessions of one tenant share one scheduling/billing identity, while
  /// their dollar ledgers stay per-session.
  std::string tenant_id = "default";
};

struct SessionStats {
  size_t executions = 0;        // synchronous Execute/ExecuteSql calls
  size_t submissions = 0;       // asynchronous Submit calls
  size_t plans = 0;             // optimizer runs charged to this session
  size_t replans_avoided = 0;   // calls served by an already-cached plan
};

/// A parameterized statement prepared once and executed many times. The
/// plan is cached in the shared Database plan cache under the statement's
/// normalized *shape* (whitespace/keyword-case/placeholder-value
/// independent) plus the calibration version it was priced under —
/// executing with new parameter vectors binds constants into a copy of
/// the cached plan and re-derives only the cardinality-sensitive terms
/// (volumes + cost estimate); it never re-runs the optimizer unless the
/// calibration moved. Statements are created by Session::Prepare and may
/// outlive the session (they only reference the shared Database).
class PreparedStatement {
 public:
  const std::string& sql() const { return sql_; }
  /// Normalized statement shape — the plan-cache identity.
  const std::string& shape() const { return shape_; }
  size_t param_count() const { return query_.param_types.size(); }
  const std::vector<LogicalType>& param_types() const {
    return query_.param_types;
  }
  const UserConstraint& constraint() const { return constraint_; }

  /// Optimizer runs this statement has paid for (1 after Prepare; grows
  /// only when a calibration move invalidates the cached plan).
  size_t times_planned() const;
  /// Executions that reused a cached plan instead of replanning.
  size_t reuses() const;
  size_t executions() const;

 private:
  friend class Session;
  std::string sql_;
  std::string shape_;
  BoundQuery query_;           // carries param_types and relation handles
  UserConstraint constraint_;  // session default at Prepare time

  mutable Mutex mu_;
  size_t times_planned_ GUARDED_BY(mu_) = 0;
  size_t reuses_ GUARDED_BY(mu_) = 0;
  size_t executions_ GUARDED_BY(mu_) = 0;
};

/// Future-like handle to an asynchronously submitted query. The handle
/// keeps the finished ExecutionResult, and Take() moves it out. Cancel()
/// withdraws a query that has not been admitted yet. Handles stay valid
/// after their Session is destroyed.
class QueryHandle {
 public:
  enum class State { kQueued, kRunning, kDone, kFailed, kCancelled };

  State Poll() const;

  /// Block until the query finished, failed, or was cancelled; returns
  /// the final status (OK only for a successful run).
  Status Wait() const;

  /// Wait, then move out the execution result: its rows, plan, profile
  /// and bill. Error status: the query failed or was cancelled.
  Result<ExecutionResult> Take();

  /// Withdraw from the admission queue. True iff the query had not
  /// started; a running or finished query keeps going and returns false.
  bool Cancel();

  /// The plan this submission will execute (bound and costed at Submit
  /// time, so available immediately).
  const PlannedQuery& plan() const;

  struct SharedState;

 private:
  friend class Session;
  explicit QueryHandle(std::shared_ptr<SharedState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<SharedState> state_;
};

/// Per-client handle over a shared Database — the client entry point of
/// the service layer, and the only way to run a query: every run is
/// charged to the session's ledger, fed to the calibration (unless
/// SubmitOptions::calibrate is off) and settled into the tenant's bill
/// (Database::tenant_billing). A Session carries the client's default
/// UserConstraint, a dollar-budget ledger, and prepared-statement
/// lifetime; queries enter synchronously (Execute*, blocking the calling
/// thread) or asynchronously (Submit) through the shared cost-aware
/// AdmissionController, both on the facade's shared engines. Sessions are
/// cheap (no threads, no engine of their own) and thread-safe; create one
/// per client.
class Session {
 public:
  explicit Session(Database* db, SessionOptions options = SessionOptions());

  // -- Prepared statements ----------------------------------------------
  /// Parse + bind a statement with '?' placeholders and plan it through
  /// the shape-keyed plan cache. The optimizer prices placeholders at
  /// default selectivity; Execute re-estimates once values are known.
  Result<PreparedStatementPtr> Prepare(const std::string& sql);
  Result<PreparedStatementPtr> Prepare(const std::string& sql,
                                       const UserConstraint& constraint);

  /// Bind `params` positionally and execute synchronously. Validates
  /// arity and types (NULL binds to any type); replans only when the
  /// calibration version moved since the plan was cached.
  Result<ExecutionResult> Execute(const PreparedStatementPtr& statement,
                                  const std::vector<Value>& params = {});

  // -- One-shot SQL ------------------------------------------------------
  Result<ExecutionResult> ExecuteSql(const std::string& sql);
  Result<ExecutionResult> ExecuteSql(const std::string& sql,
                                     const UserConstraint& constraint);

  /// Plan only — "what would this query cost?" — through the shared plan
  /// cache. No execution, no ledger charge.
  Result<PlannedQuery> Plan(const std::string& sql);
  Result<PlannedQuery> Plan(const std::string& sql,
                            const UserConstraint& constraint);

  // -- Asynchronous submission ------------------------------------------
  struct SubmitOptions;
  Result<QueryHandlePtr> Submit(const std::string& sql);
  Result<QueryHandlePtr> Submit(const std::string& sql,
                                const SubmitOptions& options);
  Result<QueryHandlePtr> Submit(const PreparedStatementPtr& statement,
                                const std::vector<Value>& params = {});
  Result<QueryHandlePtr> Submit(const PreparedStatementPtr& statement,
                                const std::vector<Value>& params,
                                const SubmitOptions& options);

  // -- Ledger / stats ----------------------------------------------------
  Dollars spent() const;
  Dollars budget_remaining() const;
  SessionStats stats() const;

  Database* database() { return db_; }
  const SessionOptions& options() const { return options_; }

 private:
  friend class QueryHandle;  // handles hold the shared ledger

  /// Dollar ledger, shared with in-flight handles so a cancelled
  /// submission can refund its reservation even if the session is gone.
  struct Ledger;
  struct ChargedRun;

  /// A run-ready plan: shared cached plan, or a parameter-bound copy.
  struct RunnablePlan {
    std::shared_ptr<const PlannedQuery> plan;
    bool cache_hit = false;
    /// Result-cache identity (shape + constraint + bound params); empty
    /// disables result caching for this run.
    std::string result_key;
  };

  Result<RunnablePlan> PlanStatement(const PreparedStatementPtr& statement,
                                     const std::vector<Value>& params,
                                     const UserConstraint& constraint);
  Result<RunnablePlan> PlanRaw(const std::string& sql,
                               const UserConstraint& constraint);
  /// Reserve the plan's estimated cost on the ledger; ResourceExhausted
  /// past the budget.
  Result<ChargedRun> Charge(RunnablePlan runnable, bool calibrate);
  /// Synchronous path: charge, run on the calling thread, count.
  Result<ExecutionResult> RunSync(RunnablePlan runnable);
  Result<QueryHandlePtr> SubmitPlanned(RunnablePlan runnable,
                                       const UserConstraint& constraint,
                                       bool calibrate,
                                       const std::string& query_class);

  Database* db_;
  SessionOptions options_;
  std::shared_ptr<Ledger> ledger_;
  /// How this session paces its submissions, as admission measures it.
  std::shared_ptr<AdmissionController::ClientPace> pace_ =
      std::make_shared<AdmissionController::ClientPace>();
  mutable Mutex mu_;
  SessionStats stats_ GUARDED_BY(mu_);
};

struct Session::SubmitOptions {
  /// Constraint override; session default when absent.
  std::optional<UserConstraint> constraint;
  /// Fold the run's timings into the calibration on completion. Off, the
  /// run plans, executes and settles exactly as it would, but leaves the
  /// model where it was: later submits plan against the same calibration,
  /// and a caller may fold the result in itself with
  /// Database::CalibrateExecution.
  bool calibrate = true;
  /// Starvation-guard class for admission ("" = unclassified): the oldest
  /// queued query of *each* class is aged independently, so a flood of
  /// cheap "interactive" queries cannot indefinitely defer "batch".
  std::string query_class;
};

}  // namespace costdb
