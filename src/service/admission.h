#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/units.h"

namespace costdb {

/// Admission quota of one tenant. The controller schedules tenants by
/// weighted fair share: each admission advances the tenant's virtual work
/// by (predicted latency / weight), and the tenant with the least virtual
/// work owns the next slot — so over a contended window every tenant's
/// share of admitted work is proportional to its weight, regardless of how
/// fast it submits. Quotas bound what one tenant can hold at once.
struct TenantQuota {
  /// Fair-share weight. A weight-3 tenant is admitted 3x the work of a
  /// weight-1 tenant while both have queued queries.
  double weight = 1.0;
  /// Queries of this tenant running at once (0 = only the global cap).
  size_t max_concurrent = 0;
  /// Cap on the summed estimated working set of this tenant's running
  /// queries. Like the global cap, a single oversized query still runs —
  /// alone within the tenant — so it degrades to serial, not starvation.
  double max_estimated_memory_bytes =
      std::numeric_limits<double>::infinity();
};

struct AdmissionOptions {
  /// Queries running at once (admission worker count).
  size_t max_concurrent = 4;
  /// Cap on the summed estimated working set of running queries. A query
  /// whose own estimate exceeds the cap still runs — alone — so oversized
  /// requests degrade to serial execution instead of queueing forever.
  double max_estimated_memory_bytes =
      std::numeric_limits<double>::infinity();
  /// Starvation guard: a queued query older than this is admitted next
  /// regardless of its cost ranking. The guard is per *class* (each
  /// submission's query_class), not just global — a stream of cheap
  /// interactive queries cannot indefinitely defer the batch class,
  /// because the oldest ticket of every class is tracked separately.
  Seconds max_queue_wait = 300.0;
  /// Quota applied to tenants without an explicit entry in tenant_quotas.
  TenantQuota default_quota;
  /// Per-tenant quota overrides, keyed by Submission::tenant.
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Time source for queue-wait accounting. Tests inject a virtual clock
  /// (tests/admission_testing.h) so starvation/fairness assertions are
  /// schedule-exact instead of sleep-based. Null = steady_clock::now.
  std::function<std::chrono::steady_clock::time_point()> clock;
  /// Record every admission (tenant, class, predicted work) in order.
  /// Diagnostics for fairness tests and benches; off by default because
  /// the log grows unbounded.
  bool record_admissions = false;
};

/// Cost-aware, tenant-fair admission control for asynchronously submitted
/// queries. The run queue is a weighted fair-share scheduler across
/// tenants layered over the shared CostEstimator's predictions: the tenant
/// with the least weight-normalized admitted work owns the next slot, and
/// within that tenant the cheapest (shortest-predicted) admissible query
/// runs first, with the earlier SLA deadline breaking ties — the
/// scheduling analogue of the paper's cost-intelligence argument:
/// admission, not just plan choice, decides what a query costs at the
/// front door. Per-tenant concurrency/memory quotas bound what one tenant
/// can hold, and a per-class wall-clock starvation guard bounds how long
/// cost ordering can defer any class of query.
///
/// Closed-loop clients: a client that waits for each result and then
/// submits its next query within kAnticipationWindow (measured per client,
/// see ClientPace) has its follow-up anticipated — the worker its query
/// just freed holds the slot until the client resubmits, for at most
/// kAnticipationWindow, so the follow-up is ranked against the queued
/// tickets instead of arriving just after the slot went to one of them.
/// Batch and open-loop submitters, and submissions without a ClientPace,
/// never measure a short gap and free their slot at once.
class AdmissionController {
 public:
  using RunFn = std::function<void()>;

  /// Longest resubmit gap that marks a client as closed-loop, and the
  /// longest a freed slot is held for its follow-up: far below one
  /// query's run time, above a client's turnaround from result to next
  /// submission.
  static constexpr Seconds kAnticipationWindow = 200e-6;

  /// Submission pace of one client (typically a Session), measured by the
  /// controller. The client owns it and passes it with every submission;
  /// its fields are guarded by the controller's mutex.
  class ClientPace {
   private:
    friend class AdmissionController;
    size_t outstanding = 0;  // queued or running tickets
    uint64_t submissions = 0;
    bool finished_one = false;
    std::chrono::steady_clock::time_point last_finish;
    /// Gap from the client's last finished query to its next submission,
    /// measured only when nothing else was outstanding (so a batch that
    /// keeps several queries in flight never measures one).
    Seconds resubmit_gap = std::numeric_limits<double>::infinity();
  };

  /// One submitted query, from the controller's point of view.
  struct Submission {
    Seconds est_latency = 0.0;   // estimator's predicted run time
    Dollars est_cost = 0.0;      // estimator's predicted bill
    double est_memory_bytes = 0.0;  // predicted working set (breakers)
    Seconds sla_deadline = std::numeric_limits<double>::infinity();
    /// Fair-share accounting key ("" = the default tenant).
    std::string tenant;
    /// Starvation-guard class ("" = unclassified). Typically the
    /// workload class: "interactive", "batch", ...
    std::string query_class;
    /// Pace record of the submitting client; null = unknown (never
    /// anticipated).
    std::shared_ptr<ClientPace> client;
    RunFn run;                   // executed on an admission worker
    /// Invoked (outside the controller lock, at most once) when the
    /// ticket is cancelled while queued — by Cancel() or by controller
    /// shutdown. Owners use it to complete futures/refund ledgers that
    /// the run closure will now never reach.
    RunFn on_cancel;
  };

  class Ticket {
   public:
    enum class State { kQueued, kRunning, kDone, kCancelled };

   private:
    friend class AdmissionController;
    // All fields guarded by the controller's mutex. Tenant/work are
    // copied out of the submission so completion accounting survives the
    // sub reset that breaks owner<->ticket reference cycles.
    State state = State::kQueued;
    uint64_t seq = 0;
    std::string tenant;
    Seconds est_latency = 0.0;
    std::shared_ptr<ClientPace> client;
    Submission sub;
    std::chrono::steady_clock::time_point enqueued_at;
  };
  using TicketPtr = std::shared_ptr<Ticket>;

  explicit AdmissionController(AdmissionOptions options);
  /// Drains: queued tickets are cancelled, running ones finish.
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Enqueue; returns immediately. The run function executes on an
  /// admission worker once the ticket is admitted.
  TicketPtr Submit(Submission submission);

  /// Cancel a queued ticket. True iff the query had not started — a
  /// running or finished query is past withdrawal and returns false.
  bool Cancel(const TicketPtr& ticket);

  /// Block until the ticket has finished or been cancelled.
  void Await(const TicketPtr& ticket);

  Ticket::State state(const TicketPtr& ticket) const;

  /// Re-evaluate the queue now. Only needed when admissibility changed
  /// without a queue event — e.g. a test advanced the injected clock past
  /// the starvation deadline, or a quota was edited mid-run.
  void Poke();

  /// Replace (or register) one tenant's quota. Applies to queued and
  /// future submissions; running queries are never evicted.
  void SetTenantQuota(const std::string& tenant, TenantQuota quota);

  struct Stats {
    size_t submitted = 0;
    size_t started = 0;
    size_t completed = 0;
    size_t cancelled = 0;
    /// Admissions that jumped ahead of an earlier-submitted, still-queued
    /// query — each one is a reordering the cost model paid for.
    size_t reordered = 0;
    /// Completions after which the freed slot was held for the finished
    /// client's follow-up (closed-loop clients only).
    size_t anticipated = 0;
  };
  Stats stats() const;

  /// Per-tenant scheduling ledger.
  struct TenantStats {
    size_t submitted = 0;
    size_t admitted = 0;
    size_t completed = 0;
    size_t cancelled = 0;
    size_t queued = 0;   // waiting right now
    size_t running = 0;  // admitted, not yet finished
    /// Sum of predicted latency over admitted queries — the "work" whose
    /// share the fair-share scheduler equalizes by weight.
    double admitted_work = 0.0;
    double weight = 1.0;
  };
  std::map<std::string, TenantStats> tenant_stats() const;

  /// One admission, in order (options.record_admissions only).
  struct AdmissionEvent {
    std::string tenant;
    std::string query_class;
    Seconds est_latency = 0.0;
    uint64_t seq = 0;
  };
  std::vector<AdmissionEvent> admission_log() const;

  size_t max_concurrent() const { return workers_.size(); }

  /// Queries waiting in the queue right now (the admission backlog).
  size_t queued() const;

  /// Backlog per concurrency slot — the pressure signal the elastic
  /// controller reads before growing a running query's worker count.
  double queue_pressure() const;

 private:
  /// Scheduling state of one tenant. Created on first submission; quota
  /// resolved from options (tenant_quotas else default_quota).
  struct TenantState {
    TenantQuota quota;
    size_t running = 0;
    double running_memory = 0.0;
    /// Weight-normalized admitted work (the deficit counter): admitting a
    /// query adds est_latency / weight. The scheduler always serves the
    /// tenant with the least virtual work among those with an admissible
    /// queued query.
    double virtual_work = 0.0;
    TenantStats stats;
  };

  void WorkerLoop() EXCLUDES(mu_);
  /// Pick the best admissible queued ticket (nullptr when none fits).
  TicketPtr PickNext() REQUIRES(mu_);
  std::chrono::steady_clock::time_point Now() const;
  /// Tenant state, created (and fair-share-aligned) on first use.
  TenantState& TenantOf(const std::string& tenant) REQUIRES(mu_);
  /// Global memory cap + the ticket's tenant quotas.
  bool Admissible(const Ticket& t) REQUIRES(mu_);
  /// Tenant quota portion of Admissible — split out so the starvation
  /// guard can distinguish "blocked by its own tenant's quota" (skip it;
  /// that tenant is not starved, it is saturated) from "blocked by the
  /// global memory cap" (hold the door until the pool drains).
  bool TenantBlocked(const Ticket& t) REQUIRES(mu_);

  AdmissionOptions options_;
  mutable Mutex mu_;
  std::condition_variable_any cv_;       // queue/shutdown changes
  std::condition_variable_any done_cv_;  // ticket completion
  std::deque<TicketPtr> queue_ GUARDED_BY(mu_);
  std::map<std::string, TenantState> tenants_ GUARDED_BY(mu_);
  double running_memory_ GUARDED_BY(mu_) = 0.0;
  size_t running_ GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);
  std::vector<AdmissionEvent> admission_log_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace costdb
