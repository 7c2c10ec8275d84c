#include "service/admission.h"

#include <algorithm>
#include <set>
#include <tuple>

namespace costdb {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {
  const size_t n = std::max<size_t>(1, options_.max_concurrent);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AdmissionController::~AdmissionController() {
  std::vector<RunFn> cancel_callbacks;
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    // Whatever never started never will: fail fast rather than running
    // work whose owners are being torn down. Owners are told via
    // on_cancel so handles waiting on these tickets complete.
    for (auto& t : queue_) {
      if (t->state == Ticket::State::kQueued) {
        t->state = Ticket::State::kCancelled;
        ++stats_.cancelled;
        if (t->client != nullptr) --t->client->outstanding;
        TenantState& ts = TenantOf(t->tenant);
        if (ts.stats.queued > 0) --ts.stats.queued;
        ++ts.stats.cancelled;
        if (t->sub.on_cancel) {
          cancel_callbacks.push_back(std::move(t->sub.on_cancel));
        }
        t->sub = Submission();  // break owner<->ticket reference cycles
      }
    }
    queue_.clear();
  }
  for (auto& cb : cancel_callbacks) cb();
  cv_.notify_all();
  done_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::chrono::steady_clock::time_point AdmissionController::Now() const {
  if (options_.clock) return options_.clock();
  return std::chrono::steady_clock::now();
}

AdmissionController::TenantState& AdmissionController::TenantOf(
    const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  TenantState state;
  auto quota = options_.tenant_quotas.find(tenant);
  state.quota = quota != options_.tenant_quotas.end() ? quota->second
                                                      : options_.default_quota;
  state.stats.weight = state.quota.weight;
  // Fair-queuing join rule: a tenant entering (or re-entering after going
  // idle) starts at the virtual time of the busiest-served active tenant's
  // *least*-served peer — the minimum virtual work among tenants with
  // queued or running queries. Without this, a latecomer's zero counter
  // would monopolize the scheduler until it "caught up" with work it was
  // never waiting for.
  double min_active = std::numeric_limits<double>::infinity();
  for (const auto& [name, ts] : tenants_) {
    (void)name;
    if (ts.running > 0 || ts.stats.queued > 0) {
      min_active = std::min(min_active, ts.virtual_work);
    }
  }
  if (min_active != std::numeric_limits<double>::infinity()) {
    state.virtual_work = min_active;
  }
  return tenants_.emplace(tenant, std::move(state)).first->second;
}

void AdmissionController::SetTenantQuota(const std::string& tenant,
                                         TenantQuota quota) {
  {
    MutexLock lock(mu_);
    options_.tenant_quotas[tenant] = quota;
    auto it = tenants_.find(tenant);
    if (it != tenants_.end()) {
      it->second.quota = quota;
      it->second.stats.weight = quota.weight;
    }
  }
  cv_.notify_all();
}

void AdmissionController::Poke() { cv_.notify_all(); }

AdmissionController::TicketPtr AdmissionController::Submit(
    Submission submission) {
  auto ticket = std::make_shared<Ticket>();
  RunFn on_cancel;
  {
    MutexLock lock(mu_);
    ticket->seq = next_seq_++;
    ticket->enqueued_at = Now();
    ticket->tenant = submission.tenant;
    ticket->est_latency = submission.est_latency;
    ++stats_.submitted;
    TenantState& ts = TenantOf(submission.tenant);
    ++ts.stats.submitted;
    if (shutdown_) {
      // Never enqueue into a draining controller; tell the owner.
      ticket->state = Ticket::State::kCancelled;
      ++stats_.cancelled;
      ++ts.stats.cancelled;
      on_cancel = std::move(submission.on_cancel);
    } else {
      ticket->client = submission.client;
      if (ClientPace* c = ticket->client.get()) {
        // Real time even under an injected clock: the anticipation wait
        // this gap bounds is a real wait.
        if (c->outstanding == 0 && c->finished_one) {
          c->resubmit_gap = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                c->last_finish)
                                .count();
        }
        ++c->outstanding;
        ++c->submissions;
      }
      ticket->sub = std::move(submission);
      ++ts.stats.queued;
      queue_.push_back(ticket);
    }
  }
  if (on_cancel) {
    on_cancel();
    return ticket;
  }
  cv_.notify_one();
  return ticket;
}

bool AdmissionController::Cancel(const TicketPtr& ticket) {
  RunFn on_cancel;
  bool cancelled = false;
  {
    MutexLock lock(mu_);
    if (ticket->state == Ticket::State::kQueued) {
      ticket->state = Ticket::State::kCancelled;
      queue_.erase(std::remove(queue_.begin(), queue_.end(), ticket),
                   queue_.end());
      ++stats_.cancelled;
      if (ticket->client != nullptr) --ticket->client->outstanding;
      TenantState& ts = TenantOf(ticket->tenant);
      if (ts.stats.queued > 0) --ts.stats.queued;
      ++ts.stats.cancelled;
      on_cancel = std::move(ticket->sub.on_cancel);
      ticket->sub = Submission();  // break owner<->ticket reference cycles
      cancelled = true;
    }
  }
  if (cancelled) {
    if (on_cancel) on_cancel();
    done_cv_.notify_all();
  }
  return cancelled;
}

void AdmissionController::Await(const TicketPtr& ticket) {
  UniqueMutexLock lock(mu_);
  while (ticket->state != Ticket::State::kDone &&
         ticket->state != Ticket::State::kCancelled) {
    done_cv_.wait(lock);
  }
}

AdmissionController::Ticket::State AdmissionController::state(
    const TicketPtr& ticket) const {
  MutexLock lock(mu_);
  return ticket->state;
}

AdmissionController::Stats AdmissionController::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::map<std::string, AdmissionController::TenantStats>
AdmissionController::tenant_stats() const {
  MutexLock lock(mu_);
  std::map<std::string, TenantStats> out;
  for (const auto& [tenant, state] : tenants_) {
    TenantStats stats = state.stats;
    stats.running = state.running;
    out[tenant] = stats;
  }
  return out;
}

std::vector<AdmissionController::AdmissionEvent>
AdmissionController::admission_log() const {
  MutexLock lock(mu_);
  return admission_log_;
}

size_t AdmissionController::queued() const {
  MutexLock lock(mu_);
  return queue_.size();
}

double AdmissionController::queue_pressure() const {
  MutexLock lock(mu_);
  return static_cast<double>(queue_.size()) /
         static_cast<double>(std::max<size_t>(1, workers_.size()));
}

bool AdmissionController::TenantBlocked(const Ticket& t) {
  const TenantState& ts = TenantOf(t.tenant);
  if (ts.quota.max_concurrent > 0 && ts.running >= ts.quota.max_concurrent) {
    return true;
  }
  // Per-tenant memory cap mirrors the global one: a query too big for its
  // tenant's cap runs alone within the tenant rather than starving.
  if (ts.running > 0 &&
      ts.running_memory + t.sub.est_memory_bytes >
          ts.quota.max_estimated_memory_bytes) {
    return true;
  }
  return false;
}

bool AdmissionController::Admissible(const Ticket& t) {
  // The global memory cap gates admission; a query too big for the cap
  // runs alone rather than starving.
  if (running_ > 0 && running_memory_ + t.sub.est_memory_bytes >
                          options_.max_estimated_memory_bytes) {
    return false;
  }
  return !TenantBlocked(t);
}

AdmissionController::TicketPtr AdmissionController::PickNext() {
  if (queue_.empty()) return nullptr;
  const auto now = Now();
  // Per-class starvation guard first: the oldest queued ticket of every
  // class, once overdue, wins over any cost or fair-share ranking (most
  // overdue class first). A ticket held back only by its own tenant's
  // quota is not starved — it is saturated — and is skipped; a ticket
  // blocked by the global memory cap holds the door: admitting nothing
  // lets the pool drain until the overdue query fits (or runs alone),
  // instead of younger cheap queries starving it forever.
  std::vector<TicketPtr> overdue;
  {
    std::set<std::string> classes_seen;
    for (const TicketPtr& t : queue_) {
      if (!classes_seen.insert(t->sub.query_class).second) continue;
      const Seconds waited =
          std::chrono::duration<double>(now - t->enqueued_at).count();
      if (waited > options_.max_queue_wait) overdue.push_back(t);
    }
  }
  std::sort(overdue.begin(), overdue.end(),
            [](const TicketPtr& a, const TicketPtr& b) {
              return a->enqueued_at < b->enqueued_at;
            });
  for (const TicketPtr& t : overdue) {
    if (TenantBlocked(*t)) continue;
    return Admissible(*t) ? t : nullptr;
  }
  // Weighted fair share across tenants, cost-aware within a tenant: the
  // least virtual work picks the tenant, then shortest predicted latency,
  // then earlier deadline, then submission order. Comparing tickets by
  // the combined tuple realizes exactly that (same tenant -> same virtual
  // work -> latency decides).
  TicketPtr best;
  auto key = [&](const Ticket& x) {
    return std::make_tuple(TenantOf(x.tenant).virtual_work,
                           x.sub.est_latency, x.sub.sla_deadline, x.seq);
  };
  for (const TicketPtr& t : queue_) {
    if (!Admissible(*t)) continue;
    if (best == nullptr || key(*t) < key(*best)) best = t;
  }
  return best;
}

void AdmissionController::WorkerLoop() {
  UniqueMutexLock lock(mu_);
  while (true) {
    // Explicit wait loop (not the predicate form): the thread-safety
    // analysis treats a wait-predicate lambda as a separate unlocked
    // function, so PickNext's REQUIRES(mu_) would not typecheck inside
    // one. condition_variable_any::wait re-takes mu_ before returning.
    TicketPtr ticket;
    while (!shutdown_) {
      ticket = PickNext();
      if (ticket != nullptr) break;
      cv_.wait(lock);
    }
    if (ticket == nullptr) return;  // shutting down, nothing admitted
    queue_.erase(std::remove(queue_.begin(), queue_.end(), ticket),
                 queue_.end());
    // Did this admission jump an earlier submission?
    for (const TicketPtr& q : queue_) {
      if (q->seq < ticket->seq) {
        ++stats_.reordered;
        break;
      }
    }
    ticket->state = Ticket::State::kRunning;
    ++stats_.started;
    ++running_;
    const double memory = ticket->sub.est_memory_bytes;
    running_memory_ += memory;
    {
      TenantState& ts = TenantOf(ticket->tenant);
      ++ts.running;
      ts.running_memory += memory;
      if (ts.stats.queued > 0) --ts.stats.queued;
      ++ts.stats.admitted;
      ts.stats.admitted_work += ticket->est_latency;
      // The deficit step: this tenant just consumed est_latency of the
      // shared front door, normalized by its weight.
      ts.virtual_work +=
          ticket->est_latency / std::max(ts.quota.weight, 1e-9);
      if (options_.record_admissions) {
        admission_log_.push_back({ticket->tenant, ticket->sub.query_class,
                                  ticket->est_latency, ticket->seq});
      }
    }
    // Move the closure out while still locked; Ticket fields are guarded
    // by mu_ and must not be touched while running unlocked.
    RunFn run = std::move(ticket->sub.run);
    lock.unlock();
    run();
    lock.lock();
    ticket->state = Ticket::State::kDone;
    // The closures captured the owner's state; dropping them here breaks
    // the owner -> ticket -> closure -> owner reference cycle so
    // completed submissions free their plans and undrained chunks.
    ticket->sub = Submission();
    ++stats_.completed;
    --running_;
    running_memory_ -= memory;
    {
      TenantState& ts = TenantOf(ticket->tenant);
      if (ts.running > 0) --ts.running;
      ts.running_memory -= memory;
      ++ts.stats.completed;
    }
    ClientPace* client = ticket->client.get();
    if (client != nullptr) {
      --client->outstanding;
      client->finished_one = true;
      client->last_finish = std::chrono::steady_clock::now();
    }
    done_cv_.notify_all();
    // A slot and its memory just freed up: other workers may now have an
    // admissible ticket.
    cv_.notify_all();
    // Anticipation (see the class comment): a closed-loop client that is
    // now waiting on nothing measurably resubmits within the window, so
    // while other tickets wait, hold this slot until its follow-up
    // arrives or the window has passed.
    if (client != nullptr && client->outstanding == 0 && !queue_.empty() &&
        client->resubmit_gap < kAnticipationWindow) {
      ++stats_.anticipated;
      const uint64_t seen = client->submissions;
      const auto until =
          client->last_finish +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(kAnticipationWindow));
      while (!shutdown_ && client->submissions == seen &&
             cv_.wait_until(lock, until) == std::cv_status::no_timeout) {
      }
    }
  }
}

}  // namespace costdb
