#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "admission_testing.h"
#include "cloud/pricing.h"
#include "service/session.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

// ===================================================================
// Fair-share scheduling on the raw controller. Every test pins
// max_concurrent = 1 (or gates runs on a future) so the admission order
// is a pure function of the submissions — schedule-exact, no sleeps.
// ===================================================================

AdmissionController::Submission Instant(const std::string& tenant,
                                        Seconds est_latency,
                                        const std::string& query_class = "") {
  AdmissionController::Submission sub;
  sub.tenant = tenant;
  sub.query_class = query_class;
  sub.est_latency = est_latency;
  sub.run = [] {};
  return sub;
}

// Admission order by tenant, with anonymous-tenant entries (the slot
// blocker) dropped.
std::vector<std::string> LoggedTenants(const AdmissionController& controller) {
  std::vector<std::string> out;
  for (const auto& e : controller.admission_log()) {
    if (!e.tenant.empty()) out.push_back(e.tenant);
  }
  return out;
}

TEST(TenantFairShareTest, FairShareRoundRobinAcrossEqualTenants) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.record_admissions = true;
  AdmissionController controller(opts);
  SlotBlocker blocker(&controller);

  std::vector<AdmissionController::TicketPtr> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(controller.Submit(Instant("A", 1.0)));
  for (int i = 0; i < 3; ++i) tickets.push_back(controller.Submit(Instant("B", 1.0)));
  blocker.Release();
  for (const auto& t : tickets) controller.Await(t);

  // Tenant B submitted after all of A's queries, yet the deficit counter
  // interleaves them strictly: A consumed the slot once, so B's virtual
  // work is lower until B consumes it too.
  EXPECT_EQ(LoggedTenants(controller),
            (std::vector<std::string>{"A", "B", "A", "B", "A", "B"}));
}

TEST(TenantFairShareTest, WeightedTenantsShareProportionally) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.record_admissions = true;
  opts.tenant_quotas["t1"].weight = 1.0;
  // A power-of-two weight keeps the virtual-work steps exact in binary,
  // so the expected admission schedule has no rounding slack.
  opts.tenant_quotas["t2"].weight = 2.0;
  AdmissionController controller(opts);
  SlotBlocker blocker(&controller);

  std::vector<AdmissionController::TicketPtr> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(controller.Submit(Instant("t1", 1.0)));
  for (int i = 0; i < 6; ++i) tickets.push_back(controller.Submit(Instant("t2", 1.0)));
  blocker.Release();
  for (const auto& t : tickets) controller.Await(t);

  // Weight 2 admits 2x the work while both queues are non-empty: the
  // admission stream is t1,(t2 x2) repeating.
  const auto order = LoggedTenants(controller);
  ASSERT_EQ(order.size(), 9u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i % 3 == 0 ? "t1" : "t2") << "position " << i;
  }
  auto stats = controller.tenant_stats();
  EXPECT_DOUBLE_EQ(stats["t1"].admitted_work, 3.0);
  EXPECT_DOUBLE_EQ(stats["t2"].admitted_work, 6.0);
  EXPECT_DOUBLE_EQ(stats["t2"].weight, 2.0);
}

TEST(TenantFairShareTest, LatecomerTenantDoesNotMonopolize) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.record_admissions = true;
  AdmissionController controller(opts);

  std::promise<void> gate;
  auto gate_future = std::shared_future<void>(gate.get_future());
  AdmissionController::Submission first = Instant("A", 1.0);
  first.run = [gate_future] { gate_future.wait(); };
  auto a1 = controller.Submit(std::move(first));
  while (controller.state(a1) !=
         AdmissionController::Ticket::State::kRunning) {
    std::this_thread::yield();
  }
  // A has consumed 1.0 of virtual work; C joins now with an empty
  // counter. The join rule aligns C to A's virtual time instead of
  // letting C's zero counter win every pick until it "catches up".
  std::vector<AdmissionController::TicketPtr> tickets;
  tickets.push_back(controller.Submit(Instant("A", 1.0)));
  tickets.push_back(controller.Submit(Instant("A", 1.0)));
  for (int i = 0; i < 3; ++i) tickets.push_back(controller.Submit(Instant("C", 1.0)));
  gate.set_value();
  for (const auto& t : tickets) controller.Await(t);
  controller.Await(a1);

  // Aligned, the tenants alternate from parity (ties go to the earlier
  // submission): A1, A2, C1, A3, C2, C3. A zero-initialized C would have
  // jumped the whole of A's queue: A1, C1, A2, C2, A3, C3.
  const auto order = LoggedTenants(controller);
  EXPECT_EQ(order,
            (std::vector<std::string>{"A", "A", "C", "A", "C", "C"}));
}

TEST(TenantFairShareTest, PerTenantConcurrencyQuotaHolds) {
  AdmissionOptions opts;
  opts.max_concurrent = 4;
  opts.tenant_quotas["small"].max_concurrent = 1;
  AdmissionController controller(opts);

  std::promise<void> gate;
  auto gate_future = std::shared_future<void>(gate.get_future());
  std::vector<AdmissionController::TicketPtr> tickets;
  for (int i = 0; i < 3; ++i) {
    AdmissionController::Submission sub = Instant("small", 1.0);
    sub.run = [gate_future] { gate_future.wait(); };
    tickets.push_back(controller.Submit(std::move(sub)));
  }
  // One admitted, two held by the tenant quota — despite 3 free global
  // slots.
  while (controller.tenant_stats()["small"].running < 1) {
    std::this_thread::yield();
  }
  for (int spin = 0; spin < 200; ++spin) {
    auto stats = controller.stats();
    EXPECT_EQ(stats.started, 1u);
    std::this_thread::yield();
  }
  EXPECT_EQ(controller.queued(), 2u);
  gate.set_value();
  for (const auto& t : tickets) controller.Await(t);
  EXPECT_EQ(controller.tenant_stats()["small"].completed, 3u);
}

TEST(TenantFairShareTest, PerTenantMemoryQuotaSerializesBigQueries) {
  AdmissionOptions opts;
  opts.max_concurrent = 4;
  opts.tenant_quotas["mem"].max_estimated_memory_bytes = 100.0;
  AdmissionController controller(opts);

  std::promise<void> gate;
  auto gate_future = std::shared_future<void>(gate.get_future());
  std::vector<AdmissionController::TicketPtr> tickets;
  for (int i = 0; i < 2; ++i) {
    AdmissionController::Submission sub = Instant("mem", 1.0);
    sub.est_memory_bytes = 80.0;  // 80 + 80 > 100: never together
    sub.run = [gate_future] { gate_future.wait(); };
    tickets.push_back(controller.Submit(std::move(sub)));
  }
  while (controller.tenant_stats()["mem"].running < 1) {
    std::this_thread::yield();
  }
  for (int spin = 0; spin < 200; ++spin) {
    EXPECT_EQ(controller.stats().started, 1u);
    std::this_thread::yield();
  }
  gate.set_value();
  for (const auto& t : tickets) controller.Await(t);

  // A single query bigger than the whole tenant cap still runs — alone —
  // instead of queueing forever.
  AdmissionController::Submission oversized = Instant("mem", 1.0);
  oversized.est_memory_bytes = 500.0;
  auto big = controller.Submit(std::move(oversized));
  controller.Await(big);
  EXPECT_EQ(controller.state(big), AdmissionController::Ticket::State::kDone);
}

TEST(TenantFairShareTest, PerClassStarvationGuardPreemptsCostOrder) {
  VirtualClock clock;
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue_wait = 10.0;
  opts.clock = clock.AsClock();
  opts.record_admissions = true;
  AdmissionController controller(opts);
  SlotBlocker blocker(&controller);

  // The batch query ages past the guard; the interactive flood does not.
  auto batch = controller.Submit(Instant("T", 5.0, "batch"));
  clock.Advance(6.0);
  auto cheap1 = controller.Submit(Instant("T", 0.1, "interactive"));
  auto cheap2 = controller.Submit(Instant("T", 0.1, "interactive"));
  clock.Advance(5.0);  // batch waited 11s > 10s; interactive 5s
  controller.Poke();   // idle-worker re-evaluation after a clock jump
  blocker.Release();
  controller.Await(batch);
  controller.Await(cheap1);
  controller.Await(cheap2);

  // Cost order alone would run both 0.1s queries first; the per-class
  // guard admits the overdue batch query ahead of them.
  const auto log = controller.admission_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[1].query_class, "batch");
  EXPECT_EQ(log[2].query_class, "interactive");
  EXPECT_EQ(log[3].query_class, "interactive");
}

TEST(TenantFairShareTest, StarvationGuardSkipsQuotaSaturatedTenant) {
  VirtualClock clock;
  AdmissionOptions opts;
  opts.max_concurrent = 2;
  opts.max_queue_wait = 10.0;
  opts.clock = clock.AsClock();
  opts.tenant_quotas["X"].max_concurrent = 1;
  AdmissionController controller(opts);

  std::promise<void> gate;
  auto gate_future = std::shared_future<void>(gate.get_future());
  AdmissionController::Submission x1 = Instant("X", 0.1, "c");
  x1.run = [gate_future] { gate_future.wait(); };
  auto tx1 = controller.Submit(std::move(x1));
  while (controller.tenant_stats()["X"].running < 1) {
    std::this_thread::yield();
  }
  auto tx2 = controller.Submit(Instant("X", 0.1, "c"));
  clock.Advance(11.0);  // X2 is overdue — but X is saturated, not starved
  auto ty1 = controller.Submit(Instant("Y", 1.0, "d"));

  // The guard must not hold the free slot for X2 (its own tenant quota
  // blocks it); Y runs through.
  controller.Await(ty1);
  EXPECT_EQ(controller.state(ty1), AdmissionController::Ticket::State::kDone);
  EXPECT_EQ(controller.state(tx2),
            AdmissionController::Ticket::State::kQueued);
  gate.set_value();
  controller.Await(tx1);
  controller.Await(tx2);
  EXPECT_EQ(controller.tenant_stats()["X"].completed, 2u);
}

TEST(TenantFairShareTest, OverdueMemoryBlockedQueryHoldsTheDoor) {
  VirtualClock clock;
  AdmissionOptions opts;
  opts.max_concurrent = 2;
  opts.max_estimated_memory_bytes = 100.0;
  opts.max_queue_wait = 10.0;
  opts.clock = clock.AsClock();
  opts.record_admissions = true;
  AdmissionController controller(opts);

  std::promise<void> gate;
  auto gate_future = std::shared_future<void>(gate.get_future());
  AdmissionController::Submission g1 = Instant("A", 0.1, "big");
  g1.est_memory_bytes = 80.0;
  g1.run = [gate_future] { gate_future.wait(); };
  auto tg1 = controller.Submit(std::move(g1));
  while (controller.stats().started < 1) std::this_thread::yield();

  AdmissionController::Submission q2 = Instant("A", 1.0, "big");
  q2.est_memory_bytes = 50.0;  // 80 + 50 > 100: globally blocked
  auto tq2 = controller.Submit(std::move(q2));
  clock.Advance(11.0);  // q2 overdue, blocked by the global memory cap
  AdmissionController::Submission q3 = Instant("A", 0.1, "small");
  q3.est_memory_bytes = 10.0;  // would fit — but must not jump the door
  auto tq3 = controller.Submit(std::move(q3));
  controller.Poke();

  // Admitting q3 would keep the pool full and starve q2 forever; the
  // guard holds the free slot until the pool drains.
  for (int spin = 0; spin < 200; ++spin) {
    EXPECT_EQ(controller.stats().started, 1u);
    std::this_thread::yield();
  }
  gate.set_value();
  controller.Await(tg1);
  controller.Await(tq2);
  controller.Await(tq3);
  const auto log = controller.admission_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[1].query_class, "big") << "overdue query admitted first";
  EXPECT_EQ(log[2].query_class, "small");
}

TEST(TenantFairShareTest, SetTenantQuotaAppliesToQueuedWork) {
  AdmissionOptions opts;
  opts.max_concurrent = 2;
  opts.tenant_quotas["q"].max_concurrent = 1;
  AdmissionController controller(opts);

  std::promise<void> gate;
  auto gate_future = std::shared_future<void>(gate.get_future());
  std::vector<AdmissionController::TicketPtr> tickets;
  for (int i = 0; i < 2; ++i) {
    AdmissionController::Submission sub = Instant("q", 1.0);
    sub.run = [gate_future] { gate_future.wait(); };
    tickets.push_back(controller.Submit(std::move(sub)));
  }
  while (controller.tenant_stats()["q"].running < 1) {
    std::this_thread::yield();
  }
  EXPECT_EQ(controller.queued(), 1u);
  // Raising the quota mid-run admits the queued query immediately.
  TenantQuota raised;
  raised.max_concurrent = 2;
  controller.SetTenantQuota("q", raised);
  while (controller.tenant_stats()["q"].running < 2) {
    std::this_thread::yield();
  }
  gate.set_value();
  for (const auto& t : tickets) controller.Await(t);
  EXPECT_EQ(controller.tenant_stats()["q"].completed, 2u);
}

// ===================================================================
// Anticipation: only a client measured to resubmit right after each
// result (closed loop) has the slot its query freed held for it.
// ===================================================================

AdmissionController::Submission Paced(
    const std::shared_ptr<AdmissionController::ClientPace>& pace,
    Seconds est_latency, const std::string& query_class) {
  AdmissionController::Submission sub = Instant("t", est_latency, query_class);
  sub.client = pace;
  return sub;
}

TEST(TenantFairShareTest, BatchAndSlowClientsNeverHoldTheSlot) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  AdmissionController controller(opts);
  SlotBlocker blocker(&controller, 1);

  // A batch keeps several queries in flight, so no completion is
  // followed by a resubmission from an idle client: no gap is measured.
  auto batch = std::make_shared<AdmissionController::ClientPace>();
  std::vector<AdmissionController::TicketPtr> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(controller.Submit(Paced(batch, 1.0, "batch")));
  }
  tickets.push_back(controller.Submit(Instant("t", 2.0, "other")));
  blocker.Release();
  for (const auto& t : tickets) controller.Await(t);

  // A client whose resubmission comes long after its result arrived is
  // open-loop as far as admission can tell.
  auto slow = std::make_shared<AdmissionController::ClientPace>();
  controller.Await(controller.Submit(Paced(slow, 1.0, "slow")));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  SlotBlocker second(&controller, 1);
  auto last = controller.Submit(Paced(slow, 1.0, "slow"));
  auto other = controller.Submit(Instant("t", 2.0, "other"));
  second.Release();
  controller.Await(last);
  controller.Await(other);
  EXPECT_EQ(controller.stats().anticipated, 0u);
}

TEST(TenantFairShareTest, AnticipatedFollowUpWinsTheFreedSlot) {
  // One worker; an expensive ticket waits behind a closed-loop client's
  // running query. The client resubmits a cheap query as soon as its
  // result arrives. A worker that picked at once would admit the
  // expensive ticket first; holding the slot for the measured client
  // lets the cost ordering admit the follow-up. Wake-ups are real
  // scheduling, so the test asks for a clear majority of rounds.
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.record_admissions = true;
  AdmissionController controller(opts);
  auto pace = std::make_shared<AdmissionController::ClientPace>();
  // Warm-up round trip: measures the client's resubmit gap.
  controller.Await(controller.Submit(Paced(pace, 1.0, "warm")));
  controller.Await(controller.Submit(Paced(pace, 1.0, "warm")));

  // The client never waits on anything but its own results, so every
  // gap admission measures is its own turnaround. An expensive ticket
  // that lost to the follow-up stays queued into the next round.
  constexpr int kRounds = 20;
  int follow_up_first = 0;
  AdmissionController::TicketPtr expensive;
  for (int round = 0; round < kRounds; ++round) {
    std::promise<void> gate;
    auto gate_future = std::shared_future<void>(gate.get_future());
    AdmissionController::Submission client = Paced(pace, 1.0, "client");
    client.run = [gate_future] { gate_future.wait(); };
    auto running = controller.Submit(std::move(client));
    while (controller.state(running) !=
           AdmissionController::Ticket::State::kRunning) {
      std::this_thread::yield();
    }
    if (expensive == nullptr || controller.state(expensive) !=
                                    AdmissionController::Ticket::State::kQueued) {
      expensive = controller.Submit(Instant("t", 5.0, "expensive"));
    }
    gate.set_value();
    controller.Await(running);
    controller.Await(controller.Submit(Paced(pace, 0.5, "follow_up")));
    // The follow-up won iff it was admitted right after the client's
    // query, ahead of the queued expensive ticket.
    const auto log = controller.admission_log();
    size_t f = log.size() - 1;
    while (log[f].query_class != "follow_up") --f;
    ASSERT_GE(f, 1u);
    if (log[f - 1].query_class == "client") ++follow_up_first;
  }
  EXPECT_GE(follow_up_first, kRounds * 3 / 4);
  EXPECT_GT(controller.stats().anticipated, 0u);
}

// ===================================================================
// Result cache + tenant billing through the full Session/Database
// stack.
// ===================================================================

DatabaseOptions TenantDbOptions() {
  DatabaseOptions opts;
  opts.exec_threads = 4;
  opts.enable_calibration = false;
  opts.enable_result_cache = true;
  return opts;
}

std::unique_ptr<Database> MakeSsbDatabase(DatabaseOptions opts) {
  auto db = std::make_unique<Database>(opts);
  SsbOptions data;
  data.scale = 0.01;
  data.row_group_size = 256;
  LoadSsb(db->meta(), data);
  return db;
}

int64_t SingleInt(const QueryResult& r) {
  EXPECT_EQ(r.chunk.num_rows(), 1u);
  return r.chunk.column(0).GetInt(0);
}

TEST(ResultCacheTest, RepeatedPreparedStatementCostsOneExecution) {
  auto db = MakeSsbDatabase(TenantDbOptions());
  Session session(db.get());
  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  auto first = session.Execute(*stmt, {Value(int64_t{25})});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->result_cache_hit);
  auto second = session.Execute(*stmt, {Value(int64_t{25})});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cache_hit);
  EXPECT_EQ(SingleInt(first->result), SingleInt(second->result));

  // A different parameter vector is a different result — must miss.
  auto other = session.Execute(*stmt, {Value(int64_t{30})});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->result_cache_hit);
  EXPECT_NE(SingleInt(other->result), SingleInt(first->result));

  auto stats = db->result_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  DatabaseOptions opts = TenantDbOptions();
  // Each cached result here is one int64 row = 8 payload bytes; a 20-byte
  // budget holds two entries, and the entry cap stays out of the way.
  opts.result_cache_max_entries = 256;
  opts.result_cache_max_bytes = 20;
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());
  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  auto run = [&](int64_t q) {
    auto r = session.Execute(*stmt, {Value(q)});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->result_cache_hit;
  };

  EXPECT_FALSE(run(10));  // cache: {10}, 8 bytes
  EXPECT_FALSE(run(11));  // cache: {10, 11}, 16 bytes
  auto stats = db->result_cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 16u);
  EXPECT_EQ(stats.evictions, 0u);

  // Third entry pushes past the 20-byte budget: the least-recently-used
  // (10) is evicted, the newer two stay.
  EXPECT_FALSE(run(12));
  stats = db->result_cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 16u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(run(10));  // evicted — a miss that re-executes (evicts 11)
  EXPECT_TRUE(run(12));   // survived as the most recent at the time

  // A hit refreshes recency: touch 12, then insert a new entry — the
  // eviction must take 10, not the just-touched 12.
  EXPECT_FALSE(run(13));
  EXPECT_TRUE(run(12));
  EXPECT_FALSE(run(14));
  EXPECT_TRUE(run(12));
  stats = db->result_cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, opts.result_cache_max_bytes);

  // ClearResultCache resets the byte ledger with the entries.
  db->ClearResultCache();
  stats = db->result_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ResultCacheTest, LayoutVersionBumpInvalidates) {
  auto db = MakeSsbDatabase(TenantDbOptions());
  Session session(db.get());
  const std::string sql = "SELECT count(*) AS n FROM supplier";
  auto first = session.ExecuteSql(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const int64_t before = SingleInt(first->result);

  // Physically change the scanned table: append one (copied) row.
  auto table = db->meta()->GetTable("supplier");
  ASSERT_TRUE(table.ok());
  DataChunk all = (*table)->Scan();
  DataChunk one(all.Types());
  one.AppendRowFrom(all, 0);
  (*table)->Append(one);

  auto second = session.ExecuteSql(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->result_cache_hit)
      << "stale rows served after a layout change";
  EXPECT_EQ(SingleInt(second->result), before + 1);
  EXPECT_GE(db->result_cache_stats().invalidations, 1u);
}

TEST(ResultCacheTest, CalibrationVersionBumpInvalidates) {
  DatabaseOptions opts = TenantDbOptions();
  opts.enable_calibration = true;  // the bump under test
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());
  const std::string sql = FindQuery("Q3").sql;
  const int version_before = db->calibration_version();
  auto first = session.ExecuteSql(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(db->calibration_version(), version_before)
      << "test premise: the warm-up run must move the calibration";
  auto second = session.ExecuteSql(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->result_cache_hit)
      << "rows produced under a stale calibration were served";
  EXPECT_GE(db->result_cache_stats().invalidations, 1u);
  EXPECT_EQ(db->result_cache_stats().hits, 0u);
}

TEST(ResultCacheTest, SingleFlightUnder16ConcurrentIdenticalSubmits) {
  auto db = MakeSsbDatabase(TenantDbOptions());
  SessionOptions session_opts;
  session_opts.tenant_id = "hot";
  Session session(db.get(), session_opts);
  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?");
  ASSERT_TRUE(stmt.ok());

  std::vector<QueryHandlePtr> handles;
  for (int i = 0; i < 16; ++i) {
    auto handle = session.Submit(*stmt, {Value(int64_t{25})});
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(std::move(*handle));
  }
  int64_t expected = -1;
  for (auto& handle : handles) {
    auto taken = handle->Take();
    ASSERT_TRUE(taken.ok()) << taken.status().ToString();
    const int64_t n = SingleInt(taken->result);
    if (expected < 0) expected = n;
    EXPECT_EQ(n, expected);
  }
  // The proof of single-flight: one leader executed, 15 were served.
  auto stats = db->result_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 15u);
  auto bill = db->tenant_billing()["hot"];
  EXPECT_EQ(bill.runs, 16u);
  EXPECT_EQ(bill.result_cache_hits, 15u);
}

// Every counter transition of both caches in one deterministic sequence:
// misses, hits, invalidations on a calibration bump and on a layout bump,
// and evictions at the entry cap. Runs skip the automatic feedback round,
// so the one explicit CalibrateExecution below makes the only bump.
TEST(ResultCacheTest, CounterTransitionsOfBothCaches) {
  DatabaseOptions opts = TenantDbOptions();
  opts.enable_calibration = true;
  opts.result_cache_max_entries = 2;
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());
  Session::SubmitOptions no_feedback;
  no_feedback.calibrate = false;
  auto run = [&](const std::string& sql) -> Result<ExecutionResult> {
    QueryHandlePtr handle;
    COSTDB_ASSIGN_OR_RETURN(handle, session.Submit(sql, no_feedback));
    return handle->Take();
  };
  auto plan_counters = [&] {
    const Database::CacheStats s = db->plan_cache_stats();
    return std::vector<size_t>{s.hits, s.misses, s.invalidations, s.entries};
  };
  auto result_counters = [&] {
    const Database::ResultCacheStats s = db->result_cache_stats();
    return std::vector<size_t>{s.hits,      s.misses,  s.invalidations,
                               s.evictions, s.entries, s.bytes};
  };
  const std::string a = "SELECT count(*) AS n FROM supplier";
  const std::string b = a + " WHERE s_suppkey < 5";
  const std::string c = a + " WHERE s_suppkey < 6";

  auto first = run(a);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(run(a).ok());
  EXPECT_EQ(plan_counters(), (std::vector<size_t>{1, 1, 0, 1}));
  EXPECT_EQ(result_counters(), (std::vector<size_t>{1, 1, 0, 0, 1, 8}));

  // A calibration bump invalidates both entries on their next lookup.
  const int version_before = db->calibration_version();
  db->CalibrateExecution(&*first);
  ASSERT_GT(db->calibration_version(), version_before)
      << "test premise: the first observed run must move the calibration";
  ASSERT_TRUE(run(a).ok());
  EXPECT_EQ(plan_counters(), (std::vector<size_t>{1, 2, 1, 1}));
  EXPECT_EQ(result_counters(), (std::vector<size_t>{1, 2, 1, 0, 1, 8}));

  // So does a layout bump of the scanned table.
  auto table = db->meta()->GetTable("supplier");
  ASSERT_TRUE(table.ok());
  DataChunk all = (*table)->Scan();
  DataChunk one(all.Types());
  one.AppendRowFrom(all, 0);
  (*table)->Append(one);
  ASSERT_TRUE(run(a).ok());
  EXPECT_EQ(plan_counters(), (std::vector<size_t>{1, 3, 2, 1}));
  EXPECT_EQ(result_counters(), (std::vector<size_t>{1, 3, 2, 0, 1, 8}));

  // The entry cap evicts the least recently used result; the plan cache
  // has no cap.
  ASSERT_TRUE(run(b).ok());
  ASSERT_TRUE(run(c).ok());
  EXPECT_EQ(plan_counters(), (std::vector<size_t>{1, 5, 2, 3}));
  EXPECT_EQ(result_counters(), (std::vector<size_t>{1, 5, 2, 1, 2, 16}));
  auto again = run(a);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cache_hit);
  EXPECT_FALSE(again->result_cache_hit) << "evicted rows were served";
  EXPECT_EQ(plan_counters(), (std::vector<size_t>{2, 5, 2, 3}));
  EXPECT_EQ(result_counters(), (std::vector<size_t>{1, 6, 2, 2, 2, 16}));
}

TEST(ResultCacheTest, NewestEntrySurvivesTheByteBudget) {
  DatabaseOptions opts = TenantDbOptions();
  opts.result_cache_max_bytes = 4;  // below one 8-byte result
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());
  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto run = [&](int64_t q) {
    auto r = session.Execute(*stmt, {Value(q)});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->result_cache_hit;
  };

  // An over-budget result stays cached as long as it is the newest.
  EXPECT_FALSE(run(10));
  auto stats = db->result_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 8u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_TRUE(run(10));

  // The next insert evicts it and stays in its place.
  EXPECT_FALSE(run(11));
  stats = db->result_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 8u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_TRUE(run(11));
  EXPECT_FALSE(run(10));
}

TEST(ResultCacheTest, CacheHitBilledAtCacheRate) {
  DatabaseOptions opts = TenantDbOptions();
  opts.pricing.result_cache_hit_factor = 0.25;
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());

  const std::string sql = FindQuery("Q3").sql;
  auto first = session.ExecuteSql(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const Dollars spent_after_run = session.spent();

  auto second = session.ExecuteSql(sql);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->result_cache_hit);
  // The hit reserved the plan estimate like any run, then settled to the
  // cache rate: the marginal spend is exactly 25% of the reservation.
  const Dollars reserved = second->plan->estimate.cost;
  ASSERT_GT(reserved, 0.0);
  EXPECT_NEAR(second->billed_dollars, 0.25 * reserved, 1e-12);
  EXPECT_NEAR(session.spent() - spent_after_run, 0.25 * reserved, 1e-12);
}

// ===================================================================
// Ledger properties (run under TSAN in CI).
// ===================================================================

TEST(TenantLedgerTest, ZeroBudgetRejectsBeforeAdmission) {
  DatabaseOptions opts = TenantDbOptions();
  auto db = MakeSsbDatabase(opts);
  db->meta()->SetVirtualScale("lineorder", 1e5);
  SessionOptions broke;
  broke.budget = 0.0;
  Session session(db.get(), broke);
  auto refused = session.Submit(FindQuery("Q3").sql);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted())
      << refused.status().ToString();
  EXPECT_EQ(session.spent(), 0.0);
  EXPECT_EQ(db->admission()->stats().submitted, 0u)
      << "a budget-rejected query must never reach the admission queue";
}

TEST(TenantLedgerTest, CancelReleasesTheFullReservation) {
  DatabaseOptions opts = TenantDbOptions();
  opts.admission.max_concurrent = 1;
  auto db = MakeSsbDatabase(opts);
  db->meta()->SetVirtualScale("lineorder", 1e5);
  Session session(db.get());
  SlotBlocker blocker(db.get());
  auto handle = session.Submit(FindQuery("Q3").sql);
  ASSERT_TRUE(handle.ok());
  ASSERT_GT(session.spent(), 0.0) << "submission must reserve its estimate";
  ASSERT_TRUE((*handle)->Cancel());
  EXPECT_TRUE((*handle)->Wait().IsCancelled());
  EXPECT_EQ(session.spent(), 0.0)
      << "a cancelled query must release its whole reservation";
}

TEST(TenantLedgerTest, ConcurrentCancelsNeverDoubleRelease) {
  DatabaseOptions opts = TenantDbOptions();
  opts.admission.max_concurrent = 1;
  auto db = MakeSsbDatabase(opts);
  db->meta()->SetVirtualScale("lineorder", 1e5);
  Session session(db.get());

  // A settled baseline spend, so a double-release would drive spent()
  // below it instead of being masked by the zero clamp.
  auto warm = session.ExecuteSql("SELECT count(*) AS n FROM supplier");
  ASSERT_TRUE(warm.ok());
  const Dollars baseline = session.spent();
  ASSERT_GT(baseline, 0.0);

  SlotBlocker blocker(db.get());
  std::vector<QueryHandlePtr> handles;
  for (int i = 0; i < 6; ++i) {
    auto handle = session.Submit(FindQuery("Q3").sql);
    ASSERT_TRUE(handle.ok());
    handles.push_back(std::move(*handle));
  }
  ASSERT_GT(session.spent(), baseline);

  // Four threads race to cancel every handle; each reservation must be
  // released exactly once.
  std::atomic<int> cancelled{0};
  std::vector<std::thread> racers;
  for (int t = 0; t < 4; ++t) {
    racers.emplace_back([&] {
      for (auto& handle : handles) {
        if (handle->Cancel()) ++cancelled;
      }
    });
  }
  for (auto& racer : racers) racer.join();
  for (auto& handle : handles) {
    EXPECT_TRUE(handle->Wait().IsCancelled());
  }
  EXPECT_EQ(cancelled.load(), 6);
  EXPECT_NEAR(session.spent(), baseline, 1e-12)
      << "refunds were lost or applied twice";
}

// ===================================================================
// Tiered volume pricing + cross-tenant isolation.
// ===================================================================

TEST(TenantBillingTest, TieredVolumePricingFoldsPerTenant) {
  DatabaseOptions opts = TenantDbOptions();
  opts.enable_result_cache = false;  // every run consumes machine time
  // Tiny tier boundaries (runs take milliseconds): the first 2ms of
  // compute at a premium, everything after at a discount.
  opts.pricing.compute_second_tiers = {{0.002, 10.0}, {1.0, 1.0}};
  auto db = MakeSsbDatabase(opts);
  SessionOptions acme;
  acme.tenant_id = "acme";
  Session session(db.get(), acme);

  for (int i = 0; i < 4; ++i) {
    auto run = session.ExecuteSql(FindQuery("Q3").sql);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
  }
  const auto bill = db->tenant_billing()["acme"];
  EXPECT_EQ(bill.runs, 4u);
  ASSERT_GT(bill.machine_seconds, 0.0);
  // Per-run marginal tiered charges telescope to one fold over the
  // tenant's total consumption — the gacspp-style price-level identity.
  EXPECT_NEAR(bill.dollars,
              TieredCost(0.0, bill.machine_seconds,
                         opts.pricing.compute_second_tiers,
                         db->node_type().price_per_second()),
              1e-9);
  // The session ledger settled every reservation to the tiered bill.
  EXPECT_NEAR(session.spent(), bill.dollars, 1e-9);
}

TEST(TenantBillingTest, ZeroCrossTenantBudgetBleed) {
  DatabaseOptions opts = TenantDbOptions();
  opts.pricing.compute_second_tiers = {{0.002, 10.0}, {1.0, 1.0}};
  auto db = MakeSsbDatabase(opts);
  SessionOptions a_opts;
  a_opts.tenant_id = "A";
  SessionOptions b_opts;
  b_opts.tenant_id = "B";
  Session a(db.get(), a_opts);
  Session b(db.get(), b_opts);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(a.ExecuteSql(FindQuery("Q3").sql).ok());
  }
  const auto bill_a = db->tenant_billing()["A"];
  const Dollars spent_a = a.spent();

  // B's activity (including hitting A-warmed caches) must not move A's
  // bill or A's ledger by a cent.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(b.ExecuteSql(FindQuery("Q3").sql).ok());
    ASSERT_TRUE(b.ExecuteSql("SELECT count(*) AS n FROM supplier").ok());
  }
  const auto after = db->tenant_billing();
  EXPECT_EQ(after.at("A").runs, bill_a.runs);
  EXPECT_EQ(after.at("A").dollars, bill_a.dollars);
  EXPECT_EQ(after.at("A").machine_seconds, bill_a.machine_seconds);
  EXPECT_EQ(a.spent(), spent_a);
  EXPECT_GT(after.at("B").runs, 0u);
  // Each tenant's ledger spend equals its own bill — conservation, no
  // bleed in either direction.
  EXPECT_NEAR(b.spent(), after.at("B").dollars, 1e-9);
}

}  // namespace
}  // namespace costdb
