#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "admission_testing.h"
#include "service/session.h"
#include "sql/shape.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

DatabaseOptions SmallDbOptions() {
  DatabaseOptions opts;
  opts.exec_threads = 4;
  return opts;
}

std::unique_ptr<Database> MakeSsbDatabase(
    DatabaseOptions opts = SmallDbOptions()) {
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

// -------------------------------------------------------- shape normalizer

TEST(StatementShapeTest, WhitespaceAndKeywordCaseFold) {
  const std::string a = NormalizeStatementShape(
      "select c_nation from customer where c_region = 'ASIA';");
  const std::string b = NormalizeStatementShape(
      "SELECT c_nation\n  FROM customer\tWHERE c_region = 'ASIA'");
  EXPECT_EQ(a, b);
  // Identifier case is load-bearing and must survive.
  EXPECT_NE(NormalizeStatementShape("SELECT c_nation FROM customer"),
            NormalizeStatementShape("SELECT C_NATION FROM customer"));
  // Literal values distinguish shapes (a literal is not a placeholder).
  EXPECT_NE(NormalizeStatementShape("SELECT 1 FROM t"),
            NormalizeStatementShape("SELECT 2 FROM t"));
  // Numerically identical floats agree.
  EXPECT_EQ(NormalizeStatementShape("SELECT 1.50 FROM t"),
            NormalizeStatementShape("SELECT 1.5 FROM t"));
}

TEST(SessionTest, ShapeNormalizedSqlHitsThePlanCache) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());
  auto first = session.ExecuteSql(
      "select count(*) as n from lineorder where lo_quantity < 25");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->plan_cache_hit);
  auto second = session.ExecuteSql(
      "SELECT count(*) AS n\n   FROM lineorder  WHERE lo_quantity < 25;");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit)
      << "whitespace/keyword-case variant missed the cache";
  EXPECT_EQ(SingleInt(first->result), SingleInt(second->result));
}

// ------------------------------------------------------ prepared statements

TEST(SessionTest, PreparedStatementBindsParameters) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());

  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ((*stmt)->param_count(), 1u);
  EXPECT_EQ((*stmt)->param_types()[0], LogicalType::kInt64);

  for (int64_t threshold : {10, 25, 40}) {
    auto via_param = session.Execute(*stmt, {Value(threshold)});
    ASSERT_TRUE(via_param.ok()) << via_param.status().ToString();
    auto via_literal = session.ExecuteSql(
        "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < " +
        std::to_string(threshold));
    ASSERT_TRUE(via_literal.ok());
    EXPECT_EQ(SingleInt(via_param->result), SingleInt(via_literal->result))
        << "threshold " << threshold;
  }
}

TEST(SessionTest, PreparedStatementInfersTypesAcrossClauses) {
  auto db = MakeSsbDatabase();
  Session session(db.get());
  // String placeholder (dimension filter), int placeholders (BETWEEN),
  // double placeholder (fact measure) in one statement.
  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder, supplier "
      "WHERE lo_suppkey = s_suppkey AND s_region = ? "
      "AND lo_discount BETWEEN ? AND ? AND lo_extendedprice > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& types = (*stmt)->param_types();
  ASSERT_EQ(types.size(), 4u);
  EXPECT_EQ(types[0], LogicalType::kVarchar);
  EXPECT_EQ(types[1], LogicalType::kInt64);
  EXPECT_EQ(types[2], LogicalType::kInt64);
  EXPECT_EQ(types[3], LogicalType::kDouble);

  auto run = session.Execute(
      *stmt, {Value(std::string("ASIA")), Value(int64_t{1}), Value(int64_t{5}),
              Value(100.0)});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GE(SingleInt(run->result), 0);
}

TEST(SessionTest, PreparedStatementNullParameterMatchesNothing) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());
  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?");
  ASSERT_TRUE(stmt.ok());
  // SQL three-valued logic: a comparison with NULL selects no rows.
  auto run = session.Execute(*stmt, {Value::Null()});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(SingleInt(run->result), 0);
}

TEST(SessionTest, PreparedStatementArityAndTypeErrors) {
  auto db = MakeSsbDatabase();
  Session session(db.get());
  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?");
  ASSERT_TRUE(stmt.ok());

  auto no_args = session.Execute(*stmt, {});
  EXPECT_TRUE(no_args.status().IsInvalidArgument());
  auto too_many = session.Execute(*stmt, {Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_TRUE(too_many.status().IsInvalidArgument());
  auto wrong_type = session.Execute(*stmt, {Value(std::string("wat"))});
  EXPECT_TRUE(wrong_type.status().IsInvalidArgument());
  // A double does not silently truncate into an int slot.
  auto truncating = session.Execute(*stmt, {Value(2.5)});
  EXPECT_TRUE(truncating.status().IsInvalidArgument());

  // Unanchorable placeholder fails at Prepare, not at Execute.
  auto unanchored = session.Prepare(
      "SELECT count(*) AS n FROM lineorder WHERE ? = ?");
  EXPECT_TRUE(unanchored.status().IsInvalidArgument());
}

TEST(SessionTest, HundredParameterVectorsPlanExactlyOnce) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;  // keep the calibration version fixed
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());

  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?");
  ASSERT_TRUE(stmt.ok());
  int64_t last = -1;
  for (int i = 0; i < 100; ++i) {
    auto run = session.Execute(*stmt, {Value(int64_t{i})});
    ASSERT_TRUE(run.ok()) << i << ": " << run.status().ToString();
    int64_t n = SingleInt(run->result);
    EXPECT_GE(n, last) << "count must grow with the threshold";
    last = n;
  }
  // The acceptance bar: one optimizer run, ≥99 cache hits.
  EXPECT_EQ((*stmt)->times_planned(), 1u);
  EXPECT_EQ((*stmt)->executions(), 100u);
  auto cache = db->plan_cache_stats();
  EXPECT_GE(cache.hits, 99u) << "hits=" << cache.hits
                             << " misses=" << cache.misses;
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_GE(session.stats().replans_avoided, 99u);
}

TEST(SessionTest, CalibrationMoveInvalidatesPreparedPlan) {
  auto db = MakeSsbDatabase();  // calibration ON
  Session session(db.get());
  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?");
  ASSERT_TRUE(stmt.ok());
  const int version_before = db->calibration_version();
  auto first = session.Execute(*stmt, {Value(int64_t{25})});
  ASSERT_TRUE(first.ok());
  // The first real run on this machine moves the calibration far from the
  // modeled cloud node, bumping the version...
  ASSERT_GT(db->calibration_version(), version_before)
      << "expected the warm-up run to move the calibration";
  // ...so the next Execute must replan instead of serving the stale plan.
  auto second = session.Execute(*stmt, {Value(int64_t{25})});
  ASSERT_TRUE(second.ok());
  EXPECT_GE((*stmt)->times_planned(), 2u);
  EXPECT_GE(db->plan_cache_stats().invalidations, 1u);
}

TEST(SessionTest, PreparedStatementsShareTheCacheAcrossSessions) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  auto db = MakeSsbDatabase(opts);
  Session a(db.get());
  Session b(db.get());
  const std::string sql =
      "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?";
  auto stmt_a = a.Prepare(sql);
  ASSERT_TRUE(stmt_a.ok());
  auto stmt_b = b.Prepare(sql);  // same shape: planned once, shared
  ASSERT_TRUE(stmt_b.ok());
  EXPECT_EQ((*stmt_a)->times_planned(), 1u);
  EXPECT_EQ((*stmt_b)->times_planned(), 0u);
  EXPECT_EQ((*stmt_b)->reuses(), 1u);
  EXPECT_EQ(db->plan_cache_stats().misses, 1u);
}

// ------------------------------------------------------------ budget ledger

TEST(SessionTest, ConcurrentSessionsSpendDisjointBudgets) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  auto db = MakeSsbDatabase(opts);
  // Make estimated bills visible: pretend the fact table is warehouse-size.
  db->meta()->SetVirtualScale("lineorder", 1e5);

  SessionOptions rich;
  rich.budget = 1e9;
  SessionOptions poor;
  poor.budget = 1e-9;
  Session alice(db.get(), rich);
  Session bob(db.get(), poor);

  const std::string sql = FindQuery("Q7").sql;
  auto ok = alice.ExecuteSql(sql);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(alice.spent(), 0.0);

  auto refused = bob.ExecuteSql(sql);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted())
      << refused.status().ToString();
  EXPECT_EQ(bob.spent(), 0.0) << "a refused query must not charge the ledger";

  // Alice's ledger is hers alone: Bob's refusal did not touch it, and her
  // remaining budget reflects only her own spending.
  EXPECT_NEAR(alice.budget_remaining(), 1e9 - alice.spent(), 1e-6);

  // Concurrent spending stays disjoint.
  std::atomic<int> alice_ok{0};
  std::atomic<int> bob_refused{0};
  std::thread ta([&] {
    for (int i = 0; i < 3; ++i) {
      if (alice.ExecuteSql(FindQuery("Q3").sql).ok()) ++alice_ok;
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < 3; ++i) {
      if (bob.ExecuteSql(FindQuery("Q3").sql).status().IsResourceExhausted()) {
        ++bob_refused;
      }
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(alice_ok.load(), 3);
  EXPECT_EQ(bob_refused.load(), 3);
  EXPECT_EQ(bob.spent(), 0.0);
}

// -------------------------------------------------------------------- Take

TEST(SessionTest, TakeMaterializesUnfetchedStream) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());

  // A multi-morsel scan, an aggregation, and a sorted LIMIT query cover
  // the three result-pipeline shapes (scan source, breaker source, limit
  // truncation).
  const std::vector<std::string> queries = {
      "SELECT lo_quantity, lo_discount FROM lineorder WHERE lo_quantity < 30",
      FindQuery("Q3").sql,
      "SELECT lo_shipmode, sum(lo_revenue) AS rev FROM lineorder "
      "GROUP BY lo_shipmode ORDER BY rev DESC LIMIT 3",
  };
  for (const auto& sql : queries) {
    auto materialized = session.ExecuteSql(sql);
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();

    auto handle = session.Submit(sql);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    auto taken = (*handle)->Take();
    ASSERT_TRUE(taken.ok()) << taken.status().ToString();
    EXPECT_GT(taken->result.chunk.num_rows(), 0u) << sql;
    EXPECT_EQ(taken->result.chunk.num_rows(),
              materialized->result.chunk.num_rows())
        << sql;
    EXPECT_EQ(taken->result.chunk.ToString(1 << 20),
              materialized->result.chunk.ToString(1 << 20))
        << sql;
    EXPECT_EQ(taken->result.names, materialized->result.names) << sql;
    // The rows come with the run's profile.
    EXPECT_FALSE(taken->timings.empty()) << sql;
  }
}

TEST(SessionTest, TakeOnEmptyResultEndsCleanly) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());
  auto handle = session.Submit(
      "SELECT lo_quantity, lo_discount FROM lineorder WHERE lo_quantity < 0");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto taken = (*handle)->Take();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken->result.chunk.num_rows(), 0u);
  EXPECT_EQ(taken->result.types,
            (std::vector<LogicalType>{LogicalType::kInt64,
                                      LogicalType::kInt64}));
  EXPECT_EQ(taken->result.chunk.Types(), taken->result.types);
}

/// Threads alive in this process (-1 where /proc/self/task is missing).
int LiveThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) ++n;
  return n;
}

TEST(SessionTest, SubmitCreatesNoThreadsAfterWarmUp) {
  // Every query runs on helpers from the one process-wide pool, local and
  // sharded alike: once a warm-up query has built the pool, no
  // Submit/Take round may add (or leak) a thread.
  auto db = MakeSsbDatabase();
  Session session(db.get());
  const std::string sql =
      "SELECT lo_shipmode, count(*) AS n, sum(lo_revenue) AS rev "
      "FROM lineorder GROUP BY lo_shipmode";
  auto reference = session.ExecuteSql(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto round = [&](int workers) {
    Session::SubmitOptions options;
    options.constraint = UserConstraint().WithWorkers(workers);
    auto handle = session.Submit(sql, options);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    auto taken = (*handle)->Take();
    ASSERT_TRUE(taken.ok()) << taken.status().ToString();
    EXPECT_EQ(taken->workers, static_cast<size_t>(workers));
    EXPECT_EQ(taken->result.chunk.ToString(-1),
              reference->result.chunk.ToString(-1));
  };
  round(1);
  round(4);
  const int before = LiveThreads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this platform";
  // A sampler polls the count while the rounds run, so a short-lived
  // per-query thread is seen too, not only one that leaks.
  std::atomic<bool> done{false};
  std::atomic<int> peak{0};
  std::thread sampler([&] {
    while (!done.load()) peak = std::max(peak.load(), LiveThreads());
  });
  for (int i = 0; i < 50; ++i) {
    round(1);
    round(4);
  }
  done = true;
  sampler.join();
  EXPECT_EQ(peak.load(), before + 1);  // + the sampler itself
  // join() returns once the sampler has finished, but /proc/self/task can
  // list it for a moment longer, so poll the final count, for up to 1 s.
  int after = LiveThreads();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (after != before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = LiveThreads();
  }
  EXPECT_EQ(after, before);
}

// ----------------------------------------------------- admission + cancel

DatabaseOptions SingleSlotOptions() {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  opts.admission.max_concurrent = 1;
  return opts;
}

// Slot saturation and queue observation come from the shared harness
// (tests/admission_testing.h): SlotBlocker holds the single admission
// slot, WaitForQueued makes submissions visible before assertions.

TEST(SessionTest, CancelBeforeAdmissionAndAfterStart) {
  auto db = MakeSsbDatabase(SingleSlotOptions());
  Session session(db.get());

  auto blocker = std::make_unique<SlotBlocker>(db.get());
  auto queued = session.Submit(FindQuery("Q3").sql);
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ((*queued)->Poll(), QueryHandle::State::kQueued);
  EXPECT_TRUE((*queued)->Cancel()) << "queued query must be cancellable";
  EXPECT_EQ((*queued)->Poll(), QueryHandle::State::kCancelled);
  EXPECT_TRUE((*queued)->Wait().IsCancelled());
  EXPECT_TRUE((*queued)->Take().status().IsCancelled());
  // Cancelling twice is idempotent(ly false): the query never ran.
  EXPECT_FALSE((*queued)->Cancel());

  // A still-queued real query, released to run: cancel after admission
  // must fail and the query completes normally.
  auto running = session.Submit(FindQuery("Q3").sql);
  ASSERT_TRUE(running.ok());
  EXPECT_EQ((*running)->Poll(), QueryHandle::State::kQueued);
  blocker->Release();
  auto result = (*running)->Take();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE((*running)->Cancel()) << "a finished query is past withdrawal";
  EXPECT_EQ((*running)->Poll(), QueryHandle::State::kDone);
}

TEST(SessionTest, DatabaseShutdownCancelsQueuedHandles) {
  auto db = MakeSsbDatabase(SingleSlotOptions());
  Session session(db.get());
  SlotBlocker blocker(db.get());
  auto handle = session.Submit(FindQuery("Q3").sql);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*handle)->Poll(), QueryHandle::State::kQueued);
  EXPECT_GT(session.spent(), 0.0);  // the submission reserved its estimate

  // Tear the database down while the queued handle is being waited on:
  // the admission controller must complete the handle as cancelled (and
  // refund the reservation) before it blocks draining the running slot.
  std::thread destroyer([&] { db.reset(); });
  EXPECT_TRUE((*handle)->Wait().IsCancelled());
  EXPECT_EQ((*handle)->Poll(), QueryHandle::State::kCancelled);
  EXPECT_EQ(session.spent(), 0.0);
  blocker.Release();
  destroyer.join();
}

TEST(SessionTest, AdmissionPrefersCheapShortQueriesUnderSaturation) {
  auto db = MakeSsbDatabase(SingleSlotOptions());
  // Fact queries look expensive to the estimator; dimension scans stay
  // cheap. (Virtual scaling inflates estimates, not actual rows.)
  db->meta()->SetVirtualScale("lineorder", 1e5);
  Session session(db.get());

  SlotBlocker blocker(db.get());
  // Expensive submitted BEFORE cheap; both queue behind the blocker.
  auto expensive = session.Submit(FindQuery("Q5").sql);
  ASSERT_TRUE(expensive.ok());
  auto cheap = session.Submit("SELECT count(*) AS n FROM supplier");
  ASSERT_TRUE(cheap.ok());
  ASSERT_LT(cheap.value()->plan().estimate.latency,
            expensive.value()->plan().estimate.latency)
      << "test premise: the dimension scan must estimate cheaper";
  EXPECT_EQ((*expensive)->Poll(), QueryHandle::State::kQueued);
  EXPECT_EQ((*cheap)->Poll(), QueryHandle::State::kQueued);

  blocker.Release();
  ASSERT_TRUE((*cheap)->Wait().ok());
  ASSERT_TRUE((*expensive)->Wait().ok());
  // The cheap query, though submitted later, was admitted first.
  EXPECT_GE(db->admission()->stats().reordered, 1u)
      << "cost-aware admission never reordered the queue";
}

}  // namespace
}  // namespace costdb
