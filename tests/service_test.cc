#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "exec/engine.h"
#include "optimizer/optimizer.h"
#include "service/session.h"
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

std::string Render(const QueryResult& r) { return r.ToString(1 << 20); }

/// Render with rows sorted, for comparisons across different (but
/// equivalent) plan shapes whose output order may legitimately differ.
std::string RenderSorted(const QueryResult& r) {
  std::string rendered = Render(r);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < rendered.size()) {
    size_t end = rendered.find('\n', start);
    if (end == std::string::npos) end = rendered.size();
    lines.push_back(rendered.substr(start, end - start));
    start = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------- facade

TEST(DatabaseTest, ExecuteSqlMatchesDirectLocalEngineRun) {
  auto db = MakeSsbDatabase();
  // The supported client entry: a Session over the shared facade.
  Session session(db.get());
  for (const char* id : {"Q1", "Q3", "Q7"}) {
    const std::string sql = FindQuery(id).sql;
    auto via_facade = session.ExecuteSql(sql, UserConstraint::Sla(60.0));
    ASSERT_TRUE(via_facade.ok()) << id << ": "
                                 << via_facade.status().ToString();

    // The historical hand-wired path: optimizer front door + engine.
    Optimizer direct_opt(db->meta());
    auto plan = direct_opt.OptimizeSql(sql);
    ASSERT_TRUE(plan.ok()) << id;
    LocalEngine engine(4);
    auto direct = engine.Execute(plan->get());
    ASSERT_TRUE(direct.ok()) << id;

    EXPECT_EQ(via_facade->result.chunk.num_rows(), direct->chunk.num_rows())
        << id;
    // Sorted: the facade may pick a bushier join shape whose (equivalent)
    // output order differs for queries without a total ORDER BY.
    EXPECT_EQ(RenderSorted(via_facade->result), RenderSorted(*direct)) << id;
  }
}

TEST(DatabaseTest, ExecuteReportsPlanAndTimings) {
  auto db = MakeSsbDatabase();
  Session session(db.get());
  auto run = session.ExecuteSql(FindQuery("Q3").sql,
                                UserConstraint::Sla(60.0));
  ASSERT_TRUE(run.ok());
  ASSERT_NE(run->plan, nullptr);
  EXPECT_FALSE(run->plan->pipelines.pipelines.empty());
  EXPECT_EQ(run->timings.size(), run->plan->pipelines.pipelines.size());
  EXPECT_GT(run->plan->estimate.cost, 0.0);
}

// ------------------------------------------------------- calibration loop

TEST(DatabaseTest, CalibrationLoopShrinksEstimatorError) {
  auto db = MakeSsbDatabase();
  Session session(db.get());
  const std::string sql = FindQuery("Q7").sql;
  const UserConstraint sla = UserConstraint::Sla(60.0);

  auto warmup = session.ExecuteSql(sql, sla);
  ASSERT_TRUE(warmup.ok());
  const GroupReport& warm = warmup->calibration[TermGroup::kPipelines];
  ASSERT_GT(warm.observed, 0);
  // The update itself must tighten the fit of the observed run...
  EXPECT_LT(warm.q_error_after, warm.q_error_before);

  // ...and the *next* run of the same query must start from a smaller
  // estimate-vs-reality gap than the warm-up did.
  auto second = session.ExecuteSql(sql, sla);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->calibration[TermGroup::kPipelines].q_error_before,
            warm.q_error_before);
  EXPECT_GE(db->calibration().rounds(), 2);
}

TEST(DatabaseTest, CalibrationConvergesAndCacheStartsHitting) {
  auto db = MakeSsbDatabase();
  Session session(db.get());
  const std::string sql = FindQuery("Q1").sql;
  const UserConstraint sla = UserConstraint::Sla(60.0);
  // Repeated runs converge: once per-round movement falls inside the
  // recalibration threshold, cached plans stop being invalidated.
  bool hit = false;
  for (int i = 0; i < 12 && !hit; ++i) {
    auto run = session.ExecuteSql(sql, sla);
    ASSERT_TRUE(run.ok());
    hit = run->plan_cache_hit;
  }
  EXPECT_TRUE(hit) << "calibration never settled enough for a cache hit";
}

TEST(DatabaseTest, CalibrationDisabledKeepsHardwareFixed) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());
  const double scan_before = db->hardware()->scan_gibps_per_node;
  auto run = session.ExecuteSql(FindQuery("Q1").sql,
                                UserConstraint::Sla(60.0));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(db->hardware()->scan_gibps_per_node, scan_before);
  EXPECT_EQ(db->calibration().rounds(), 0);
}

// ------------------------------------------------------------ plan cache

TEST(DatabaseTest, PlanCacheHitsOnRepeatedSqlWhenCalibrationOff) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  auto db = MakeSsbDatabase(opts);
  Session session(db.get());
  const std::string sql = FindQuery("Q3").sql;
  auto first = session.ExecuteSql(sql, UserConstraint::Sla(60.0));
  auto second = session.ExecuteSql(sql, UserConstraint::Sla(60.0));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first->plan_cache_hit);
  EXPECT_TRUE(second->plan_cache_hit);
  // Different constraint -> different cache slot.
  auto budget = session.ExecuteSql(sql, UserConstraint::Budget(1.0));
  ASSERT_TRUE(budget.ok());
  EXPECT_FALSE(budget->plan_cache_hit);
  auto stats = db->plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(DatabaseTest, PlanCacheSingleFlightUnder16ConcurrentPlans) {
  DatabaseOptions opts = SmallDbOptions();
  opts.enable_calibration = false;
  auto db = MakeSsbDatabase(opts);
  const std::string sql = FindQuery("Q3").sql;
  std::vector<std::shared_ptr<const PlannedQuery>> plans(16);
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < plans.size(); ++i) {
    threads.emplace_back([&, i] {
      bool hit = false;
      auto planned = db->PlanCachedSql(sql, UserConstraint::Sla(60.0), &hit);
      EXPECT_TRUE(planned.ok()) << planned.status().ToString();
      if (planned.ok()) plans[i] = *planned;
      if (hit) ++hits;
    });
  }
  for (auto& t : threads) t.join();
  // One optimizer run: every caller holds the leader's shared plan.
  auto stats = db->plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 15u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(hits.load(), 15);
  for (const auto& plan : plans) EXPECT_EQ(plan, plans[0]);
}

// ------------------------------------------------------- concurrent batch

TEST(SessionBatchTest, EightSubmitsOnOneSessionAreDeterministic) {
  // Q1 and Q3 twice: the plan cache hits on the repeats.
  const std::vector<std::string> ids = {"Q1", "Q3", "Q5", "Q7",
                                        "Q1", "Q3", "Q10", "Q6"};
  const UserConstraint sla = UserConstraint::Sla(60.0);
  // All eight are submitted before any is taken, so they run concurrently
  // under admission. With calibrate off, every run plans against the
  // initial calibration, whichever run finishes first.
  auto run_batch = [&]() {
    auto db = MakeSsbDatabase();
    Session session(db.get());
    Session::SubmitOptions submit;
    submit.constraint = sla;
    submit.calibrate = false;
    std::vector<QueryHandlePtr> handles;
    for (const std::string& id : ids) {
      auto handle = session.Submit(FindQuery(id).sql, submit);
      EXPECT_TRUE(handle.ok()) << id << ": " << handle.status().ToString();
      if (handle.ok()) handles.push_back(*handle);
    }
    std::vector<std::string> rendered;
    for (const QueryHandlePtr& handle : handles) {
      auto r = handle->Take();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      rendered.push_back(r.ok() ? Render(r->result) : "<error>");
    }
    return rendered;
  };

  auto first = run_batch();
  auto second = run_batch();
  ASSERT_EQ(first.size(), ids.size());
  EXPECT_EQ(first, second);

  // And identical to serial execution. Calibration stays off here so the
  // serial path plans against the same initial calibration the submits
  // saw.
  DatabaseOptions serial_opts = SmallDbOptions();
  serial_opts.enable_calibration = false;
  auto db = MakeSsbDatabase(serial_opts);
  Session session(db.get());
  for (size_t i = 0; i < first.size(); ++i) {
    auto serial = session.ExecuteSql(FindQuery(ids[i]).sql, sla);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(Render(serial->result), first[i]) << "query " << i;
  }
}

TEST(SessionBatchTest, BadStatementsFailAtSubmitAndOthersStillRun) {
  auto db = MakeSsbDatabase();
  Session session(db.get());
  Session::SubmitOptions submit;
  submit.constraint = UserConstraint::Sla(60.0);
  auto before = session.Submit(FindQuery("Q1").sql, submit);
  auto malformed = session.Submit("SELECT FROM lineorder", submit);
  auto unknown = session.Submit("SELECT nope FROM nowhere", submit);
  auto after = session.Submit(FindQuery("Q3").sql, submit);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(malformed.status().IsInvalidArgument())
      << malformed.status().ToString();
  EXPECT_TRUE(unknown.status().IsNotFound()) << unknown.status().ToString();
  // The bad statements never reached admission or the ledger.
  EXPECT_EQ(session.stats().submissions, 2u);
  EXPECT_TRUE((*before)->Take().ok());
  EXPECT_TRUE((*after)->Take().ok());
}

// ------------------------------------------------- pass pipeline plumbing

TEST(QueryServiceTest, DefaultPassOrder) {
  auto db = MakeSsbDatabase();
  EXPECT_EQ(db->query_service()->PassNames(),
            (std::vector<std::string>{"bind", "dag_plan", "bushy_rewrite",
                                      "physical_plan", "dop_plan"}));
}

TEST(QueryServiceTest, RemovingBushyRewriteStillPlans) {
  auto db = MakeSsbDatabase();
  EXPECT_TRUE(db->query_service()->RemovePass("bushy_rewrite"));
  auto planned =
      db->query_service()->PlanSql(FindQuery("Q11").sql,
                                   UserConstraint::Sla(60.0));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->bushiness, 0);
}

// Regression (TSAN): Database::calibration_version() used to read the
// counter without cache_mu_, racing Calibrate's increment (which runs
// under the lock after every query when calibration is on). Sessions poll
// the version to decide plan-cache freshness, so the unguarded read was
// on the hot path. Monotonicity is asserted too: a torn or stale-forever
// read shows up as a decreasing or frozen sequence.
TEST(DatabaseTest, CalibrationVersionReadRacesCalibrate) {
  auto db = MakeSsbDatabase();
  std::atomic<bool> done{false};
  std::atomic<bool> monotonic{true};
  std::thread poller([&] {
    int last = db->calibration_version();
    while (!done.load(std::memory_order_relaxed)) {
      int v = db->calibration_version();
      if (v < last) monotonic.store(false);
      last = v;
    }
  });
  Session session(db.get());
  const UserConstraint sla = UserConstraint::Sla(60.0);
  for (int i = 0; i < 4; ++i) {
    auto run = session.ExecuteSql(FindQuery("Q1").sql, sla);
    ASSERT_TRUE(run.ok());
  }
  done.store(true);
  poller.join();
  EXPECT_TRUE(monotonic.load());
  EXPECT_GE(db->calibration_version(), 1);
}

TEST(QueryServiceTest, SimulationBackendBillsTheQuery) {
  auto db = MakeSsbDatabase();
  db->meta()->SetVirtualScale("lineorder", 1e4);
  auto sim = db->SimulateSql(FindQuery("Q3").sql, UserConstraint::Sla(120.0));
  ASSERT_TRUE(sim.ok());
  EXPECT_GT(sim->latency, 0.0);
  EXPECT_GT(sim->cost, 0.0);
}

}  // namespace
}  // namespace costdb
