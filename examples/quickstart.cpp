// Quickstart: load a small star-schema warehouse, open a Session (the
// client entry point), run SQL end to end on the local engine — then see
// what the session-oriented surface adds: prepared statements that plan
// once and bind per-call parameters, async submission with streaming
// results, and the calibration loop tightening cost predictions.
#include <cstdio>

#include "service/session.h"
#include "workload/ssb.h"

using namespace costdb;

int main() {
  // 1. One shared Database (catalog, optimizer pass pipeline, calibrated
  //    cost estimator, both execution backends) — and one Session per
  //    client on top of it, carrying that client's defaults and budget.
  Database db;
  SsbOptions data;
  data.scale = 0.01;  // ~6k orders in-process
  LoadSsb(db.meta(), data);

  SessionOptions client;
  client.default_constraint = UserConstraint::Sla(30.0);
  client.budget = 25.0;  // this session may spend $25 of estimated bills
  Session session(&db, client);

  std::printf("tables:");
  for (const auto& name : db.meta()->TableNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\noptimizer passes:");
  for (const auto& pass : db.query_service()->PassNames()) {
    std::printf(" %s", pass.c_str());
  }
  std::printf("\n\n");

  // 2. Run a query (parse -> bind -> optimize -> execute -> calibrate).
  const std::string sql =
      "SELECT s_nation, sum(lo_revenue) AS revenue "
      "FROM lineorder, supplier "
      "WHERE lo_suppkey = s_suppkey AND s_region = 'ASIA' "
      "GROUP BY s_nation ORDER BY revenue DESC LIMIT 5";
  auto run = session.ExecuteSql(sql);
  if (!run.ok()) {
    std::printf("error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf("result:\n%s\n", run->result.ToString().c_str());

  // 3. What would this cost in the cloud? The planner already knows, and
  //    the session charged the estimate to its budget ledger.
  const PlanCostEstimate& est = run->plan->estimate;
  std::printf("prediction under a 30 s SLA: latency %s, bill %s (%zu "
              "pipelines); session spent %s of its budget\n\n",
              FormatSeconds(est.latency).c_str(),
              FormatDollars(est.cost).c_str(),
              run->plan->pipelines.pipelines.size(),
              FormatDollars(session.spent()).c_str());

  // 4. Prepared statements: '?' placeholders bind per execution; the plan
  //    is cached by statement *shape*, so 3 executions = 1 optimizer run.
  auto stmt = session.Prepare(
      "SELECT count(*) AS n FROM lineorder "
      "WHERE lo_quantity < ? AND lo_discount BETWEEN ? AND ?");
  if (stmt.ok()) {
    for (int64_t q : {10, 25, 40}) {
      auto bound = session.Execute(
          *stmt, {Value(q), Value(int64_t{1}), Value(int64_t{3})});
      if (bound.ok()) {
        std::printf("lo_quantity < %2lld -> %lld orders\n",
                    static_cast<long long>(q),
                    static_cast<long long>(
                        bound->result.chunk.column(0).GetInt(0)));
      }
    }
    // Early in a database's life every run moves the calibration, which
    // (correctly) invalidates cached plans; once it settles a statement
    // plans exactly once — bench_e13_sessions measures that steady state.
    std::printf("planned %zu time(s) for %zu executions (early calibration "
                "rounds force replans)\n\n",
                (*stmt)->times_planned(), (*stmt)->executions());
  }

  // 5. Async submission: Submit returns a handle, the admission
  //    controller orders the run queue by estimated cost, and Take waits
  //    for the run and moves its materialized result out.
  auto handle = session.Submit(sql);
  if (handle.ok()) {
    auto taken = (*handle)->Take();
    if (taken.ok()) {
      std::printf("submitted run returned %zu row(s) via Take\n\n",
                  taken->result.chunk.num_rows());
    }
  }

  // 6. The calibration loop: the first run's wall-clock timings flowed
  //    back into the hardware calibration, so replanning predicts closer
  //    to what this machine actually delivers.
  const GroupReport& fed = run->calibration[TermGroup::kPipelines];
  std::printf("calibration feedback: %d pipelines observed, q-error "
              "%.2f -> %.2f (scale %.3f)\n",
              fed.observed, fed.q_error_before, fed.q_error_after,
              fed.applied_scale);
  auto rerun = session.ExecuteSql(sql);
  if (rerun.ok()) {
    std::printf("replanned after calibration: latency %s (was %s), "
                "q-error %.2f\n",
                FormatSeconds(rerun->plan->estimate.latency).c_str(),
                FormatSeconds(est.latency).c_str(),
                rerun->calibration[TermGroup::kPipelines].q_error_before);
  }
  auto cache = db.plan_cache_stats();
  std::printf("plan cache: %zu hits, %zu misses, %zu invalidations\n",
              cache.hits, cache.misses, cache.invalidations);
  return 0;
}
