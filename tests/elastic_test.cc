// Elastic sharded execution: worker count changes at fragment boundaries
// must never change answers (bit-identical to LocalEngine across any
// resize schedule for order-stable plans), the worker-second ledger must
// meter the widths actually held, the ElasticController must accept only
// resizes the cost model prices as net-positive, and the simulator's
// resize predictions must stay comparable to real elastic runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "chunk_testing.h"
#include "common/rng.h"
#include "exec/sharded_engine.h"
#include "runtime/elastic_controller.h"
#include "runtime/policies.h"
#include "service/database.h"
#include "service/session.h"
#include "sim/harness.h"
#include "storage/partition.h"

namespace costdb {
namespace {

constexpr size_t kParts = 8;

class ElasticTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.enable_calibration = false;
    plain_ = std::make_unique<Database>(opts);
    part_ = std::make_unique<Database>(opts);

    Rng rng(4321);
    DataChunk oc({LogicalType::kInt64, LogicalType::kInt64,
                  LogicalType::kDouble, LogicalType::kVarchar});
    const char* tags[] = {"red", "green", "blue", "amber"};
    for (int64_t i = 0; i < 16000; ++i) {
      oc.AppendRow({Value(i), Value(rng.UniformInt(0, 599)),
                    Value(rng.Uniform(0.0, 1000.0)),
                    Value(std::string(tags[rng.UniformInt(0, 3)]))});
    }
    DataChunk cc({LogicalType::kInt64, LogicalType::kVarchar,
                  LogicalType::kInt64});
    const char* regions[] = {"na", "emea", "apac"};
    for (int64_t k = 0; k < 600; ++k) {
      cc.AppendRow({Value(k), Value(std::string(regions[k % 3])),
                    Value(rng.UniformInt(0, 99))});
    }
    auto load = [&](Database* db, bool partitioned) {
      auto orders = std::make_shared<Table>(
          "orders", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                           {"cust", LogicalType::kInt64},
                                           {"amount", LogicalType::kDouble},
                                           {"tag", LogicalType::kVarchar}},
          512);
      orders->Append(oc);
      auto customer = std::make_shared<Table>(
          "customer", std::vector<ColumnDef>{{"key", LogicalType::kInt64},
                                             {"region", LogicalType::kVarchar},
                                             {"score", LogicalType::kInt64}},
          128);
      customer->Append(cc);
      if (partitioned) {
        ASSERT_TRUE(PartitionTable(orders.get(),
                                   PartitionSpec::Hash("cust", kParts))
                        .ok());
        ASSERT_TRUE(PartitionTable(customer.get(),
                                   PartitionSpec::Hash("key", kParts))
                        .ok());
      }
      db->meta()->RegisterTable(orders);
      db->meta()->RegisterTable(customer);
      db->meta()->AnalyzeAll();
    };
    load(plain_.get(), false);
    load(part_.get(), true);
  }

  /// Run `sql` on LocalEngine and on a ShardedEngine that starts at
  /// `initial` workers and follows `schedule` (one width per resizable
  /// fragment boundary; the last entry repeats). Results must be
  /// bit-identical; returns the engine's usage ledger.
  WorkerUsage ExpectScheduleParity(Database* db, const std::string& sql,
                                   size_t initial,
                                   const std::vector<size_t>& schedule) {
    WorkerUsage usage;
    auto planned = db->PlanSql(sql, UserConstraint());
    EXPECT_TRUE(planned.ok()) << sql << ": " << planned.status().ToString();
    if (!planned.ok()) return usage;
    LocalEngine local(4);
    auto reference = local.Execute(planned->plan.get());
    EXPECT_TRUE(reference.ok()) << reference.status().ToString();
    if (!reference.ok()) return usage;

    ShardedEngine elastic;
    ExecProfile profile;
    auto result = elastic.Execute(
        planned->plan.get(), initial, &profile,
        [&schedule](const FragmentBoundary& b) {
          const size_t i = std::min<size_t>(static_cast<size_t>(b.index),
                                            schedule.size() - 1);
          return schedule[i];
        });
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok()) return usage;
    std::string why;
    EXPECT_TRUE(ChunksBitIdentical(reference->chunk, result->chunk, &why))
        << sql << " diverged under schedule starting at " << initial << ": "
        << why;
    return profile.usage;
  }

  std::unique_ptr<Database> plain_;
  std::unique_ptr<Database> part_;
};

TEST_F(ElasticTest, AdversarialResizeSchedulesStayBitIdentical) {
  // Grow, shrink, oscillate, resize-to-1, grow-from-1 — over grouped
  // aggregates (two-phase: the shuffle boundary is where the width
  // changes), global aggregates, and a broadcast join.
  const std::vector<std::string> queries = {
      "SELECT cust, count(*) AS c, sum(id) AS s, min(amount) AS mn "
      "FROM orders GROUP BY cust",
      "SELECT tag, count(*) AS c, avg(id) AS a FROM orders "
      "WHERE amount > 250.0 GROUP BY tag",
      "SELECT o.id, c.region FROM orders o JOIN customer c "
      "ON o.cust = c.key WHERE o.amount > 900.0",
  };
  const std::vector<std::pair<size_t, std::vector<size_t>>> schedules = {
      {2, {6}},           // grow
      {6, {2}},           // shrink
      {3, {5, 2, 7, 3}},  // oscillate
      {4, {1}},           // resize to one
      {1, {6}},           // grow from one
  };
  for (const auto& sql : queries) {
    for (const auto& [initial, schedule] : schedules) {
      ExpectScheduleParity(plain_.get(), sql, initial, schedule);
    }
  }
}

TEST_F(ElasticTest, CoPartitionedJoinSurvivesResizes) {
  // The partition-wise join runs in a leaf fragment whose workers own
  // whole partitions at whatever width is active; the resize happens at
  // the aggregate shuffle above it. No resize schedule may mis-align the
  // join or move its rows.
  const std::string sql =
      "SELECT c.region, sum(o.id) AS s, count(*) AS n FROM orders o "
      "JOIN customer c ON o.cust = c.key GROUP BY c.region";
  auto planned = part_->PlanSql(sql, UserConstraint());
  ASSERT_TRUE(planned.ok());
  ASSERT_NE(planned->plan->ToString().find("Exchange Local"),
            std::string::npos)
      << planned->plan->ToString();
  for (const auto& [initial, schedule] :
       std::vector<std::pair<size_t, std::vector<size_t>>>{
           {2, {6}}, {5, {3, 7}}, {3, {1}}}) {
    ShardedEngine elastic;
    auto sched = schedule;
    ExecProfile profile;
    auto result = elastic.Execute(
        planned->plan.get(), initial, &profile,
        [sched](const FragmentBoundary& b) {
          return sched[std::min<size_t>(static_cast<size_t>(b.index),
                                        sched.size() - 1)];
        });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    LocalEngine local(4);
    auto reference = local.Execute(planned->plan.get());
    ASSERT_TRUE(reference.ok());
    std::string why;
    EXPECT_TRUE(ChunksBitIdentical(reference->chunk, result->chunk, &why))
        << why;
    // Join rows never cross workers: only the handful of partial-agg rows
    // shuffle.
    EXPECT_LT(profile.exchange.rows_moved(), 2000u);
  }
}

TEST_F(ElasticTest, RandomizedResizeSchedulesStayBitIdentical) {
  Rng rng(2024);
  const char* group_cols[] = {"cust", "tag"};
  for (int trial = 0; trial < 10; ++trial) {
    double lo = rng.Uniform(0.0, 900.0);
    const char* g = group_cols[rng.UniformInt(0, 1)];
    char sql[512];
    if (trial % 2 == 0) {
      std::snprintf(sql, sizeof(sql),
                    "SELECT %s, count(*) AS c, sum(id) AS s, max(amount) AS m "
                    "FROM orders WHERE amount > %.3f GROUP BY %s",
                    g, lo, g);
    } else {
      std::snprintf(sql, sizeof(sql),
                    "SELECT c.region, sum(o.id) AS s FROM orders o JOIN "
                    "customer c ON o.cust = c.key WHERE o.amount > %.3f "
                    "GROUP BY c.region",
                    lo);
    }
    const size_t initial = static_cast<size_t>(rng.UniformInt(1, 7));
    std::vector<size_t> schedule;
    const int len = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < len; ++i) {
      schedule.push_back(static_cast<size_t>(rng.UniformInt(1, 7)));
    }
    ExpectScheduleParity(plain_.get(), sql, initial, schedule);
    ExpectScheduleParity(part_.get(), sql, initial, schedule);
  }
}

TEST_F(ElasticTest, UsageLedgerMetersWidthSegments) {
  const std::string sql =
      "SELECT cust, count(*) AS c, sum(id) AS s FROM orders GROUP BY cust";
  WorkerUsage usage = ExpectScheduleParity(plain_.get(), sql, 2, {6});
  EXPECT_EQ(usage.resizes, 1u);
  EXPECT_EQ(usage.peak_workers, 6u);
  EXPECT_EQ(usage.min_workers, 2u);
  EXPECT_EQ(usage.workers_spun_up, 4u);  // the call started at 2
  EXPECT_GT(usage.wall_seconds, 0.0);
  EXPECT_GT(usage.worker_seconds, 0.0);
  // Every wall second is billed at between min and peak width.
  EXPECT_GE(usage.worker_seconds,
            usage.wall_seconds * static_cast<double>(usage.min_workers) -
                1e-9);
  EXPECT_LE(usage.worker_seconds,
            usage.wall_seconds * static_cast<double>(usage.peak_workers) +
                1e-9);
  // Two distributed fragments (partial agg at 2, final agg at 6) plus the
  // single-worker tail after the gather.
  ASSERT_GE(usage.fragments.size(), 2u);
  EXPECT_EQ(usage.fragments[0].workers, 2u);
  EXPECT_EQ(usage.fragments[1].workers, 6u);

  // A fixed-width run still meters: wall x workers, no resizes.
  WorkerUsage fixed = ExpectScheduleParity(plain_.get(), sql, 4, {4});
  EXPECT_EQ(fixed.resizes, 0u);
  EXPECT_EQ(fixed.peak_workers, 4u);
  EXPECT_NEAR(fixed.worker_seconds, fixed.wall_seconds * 4.0,
              fixed.wall_seconds * 4.0 * 1e-6 + 1e-9);
}

TEST_F(ElasticTest, EngineWidthResetsBetweenQueries) {
  const std::string sql =
      "SELECT cust, count(*) AS c FROM orders GROUP BY cust";
  auto planned = plain_->PlanSql(sql, UserConstraint());
  ASSERT_TRUE(planned.ok());
  ShardedEngine engine;
  ExecProfile resized;
  ASSERT_TRUE(engine
                  .Execute(planned->plan.get(), 2, &resized,
                           [](const FragmentBoundary&) { return size_t{5}; })
                  .ok());
  EXPECT_EQ(resized.usage.peak_workers, 5u);
  EXPECT_EQ(resized.usage.workers_spun_up, 3u);
  ExecProfile fixed;
  ASSERT_TRUE(engine.Execute(planned->plan.get(), 2, &fixed).ok());
  // A resize schedule is per-query: the next run starts back at 2 and
  // holds it, spinning nothing up.
  EXPECT_EQ(fixed.usage.peak_workers, 2u);
  EXPECT_EQ(fixed.usage.min_workers, 2u);
  EXPECT_EQ(fixed.usage.resizes, 0u);
  EXPECT_EQ(fixed.usage.workers_spun_up, 0u);
}

// ---------------------------------------------------------------- pricing

/// Test policy that always proposes a fixed width.
class FixedProposalPolicy : public ResizePolicy {
 public:
  explicit FixedProposalPolicy(int target) : target_(target) {}
  const char* name() const override { return "fixed_proposal"; }
  int OnTick(const PolicyContext&, const PipelineRunView&) override {
    return target_;
  }

 private:
  int target_;
};

TEST_F(ElasticTest, ControllerAcceptsNetPositiveGrow) {
  HardwareCalibration hw;
  hw.worker_spinup_seconds = 0.01;
  InstanceType node = PricingCatalog::Default().default_node();
  CostEstimator estimator(&hw, &node);
  FixedProposalPolicy greedy(8);
  ElasticControllerOptions opts;
  opts.max_workers = 8;
  ElasticController controller(&estimator, &greedy, opts);
  controller.BeginQuery(nullptr, nullptr, UserConstraint(), 2.0, 2);

  FragmentBoundary boundary;
  boundary.index = 0;
  boundary.current_workers = 2;
  boundary.elapsed_seconds = 1.0;  // lots of observed remaining work
  boundary.cuts_remaining = 3;
  boundary.pending_bytes = 1000.0;
  EXPECT_EQ(controller.Decide(boundary), 8u);
  ASSERT_EQ(controller.decisions().size(), 1u);
  const auto d = controller.decisions()[0];
  EXPECT_TRUE(d.resized);
  EXPECT_EQ(d.from, 2u);
  EXPECT_EQ(d.applied, 8u);
  EXPECT_GT(d.predicted_saving_seconds, d.resize_overhead_seconds);
  EXPECT_EQ(controller.resizes_applied(), 1u);
}

TEST_F(ElasticTest, ControllerDeclinesNetNegativeGrow) {
  HardwareCalibration hw;
  hw.worker_spinup_seconds = 1000.0;  // spin-up dwarfs any saving
  InstanceType node = PricingCatalog::Default().default_node();
  CostEstimator estimator(&hw, &node);
  FixedProposalPolicy greedy(8);
  ElasticControllerOptions opts;
  opts.max_workers = 8;
  ElasticController controller(&estimator, &greedy, opts);
  controller.BeginQuery(nullptr, nullptr, UserConstraint(), 2.0, 2);

  FragmentBoundary boundary;
  boundary.index = 0;
  boundary.current_workers = 2;
  boundary.elapsed_seconds = 1.0;
  boundary.cuts_remaining = 3;
  EXPECT_EQ(controller.Decide(boundary), 2u);  // proposal rejected
  ASSERT_EQ(controller.decisions().size(), 1u);
  const auto d = controller.decisions()[0];
  EXPECT_TRUE(d.declined);
  EXPECT_FALSE(d.resized);
  EXPECT_EQ(d.proposed, 8u);
  EXPECT_NE(d.reason.find("net-negative"), std::string::npos) << d.reason;
  EXPECT_EQ(controller.resizes_declined(), 1u);
}

TEST_F(ElasticTest, ControllerRefusesGrowthUnderQueuePressure) {
  HardwareCalibration hw;
  InstanceType node = PricingCatalog::Default().default_node();
  CostEstimator estimator(&hw, &node);
  FixedProposalPolicy greedy(8);
  ElasticControllerOptions opts;
  opts.max_workers = 8;
  opts.max_queue_pressure = 1.0;
  ElasticController controller(&estimator, &greedy, opts);
  controller.BeginQuery(nullptr, nullptr, UserConstraint(), 2.0, 2);
  controller.SetQueuePressure(3.0);  // 3 queued queries per slot

  FragmentBoundary boundary;
  boundary.index = 0;
  boundary.current_workers = 2;
  boundary.elapsed_seconds = 1.0;
  boundary.cuts_remaining = 3;
  EXPECT_EQ(controller.Decide(boundary), 2u);
  ASSERT_EQ(controller.decisions().size(), 1u);
  EXPECT_NE(controller.decisions()[0].reason.find("queue pressure"),
            std::string::npos);
}

TEST_F(ElasticTest, ControllerAcceptsDollarSavingShrink) {
  HardwareCalibration hw;
  InstanceType node = PricingCatalog::Default().default_node();
  CostEstimator estimator(&hw, &node);
  FixedProposalPolicy frugal(1);
  ElasticController controller(&estimator, &frugal);
  controller.BeginQuery(nullptr, nullptr, UserConstraint(), 2.0, 4);

  FragmentBoundary boundary;
  boundary.index = 0;
  boundary.current_workers = 4;
  boundary.elapsed_seconds = 1.0;
  boundary.cuts_remaining = 2;
  EXPECT_EQ(controller.Decide(boundary), 1u);
  ASSERT_EQ(controller.decisions().size(), 1u);
  const auto d = controller.decisions()[0];
  EXPECT_TRUE(d.resized);
  EXPECT_LT(d.dollar_delta, 0.0);  // shrinking saves dollars
}

// ----------------------------------------------------------- facade wiring

TEST_F(ElasticTest, FacadeElasticRunBillsActualWorkerSeconds) {
  DatabaseOptions opts;
  opts.enable_calibration = false;
  opts.enable_elastic = true;
  Database db(opts);
  db.meta()->RegisterTable(*plain_->meta()->GetTable("orders"));
  db.meta()->RegisterTable(*plain_->meta()->GetTable("customer"));
  db.meta()->AnalyzeAll();

  const std::string sql =
      "SELECT cust, count(*) AS c, sum(id) AS s FROM orders GROUP BY cust";
  Session reference_session(plain_.get());
  auto reference = reference_session.ExecuteSql(sql, UserConstraint());
  ASSERT_TRUE(reference.ok());
  // Each run has its own session, so each ledger holds one run's bill.
  Session elastic_session(&db);
  auto elastic =
      elastic_session.ExecuteSql(sql, UserConstraint().WithWorkers(3));
  ASSERT_TRUE(elastic.ok()) << elastic.status().ToString();
  EXPECT_EQ(elastic->workers, 3u);
  std::string why;
  EXPECT_TRUE(ChunksBitIdentical(reference->result.chunk,
                                 elastic->result.chunk, &why))
      << why;
  // The run was metered and billed at the node price.
  EXPECT_GT(elastic->usage.wall_seconds, 0.0);
  EXPECT_GT(elastic->usage.worker_seconds, 0.0);
  const Dollars price = db.node_type().price_per_second();
  EXPECT_DOUBLE_EQ(elastic->billed_dollars,
                   elastic->usage.worker_seconds * price);
  // One boundary decision was recorded (held or resized) and the bill
  // landed on the facade's meter under the elastic label.
  EXPECT_GE(elastic->elastic.size(), 1u);
  BillingMeter bill = db.billing_snapshot();
  EXPECT_GE(bill.total(), elastic->billed_dollars * (1.0 - 1e-9));
  EXPECT_GT(bill.TotalForPrefix("query:elastic"), 0.0);

  // The session ledger settles to the actual bill, not the estimate.
  Session session(&db);
  auto via_session = session.ExecuteSql(sql, UserConstraint().WithWorkers(3));
  ASSERT_TRUE(via_session.ok());
  EXPECT_GT(via_session->billed_dollars, 0.0);
  // Settle replaces the reservation with the actual bill (spent = est +
  // (actual - est)), so equality holds up to one rounding step.
  EXPECT_NEAR(session.spent(), via_session->billed_dollars,
              via_session->billed_dollars * 1e-9);

  // Both runs settled into the tenant's bill, and the facade meter holds
  // exactly what they were billed.
  const auto tenants = db.tenant_billing();
  ASSERT_EQ(tenants.count("default"), 1u);
  const Database::TenantBill& tenant = tenants.at("default");
  EXPECT_EQ(tenant.runs, 2u);
  const Dollars spent = elastic_session.spent() + session.spent();
  EXPECT_NEAR(tenant.dollars, spent, spent * 1e-9);
  EXPECT_DOUBLE_EQ(db.billing_snapshot().TotalForPrefix("query:elastic"),
                   elastic->billed_dollars + via_session->billed_dollars);
}

TEST_F(ElasticTest, SimulatorElasticParityIsComparable) {
  const std::string sql =
      "SELECT cust, count(*) AS c, sum(id) AS s FROM orders GROUP BY cust";
  auto prepared = plain_->Prepare(sql, UserConstraint());
  ASSERT_TRUE(prepared.ok());

  // Real run with no policy pressure (static width) vs the simulator
  // under the same static policy: both must hold their width, and both
  // must produce a positive machine-seconds bill.
  ShardedEngine engine;
  ExecProfile profile;
  ASSERT_TRUE(engine.Execute(prepared->planned.plan.get(), 4, &profile).ok());
  StaticPolicy static_policy;
  ElasticParity parity =
      CheckElasticParity(*prepared, *plain_->simulator(), &static_policy,
                         UserConstraint(), profile.usage);
  EXPECT_EQ(parity.real_resizes, 0u);
  EXPECT_EQ(parity.simulated_resizes, 0);
  EXPECT_TRUE(parity.resize_direction_agrees);
  EXPECT_GT(parity.simulated_machine_seconds, 0.0);
  EXPECT_GT(parity.real_machine_seconds, 0.0);
  EXPECT_GT(parity.machine_seconds_ratio, 0.0);
}

}  // namespace
}  // namespace costdb
