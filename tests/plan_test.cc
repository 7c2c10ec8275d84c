#include <gtest/gtest.h>

#include "cost/volumes.h"
#include "optimizer/optimizer.h"
#include "plan/pipeline.h"

namespace costdb {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fact = std::make_shared<Table>(
        "fact", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                       {"d1", LogicalType::kInt64},
                                       {"d2", LogicalType::kInt64},
                                       {"v", LogicalType::kDouble}});
    DataChunk fc({LogicalType::kInt64, LogicalType::kInt64,
                  LogicalType::kInt64, LogicalType::kDouble});
    for (int64_t i = 0; i < 10000; ++i) {
      fc.AppendRow({Value(i), Value(i % 100), Value(i % 50),
                    Value(static_cast<double>(i))});
    }
    fact->Append(fc);
    meta_.RegisterTable(fact);
    RegisterDim("dim1", 100);
    RegisterDim("dim2", 50);
    meta_.AnalyzeAll();
  }

  void RegisterDim(const std::string& name, int64_t rows) {
    auto t = std::make_shared<Table>(
        name, std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                     {"attr", LogicalType::kInt64}});
    DataChunk c({LogicalType::kInt64, LogicalType::kInt64});
    for (int64_t i = 0; i < rows; ++i) c.AppendRow({Value(i), Value(i % 7)});
    t->Append(c);
    meta_.RegisterTable(t);
  }

  PhysicalPlanPtr Plan(const std::string& sql) {
    Optimizer opt(&meta_);
    auto plan = opt.OptimizeSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : nullptr;
  }

  MetadataService meta_;
};

/// Collect nodes of a kind in the plan tree.
void Collect(const PhysicalPlan* p, PhysicalPlan::Kind kind,
             std::vector<const PhysicalPlan*>* out) {
  if (p->kind == kind) out->push_back(p);
  for (const auto& c : p->children) Collect(c.get(), kind, out);
}

TEST_F(PlanTest, FilterPushedIntoScan) {
  auto plan = Plan("SELECT v FROM fact WHERE id < 100 AND v > 5.0");
  std::vector<const PhysicalPlan*> scans;
  Collect(plan.get(), PhysicalPlan::Kind::kTableScan, &scans);
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_EQ(scans[0]->scan_filters.size(), 2u);
  std::vector<const PhysicalPlan*> filters;
  Collect(plan.get(), PhysicalPlan::Kind::kFilter, &filters);
  EXPECT_TRUE(filters.empty());  // fully pushed down
}

TEST_F(PlanTest, ColumnPruningOnScan) {
  auto plan = Plan("SELECT v FROM fact WHERE id < 100");
  std::vector<const PhysicalPlan*> scans;
  Collect(plan.get(), PhysicalPlan::Kind::kTableScan, &scans);
  ASSERT_EQ(scans.size(), 1u);
  // Only id and v are needed, not d1/d2.
  EXPECT_EQ(scans[0]->scan_column_indices.size(), 2u);
}

TEST_F(PlanTest, JoinOrderPutsSmallerRelationOnBuildSide) {
  auto plan = Plan(
      "SELECT count(*) FROM fact f, dim1 a WHERE f.d1 = a.id");
  std::vector<const PhysicalPlan*> joins;
  Collect(plan.get(), PhysicalPlan::Kind::kHashJoin, &joins);
  ASSERT_EQ(joins.size(), 1u);
  // Build side (child 1, below its exchange) should be the 100-row dim.
  const PhysicalPlan* build = joins[0]->children[1].get();
  while (build->kind == PhysicalPlan::Kind::kExchange) {
    build = build->children[0].get();
  }
  EXPECT_EQ(build->kind, PhysicalPlan::Kind::kTableScan);
  EXPECT_EQ(build->alias, "a");
}

TEST_F(PlanTest, SmallBuildSideIsBroadcast) {
  auto plan = Plan("SELECT count(*) FROM fact f, dim1 a WHERE f.d1 = a.id");
  std::vector<const PhysicalPlan*> exchanges;
  Collect(plan.get(), PhysicalPlan::Kind::kExchange, &exchanges);
  bool has_broadcast = false;
  for (const auto* e : exchanges) {
    if (e->exchange_kind == ExchangeKind::kBroadcast) has_broadcast = true;
  }
  EXPECT_TRUE(has_broadcast);
}

TEST_F(PlanTest, GroupByGetsShuffleExchange) {
  auto plan = Plan("SELECT d1, count(*) FROM fact GROUP BY d1");
  std::vector<const PhysicalPlan*> exchanges;
  Collect(plan.get(), PhysicalPlan::Kind::kExchange, &exchanges);
  bool has_shuffle = false;
  for (const auto* e : exchanges) {
    if (e->exchange_kind == ExchangeKind::kShuffle) has_shuffle = true;
  }
  EXPECT_TRUE(has_shuffle);
}

TEST_F(PlanTest, EstimatesPropagate) {
  const std::string sql = "SELECT count(*) FROM fact WHERE id < 5000";
  auto plan = Plan(sql);
  // Root estimate: a global aggregate -> 1 row.
  EXPECT_NEAR(plan->est_rows, 1.0, 0.5);
  std::vector<const PhysicalPlan*> scans;
  Collect(plan.get(), PhysicalPlan::Kind::kTableScan, &scans);
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_NEAR(scans[0]->est_rows, 5000.0, 500.0);
  // The scanned bytes the cost model prices.
  auto bound = Binder(&meta_).BindSql(sql);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  CardinalityEstimator cards(&meta_, &bound->relations);
  const VolumeMap volumes = ComputeVolumes(plan.get(), cards);
  EXPECT_GT(volumes.at(scans[0]).scanned_bytes, 0.0);
}

TEST_F(PlanTest, PipelineDecompositionSingleScan) {
  auto plan = Plan("SELECT v FROM fact WHERE id < 10");
  PipelineGraph graph = BuildPipelines(plan.get());
  ASSERT_EQ(graph.pipelines.size(), 1u);
  EXPECT_EQ(graph.pipelines[0].sink, nullptr);
  EXPECT_EQ(graph.pipelines[0].source->kind, PhysicalPlan::Kind::kTableScan);
}

TEST_F(PlanTest, PipelineDecompositionAggregate) {
  auto plan = Plan("SELECT d1, count(*) FROM fact GROUP BY d1");
  PipelineGraph graph = BuildPipelines(plan.get());
  // Two-phase aggregation: scan -> partial-agg sink, partial -> final-agg
  // sink, final -> result.
  ASSERT_EQ(graph.pipelines.size(), 3u);
  EXPECT_EQ(graph.pipelines[0].sink->kind,
            PhysicalPlan::Kind::kHashAggregate);
  EXPECT_EQ(graph.pipelines[1].sink->kind,
            PhysicalPlan::Kind::kHashAggregate);
  EXPECT_TRUE(graph.pipelines[1].source_is_breaker);
  EXPECT_TRUE(graph.pipelines[2].source_is_breaker);
  ASSERT_EQ(graph.pipelines[1].dependencies.size(), 1u);
  EXPECT_EQ(graph.pipelines[1].dependencies[0], graph.pipelines[0].id);
}

TEST_F(PlanTest, PipelineDecompositionTwoJoins) {
  auto plan = Plan(
      "SELECT count(*) FROM fact f, dim1 a, dim2 b "
      "WHERE f.d1 = a.id AND f.d2 = b.id");
  PipelineGraph graph = BuildPipelines(plan.get());
  // Two build pipelines + probe/partial-agg feeder + final-agg pipeline +
  // result pipeline.
  ASSERT_EQ(graph.pipelines.size(), 5u);
  int builds = 0;
  for (const auto& p : graph.pipelines) {
    if (p.sink_is_build_side) ++builds;
  }
  EXPECT_EQ(builds, 2);
  // The probe pipeline (the one streaming through both joins) must depend
  // on both builds.
  const Pipeline* probe = nullptr;
  for (const auto& p : graph.pipelines) {
    int joins = 0;
    for (const auto* op : p.operators) {
      if (op->kind == PhysicalPlan::Kind::kHashJoin) ++joins;
    }
    if (joins == 2) probe = &p;
  }
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->dependencies.size(), 2u);
}

TEST_F(PlanTest, DependenciesPrecedeInTopoOrder) {
  auto plan = Plan(
      "SELECT a.attr, sum(f.v) FROM fact f, dim1 a WHERE f.d1 = a.id "
      "GROUP BY a.attr ORDER BY a.attr");
  PipelineGraph graph = BuildPipelines(plan.get());
  std::map<int, size_t> position;
  for (size_t i = 0; i < graph.pipelines.size(); ++i) {
    position[graph.pipelines[i].id] = i;
  }
  for (size_t i = 0; i < graph.pipelines.size(); ++i) {
    for (int dep : graph.pipelines[i].dependencies) {
      EXPECT_LT(position[dep], i);
    }
  }
}

TEST_F(PlanTest, ExplainRendering) {
  auto plan = Plan("SELECT d1, count(*) FROM fact GROUP BY d1");
  std::string s = plan->ToString();
  EXPECT_NE(s.find("HashAggregate"), std::string::npos);
  EXPECT_NE(s.find("TableScan"), std::string::npos);
  PipelineGraph graph = BuildPipelines(plan.get());
  EXPECT_NE(graph.ToString().find("pipeline"), std::string::npos);
}

}  // namespace
}  // namespace costdb
