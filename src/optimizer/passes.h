#pragma once

#include <memory>
#include <string>
#include <vector>

#include "optimizer/bi_objective.h"

namespace costdb {

/// Mutable state flowing through the optimizer pass pipeline. A pass reads
/// what earlier passes produced and fills in the next stage; the pipeline
/// is data-driven, so passes can be reordered, dropped, or interleaved with
/// custom rewrites (the What-If Service splices an MV-substitution pass
/// between DAG planning and physical planning, for example).
struct QueryPlanContext {
  // Immutable inputs, set by the pipeline driver before the first pass.
  const MetadataService* meta = nullptr;
  const CostEstimator* estimator = nullptr;
  BiObjectiveOptions options;
  std::string sql;
  UserConstraint constraint;

  // Stage 1 (bind): SQL resolved against the catalog.
  BoundQuery query;
  bool bound = false;

  // Stage 2 (logical shaping): candidate join shapes. variants[0] is the
  // left-deep DAG-planner shape; bushy rungs append after it. DagPlanPass
  // also stashes its join graph and raw join tree so BushyRewritePass can
  // reshape the spine without re-running the join-order DP.
  std::vector<BushyVariant> variants;
  JoinGraph join_graph;
  LogicalPlanPtr left_deep_join_tree;
  bool has_join_graph = false;

  // Stage 3 (physical planning): one costed candidate per variant, with
  // pipelines and believed volumes but no DOP assignment yet.
  std::vector<PlannedQuery> candidates;

  // Stage 4 (DOP planning): the winner under the user constraint.
  PlannedQuery best;
  bool planned = false;
};

/// One reorderable stage of the query optimizer. Implementations must be
/// stateless with respect to queries (all per-query state lives in the
/// context), so a pass pipeline can be shared across threads.
class OptimizerPass {
 public:
  virtual ~OptimizerPass() = default;
  virtual const char* name() const = 0;
  virtual Status Run(QueryPlanContext* ctx) const = 0;
};

using PassPipeline = std::vector<std::unique_ptr<OptimizerPass>>;

/// sql -> BoundQuery (no-op when the driver supplied a pre-bound query).
class BindPass : public OptimizerPass {
 public:
  const char* name() const override { return "bind"; }
  Status Run(QueryPlanContext* ctx) const override;
};

/// BoundQuery -> left-deep logical plan (variants[0]).
class DagPlanPass : public OptimizerPass {
 public:
  const char* name() const override { return "dag_plan"; }
  Status Run(QueryPlanContext* ctx) const override;
};

/// Appends increasingly bushy reshapes of the left-deep spine
/// (bushiness > 0 only, so it composes with DagPlanPass without
/// duplicating the base shape).
class BushyRewritePass : public OptimizerPass {
 public:
  const char* name() const override { return "bushy_rewrite"; }
  Status Run(QueryPlanContext* ctx) const override;
};

/// Each logical variant -> physical plan + pipeline DAG + believed volumes.
class PhysicalPlanPass : public OptimizerPass {
 public:
  const char* name() const override { return "physical_plan"; }
  Status Run(QueryPlanContext* ctx) const override;
};

/// Prices every candidate with the DOP planner and selects the best one
/// under the user constraint (feasible first, then the constrained
/// objective).
class DopPlanPass : public OptimizerPass {
 public:
  const char* name() const override { return "dop_plan"; }
  Status Run(QueryPlanContext* ctx) const override;
};

/// The paper's two-stage bi-objective optimizer as an explicit pipeline:
/// bind -> dag_plan [-> bushy_rewrite] -> physical_plan -> dop_plan.
PassPipeline MakeDefaultPassPipeline(bool explore_bushy = true);

/// Run `passes` in order over `ctx`; fails if no pass produced a plan.
Status RunPassPipeline(const PassPipeline& passes, QueryPlanContext* ctx);

/// Front door for binding alone — callers outside the optimizer (service
/// facade, sim harness, stats ingestion) use this instead of constructing
/// a Binder by hand.
Result<BoundQuery> BindSql(const MetadataService* meta, const std::string& sql);

}  // namespace costdb
