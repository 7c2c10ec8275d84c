#include "optimizer/passes.h"

#include "optimizer/cardinality.h"

namespace costdb {

Result<BoundQuery> BindSql(const MetadataService* meta,
                           const std::string& sql) {
  Binder binder(meta);
  return binder.BindSql(sql);
}

Status BindPass::Run(QueryPlanContext* ctx) const {
  if (ctx->bound) return Status::OK();
  COSTDB_ASSIGN_OR_RETURN(ctx->query, BindSql(ctx->meta, ctx->sql));
  ctx->bound = true;
  return Status::OK();
}

Status DagPlanPass::Run(QueryPlanContext* ctx) const {
  if (!ctx->bound) return Status::Internal("dag_plan: query not bound");
  CardinalityEstimator cards(ctx->meta, &ctx->query.relations);
  COSTDB_ASSIGN_OR_RETURN(ctx->join_graph, BuildJoinGraph(ctx->query, cards));
  DagPlanner dag(ctx->meta);
  COSTDB_ASSIGN_OR_RETURN(ctx->left_deep_join_tree,
                          dag.PlanJoinTree(ctx->query, ctx->join_graph));
  ctx->has_join_graph = true;
  LogicalPlanPtr plan =
      dag.FinishPlan(ctx->query, ctx->join_graph, ctx->left_deep_join_tree);
  ctx->variants.insert(ctx->variants.begin(), {std::move(plan), 0});
  return Status::OK();
}

Status BushyRewritePass::Run(QueryPlanContext* ctx) const {
  if (!ctx->bound) return Status::Internal("bushy_rewrite: query not bound");
  BushyRewriter rewriter(ctx->meta);
  std::vector<BushyVariant> variants;
  if (ctx->has_join_graph) {
    // Reuse DAG planning's join graph and spine: rungs only, no second DP.
    COSTDB_ASSIGN_OR_RETURN(
        variants,
        rewriter.MakeRungs(ctx->query, ctx->options.max_bushy_depth,
                           ctx->join_graph, ctx->left_deep_join_tree));
  } else {
    COSTDB_ASSIGN_OR_RETURN(variants,
                            rewriter.MakeVariants(ctx->query,
                                                  ctx->options.max_bushy_depth));
  }
  for (auto& v : variants) {
    // When a base shape is already present, append only the genuinely
    // bushy rungs so this pass composes with DagPlanPass.
    if (v.bushiness > 0 || ctx->variants.empty()) {
      ctx->variants.push_back(std::move(v));
    }
  }
  return Status::OK();
}

Status PhysicalPlanPass::Run(QueryPlanContext* ctx) const {
  if (ctx->variants.empty()) {
    return Status::Internal("physical_plan: no logical variants to plan");
  }
  CardinalityEstimator cards(ctx->meta, &ctx->query.relations);
  for (const auto& variant : ctx->variants) {
    PhysicalPlanner physical(ctx->meta, &ctx->query.relations,
                             ctx->options.physical);
    auto plan = physical.Plan(variant.plan);
    if (!plan.ok()) continue;  // a variant may be unplannable; price the rest
    PlannedQuery candidate;
    candidate.plan = std::move(*plan);
    candidate.pipelines = BuildPipelines(candidate.plan.get());
    candidate.volumes = ComputeVolumes(candidate.plan.get(), cards);
    candidate.bushiness = variant.bushiness;
    ctx->candidates.push_back(std::move(candidate));
  }
  if (ctx->candidates.empty()) {
    return Status::Internal("physical_plan: no variant could be planned");
  }
  return Status::OK();
}

Status DopPlanPass::Run(QueryPlanContext* ctx) const {
  if (ctx->candidates.empty()) {
    return Status::Internal("dop_plan: no physical candidates");
  }
  DopPlanner planner(ctx->estimator, ctx->options.dop);
  bool have_best = false;
  int total_states = 0;
  for (auto& candidate : ctx->candidates) {
    DopPlanResult dop =
        planner.Plan(candidate.pipelines, candidate.volumes, ctx->constraint);
    candidate.dops = dop.dops;
    candidate.estimate = dop.estimate;
    candidate.feasible = dop.feasible;
    candidate.states_explored = dop.states_explored;
    total_states += dop.states_explored;
    if (!have_best) {
      ctx->best = std::move(candidate);
      have_best = true;
      continue;
    }
    // Prefer feasible over infeasible; then the constrained objective.
    if (candidate.feasible && !ctx->best.feasible) {
      ctx->best = std::move(candidate);
      continue;
    }
    if (!candidate.feasible && ctx->best.feasible) continue;
    bool better;
    if (ctx->constraint.mode == UserConstraint::Mode::kMinCostUnderSla) {
      better = candidate.feasible
                   ? candidate.estimate.cost < ctx->best.estimate.cost
                   : candidate.estimate.latency < ctx->best.estimate.latency;
    } else {
      better = candidate.estimate.latency < ctx->best.estimate.latency;
    }
    if (better) ctx->best = std::move(candidate);
  }
  ctx->candidates.clear();  // moved-from shells
  if (!have_best) return Status::Internal("dop_plan: no plannable candidate");
  ctx->best.states_explored = total_states;
  ctx->best.workers = ResolveWorkerCount(ctx->constraint, ctx->best.dops,
                                         ctx->options.max_workers);
  ctx->planned = true;
  return Status::OK();
}

PassPipeline MakeDefaultPassPipeline(bool explore_bushy) {
  PassPipeline passes;
  passes.push_back(std::make_unique<BindPass>());
  passes.push_back(std::make_unique<DagPlanPass>());
  if (explore_bushy) passes.push_back(std::make_unique<BushyRewritePass>());
  passes.push_back(std::make_unique<PhysicalPlanPass>());
  passes.push_back(std::make_unique<DopPlanPass>());
  return passes;
}

Status RunPassPipeline(const PassPipeline& passes, QueryPlanContext* ctx) {
  for (const auto& pass : passes) {
    Status s = pass->Run(ctx);
    if (!s.ok()) {
      return s.WithContext(std::string("optimizer pass '") + pass->name() +
                           "'");
    }
  }
  if (!ctx->planned) {
    return Status::Internal("pass pipeline finished without producing a plan");
  }
  return Status::OK();
}

}  // namespace costdb
