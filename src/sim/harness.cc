#include "sim/harness.h"

#include <algorithm>

#include "cost/operator_models.h"
#include "optimizer/passes.h"

namespace costdb {

Result<PreparedQuery> PrepareQuery(const MetadataService* meta,
                                   const BiObjectiveOptimizer& optimizer,
                                   const std::string& sql,
                                   const UserConstraint& constraint) {
  PreparedQuery out;
  COSTDB_ASSIGN_OR_RETURN(out.query, BindSql(meta, sql));
  PlannedQuery planned;
  COSTDB_ASSIGN_OR_RETURN(planned, optimizer.Plan(out.query, constraint));
  out.planned = std::move(planned);
  CardinalityEstimator truth_cards(meta, &out.query.relations,
                                   /*use_true_stats=*/true);
  out.truth = ComputeVolumes(out.planned.plan.get(), truth_cards);
  return out;
}

namespace {

/// Bytes the exchange models charge as "moved" at `workers`, from the
/// ground-truth volume of each exchange's input (mirrors ShuffleTerm's
/// frac_remote accounting in cost/operator_models.cc).
double PredictedExchangeBytes(const PhysicalPlan* node, const VolumeMap& truth,
                              int workers) {
  double total = 0.0;
  if (node->kind == PhysicalPlan::Kind::kExchange && !node->children.empty()) {
    auto it = truth.find(node->children[0].get());
    const double bytes = it == truth.end() ? 0.0 : it->second.out_bytes;
    const double w = static_cast<double>(workers);
    switch (node->exchange_kind) {
      case ExchangeKind::kShuffle:
      case ExchangeKind::kGather:
        total += workers > 1 ? bytes * (w - 1.0) / w : 0.0;
        break;
      case ExchangeKind::kBroadcast:
        total += workers > 1 ? bytes * (w - 1.0) : 0.0;
        break;
      case ExchangeKind::kLocal:
        break;  // co-partitioned: nothing moves
    }
  }
  for (const auto& c : node->children) {
    total += PredictedExchangeBytes(c.get(), truth, workers);
  }
  return total;
}

}  // namespace

ShardedParity CheckShardedParity(const PreparedQuery& prepared,
                                 const CostEstimator& estimator, int workers,
                                 Seconds measured_single,
                                 Seconds measured_sharded,
                                 const ExchangeStats& measured) {
  ShardedParity parity;
  // Mirror the engine's topology: once rows cross a gather, downstream
  // fragments run on worker 0 only — price those pipelines at dop 1, not
  // `workers`, or the prediction describes a plan the engine never runs.
  std::map<int, bool> single_after_gather;
  for (const auto& p : prepared.planned.pipelines.pipelines) {
    bool single = false;
    for (const PhysicalPlan* op : p.operators) {
      if (op->kind == PhysicalPlan::Kind::kExchange &&
          op->exchange_kind == ExchangeKind::kGather) {
        single = true;
      }
    }
    for (int dep : p.dependencies) single = single || single_after_gather[dep];
    single_after_gather[p.id] = single;
  }
  DopMap single_dops, sharded_dops;
  for (const auto& p : prepared.planned.pipelines.pipelines) {
    single_dops[p.id] = 1;
    sharded_dops[p.id] = single_after_gather[p.id] ? 1 : workers;
  }
  parity.predicted_single =
      estimator.EstimatePlan(prepared.planned.pipelines, single_dops,
                             prepared.truth)
          .latency;
  parity.predicted_sharded =
      estimator.EstimatePlan(prepared.planned.pipelines, sharded_dops,
                             prepared.truth)
          .latency;
  parity.measured_single = measured_single;
  parity.measured_sharded = measured_sharded;
  parity.predicted_exchange_bytes = PredictedExchangeBytes(
      prepared.planned.plan.get(), prepared.truth, workers);
  parity.measured_exchange_bytes = measured.bytes_moved();
  // Link-term parity: predict the serialize+transfer share of each executed
  // exchange from the calibrated link terms and the plain payload bytes
  // that crossed the transport (the unit LinkSeconds prices), and compare
  // against the measured share. All zero (q-error 1) for in-process runs —
  // no link exists there.
  parity.measured_wire_bytes = measured.wire_bytes();
  parity.measured_link_seconds = measured.link_seconds();
  const HardwareCalibration& hw = estimator.hardware();
  for (const ExchangeTiming& t : measured.timings) {
    if (t.plain_bytes <= 0.0) continue;
    parity.predicted_link_seconds +=
        LinkSeconds(hw, t.plain_bytes, static_cast<double>(t.transfers));
  }
  if (parity.predicted_link_seconds > 0.0 &&
      parity.measured_link_seconds > 0.0) {
    parity.link_q_error =
        std::max(parity.predicted_link_seconds / parity.measured_link_seconds,
                 parity.measured_link_seconds / parity.predicted_link_seconds);
  }
  parity.scaling_direction_agrees =
      (parity.predicted_sharded < parity.predicted_single) ==
      (parity.measured_sharded < parity.measured_single);
  return parity;
}

ElasticParity CheckElasticParity(const PreparedQuery& prepared,
                                 const DistributedSimulator& simulator,
                                 ResizePolicy* policy,
                                 const UserConstraint& constraint,
                                 const WorkerUsage& real_usage) {
  ElasticParity parity;
  SimResult sim = SimulateQuery(prepared, simulator, policy, constraint);
  parity.simulated_resizes = sim.total_resizes;
  parity.simulated_machine_seconds = sim.machine_seconds;
  parity.simulated_cost = sim.cost;
  parity.real_resizes = real_usage.resizes;
  parity.real_machine_seconds = real_usage.worker_seconds;
  parity.machine_seconds_ratio =
      real_usage.worker_seconds > 0.0
          ? sim.machine_seconds / real_usage.worker_seconds
          : 0.0;
  parity.resize_direction_agrees =
      (sim.total_resizes > 0) == (real_usage.resizes > 0);
  return parity;
}

SimResult SimulateQuery(const PreparedQuery& prepared,
                        const DistributedSimulator& simulator,
                        ResizePolicy* policy,
                        const UserConstraint& constraint, CloudEnv* env) {
  CloudEnv local_env;
  if (env == nullptr) env = &local_env;
  DistributedSimulator::Request request;
  request.graph = &prepared.planned.pipelines;
  request.truth = &prepared.truth;
  request.believed = &prepared.planned.volumes;
  request.planned_dops = prepared.planned.dops;
  request.constraint = constraint;
  return simulator.Run(request, policy, env);
}

}  // namespace costdb
