#include "cost/cost_model.h"

#include <algorithm>

namespace costdb {

namespace {

NodeVolumes VolumeOf(const VolumeMap& volumes, const PhysicalPlan* node) {
  auto it = volumes.find(node);
  return it == volumes.end() ? NodeVolumes{} : it->second;
}

StageWorkload SourceWorkload(const Pipeline& pipeline,
                             const VolumeMap& volumes) {
  StageWorkload w;
  NodeVolumes v = VolumeOf(volumes, pipeline.source);
  if (!pipeline.source_is_breaker) {
    w.rows_in = v.source_rows;
    w.bytes_in = v.scanned_bytes;
    w.rows_out = v.out_rows;
  } else {
    w.rows_in = v.out_rows;
    w.bytes_in = v.out_bytes;
    w.rows_out = v.out_rows;
  }
  return w;
}

}  // namespace

Seconds CostEstimator::StageTimeFor(const PhysicalPlan& op,
                                    const StageWorkload& w, int dop) const {
  if (shuffle_regression_ != nullptr &&
      op.kind == PhysicalPlan::Kind::kExchange &&
      op.exchange_kind == ExchangeKind::kShuffle &&
      shuffle_regression_->fitted()) {
    return shuffle_regression_->StageTime(w, dop);
  }
  auto model = MakeAnalyticModel(op, hw_);
  return model->StageTime(w, dop);
}

StageWorkload CostEstimator::SinkWorkload(const Pipeline& pipeline,
                                          const VolumeMap& volumes) const {
  StageWorkload w;
  if (pipeline.sink == nullptr) return w;
  // Rows flowing into the sink = output of the last streaming operator (or
  // of the source when the pipeline has no operators).
  const PhysicalPlan* last =
      pipeline.operators.empty() ? pipeline.source : pipeline.operators.back();
  NodeVolumes in = VolumeOf(volumes, last);
  // For a build-side pipeline, `last` is the build child subtree root.
  w.rows_in = in.out_rows;
  w.bytes_in = in.out_bytes;
  NodeVolumes sink_out = VolumeOf(volumes, pipeline.sink);
  w.rows_out = sink_out.out_rows;
  w.groups = std::max(1.0, sink_out.out_rows);
  return w;
}

Seconds CostEstimator::PipelineDuration(const Pipeline& pipeline, int dop,
                                        const VolumeMap& volumes) const {
  dop = std::max(1, dop);
  // Resource-aware streaming model: CPU stages share the pipeline's cores,
  // so their times *add up*; storage and network stages overlap with CPU
  // and with each other, so the pipeline is bounded by
  //   max(sum of CPU stages, slowest storage stage, slowest network stage).
  // This is what makes a long left-deep probe chain slower than two
  // concurrent bushy halves (E4).
  Seconds cpu_total = 0.0;
  Seconds io_max = 0.0;
  Seconds net_max = 0.0;
  auto account = [&](const PhysicalPlan& op, const StageWorkload& w) {
    Seconds t = StageTimeFor(op, w, dop);
    switch (op.kind) {
      case PhysicalPlan::Kind::kTableScan:
        io_max = std::max(io_max, t);
        break;
      case PhysicalPlan::Kind::kExchange:
        net_max = std::max(net_max, t);
        break;
      default:
        cpu_total += t;
    }
  };

  // Source stage. A scan source also charges the CPU of its pushed filter
  // chain (the IO model is bytes-only): one vectorized kernel per
  // conjunct. Dispatch is charged per *surviving* morsel: the engine never
  // touches a zone-map-pruned row group, so pruned morsels cost no batch
  // dispatch (SurvivingScanMorsels uses the real row-group geometry;
  // src_w.rows_in is already post-pruning).
  StageWorkload src_w = SourceWorkload(pipeline, volumes);
  double scan_batches = -1.0;
  if (!pipeline.source_is_breaker) {
    account(*pipeline.source, src_w);
    scan_batches = SurvivingScanMorsels(*pipeline.source);
    if (!pipeline.source->scan_filters.empty() && src_w.rows_in > 0.0) {
      const int conjuncts =
          static_cast<int>(pipeline.source->scan_filters.size());
      const double selectivity =
          src_w.rows_in > 0.0
              ? std::min(1.0, src_w.rows_out / src_w.rows_in)
              : 1.0;
      cpu_total += InterpretedFilterChainTime(*hw_, src_w.rows_in, conjuncts,
                                              selectivity, scan_batches, dop);
    }
  } else {
    // Reading a materialized intermediate: memory-speed pass.
    PhysicalPlan pseudo;
    pseudo.kind = PhysicalPlan::Kind::kProject;
    account(pseudo, src_w);
  }

  // Streaming operator stages.
  const PhysicalPlan* prev = pipeline.source;
  for (const PhysicalPlan* op : pipeline.operators) {
    StageWorkload w;
    NodeVolumes in = VolumeOf(volumes, prev);
    NodeVolumes out = VolumeOf(volumes, op);
    // The input to a streaming op inside the pipeline is the previous
    // stage's output; scans feed their filtered output.
    w.rows_in = in.out_rows;
    w.bytes_in = in.out_bytes;
    w.rows_out = out.out_rows;
    // An operator fed directly by the scan is dispatched once per
    // surviving morsel, not once per ceil(rows/4096).
    if (prev == pipeline.source && scan_batches >= 0.0) {
      w.dispatch_batches = scan_batches;
    }
    account(*op, w);
    prev = op;
  }

  // Sink stage (hash build / aggregate / sort).
  if (pipeline.sink != nullptr) {
    StageWorkload w = SinkWorkload(pipeline, volumes);
    if (pipeline.operators.empty() && scan_batches >= 0.0) {
      w.dispatch_batches = scan_batches;
    }
    if (pipeline.sink_is_build_side) {
      double eff = EffectiveParallelism(dop, hw_->parallel_alpha);
      cpu_total += w.rows_in / (hw_->hash_build_rows_per_sec * eff);
    } else {
      PhysicalPlan pseudo;
      pseudo.kind = pipeline.sink->kind;
      StageWorkload sink_w = w;
      Seconds t = StageTimeFor(*pipeline.sink, sink_w, dop);
      (void)pseudo;
      cpu_total += t;
    }
  }

  return hw_->pipeline_startup +
         std::max({cpu_total, io_max, net_max});
}

void SchedulePipelines(const PipelineGraph& graph,
                       const std::map<int, Seconds>& durations,
                       const DopMap& dops, PlanCostEstimate* out) {
  std::map<int, PipelineEstimate*> by_id;
  out->pipelines.clear();
  out->pipelines.reserve(graph.pipelines.size());
  for (const auto& p : graph.pipelines) {
    PipelineEstimate est;
    est.pipeline_id = p.id;
    auto d = dops.find(p.id);
    est.dop = d == dops.end() ? 1 : std::max(1, d->second);
    auto t = durations.find(p.id);
    est.duration = t == durations.end() ? 0.0 : t->second;
    out->pipelines.push_back(est);
  }
  for (auto& est : out->pipelines) by_id[est.pipeline_id] = &est;

  // ASAP schedule (graph is topologically ordered).
  std::map<int, const Pipeline*> pipe_by_id;
  for (const auto& p : graph.pipelines) pipe_by_id[p.id] = &p;
  for (const auto& p : graph.pipelines) {
    Seconds start = 0.0;
    for (int dep : p.dependencies) {
      start = std::max(start, by_id[dep]->finish);
    }
    by_id[p.id]->start = start;
    by_id[p.id]->finish = start + by_id[p.id]->duration;
  }

  // Consumer map: the pipeline that depends on p (unique in our graphs).
  std::map<int, int> consumer;
  for (const auto& p : graph.pipelines) {
    for (int dep : p.dependencies) consumer[dep] = p.id;
  }
  Seconds makespan = 0.0;
  Seconds machine = 0.0;
  Seconds blocked = 0.0;
  for (auto& est : out->pipelines) {
    auto c = consumer.find(est.pipeline_id);
    est.release = c == consumer.end() ? est.finish : by_id[c->second]->start;
    est.release = std::max(est.release, est.finish);
    makespan = std::max(makespan, est.release);
    machine += est.dop * (est.release - est.start);
    blocked += est.dop * (est.release - est.finish);
  }
  out->latency = makespan;
  out->machine_seconds = machine;
  out->blocked_machine_seconds = blocked;
}

PlanCostEstimate CostEstimator::EstimatePlan(const PipelineGraph& graph,
                                             const DopMap& dops,
                                             const VolumeMap& volumes) const {
  std::map<int, Seconds> durations;
  for (const auto& p : graph.pipelines) {
    auto d = dops.find(p.id);
    int dop = d == dops.end() ? 1 : std::max(1, d->second);
    durations[p.id] = PipelineDuration(p, dop, volumes);
  }
  PlanCostEstimate out;
  SchedulePipelines(graph, durations, dops, &out);
  // Machine time to dollars, plus object-store request charges for scans.
  out.cost = out.machine_seconds * node_type_->price_per_second();
  double get_requests = 0.0;
  for (const auto& p : graph.pipelines) {
    if (!p.source_is_breaker && p.source != nullptr &&
        p.source->kind == PhysicalPlan::Kind::kTableScan) {
      NodeVolumes v{};
      auto it = volumes.find(p.source);
      if (it != volumes.end()) v = it->second;
      get_requests += v.scanned_bytes / (8.0 * kMiB);  // 8 MiB range GETs
    }
  }
  out.cost += get_requests / 1000.0 * 0.0004;
  // Per-pipeline row annotations for explainability.
  for (auto& est : out.pipelines) {
    for (const auto& p : graph.pipelines) {
      if (p.id != est.pipeline_id) continue;
      StageWorkload sw = SourceWorkload(p, volumes);
      est.source_rows = sw.rows_in;
      const PhysicalPlan* last =
          p.operators.empty() ? p.source : p.operators.back();
      auto it = volumes.find(last);
      est.output_rows = it == volumes.end() ? 0.0 : it->second.out_rows;
    }
  }
  return out;
}

}  // namespace costdb
