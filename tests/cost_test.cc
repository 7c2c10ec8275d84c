#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/stats_math.h"
#include "cost/calibration_updater.h"
#include "exec/sharded_engine.h"
#include "cost/cost_model.h"
#include "optimizer/optimizer.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

class CostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SsbOptions opts;
    opts.scale = 0.01;
    LoadSsb(&meta_, opts);
    node_ = PricingCatalog::Default().default_node();
  }

  /// Plan a query and return (plan, graph, volumes) through the estimator.
  struct Planned {
    PhysicalPlanPtr plan;
    PipelineGraph graph;
    VolumeMap volumes;
  };
  Planned Prepare(const std::string& sql) {
    Optimizer opt(&meta_);
    Binder binder(&meta_);
    auto query = binder.BindSql(sql);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto plan = opt.OptimizeQuery(*query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    Planned out;
    out.plan = *plan;
    out.graph = BuildPipelines(out.plan.get());
    CardinalityEstimator cards(&meta_, &query->relations);
    out.volumes = ComputeVolumes(out.plan.get(), cards);
    return out;
  }

  MetadataService meta_;
  HardwareCalibration hw_;
  InstanceType node_;
};

TEST_F(CostTest, EffectiveParallelismSublinear) {
  EXPECT_DOUBLE_EQ(EffectiveParallelism(1, 0.1), 1.0);
  EXPECT_GT(EffectiveParallelism(8, 0.1), 1.0);
  EXPECT_LT(EffectiveParallelism(8, 0.1), 8.0);
  EXPECT_GT(EffectiveParallelism(16, 0.1), EffectiveParallelism(8, 0.1));
}

TEST_F(CostTest, ScanModelScalesLinearly) {
  // Inflate the served stats so scan time dwarfs the fixed pipeline
  // startup (the in-process dataset is tiny; a warehouse table is not).
  meta_.SetStatsErrorFactor("lineorder", 1e5);
  auto planned = Prepare(FindQuery("Q1").sql);
  // Q1 is scan->agg: the feeder pipeline is scan-dominated.
  CostEstimator est(&hw_, &node_);
  const Pipeline& feeder = planned.graph.pipelines[0];
  Seconds t1 = est.PipelineDuration(feeder, 1, planned.volumes);
  Seconds t8 = est.PipelineDuration(feeder, 8, planned.volumes);
  EXPECT_GT(t1, t8);
  // Near-linear: 8x nodes gives >=4x speedup on a scan-bound stage.
  EXPECT_GT(t1 / t8, 4.0);
}

TEST_F(CostTest, ShuffleLatencyEventuallyRises) {
  // Over-scaling a shuffle makes latency worse (paper Section 2): the sync
  // term grows with DOP while bandwidth gains flatten.
  StageWorkload w;
  w.rows_in = 1e7;
  w.bytes_in = 400 * kMiB;
  PhysicalPlan shuffle;
  shuffle.kind = PhysicalPlan::Kind::kExchange;
  shuffle.exchange_kind = ExchangeKind::kShuffle;
  auto model = MakeAnalyticModel(shuffle, &hw_);
  Seconds best = 1e18;
  int best_dop = 1;
  for (int d = 1; d <= 1024; d *= 2) {
    Seconds t = model->StageTime(w, d);
    if (t < best) {
      best = t;
      best_dop = d;
    }
  }
  EXPECT_GT(best_dop, 1);
  EXPECT_LT(best_dop, 1024);  // interior optimum
  EXPECT_GT(model->StageTime(w, 1024), best);
}

TEST_F(CostTest, AggregateMergeTermCreatesInteriorOptimum) {
  StageWorkload w;
  w.rows_in = 1e8;
  w.groups = 1e6;
  PhysicalPlan agg;
  agg.kind = PhysicalPlan::Kind::kHashAggregate;
  auto model = MakeAnalyticModel(agg, &hw_);
  Seconds t1 = model->StageTime(w, 1);
  Seconds t16 = model->StageTime(w, 16);
  Seconds t1024 = model->StageTime(w, 1024);
  EXPECT_LT(t16, t1);
  EXPECT_GT(t1024, t16);
}

TEST_F(CostTest, GatherDoesNotSpeedUpWithDop) {
  StageWorkload w;
  w.bytes_in = 1.0 * kGiB;
  PhysicalPlan g;
  g.kind = PhysicalPlan::Kind::kExchange;
  g.exchange_kind = ExchangeKind::kGather;
  auto model = MakeAnalyticModel(g, &hw_);
  EXPECT_DOUBLE_EQ(model->StageTime(w, 1), model->StageTime(w, 64));
}

TEST_F(CostTest, RegressionModelLearnsShuffle) {
  PhysicalPlan shuffle;
  shuffle.kind = PhysicalPlan::Kind::kExchange;
  shuffle.exchange_kind = ExchangeKind::kShuffle;
  auto truth = MakeAnalyticModel(shuffle, &hw_);
  std::vector<RegressionOperatorModel::Sample> samples;
  for (double rows : {1e5, 1e6, 1e7, 3e7}) {
    for (int dop : {1, 2, 4, 8, 16, 32}) {
      RegressionOperatorModel::Sample s;
      s.workload.rows_in = rows;
      s.workload.bytes_in = rows * 40.0;
      s.dop = dop;
      s.observed_time = truth->StageTime(s.workload, dop);
      samples.push_back(s);
    }
  }
  RegressionOperatorModel model("shuffle_reg");
  ASSERT_TRUE(model.Fit(samples));
  // Interpolation accuracy within 2x q-error on unseen points.
  StageWorkload w;
  w.rows_in = 5e6;
  w.bytes_in = w.rows_in * 40.0;
  double predicted = model.StageTime(w, 8);
  double actual = truth->StageTime(w, 8);
  EXPECT_LT(QError(predicted, actual), 2.0);
}

TEST_F(CostTest, RegressionRejectsTinySampleSets) {
  RegressionOperatorModel model("x");
  EXPECT_FALSE(model.Fit({}));
  EXPECT_FALSE(model.fitted());
}

TEST_F(CostTest, ScheduleRespectsDependenciesAndBillsBlocking) {
  // Hand-built diamond: two feeders (ids 0, 1) into consumer (id 2).
  PipelineGraph graph;
  Pipeline a, b, c;
  a.id = 0;
  b.id = 1;
  c.id = 2;
  c.dependencies = {0, 1};
  graph.pipelines = {a, b, c};
  std::map<int, Seconds> durations{{0, 10.0}, {1, 4.0}, {2, 5.0}};
  DopMap dops{{0, 4}, {1, 2}, {2, 8}};
  PlanCostEstimate est;
  SchedulePipelines(graph, durations, dops, &est);
  EXPECT_DOUBLE_EQ(est.latency, 15.0);  // max(10,4) + 5
  // Pipeline 1 finishes at 4 but its nodes are held until the consumer
  // starts at 10: 6 blocked seconds x 2 nodes.
  EXPECT_DOUBLE_EQ(est.blocked_machine_seconds, 12.0);
  EXPECT_DOUBLE_EQ(est.machine_seconds, 4 * 10.0 + 2 * 10.0 + 8 * 5.0);
}

TEST_F(CostTest, EstimatePlanProducesPositiveCost) {
  auto planned = Prepare(FindQuery("Q5").sql);
  CostEstimator est(&hw_, &node_);
  DopMap dops;
  for (const auto& p : planned.graph.pipelines) dops[p.id] = 4;
  auto e = est.EstimatePlan(planned.graph, dops, planned.volumes);
  EXPECT_GT(e.latency, 0.0);
  EXPECT_GT(e.cost, 0.0);
  EXPECT_GE(e.machine_seconds, e.latency);  // >=1 node the whole time
  EXPECT_EQ(e.pipelines.size(), planned.graph.pipelines.size());
}

// Property sweep: for a scan-dominated pipeline, doubling DOP divides
// latency roughly in half while machine-time (~cost) stays flat — the
// paper's "100 machines for 1 minute" identity.
class ElasticityProperty : public CostTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(ElasticityProperty, ScanMachineTimeInvariant) {
  meta_.SetStatsErrorFactor("lineorder", 1e5);  // warehouse-sized volumes
  auto planned = Prepare("SELECT sum(lo_revenue) FROM lineorder");
  CostEstimator est(&hw_, &node_);
  const Pipeline& feeder = planned.graph.pipelines[0];
  int dop = GetParam();
  Seconds t1 = est.PipelineDuration(feeder, 1, planned.volumes);
  Seconds td = est.PipelineDuration(feeder, dop, planned.volumes);
  double machine1 = 1 * t1;
  double machined = dop * td;
  // Startup overhead breaks the identity slightly; stay within 2.5x for
  // the in-range DOPs of this tiny dataset.
  EXPECT_LT(machined / machine1, 2.5) << "dop=" << dop;
  EXPECT_LT(td, t1);
}

INSTANTIATE_TEST_SUITE_P(Dops, ElasticityProperty,
                         ::testing::Values(2, 4, 8, 16));

TEST_F(CostTest, VolumesEstimateVsTruthDivergeUnderInjectedError) {
  Binder binder(&meta_);
  auto query = binder.BindSql(FindQuery("Q3").sql);
  ASSERT_TRUE(query.ok());
  Optimizer opt(&meta_);
  auto plan = opt.OptimizeQuery(*query);
  ASSERT_TRUE(plan.ok());
  meta_.SetStatsErrorFactor("lineorder", 4.0);
  CardinalityEstimator served(&meta_, &query->relations);
  CardinalityEstimator truth(&meta_, &query->relations,
                             /*use_true_stats=*/true);
  auto v_served = ComputeVolumes(plan->get(), served);
  auto v_truth = ComputeVolumes(plan->get(), truth);
  // Scan volumes (not the 1-row aggregate output) must diverge ~4x.
  std::function<const PhysicalPlan*(const PhysicalPlan*)> find_scan =
      [&](const PhysicalPlan* p) -> const PhysicalPlan* {
    if (p->kind == PhysicalPlan::Kind::kTableScan && p->alias == "lineorder") {
      return p;
    }
    for (const auto& ch : p->children) {
      const PhysicalPlan* f = find_scan(ch.get());
      if (f != nullptr) return f;
    }
    return nullptr;
  };
  const PhysicalPlan* scan = find_scan(plan->get());
  meta_.SetStatsErrorFactor("lineorder", 1.0);
  ASSERT_NE(scan, nullptr);
  double ratio = v_served.at(scan).source_rows / v_truth.at(scan).source_rows;
  EXPECT_NEAR(ratio, 4.0, 0.2);
}

TEST_F(CostTest, ScanPricesReadColumnsInAndLiveColumnsOut) {
  // lo_quantity is read by the scan's filter and by nothing above it: the
  // scan still reads both int64 columns but emits lo_revenue alone.
  auto planned = Prepare(
      "SELECT sum(lo_revenue) AS r FROM lineorder WHERE lo_quantity < 10");
  const PhysicalPlan* scan = planned.plan.get();
  while (!scan->children.empty()) scan = scan->children[0].get();
  ASSERT_EQ(scan->kind, PhysicalPlan::Kind::kTableScan);
  EXPECT_EQ(scan->scan_column_names,
            (std::vector<std::string>{"lineorder.lo_quantity",
                                      "lineorder.lo_revenue"}));
  EXPECT_EQ(scan->output_names,
            std::vector<std::string>{"lineorder.lo_revenue"});
  const NodeVolumes& v = planned.volumes.at(scan);
  ASSERT_GT(v.out_rows, 0.0);
  EXPECT_DOUBLE_EQ(v.scanned_bytes, v.source_rows * 16.0);
  EXPECT_DOUBLE_EQ(v.out_bytes, v.out_rows * 8.0);
}

TEST_F(CostTest, FilterChainChargesDispatchOnlyForSurvivingMorsels) {
  // Zone-map pruning drops whole morsels before any kernel runs, so the
  // batch-dispatch term must be charged per *surviving* morsel. With rows
  // and selectivity held fixed, shrinking `batches` from 200 to 20 must
  // cut exactly the dispatch fee of the 180 pruned morsels, per conjunct.
  const double rows = 1e6;
  const int conjuncts = 3;
  const double sel = 0.2;
  Seconds full = InterpretedFilterChainTime(hw_, rows, conjuncts, sel,
                                            /*batches=*/200.0, 1);
  Seconds pruned = InterpretedFilterChainTime(hw_, rows, conjuncts, sel,
                                              /*batches=*/20.0, 1);
  EXPECT_LT(pruned, full);
  EXPECT_NEAR(full - pruned,
              conjuncts * 180.0 * hw_.batch_dispatch_seconds, 1e-12);
}

TEST_F(CostTest, SurvivingMorselsFollowPlannerPruneFraction) {
  PhysicalPlan scan;
  scan.kind = PhysicalPlan::Kind::kHashJoin;
  EXPECT_EQ(SurvivingScanMorsels(scan), -1.0);  // not a scan

  scan.kind = PhysicalPlan::Kind::kTableScan;
  EXPECT_EQ(SurvivingScanMorsels(scan), -1.0);  // no table handle

  auto lineorder = meta_.GetTable("lineorder");
  ASSERT_TRUE(lineorder.ok());
  scan.table = *lineorder;
  ASSERT_NE(scan.table, nullptr);
  const double total = static_cast<double>(scan.table->row_groups().size());
  EXPECT_EQ(SurvivingScanMorsels(scan), total);  // keep = 1.0 default
  scan.prune_keep_fraction = 0.25;
  EXPECT_EQ(SurvivingScanMorsels(scan), std::ceil(total * 0.25));
  scan.prune_keep_fraction = 0.0;
  EXPECT_EQ(SurvivingScanMorsels(scan), 0.0);
}

/// One exchange over the socket transport whose link share runs
/// `link_slowdown` x the link terms of `hw` and whose copy share (wall time
/// minus link share) runs `copy_slowdown` x its copy term.
ExchangeTiming SocketExchange(const HardwareCalibration& hw,
                              double copy_slowdown, double link_slowdown) {
  ExchangeTiming t;
  t.transport = TransportKind::kSocket;
  t.bytes = 4.0 * kMiB;
  t.partitions = 4;
  t.wire_bytes = 4.0 * kMiB;
  t.transfers = 12;
  t.link_seconds =
      link_slowdown *
      (t.wire_bytes / (hw.wire_serialize_gibps * kGiB) +
       t.wire_bytes / (hw.link_gibps * kGiB) +
       static_cast<double>(t.transfers) * hw.link_rtt_seconds);
  t.seconds = t.link_seconds +
              copy_slowdown *
                  (t.bytes / (hw.shuffle_gibps * kGiB) +
                   static_cast<double>(t.partitions) *
                       hw.shuffle_dispatch_seconds);
  return t;
}

TEST_F(CostTest, LinkGroupMovesOnlyTheLinkTerms) {
  HardwareCalibration hw;
  const HardwareCalibration before = hw;
  CostEstimator estimator(&hw, &node_);
  CalibrationUpdater updater(&hw);

  // The measured serialize+transfer share of each exchange runs 3x slower
  // than the seeded link terms predict, while the copy share matches the
  // copy term: the three link terms must move by ~scale, every other
  // tier — including the shuffle copy term the link share was subtracted
  // from — must stay put.
  ExecProfile profile;
  profile.exchange.timings.assign(3, SocketExchange(hw, 1.0, 3.0));
  CalibrationReport report =
      updater.Observe(profile, PipelineGraph(), VolumeMap(), estimator);
  const GroupReport& link = report[TermGroup::kLink];
  EXPECT_EQ(link.observed, 3);
  EXPECT_GT(link.applied_scale, 1.0);
  EXPECT_LT(link.q_error_after, link.q_error_before);
  EXPECT_DOUBLE_EQ(updater.drift(TermGroup::kLink), link.applied_scale);

  // Serialize and link bandwidth slowed, per-transfer RTT grew...
  EXPECT_LT(hw.wire_serialize_gibps, before.wire_serialize_gibps);
  EXPECT_LT(hw.link_gibps, before.link_gibps);
  EXPECT_GT(hw.link_rtt_seconds, before.link_rtt_seconds);
  // ...and everything else stayed put, most importantly the shuffle copy
  // term that shares the same measured exchanges.
  EXPECT_DOUBLE_EQ(hw.shuffle_gibps, before.shuffle_gibps);
  EXPECT_DOUBLE_EQ(hw.shuffle_dispatch_seconds,
                   before.shuffle_dispatch_seconds);
  EXPECT_DOUBLE_EQ(hw.scan_gibps_per_node, before.scan_gibps_per_node);
  EXPECT_DOUBLE_EQ(hw.filter_rows_per_sec, before.filter_rows_per_sec);
  EXPECT_DOUBLE_EQ(hw.storage_read_gibps, before.storage_read_gibps);
  // The configuration knob is not a calibrated term.
  EXPECT_EQ(hw.exchange_transport, before.exchange_transport);

  // In-process timings (no wire bytes) are not link observations: the
  // link group is left alone instead of dragged toward zero.
  ExecProfile inproc;
  inproc.exchange.timings.resize(2);
  for (auto& t : inproc.exchange.timings) {
    t.bytes = kMiB;
    t.seconds = 0.01;
  }
  const double serialize_now = hw.wire_serialize_gibps;
  CalibrationReport empty =
      updater.Observe(inproc, PipelineGraph(), VolumeMap(), estimator);
  EXPECT_EQ(empty[TermGroup::kLink].observed, 0);
  EXPECT_DOUBLE_EQ(hw.wire_serialize_gibps, serialize_now);

  // Converges: repeated identical observations shrink the remaining gap.
  CalibrationReport second =
      updater.Observe(profile, PipelineGraph(), VolumeMap(), estimator);
  EXPECT_LT(second[TermGroup::kLink].q_error_before, link.q_error_before);
}

TEST_F(CostTest, ShuffleGroupMovesOnlyTheShuffleTerms) {
  // Every double field of the calibration, to prove only the named ones
  // moved.
  using HW = HardwareCalibration;
  const std::vector<double HW::*> all = {
      &HW::scan_gibps_per_node, &HW::network_gibps_per_node,
      &HW::shuffle_gibps, &HW::shuffle_dispatch_seconds,
      &HW::wire_serialize_gibps, &HW::link_gibps, &HW::link_rtt_seconds,
      &HW::filter_rows_per_sec, &HW::project_rows_per_sec,
      &HW::hash_build_rows_per_sec, &HW::hash_probe_rows_per_sec,
      &HW::agg_rows_per_sec, &HW::agg_merge_groups_per_sec,
      &HW::sort_rows_per_sec, &HW::exchange_rows_per_sec,
      &HW::vector_batch_rows, &HW::batch_dispatch_seconds,
      &HW::storage_read_gibps, &HW::storage_get_seconds,
      &HW::parallel_alpha, &HW::shuffle_sync_per_node,
      &HW::pipeline_startup, &HW::worker_spinup_seconds};
  const std::vector<double HW::*> shuffle_terms = {
      &HW::shuffle_gibps, &HW::shuffle_dispatch_seconds};

  // In process: exchanges run 3x slower than the seeded copy term
  // predicts, and only the two shuffle terms move.
  {
    HardwareCalibration hw;
    const HardwareCalibration before = hw;
    CostEstimator estimator(&hw, &node_);
    CalibrationUpdater updater(&hw);
    ExecProfile profile;
    profile.exchange.timings.resize(3);
    for (auto& t : profile.exchange.timings) {
      t.bytes = 4.0 * kMiB;
      t.partitions = 4;
      t.seconds = 3.0 * (t.bytes / (hw.shuffle_gibps * kGiB) +
                         4.0 * hw.shuffle_dispatch_seconds);
    }
    CalibrationReport report =
        updater.Observe(profile, PipelineGraph(), VolumeMap(), estimator);
    const GroupReport& shuffle = report[TermGroup::kShuffle];
    EXPECT_EQ(shuffle.observed, 3);
    EXPECT_GT(shuffle.applied_scale, 1.0);
    EXPECT_LT(shuffle.q_error_after, shuffle.q_error_before);
    EXPECT_DOUBLE_EQ(updater.drift(TermGroup::kShuffle),
                     shuffle.applied_scale);
    EXPECT_EQ(report[TermGroup::kLink].observed, 0);
    EXPECT_LT(hw.shuffle_gibps, before.shuffle_gibps);
    EXPECT_GT(hw.shuffle_dispatch_seconds, before.shuffle_dispatch_seconds);
    for (double HW::*term : all) {
      if (std::find(shuffle_terms.begin(), shuffle_terms.end(), term) !=
          shuffle_terms.end()) {
        continue;
      }
      EXPECT_EQ(hw.*term, before.*term);
    }
  }

  // Over a socket: the copy share of each exchange matches the model and
  // its link share runs 3x slower. The shuffle group reads wall time minus
  // the link share, so the shuffle terms stay put and the link terms move.
  {
    HardwareCalibration hw;
    const HardwareCalibration before = hw;
    CostEstimator estimator(&hw, &node_);
    CalibrationUpdater updater(&hw);
    ExecProfile profile;
    profile.exchange.timings.assign(3, SocketExchange(hw, 1.0, 3.0));
    CalibrationReport report =
        updater.Observe(profile, PipelineGraph(), VolumeMap(), estimator);
    EXPECT_EQ(report[TermGroup::kShuffle].observed, 3);
    EXPECT_EQ(report[TermGroup::kLink].observed, 3);
    EXPECT_DOUBLE_EQ(hw.shuffle_gibps, before.shuffle_gibps);
    EXPECT_DOUBLE_EQ(hw.shuffle_dispatch_seconds,
                     before.shuffle_dispatch_seconds);
    EXPECT_LT(hw.wire_serialize_gibps, before.wire_serialize_gibps);
    EXPECT_LT(hw.link_gibps, before.link_gibps);
    EXPECT_GT(hw.link_rtt_seconds, before.link_rtt_seconds);
  }
}

TEST_F(CostTest, StorageGroupMovesOnlyTheStorageTerms) {
  HardwareCalibration hw;
  const HardwareCalibration before = hw;
  CostEstimator estimator(&hw, &node_);
  CalibrationUpdater updater(&hw);

  // Cold-block reads run 3x slower than the seeded calibration claims:
  // the storage tier must move by ~scale, nothing else may.
  ExecProfile profile;
  BlockCacheStats& s = profile.storage;
  s.misses = 16;
  s.bytes_read = 8.0 * kMiB;
  s.miss_seconds = 3.0 * (s.bytes_read / (hw.storage_read_gibps * kGiB) +
                          16.0 * hw.storage_get_seconds);
  CalibrationReport report =
      updater.Observe(profile, PipelineGraph(), VolumeMap(), estimator);
  const GroupReport& storage = report[TermGroup::kStorage];
  EXPECT_EQ(storage.observed, 1);
  EXPECT_GT(storage.applied_scale, 1.0);
  EXPECT_LT(storage.q_error_after, storage.q_error_before);
  EXPECT_DOUBLE_EQ(updater.drift(TermGroup::kStorage), storage.applied_scale);

  // Cold-read bandwidth slowed, per-GET latency grew...
  EXPECT_LT(hw.storage_read_gibps, before.storage_read_gibps);
  EXPECT_GT(hw.storage_get_seconds, before.storage_get_seconds);
  // ...and every other tier stayed put, including the object-store scan
  // bandwidth the storage terms deliberately sit below.
  EXPECT_DOUBLE_EQ(hw.scan_gibps_per_node, before.scan_gibps_per_node);
  EXPECT_DOUBLE_EQ(hw.filter_rows_per_sec, before.filter_rows_per_sec);
  EXPECT_DOUBLE_EQ(hw.shuffle_gibps, before.shuffle_gibps);

  // The pipeline group moves the storage terms too, and the storage drift
  // records that movement.
  Planned q = Prepare("SELECT sum(lo_revenue) AS r FROM lineorder");
  ExecProfile pipelines;
  for (const Pipeline& p : q.graph.pipelines) {
    pipelines.timings.push_back(
        {p.id, 2.0 * estimator.PipelineDuration(p, 1, q.volumes)});
  }
  const double tracked = updater.drift(TermGroup::kStorage);
  CalibrationReport uniform =
      updater.Observe(pipelines, q.graph, q.volumes, estimator);
  EXPECT_GT(uniform[TermGroup::kPipelines].applied_scale, 1.0);
  EXPECT_DOUBLE_EQ(updater.drift(TermGroup::kStorage),
                   tracked * uniform[TermGroup::kPipelines].applied_scale);
}

TEST_F(CostTest, CalibrationClampsAndGroupOrderWithinARound) {
  // Every group's signal runs 1000x slower than the seeded model, fed
  // round after round. sqrt(1000) exceeds the per-step clamp, so early
  // steps clamp; the pipeline step moves every term first, so each later
  // group reads its pairs and measures its drift after it.
  Planned q = Prepare(
      "SELECT sum(lo_revenue) AS r FROM lineorder WHERE lo_quantity < 25");
  HardwareCalibration hw;
  CostEstimator estimator(&hw, &node_);
  constexpr double kSlow = 1000.0;
  ExecProfile profile;
  for (const Pipeline& p : q.graph.pipelines) {
    profile.timings.push_back(
        {p.id, kSlow * estimator.PipelineDuration(p, 1, q.volumes)});
  }
  profile.exchange.timings.push_back(SocketExchange(hw, kSlow, kSlow));
  profile.storage.misses = 16;
  profile.storage.bytes_read = 8.0 * kMiB;
  profile.storage.miss_seconds =
      kSlow * (8.0 * kMiB / (hw.storage_read_gibps * kGiB) +
               16.0 * hw.storage_get_seconds);

  const TermGroup groups[] = {TermGroup::kPipelines, TermGroup::kShuffle,
                              TermGroup::kLink, TermGroup::kStorage};
  CalibrationUpdater updater(&hw);
  for (int round = 0; round < 5; ++round) {
    double before[kNumTermGroups];
    for (TermGroup g : groups) {
      before[static_cast<size_t>(g)] = updater.drift(g);
    }
    CalibrationReport report =
        updater.Observe(profile, q.graph, q.volumes, estimator);
    const double pipeline_step = report[TermGroup::kPipelines].applied_scale;
    for (TermGroup g : groups) {
      SCOPED_TRACE(::testing::Message() << "round " << round << " group "
                                        << static_cast<int>(g));
      const GroupReport& r = report[g];
      const double was = before[static_cast<size_t>(g)];
      ASSERT_GT(r.observed, 0);
      // The per-step clamp holds...
      EXPECT_LE(r.applied_scale, kCalibrationMaxStep);
      EXPECT_GE(r.applied_scale, 1.0 / kCalibrationMaxStep);
      // ...and so does the drift clamp after the group's own step (no
      // later step of the round moves a group's drift).
      EXPECT_LE(updater.drift(g), kCalibrationMaxDrift * (1.0 + 1e-12));
      // The drift took the pipeline step, then the group's own.
      if (g == TermGroup::kPipelines) {
        EXPECT_DOUBLE_EQ(updater.drift(g), was * pipeline_step);
      } else {
        EXPECT_DOUBLE_EQ(updater.drift(g),
                         was * pipeline_step * r.applied_scale);
      }
      if (round == 0) {
        // Both steps clamp, and the later groups read pairs the pipeline
        // step already moved: 1000x became 1000/8 = 125x.
        EXPECT_DOUBLE_EQ(r.applied_scale, kCalibrationMaxStep);
        if (g != TermGroup::kPipelines) {
          EXPECT_NEAR(r.q_error_before, kSlow / kCalibrationMaxStep, 1e-6);
        }
      }
      if (round == 2 && g != TermGroup::kPipelines) {
        // Pipeline steps 8, 8 and ~3.95 plus the group's own 8 and ~1.4
        // carry its drift past the cap before its own step, which the
        // drift clamp then pulls back down to exactly the cap.
        EXPECT_GT(was * pipeline_step, kCalibrationMaxDrift);
        EXPECT_LT(r.applied_scale, 1.0);
        EXPECT_DOUBLE_EQ(updater.drift(g), kCalibrationMaxDrift);
      }
    }
  }
}

}  // namespace
}  // namespace costdb
