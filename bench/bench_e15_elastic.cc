// E15: Elastic sharded execution driven by real resize policies.
//
// Claims demonstrated (and gated — exit 1 on violation):
//  (a) an elastic run that grows 2 -> 6 workers at the aggregation's
//      shuffle boundary is bit-identical to the fixed-width LocalEngine
//      result, and its worker-second ledger bills every wall second at
//      the width actually held (a fixed-width run bills exactly
//      wall x workers);
//  (b) the ElasticController accepts a policy's grow proposal when the
//      calibrated cost model prices it net-positive, and *declines* the
//      same proposal when the spin-up term makes the resize net-negative
//      — the paper's "resize only when it pays for itself in dollars";
//  (c) informational: the facade's elastic path bills the run on the
//      cloud meter, and the simulator's resize predictions stay
//      comparable to the real ledger (CheckElasticParity).
//
// `--smoke` runs a smaller configuration and gates (a) + (b) for CI.

// bench-baseline: none — this bench emits no JSON snapshot; its
// acceptance gates are its PASS/FAIL exit code, not a committed
// ci/bench_baselines/ entry (see the drift guard in ci/build_and_test.sh).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "exec/sharded_engine.h"
#include "runtime/elastic_controller.h"
#include "runtime/policies.h"
#include "sim/harness.h"
#include "storage/partition.h"

namespace costdb {
namespace {

std::unique_ptr<Database> MakeDb(size_t rows) {
  DatabaseOptions opts;
  opts.enable_calibration = false;
  auto db = std::make_unique<Database>(opts);
  Rng rng(19);
  DataChunk chunk({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kInt64, LogicalType::kDouble});
  for (size_t i = 0; i < rows; ++i) {
    chunk.AppendRow({Value(static_cast<int64_t>(i)),
                     Value(rng.UniformInt(0, 999)),
                     Value(rng.UniformInt(1, 10)),
                     Value(rng.Uniform(0.0, 1000.0))});
  }
  auto sales = std::make_shared<Table>(
      "sales", std::vector<ColumnDef>{{"sid", LogicalType::kInt64},
                                      {"grp", LogicalType::kInt64},
                                      {"qty", LogicalType::kInt64},
                                      {"price", LogicalType::kDouble}},
      8192);
  sales->Append(chunk);
  db->meta()->RegisterTable(sales);
  db->meta()->AnalyzeAll();
  return db;
}

std::string ChunkFingerprint(const DataChunk& chunk) {
  std::string all, key;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    EncodeChunkKeyInto(chunk, chunk.num_columns(), r, &key);
    all += key;
    all += '\n';
  }
  return all;
}

/// Policy that always proposes the widest allowed cluster — the
/// over-provisioner the cost model must keep honest.
class GreedyPolicy : public ResizePolicy {
 public:
  const char* name() const override { return "greedy"; }
  int OnTick(const PolicyContext& ctx, const PipelineRunView&) override {
    return ctx.max_dop;
  }
};

}  // namespace

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::PrintHeader(
      "E15: elastic sharded execution (resize at fragment boundaries)",
      "Mid-query resizes keep results bit-identical, worker-seconds are "
      "billed as held, and the cost model vetoes net-negative resizes.");

  const size_t rows = smoke ? 1'000'000 : 4'000'000;
  auto db = MakeDb(rows);
  const std::string sql =
      "SELECT grp, count(*) AS c, sum(qty) AS s FROM sales "
      "WHERE price > 100.0 GROUP BY grp";
  auto planned = db->PlanSql(sql, UserConstraint());
  if (!planned.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 planned.status().ToString().c_str());
    return 1;
  }

  // ---- (a) grow 2 -> 6 mid-query: bit-identical + billed as held ------
  LocalEngine local(4);
  auto reference = local.Execute(planned->plan.get());
  if (!reference.ok()) {
    std::fprintf(stderr, "local execute failed\n");
    return 1;
  }
  ShardedEngine engine;
  ExecProfile grown_profile;
  auto grown =
      engine.Execute(planned->plan.get(), 2, &grown_profile,
                     [](const FragmentBoundary&) { return size_t{6}; });
  if (!grown.ok()) {
    std::fprintf(stderr, "elastic execute failed: %s\n",
                 grown.status().ToString().c_str());
    return 1;
  }
  const WorkerUsage& usage = grown_profile.usage;
  const bool identical =
      ChunkFingerprint(reference->chunk) == ChunkFingerprint(grown->chunk);

  std::printf("\n-- elastic run: grow 2 -> 6 at the shuffle boundary "
              "(%zu rows) --\n", rows);
  std::printf("%-24s %10s\n", "fragment", "width");
  for (size_t i = 0; i < usage.fragments.size(); ++i) {
    std::printf("  #%-21zu %10zu  (%.2fms)\n", i, usage.fragments[i].workers,
                usage.fragments[i].seconds * 1e3);
  }
  std::printf("wall %.2fms, worker-seconds %.5f (min %zu, peak %zu, "
              "resizes %zu, spun up %zu)\n",
              usage.wall_seconds * 1e3, usage.worker_seconds,
              usage.min_workers, usage.peak_workers, usage.resizes,
              usage.workers_spun_up);
  const bool billed_in_bounds =
      usage.worker_seconds >=
          usage.wall_seconds * static_cast<double>(usage.min_workers) -
              1e-9 &&
      usage.worker_seconds <=
          usage.wall_seconds * static_cast<double>(usage.peak_workers) +
              1e-9;
  ExecProfile fixed_profile;
  auto fixed_run = engine.Execute(planned->plan.get(), 4, &fixed_profile);
  const WorkerUsage& fixed_usage = fixed_profile.usage;
  const bool fixed_exact =
      fixed_run.ok() &&
      std::abs(fixed_usage.worker_seconds - fixed_usage.wall_seconds * 4.0) <=
          fixed_usage.wall_seconds * 4.0 * 1e-6 + 1e-9;
  std::printf("fixed 4-worker run bills wall x 4 exactly: %s; elastic bill "
              "within [wall x min, wall x peak]: %s\n",
              fixed_exact ? "yes" : "NO", billed_in_bounds ? "yes" : "NO");
  const bool claim_a = identical && usage.resizes == 1 &&
                       usage.peak_workers == 6 && usage.min_workers == 2 &&
                       billed_in_bounds && fixed_exact;
  std::printf("bit-identical to LocalEngine across the resize: %s\n",
              identical ? "yes" : "NO");

  // ---- (b) the cost model gates a greedy policy ------------------------
  // Same query, same greedy proposal (always "grow to 8"); the only thing
  // that changes between the two runs is the calibrated spin-up price.
  std::printf("\n-- controller pricing: greedy policy vs the cost model --\n");
  GreedyPolicy greedy;
  ElasticControllerOptions copts;
  copts.max_workers = 8;

  HardwareCalibration cheap_hw;
  cheap_hw.worker_spinup_seconds = 0.0;  // resizes are free: accept
  InstanceType node = PricingCatalog::Default().default_node();
  CostEstimator cheap_est(&cheap_hw, &node);
  ElasticController accepter(&cheap_est, &greedy, copts);
  accepter.BeginQuery(&planned->pipelines, &planned->volumes,
                      UserConstraint(), planned->estimate.latency, 2);
  auto cheap_run = engine.Execute(
      planned->plan.get(), 2, /*profile=*/nullptr,
      [&accepter](const FragmentBoundary& b) { return accepter.Decide(b); });

  HardwareCalibration dear_hw;
  dear_hw.worker_spinup_seconds = 1e6;  // spin-up dwarfs any saving: decline
  CostEstimator dear_est(&dear_hw, &node);
  ElasticController decliner(&dear_est, &greedy, copts);
  decliner.BeginQuery(&planned->pipelines, &planned->volumes,
                      UserConstraint(), planned->estimate.latency, 2);
  auto dear_run = engine.Execute(
      planned->plan.get(), 2, /*profile=*/nullptr,
      [&decliner](const FragmentBoundary& b) { return decliner.Decide(b); });

  auto print_decisions = [](const char* label,
                            const ElasticController& controller) {
    for (const auto& d : controller.decisions()) {
      std::printf("  [%s] boundary %d: %zu -> proposed %zu, applied %zu "
                  "(%s; overhead %.4fs, predicted saving %.4fs, $%+.2e)\n",
                  label, d.boundary, d.from, d.proposed, d.applied,
                  d.reason.c_str(), d.resize_overhead_seconds,
                  d.predicted_saving_seconds, d.dollar_delta);
    }
  };
  print_decisions("free spin-up", accepter);
  print_decisions("dear spin-up", decliner);
  const bool accepted = cheap_run.ok() && accepter.resizes_applied() >= 1;
  bool declined_net_negative =
      dear_run.ok() && decliner.resizes_applied() == 0 &&
      decliner.resizes_declined() >= 1;
  for (const auto& d : decliner.decisions()) {
    if (d.declined && d.reason.find("net-negative") == std::string::npos) {
      declined_net_negative = false;
    }
  }
  const bool same_rows =
      cheap_run.ok() && dear_run.ok() &&
      ChunkFingerprint(cheap_run->chunk) == ChunkFingerprint(dear_run->chunk) &&
      ChunkFingerprint(cheap_run->chunk) == ChunkFingerprint(reference->chunk);
  std::printf("free spin-up accepted a grow: %s; dear spin-up declined every "
              "grow as net-negative: %s; results identical throughout: %s\n",
              accepted ? "yes" : "NO", declined_net_negative ? "yes" : "NO",
              same_rows ? "yes" : "NO");
  const bool claim_b = accepted && declined_net_negative && same_rows;

  // ---- (c) facade billing + simulator parity (informational) -----------
  if (!smoke) {
    DatabaseOptions eopts;
    eopts.enable_calibration = false;
    eopts.enable_elastic = true;
    Database elastic_db(eopts);
    elastic_db.meta()->RegisterTable(*db->meta()->GetTable("sales"));
    elastic_db.meta()->AnalyzeAll();
    Session elastic_session(&elastic_db);
    auto run = elastic_session.ExecuteSql(sql, UserConstraint().WithWorkers(3));
    if (run.ok()) {
      std::printf("\n-- facade elastic run at 3 workers --\n");
      std::printf("billed $%.3e for %.5f worker-seconds (%zu boundary "
                  "decisions, %zu resizes); meter total $%.3e\n",
                  run->billed_dollars, run->usage.worker_seconds,
                  run->elastic.size(), run->usage.resizes,
                  elastic_db.billing_snapshot().total());
    }
    auto prepared = db->Prepare(sql, UserConstraint());
    if (prepared.ok()) {
      StaticPolicy static_policy;
      ElasticParity parity =
          CheckElasticParity(*prepared, *db->simulator(), &static_policy,
                             UserConstraint(), usage);
      std::printf("simulator parity: sim %.2f machine-s / %d resizes vs real "
                  "%.5f worker-s / %zu resizes (ratio %.1f, direction "
                  "agrees: %s)\n",
                  parity.simulated_machine_seconds, parity.simulated_resizes,
                  parity.real_machine_seconds, parity.real_resizes,
                  parity.machine_seconds_ratio,
                  parity.resize_direction_agrees ? "yes" : "no");
    }
  }

  std::printf("\nclaims: (a) grow 2->6 bit-identical + billed as held: %s; "
              "(b) cost model accepts/declines by price: %s\n",
              claim_a ? "PASS" : "FAIL", claim_b ? "PASS" : "FAIL");
  return claim_a && claim_b ? 0 : 1;
}

}  // namespace costdb

int main(int argc, char** argv) { return costdb::Main(argc, argv); }
