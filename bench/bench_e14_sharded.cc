// E14: Partitioned multi-worker execution.
//
// Claims demonstrated (and gated — exit 1 on violation):
//  (a) a co-partitioned join moves strictly fewer bytes than the same
//      join planned as a repartition shuffle, and the optimizer picks the
//      co-partitioned plan on its own (kLocal exchanges, cheaper estimate);
//  (b) scan+aggregate scales: 4 workers finish in < 0.5x the 1-worker
//      wall time when a spin kernel timed before and after the arms finds
//      at least 3 effective cores (else within 1.5x), with results
//      bit-identical across every worker count (the scaling curve 1..8 is
//      printed in full mode);
//  (c) the shuffle-term calibration folds measured exchange times back in
//      and the simulator's scaling prediction agrees with reality.
//
// `--smoke` runs a smaller configuration and gates (a) + (b) for CI;
// `--json <path>` snapshots the gates plus the per-exchange-kind
// breakdown (shuffle/broadcast/gather counts, rows, bytes) for the CI
// baseline comparator.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "exec/sharded_engine.h"
#include "sim/harness.h"
#include "storage/partition.h"

namespace costdb {
namespace {

constexpr size_t kParts = 8;

struct Tables {
  DataChunk sales;
  DataChunk cust;
};

Tables MakeData(size_t sales_rows, size_t cust_rows) {
  Rng rng(7);
  Tables t;
  t.sales = DataChunk({LogicalType::kInt64, LogicalType::kInt64,
                       LogicalType::kInt64, LogicalType::kInt64,
                       LogicalType::kDouble});
  for (size_t i = 0; i < sales_rows; ++i) {
    t.sales.AppendRow({Value(static_cast<int64_t>(i)),
                       Value(rng.UniformInt(0, int64_t(cust_rows) - 1)),
                       Value(rng.UniformInt(0, 999)),
                       Value(rng.UniformInt(1, 10)),
                       Value(rng.Uniform(0.0, 1000.0))});
  }
  t.cust = DataChunk({LogicalType::kInt64, LogicalType::kVarchar,
                      LogicalType::kInt64});
  const char* regions[] = {"na", "emea", "apac", "latam", "anz"};
  for (size_t k = 0; k < cust_rows; ++k) {
    t.cust.AppendRow({Value(static_cast<int64_t>(k)),
                      Value(std::string(regions[k % 5])),
                      Value(rng.UniformInt(0, 99))});
  }
  return t;
}

std::unique_ptr<Database> MakeDb(const Tables& data, bool partitioned,
                                 bool force_shuffle) {
  DatabaseOptions opts;
  opts.enable_calibration = false;
  if (force_shuffle) {
    opts.optimizer.physical.enable_copartition = false;
    opts.optimizer.physical.broadcast_threshold_bytes = 0.0;
  }
  auto db = std::make_unique<Database>(opts);
  auto sales = std::make_shared<Table>(
      "sales", std::vector<ColumnDef>{{"sid", LogicalType::kInt64},
                                      {"cust", LogicalType::kInt64},
                                      {"grp", LogicalType::kInt64},
                                      {"qty", LogicalType::kInt64},
                                      {"price", LogicalType::kDouble}},
      8192);
  sales->Append(data.sales);
  auto cust = std::make_shared<Table>(
      "cust", std::vector<ColumnDef>{{"key", LogicalType::kInt64},
                                     {"region", LogicalType::kVarchar},
                                     {"score", LogicalType::kInt64}},
      8192);
  cust->Append(data.cust);
  if (partitioned) {
    auto s1 = PartitionTable(sales.get(), PartitionSpec::Hash("cust", kParts));
    auto s2 = PartitionTable(cust.get(), PartitionSpec::Hash("key", kParts));
    if (!s1.ok() || !s2.ok()) {
      std::fprintf(stderr, "partitioning failed\n");
      std::exit(1);
    }
  }
  db->meta()->RegisterTable(sales);
  db->meta()->RegisterTable(cust);
  db->meta()->AnalyzeAll();
  return db;
}

double BestOf(int runs, const ShardedEngine& engine, size_t workers,
              const PhysicalPlan* plan, DataChunk* out,
              ExecProfile* profile = nullptr) {
  double best = 1e18;
  for (int i = 0; i < runs; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto r = engine.Execute(plan, workers, profile);
    auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) {
      std::fprintf(stderr, "execute failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    if (out != nullptr) *out = std::move(r->chunk);
  }
  return best;
}

/// Wall seconds of a fixed integer spin run on `threads` threads at once.
double SpinSeconds(int threads) {
  std::atomic<uint64_t> sink{0};
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> spinners;
  for (int i = 0; i < threads; ++i) {
    spinners.emplace_back([&sink, i] {
      uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(i);
      for (int k = 0; k < 20'000'000; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink += x;
    });
  }
  for (auto& t : spinners) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Cores the process gets right now, out of the 4 the scaling claim
/// needs: 4 threads of the fixed spin take 4x one thread's wall time on
/// one core and 1x on four (best of 3 each, so one preemption does not
/// count). A host's core count alone cannot tell: a VM short of CPU still
/// reports all of its cores.
double EffectiveCores() {
  double one = 1e18, four = 1e18;
  for (int i = 0; i < 3; ++i) {
    one = std::min(one, SpinSeconds(1));
    four = std::min(four, SpinSeconds(4));
  }
  return std::min(4.0, 4.0 * one / four);
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

}  // namespace

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::string json_path = bench::JsonPathFromArgs(argc, argv);
  bench::PrintHeader(
      "E14: partitioned multi-worker execution (sharded engine)",
      "Co-partitioned joins move no join rows and win on bytes + estimate; "
      "scan+agg scales across workers with bit-identical results.");

  const size_t sales_rows = smoke ? 1'000'000 : 4'000'000;
  const size_t cust_rows = smoke ? 50'000 : 100'000;
  Tables data = MakeData(sales_rows, cust_rows);
  auto db_part = MakeDb(data, /*partitioned=*/true, /*force_shuffle=*/false);
  auto db_shuffle = MakeDb(data, /*partitioned=*/false, /*force_shuffle=*/true);

  // ---- (a) shuffle vs co-partition on the same join -------------------
  const std::string join_sql =
      "SELECT c.region, sum(s.qty) AS q FROM sales s JOIN cust c "
      "ON s.cust = c.key GROUP BY c.region";
  auto co_plan = db_part->PlanSql(join_sql, UserConstraint());
  auto sh_plan = db_shuffle->PlanSql(join_sql, UserConstraint());
  if (!co_plan.ok() || !sh_plan.ok()) {
    std::fprintf(stderr, "planning failed\n");
    return 1;
  }
  const bool picked_local =
      co_plan->plan->ToString().find("Exchange Local") != std::string::npos;
  const bool estimate_prefers =
      co_plan->estimate.latency <= sh_plan->estimate.latency &&
      co_plan->estimate.cost <= sh_plan->estimate.cost;

  const ShardedEngine engine;
  DataChunk co_rows;
  ExecProfile co_profile;
  double co_secs = BestOf(smoke ? 2 : 3, engine, 4, co_plan->plan.get(),
                          &co_rows, &co_profile);
  const ExchangeStats& co_stats = co_profile.exchange;
  DataChunk sh_rows;
  ExecProfile sh_profile;
  double sh_secs = BestOf(smoke ? 2 : 3, engine, 4, sh_plan->plan.get(),
                          &sh_rows, &sh_profile);
  const ExchangeStats& sh_stats = sh_profile.exchange;

  std::printf("\n-- join strategies at 4 workers (%zu x %zu rows) --\n",
              sales_rows, cust_rows);
  std::printf("%-16s %12s %14s %12s %10s\n", "plan", "rows moved",
              "bytes moved", "exchanges", "wall");
  std::printf("%-16s %12zu %14.0f %12zu %9.1fms\n", "co-partitioned",
              co_stats.rows_moved(), co_stats.bytes_moved(),
              co_stats.exchanges(), co_secs * 1e3);
  std::printf("%-16s %12zu %14.0f %12zu %9.1fms\n", "shuffle",
              sh_stats.rows_moved(), sh_stats.bytes_moved(),
              sh_stats.exchanges(), sh_secs * 1e3);
  // Per-kind breakdown: which exchange kinds each strategy paid for. The
  // co-partitioned plan's movement is all partial-agg shuffle + the final
  // gather; the repartition plan additionally shuffles the probe side.
  std::printf("%-16s %-10s %8s %12s %14s\n", "plan", "kind", "count",
              "rows", "bytes");
  auto print_kind = [](const char* plan, const char* kind,
                       const ExchangeKindStats& ks) {
    std::printf("%-16s %-10s %8zu %12zu %14.0f\n", plan, kind, ks.count,
                ks.rows_moved, ks.bytes_moved);
  };
  print_kind("co-partitioned", "shuffle", co_stats.shuffle);
  print_kind("co-partitioned", "broadcast", co_stats.broadcast);
  print_kind("co-partitioned", "gather", co_stats.gather);
  print_kind("shuffle", "shuffle", sh_stats.shuffle);
  print_kind("shuffle", "broadcast", sh_stats.broadcast);
  print_kind("shuffle", "gather", sh_stats.gather);
  std::printf("optimizer picked co-partitioned plan: %s (estimate prefers: "
              "%s)\n",
              picked_local ? "yes" : "NO", estimate_prefers ? "yes" : "NO");
  const bool same_answer =
      ChunkFingerprint(co_rows) == ChunkFingerprint(sh_rows);
  const bool claim_a = picked_local && estimate_prefers && same_answer &&
                       co_stats.bytes_moved() < sh_stats.bytes_moved();

  // ---- (b) scaling curve on scan + aggregate --------------------------
  const std::string agg_sql =
      "SELECT grp, count(*) AS c, sum(qty) AS s FROM sales "
      "WHERE price > 100.0 GROUP BY grp";
  auto agg_plan = db_part->PlanSql(agg_sql, UserConstraint());
  if (!agg_plan.ok()) {
    std::fprintf(stderr, "agg planning failed\n");
    return 1;
  }
  constexpr int kRounds = 5;
  std::printf("\n-- scan+agg scaling (%zu rows, best of %d) --\n", sales_rows,
              kRounds);
  std::printf("%-8s %10s %9s %14s\n", "workers", "wall", "speedup",
              "result rows");
  const size_t widths[] = {1, 2, 4, 8};
  double best[4] = {1e18, 1e18, 1e18, 1e18};
  DataChunk rows[4];
  const double cores_before = EffectiveCores();
  // Each round runs every width once, so a slow spell of the host slows
  // all widths alike instead of the one whose runs it overlapped.
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < 4; ++i) {
      best[i] = std::min(best[i], BestOf(1, engine, widths[i],
                                         agg_plan->plan.get(), &rows[i]));
    }
  }
  const double t1 = best[0];
  const double t4 = best[2];
  bool identical = true;
  for (size_t i = 0; i < 4; ++i) {
    identical = identical && ChunkFingerprint(rows[i]) ==
                                 ChunkFingerprint(rows[0]);
    std::printf("%-8zu %8.1fms %8.2fx %14zu\n", widths[i], best[i] * 1e3,
                t1 / std::max(best[i], 1e-9), rows[i].num_rows());
  }
  // The 0.5x wall-time gate needs parallel hardware; on a starved host
  // (a shared VM can get about one core's worth of CPU for minutes) the
  // honest check is that sharding costs bounded overhead while determinism
  // still holds. The capacity is measured right before and right after the
  // arms, and the more starved reading decides.
  const double cores_after = EffectiveCores();
  const double cores = std::min(cores_before, cores_after);
  std::printf("effective cores: %.2f (%.2f before the arms, %.2f after)\n",
              cores, cores_before, cores_after);
  bool claim_b;
  if (cores >= 3.0) {
    claim_b = identical && t4 < 0.5 * t1;
    std::printf("bit-identical across workers: %s; t4 < 0.5*t1: %s "
                "(t1 %.1fms, t4 %.1fms)\n",
                identical ? "yes" : "NO", t4 < 0.5 * t1 ? "yes" : "NO",
                t1 * 1e3, t4 * 1e3);
  } else {
    claim_b = identical && t4 < 1.5 * t1;
    std::printf("bit-identical across workers: %s; speedup gate SKIPPED "
                "(%.2f effective cores); overhead bound t4 < 1.5*t1: %s "
                "(t1 %.1fms, t4 %.1fms)\n",
                identical ? "yes" : "NO", cores,
                t4 < 1.5 * t1 ? "yes" : "NO", t1 * 1e3, t4 * 1e3);
  }

  // ---- (c) calibration + simulator parity (informational) -------------
  if (!smoke) {
    auto prepared = db_part->Prepare(agg_sql, UserConstraint());
    if (prepared.ok()) {
      DataChunk ignored;
      ExecProfile profile;
      double sharded_secs = BestOf(2, engine, 4, prepared->planned.plan.get(),
                                   &ignored, &profile);
      ShardedParity parity =
          CheckShardedParity(*prepared, *db_part->estimator(), 4, t1,
                             sharded_secs, profile.exchange);
      std::printf("\n-- simulator parity at 4 workers --\n");
      std::printf("predicted latency 1w/4w: %.3fs / %.3fs; measured: "
                  "%.3fs / %.3fs; direction agrees: %s\n",
                  parity.predicted_single, parity.predicted_sharded,
                  parity.measured_single, parity.measured_sharded,
                  parity.scaling_direction_agrees ? "yes" : "no");
      std::printf("exchange bytes predicted/measured: %.0f / %.0f\n",
                  parity.predicted_exchange_bytes,
                  parity.measured_exchange_bytes);
    }
    DatabaseOptions cal_opts;
    Database cal_db(cal_opts);
    cal_db.meta()->RegisterTable(*db_part->meta()->GetTable("sales"));
    cal_db.meta()->RegisterTable(*db_part->meta()->GetTable("cust"));
    cal_db.meta()->AnalyzeAll();
    Session cal_session(&cal_db);
    std::printf("\n-- shuffle-term calibration over repeated runs --\n");
    for (int round = 0; round < 4; ++round) {
      auto r = cal_session.ExecuteSql(agg_sql,
                                      UserConstraint().WithWorkers(4));
      if (!r.ok()) break;
      const GroupReport& shuffle = r->calibration[TermGroup::kShuffle];
      std::printf("round %d: q-error %.2f -> %.2f (scale %.3f, shuffle bw "
                  "%.2f GiB/s)\n",
                  round, shuffle.q_error_before, shuffle.q_error_after,
                  shuffle.applied_scale, cal_db.hardware()->shuffle_gibps);
    }
  }

  std::printf("\nclaims: (a) co-partition wins bytes + picked: %s; "
              "(b) scaling + determinism: %s\n",
              claim_a ? "PASS" : "FAIL", claim_b ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    bench::BenchJson json;
    json.SetBool("gate_claim_a", claim_a);
    json.SetBool("gate_claim_b_identical", identical);
    // Exchange movement is deterministic for the fixed seed + worker
    // count, so the per-kind breakdown gates; wall times only trend.
    auto set_kind = [&json](const std::string& prefix,
                            const ExchangeKindStats& ks) {
      json.SetInt("gate_" + prefix + "_count",
                  static_cast<long long>(ks.count));
      json.SetInt("gate_" + prefix + "_rows",
                  static_cast<long long>(ks.rows_moved));
      json.Set("gate_" + prefix + "_bytes", ks.bytes_moved);
    };
    set_kind("co_shuffle", co_stats.shuffle);
    set_kind("co_broadcast", co_stats.broadcast);
    set_kind("co_gather", co_stats.gather);
    set_kind("sh_shuffle", sh_stats.shuffle);
    set_kind("sh_broadcast", sh_stats.broadcast);
    set_kind("sh_gather", sh_stats.gather);
    json.Set("co_wall_seconds", co_secs);
    json.Set("sh_wall_seconds", sh_secs);
    json.Set("agg_wall_1w_seconds", t1);
    json.Set("agg_wall_4w_seconds", t4);
    json.Set("effective_cores", cores);
    if (!json.WriteFile(json_path)) return 1;
  }
  return claim_a && claim_b ? 0 : 1;
}

}  // namespace costdb

int main(int argc, char** argv) { return costdb::Main(argc, argv); }
