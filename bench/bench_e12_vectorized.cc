// E12 — vectorized execution microbench: the same selective SSB filter
// scan three ways over lineorder row groups.
//
//   scalar      row-at-a-time reference interpreter (boxed Values), every
//               row group touched — what the engine hot path looked like
//               before vectorization.
//   vectorized  selection-vector kernels over the flat column payloads,
//               every row group touched.
//   pruned      vectorized kernels behind zone-map morsel skipping — row
//               groups whose min/max cannot satisfy the predicate are
//               never read.
//
// A second, hot shape — the mid-selectivity residual conjunction left once
// the zone maps have consumed the clustering-key conjunct, which is also
// the filter of SSB Q1 — runs over every morsel on the scalar and
// vectorized paths in alternating rounds. It is gated in every run, smoke
// included: the vectorized path must be at least 25x the scalar path.
//
// All paths must select the same rows with bit-identical revenue sums
// (checked); the interesting outputs are the speedups and the fraction of
// morsels the zone maps skip. This bench probes the kernel layer directly
// (Expr + Evaluator + Table, the same surface the unit tests use);
// end-to-end SQL still enters through the Database facade as ROADMAP.md
// requires.
//
//   top-N       one ORDER BY over every lineorder row through Session, with
//               and without LIMIT 10: the LIMIT query must return the first
//               10 rows of the full sort, and its sort pipeline (the one
//               sinking into the sort, from ExecutionResult::timings) must
//               take at most half the full sort's seconds in the same run.
//
// --json <path> writes the numbers as a flat JSON snapshot (BenchJson);
// ci/build_and_test.sh persists one per run and gates the gate_* keys
// against the committed baseline.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "exec/evaluator.h"

using namespace costdb;
using namespace costdb::bench;

namespace {

struct TopNPhase {
  size_t rows = 0;             // rows the LIMIT query returned
  bool parity = true;          // ...equal to the full sort's first rows
  double full_seconds = 0.0;   // sort pipeline seconds, best of the runs
  double limit_seconds = 0.0;  // same, with the LIMIT
};

/// Seconds of the pipeline that sinks into the plan's sort.
double SortPipelineSeconds(const ExecutionResult& r) {
  for (const Pipeline& p : r.plan->pipelines.pipelines) {
    if (p.sink == nullptr || p.sink->kind != PhysicalPlan::Kind::kSort) {
      continue;
    }
    for (const PipelineTiming& t : r.timings) {
      if (t.pipeline_id == p.id) return t.seconds;
    }
  }
  return 0.0;
}

bool SameRows(const DataChunk& a, const DataChunk& b, size_t rows) {
  if (a.num_columns() != b.num_columns() || a.num_rows() < rows ||
      b.num_rows() < rows) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t r = 0; r < rows; ++r) {
      if (a.column(c).GetValue(r) != b.column(c).GetValue(r)) return false;
    }
  }
  return true;
}

/// The top-N phase over an SSB instance of `scale`: best seconds of
/// `runs`, parity on every run.
Result<TopNPhase> RunTopN(double scale, int runs) {
  DatabaseOptions db_opts;
  db_opts.enable_calibration = false;  // a fixed plan across the runs
  Database db(db_opts);
  SsbOptions opts;
  opts.scale = scale;
  opts.row_group_size = 4096;
  LoadSsb(db.meta(), opts);
  Session session(&db);
  const std::string full_sql =
      "SELECT lo_orderkey, lo_revenue FROM lineorder ORDER BY lo_revenue "
      "DESC";
  const std::string limit_sql = full_sql + " LIMIT 10";
  TopNPhase out;
  for (int run = 0; run < runs; ++run) {
    ExecutionResult full, limited;
    COSTDB_ASSIGN_OR_RETURN(full, session.ExecuteSql(full_sql));
    COSTDB_ASSIGN_OR_RETURN(limited, session.ExecuteSql(limit_sql));
    const double fs = SortPipelineSeconds(full);
    const double ls = SortPipelineSeconds(limited);
    if (run == 0 || fs < out.full_seconds) out.full_seconds = fs;
    if (run == 0 || ls < out.limit_seconds) out.limit_seconds = ls;
    out.rows = limited.result.chunk.num_rows();
    out.parity = out.parity && out.rows == 10 &&
                 SameRows(full.result.chunk, limited.result.chunk, 10);
  }
  return out;
}

double ElapsedSeconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct PhaseResult {
  double seconds = 0.0;
  int64_t rows_selected = 0;
  double revenue = 0.0;  // sum over selection, so the work can't be elided
  size_t morsels_touched = 0;
  size_t morsels_total = 0;
};

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.2;
  int iters = 5;
  bool smoke = false;  // smoke mode checks wiring + parity, not wall clock
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      scale = 0.02;
      // Enough repetitions for the per-iteration averages to be usable
      // trajectory timers at tiny scale (single-iteration times are ~tens
      // of microseconds on the pruned morsel set).
      iters = 20;
      smoke = true;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    }
  }
  const std::string json_path = JsonPathFromArgs(argc, argv);

  PrintHeader("E12: vectorized scan/filter kernels",
              "Selective SSB filter scan: scalar reference interpreter vs\n"
              "selection-vector kernels vs kernels + zone-map pruning; then\n"
              "one ORDER BY with and without LIMIT 10 (top-N sort) through\n"
              "Session.");

  MetadataService meta;
  SsbOptions opts;
  opts.scale = scale;
  opts.row_group_size = 4096;
  LoadSsb(&meta, opts);
  auto table = meta.GetTable("lineorder").value();
  const int64_t rows = static_cast<int64_t>(table->num_rows());

  // SSB Q1-flavored predicate. lo_orderkey is the insertion-ordered key,
  // so its zone maps are tight and the first conjunct prunes ~90% of the
  // row groups; the discount/quantity conjuncts do per-row work on the
  // survivors.
  const int64_t key_cutoff = rows / 10;
  auto col = [&](const char* name) {
    return Expr::MakeColumn(name, LogicalType::kInt64);
  };
  auto lit = [](int64_t v) {
    return Expr::MakeConstant(Value(v), LogicalType::kInt64);
  };
  ExprPtr predicate = Expr::MakeAnd({
      Expr::MakeCompare(CompareOp::kLt, col("lo_orderkey"), lit(key_cutoff)),
      Expr::MakeCompare(CompareOp::kGe, col("lo_discount"), lit(1)),
      Expr::MakeCompare(CompareOp::kLe, col("lo_discount"), lit(3)),
      Expr::MakeCompare(CompareOp::kLt, col("lo_quantity"), lit(25)),
  });
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(predicate, &conjuncts);

  std::vector<std::string> schema;
  for (const auto& c : table->columns()) schema.push_back(c.name);
  Evaluator ev(&schema);
  const size_t revenue_idx = *table->ColumnIndex("lo_revenue");

  // The hot shape: the mid-selectivity residual conjunction that survives
  // after the zone maps have consumed the clustering-key conjunct. Per-pass
  // narrowing is at its worst here — every vectorized pass keeps 30-90% of
  // its input, so no row's outcome is predictable, and two intermediate
  // selection vectors materialize.
  ExprPtr hot_predicate = Expr::MakeAnd({
      Expr::MakeCompare(CompareOp::kGe, col("lo_discount"), lit(1)),
      Expr::MakeCompare(CompareOp::kLe, col("lo_discount"), lit(3)),
      Expr::MakeCompare(CompareOp::kLt, col("lo_quantity"), lit(25)),
  });

  auto sum_selected = [&](const ColumnVector& rev, const SelectionVector& sel,
                          PhaseResult* r) {
    for (uint32_t i : sel) r->revenue += rev.GetDouble(i);
    r->rows_selected += static_cast<int64_t>(sel.size());
  };

  // Modes: 0 scalar, 1 vectorized, 2 pruned vectorized.
  // Each phase is timed as the best of `phase_reps` repetitions of the
  // whole iteration loop. The reported numbers are kernel-vs-kernel
  // *ratios* at microsecond scale, where a scheduler hiccup during one
  // phase skews the ratio by 2-3x; the minimum is the run least disturbed
  // by interference.
  const int reps = 3;
  auto run_phase = [&](int mode, const Expr& pred, int phase_reps) {
    PhaseResult r;
    double best_seconds = 0.0;
    for (int rep = 0; rep < phase_reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) {
      r.rows_selected = 0;
      r.revenue = 0.0;
      r.morsels_touched = 0;
      r.morsels_total = 0;
      for (const auto& group : table->row_groups()) {
        ++r.morsels_total;
        if (mode == 2) {
          bool prunable = false;
          for (const auto& f : conjuncts) {
            std::string c;
            CompareOp op;
            Value constant;
            if (!MatchColumnCompareConstant(f, &c, &op, &constant)) continue;
            auto idx = table->ColumnIndex(c);
            if (!idx.ok()) continue;
            if (!group.zones[*idx].MayMatch(op, constant)) {
              prunable = true;
              break;
            }
          }
          if (prunable) continue;
        }
        ++r.morsels_touched;
        ChunkView view(group.data);
        auto sel = mode == 0 ? ev.EvaluateSelectionScalar(pred, view)
                             : ev.EvaluateSelection(pred, view);
        if (!sel.ok()) {
          std::printf("phase failed: %s\n", sel.status().ToString().c_str());
          std::exit(1);
        }
        sum_selected(group.data.column(revenue_idx), *sel, &r);
      }
    }
    const double s =
        ElapsedSeconds(t0, std::chrono::steady_clock::now()) / iters;
    if (rep == 0 || s < best_seconds) best_seconds = s;
    }
    r.seconds = best_seconds;
    return r;
  };

  PhaseResult scalar = run_phase(0, *predicate, reps);
  PhaseResult vectorized = run_phase(1, *predicate, reps);
  PhaseResult pruned = run_phase(2, *predicate, reps);
  // The hot-shape pair runs in alternating rounds, each side keeping its
  // best round: a stretch of interference on a shared host then slows
  // rounds of both paths instead of one whole phase of one of them.
  PhaseResult hot_scalar;
  PhaseResult hot_vec;
  for (int round = 0; round < reps; ++round) {
    const PhaseResult sc = run_phase(0, *hot_predicate, 1);
    const PhaseResult v = run_phase(1, *hot_predicate, 1);
    if (round == 0 || sc.seconds < hot_scalar.seconds) hot_scalar = sc;
    if (round == 0 || v.seconds < hot_vec.seconds) hot_vec = v;
  }

  if (scalar.rows_selected != vectorized.rows_selected ||
      scalar.rows_selected != pruned.rows_selected) {
    std::printf("FAIL: paths disagree (scalar %lld, vectorized %lld, "
                "pruned %lld)\n",
                static_cast<long long>(scalar.rows_selected),
                static_cast<long long>(vectorized.rows_selected),
                static_cast<long long>(pruned.rows_selected));
    return 1;
  }
  if (hot_scalar.rows_selected != hot_vec.rows_selected) {
    std::printf("FAIL: hot-shape paths disagree (scalar %lld, "
                "vectorized %lld)\n",
                static_cast<long long>(hot_scalar.rows_selected),
                static_cast<long long>(hot_vec.rows_selected));
    return 1;
  }
  // Bit-identical, not approximately equal: every path visits survivors in
  // ascending row order within the same group order (pruned groups
  // contribute nothing), so the revenue folds of a shape add the same
  // doubles in the same sequence.
  if (scalar.revenue != vectorized.revenue || scalar.revenue != pruned.revenue ||
      hot_scalar.revenue != hot_vec.revenue) {
    std::printf("FAIL: revenue sums are not bit-identical "
                "(scalar %.17g, vectorized %.17g, pruned %.17g, "
                "hot scalar %.17g, hot vectorized %.17g)\n",
                scalar.revenue, vectorized.revenue, pruned.revenue,
                hot_scalar.revenue, hot_vec.revenue);
    return 1;
  }

  const double pruned_frac =
      1.0 - static_cast<double>(pruned.morsels_touched) /
                static_cast<double>(pruned.morsels_total);
  std::printf("\nlineorder: %lld rows, %zu row groups of %zu; predicate "
              "selects %lld rows (%.2f%%)\n",
              static_cast<long long>(rows), pruned.morsels_total,
              table->row_group_size(),
              static_cast<long long>(scalar.rows_selected),
              100.0 * static_cast<double>(scalar.rows_selected) /
                  static_cast<double>(rows));

  TablePrinter t({"path", "time/iter", "Mrows/s", "speedup", "morsels"});
  // Speedups are against the scalar run of the same predicate.
  auto row = [&](const char* name, const PhaseResult& r,
                 const PhaseResult& reference) {
    char time_s[32], rate_s[32], speed_s[32], morsels_s[32];
    std::snprintf(time_s, sizeof(time_s), "%.4fs", r.seconds);
    std::snprintf(rate_s, sizeof(rate_s), "%.1f",
                  static_cast<double>(rows) / r.seconds / 1e6);
    std::snprintf(speed_s, sizeof(speed_s), "%.1fx",
                  reference.seconds / r.seconds);
    std::snprintf(morsels_s, sizeof(morsels_s), "%zu/%zu", r.morsels_touched,
                  r.morsels_total);
    t.AddRow({name, time_s, rate_s, speed_s, morsels_s});
  };
  row("scalar (row-at-a-time)", scalar, scalar);
  row("vectorized", vectorized, scalar);
  row("vectorized + zone maps", pruned, scalar);
  row("hot shape: scalar", hot_scalar, hot_scalar);
  row("hot shape: vectorized", hot_vec, hot_scalar);
  std::printf("%s", t.ToString().c_str());
  std::printf("zone maps pruned %.0f%% of morsels; hot shape selects %lld "
              "rows (%.1f%%) on every morsel\n",
              100.0 * pruned_frac,
              static_cast<long long>(hot_vec.rows_selected),
              100.0 * static_cast<double>(hot_vec.rows_selected) /
                  static_cast<double>(rows));

  const double speedup = scalar.seconds / pruned.seconds;
  // The hot shape over the identical (every-morsel) set. Both sides run in
  // the same alternating rounds, so the ratio holds on a noisy host and is
  // gated in smoke mode too.
  const double hot_speedup = hot_scalar.seconds / hot_vec.seconds;
  const bool hot_25x = hot_speedup >= 25.0;
  // A single tiny-scale run on a loaded CI box is not a reliable absolute
  // timer, so smoke mode does not gate the scalar-path speedup — but
  // parity (above) and pruning always gate.
  const bool ok = (smoke || speedup >= 3.0) && pruned_frac >= 0.5;
  Result<TopNPhase> topn = RunTopN(scale, smoke ? 7 : 5);
  if (!topn.ok()) {
    std::printf("FAIL: top-N phase: %s\n", topn.status().ToString().c_str());
    return 1;
  }
  const double topn_speedup =
      topn->limit_seconds > 0.0 ? topn->full_seconds / topn->limit_seconds
                                : 0.0;
  const bool topn_sort_2x = topn_speedup >= 2.0;
  const bool topn_ok = topn->parity && topn_sort_2x;
  std::printf("%s: vectorized+pruned is %.1fx the scalar path "
              "(target >= 3x%s), pruning %.0f%% of morsels (target >= 50%%); "
              "vectorized is %.1fx the scalar path on the hot shape "
              "(target >= 25x)\n",
              ok && hot_25x ? "PASS" : "FAIL", speedup,
              smoke ? ", not gated in smoke mode" : "", 100.0 * pruned_frac,
              hot_speedup);
  std::printf("%s: ORDER BY ... LIMIT 10 returns the full sort's first %zu "
              "rows (%s); its sort pipeline takes %.4fs against %.4fs "
              "without the LIMIT, %.1fx (target >= 2x)\n",
              topn_ok ? "PASS" : "FAIL", topn->rows,
              topn->parity ? "parity" : "MISMATCH", topn->limit_seconds,
              topn->full_seconds, topn_speedup);

  if (!json_path.empty()) {
    BenchJson j;
    j.SetStr("bench", "bench_e12_vectorized");
    j.Set("scale", scale);
    j.SetInt("iters", iters);
    j.SetBool("smoke", smoke);
    j.SetInt("rows", static_cast<long long>(rows));
    j.SetInt("row_groups", static_cast<long long>(pruned.morsels_total));
    // gate_* keys are deterministic for a fixed --smoke configuration;
    // CI's regression gate compares them against the committed snapshot.
    j.SetInt("gate_rows_selected",
             static_cast<long long>(scalar.rows_selected));
    j.SetInt("gate_hot_rows_selected",
             static_cast<long long>(hot_vec.rows_selected));
    j.Set("gate_pruned_frac", pruned_frac);
    j.SetInt("gate_pass", ok ? 1 : 0);
    j.SetInt("gate_hot_vectorized_25x", hot_25x ? 1 : 0);
    j.SetInt("gate_topn_rows", static_cast<long long>(topn->rows));
    j.SetInt("gate_topn_parity", topn->parity ? 1 : 0);
    j.SetInt("gate_topn_sort_2x", topn_sort_2x ? 1 : 0);
    // Trajectory-only metrics: machine-dependent, persisted but ungated.
    j.Set("scalar_seconds", scalar.seconds);
    j.Set("vectorized_seconds", vectorized.seconds);
    j.Set("pruned_seconds", pruned.seconds);
    j.Set("hot_scalar_seconds", hot_scalar.seconds);
    j.Set("hot_vectorized_seconds", hot_vec.seconds);
    j.Set("pruned_speedup_vs_scalar", speedup);
    j.Set("hot_vectorized_speedup_vs_scalar", hot_speedup);
    j.Set("hot_vectorized_mrows_per_sec",
          static_cast<double>(rows) / hot_vec.seconds / 1e6);
    j.Set("topn_full_sort_seconds", topn->full_seconds);
    j.Set("topn_limit_sort_seconds", topn->limit_seconds);
    j.Set("topn_sort_speedup", topn_speedup);
    if (!j.WriteFile(json_path)) return 1;
  }
  return ok && hot_25x && topn_ok ? 0 : 1;
}
