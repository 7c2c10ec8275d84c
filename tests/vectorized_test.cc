// Property tests for the vectorized execution path: the selection-vector
// kernels must agree with the scalar reference interpreter on randomized
// chunks (including NULLs), zone-map pruning must never drop a qualifying
// row, and the engine's aggregation must stay deterministic across thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "cost/operator_models.h"
#include "exec/engine.h"
#include "exec/evaluator.h"
#include "exec/fused.h"
#include "optimizer/optimizer.h"
#include "storage/table.h"

namespace costdb {
namespace {

const std::vector<std::string> kSchema = {"a", "b", "x", "s"};
const char* kWords[] = {"alpha", "beta", "gamma", "delta", "", "alp", "be%ta"};

/// Random chunk over (a int64, b int64 small-domain, x double, s varchar),
/// optionally sprinkled with NULLs in every column.
DataChunk RandomChunk(Rng* rng, size_t rows, bool with_nulls) {
  DataChunk chunk({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kVarchar});
  for (size_t r = 0; r < rows; ++r) {
    auto null_here = [&] { return with_nulls && rng->NextDouble() < 0.12; };
    std::vector<Value> row;
    row.push_back(null_here() ? Value::Null() : Value(rng->UniformInt(-50, 50)));
    row.push_back(null_here() ? Value::Null() : Value(rng->UniformInt(0, 5)));
    row.push_back(null_here() ? Value::Null() : Value(rng->Uniform(-10.0, 10.0)));
    row.push_back(null_here() ? Value::Null()
                              : Value(std::string(kWords[rng->UniformInt(0, 6)])));
    chunk.AppendRow(row);
  }
  return chunk;
}

ExprPtr IntCol(const char* name) {
  return Expr::MakeColumn(name, LogicalType::kInt64);
}

/// Random predicate tree over the schema: column-vs-constant and
/// column-vs-column comparisons, LIKE, arithmetic inside comparisons, and
/// AND/OR/NOT combiners — every shape the selection path dispatches on.
ExprPtr RandomPredicate(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextDouble() < 0.4) {
    const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
    CompareOp op = ops[rng->UniformInt(0, 5)];
    switch (rng->UniformInt(0, 5)) {
      case 0:  // int column vs int constant
        return Expr::MakeCompare(
            op, IntCol("a"),
            Expr::MakeConstant(Value(rng->UniformInt(-40, 40)),
                               LogicalType::kInt64));
      case 1:  // double column vs double constant
        return Expr::MakeCompare(
            op, Expr::MakeColumn("x", LogicalType::kDouble),
            Expr::MakeConstant(Value(rng->Uniform(-8.0, 8.0)),
                               LogicalType::kDouble));
      case 2:  // int column vs int column (b's domain overlaps a's)
        return Expr::MakeCompare(op, IntCol("a"), IntCol("b"));
      case 3:  // string column vs string constant
        return Expr::MakeCompare(
            op, Expr::MakeColumn("s", LogicalType::kVarchar),
            Expr::MakeConstant(Value(std::string(kWords[rng->UniformInt(0, 6)])),
                               LogicalType::kVarchar));
      case 4:  // LIKE
        return Expr::MakeLike(Expr::MakeColumn("s", LogicalType::kVarchar),
                              rng->NextDouble() < 0.5 ? "%a%" : "be_ta");
      default:  // arithmetic inside a comparison (mask fallback path)
        return Expr::MakeCompare(
            op, Expr::MakeArith('+', IntCol("a"), IntCol("b")),
            Expr::MakeConstant(Value(rng->UniformInt(-20, 20)),
                               LogicalType::kInt64));
    }
  }
  switch (rng->UniformInt(0, 2)) {
    case 0: {
      std::vector<ExprPtr> kids;
      int n = static_cast<int>(rng->UniformInt(2, 3));
      for (int i = 0; i < n; ++i) kids.push_back(RandomPredicate(rng, depth - 1));
      return Expr::MakeAnd(std::move(kids));
    }
    case 1: {
      std::vector<ExprPtr> kids;
      int n = static_cast<int>(rng->UniformInt(2, 3));
      for (int i = 0; i < n; ++i) kids.push_back(RandomPredicate(rng, depth - 1));
      return Expr::MakeOr(std::move(kids));
    }
    default:
      return Expr::MakeNot(RandomPredicate(rng, depth - 1));
  }
}

TEST(VectorizedParity, SelectionMatchesScalarReference) {
  Rng rng(7);
  Evaluator ev(&kSchema);
  for (int iter = 0; iter < 120; ++iter) {
    const bool with_nulls = iter % 2 == 1;
    DataChunk chunk = RandomChunk(&rng, 257, with_nulls);
    ExprPtr pred = RandomPredicate(&rng, 2);
    auto fast = ev.EvaluateSelection(*pred, chunk);
    auto slow = ev.EvaluateSelectionScalar(*pred, chunk);
    ASSERT_TRUE(fast.ok()) << pred->ToString();
    ASSERT_TRUE(slow.ok()) << pred->ToString();
    EXPECT_EQ(*fast, *slow) << "iter " << iter << " nulls=" << with_nulls
                            << " pred " << pred->ToString();
  }
}

TEST(VectorizedParity, ProjectionMatchesScalarReference) {
  Rng rng(11);
  Evaluator ev(&kSchema);
  for (int iter = 0; iter < 60; ++iter) {
    DataChunk chunk = RandomChunk(&rng, 97, /*with_nulls=*/true);
    const char ops[] = {'+', '-', '*', '/'};
    ExprPtr expr = Expr::MakeArith(
        ops[rng.UniformInt(0, 3)],
        rng.NextDouble() < 0.5 ? IntCol("a")
                               : Expr::MakeColumn("x", LogicalType::kDouble),
        rng.NextDouble() < 0.5
            ? IntCol("b")
            : Expr::MakeConstant(Value(rng.UniformInt(-3, 3)),
                                 LogicalType::kInt64));
    expr->type = LogicalType::kDouble;
    auto vec = ev.Evaluate(*expr, chunk);
    ASSERT_TRUE(vec.ok());
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      auto scalar = ev.EvaluateRow(*expr, chunk, r);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(vec->IsNull(r), scalar->is_null()) << "row " << r;
      if (!scalar->is_null()) {
        EXPECT_DOUBLE_EQ(vec->GetDouble(r), scalar->AsDouble()) << "row " << r;
      }
    }
  }
}

TEST(LikeEscape, EscapedWildcardsMatchLiterally) {
  // '!' escapes the following wildcard (or itself).
  EXPECT_TRUE(LikeMatch("50%", "50!%", '!'));
  EXPECT_FALSE(LikeMatch("50x", "50!%", '!'));
  EXPECT_TRUE(LikeMatch("a_b", "a!_b", '!'));
  EXPECT_FALSE(LikeMatch("axb", "a!_b", '!'));
  EXPECT_TRUE(LikeMatch("a!b", "a!!b", '!'));
  // Unescaped wildcards still work around escaped ones.
  EXPECT_TRUE(LikeMatch("price: 50% off", "%50!%%", '!'));
  EXPECT_FALSE(LikeMatch("price: 500 off", "%50!%%", '!'));
  // No escape char: '!' is an ordinary literal and % stays a wildcard.
  EXPECT_TRUE(LikeMatch("50x", "50%"));
  EXPECT_TRUE(LikeMatch("a!b", "a!b"));
  // The compiled form agrees with the one-shot helper.
  LikePattern compiled("%!%%", '!');
  EXPECT_TRUE(compiled.Match("100% sure"));
  EXPECT_FALSE(compiled.Match("100 percent"));
}

TEST(VectorizedParity, LikeEscapeMatchesScalarReference) {
  DataChunk chunk({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kVarchar});
  const char* samples[] = {"50%",   "50x",  "a_b",   "axb", "a!b",
                           "100%",  "",     "%",     "_",   "!","50% off"};
  int64_t i = 0;
  for (const char* s : samples) {
    chunk.AppendRow({Value(i++), Value(int64_t{0}), Value(0.0),
                     Value(std::string(s))});
  }
  chunk.AppendRow({Value(i), Value(int64_t{0}), Value(0.0), Value::Null()});
  Evaluator ev(&kSchema);
  for (const char* pattern : {"50!%", "a!_b", "a!!b", "!%%", "%!%%", "!_"}) {
    ExprPtr pred = Expr::MakeLike(
        Expr::MakeColumn("s", LogicalType::kVarchar), pattern, '!');
    auto fast = ev.EvaluateSelection(*pred, chunk);
    auto slow = ev.EvaluateSelectionScalar(*pred, chunk);
    ASSERT_TRUE(fast.ok()) << pattern;
    ASSERT_TRUE(slow.ok()) << pattern;
    EXPECT_EQ(*fast, *slow) << pattern;
    // The mask path agrees too (NULL input row stays NULL).
    auto mask = ev.Evaluate(*pred, chunk);
    ASSERT_TRUE(mask.ok());
    EXPECT_TRUE(mask->IsNull(chunk.num_rows() - 1));
  }
}

TEST(HashKernel, NullKeysHashToOneTagNeverTheirPayload) {
  // Two NULL slots with different stale payloads must hash identically,
  // and a NULL must not hash like the genuine 0 its filler payload holds.
  ColumnVector with_filler(LogicalType::kInt64);
  with_filler.AppendInt(0);     // genuine 0
  with_filler.AppendNull();     // payload filler is also 0
  ColumnVector with_stale(LogicalType::kInt64);
  with_stale.AppendInt(42);
  with_stale.AppendInt(-7);
  with_stale.MutableValidity()[0] = 0;  // NULL with stale payload 42
  with_stale.MutableValidity()[1] = 0;  // NULL with stale payload -7

  std::vector<uint64_t> h1, h2;
  kernels::HashRows({with_filler}, {true}, 2, &h1);
  kernels::HashRows({with_stale}, {true}, 2, &h2);
  EXPECT_NE(h1[0], h1[1]) << "NULL hashed like a genuine 0";
  EXPECT_EQ(h2[0], h2[1]) << "NULL hash depends on stale payload";
  EXPECT_EQ(h1[1], h2[0]) << "NULL hash differs across vectors";

  // AnyKeyNull is the probe/build guard.
  EXPECT_FALSE(kernels::AnyKeyNull({with_filler}, 0));
  EXPECT_TRUE(kernels::AnyKeyNull({with_filler}, 1));
}

TEST(VectorizedParity, NullComparisonNeverSelects) {
  Evaluator ev(&kSchema);
  DataChunk chunk({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kVarchar});
  chunk.AppendRow({Value(int64_t{5}), Value(int64_t{1}), Value(1.0),
                   Value(std::string("alpha"))});
  chunk.AppendRow({Value::Null(), Value(int64_t{1}), Value(1.0),
                   Value(std::string("alpha"))});
  chunk.AppendRow({Value(int64_t{-5}), Value(int64_t{1}), Value(1.0),
                   Value(std::string("alpha"))});
  // a > 0 keeps only row 0; NOT(a > 0) keeps only row 2 (NULL is neither).
  ExprPtr gt = Expr::MakeCompare(
      CompareOp::kGt, IntCol("a"),
      Expr::MakeConstant(Value(int64_t{0}), LogicalType::kInt64));
  auto sel = ev.EvaluateSelection(*gt, chunk);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelectionVector{0}));
  auto neg = ev.EvaluateSelection(*Expr::MakeNot(gt), chunk);
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(*neg, (SelectionVector{2}));
}

TEST(VectorizedParity, BareColumnPredicateUsesTypedTruthiness) {
  // A bare double column as predicate (reachable only through the direct
  // kernel API) must truthy-test the double payload, matching the scalar
  // oracle, instead of touching the int payload.
  Evaluator ev(&kSchema);
  DataChunk chunk({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kVarchar});
  chunk.AppendRow({Value(int64_t{1}), Value(int64_t{0}), Value(0.0),
                   Value(std::string("w"))});
  chunk.AppendRow({Value(int64_t{1}), Value(int64_t{0}), Value(2.5),
                   Value(std::string("w"))});
  chunk.AppendRow({Value(int64_t{1}), Value(int64_t{0}), Value::Null(),
                   Value(std::string("w"))});
  ExprPtr pred = Expr::MakeColumn("x", LogicalType::kDouble);
  auto fast = ev.EvaluateSelection(*pred, chunk);
  auto slow = ev.EvaluateSelectionScalar(*pred, chunk);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(*fast, (SelectionVector{1}));
  EXPECT_EQ(*fast, *slow);
}

TEST(VectorizedParity, LogicalOpsCoerceDoubleOperands) {
  // NOT / AND over a double operand must truthy-test the double payload
  // in both paths (regression: the mask path used to read the empty int
  // payload).
  Evaluator ev(&kSchema);
  DataChunk chunk({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kVarchar});
  chunk.AppendRow({Value(int64_t{1}), Value(int64_t{0}), Value(0.0),
                   Value(std::string("w"))});
  chunk.AppendRow({Value(int64_t{1}), Value(int64_t{0}), Value(3.5),
                   Value(std::string("w"))});
  ExprPtr x = Expr::MakeColumn("x", LogicalType::kDouble);
  for (const ExprPtr& pred :
       {Expr::MakeNot(x),
        Expr::MakeAnd({Expr::MakeCompare(
                           CompareOp::kGt, IntCol("a"),
                           Expr::MakeConstant(Value(int64_t{0}),
                                              LogicalType::kInt64)),
                       x})}) {
    auto fast = ev.EvaluateSelection(*pred, chunk);
    auto slow = ev.EvaluateSelectionScalar(*pred, chunk);
    ASSERT_TRUE(fast.ok()) << pred->ToString();
    ASSERT_TRUE(slow.ok()) << pred->ToString();
    EXPECT_EQ(*fast, *slow) << pred->ToString();
  }
}

TEST(VectorizedKernels, AccumulateAndMinMaxSkipNulls) {
  ColumnVector v(LogicalType::kInt64);
  v.AppendInt(4);
  v.AppendNull();
  v.AppendInt(-2);
  v.AppendInt(10);
  int64_t count = 0, isum = 0;
  double dsum = 0.0;
  kernels::Accumulate(v, &count, &isum, &dsum);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(isum, 12);
  EXPECT_DOUBLE_EQ(dsum, 12.0);
  Value lo, hi;
  bool has_value = false;
  kernels::MinMax(v, &lo, &hi, &has_value);
  ASSERT_TRUE(has_value);
  EXPECT_EQ(lo.AsInt(), -2);
  EXPECT_EQ(hi.AsInt(), 10);

  ColumnVector all_null(LogicalType::kDouble);
  all_null.AppendNull();
  all_null.AppendNull();
  has_value = false;
  kernels::MinMax(all_null, &lo, &hi, &has_value);
  EXPECT_FALSE(has_value);
}

TEST(ZoneMapPruning, NeverDropsQualifyingRows) {
  Rng rng(23);
  const std::vector<std::string> schema = {"k"};
  Evaluator ev(&schema);
  for (int iter = 0; iter < 80; ++iter) {
    // Random (sometimes NULL-bearing, sometimes sorted) column split into
    // small row groups with zone maps — the scan's pruning unit.
    Table table("t", {{"k", LogicalType::kInt64}}, /*row_group_size=*/16);
    DataChunk data({LogicalType::kInt64});
    const size_t rows = 16 * static_cast<size_t>(rng.UniformInt(2, 6));
    std::vector<Value> values;
    for (size_t r = 0; r < rows; ++r) {
      values.push_back(rng.NextDouble() < 0.1
                           ? Value::Null()
                           : Value(rng.UniformInt(-100, 100)));
    }
    if (iter % 3 == 0) {
      std::sort(values.begin(), values.end(),
                [](const Value& a, const Value& b) { return a < b; });
    }
    for (const auto& v : values) data.AppendRow({v});
    table.Append(data);

    const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
    CompareOp op = ops[rng.UniformInt(0, 5)];
    Value constant(rng.UniformInt(-110, 110));
    ExprPtr pred = Expr::MakeCompare(
        op, IntCol("k"), Expr::MakeConstant(constant, LogicalType::kInt64));
    for (const auto& group : table.row_groups()) {
      if (group.zones[0].MayMatch(op, constant)) continue;
      // Pruned group: the scalar oracle must agree that nothing matches.
      auto sel = ev.EvaluateSelectionScalar(*pred, group.data);
      ASSERT_TRUE(sel.ok());
      EXPECT_TRUE(sel->empty())
          << "zone map dropped qualifying rows: op " << CompareOpName(op)
          << " const " << constant.ToString();
    }
  }
}

// ------------------------------------------------------------ fused tier
// Three-way parity: the fused single-pass kernels must agree with the
// per-kernel vectorized path AND the scalar reference interpreter on the
// same randomized chunks. The registry is the shared dispatch point, so
// these tests also pin down exactly which shapes compile.

const std::vector<LogicalType> kSchemaTypes = {
    LogicalType::kInt64, LogicalType::kInt64, LogicalType::kDouble,
    LogicalType::kVarchar};

/// Random conjunction drawn only from shapes the registry instantiates:
/// column-vs-constant compares over every type family, numeric
/// column-vs-column, and LIKE with and without ESCAPE.
ExprPtr RandomFusableConjunction(Rng* rng) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  const int terms = static_cast<int>(rng->UniformInt(1, 4));
  std::vector<ExprPtr> kids;
  for (int t = 0; t < terms; ++t) {
    CompareOp op = ops[rng->UniformInt(0, 5)];
    switch (rng->UniformInt(0, 5)) {
      case 0:
        kids.push_back(Expr::MakeCompare(
            op, IntCol("a"),
            Expr::MakeConstant(Value(rng->UniformInt(-40, 40)),
                               LogicalType::kInt64)));
        break;
      case 1:
        kids.push_back(Expr::MakeCompare(
            op, Expr::MakeColumn("x", LogicalType::kDouble),
            Expr::MakeConstant(Value(rng->Uniform(-8.0, 8.0)),
                               LogicalType::kDouble)));
        break;
      case 2:
        kids.push_back(Expr::MakeCompare(op, IntCol("a"), IntCol("b")));
        break;
      case 3:  // mixed int-vs-double column compare (kNumColCol)
        kids.push_back(Expr::MakeCompare(
            op, IntCol("b"), Expr::MakeColumn("x", LogicalType::kDouble)));
        break;
      case 4:
        kids.push_back(Expr::MakeCompare(
            op, Expr::MakeColumn("s", LogicalType::kVarchar),
            Expr::MakeConstant(Value(std::string(kWords[rng->UniformInt(0, 6)])),
                               LogicalType::kVarchar)));
        break;
      default:
        kids.push_back(
            Expr::MakeLike(Expr::MakeColumn("s", LogicalType::kVarchar),
                           rng->NextDouble() < 0.5 ? "%a%" : "be!_ta",
                           rng->NextDouble() < 0.5 ? '\0' : '!'));
        break;
    }
  }
  if (kids.size() == 1) return std::move(kids[0]);
  return Expr::MakeAnd(std::move(kids));
}

TEST(FusedParity, RandomConjunctionsMatchVectorizedAndScalar) {
  Rng rng(31);
  Evaluator ev(&kSchema);
  const FusedKernelRegistry& registry = FusedKernelRegistry::Global();
  SelectionVector fused_sel;
  for (int iter = 0; iter < 150; ++iter) {
    const bool with_nulls = iter % 2 == 1;
    DataChunk chunk = RandomChunk(&rng, 193, with_nulls);
    ExprPtr pred = RandomFusableConjunction(&rng);
    ASSERT_TRUE(registry.CanCompile(*pred, kSchema, kSchemaTypes))
        << pred->ToString();
    auto fused = registry.Compile(*pred, kSchema, kSchemaTypes);
    ASSERT_TRUE(fused.has_value()) << pred->ToString();
    ASSERT_TRUE(fused->Select(chunk, &fused_sel).ok()) << pred->ToString();
    auto fast = ev.EvaluateSelection(*pred, chunk);
    auto slow = ev.EvaluateSelectionScalar(*pred, chunk);
    ASSERT_TRUE(fast.ok()) << pred->ToString();
    ASSERT_TRUE(slow.ok()) << pred->ToString();
    EXPECT_EQ(fused_sel, *fast) << "iter " << iter << " nulls=" << with_nulls
                                << " pred " << pred->ToString();
    EXPECT_EQ(fused_sel, *slow) << "iter " << iter << " nulls=" << with_nulls
                                << " pred " << pred->ToString();
  }
}

TEST(FusedParity, EmptyAllPassAndNullConstantSelections) {
  Rng rng(43);
  Evaluator ev(&kSchema);
  const FusedKernelRegistry& registry = FusedKernelRegistry::Global();
  DataChunk chunk = RandomChunk(&rng, 211, /*with_nulls=*/true);
  SelectionVector fused_sel;

  auto check = [&](const ExprPtr& pred) {
    auto fused = registry.Compile(*pred, kSchema, kSchemaTypes);
    ASSERT_TRUE(fused.has_value()) << pred->ToString();
    ASSERT_TRUE(fused->Select(chunk, &fused_sel).ok());
    auto slow = ev.EvaluateSelectionScalar(*pred, chunk);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fused_sel, *slow) << pred->ToString();
  };

  // Empty selection: no row satisfies a < -1000.
  ExprPtr none = Expr::MakeCompare(
      CompareOp::kLt, IntCol("a"),
      Expr::MakeConstant(Value(int64_t{-1000}), LogicalType::kInt64));
  check(none);

  // All-pass on the non-NULL rows: a <= 1000 keeps every valid row but
  // must still deselect NULLs (SQL three-valued logic).
  ExprPtr all = Expr::MakeCompare(
      CompareOp::kLe, IntCol("a"),
      Expr::MakeConstant(Value(int64_t{1000}), LogicalType::kInt64));
  check(all);

  // A conjunct comparing against a NULL constant compiles to always-false.
  ExprPtr with_null = Expr::MakeAnd({
      Expr::MakeCompare(CompareOp::kLe, IntCol("a"),
                        Expr::MakeConstant(Value(int64_t{1000}),
                                           LogicalType::kInt64)),
      Expr::MakeCompare(CompareOp::kEq, IntCol("b"),
                        Expr::MakeConstant(Value::Null(),
                                           LogicalType::kInt64)),
  });
  auto fused = registry.Compile(*with_null, kSchema, kSchemaTypes);
  ASSERT_TRUE(fused.has_value());
  EXPECT_TRUE(fused->always_false());
  check(with_null);

  // Zero-row chunk: every path agrees on the empty selection.
  DataChunk empty({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kVarchar});
  auto fused_all = registry.Compile(*all, kSchema, kSchemaTypes);
  ASSERT_TRUE(fused_all.has_value());
  ASSERT_TRUE(fused_all->Select(empty, &fused_sel).ok());
  EXPECT_TRUE(fused_sel.empty());
}

TEST(FusedParity, LikeEscapeInFusedConjunction) {
  DataChunk chunk({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kVarchar});
  const char* samples[] = {"50%",  "50x", "a_b", "axb",    "a!b", "100%",
                           "",     "%",   "_",   "!",      "50% off"};
  int64_t i = 0;
  for (const char* s : samples) {
    chunk.AppendRow({Value(i++), Value(int64_t{0}), Value(0.0),
                     Value(std::string(s))});
  }
  chunk.AppendRow({Value(i), Value(int64_t{0}), Value(0.0), Value::Null()});
  Evaluator ev(&kSchema);
  const FusedKernelRegistry& registry = FusedKernelRegistry::Global();
  SelectionVector fused_sel;
  for (const char* pattern : {"50!%", "a!_b", "a!!b", "!%%", "%!%%", "!_"}) {
    // LIKE ESCAPE riding inside a fused conjunction with a numeric term.
    ExprPtr pred = Expr::MakeAnd({
        Expr::MakeCompare(CompareOp::kGe, IntCol("a"),
                          Expr::MakeConstant(Value(int64_t{0}),
                                             LogicalType::kInt64)),
        Expr::MakeLike(Expr::MakeColumn("s", LogicalType::kVarchar), pattern,
                       '!'),
    });
    auto fused = registry.Compile(*pred, kSchema, kSchemaTypes);
    ASSERT_TRUE(fused.has_value()) << pattern;
    ASSERT_TRUE(fused->Select(chunk, &fused_sel).ok()) << pattern;
    auto fast = ev.EvaluateSelection(*pred, chunk);
    auto slow = ev.EvaluateSelectionScalar(*pred, chunk);
    ASSERT_TRUE(fast.ok()) << pattern;
    ASSERT_TRUE(slow.ok()) << pattern;
    EXPECT_EQ(fused_sel, *fast) << pattern;
    EXPECT_EQ(fused_sel, *slow) << pattern;
  }
}

TEST(FusedRegistry, DeclinesUnsupportedShapes) {
  const FusedKernelRegistry& registry = FusedKernelRegistry::Global();
  auto int_const = [](int64_t v) {
    return Expr::MakeConstant(Value(v), LogicalType::kInt64);
  };
  ExprPtr cmp_a = Expr::MakeCompare(CompareOp::kLt, IntCol("a"), int_const(3));
  ExprPtr cmp_b = Expr::MakeCompare(CompareOp::kGt, IntCol("b"), int_const(1));
  // OR, NOT, and arithmetic operands have no fused instantiation.
  for (const ExprPtr& bad :
       {Expr::MakeOr({cmp_a->Clone(), cmp_b->Clone()}),
        Expr::MakeNot(cmp_a->Clone()),
        Expr::MakeCompare(CompareOp::kLt,
                          Expr::MakeArith('+', IntCol("a"), IntCol("b")),
                          int_const(5))}) {
    EXPECT_FALSE(registry.CanCompile(*bad, kSchema, kSchemaTypes))
        << bad->ToString();
    EXPECT_FALSE(registry.Compile(*bad, kSchema, kSchemaTypes).has_value())
        << bad->ToString();
  }
  // ...and one unsupported conjunct spoils the whole conjunction.
  ExprPtr mixed = Expr::MakeAnd(
      {cmp_a->Clone(), Expr::MakeNot(cmp_b->Clone())});
  EXPECT_FALSE(registry.CanCompile(*mixed, kSchema, kSchemaTypes));

  // String-vs-numeric mixes decline; SUM over a string column declines.
  ExprPtr str_num = Expr::MakeCompare(
      CompareOp::kEq, Expr::MakeColumn("s", LogicalType::kVarchar),
      int_const(1));
  EXPECT_FALSE(registry.CanCompile(*str_num, kSchema, kSchemaTypes));
  std::vector<FusedAggSpec> specs;
  std::vector<ExprPtr> bad_aggs;
  bad_aggs.push_back(Expr::MakeAgg(
      AggFunc::kSum, Expr::MakeColumn("s", LogicalType::kVarchar)));
  EXPECT_FALSE(
      registry.CompileAggregates(bad_aggs, kSchema, kSchemaTypes, &specs));
  std::vector<ExprPtr> computed_aggs;
  computed_aggs.push_back(Expr::MakeAgg(
      AggFunc::kSum, Expr::MakeArith('+', IntCol("a"), IntCol("b"))));
  EXPECT_FALSE(registry.CompileAggregates(computed_aggs, kSchema,
                                          kSchemaTypes, &specs));
}

TEST(FusedParity, SelectGatherMatchesSelectPlusGather) {
  Rng rng(57);
  const FusedKernelRegistry& registry = FusedKernelRegistry::Global();
  for (int iter = 0; iter < 40; ++iter) {
    DataChunk chunk = RandomChunk(&rng, 173, iter % 2 == 1);
    ExprPtr pred = RandomFusableConjunction(&rng);
    auto fused = registry.Compile(*pred, kSchema, kSchemaTypes);
    ASSERT_TRUE(fused.has_value());
    SelectionVector sel;
    ASSERT_TRUE(fused->Select(chunk, &sel).ok());
    DataChunk projected({LogicalType::kInt64, LogicalType::kVarchar});
    SelectionVector scratch;
    ASSERT_TRUE(
        fused->SelectGather(chunk, {0, 3}, &projected, &scratch).ok());
    ASSERT_EQ(projected.num_rows(), sel.size());
    DataChunk manual({LogicalType::kInt64, LogicalType::kVarchar});
    manual.column(0) = chunk.column(0).Gather(sel);
    manual.column(1) = chunk.column(3).Gather(sel);
    EXPECT_EQ(projected.ToString(-1), manual.ToString(-1)) << "iter " << iter;
  }
}

TEST(FusedParity, FilterAggregateFoldMatchesSelectedKernels) {
  Rng rng(71);
  const FusedKernelRegistry& registry = FusedKernelRegistry::Global();
  std::vector<ExprPtr> aggs;
  aggs.push_back(Expr::MakeAgg(AggFunc::kCountStar, nullptr));
  aggs.push_back(Expr::MakeAgg(AggFunc::kCount,
                               Expr::MakeColumn("x", LogicalType::kDouble)));
  aggs.push_back(Expr::MakeAgg(AggFunc::kSum, IntCol("a")));
  aggs.push_back(Expr::MakeAgg(AggFunc::kAvg,
                               Expr::MakeColumn("x", LogicalType::kDouble)));
  aggs.push_back(Expr::MakeAgg(AggFunc::kMin, IntCol("a")));
  aggs.push_back(Expr::MakeAgg(AggFunc::kMax,
                               Expr::MakeColumn("x", LogicalType::kDouble)));
  std::vector<FusedAggSpec> specs;
  ASSERT_TRUE(registry.CompileAggregates(aggs, kSchema, kSchemaTypes, &specs));
  ASSERT_EQ(specs.size(), aggs.size());

  Evaluator ev(&kSchema);
  for (int iter = 0; iter < 30; ++iter) {
    DataChunk chunk = RandomChunk(&rng, 149, iter % 2 == 1);
    ExprPtr pred = RandomFusableConjunction(&rng);
    auto fused = registry.Compile(*pred, kSchema, kSchemaTypes);
    ASSERT_TRUE(fused.has_value());
    std::vector<FusedAggState> states(specs.size());
    SelectionVector scratch;
    auto survivors =
        FusedFilterAggregate(&*fused, chunk, specs, &states, &scratch);
    ASSERT_TRUE(survivors.ok());

    auto sel = ev.EvaluateSelectionScalar(*pred, chunk);
    ASSERT_TRUE(sel.ok());
    EXPECT_EQ(*survivors, sel->size());
    // COUNT(*).
    EXPECT_EQ(states[0].count, static_cast<int64_t>(sel->size()));
    // COUNT(x).
    EXPECT_EQ(states[1].count,
              kernels::CountValidSelected(chunk.column(2), *sel));
    // SUM(a): integer accumulation stays exact.
    int64_t count = 0, isum = 0;
    double dsum = 0.0;
    kernels::AccumulateSelected(chunk.column(0), *sel, &count, &isum, &dsum);
    EXPECT_EQ(states[2].count, count);
    EXPECT_EQ(states[2].isum, isum);
    EXPECT_EQ(states[2].dsum, dsum);  // bit-identical, not approximately
    // AVG(x): double accumulation must be bit-identical to the unfused
    // kernel (same visit order, same branch structure).
    count = 0; isum = 0; dsum = 0.0;
    kernels::AccumulateSelected(chunk.column(2), *sel, &count, &isum, &dsum);
    EXPECT_EQ(states[3].count, count);
    EXPECT_EQ(states[3].dsum, dsum);
    // MIN(a) / MAX(x).
    Value lo, hi;
    bool has_value = false;
    kernels::MinMaxSelected(chunk.column(0), *sel, &lo, &hi, &has_value);
    EXPECT_EQ(states[4].has_value, has_value);
    if (has_value) {
      EXPECT_EQ(states[4].min.AsInt(), lo.AsInt());
    }
    has_value = false;
    kernels::MinMaxSelected(chunk.column(2), *sel, &lo, &hi, &has_value);
    EXPECT_EQ(states[5].has_value, has_value);
    if (has_value) {
      EXPECT_EQ(states[5].max.AsDouble(), hi.AsDouble());
    }
  }
}

/// Engine-level fixture: a clustered fact table large enough to span many
/// row groups, queried through the optimizer like exec_test does.
class VectorizedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fact = std::make_shared<Table>(
        "fact", std::vector<ColumnDef>{{"k", LogicalType::kInt64},
                                       {"grp", LogicalType::kInt64},
                                       {"amount", LogicalType::kDouble}},
        /*row_group_size=*/64);
    DataChunk chunk({LogicalType::kInt64, LogicalType::kInt64,
                     LogicalType::kDouble});
    Rng rng(99);
    for (int64_t i = 0; i < 2048; ++i) {  // k is insertion-ordered
      chunk.AppendRow({Value(i), Value(rng.UniformInt(0, 7)),
                       Value(rng.Uniform(0.0, 100.0))});
    }
    fact->Append(chunk);
    meta_.RegisterTable(fact);
    meta_.AnalyzeAll();
  }

  Result<QueryResult> Run(const std::string& sql, LocalEngine* engine,
                          ExecProfile* profile = nullptr) {
    Optimizer opt(&meta_);
    auto plan = opt.OptimizeSql(sql);
    EXPECT_TRUE(plan.ok()) << sql;
    return engine->Execute(plan->get(), profile);
  }

  MetadataService meta_;
};

TEST_F(VectorizedEngineTest, SelectivePredicatePrunesMostMorselsAndAgrees) {
  LocalEngine engine(4);
  // k < 256 covers 4 of 32 row groups: pruning must skip >= 50% of the
  // morsels and still return exactly the qualifying rows.
  ExecProfile profile;
  auto r = Run("SELECT k FROM fact WHERE k < 256", &engine, &profile);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->chunk.num_rows(), 256u);
  const ScanStats& stats = profile.scan;
  EXPECT_EQ(stats.morsels_total, 32u);
  EXPECT_GE(stats.pruned_fraction(), 0.5)
      << stats.morsels_pruned << "/" << stats.morsels_total;
  // No qualifying row was dropped: every k in [0, 256) is present.
  int64_t sum = 0;
  for (size_t i = 0; i < r->chunk.num_rows(); ++i) {
    sum += r->chunk.column(0).GetInt(i);
  }
  EXPECT_EQ(sum, 255 * 256 / 2);
}

TEST_F(VectorizedEngineTest, AggregationDeterministicAcrossThreadCounts) {
  const std::string sql =
      "SELECT grp, count(*) AS n, sum(amount) AS total, min(k) AS lo, "
      "max(k) AS hi, avg(amount) AS mean FROM fact GROUP BY grp "
      "ORDER BY grp";
  LocalEngine serial(1);
  auto a = Run(sql, &serial);
  ASSERT_TRUE(a.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    LocalEngine parallel(threads);
    auto b = Run(sql, &parallel);
    ASSERT_TRUE(b.ok());
    // Bit-exact equality, doubles included: partials merge in morsel
    // order regardless of thread interleaving.
    EXPECT_EQ(a->chunk.ToString(-1), b->chunk.ToString(-1))
        << "threads=" << threads;
  }
}

TEST_F(VectorizedEngineTest, AllNullAggregateInputsZeroFill) {
  // Result chunks stay NULL-free: MIN/MAX over an all-NULL input column
  // zero-fills like the empty-input branch, instead of leaking NULLs.
  auto t = std::make_shared<Table>(
      "nullcol", std::vector<ColumnDef>{{"v", LogicalType::kDouble}});
  DataChunk dc({LogicalType::kDouble});
  dc.AppendRow({Value::Null()});
  dc.AppendRow({Value::Null()});
  t->Append(dc);
  meta_.RegisterTable(t);
  meta_.AnalyzeAll();

  LocalEngine engine(2);
  auto r = Run("SELECT min(v) AS lo, max(v) AS hi, sum(v) AS s, "
               "count(v) AS n FROM nullcol",
               &engine);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->chunk.num_rows(), 1u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_FALSE(r->chunk.column(c).IsNull(0)) << "col " << c;
    EXPECT_DOUBLE_EQ(r->chunk.column(c).GetDouble(0), 0.0) << "col " << c;
  }
  EXPECT_EQ(r->chunk.column(3).GetInt(0), 0);  // COUNT skips NULLs
}

TEST_F(VectorizedEngineTest, DoubleGroupKeysAreBitExact) {
  // Nearby doubles that round to the same 6-decimal string must remain
  // distinct groups; +0.0 and -0.0 compare equal and stay one group.
  auto t = std::make_shared<Table>(
      "doubles", std::vector<ColumnDef>{{"d", LogicalType::kDouble}});
  DataChunk dc({LogicalType::kDouble});
  dc.AppendRow({Value(1.0000001)});
  dc.AppendRow({Value(1.0000004)});
  dc.AppendRow({Value(0.0)});
  dc.AppendRow({Value(-0.0)});
  t->Append(dc);
  meta_.RegisterTable(t);
  meta_.AnalyzeAll();

  LocalEngine engine(2);
  auto r = Run("SELECT d, count(*) AS n FROM doubles GROUP BY d", &engine);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->chunk.num_rows(), 3u);  // two near-1.0 groups + one zero group
}

TEST_F(VectorizedEngineTest, AggregateFreeGroupBy) {
  // GROUP BY with no aggregate list: one output row per distinct group.
  LocalEngine engine(4);
  auto r = Run("SELECT grp FROM fact GROUP BY grp ORDER BY grp", &engine);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->chunk.num_rows(), 8u);
  for (int64_t g = 0; g < 8; ++g) {
    EXPECT_EQ(r->chunk.column(0).GetInt(static_cast<size_t>(g)), g);
  }
}

TEST_F(VectorizedEngineTest, CountOverStringColumn) {
  // COUNT(col) is legal on any type; the fold must count rows without
  // touching the (string) payload as if it were numeric.
  auto names = std::make_shared<Table>(
      "names", std::vector<ColumnDef>{{"g", LogicalType::kInt64},
                                      {"label", LogicalType::kVarchar}});
  DataChunk nc({LogicalType::kInt64, LogicalType::kVarchar});
  for (int64_t i = 0; i < 10; ++i) {
    nc.AppendRow({Value(i % 2), Value(std::string(i % 3 == 0 ? "x" : "y"))});
  }
  names->Append(nc);
  meta_.RegisterTable(names);
  meta_.AnalyzeAll();

  LocalEngine engine(4);
  auto global = Run("SELECT count(label) AS n FROM names", &engine);
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  EXPECT_EQ(global->chunk.column(0).GetInt(0), 10);

  auto grouped = Run(
      "SELECT g, count(label) AS n FROM names GROUP BY g ORDER BY g",
      &engine);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped->chunk.num_rows(), 2u);
  EXPECT_EQ(grouped->chunk.column(1).GetInt(0), 5);
  EXPECT_EQ(grouped->chunk.column(1).GetInt(1), 5);
}

TEST_F(VectorizedEngineTest, CrossJoinWithoutEquiKeys) {
  // A disconnected join graph becomes a hash join with an empty key list;
  // every probe row must match every build row (regression: the hash
  // kernel must emit one seed hash per row even with zero key columns).
  auto tiny = std::make_shared<Table>(
      "tiny", std::vector<ColumnDef>{{"t", LogicalType::kInt64}});
  DataChunk tc({LogicalType::kInt64});
  for (int64_t i = 0; i < 3; ++i) tc.AppendRow({Value(i)});
  tiny->Append(tc);
  meta_.RegisterTable(tiny);
  meta_.AnalyzeAll();

  LocalEngine engine(4);
  auto r = Run("SELECT count(*) AS n FROM fact, tiny WHERE k < 128", &engine);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->chunk.num_rows(), 1u);
  EXPECT_EQ(r->chunk.column(0).GetInt(0), 128 * 3);
}

TEST_F(VectorizedEngineTest, JoinAndFilterMatchScalarOracle) {
  // Star-style join through the engine vs a hand-computed expectation.
  auto dim = std::make_shared<Table>(
      "dim", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                    {"label", LogicalType::kVarchar}});
  DataChunk dc({LogicalType::kInt64, LogicalType::kVarchar});
  for (int64_t g = 0; g < 8; ++g) {
    dc.AppendRow({Value(g), Value(std::string(g % 2 == 0 ? "even" : "odd"))});
  }
  dim->Append(dc);
  meta_.RegisterTable(dim);
  meta_.AnalyzeAll();

  LocalEngine engine(4);
  auto r = Run("SELECT count(*) AS n FROM fact, dim "
               "WHERE grp = id AND label = 'even' AND k < 512",
               &engine);
  ASSERT_TRUE(r.ok());
  // Oracle: count rows with k < 512 and even grp, straight off the table.
  auto fact = meta_.GetTable("fact").value();
  DataChunk all = fact->Scan();
  int64_t expected = 0;
  for (size_t i = 0; i < all.num_rows(); ++i) {
    if (all.column(0).GetInt(i) < 512 && all.column(1).GetInt(i) % 2 == 0) {
      ++expected;
    }
  }
  ASSERT_EQ(r->chunk.num_rows(), 1u);
  EXPECT_EQ(r->chunk.column(0).GetInt(0), expected);
}

// ---------------------------------------------------- fused engine paths

PhysicalPlan* FindNodeOfKind(PhysicalPlan* n, PhysicalPlan::Kind kind) {
  if (n == nullptr) return nullptr;
  if (n->kind == kind) return n;
  for (auto& c : n->children) {
    if (PhysicalPlan* f = FindNodeOfKind(c.get(), kind)) return f;
  }
  return nullptr;
}

/// Annotate every fusable site the way the fuse_kernels pass would when it
/// prices fusion net-positive: scans with pushed filters, global
/// aggregates, hash-join probes. Lets the engine tests exercise the fused
/// execution paths without depending on the cost model's verdict.
void AnnotateAllFusable(PhysicalPlan* n) {
  if (n == nullptr) return;
  for (auto& c : n->children) AnnotateAllFusable(c.get());
  if (n->kind == PhysicalPlan::Kind::kTableScan && !n->scan_filters.empty()) {
    n->fuse_scan_filter = true;
  }
  if (n->kind == PhysicalPlan::Kind::kHashAggregate && n->group_by.empty()) {
    n->fuse_aggregate = true;
  }
  if (n->kind == PhysicalPlan::Kind::kHashJoin) n->fuse_probe = true;
}

TEST_F(VectorizedEngineTest, FusedScanFilterBitIdenticalToInterpreted) {
  const std::string sql = "SELECT k FROM fact WHERE k < 256 AND grp >= 2";
  LocalEngine plain_engine(4);
  ExecProfile plain_profile;
  auto plain = Run(sql, &plain_engine, &plain_profile);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain_profile.fused.any_fused())
      << "unannotated plan must stay on the interpreted path";

  Optimizer opt(&meta_);
  auto plan = opt.OptimizeSql(sql);
  ASSERT_TRUE(plan.ok());
  AnnotateAllFusable(plan->get());
  LocalEngine fused_engine(4);
  ExecProfile profile;
  auto fused = fused_engine.Execute(plan->get(), &profile);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_GT(profile.fused.fused_filter_morsels, 0u);
  EXPECT_EQ(fused->chunk.ToString(-1), plain->chunk.ToString(-1));
}

TEST_F(VectorizedEngineTest, FusedGlobalAggregateBitIdenticalToInterpreted) {
  const std::string sql =
      "SELECT count(*) AS n, sum(amount) AS s, min(k) AS lo, max(k) AS hi, "
      "avg(amount) AS mean FROM fact WHERE k < 1024 AND grp >= 2";
  LocalEngine plain_engine(4);
  auto plain = Run(sql, &plain_engine);
  ASSERT_TRUE(plain.ok());

  Optimizer opt(&meta_);
  auto plan = opt.OptimizeSql(sql);
  ASSERT_TRUE(plan.ok());
  AnnotateAllFusable(plan->get());
  LocalEngine fused_engine(4);
  ExecProfile profile;
  auto fused = fused_engine.Execute(plan->get(), &profile);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_GT(profile.fused.fused_agg_morsels, 0u);
  // Bit-exact double sums: the fused fold mirrors the unfused kernels'
  // branch structure and visit order.
  EXPECT_EQ(fused->chunk.ToString(-1), plain->chunk.ToString(-1));
}

TEST_F(VectorizedEngineTest, FusedProbePipelineBitIdenticalToInterpreted) {
  auto dim = std::make_shared<Table>(
      "fdim", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                     {"label", LogicalType::kVarchar}});
  DataChunk dc({LogicalType::kInt64, LogicalType::kVarchar});
  for (int64_t g = 0; g < 8; ++g) {
    dc.AppendRow({Value(g), Value(std::string(g % 2 == 0 ? "even" : "odd"))});
  }
  dim->Append(dc);
  meta_.RegisterTable(dim);
  meta_.AnalyzeAll();

  const std::string sql =
      "SELECT k, label FROM fact, fdim WHERE grp = id AND k < 256";
  LocalEngine plain_engine(4);
  auto plain = Run(sql, &plain_engine);
  ASSERT_TRUE(plain.ok());

  Optimizer opt(&meta_);
  auto plan = opt.OptimizeSql(sql);
  ASSERT_TRUE(plan.ok());
  AnnotateAllFusable(plan->get());
  ASSERT_NE(FindNodeOfKind(plan->get(), PhysicalPlan::Kind::kHashJoin),
            nullptr);
  LocalEngine fused_engine(4);
  ExecProfile profile;
  auto fused = fused_engine.Execute(plan->get(), &profile);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_GT(profile.fused.fused_probe_morsels, 0u);
  EXPECT_EQ(fused->chunk.ToString(-1), plain->chunk.ToString(-1));
}

TEST_F(VectorizedEngineTest, SurvivingMorselPredictionMatchesEngineScanStats) {
  // The cost model charges batch dispatch per morsel that survives
  // zone-map pruning (SurvivingScanMorsels). Its ceil-prediction from the
  // planner's prune_keep_fraction must agree with what the engine actually
  // dispatches for the same plan, within the one-morsel ceiling slack.
  Optimizer opt(&meta_);
  auto plan =
      opt.OptimizeSql("SELECT k FROM fact WHERE k < 256 AND grp >= 2");
  ASSERT_TRUE(plan.ok());
  PhysicalPlan* scan =
      FindNodeOfKind(plan->get(), PhysicalPlan::Kind::kTableScan);
  ASSERT_NE(scan, nullptr);
  const double predicted = SurvivingScanMorsels(*scan);
  ASSERT_GE(predicted, 0.0);

  LocalEngine engine(4);
  ExecProfile profile;
  auto r = engine.Execute(plan->get(), &profile);
  ASSERT_TRUE(r.ok());
  const ScanStats& stats = profile.scan;
  const double actual =
      static_cast<double>(stats.morsels_total - stats.morsels_pruned);
  EXPECT_NEAR(predicted, actual, 1.0)
      << "total " << stats.morsels_total << " pruned "
      << stats.morsels_pruned;
  // k < 256 keeps 4 of 32 ordered row groups: the pruned scan must be
  // charged far fewer dispatches than an unpruned one.
  EXPECT_LT(predicted, static_cast<double>(stats.morsels_total) / 2.0);
}

TEST_F(VectorizedEngineTest, UnfusableShapeFallsBackAndStillAgrees) {
  // OR inside the pushed filter: the registry declines, the engine counts
  // a fallback morsel, and the interpreted path serves the query.
  const std::string sql =
      "SELECT k FROM fact WHERE k < 256 OR grp = 3";
  Optimizer opt(&meta_);
  auto plan = opt.OptimizeSql(sql);
  ASSERT_TRUE(plan.ok());
  LocalEngine plain_engine(4);
  auto plain = plain_engine.Execute(plan->get());
  ASSERT_TRUE(plain.ok());

  auto annotated = opt.OptimizeSql(sql);
  ASSERT_TRUE(annotated.ok());
  AnnotateAllFusable(annotated->get());
  LocalEngine fused_engine(4);
  ExecProfile profile;
  auto fused = fused_engine.Execute(annotated->get(), &profile);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  const FusedExecStats& stats = profile.fused;
  EXPECT_FALSE(stats.any_fused());
  EXPECT_EQ(fused->chunk.ToString(-1), plain->chunk.ToString(-1));
}

}  // namespace
}  // namespace costdb
