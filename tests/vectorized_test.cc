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

TEST(VectorizedKernels, AccumulateSkipsNulls) {
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
  EXPECT_EQ(kernels::CountValid(v), 3);
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

/// Random conjunction of the predicate shapes scan filters push down:
/// column-vs-constant compares over every type family, numeric
/// column-vs-column (int-vs-int and int-vs-double), and LIKE with and
/// without ESCAPE.
ExprPtr RandomConjunction(Rng* rng) {
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
      case 3:  // mixed int-vs-double column compare
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

TEST(VectorizedParity, RandomConjunctionsMatchScalarReference) {
  Rng rng(31);
  Evaluator ev(&kSchema);
  for (int iter = 0; iter < 150; ++iter) {
    const bool with_nulls = iter % 2 == 1;
    DataChunk chunk = RandomChunk(&rng, 193, with_nulls);
    ExprPtr pred = RandomConjunction(&rng);
    auto fast = ev.EvaluateSelection(*pred, chunk);
    auto slow = ev.EvaluateSelectionScalar(*pred, chunk);
    ASSERT_TRUE(fast.ok()) << pred->ToString();
    ASSERT_TRUE(slow.ok()) << pred->ToString();
    EXPECT_EQ(*fast, *slow) << "iter " << iter << " nulls=" << with_nulls
                            << " pred " << pred->ToString();
  }
}

TEST(VectorizedParity, EmptyAllPassAndNullConstantSelections) {
  Rng rng(43);
  Evaluator ev(&kSchema);
  DataChunk chunk = RandomChunk(&rng, 211, /*with_nulls=*/true);
  DataChunk empty({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kVarchar});

  auto check = [&](const ExprPtr& pred, const DataChunk& input) {
    auto fast = ev.EvaluateSelection(*pred, input);
    auto slow = ev.EvaluateSelectionScalar(*pred, input);
    ASSERT_TRUE(fast.ok()) << pred->ToString();
    ASSERT_TRUE(slow.ok()) << pred->ToString();
    EXPECT_EQ(*fast, *slow) << pred->ToString();
  };

  // Empty selection: no row satisfies a < -1000.
  ExprPtr none = Expr::MakeCompare(
      CompareOp::kLt, IntCol("a"),
      Expr::MakeConstant(Value(int64_t{-1000}), LogicalType::kInt64));
  check(none, chunk);

  // All-pass on the non-NULL rows: a <= 1000 keeps every valid row but
  // must still deselect NULLs (SQL three-valued logic).
  ExprPtr all = Expr::MakeCompare(
      CompareOp::kLe, IntCol("a"),
      Expr::MakeConstant(Value(int64_t{1000}), LogicalType::kInt64));

  // A NULL row's filler value (0, 0.0 or "") satisfies each of these, one
  // per selection kernel kind: int (`all` above), double and string
  // compares, LIKE, and the truthiness of a mask (NOT's mask holds 1 under
  // a NULL). The kernels evaluate every candidate and mask NULLs out
  // afterwards, so each must still deselect NULLs. Each runs alone and as
  // the second conjunct of an AND (on an incoming selection), over the
  // chunk above and over a full 4,096-row morsel.
  const ExprPtr filler_preds[] = {
      all,
      Expr::MakeCompare(CompareOp::kLe,
                        Expr::MakeColumn("x", LogicalType::kDouble),
                        Expr::MakeConstant(Value(1000.0),
                                           LogicalType::kDouble)),
      Expr::MakeCompare(CompareOp::kGe,
                        Expr::MakeColumn("s", LogicalType::kVarchar),
                        Expr::MakeConstant(Value(std::string()),
                                           LogicalType::kVarchar)),
      Expr::MakeLike(Expr::MakeColumn("s", LogicalType::kVarchar), "%"),
      Expr::MakeNot(Expr::MakeCompare(
          CompareOp::kGt, IntCol("a"),
          Expr::MakeConstant(Value(int64_t{1000}), LogicalType::kInt64))),
  };
  // b's domain is [0, 5], so this keeps every row whose b is valid,
  // including rows that are NULL in a, x or s.
  const ExprPtr valid_b = Expr::MakeCompare(
      CompareOp::kGe, IntCol("b"),
      Expr::MakeConstant(Value(int64_t{0}), LogicalType::kInt64));
  DataChunk morsel = RandomChunk(&rng, 4096, /*with_nulls=*/true);
  for (const DataChunk* input : {&chunk, &morsel}) {
    for (const ExprPtr& pred : filler_preds) {
      check(pred, *input);
      check(Expr::MakeAnd({valid_b, pred}), *input);
    }
  }

  // A conjunct comparing against a NULL constant selects nothing.
  ExprPtr with_null = Expr::MakeAnd({
      Expr::MakeCompare(CompareOp::kLe, IntCol("a"),
                        Expr::MakeConstant(Value(int64_t{1000}),
                                           LogicalType::kInt64)),
      Expr::MakeCompare(CompareOp::kEq, IntCol("b"),
                        Expr::MakeConstant(Value::Null(),
                                           LogicalType::kInt64)),
  });
  check(with_null, chunk);
  auto nothing = ev.EvaluateSelection(*with_null, chunk);
  ASSERT_TRUE(nothing.ok());
  EXPECT_TRUE(nothing->empty());

  // Zero-row chunk: both paths agree on the empty selection.
  check(all, empty);
  auto zero = ev.EvaluateSelection(*all, empty);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->empty());
}

TEST(VectorizedParity, LikeEscapeInConjunction) {
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
  for (const char* pattern : {"50!%", "a!_b", "a!!b", "!%%", "%!%%", "!_"}) {
    // LIKE ESCAPE inside a conjunction with a numeric term.
    ExprPtr pred = Expr::MakeAnd({
        Expr::MakeCompare(CompareOp::kGe, IntCol("a"),
                          Expr::MakeConstant(Value(int64_t{0}),
                                             LogicalType::kInt64)),
        Expr::MakeLike(Expr::MakeColumn("s", LogicalType::kVarchar), pattern,
                       '!'),
    });
    auto fast = ev.EvaluateSelection(*pred, chunk);
    auto slow = ev.EvaluateSelectionScalar(*pred, chunk);
    ASSERT_TRUE(fast.ok()) << pattern;
    ASSERT_TRUE(slow.ok()) << pattern;
    EXPECT_EQ(*fast, *slow) << pattern;
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

// ------------------------------------------------ engine vs scalar oracle

PhysicalPlan* FindNodeOfKind(PhysicalPlan* n, PhysicalPlan::Kind kind) {
  if (n == nullptr) return nullptr;
  if (n->kind == kind) return n;
  for (auto& c : n->children) {
    if (PhysicalPlan* f = FindNodeOfKind(c.get(), kind)) return f;
  }
  return nullptr;
}

/// Rows of `all` (the fact table's k, grp, amount columns) that the scalar
/// reference interpreter selects with `pred`, in table order.
SelectionVector OracleRows(const DataChunk& all, const Expr& pred) {
  const std::vector<std::string> schema = {"k", "grp", "amount"};
  Evaluator ev(&schema);
  auto sel = ev.EvaluateSelectionScalar(pred, all);
  EXPECT_TRUE(sel.ok()) << pred.ToString();
  return sel.ok() ? *sel : SelectionVector();
}

ExprPtr IntCompare(const char* col, CompareOp op, int64_t v) {
  return Expr::MakeCompare(op, IntCol(col),
                           Expr::MakeConstant(Value(v), LogicalType::kInt64));
}

TEST_F(VectorizedEngineTest, ScanFiltersMatchScalarOracle) {
  // A pushed conjunction and a pushed disjunction, each run through the
  // optimizer and engine and compared row for row with the scalar
  // interpreter over the whole table.
  const DataChunk all = meta_.GetTable("fact").value()->Scan();
  struct Case {
    std::string sql;
    ExprPtr pred;
  };
  std::vector<Case> cases;
  cases.push_back({"SELECT k FROM fact WHERE k < 256 AND grp >= 2",
                   Expr::MakeAnd({IntCompare("k", CompareOp::kLt, 256),
                                  IntCompare("grp", CompareOp::kGe, 2)})});
  cases.push_back({"SELECT k FROM fact WHERE k < 256 OR grp = 3",
                   Expr::MakeOr({IntCompare("k", CompareOp::kLt, 256),
                                 IntCompare("grp", CompareOp::kEq, 3)})});
  for (const Case& c : cases) {
    LocalEngine engine(4);
    auto r = Run(c.sql, &engine);
    ASSERT_TRUE(r.ok()) << c.sql << ": " << r.status().ToString();
    const SelectionVector want = OracleRows(all, *c.pred);
    EXPECT_GT(want.size(), 0u) << c.sql;
    ASSERT_EQ(r->chunk.num_rows(), want.size()) << c.sql;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(r->chunk.column(0).GetInt(i), all.column(0).GetInt(want[i]))
          << c.sql << " row " << i;
    }
  }
}

TEST_F(VectorizedEngineTest, FilteredGlobalAggregateMatchesScalarOracle) {
  LocalEngine engine(4);
  auto r = Run("SELECT count(*) AS n, sum(amount) AS s, min(k) AS lo, "
               "max(k) AS hi, avg(amount) AS mean FROM fact "
               "WHERE k < 1024 AND grp >= 2",
               &engine);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const DataChunk all = meta_.GetTable("fact").value()->Scan();
  const SelectionVector want =
      OracleRows(all, *Expr::MakeAnd({IntCompare("k", CompareOp::kLt, 1024),
                                      IntCompare("grp", CompareOp::kGe, 2)}));
  ASSERT_GT(want.size(), 0u);
  double sum = 0.0;
  int64_t lo = all.column(0).GetInt(want[0]);
  int64_t hi = lo;
  for (uint32_t row : want) {
    sum += all.column(2).GetDouble(row);
    lo = std::min(lo, all.column(0).GetInt(row));
    hi = std::max(hi, all.column(0).GetInt(row));
  }
  const double n = static_cast<double>(want.size());
  ASSERT_EQ(r->chunk.num_rows(), 1u);
  EXPECT_EQ(r->chunk.column(0).GetInt(0), static_cast<int64_t>(want.size()));
  // The engine sums per morsel, then merges in morsel order: the same
  // doubles in another association, so equal up to rounding.
  EXPECT_NEAR(r->chunk.column(1).GetDouble(0), sum, 1e-9 * sum);
  EXPECT_EQ(r->chunk.column(2).GetInt(0), lo);
  EXPECT_EQ(r->chunk.column(3).GetInt(0), hi);
  EXPECT_NEAR(r->chunk.column(4).GetDouble(0), sum / n, 1e-9 * sum / n);
}

TEST_F(VectorizedEngineTest, FilteredJoinProbeMatchesScalarOracle) {
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

  LocalEngine engine(4);
  auto r = Run("SELECT k, label FROM fact, fdim WHERE grp = id AND k < 256",
               &engine);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Every fact row with k < 256 matches exactly one dim row (grp is in
  // [0, 8)); compare (k, label) pairs as a multiset.
  const DataChunk all = meta_.GetTable("fact").value()->Scan();
  std::vector<std::pair<int64_t, std::string>> want;
  for (uint32_t row : OracleRows(all, *IntCompare("k", CompareOp::kLt, 256))) {
    want.emplace_back(all.column(0).GetInt(row),
                      all.column(1).GetInt(row) % 2 == 0 ? "even" : "odd");
  }
  std::vector<std::pair<int64_t, std::string>> got;
  for (size_t i = 0; i < r->chunk.num_rows(); ++i) {
    got.emplace_back(r->chunk.column(0).GetInt(i),
                     r->chunk.column(1).GetString(i));
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(want.size(), 256u);
  EXPECT_EQ(got, want);
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

}  // namespace
}  // namespace costdb
