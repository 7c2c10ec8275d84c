#include "exec/evaluator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "catalog/hll.h"

namespace costdb {

LikePattern::LikePattern(const std::string& pattern, char escape) {
  ops_.reserve(pattern.size());
  literals_.reserve(pattern.size());
  for (size_t i = 0; i < pattern.size(); ++i) {
    char c = pattern[i];
    if (escape != '\0' && c == escape && i + 1 < pattern.size()) {
      // The binder guarantees the escaped character is %, _, or the
      // escape itself; direct kernel callers get lenient literal
      // treatment of whatever follows.
      ops_.push_back(Op::kLiteral);
      literals_.push_back(pattern[++i]);
      continue;
    }
    if (c == '%') {
      ops_.push_back(Op::kAnyRun);
      literals_.push_back('\0');
    } else if (c == '_') {
      ops_.push_back(Op::kAnyOne);
      literals_.push_back('\0');
    } else {
      ops_.push_back(Op::kLiteral);
      literals_.push_back(c);
    }
  }
}

bool LikePattern::Match(const std::string& text) const {
  // Iterative glob match with backtracking on the last kAnyRun.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < ops_.size() &&
        (ops_[p] == Op::kAnyOne ||
         (ops_[p] == Op::kLiteral && literals_[p] == text[t]))) {
      ++t;
      ++p;
    } else if (p < ops_.size() && ops_[p] == Op::kAnyRun) {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < ops_.size() && ops_[p] == Op::kAnyRun) ++p;
  return p == ops_.size();
}

bool LikeMatch(const std::string& text, const std::string& pattern,
               char escape) {
  return LikePattern(pattern, escape).Match(text);
}

Result<size_t> Evaluator::ResolveColumn(const std::string& name) const {
  for (size_t i = 0; i < schema_->size(); ++i) {
    if ((*schema_)[i] == name) return i;
  }
  return Status::Internal("executor cannot resolve column " + name);
}

namespace {

/// Numeric view over an int64 or double vector.
double NumericAt(const ColumnVector& v, size_t i) {
  return v.physical_type() == PhysicalType::kDouble
             ? v.GetDouble(i)
             : static_cast<double>(v.GetInt(i));
}

bool BothInts(const ColumnVector& a, const ColumnVector& b) {
  return a.physical_type() == PhysicalType::kInt64 &&
         b.physical_type() == PhysicalType::kInt64;
}

int64_t CompareResult(CompareOp op, int cmp3) {
  switch (op) {
    case CompareOp::kEq:
      return cmp3 == 0;
    case CompareOp::kNe:
      return cmp3 != 0;
    case CompareOp::kLt:
      return cmp3 < 0;
    case CompareOp::kLe:
      return cmp3 <= 0;
    case CompareOp::kGt:
      return cmp3 > 0;
    case CompareOp::kGe:
      return cmp3 >= 0;
  }
  return 0;
}

// ---------------------------------------------------------------- select
// The selection kernels below are the vectorized filter hot path: tight
// loops over the flat payload arrays, appending surviving row ids. Nothing
// allocates per row and nothing is copied until the caller compacts.

/// Append to `out` every candidate row for which `pred(i)` holds.
/// Candidates are `*input` when given, else [0, n). `valid` (when present)
/// additionally gates each row — a NULL row never survives a predicate.
template <typename Pred>
void SelectIf(size_t n, const SelectionVector* input,
              const std::vector<uint8_t>* valid, Pred pred,
              SelectionVector* out) {
  if (input == nullptr) {
    if (valid == nullptr) {
      for (uint32_t i = 0; i < n; ++i) {
        if (pred(i)) out->push_back(i);
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        if ((*valid)[i] && pred(i)) out->push_back(i);
      }
    }
  } else {
    if (valid == nullptr) {
      for (uint32_t i : *input) {
        if (pred(i)) out->push_back(i);
      }
    } else {
      for (uint32_t i : *input) {
        if ((*valid)[i] && pred(i)) out->push_back(i);
      }
    }
  }
}

/// Expand `op` into a monomorphized SelectIf instantiation per comparison,
/// so the inner loop carries no operator switch.
template <typename GetL, typename GetR>
void SelectCompare(CompareOp op, size_t n, const SelectionVector* input,
                   const std::vector<uint8_t>* valid, GetL l, GetR r,
                   SelectionVector* out) {
  switch (op) {
    case CompareOp::kEq:
      SelectIf(n, input, valid, [&](uint32_t i) { return l(i) == r(i); }, out);
      break;
    case CompareOp::kNe:
      SelectIf(n, input, valid, [&](uint32_t i) { return l(i) != r(i); }, out);
      break;
    case CompareOp::kLt:
      SelectIf(n, input, valid, [&](uint32_t i) { return l(i) < r(i); }, out);
      break;
    case CompareOp::kLe:
      SelectIf(n, input, valid, [&](uint32_t i) { return l(i) <= r(i); }, out);
      break;
    case CompareOp::kGt:
      SelectIf(n, input, valid, [&](uint32_t i) { return l(i) > r(i); }, out);
      break;
    case CompareOp::kGe:
      SelectIf(n, input, valid, [&](uint32_t i) { return l(i) >= r(i); }, out);
      break;
  }
}

/// One side of a fast-path comparison: a borrowed column or a constant.
struct CompareOperand {
  const ColumnVector* col = nullptr;
  const Value* constant = nullptr;

  bool is_string() const {
    if (col != nullptr) return col->physical_type() == PhysicalType::kString;
    return constant->is_string();
  }
  bool is_int() const {
    if (col != nullptr) return col->physical_type() == PhysicalType::kInt64;
    return constant->is_int();
  }
  const std::vector<uint8_t>* validity() const {
    return col != nullptr && col->has_nulls() ? &col->validity() : nullptr;
  }
};

/// Validity gate for a two-operand kernel. When both sides carry masks the
/// conjunction is materialized into `scratch`.
const std::vector<uint8_t>* CombineOperandValidity(
    const CompareOperand& l, const CompareOperand& r, size_t n,
    std::vector<uint8_t>* scratch) {
  const std::vector<uint8_t>* lv = l.validity();
  const std::vector<uint8_t>* rv = r.validity();
  if (lv == nullptr) return rv;
  if (rv == nullptr) return lv;
  scratch->resize(n);
  for (size_t i = 0; i < n; ++i) (*scratch)[i] = (*lv)[i] & (*rv)[i];
  return scratch;
}

// ------------------------------------------------------------- validity
// Helpers for the mask-producing Evaluate path (projections and the
// fallback of exotic predicate shapes).

void CopyValidity(const ColumnVector& src, ColumnVector* dst) {
  if (!src.has_nulls()) return;
  dst->MutableValidity() = src.validity();
}

void IntersectValidity(const ColumnVector& a, const ColumnVector& b,
                       ColumnVector* dst) {
  if (!a.has_nulls() && !b.has_nulls()) return;
  auto& v = dst->MutableValidity();
  const size_t n = v.size();
  if (a.has_nulls()) {
    for (size_t i = 0; i < n; ++i) v[i] &= a.validity()[i];
  }
  if (b.has_nulls()) {
    for (size_t i = 0; i < n; ++i) v[i] &= b.validity()[i];
  }
}

uint8_t ValidAt(const ColumnVector& v, size_t i) {
  return v.IsNull(i) ? 0 : 1;
}

/// Coerce an evaluated operand of a logical op (AND/OR/NOT) to an int64
/// 0/1 mask. Int vectors pass through; doubles truthy-test; strings are
/// an error (never a truth value — matches the scalar oracle).
Result<ColumnVector> ToBoolMask(ColumnVector v) {
  switch (v.physical_type()) {
    case PhysicalType::kInt64:
      return v;
    case PhysicalType::kDouble: {
      ColumnVector out(LogicalType::kBool);
      const auto& vals = v.doubles();
      out.Reserve(vals.size());
      for (double d : vals) out.AppendInt(d != 0.0 ? 1 : 0);
      CopyValidity(v, &out);
      return out;
    }
    case PhysicalType::kString:
      return Status::Internal("string value used as a predicate");
  }
  return Status::Internal("unreachable physical type");
}

}  // namespace

// ----------------------------------------------------------- mask path

Result<ColumnVector> Evaluator::Evaluate(const Expr& expr,
                                         const ChunkView& chunk) const {
  const size_t n = chunk.num_rows();
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      size_t idx = 0;
      COSTDB_ASSIGN_OR_RETURN(idx, ResolveColumn(expr.column));
      return chunk.column(idx);  // copy (validity travels along)
    }
    case Expr::Kind::kConstant: {
      ColumnVector out(expr.type);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) out.AppendValue(expr.constant);
      return out;
    }
    case Expr::Kind::kCompare: {
      ColumnVector l, r;
      COSTDB_ASSIGN_OR_RETURN(l, Evaluate(*expr.children[0], chunk));
      COSTDB_ASSIGN_OR_RETURN(r, Evaluate(*expr.children[1], chunk));
      ColumnVector out(LogicalType::kBool);
      out.Reserve(n);
      const bool strings = l.physical_type() == PhysicalType::kString;
      if (strings != (r.physical_type() == PhysicalType::kString)) {
        return Status::Internal("comparing string with non-string");
      }
      if (strings) {
        for (size_t i = 0; i < n; ++i) {
          int cmp3 = l.GetString(i).compare(r.GetString(i));
          out.AppendInt(CompareResult(expr.cmp, cmp3 < 0 ? -1 : cmp3 > 0 ? 1 : 0));
        }
      } else if (BothInts(l, r)) {
        for (size_t i = 0; i < n; ++i) {
          int64_t a = l.GetInt(i), b = r.GetInt(i);
          out.AppendInt(CompareResult(expr.cmp, a < b ? -1 : a > b ? 1 : 0));
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          double a = NumericAt(l, i), b = NumericAt(r, i);
          out.AppendInt(CompareResult(expr.cmp, a < b ? -1 : a > b ? 1 : 0));
        }
      }
      IntersectValidity(l, r, &out);
      return out;
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      ColumnVector acc;
      COSTDB_ASSIGN_OR_RETURN(acc, Evaluate(*expr.children[0], chunk));
      COSTDB_ASSIGN_OR_RETURN(acc, ToBoolMask(std::move(acc)));
      const bool is_and = expr.kind == Expr::Kind::kAnd;
      for (size_t c = 1; c < expr.children.size(); ++c) {
        ColumnVector next;
        COSTDB_ASSIGN_OR_RETURN(next, Evaluate(*expr.children[c], chunk));
        COSTDB_ASSIGN_OR_RETURN(next, ToBoolMask(std::move(next)));
        auto& a = acc.ints();
        const auto& b = next.ints();
        if (!acc.has_nulls() && !next.has_nulls()) {
          if (is_and) {
            for (size_t i = 0; i < n; ++i) a[i] = a[i] && b[i];
          } else {
            for (size_t i = 0; i < n; ++i) a[i] = a[i] || b[i];
          }
          continue;
        }
        // Three-valued logic: FALSE (resp. TRUE) dominates NULL for AND
        // (resp. OR); NULL dominates the neutral element.
        auto& av = acc.MutableValidity();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t bv = ValidAt(next, i);
          if (is_and) {
            const bool false_a = av[i] && !a[i];
            const bool false_b = bv && !b[i];
            if (false_a || false_b) {
              a[i] = 0;
              av[i] = 1;
            } else if (av[i] && bv) {
              a[i] = 1;
            } else {
              av[i] = 0;
            }
          } else {
            const bool true_a = av[i] && a[i];
            const bool true_b = bv && b[i];
            if (true_a || true_b) {
              a[i] = 1;
              av[i] = 1;
            } else if (av[i] && bv) {
              a[i] = 0;
            } else {
              av[i] = 0;
            }
          }
        }
      }
      return acc;
    }
    case Expr::Kind::kNot: {
      ColumnVector v;
      COSTDB_ASSIGN_OR_RETURN(v, Evaluate(*expr.children[0], chunk));
      COSTDB_ASSIGN_OR_RETURN(v, ToBoolMask(std::move(v)));
      for (auto& x : v.ints()) x = !x;
      return v;  // NOT(NULL) stays NULL: validity unchanged
    }
    case Expr::Kind::kArith: {
      ColumnVector l, r;
      COSTDB_ASSIGN_OR_RETURN(l, Evaluate(*expr.children[0], chunk));
      COSTDB_ASSIGN_OR_RETURN(r, Evaluate(*expr.children[1], chunk));
      if (expr.type == LogicalType::kInt64 && BothInts(l, r) &&
          expr.arith_op != '/') {
        ColumnVector out(LogicalType::kInt64);
        out.Reserve(n);
        const auto& a = l.ints();
        const auto& b = r.ints();
        switch (expr.arith_op) {
          case '+':
            for (size_t i = 0; i < n; ++i) out.AppendInt(a[i] + b[i]);
            break;
          case '-':
            for (size_t i = 0; i < n; ++i) out.AppendInt(a[i] - b[i]);
            break;
          case '*':
            for (size_t i = 0; i < n; ++i) out.AppendInt(a[i] * b[i]);
            break;
        }
        IntersectValidity(l, r, &out);
        return out;
      }
      ColumnVector out(LogicalType::kDouble);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        double a = NumericAt(l, i), b = NumericAt(r, i);
        switch (expr.arith_op) {
          case '+':
            out.AppendDouble(a + b);
            break;
          case '-':
            out.AppendDouble(a - b);
            break;
          case '*':
            out.AppendDouble(a * b);
            break;
          case '/':
            out.AppendDouble(b == 0.0 ? 0.0 : a / b);
            break;
        }
      }
      IntersectValidity(l, r, &out);
      return out;
    }
    case Expr::Kind::kLike: {
      ColumnVector input;
      COSTDB_ASSIGN_OR_RETURN(input, Evaluate(*expr.children[0], chunk));
      const LikePattern pattern(expr.children[1]->constant.AsString(),
                                expr.like_escape);
      ColumnVector out(LogicalType::kBool);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        out.AppendInt(pattern.Match(input.GetString(i)) ? 1 : 0);
      }
      CopyValidity(input, &out);
      return out;
    }
    case Expr::Kind::kAgg:
      return Status::Internal(
          "aggregate expression reached the evaluator; the binder should "
          "have extracted it");
    case Expr::Kind::kParam:
      return Status::Internal(
          "unbound parameter ?" + std::to_string(expr.param_index) +
          " reached the evaluator; prepared plans must be bound via "
          "PreparedStatement::Execute before running");
  }
  return Status::Internal("unreachable expression kind");
}

// ------------------------------------------------------- selection path

namespace {

/// Truthiness selection over an already-evaluated mask vector, dispatched
/// on the mask's physical type so a non-boolean predicate (possible only
/// through the direct kernel API; the binder rejects it in SQL) degrades
/// safely instead of reading the wrong payload.
void SelectTruthy(const ColumnVector& mask, size_t n,
                  const SelectionVector* input, SelectionVector* out) {
  const std::vector<uint8_t>* valid =
      mask.has_nulls() ? &mask.validity() : nullptr;
  switch (mask.physical_type()) {
    case PhysicalType::kInt64: {
      const auto& bits = mask.ints();
      SelectIf(n, input, valid, [&](uint32_t i) { return bits[i] != 0; },
               out);
      break;
    }
    case PhysicalType::kDouble: {
      const auto& vals = mask.doubles();
      SelectIf(n, input, valid, [&](uint32_t i) { return vals[i] != 0.0; },
               out);
      break;
    }
    case PhysicalType::kString:
      break;  // a string is never a truth value: select nothing
  }
}

}  // namespace

Result<SelectionVector> Evaluator::SelectViaMask(
    const Expr& expr, const ChunkView& chunk,
    const SelectionVector* input) const {
  ColumnVector mask;
  COSTDB_ASSIGN_OR_RETURN(mask, Evaluate(expr, chunk));
  SelectionVector out;
  SelectTruthy(mask, chunk.num_rows(), input, &out);
  return out;
}

Result<SelectionVector> Evaluator::Select(const Expr& expr,
                                          const ChunkView& chunk,
                                          const SelectionVector* input) const {
  const size_t n = chunk.num_rows();
  switch (expr.kind) {
    case Expr::Kind::kAnd: {
      // Progressive narrowing: each conjunct only inspects the rows that
      // survived the previous ones.
      SelectionVector cur;
      const SelectionVector* in = input;
      for (size_t c = 0; c < expr.children.size(); ++c) {
        SelectionVector next;
        COSTDB_ASSIGN_OR_RETURN(next, Select(*expr.children[c], chunk, in));
        cur = std::move(next);
        in = &cur;
        if (cur.empty()) break;
      }
      return cur;
    }
    case Expr::Kind::kOr: {
      // Union of the children's selections over the same candidate set;
      // both inputs are ascending, so a sorted merge keeps the invariant.
      SelectionVector acc;
      for (size_t c = 0; c < expr.children.size(); ++c) {
        SelectionVector child;
        COSTDB_ASSIGN_OR_RETURN(child, Select(*expr.children[c], chunk, input));
        if (acc.empty()) {
          acc = std::move(child);
          continue;
        }
        SelectionVector merged;
        merged.reserve(acc.size() + child.size());
        std::set_union(acc.begin(), acc.end(), child.begin(), child.end(),
                       std::back_inserter(merged));
        acc = std::move(merged);
      }
      return acc;
    }
    case Expr::Kind::kCompare: {
      const Expr& le = *expr.children[0];
      const Expr& re = *expr.children[1];
      auto operand = [&](const Expr& e,
                         CompareOperand* op) -> Result<bool> {
        if (e.kind == Expr::Kind::kColumn) {
          size_t idx = 0;
          COSTDB_ASSIGN_OR_RETURN(idx, ResolveColumn(e.column));
          op->col = &chunk.column(idx);
          return true;
        }
        if (e.kind == Expr::Kind::kConstant) {
          op->constant = &e.constant;
          return true;
        }
        return false;  // general expression: no fast path
      };
      CompareOperand l, r;
      bool l_fast = false, r_fast = false;
      COSTDB_ASSIGN_OR_RETURN(l_fast, operand(le, &l));
      COSTDB_ASSIGN_OR_RETURN(r_fast, operand(re, &r));
      if (!l_fast || !r_fast) return SelectViaMask(expr, chunk, input);
      if ((l.constant != nullptr && l.constant->is_null()) ||
          (r.constant != nullptr && r.constant->is_null())) {
        return SelectionVector{};  // comparison with NULL selects nothing
      }
      if (l.is_string() != r.is_string()) {
        return Status::Internal("comparing string with non-string");
      }
      std::vector<uint8_t> valid_scratch;
      const std::vector<uint8_t>* valid =
          CombineOperandValidity(l, r, n, &valid_scratch);
      SelectionVector out;
      if (l.is_string()) {
        auto getter = [](const CompareOperand& o) {
          const ColumnVector* col = o.col;
          const Value* constant = o.constant;
          return [col, constant](uint32_t i) -> const std::string& {
            return col != nullptr ? col->strings()[i] : constant->AsString();
          };
        };
        SelectCompare(expr.cmp, n, input, valid, getter(l), getter(r), &out);
      } else if (l.is_int() && r.is_int()) {
        auto getter = [](const CompareOperand& o) {
          const ColumnVector* col = o.col;
          const int64_t c =
              o.constant != nullptr ? o.constant->AsInt() : int64_t{0};
          return [col, c](uint32_t i) {
            return col != nullptr ? col->ints()[i] : c;
          };
        };
        SelectCompare(expr.cmp, n, input, valid, getter(l), getter(r), &out);
      } else {
        auto getter = [](const CompareOperand& o) {
          const ColumnVector* col = o.col;
          const double c = o.constant != nullptr ? o.constant->AsDouble() : 0.0;
          const bool dbl =
              col != nullptr && col->physical_type() == PhysicalType::kDouble;
          return [col, c, dbl](uint32_t i) {
            if (col == nullptr) return c;
            return dbl ? col->doubles()[i]
                       : static_cast<double>(col->ints()[i]);
          };
        };
        SelectCompare(expr.cmp, n, input, valid, getter(l), getter(r), &out);
      }
      return out;
    }
    case Expr::Kind::kLike: {
      const Expr& in_e = *expr.children[0];
      if (in_e.kind != Expr::Kind::kColumn) {
        return SelectViaMask(expr, chunk, input);
      }
      size_t idx = 0;
      COSTDB_ASSIGN_OR_RETURN(idx, ResolveColumn(in_e.column));
      const ColumnVector& col = chunk.column(idx);
      const LikePattern pattern(expr.children[1]->constant.AsString(),
                                expr.like_escape);
      const std::vector<uint8_t>* valid =
          col.has_nulls() ? &col.validity() : nullptr;
      const auto& strs = col.strings();
      SelectionVector out;
      SelectIf(n, input, valid,
               [&](uint32_t i) { return pattern.Match(strs[i]); }, &out);
      return out;
    }
    case Expr::Kind::kColumn: {
      // Bare column as predicate: truthy rows, typed dispatch.
      size_t idx = 0;
      COSTDB_ASSIGN_OR_RETURN(idx, ResolveColumn(expr.column));
      SelectionVector out;
      SelectTruthy(chunk.column(idx), n, input, &out);
      return out;
    }
    case Expr::Kind::kConstant: {
      SelectionVector out;
      const Value& v = expr.constant;
      const bool truthy =
          !v.is_null() && ((v.is_int() && v.AsInt() != 0) ||
                           (v.is_double() && v.AsDouble() != 0.0));
      if (!truthy) return out;
      if (input != nullptr) return *input;
      out.reserve(n);
      for (uint32_t i = 0; i < n; ++i) out.push_back(i);
      return out;
    }
    default:
      // kNot needs three-valued complement, kArith-as-bool is exotic:
      // both go through the mask fallback.
      return SelectViaMask(expr, chunk, input);
  }
}

Result<SelectionVector> Evaluator::EvaluateSelection(
    const Expr& predicate, const ChunkView& chunk) const {
  return Select(predicate, chunk, nullptr);
}

// -------------------------------------------------- scalar reference path

Result<Value> Evaluator::EvaluateRow(const Expr& expr, const ChunkView& chunk,
                                     size_t row) const {
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      size_t idx = 0;
      COSTDB_ASSIGN_OR_RETURN(idx, ResolveColumn(expr.column));
      return chunk.column(idx).GetValue(row);
    }
    case Expr::Kind::kConstant:
      return expr.constant;
    case Expr::Kind::kCompare: {
      Value l, r;
      COSTDB_ASSIGN_OR_RETURN(l, EvaluateRow(*expr.children[0], chunk, row));
      COSTDB_ASSIGN_OR_RETURN(r, EvaluateRow(*expr.children[1], chunk, row));
      if (l.is_null() || r.is_null()) return Value::Null();
      if (l.is_string() != r.is_string()) {
        return Status::Internal("comparing string with non-string");
      }
      int cmp3;
      if (l.is_string()) {
        int c = l.AsString().compare(r.AsString());
        cmp3 = c < 0 ? -1 : c > 0 ? 1 : 0;
      } else if (l.is_int() && r.is_int()) {
        int64_t a = l.AsInt(), b = r.AsInt();
        cmp3 = a < b ? -1 : a > b ? 1 : 0;
      } else {
        double a = l.AsDouble(), b = r.AsDouble();
        cmp3 = a < b ? -1 : a > b ? 1 : 0;
      }
      return Value::Bool(CompareResult(expr.cmp, cmp3) != 0);
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      const bool is_and = expr.kind == Expr::Kind::kAnd;
      bool saw_null = false;
      for (const auto& child : expr.children) {
        Value v;
        COSTDB_ASSIGN_OR_RETURN(v, EvaluateRow(*child, chunk, row));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.is_string()) {
          return Status::Internal("string value used as a predicate");
        }
        const bool truth = v.is_int() ? v.AsInt() != 0 : v.AsDouble() != 0.0;
        if (is_and && !truth) return Value::Bool(false);
        if (!is_and && truth) return Value::Bool(true);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(is_and);
    }
    case Expr::Kind::kNot: {
      Value v;
      COSTDB_ASSIGN_OR_RETURN(v, EvaluateRow(*expr.children[0], chunk, row));
      if (v.is_null()) return Value::Null();
      if (v.is_string()) {
        return Status::Internal("string value used as a predicate");
      }
      const bool truth = v.is_int() ? v.AsInt() != 0 : v.AsDouble() != 0.0;
      return Value::Bool(!truth);
    }
    case Expr::Kind::kArith: {
      Value l, r;
      COSTDB_ASSIGN_OR_RETURN(l, EvaluateRow(*expr.children[0], chunk, row));
      COSTDB_ASSIGN_OR_RETURN(r, EvaluateRow(*expr.children[1], chunk, row));
      if (l.is_null() || r.is_null()) return Value::Null();
      if (expr.type == LogicalType::kInt64 && l.is_int() && r.is_int() &&
          expr.arith_op != '/') {
        int64_t a = l.AsInt(), b = r.AsInt();
        switch (expr.arith_op) {
          case '+':
            return Value(a + b);
          case '-':
            return Value(a - b);
          case '*':
            return Value(a * b);
        }
      }
      double a = l.AsDouble(), b = r.AsDouble();
      switch (expr.arith_op) {
        case '+':
          return Value(a + b);
        case '-':
          return Value(a - b);
        case '*':
          return Value(a * b);
        case '/':
          return Value(b == 0.0 ? 0.0 : a / b);
      }
      return Status::Internal("unknown arithmetic operator");
    }
    case Expr::Kind::kLike: {
      Value v;
      COSTDB_ASSIGN_OR_RETURN(v, EvaluateRow(*expr.children[0], chunk, row));
      if (v.is_null()) return Value::Null();
      return Value::Bool(LikeMatch(v.AsString(),
                                   expr.children[1]->constant.AsString(),
                                   expr.like_escape));
    }
    case Expr::Kind::kAgg:
      return Status::Internal(
          "aggregate expression reached the evaluator; the binder should "
          "have extracted it");
    case Expr::Kind::kParam:
      return Status::Internal(
          "unbound parameter ?" + std::to_string(expr.param_index) +
          " reached the evaluator; prepared plans must be bound via "
          "PreparedStatement::Execute before running");
  }
  return Status::Internal("unreachable expression kind");
}

Result<SelectionVector> Evaluator::EvaluateSelectionScalar(
    const Expr& predicate, const ChunkView& chunk) const {
  SelectionVector out;
  const size_t n = chunk.num_rows();
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    COSTDB_ASSIGN_OR_RETURN(v, EvaluateRow(predicate, chunk, i));
    if (v.is_null() || v.is_string()) continue;  // matches SelectTruthy
    const bool truth = v.is_int() ? v.AsInt() != 0 : v.AsDouble() != 0.0;
    if (truth) out.push_back(i);
  }
  return out;
}

// --------------------------------------------------------------- kernels

namespace kernels {

/// A NULL key hashes to this fixed tag instead of whatever filler its
/// payload slot holds. The payload under a NULL is a type default for
/// stored columns but arbitrary for computed keys (an arithmetic key
/// evaluates on the fillers), so hashing it would scatter NULL-key rows
/// across shuffle buckets — splitting a NULL group across workers — and
/// pile NULL keys onto the 0 bucket chain in the join probe. The tag keeps
/// every NULL row on one deterministic bucket; matching semantics stay
/// with the probe/build NULL guards (NULL joins nothing).
constexpr uint64_t kNullKeyHash = 0x7f4a7c159e3779b9ULL;

void HashRows(const std::vector<ColumnVector>& keys,
              const std::vector<bool>& as_double, size_t rows,
              std::vector<uint64_t>* out) {
  const size_t n = rows;
  out->assign(n, 0x9e3779b97f4a7c15ULL);
  for (size_t k = 0; k < keys.size(); ++k) {
    const ColumnVector& key = keys[k];
    const std::vector<uint8_t>* valid =
        key.has_nulls() ? &key.validity() : nullptr;
    auto& h = *out;
    switch (key.physical_type()) {
      case PhysicalType::kString: {
        const auto& vals = key.strings();
        if (valid == nullptr) {
          for (size_t i = 0; i < n; ++i) {
            h[i] = HashCombine(h[i], HashString(vals[i]));
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            h[i] = HashCombine(
                h[i], (*valid)[i] ? HashString(vals[i]) : kNullKeyHash);
          }
        }
        break;
      }
      case PhysicalType::kDouble: {
        const auto& vals = key.doubles();
        if (valid == nullptr) {
          for (size_t i = 0; i < n; ++i) {
            h[i] = HashCombine(h[i], HashDouble(vals[i]));
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            h[i] = HashCombine(
                h[i], (*valid)[i] ? HashDouble(vals[i]) : kNullKeyHash);
          }
        }
        break;
      }
      case PhysicalType::kInt64:
      default: {
        const auto& vals = key.ints();
        if (as_double[k]) {
          if (valid == nullptr) {
            for (size_t i = 0; i < n; ++i) {
              h[i] =
                  HashCombine(h[i], HashDouble(static_cast<double>(vals[i])));
            }
          } else {
            for (size_t i = 0; i < n; ++i) {
              h[i] = HashCombine(
                  h[i], (*valid)[i] ? HashDouble(static_cast<double>(vals[i]))
                                    : kNullKeyHash);
            }
          }
        } else {
          if (valid == nullptr) {
            for (size_t i = 0; i < n; ++i) {
              h[i] = HashCombine(h[i], HashInt64(vals[i]));
            }
          } else {
            for (size_t i = 0; i < n; ++i) {
              h[i] = HashCombine(
                  h[i], (*valid)[i] ? HashInt64(vals[i]) : kNullKeyHash);
            }
          }
        }
        break;
      }
    }
  }
}

bool AnyKeyNull(const std::vector<ColumnVector>& keys, size_t row) {
  for (const auto& k : keys) {
    if (k.IsNull(row)) return true;
  }
  return false;
}

int64_t CountValid(const ColumnVector& v) {
  if (!v.has_nulls()) return static_cast<int64_t>(v.size());
  int64_t count = 0;
  for (uint8_t bit : v.validity()) count += bit;
  return count;
}

void Accumulate(const ColumnVector& v, int64_t* count, int64_t* isum,
                double* dsum) {
  const size_t n = v.size();
  if (v.physical_type() == PhysicalType::kDouble) {
    const auto& vals = v.doubles();
    if (!v.has_nulls()) {
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) s += vals[i];
      *dsum += s;
      *count += static_cast<int64_t>(n);
      return;
    }
    const auto& valid = v.validity();
    for (size_t i = 0; i < n; ++i) {
      if (!valid[i]) continue;
      *dsum += vals[i];
      ++*count;
    }
    return;
  }
  const auto& vals = v.ints();
  if (!v.has_nulls()) {
    int64_t s = 0;
    for (size_t i = 0; i < n; ++i) s += vals[i];
    *isum += s;
    *dsum += static_cast<double>(s);
    *count += static_cast<int64_t>(n);
    return;
  }
  const auto& valid = v.validity();
  for (size_t i = 0; i < n; ++i) {
    if (!valid[i]) continue;
    *isum += vals[i];
    *dsum += static_cast<double>(vals[i]);
    ++*count;
  }
}

void AccumulateSelected(const ColumnVector& v, const SelectionVector& sel,
                        int64_t* count, int64_t* isum, double* dsum) {
  // Branch structure mirrors Accumulate over a gathered copy: a gathered
  // no-null column hits the local-partial-sum fast path, and a gathered
  // nullable column (the mask travels through Gather) hits the per-row
  // path — so the floating-point addition order is identical either way.
  if (v.physical_type() == PhysicalType::kDouble) {
    const auto& vals = v.doubles();
    if (!v.has_nulls()) {
      double s = 0.0;
      for (uint32_t i : sel) s += vals[i];
      *dsum += s;
      *count += static_cast<int64_t>(sel.size());
      return;
    }
    const auto& valid = v.validity();
    for (uint32_t i : sel) {
      if (!valid[i]) continue;
      *dsum += vals[i];
      ++*count;
    }
    return;
  }
  const auto& vals = v.ints();
  if (!v.has_nulls()) {
    int64_t s = 0;
    for (uint32_t i : sel) s += vals[i];
    *isum += s;
    *dsum += static_cast<double>(s);
    *count += static_cast<int64_t>(sel.size());
    return;
  }
  const auto& valid = v.validity();
  for (uint32_t i : sel) {
    if (!valid[i]) continue;
    *isum += vals[i];
    *dsum += static_cast<double>(vals[i]);
    ++*count;
  }
}

int64_t CountValidSelected(const ColumnVector& v, const SelectionVector& sel) {
  if (!v.has_nulls()) return static_cast<int64_t>(sel.size());
  const auto& valid = v.validity();
  int64_t count = 0;
  for (uint32_t i : sel) count += valid[i];
  return count;
}

void MinMaxSelected(const ColumnVector& v, const SelectionVector& sel,
                    Value* min, Value* max, bool* has_value) {
  if (v.physical_type() == PhysicalType::kInt64) {
    bool seen = false;
    int64_t lo = 0, hi = 0;
    const auto& vals = v.ints();
    for (uint32_t i : sel) {
      if (v.IsNull(i)) continue;
      if (!seen) {
        lo = hi = vals[i];
        seen = true;
        continue;
      }
      if (vals[i] < lo) lo = vals[i];
      if (vals[i] > hi) hi = vals[i];
    }
    if (!seen) return;
    Value vlo(lo), vhi(hi);
    if (!*has_value || vlo < *min) *min = vlo;
    if (!*has_value || *max < vhi) *max = vhi;
    *has_value = true;
    return;
  }
  if (v.physical_type() == PhysicalType::kDouble) {
    bool seen = false;
    double lo = 0.0, hi = 0.0;
    const auto& vals = v.doubles();
    for (uint32_t i : sel) {
      if (v.IsNull(i)) continue;
      if (!seen) {
        lo = hi = vals[i];
        seen = true;
        continue;
      }
      if (vals[i] < lo) lo = vals[i];
      if (vals[i] > hi) hi = vals[i];
    }
    if (!seen) return;
    Value vlo(lo), vhi(hi);
    if (!*has_value || vlo < *min) *min = vlo;
    if (!*has_value || *max < vhi) *max = vhi;
    *has_value = true;
    return;
  }
  for (uint32_t i : sel) {
    if (v.IsNull(i)) continue;
    Value val = v.GetValue(i);
    if (!*has_value) {
      *min = val;
      *max = val;
      *has_value = true;
      continue;
    }
    if (val < *min) *min = val;
    if (*max < val) *max = val;
  }
}

namespace {

/// Three-way comparison of rows `a` and `b` of one sort-key column, in
/// SortOrder's ascending order.
int CompareSortKey(const ColumnVector& col, uint32_t a, uint32_t b) {
  const bool null_a = col.IsNull(a);
  const bool null_b = col.IsNull(b);
  if (null_a || null_b) return int{null_b} - int{null_a};
  switch (col.physical_type()) {
    case PhysicalType::kInt64: {
      const int64_t x = col.GetInt(a), y = col.GetInt(b);
      return int{x > y} - int{x < y};
    }
    case PhysicalType::kDouble: {
      const double x = col.GetDouble(a), y = col.GetDouble(b);
      if (x < y) return -1;
      if (y < x) return 1;
      return int{std::isnan(x)} - int{std::isnan(y)};
    }
    case PhysicalType::kString: {
      const int c = col.GetString(a).compare(col.GetString(b));
      return int{c > 0} - int{c < 0};
    }
  }
  return 0;
}

}  // namespace

std::vector<uint32_t> SortOrder(const std::vector<ColumnVector>& keys,
                                const std::vector<bool>& descending,
                                size_t rows, int64_t limit) {
  auto before = [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const int c = CompareSortKey(keys[k], a, b);
      if (c != 0) return descending[k] ? c > 0 : c < 0;
    }
    return a < b;
  };
  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0u);
  if (limit >= 0 && static_cast<size_t>(limit) < rows) {
    const auto kept = order.begin() + limit;
    std::partial_sort(order.begin(), kept, order.end(), before);
    order.erase(kept, order.end());
  } else {
    std::sort(order.begin(), order.end(), before);
  }
  return order;
}

}  // namespace kernels

}  // namespace costdb
