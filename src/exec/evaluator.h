#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "plan/expression.h"
#include "storage/data_chunk.h"

namespace costdb {

/// Ascending row indices into a chunk — the currency of the vectorized
/// filter path. Operators hand each other selection vectors instead of
/// materializing filtered copies, and compaction (Gather/Slice) happens
/// once, after the full predicate has run.
using SelectionVector = std::vector<uint32_t>;

/// Vectorized expression evaluation over a ChunkView (borrowed columns) or
/// DataChunk. Column references are resolved by name against the provided
/// schema (positional names of the view's columns).
///
/// Two disciplines coexist:
///  - The *vectorized* path (`Evaluate`, `EvaluateSelection`) runs typed
///    kernels column-at-a-time over the flat payload arrays. Conjunctions
///    narrow a selection vector progressively: fast-path conjuncts
///    (column/constant compares, LIKE) inspect only surviving rows, and
///    nothing is copied until compaction. Fallback shapes (NOT,
///    arithmetic inside a compare) still compute their boolean mask over
///    the whole chunk before the selection gates it.
///  - The *scalar reference* path (`EvaluateRow`,
///    `EvaluateSelectionScalar`) interprets the expression row-at-a-time
///    with boxed Values. It exists as the semantic oracle: property tests
///    assert both paths agree (including NULLs), and the vectorized-vs-
///    scalar microbench measures the gap.
///
/// NULL semantics are SQL three-valued logic: a comparison, arithmetic, or
/// LIKE over a NULL input is NULL; a selection keeps only rows where the
/// predicate is definitely true; aggregates skip NULL inputs.
class Evaluator {
 public:
  explicit Evaluator(const std::vector<std::string>* schema)
      : schema_(schema) {}

  /// Evaluate `expr` over every row of `chunk`; the result vector has
  /// chunk.num_rows() entries (booleans are int64 0/1) and carries a
  /// validity mask when any input row was NULL.
  Result<ColumnVector> Evaluate(const Expr& expr, const ChunkView& chunk) const;

  /// Evaluate a boolean predicate and return the selected row indices, in
  /// ascending order. This is the vectorized filter entry point: compare
  /// nodes dispatch to typed select kernels, AND narrows progressively,
  /// OR merges child selections, and NULL predicate outcomes deselect.
  Result<SelectionVector> EvaluateSelection(const Expr& predicate,
                                            const ChunkView& chunk) const;

  // -- Scalar reference path (oracle for tests / baseline for benches) ----

  /// Row-at-a-time interpretation of `expr` on row `row`; boxed-Value
  /// dispatch, NULL-propagating. Semantically identical to Evaluate.
  Result<Value> EvaluateRow(const Expr& expr, const ChunkView& chunk,
                            size_t row) const;

  /// Selection built by calling EvaluateRow on every row. Semantically
  /// identical to EvaluateSelection.
  Result<SelectionVector> EvaluateSelectionScalar(const Expr& predicate,
                                                  const ChunkView& chunk) const;

 private:
  /// Recursive selection builder. `input` is the surviving-row set from
  /// enclosing conjuncts (nullptr = all rows). Results stay ascending.
  Result<SelectionVector> Select(const Expr& expr, const ChunkView& chunk,
                                 const SelectionVector* input) const;

  /// Fallback for expression shapes without a dedicated select kernel:
  /// evaluate the boolean column, then keep input rows that are valid and
  /// true.
  Result<SelectionVector> SelectViaMask(const Expr& expr,
                                        const ChunkView& chunk,
                                        const SelectionVector* input) const;

  Result<size_t> ResolveColumn(const std::string& name) const;

  const std::vector<std::string>* schema_;
};

/// A LIKE pattern compiled to a flat op sequence — % (any run), _ (any
/// single char), and literal characters, with an optional ESCAPE character
/// that makes the following %, _, or escape char literal. Compiling once
/// per expression keeps the per-row match loop free of escape decoding.
class LikePattern {
 public:
  LikePattern() = default;
  LikePattern(const std::string& pattern, char escape = '\0');

  bool Match(const std::string& text) const;

 private:
  enum class Op : uint8_t { kAnyRun, kAnyOne, kLiteral };
  std::vector<Op> ops_;
  std::vector<char> literals_;  // one entry per op (ignored for wildcards)
};

/// SQL LIKE with % (any run) and _ (any single char); case-sensitive.
/// `escape` ('\0' = none) makes the following wildcard (or escape char
/// itself) match literally. One-shot convenience over LikePattern.
bool LikeMatch(const std::string& text, const std::string& pattern,
               char escape = '\0');

/// Batch kernels shared by the engine's operators. All of them are
/// column-at-a-time loops over the flat payloads; none allocates per row.
namespace kernels {

/// Hash `rows` rows of a multi-column key, combining columns left to right
/// (seeded like the engine's join hash). `as_double[k]` forces numeric
/// normalization so an int64 key hashes equal to the double it joins with.
/// An empty key list yields the bare seed for every row — that is how a
/// cross join (no equi-keys) matches everything.
/// NULL keys hash to a fixed tag (never their filler payload), so a NULL
/// join key cannot collide with a genuine 0 and NULL-key rows always land
/// on one deterministic shuffle bucket. NULL *matching* semantics live in
/// the probe/build guards (AnyKeyNull): a NULL key matches nothing.
void HashRows(const std::vector<ColumnVector>& keys,
              const std::vector<bool>& as_double, size_t rows,
              std::vector<uint64_t>* out);

/// True when any key column is NULL at `row` — the SQL three-valued-logic
/// guard of the hash join: such a row joins nothing, so the build skips
/// indexing it and the probe skips looking it up.
bool AnyKeyNull(const std::vector<ColumnVector>& keys, size_t row);

/// Fold non-null rows of a *numeric* `v` into running count / integer sum
/// / double sum (ints accumulate into both sums, mirroring SUM/AVG result
/// typing). Not for string columns — COUNT over arbitrary types uses
/// CountValid.
void Accumulate(const ColumnVector& v, int64_t* count, int64_t* isum,
                double* dsum);

/// Number of non-null rows, any column type (the COUNT(col) kernel).
int64_t CountValid(const ColumnVector& v);

// Selected-row variants, used by the fused filter→aggregate fold: fold
// only the rows in `sel` (ascending), without materializing a gathered
// copy first. Each mirrors its unselected sibling's branch structure —
// same accumulation order, same no-nulls fast path — so folding `sel`
// directly is bit-identical to gathering `sel` and folding the copy.
// MinMaxSelected's sibling is the aggregate sink's typed MIN/MAX fold: the
// first non-NULL value seeds both bounds, and a later one replaces a bound
// only when strictly beyond it.

/// Accumulate(v.Gather(sel), ...) without the gather.
void AccumulateSelected(const ColumnVector& v, const SelectionVector& sel,
                        int64_t* count, int64_t* isum, double* dsum);

/// CountValid(v.Gather(sel)) without the gather.
int64_t CountValidSelected(const ColumnVector& v, const SelectionVector& sel);

/// Min/max of the non-NULL rows in `sel`; `has_value` stays false when
/// there are none.
void MinMaxSelected(const ColumnVector& v, const SelectionVector& sel,
                    Value* min, Value* max, bool* has_value);

/// Row order of a sort of `rows` rows by `keys` (key k descending when
/// `descending[k]`), compared on the typed payloads in Value::operator<'s
/// order: NULL first, int64 exactly, strings bytewise; a NaN double,
/// which that order leaves incomparable, sorts after every number. The
/// row index is the last key, so the order is total and equals a stable
/// sort. With `limit` >= 0 only the first min(limit, rows) positions are
/// ordered and returned (a top-N sort).
std::vector<uint32_t> SortOrder(const std::vector<ColumnVector>& keys,
                                const std::vector<bool>& descending,
                                size_t rows, int64_t limit);

}  // namespace kernels

}  // namespace costdb
