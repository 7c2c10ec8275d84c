#pragma once

#include "storage/column_vector.h"
#include "storage/value.h"

namespace costdb {

/// Comparison operators shared by zone maps, expressions, and the SQL
/// binder.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

const char* CompareOpName(CompareOp op);

/// Flip the operator for swapped operands (a < b  <=>  b > a).
CompareOp SwapCompareOp(CompareOp op);

/// Min/max summary of one column within one row group — the pruning
/// metadata that clustering (paper Section 4's recluster example) improves.
struct ZoneMapEntry {
  Value min;
  Value max;

  /// Build from a column vector (empty vector yields NULL bounds that never
  /// prune).
  static ZoneMapEntry Build(const ColumnVector& column);

  /// Continue Build's fold over rows [begin, size) of `column`, on typed
  /// payloads: Build of a column equals its bounds over rows [0, begin)
  /// extended by the rest, so an append folds only the appended rows.
  void Extend(const ColumnVector& column, size_t begin);

  /// True when `col op constant` can match some row in this zone; false
  /// means the whole row group is skippable.
  bool MayMatch(CompareOp op, const Value& constant) const;
};

}  // namespace costdb
