#include "storage/zone_map.h"

namespace costdb {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

CompareOp SwapCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

ZoneMapEntry ZoneMapEntry::Build(const ColumnVector& column) {
  ZoneMapEntry z;
  z.Extend(column, 0);
  return z;
}

namespace {

/// Left fold of the non-NULL rows [begin, size) into [*min, *max]: the
/// first value seeds both bounds, and a later one replaces a bound only
/// when strictly beyond it in Value::operator<'s order (so a NaN seed
/// stays, and of two equal zeros the first stays).
template <typename T>
void FoldBounds(const ColumnVector& column, const std::vector<T>& vals,
                size_t begin, Value* min, Value* max,
                T (*unbox)(const Value&)) {
  bool seen = !min->is_null();
  T lo{}, hi{};
  if (seen) {
    lo = unbox(*min);
    hi = unbox(*max);
  }
  for (size_t i = begin; i < vals.size(); ++i) {
    if (column.IsNull(i)) continue;
    const T& v = vals[i];
    if (!seen) {
      lo = v;
      hi = v;
      seen = true;
      continue;
    }
    if (v < lo) lo = v;
    if (hi < v) hi = v;
  }
  if (!seen) return;
  *min = Value(lo);
  *max = Value(hi);
}

}  // namespace

void ZoneMapEntry::Extend(const ColumnVector& column, size_t begin) {
  // NULL rows are excluded from the bounds: a comparison predicate is never
  // true on a NULL, so pruning by non-null min/max cannot drop a qualifying
  // row. An all-NULL (or empty) column keeps NULL bounds and never prunes.
  switch (column.physical_type()) {
    case PhysicalType::kInt64:
      FoldBounds<int64_t>(column, column.ints(), begin, &min, &max,
                          [](const Value& v) { return v.AsInt(); });
      break;
    case PhysicalType::kDouble:
      FoldBounds<double>(column, column.doubles(), begin, &min, &max,
                         [](const Value& v) { return v.AsDouble(); });
      break;
    case PhysicalType::kString:
      FoldBounds<std::string>(
          column, column.strings(), begin, &min, &max,
          [](const Value& v) { return v.AsString(); });
      break;
  }
}

bool ZoneMapEntry::MayMatch(CompareOp op, const Value& constant) const {
  if (min.is_null() || max.is_null()) return true;  // no metadata -> scan
  switch (op) {
    case CompareOp::kEq:
      return !(constant < min) && !(max < constant);
    case CompareOp::kNe:
      // Only prunable when the zone is a single value equal to the constant.
      return !(min == max && min == constant);
    case CompareOp::kLt:
      return min < constant;
    case CompareOp::kLe:
      return min < constant || min == constant;
    case CompareOp::kGt:
      return constant < max;
    case CompareOp::kGe:
      return constant < max || constant == max;
  }
  return true;
}

}  // namespace costdb
