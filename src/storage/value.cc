#include "storage/value.h"

#include <cstdio>

namespace costdb {

namespace {
int FamilyRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_int() || v.is_double()) return 1;
  return 2;
}
}  // namespace

bool Value::operator<(const Value& other) const {
  int fa = FamilyRank(*this);
  int fb = FamilyRank(other);
  if (fa != fb) return fa < fb;
  if (fa == 0) return false;  // NULL == NULL for ordering
  if (fa == 1) {
    // Two int64s compare exactly: through double, distinct values above
    // 2^53 would tie and the ordering would stop being strict-weak.
    if (is_int() && other.is_int()) return AsInt() < other.AsInt();
    return AsDouble() < other.AsDouble();
  }
  return AsString() < other.AsString();
}

bool Value::operator==(const Value& other) const {
  int fa = FamilyRank(*this);
  int fb = FamilyRank(other);
  if (fa != fb) return false;
  if (fa == 0) return true;
  if (fa == 1) {
    if (is_int() && other.is_int()) return AsInt() == other.AsInt();
    return AsDouble() == other.AsDouble();
  }
  return AsString() == other.AsString();
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", AsDouble());
    return buf;
  }
  return AsString();
}

}  // namespace costdb
