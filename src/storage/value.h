#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "storage/types.h"

namespace costdb {

/// A single scalar: SQL literal, zone-map bound, or query-result cell.
/// Monostate is SQL NULL.
class Value {
 public:
  Value() = default;  // NULL
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(static_cast<int64_t>(b ? 1 : 0)); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const {
    if (is_int()) return static_cast<double>(std::get<int64_t>(v_));
    return std::get<double>(v_);
  }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Numeric values compare numerically across int/double (two int64s
  /// exactly, an int against a double through double); strings compare
  /// lexicographically; NULL sorts first. Cross-family comparisons order by
  /// family index (stable but arbitrary), mirroring what the engine needs
  /// for sorting mixed zone-map keys.
  bool operator<(const Value& other) const;
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

}  // namespace costdb
