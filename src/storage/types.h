#pragma once

#include <cstdint>
#include <string>

namespace costdb {

/// Logical column types exposed to SQL. Physically, INT64/DATE/BOOL share an
/// int64 representation (DATE = days since 1970-01-01, BOOL = 0/1), DOUBLE
/// is double, VARCHAR is std::string — three physical families keep the
/// vectorized kernels small without losing the type information the
/// optimizer and cost model need.
enum class LogicalType {
  kInt64,
  kDouble,
  kVarchar,
  kBool,
  kDate,
};

/// Physical storage family of a logical type.
enum class PhysicalType {
  kInt64,
  kDouble,
  kString,
};

inline PhysicalType PhysicalTypeOf(LogicalType type) {
  switch (type) {
    case LogicalType::kInt64:
    case LogicalType::kBool:
    case LogicalType::kDate:
      return PhysicalType::kInt64;
    case LogicalType::kDouble:
      return PhysicalType::kDouble;
    case LogicalType::kVarchar:
      return PhysicalType::kString;
  }
  return PhysicalType::kInt64;
}

/// Uncompressed width in bytes of one value (VARCHAR uses an average width
/// estimate; the storage layer refines it with observed data).
double TypeWidthBytes(LogicalType type, double avg_varchar_len = 16.0);

const char* LogicalTypeName(LogicalType type);

/// Parse "YYYY-MM-DD" into days since epoch. Proleptic Gregorian; no
/// timezone. Returns false on malformed input.
bool ParseDate(const std::string& text, int64_t* days_out);

/// Inverse of ParseDate.
std::string FormatDate(int64_t days);

}  // namespace costdb
