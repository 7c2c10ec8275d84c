#include "storage/types.h"

#include <cstdio>

namespace costdb {

double TypeWidthBytes(LogicalType type, double avg_varchar_len) {
  switch (type) {
    case LogicalType::kInt64:
      return 8.0;
    case LogicalType::kDouble:
      return 8.0;
    case LogicalType::kVarchar:
      return avg_varchar_len;
    case LogicalType::kBool:
      return 1.0;
    case LogicalType::kDate:
      return 4.0;
  }
  return 8.0;
}

const char* LogicalTypeName(LogicalType type) {
  switch (type) {
    case LogicalType::kInt64:
      return "INT64";
    case LogicalType::kDouble:
      return "DOUBLE";
    case LogicalType::kVarchar:
      return "VARCHAR";
    case LogicalType::kBool:
      return "BOOL";
    case LogicalType::kDate:
      return "DATE";
  }
  return "?";
}

namespace {
bool IsLeap(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }
const int kDaysInMonth[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

int64_t DaysFromCivil(int y, int m, int d) {
  // Howard Hinnant's algorithm.
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097LL + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(yy + (*m <= 2));
}
}  // namespace

bool ParseDate(const std::string& text, int64_t* days_out) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3) return false;
  if (m < 1 || m > 12 || d < 1) return false;
  int max_d = kDaysInMonth[m - 1] + (m == 2 && IsLeap(y) ? 1 : 0);
  if (d > max_d) return false;
  *days_out = DaysFromCivil(y, m, d);
  return true;
}

std::string FormatDate(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", y, m, d);
  return buf;
}

}  // namespace costdb
