#pragma once

// Shared result-comparison oracle for the engine-parity suites
// (exec_test, sharded_test, elastic_test): rows are compared via the
// engine's own encoded row key (EncodeChunkKeyInto), so "identical" means
// identical under the same encoding that orders grouped-aggregate output.
// The codec suites (storage_test, net_test) compare raw column payloads.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/engine.h"

namespace costdb {

/// True when `a` and `b` have the same shape and byte-identical rows in
/// the same order; fills `why` with the first divergence otherwise.
inline bool ChunksBitIdentical(const DataChunk& a, const DataChunk& b,
                               std::string* why) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    *why = "shape mismatch: " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_rows()) + "x" +
           std::to_string(b.num_columns());
    return false;
  }
  std::string ka, kb;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EncodeChunkKeyInto(a, a.num_columns(), r, &ka);
    EncodeChunkKeyInto(b, b.num_columns(), r, &kb);
    if (ka != kb) {
      *why = "row " + std::to_string(r) + ": " + ka + " vs " + kb;
      return false;
    }
  }
  return true;
}

/// Raw payload equality: same type, same flat arrays (doubles compared as
/// bits), same validity mask — NULL slots' fillers included.
inline void ExpectColumnsBitIdentical(const ColumnVector& a,
                                      const ColumnVector& b) {
  ASSERT_EQ(a.type(), b.type());
  EXPECT_EQ(a.ints(), b.ints());
  ASSERT_EQ(a.doubles().size(), b.doubles().size());
  if (!a.doubles().empty()) {
    EXPECT_EQ(0, std::memcmp(a.doubles().data(), b.doubles().data(),
                             a.doubles().size() * sizeof(double)));
  }
  EXPECT_EQ(a.strings(), b.strings());
  EXPECT_EQ(a.validity(), b.validity());
}

/// The deterministic counters of one Execute call's profile, printed —
/// everything but wall-clock seconds and the cache's hit/miss split,
/// which depend on timing. Two runs of one plan at one width must agree.
inline std::string ProfileCounters(const ExecProfile& p) {
  std::string out;
  auto add = [&out](const char* name, double v) {
    out += name;
    out += '=';
    out += std::to_string(v);
    out += ' ';
  };
  add("morsels", static_cast<double>(p.scan.morsels_total));
  add("pruned", static_cast<double>(p.scan.morsels_pruned));
  add("rows_scanned", static_cast<double>(p.scan.rows_scanned));
  add("rows_pruned", static_cast<double>(p.scan.rows_pruned));
  add("block_pins", static_cast<double>(p.storage.hits + p.storage.misses));
  add("exchanges", static_cast<double>(p.exchange.exchanges()));
  add("rows_moved", static_cast<double>(p.exchange.rows_moved()));
  add("bytes_moved", p.exchange.bytes_moved());
  add("wire_bytes", p.exchange.wire_bytes());
  add("transfers", static_cast<double>(p.exchange.transport_stats.transfers));
  add("socket_bytes", p.exchange.transport_stats.socket_bytes);
  return out;
}

/// Order-insensitive variant: same rows as a multiset (the documented
/// contract for bare repartition-join output).
inline bool ChunksSameMultiset(const DataChunk& a, const DataChunk& b,
                               std::string* why) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    *why = "shape mismatch";
    return false;
  }
  auto keys = [](const DataChunk& c) {
    std::vector<std::string> out(c.num_rows());
    for (size_t r = 0; r < c.num_rows(); ++r) {
      EncodeChunkKeyInto(c, c.num_columns(), r, &out[r]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  if (keys(a) != keys(b)) {
    *why = "row multisets differ";
    return false;
  }
  return true;
}

}  // namespace costdb
