#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "cloud/object_store.h"
#include "exec/engine.h"
#include "mutation_testing.h"
#include "optimizer/optimizer.h"
#include "service/database.h"
#include "service/session.h"
#include "storage/block/block_reader.h"
#include "storage/block/block_writer.h"
#include "storage/cache.h"
#include "storage/persistent.h"
#include "storage/table.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

TEST(TypesTest, PhysicalFamilies) {
  EXPECT_EQ(PhysicalTypeOf(LogicalType::kInt64), PhysicalType::kInt64);
  EXPECT_EQ(PhysicalTypeOf(LogicalType::kBool), PhysicalType::kInt64);
  EXPECT_EQ(PhysicalTypeOf(LogicalType::kDate), PhysicalType::kInt64);
  EXPECT_EQ(PhysicalTypeOf(LogicalType::kDouble), PhysicalType::kDouble);
  EXPECT_EQ(PhysicalTypeOf(LogicalType::kVarchar), PhysicalType::kString);
}

TEST(TypesTest, DateRoundTrip) {
  int64_t days = 0;
  ASSERT_TRUE(ParseDate("1970-01-01", &days));
  EXPECT_EQ(days, 0);
  ASSERT_TRUE(ParseDate("1995-03-15", &days));
  EXPECT_EQ(FormatDate(days), "1995-03-15");
  ASSERT_TRUE(ParseDate("2000-02-29", &days));  // leap year
  EXPECT_EQ(FormatDate(days), "2000-02-29");
  EXPECT_FALSE(ParseDate("2001-02-29", &days));  // not a leap year
  EXPECT_FALSE(ParseDate("garbage", &days));
  EXPECT_FALSE(ParseDate("2001-13-01", &days));
}

TEST(TypesTest, DateOrderingMatchesCalendar) {
  int64_t d1 = 0, d2 = 0;
  ASSERT_TRUE(ParseDate("1994-12-31", &d1));
  ASSERT_TRUE(ParseDate("1995-01-01", &d2));
  EXPECT_EQ(d2 - d1, 1);
}

TEST(ValueTest, ComparisonAcrossNumericFamilies) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(2.5));
  EXPECT_TRUE(Value(int64_t{3}) == Value(3.0));
  EXPECT_TRUE(Value(std::string("a")) < Value(std::string("b")));
  EXPECT_TRUE(Value::Null() < Value(int64_t{0}));  // NULL sorts first
  EXPECT_FALSE(Value(int64_t{1}) == Value(std::string("1")));
  // Two int64s compare exactly, also where doubles cannot tell them apart.
  const int64_t big = int64_t{1} << 53;
  EXPECT_TRUE(Value(big) < Value(big + 1));
  EXPECT_FALSE(Value(big + 1) < Value(big));
  EXPECT_TRUE(Value(-big - 1) < Value(-big));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(std::string("hi")).ToString(), "hi");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).AsInt(), 1);
}

TEST(ColumnVectorTest, AppendAndGather) {
  ColumnVector v(LogicalType::kInt64);
  for (int64_t i = 0; i < 10; ++i) v.AppendInt(i * 10);
  EXPECT_EQ(v.size(), 10u);
  ColumnVector g = v.Gather({1, 3, 5});
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.GetInt(0), 10);
  EXPECT_EQ(g.GetInt(2), 50);
}

TEST(ColumnVectorTest, StringColumn) {
  ColumnVector v(LogicalType::kVarchar);
  v.AppendString("x");
  v.AppendString("y");
  EXPECT_EQ(v.GetString(1), "y");
  EXPECT_EQ(v.GetValue(0).ToString(), "x");
}

TEST(DataChunkTest, AppendRowsAndSlice) {
  DataChunk chunk({LogicalType::kInt64, LogicalType::kVarchar});
  chunk.AppendRow({Value(int64_t{1}), Value(std::string("a"))});
  chunk.AppendRow({Value(int64_t{2}), Value(std::string("b"))});
  chunk.AppendRow({Value(int64_t{3}), Value(std::string("c"))});
  EXPECT_EQ(chunk.num_rows(), 3u);
  chunk.Slice({0, 2});
  EXPECT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.column(1).GetString(1), "c");
}

TEST(ZoneMapTest, BuildAndPrune) {
  ColumnVector v(LogicalType::kInt64);
  for (int64_t i = 10; i <= 20; ++i) v.AppendInt(i);
  ZoneMapEntry z = ZoneMapEntry::Build(v);
  EXPECT_EQ(z.min.AsInt(), 10);
  EXPECT_EQ(z.max.AsInt(), 20);
  EXPECT_TRUE(z.MayMatch(CompareOp::kEq, Value(int64_t{15})));
  EXPECT_FALSE(z.MayMatch(CompareOp::kEq, Value(int64_t{25})));
  EXPECT_FALSE(z.MayMatch(CompareOp::kLt, Value(int64_t{10})));
  EXPECT_TRUE(z.MayMatch(CompareOp::kLe, Value(int64_t{10})));
  EXPECT_FALSE(z.MayMatch(CompareOp::kGt, Value(int64_t{20})));
  EXPECT_TRUE(z.MayMatch(CompareOp::kGe, Value(int64_t{20})));
}

TEST(ZoneMapTest, NeOnlyPrunesConstantZone) {
  ColumnVector v(LogicalType::kInt64);
  v.AppendInt(7);
  v.AppendInt(7);
  ZoneMapEntry z = ZoneMapEntry::Build(v);
  EXPECT_FALSE(z.MayMatch(CompareOp::kNe, Value(int64_t{7})));
  EXPECT_TRUE(z.MayMatch(CompareOp::kNe, Value(int64_t{8})));
}

TEST(ZoneMapTest, EmptyColumnNeverPrunes) {
  ColumnVector v(LogicalType::kInt64);
  ZoneMapEntry z = ZoneMapEntry::Build(v);
  EXPECT_TRUE(z.MayMatch(CompareOp::kEq, Value(int64_t{1})));
}

/// Zone bounds equal bit for bit: NaN equals the same NaN, -0.0 differs
/// from 0.0, and an int bound differs from an equal double bound.
bool SameBound(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.is_int() != b.is_int() || a.is_double() != b.is_double()) {
    return false;
  }
  if (a.is_double()) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a == b;
}

TEST(ZoneMapTest, AppendsExtendZonesAsAFullBuildWould) {
  const std::vector<LogicalType> types = {
      LogicalType::kInt64, LogicalType::kDate, LogicalType::kDouble,
      LogicalType::kVarchar, LogicalType::kInt64};
  Table t("z", {{"i", types[0]},
                {"d", types[1]},
                {"x", types[2]},
                {"s", types[3]},
                {"none", types[4]}},
          /*row_group_size=*/16);
  Rng rng(0x20E5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  size_t row = 0;
  bool nan_first = false;  // some group's first x is NaN
  bool nan_later = false;  // some group meets a NaN after a number
  for (int append = 0; append < 60; ++append) {
    const int64_t rows = rng.UniformInt(0, 23);  // crosses group boundaries
    DataChunk chunk(types);
    for (int64_t r = 0; r < rows; ++r, ++row) {
      auto sparse = [&](Value v) {
        return rng.UniformInt(0, 6) == 0 ? Value::Null() : v;
      };
      double x = rng.Uniform(-4.0, 4.0);
      switch (rng.UniformInt(0, 7)) {
        case 0:
          x = nan;
          break;
        case 1:
          x = -0.0;
          break;
        case 2:
          x = 0.0;
          break;
        default:
          break;
      }
      const size_t in_group = row % 16;
      if (in_group == 0 && (row / 16) % 2 == 0) x = nan;
      nan_first |= in_group == 0 && std::isnan(x);
      nan_later |= in_group > 0 && std::isnan(x);
      const int64_t i = rng.UniformInt(-1000, 1000);
      const int64_t d = 9000 + rng.UniformInt(0, 400);
      const std::string str(static_cast<size_t>(rng.UniformInt(1, 3)),
                            static_cast<char>('a' + rng.UniformInt(0, 5)));
      chunk.AppendRow({sparse(Value(i)), sparse(Value(d)),
                       in_group == 0 ? Value(x) : sparse(Value(x)),
                       sparse(Value(str)), Value::Null()});
    }
    t.Append(chunk);
    for (size_t g = 0; g < t.row_groups().size(); ++g) {
      const RowGroup& group = t.row_groups()[g];
      ASSERT_EQ(group.zones.size(), types.size());
      for (size_t c = 0; c < types.size(); ++c) {
        const ColumnVector& column = group.data.column(c);
        const ZoneMapEntry built = ZoneMapEntry::Build(column);
        EXPECT_TRUE(SameBound(group.zones[c].min, built.min))
            << "append " << append << " group " << g << " column " << c
            << ": " << group.zones[c].min.ToString() << " vs "
            << built.min.ToString();
        EXPECT_TRUE(SameBound(group.zones[c].max, built.max))
            << "append " << append << " group " << g << " column " << c
            << ": " << group.zones[c].max.ToString() << " vs "
            << built.max.ToString();
        // A column carries a validity mask only when it holds a NULL, as
        // when rows were copied one at a time.
        bool any_null = false;
        for (size_t r = 0; r < column.size(); ++r) any_null |= column.IsNull(r);
        EXPECT_EQ(column.has_nulls(), any_null)
            << "append " << append << " group " << g << " column " << c;
      }
    }
  }
  EXPECT_EQ(t.num_rows(), row);
  EXPECT_GT(t.row_groups().size(), 20u);
  EXPECT_TRUE(nan_first);
  EXPECT_TRUE(nan_later);
  for (const RowGroup& group : t.row_groups()) {
    EXPECT_TRUE(group.zones[4].min.is_null());  // the all-NULL column
  }
  // A NaN that opens a group pins both x bounds; -0.0 and 0.0 keep the
  // first one seen, both checked bit for bit above.
  EXPECT_TRUE(std::isnan(t.row_groups()[0].zones[2].min.AsDouble()));
}

TEST(CompareOpTest, SwapIsInvolutionOnInequalities) {
  EXPECT_EQ(SwapCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(SwapCompareOp(SwapCompareOp(CompareOp::kLe)), CompareOp::kLe);
  EXPECT_EQ(SwapCompareOp(CompareOp::kEq), CompareOp::kEq);
}

class TableTest : public ::testing::Test {
 protected:
  Table MakeTable(size_t rows, size_t group_size = 100) {
    Table t("t", {{"id", LogicalType::kInt64}, {"val", LogicalType::kDouble}},
            group_size);
    DataChunk chunk({LogicalType::kInt64, LogicalType::kDouble});
    for (size_t i = 0; i < rows; ++i) {
      chunk.AppendRow({Value(static_cast<int64_t>(i)),
                       Value(static_cast<double>(i) * 0.5)});
    }
    t.Append(chunk);
    return t;
  }
};

TEST_F(TableTest, AppendSplitsIntoRowGroups) {
  Table t = MakeTable(250, 100);
  EXPECT_EQ(t.num_rows(), 250u);
  ASSERT_EQ(t.row_groups().size(), 3u);
  EXPECT_EQ(t.row_groups()[0].num_rows(), 100u);
  EXPECT_EQ(t.row_groups()[2].num_rows(), 50u);
}

TEST_F(TableTest, ZoneMapsTrackGroups) {
  Table t = MakeTable(200, 100);
  EXPECT_EQ(t.row_groups()[0].zones[0].min.AsInt(), 0);
  EXPECT_EQ(t.row_groups()[0].zones[0].max.AsInt(), 99);
  EXPECT_EQ(t.row_groups()[1].zones[0].min.AsInt(), 100);
}

TEST_F(TableTest, PruneFractionOnSortedData) {
  Table t = MakeTable(1000, 100);
  // id < 100 only touches the first of 10 groups.
  auto frac = t.PruneFraction("id", CompareOp::kLt, Value(int64_t{100}));
  ASSERT_TRUE(frac.ok());
  EXPECT_NEAR(*frac, 0.9, 1e-9);
  EXPECT_TRUE(
      t.PruneFraction("nope", CompareOp::kEq, Value(int64_t{0})).status().IsNotFound());
}

TEST_F(TableTest, ClusterByImprovesPruning) {
  // Build a table where ids are round-robin scattered, so zone maps overlap.
  Table t("t", {{"id", LogicalType::kInt64}}, 100);
  DataChunk chunk({LogicalType::kInt64});
  for (int64_t i = 0; i < 1000; ++i) chunk.AppendRow({Value(i % 10)});
  t.Append(chunk);
  auto before = t.PruneFraction("id", CompareOp::kEq, Value(int64_t{3}));
  ASSERT_TRUE(before.ok());
  EXPECT_NEAR(*before, 0.0, 1e-9);  // every group spans 0..9
  ASSERT_TRUE(t.ClusterBy("id").ok());
  EXPECT_EQ(t.clustering_key(), "id");
  EXPECT_EQ(t.num_rows(), 1000u);
  auto after = t.PruneFraction("id", CompareOp::kEq, Value(int64_t{3}));
  ASSERT_TRUE(after.ok());
  EXPECT_GE(*after, 0.8);  // only the group(s) holding value 3 remain
}

TEST_F(TableTest, ClusterByPreservesRowMultiset) {
  Table t = MakeTable(500, 64);
  ASSERT_TRUE(t.ClusterBy("val").ok());
  DataChunk all = t.Scan();
  ASSERT_EQ(all.num_rows(), 500u);
  double sum = 0;
  for (size_t i = 0; i < all.num_rows(); ++i) {
    sum += all.column(1).GetDouble(i);
  }
  EXPECT_NEAR(sum, 0.5 * (499.0 * 500.0 / 2.0), 1e-6);
}

TEST_F(TableTest, EstimateBytesScalesWithRows) {
  Table small = MakeTable(100);
  Table big = MakeTable(1000);
  EXPECT_NEAR(big.EstimateBytes() / small.EstimateBytes(), 10.0, 1e-9);
  // Two columns of width 8 each.
  EXPECT_NEAR(small.EstimateBytes(), 100 * 16.0, 1e-9);
}

TEST_F(TableTest, ColumnIndexLookup) {
  Table t = MakeTable(10);
  EXPECT_EQ(t.ColumnIndex("val").value(), 1u);
  EXPECT_TRUE(t.ColumnIndex("missing").status().IsNotFound());
}

// ------------------------------------------------------------ block format

std::vector<LogicalType> AllTypes() {
  return {LogicalType::kInt64, LogicalType::kDouble, LogicalType::kVarchar,
          LogicalType::kBool, LogicalType::kDate};
}

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  return all;
}

/// Every column type, with staggered NULL runs so validity pages and the
/// NULL-slot fillers are exercised per column.
DataChunk AllTypesChunk(size_t rows) {
  DataChunk chunk(AllTypes());
  for (size_t r = 0; r < rows; ++r) {
    const auto i = static_cast<int64_t>(r);
    std::vector<Value> row = {Value(i), Value(0.25 * static_cast<double>(r)),
                              Value("s" + std::to_string(r % 97)),
                              Value::Bool(r % 3 == 0),
                              Value(static_cast<int64_t>(9000 + r % 365))};
    for (size_t c = 0; c < row.size(); ++c) {
      if ((r + c) % 7 == 0) row[c] = Value::Null();
    }
    chunk.AppendRow(row);
  }
  return chunk;
}

void ExpectChunksBitIdentical(const DataChunk& a, const DataChunk& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      const Value va = a.column(c).GetValue(r);
      const Value vb = b.column(c).GetValue(r);
      ASSERT_EQ(va.is_null(), vb.is_null()) << "col " << c << " row " << r;
      if (!va.is_null()) {
        ASSERT_TRUE(va == vb) << "col " << c << " row " << r << ": "
                              << va.ToString() << " vs " << vb.ToString();
      }
    }
  }
}

TEST(BlockFormatTest, RoundTripAllTypesWithNulls) {
  const std::vector<LogicalType> types = AllTypes();
  const DataChunk chunk = AllTypesChunk(513);
  block::BlockWriter writer(types);
  std::vector<ZoneMapEntry> zones;
  block::BlockLayout layout;
  const std::string bytes = writer.Encode(chunk, &zones, &layout);

  EXPECT_EQ(layout.rows, 513u);
  EXPECT_EQ(layout.total_bytes, static_cast<double>(bytes.size()));
  ASSERT_EQ(zones.size(), types.size());
  ASSERT_EQ(layout.column_bytes.size(), types.size());
  for (double b : layout.column_bytes) EXPECT_GT(b, 0.0);

  auto decoded =
      block::BlockReader::Decode(bytes, types, Iota(types.size()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectChunksBitIdentical(chunk, decoded->chunk);
  ASSERT_EQ(decoded->zones.size(), types.size());
  // Zone maps survive the trip (pruning decisions are made from the
  // decoded footer, never from re-scanning payloads).
  EXPECT_TRUE(decoded->zones[0].min == zones[0].min);
  EXPECT_TRUE(decoded->zones[0].max == zones[0].max);
}

TEST(BlockFormatTest, DecodeRejectsCorruptionAndTruncation) {
  const std::vector<LogicalType> types = AllTypes();
  block::BlockWriter writer(types);
  std::vector<ZoneMapEntry> zones;
  block::BlockLayout layout;
  std::string bytes = writer.Encode(AllTypesChunk(64), &zones, &layout);

  // Every single-byte flip must be caught by a page or footer checksum
  // (spot-check a spread of offsets rather than all of them).
  for (size_t pos : {size_t{9}, bytes.size() / 3, bytes.size() / 2,
                     bytes.size() - 10}) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5A);
    EXPECT_FALSE(block::BlockReader::Decode(bad, types, Iota(5)).ok())
        << "flip at " << pos;
  }
  EXPECT_FALSE(
      block::BlockReader::Decode(bytes.substr(0, 12), types, Iota(5)).ok());
  EXPECT_FALSE(block::BlockReader::Decode("", types, Iota(5)).ok());
  // Schema mismatch is a decode error, not a crash.
  EXPECT_FALSE(
      block::BlockReader::Decode(bytes, {LogicalType::kInt64}, {0}).ok());
}

/// Raw payload equality: same type, same flat arrays (doubles compared as
/// bits), same validity mask.
void ExpectColumnsBitIdentical(const ColumnVector& a, const ColumnVector& b) {
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

TEST(BlockFormatTest, ProjectedDecodeVerifiesPagesItDoesNotDecode) {
  const std::vector<LogicalType> types = AllTypes();
  block::BlockWriter writer(types);
  const std::string bytes = writer.Encode(AllTypesChunk(64), nullptr, nullptr);
  auto footer = block::BlockReader::ReadFooter(bytes);
  ASSERT_TRUE(footer.ok()) << footer.status().ToString();
  ASSERT_TRUE(block::BlockReader::Decode(bytes, types, {0}).ok());
  // One flipped byte in any page of columns 1..4 must reject a read that
  // decodes only column 0: a block is verified whole or not at all.
  size_t flipped = 0;
  for (const block::PageEntry& pe : footer->pages) {
    if (pe.column == 0 || pe.size == 0) continue;
    std::string bad = bytes;
    const size_t pos = pe.offset + pe.size / 2;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    auto decoded = block::BlockReader::Decode(bad, types, {0});
    ASSERT_FALSE(decoded.ok()) << "page of column " << pe.column;
    EXPECT_TRUE(decoded.status().IsInternal());
    ++flipped;
  }
  EXPECT_GE(flipped, 4u);
}

// --------------------------------------------------- block format v3 pages

constexpr size_t kTrailerBytes = 4 + 8 + 8;

/// `body` (magic + pages), then the encoded `footer` and a trailer whose
/// checksum matches it: a forged footer field then meets the reader's own
/// bounds checks, not a checksum mismatch.
std::string SealFooterBytes(const std::string& body, const std::string& f) {
  std::string out = body + f;
  block::PutU32(&out, static_cast<uint32_t>(f.size()));
  block::PutU64(&out, block::Checksum64(f.data(), f.size()));
  block::PutU64(&out, block::kBlockMagic);
  return out;
}

std::string Seal(const std::string& body, const block::BlockFooter& footer) {
  return SealFooterBytes(body, block::EncodeFooter(footer));
}

/// A writer-produced image split into its body (magic + pages) and footer.
struct BlockParts {
  std::string body;
  block::BlockFooter footer;
};

BlockParts Split(const std::string& image) {
  BlockParts parts;
  auto footer = block::BlockReader::ReadFooter(image);
  EXPECT_TRUE(footer.ok()) << footer.status().ToString();
  if (!footer.ok()) return parts;
  uint32_t footer_size = 0;
  std::memcpy(&footer_size, image.data() + image.size() - kTrailerBytes, 4);
  parts.body = image.substr(0, image.size() - kTrailerBytes - footer_size);
  parts.footer = std::move(*footer);
  return parts;
}

/// One column per page encoding, NULLs in four of them:
///   0 wide    int64  plain (values span the whole int64 range)
///   1 packed  int64  frame-of-reference, negative base, NULLs
///   2 const   int64  packed at width 0
///   3 price   double plain, NULLs
///   4 mode    string dictionary (incl. the empty string), NULLs
///   5 name    string plain (every value distinct)
///   6 day     date   packed
///   7 flag    bool   packed at width 1, NULLs
std::vector<ColumnDef> EveryEncodingColumns() {
  return {{"wide", LogicalType::kInt64},   {"packed", LogicalType::kInt64},
          {"const", LogicalType::kInt64},  {"price", LogicalType::kDouble},
          {"mode", LogicalType::kVarchar}, {"name", LogicalType::kVarchar},
          {"day", LogicalType::kDate},     {"flag", LogicalType::kBool}};
}

std::vector<LogicalType> EveryEncodingTypes() {
  std::vector<LogicalType> types;
  for (const ColumnDef& c : EveryEncodingColumns()) types.push_back(c.type);
  return types;
}

DataChunk EveryEncodingChunk(size_t rows) {
  const char* modes[] = {"AIR", "RAIL", "", "TRUCK", "MAIL"};
  DataChunk chunk(EveryEncodingTypes());
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t u = static_cast<uint64_t>(r) * 0x9E3779B97F4A7C15ULL;
    const auto i = static_cast<int64_t>(r);
    std::vector<Value> row = {
        Value(static_cast<int64_t>(u)),
        Value(-500 + i % 300),
        Value(int64_t{42}),
        Value(0.5 * static_cast<double>(r)),
        Value(std::string(modes[r % 5])),
        Value("name-" + std::to_string(r) + "-" + std::to_string(u % 1000)),
        Value(int64_t{9000} + i % 365),
        Value::Bool(r % 3 == 0)};
    for (size_t c : {1u, 3u, 4u, 7u}) {
      if ((r + c) % 11 == 0) row[c] = Value::Null();
    }
    chunk.AppendRow(row);
  }
  return chunk;
}

block::PageKind PayloadKind(const block::BlockFooter& f, size_t column) {
  return f.pages[f.columns[column].payload_page].kind;
}

/// Encode `chunk`, check the layout's byte counts, and return the decoded
/// chunk after checking it bit for bit (payloads, fillers and masks).
DataChunk RoundTrip(const DataChunk& chunk, std::string* image = nullptr) {
  const std::vector<LogicalType> types = chunk.Types();
  block::BlockLayout layout;
  const std::string bytes =
      block::BlockWriter(types).Encode(chunk, nullptr, &layout);
  EXPECT_EQ(layout.total_bytes, static_cast<double>(bytes.size()));
  for (size_t c = 0; c < types.size(); ++c) {
    // Plain bytes, whatever the encoding: what the cache charges.
    const ColumnVector& col = chunk.column(c);
    double plain = 8.0 * static_cast<double>(chunk.num_rows());
    if (col.physical_type() == PhysicalType::kString) {
      plain = 0.0;
      for (const std::string& s : col.strings()) plain += 4.0 + s.size();
    }
    if (col.has_nulls()) plain += static_cast<double>(chunk.num_rows());
    EXPECT_EQ(layout.column_bytes[c], plain) << "column " << c;
  }
  auto decoded = block::BlockReader::Decode(bytes, types, Iota(types.size()));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return DataChunk(types);
  EXPECT_EQ(decoded->chunk.num_rows(), chunk.num_rows());
  for (size_t c = 0; c < types.size(); ++c) {
    ExpectColumnsBitIdentical(decoded->chunk.column(c), chunk.column(c));
  }
  if (image != nullptr) *image = bytes;
  return std::move(decoded->chunk);
}

TEST(BlockFormatTest, EveryEncodingRoundTrips) {
  std::string image;
  RoundTrip(EveryEncodingChunk(300), &image);
  const BlockParts parts = Split(image);
  using block::PageKind;
  const std::vector<PageKind> expected = {
      PageKind::kInt64,        PageKind::kInt64Packed, PageKind::kInt64Packed,
      PageKind::kDouble,       PageKind::kStringDict,  PageKind::kString,
      PageKind::kInt64Packed,  PageKind::kInt64Packed};
  for (size_t c = 0; c < expected.size(); ++c) {
    EXPECT_EQ(PayloadKind(parts.footer, c), expected[c]) << "column " << c;
  }
  // Width 0 stores the header only; width 1 one bit per row.
  const auto& pages = parts.footer.pages;
  EXPECT_EQ(pages[parts.footer.columns[2].payload_page].size,
            block::kPackedHeaderBytes);
  EXPECT_EQ(pages[parts.footer.columns[7].payload_page].size,
            block::kPackedHeaderBytes + block::PackedBytes(300, 1));
  for (size_t c : {1u, 3u, 4u, 7u}) {
    EXPECT_NE(parts.footer.columns[c].validity_page, block::kNoPage);
  }

  // 1-row and 0-row blocks.
  RoundTrip(EveryEncodingChunk(1));
  RoundTrip(EveryEncodingChunk(0));

  // All-NULL columns: the fillers (0 and "") pack at width 0.
  DataChunk nulls({LogicalType::kInt64, LogicalType::kVarchar});
  for (int r = 0; r < 100; ++r) nulls.AppendRow({Value::Null(), Value::Null()});
  RoundTrip(nulls, &image);
  const BlockParts null_parts = Split(image);
  EXPECT_EQ(PayloadKind(null_parts.footer, 0), PageKind::kInt64Packed);
  EXPECT_EQ(PayloadKind(null_parts.footer, 1), PageKind::kStringDict);

  // Empty strings only: a one-entry dictionary of "".
  DataChunk empty({LogicalType::kVarchar});
  for (int r = 0; r < 50; ++r) empty.AppendRow({Value(std::string())});
  RoundTrip(empty, &image);
  EXPECT_EQ(PayloadKind(Split(image).footer, 0), PageKind::kStringDict);

  // INT64_MIN and INT64_MAX in one page need 64 bits: plain wins. Negative
  // values in a narrow range pack around a negative base.
  DataChunk extremes({LogicalType::kInt64, LogicalType::kInt64});
  for (int64_t r = 0; r < 64; ++r) {
    extremes.AppendRow(
        {Value(r % 2 == 0 ? std::numeric_limits<int64_t>::min()
                          : std::numeric_limits<int64_t>::max() - r),
         Value(-1'000'000'000'000 - r * 3)});
  }
  RoundTrip(extremes, &image);
  const BlockParts ext = Split(image);
  EXPECT_EQ(PayloadKind(ext.footer, 0), PageKind::kInt64);
  EXPECT_EQ(PayloadKind(ext.footer, 1), PageKind::kInt64Packed);
}

TEST(BlockFormatTest, Width64PackedPageDecodes) {
  // The writer never emits width 64 (plain is smaller), but the format
  // allows it: hand-build a one-column block holding INT64_MIN..INT64_MAX.
  const std::vector<int64_t> values = {
      std::numeric_limits<int64_t>::min(), -1, 0, 7,
      std::numeric_limits<int64_t>::max()};
  const auto base = static_cast<uint64_t>(values[0]);
  std::string page;
  block::PutU64(&page, base);
  page.push_back(64);
  for (int64_t v : values) {
    block::PutU64(&page, static_cast<uint64_t>(v) - base);
  }

  block::BlockFooter footer;
  footer.rows = values.size();
  footer.columns.push_back({LogicalType::kInt64, 0, block::kNoPage});
  block::PageEntry pe;
  pe.offset = 8;
  pe.size = page.size();
  pe.checksum = block::Checksum64(page.data(), page.size());
  pe.kind = block::PageKind::kInt64Packed;
  footer.pages.push_back(pe);
  footer.zones.push_back(ZoneMapEntry{});
  std::string body;
  block::PutU64(&body, block::kBlockMagic);
  body += page;

  auto decoded = block::BlockReader::Decode(Seal(body, footer),
                                            {LogicalType::kInt64}, {0});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->chunk.column(0).ints(), values);
}

TEST(BlockFormatTest, Version2ImagesAreRejected) {
  const std::vector<LogicalType> types = AllTypes();
  BlockParts parts = Split(
      block::BlockWriter(types).Encode(AllTypesChunk(64), nullptr, nullptr));
  parts.footer.version = 2;
  auto decoded = block::BlockReader::Decode(Seal(parts.body, parts.footer),
                                            types, Iota(types.size()));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unsupported format version"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(BlockFormatTest, ForgedFooterArithmeticCannotWrap) {
  // Page offset 8 with size 2^64 - 8: offset + size wraps to 0. The range
  // check must bound each operand first, or Verify checksums past the end.
  const std::vector<LogicalType> ints = {LogicalType::kInt64};
  DataChunk wide(ints);
  for (int64_t r = 0; r < 16; ++r) {
    wide.AppendRow({Value(r % 2 == 0 ? std::numeric_limits<int64_t>::min()
                                     : std::numeric_limits<int64_t>::max())});
  }
  const BlockParts parts =
      Split(block::BlockWriter(ints).Encode(wide, nullptr, nullptr));
  ASSERT_EQ(PayloadKind(parts.footer, 0), block::PageKind::kInt64);
  ASSERT_EQ(parts.footer.pages[0].size, 128u);
  block::BlockFooter range = parts.footer;
  range.pages[0].offset = 8;
  range.pages[0].size = ~uint64_t{0} - 7;
  auto wrapped = block::BlockReader::Decode(Seal(parts.body, range), ints, {0});
  ASSERT_FALSE(wrapped.ok());
  EXPECT_TRUE(wrapped.status().IsInternal());

  // 2^61 + 16 rows over a 128-byte flat page: rows × 8 wraps to 128. Both
  // the footer's row bound and the page's size check must reject it.
  const std::vector<LogicalType> doubles = {LogicalType::kDouble};
  DataChunk sixteen(doubles);
  for (int r = 0; r < 16; ++r) sixteen.AppendRow({Value(0.5 * r)});
  for (const auto& [types, chunk] :
       {std::make_pair(ints, wide), std::make_pair(doubles, sixteen)}) {
    BlockParts forged =
        Split(block::BlockWriter(types).Encode(chunk, nullptr, nullptr));
    ASSERT_EQ(forged.footer.pages[0].size, 128u);
    forged.footer.rows = (uint64_t{1} << 61) + 16;
    const std::string image = Seal(forged.body, forged.footer);
    EXPECT_FALSE(block::BlockReader::Decode(image, types, {0}).ok());
    // DecodeVerified alone, handed the forged footer past ReadFooter.
    auto direct = block::BlockReader::DecodeVerified(image, forged.footer, {0});
    ASSERT_FALSE(direct.ok());
    EXPECT_TRUE(direct.status().IsInternal());
  }
}

/// `parts` with page `p`'s bytes at `at` replaced by `bytes`, the page
/// checksum and the footer checksum re-sealed.
std::string WithPageEdit(BlockParts parts, size_t p, size_t at,
                         const std::string& bytes) {
  block::PageEntry& pe = parts.footer.pages[p];
  parts.body.replace(pe.offset + at, bytes.size(), bytes);
  pe.checksum = block::Checksum64(parts.body.data() + pe.offset, pe.size);
  return Seal(parts.body, parts.footer);
}

TEST(BlockFormatTest, PackedPageHeadersAreCheckedBeforeUnpacking) {
  const std::vector<LogicalType> types = EveryEncodingTypes();
  const BlockParts parts = Split(
      block::BlockWriter(types).Encode(EveryEncodingChunk(300), nullptr,
                                       nullptr));
  const size_t packed = parts.footer.columns[1].payload_page;
  const size_t dict = parts.footer.columns[4].payload_page;
  auto decode_fails = [&](const std::string& image, const char* why) {
    auto decoded = block::BlockReader::Decode(image, types, Iota(types.size()));
    ASSERT_FALSE(decoded.ok()) << why;
    EXPECT_TRUE(decoded.status().IsInternal()) << why;
  };
  const char width = parts.body[parts.footer.pages[packed].offset + 8];
  decode_fails(WithPageEdit(parts, packed, 8, std::string(1, char(65))),
               "width 65");
  decode_fails(WithPageEdit(parts, packed, 8, std::string(1, char(width + 1))),
               "one bit wider than the page holds");
  std::string one_entry;
  block::PutU32(&one_entry, 1);
  decode_fails(WithPageEdit(parts, dict, 0, one_entry), "entry count");
  std::string long_entry;
  block::PutU32(&long_entry, 1u << 30);
  decode_fails(WithPageEdit(parts, dict, 4, long_entry),
               "entry past the page");
  // Five entries take 3-bit codes; code 7 names no entry.
  const uint64_t dict_size = parts.footer.pages[dict].size;
  decode_fails(WithPageEdit(parts, dict,
                            dict_size - block::PackedBytes(300, 3),
                            std::string(1, char(0x07))),
               "code out of range");
}

// ------------------------------------------------ block decoder mutations

TEST(BlockDecoderMutationTest, SeededMutationsNeverCrashOrLie) {
  // Blocks covering every page encoding and NULLs, plus the edge sizes.
  struct Seed {
    std::vector<LogicalType> types;
    std::string image;
  };
  std::vector<Seed> seeds;
  for (size_t rows : {300u, 1u, 0u}) {
    const std::vector<LogicalType> types = EveryEncodingTypes();
    seeds.push_back({types, block::BlockWriter(types).Encode(
                                EveryEncodingChunk(rows), nullptr, nullptr)});
  }
  seeds.push_back({AllTypes(), block::BlockWriter(AllTypes()).Encode(
                                   AllTypesChunk(64), nullptr, nullptr)});

  // Every outcome is a non-OK Status or a chunk of the footer's row count
  // and the schema's types; nothing crashes, throws or trips a sanitizer.
  size_t decoded_ok = 0, rejected = 0;
  // Rejections of re-sealed page edits: what DecodeVerified's own header
  // and size checks caught.
  size_t page_edits_rejected = 0;
  auto check = [&](const Seed& seed, const std::string& image) {
    auto decoded = block::BlockReader::Decode(image, seed.types,
                                              Iota(seed.types.size()));
    if (!decoded.ok()) {
      ++rejected;
      return false;
    }
    ++decoded_ok;
    auto footer = block::BlockReader::ReadFooter(image);
    EXPECT_TRUE(footer.ok());
    if (!footer.ok()) return true;
    const DataChunk& chunk = decoded->chunk;
    EXPECT_EQ(chunk.num_columns(), seed.types.size());
    EXPECT_EQ(chunk.num_rows(), footer->rows);
    for (size_t c = 0; c < chunk.num_columns(); ++c) {
      const ColumnVector& col = chunk.column(c);
      EXPECT_EQ(col.type(), seed.types[c]);
      EXPECT_EQ(col.size(), footer->rows);
      EXPECT_TRUE(col.validity().empty() ||
                  col.validity().size() == footer->rows);
    }
    return true;
  };

  constexpr size_t kRounds = 5000;  // per seed block
  Mutator rng{0xB10C'5EEDULL};
  for (const Seed& seed : seeds) {
    const BlockParts parts = Split(seed.image);
    // Re-sealing an untouched footer reproduces the image byte for byte.
    ASSERT_EQ(Seal(parts.body, parts.footer), seed.image);
    for (size_t round = 0; round < kRounds; ++round) {
      switch (round % 5) {
        case 0: {  // flip bits of one byte
          std::string bad = seed.image;
          const size_t pos = rng.Below(bad.size());
          bad[pos] = static_cast<char>(bad[pos] ^ (1 + rng.Below(255)));
          check(seed, bad);
          break;
        }
        case 1:  // truncate
          check(seed, seed.image.substr(0, rng.Below(seed.image.size())));
          break;
        case 2: {  // one footer field to an edge value, footer re-sealed
          block::BlockFooter f = parts.footer;
          const size_t field = rng.Below(10);
          block::PageEntry* pe =
              f.pages.empty() ? nullptr : &f.pages[rng.Below(f.pages.size())];
          block::ColumnEntry& ce = f.columns[rng.Below(f.columns.size())];
          auto edge32 = [&](uint32_t old) {
            return static_cast<uint32_t>(rng.Edge(old));
          };
          switch (field) {
            case 0:
              f.version = edge32(f.version);
              break;
            case 1:
              f.rows = rng.Edge(f.rows);
              break;
            case 2:
              ce.payload_page = edge32(ce.payload_page);
              break;
            case 3:
              ce.validity_page = edge32(ce.validity_page);
              break;
            case 4:
              ce.type = static_cast<LogicalType>(rng.Below(6));
              break;
            case 5:
              if (pe != nullptr) pe->offset = rng.Edge(pe->offset);
              break;
            case 6:
              if (pe != nullptr) pe->size = rng.Edge(pe->size);
              break;
            case 7:
              if (pe != nullptr) {
                pe->kind = static_cast<block::PageKind>(rng.Below(7));
              }
              break;
            case 8:
              if (pe != nullptr) pe->column = edge32(pe->column);
              break;
            default:  // drop the last page-table entry
              if (!f.pages.empty()) f.pages.pop_back();
              break;
          }
          check(seed, Seal(parts.body, f));
          break;
        }
        case 3: {  // one raw footer byte, footer re-sealed
          std::string footer = block::EncodeFooter(parts.footer);
          const size_t pos = rng.Below(footer.size());
          footer[pos] = static_cast<char>(rng.Next());
          check(seed, SealFooterBytes(parts.body, footer));
          break;
        }
        default: {  // a page header (or any page byte), both checksums
                    // re-sealed so the decoder's own checks meet it
          if (parts.footer.pages.empty()) break;
          const size_t p = rng.Below(parts.footer.pages.size());
          const uint64_t size = parts.footer.pages[p].size;
          if (size == 0) break;
          const size_t at = rng.Below(2) == 0
                                ? rng.Below(std::min<uint64_t>(size, 16))
                                : rng.Below(size);
          const size_t len = std::min<size_t>(1 + rng.Below(4), size - at);
          std::string bytes(len, '\0');
          const uint64_t v = rng.Edge(0);
          std::memcpy(bytes.data(), &v, std::min<size_t>(len, 8));
          if (!check(seed, WithPageEdit(parts, p, at, bytes))) {
            ++page_edits_rejected;
          }
          break;
        }
      }
    }
  }
  EXPECT_GT(page_edits_rejected, 0u);
  EXPECT_GT(decoded_ok, 0u);
  EXPECT_GT(rejected, decoded_ok);
}

// ---------------------------------------------------------------- checksum

std::string PseudoRandomBytes(size_t n, uint64_t seed) {
  std::string out(n, '\0');
  for (char& c : out) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>(seed >> 56);
  }
  return out;
}

TEST(ChecksumTest, EverySingleByteChangeChangesTheChecksum) {
  // Lengths 0..96 cover whole 32-byte stripes, leftover words and every
  // tail length on both sides of the stripe boundary.
  for (size_t n = 0; n <= 96; ++n) {
    const std::string buf = PseudoRandomBytes(n, n + 1);
    const uint64_t base = block::Checksum64(buf.data(), n);
    for (size_t pos = 0; pos < n; ++pos) {
      for (unsigned flip : {0x01u, 0x80u, 0xFFu}) {
        std::string bad = buf;
        bad[pos] = static_cast<char>(bad[pos] ^ flip);
        ASSERT_NE(block::Checksum64(bad.data(), n), base)
            << "length " << n << ", byte " << pos << ", flip " << flip;
      }
    }
    // The length is folded in: a trailing zero byte is not invisible.
    const std::string longer = buf + '\0';
    EXPECT_NE(block::Checksum64(longer.data(), n + 1), base) << "length " << n;
  }
}

TEST(ChecksumTest, KnownAnswers) {
  // Block formats v2 and v3 store these values on disk: changing the
  // function is a format change.
  EXPECT_EQ(block::Checksum64("", 0), 0xca6e313f06ee3d42ULL);
  const std::string text = "costdb block format v2";
  EXPECT_EQ(block::Checksum64(text.data(), text.size()),
            0x06efd0356b52fdc7ULL);
  const std::string stripes = PseudoRandomBytes(100, 42);
  EXPECT_EQ(block::Checksum64(stripes.data(), stripes.size()),
            0x4c3d9602e4cc462fULL);
}

// -------------------------------------------------------------- block cache

std::shared_ptr<const ColumnVector> TinyColumn() {
  ColumnVector c(LogicalType::kInt64);
  c.AppendInt(1);
  return std::make_shared<const ColumnVector>(std::move(c));
}

/// Whether column 0 of `block_key` is cached.
bool Cached(BlockCache& cache, const std::string& block_key,
            BlockCacheStats* stats) {
  std::vector<std::shared_ptr<const ColumnVector>> out;
  return cache.Lookup(block_key, {0}, &out, stats);
}

TEST(BlockCacheTest, GdsfKeepsTheDearerBlock) {
  BlockCache cache(1300);
  BlockCacheStats stats;
  // Same size, different re-materialization cost: when space runs out the
  // cheap-to-refetch block is the victim.
  cache.Insert("cheap", 0, TinyColumn(), 600.0, /*miss_cost=*/1e-6, &stats);
  cache.Insert("dear", 0, TinyColumn(), 600.0, /*miss_cost=*/1e-3, &stats);
  EXPECT_EQ(cache.entries(), 2u);
  cache.Insert("new", 0, TinyColumn(), 600.0, /*miss_cost=*/1e-4, &stats);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_FALSE(Cached(cache, "cheap", &stats));
  EXPECT_TRUE(Cached(cache, "dear", &stats));
  EXPECT_TRUE(Cached(cache, "new", &stats));
}

TEST(BlockCacheTest, RejectsBlocksLargerThanBudgetAndCountsTraffic) {
  BlockCache cache(1000);
  BlockCacheStats stats;
  cache.Insert("whale", 0, TinyColumn(), 5000.0, 1e-3, &stats);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_FALSE(Cached(cache, "whale", &stats));
  EXPECT_EQ(cache.entries(), 0u);

  cache.RecordMiss(5000.0, 0.01, 4e-7, &stats);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.bytes_read, 5000.0);
  EXPECT_EQ(stats.miss_get_dollars, 4e-7);
  // Lifetime totals see the same traffic (stats is per-query).
  EXPECT_EQ(cache.totals().misses, 1);
}

TEST(BlockCacheTest, PartialLookupCountsBytesHitButNotAHit) {
  BlockCache cache(1 << 20);
  BlockCacheStats stats;
  cache.Insert("b", 0, TinyColumn(), 100.0, 1e-6, &stats);
  cache.Insert("b", 2, TinyColumn(), 300.0, 1e-6, &stats);
  std::vector<std::shared_ptr<const ColumnVector>> out;
  EXPECT_FALSE(cache.Lookup("b", {2, 1, 0}, &out, &stats));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_NE(out[0], nullptr);
  EXPECT_EQ(out[1], nullptr);
  EXPECT_NE(out[2], nullptr);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.bytes_hit, 400.0);
  EXPECT_TRUE(cache.Lookup("b", {0, 2}, &out, &stats));
  EXPECT_EQ(stats.hits, 1);
  // Erase drops every column of the block, and only that block's.
  cache.Insert("bb", 0, TinyColumn(), 50.0, 1e-6, &stats);
  cache.Erase("b");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes_used(), 50u);
}

TEST(BlockCacheTest, VictimIsLowestPriorityThenLowestKey) {
  // Equal sizes and miss costs: every new entry starts at clock + density,
  // and a hit adds one more density. Ties go to the lowest (block, column).
  BlockCache cache(300);
  BlockCacheStats stats;
  auto insert = [&](const std::string& key, size_t column) {
    cache.Insert(key, column, TinyColumn(), 100.0, 1e-6, &stats);
  };
  auto cached = [&](const std::string& key, size_t column) {
    std::vector<std::shared_ptr<const ColumnVector>> out;
    return cache.Lookup(key, {column}, &out, nullptr);
  };

  // Ties: ("a", 0) < ("a", 1) < ("b", 0) all at one priority.
  insert("b", 0);
  insert("a", 1);
  insert("a", 0);
  insert("c", 0);  // evicts ("a", 0); the clock rises to the tie
  insert("d", 0);  // ("a", 1) and ("b", 0) tie below ("c", 0): ("a", 1)
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_FALSE(cached("a", 0));
  EXPECT_FALSE(cached("a", 1));
  EXPECT_TRUE(cached("b", 0));
  EXPECT_TRUE(cached("c", 0));
  EXPECT_TRUE(cached("d", 0));

  // After hits: a hit entry outranks its unhit peers; ties that a hit
  // creates still break by key.
  BlockCache hit_cache(300);
  BlockCacheStats hit_stats;
  auto hit_insert = [&](const std::string& key) {
    hit_cache.Insert(key, 0, TinyColumn(), 100.0, 1e-6, &hit_stats);
  };
  auto hit_cached = [&](const std::string& key) {
    std::vector<std::shared_ptr<const ColumnVector>> out;
    return hit_cache.Lookup(key, {0}, &out, nullptr);
  };
  hit_insert("x");
  hit_insert("y");
  hit_insert("z");
  ASSERT_TRUE(hit_cached("y"));  // y: 2 densities; x, z: 1
  hit_insert("w");  // evicts x (lowest key of the tie at 1)
  hit_insert("v");  // evicts z; w (clock + 1) now ties y at 2
  hit_insert("u");  // v, w and y tie at 2: evicts v
  EXPECT_EQ(hit_stats.evictions, 3);
  EXPECT_FALSE(hit_cached("x"));
  EXPECT_FALSE(hit_cached("z"));
  EXPECT_FALSE(hit_cached("v"));
  EXPECT_TRUE(hit_cached("w"));
  EXPECT_TRUE(hit_cached("y"));
  EXPECT_TRUE(hit_cached("u"));
}

// --------------------------------------------------------- persistent tier

std::string FreshSpillDir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / ("costdb_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

struct PersistentFixture {
  PricingCatalog pricing = PricingCatalog::Default();
  SimulatedObjectStore store{&pricing};
  BlockCache cache;
  StorageOptions options;

  explicit PersistentFixture(const std::string& name,
                             size_t cache_bytes = 4u << 20)
      : cache(cache_bytes) {
    EXPECT_TRUE(store.EnableSpill(FreshSpillDir(name)).ok());
    options.memtable_flush_rows = 128;
    options.level_fanout = 2;
  }

  std::shared_ptr<TableStorage> MakeStorage(const Table& table) {
    StoragePricing price;
    price.get_dollars = pricing.per_1k_get_requests / 1000.0;
    price.put_dollars = pricing.per_1k_put_requests / 1000.0;
    price.node_dollars_per_second =
        pricing.default_node().price_per_second();
    return MakeStorage(table, price);
  }

  std::shared_ptr<TableStorage> MakeStorage(const Table& table,
                                            StoragePricing price) {
    std::vector<LogicalType> types;
    for (const auto& c : table.columns()) types.push_back(c.type);
    return std::make_shared<TableStorage>(
        table.name(), std::move(types), table.row_group_size(), &store,
        &cache, options, [price] { return price; });
  }
};

TEST(PersistentTableTest, AttachEvictsAndScanIsBitIdentical) {
  PersistentFixture fx("attach");
  auto table = std::make_shared<Table>(
      "t", std::vector<ColumnDef>{{"i", LogicalType::kInt64},
                                  {"d", LogicalType::kDouble},
                                  {"s", LogicalType::kVarchar},
                                  {"b", LogicalType::kBool},
                                  {"dt", LogicalType::kDate}},
      /*row_group_size=*/64);
  const DataChunk data = AllTypesChunk(500);
  table->Append(data);
  const DataChunk ram_scan = table->Scan();

  ASSERT_TRUE(table->AttachStorage(fx.MakeStorage(*table)).ok());
  EXPECT_TRUE(table->persistent());
  EXPECT_EQ(table->memtable_rows(), 0u);  // attach flushed everything
  EXPECT_GT(fx.store.put_requests(), 0);
  EXPECT_EQ(table->num_rows(), 500u);
  for (const auto& g : table->row_groups()) EXPECT_FALSE(g.resident);

  // Cold scan: every group pages back through the cache, bit-identical.
  auto cold = table->ScanPinned();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ExpectChunksBitIdentical(ram_scan, *cold);
  EXPECT_GT(fx.store.get_requests(), 0);
  EXPECT_GT(fx.cache.totals().misses, 0);

  // Second scan is served from the cache: no new GETs.
  const int64_t gets_before = fx.store.get_requests();
  auto warm = table->ScanPinned();
  ASSERT_TRUE(warm.ok());
  ExpectChunksBitIdentical(ram_scan, *warm);
  EXPECT_EQ(fx.store.get_requests(), gets_before);
}

TEST(PersistentTableTest, AppendAutoFlushesPastThreshold) {
  PersistentFixture fx("autoflush");
  auto table = std::make_shared<Table>(
      "t", std::vector<ColumnDef>{{"i", LogicalType::kInt64}},
      /*row_group_size=*/64);
  ASSERT_TRUE(table->AttachStorage(fx.MakeStorage(*table)).ok());

  DataChunk small({LogicalType::kInt64});
  for (int64_t i = 0; i < 100; ++i) small.AppendRow({Value(i)});
  table->Append(small);
  EXPECT_TRUE(table->last_storage_error().ok());
  EXPECT_EQ(table->memtable_rows(), 100u);  // under the 128-row threshold

  table->Append(small);  // 200 resident rows: crosses, flushes
  EXPECT_TRUE(table->last_storage_error().ok());
  EXPECT_EQ(table->memtable_rows(), 0u);
  EXPECT_EQ(table->num_rows(), 200u);

  auto all = table->ScanPinned();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->num_rows(), 200u);
  // Flush order preserves insertion order: 0..99 twice.
  EXPECT_EQ(all->column(0).GetInt(0), 0);
  EXPECT_EQ(all->column(0).GetInt(99), 99);
  EXPECT_EQ(all->column(0).GetInt(100), 0);
  EXPECT_EQ(all->column(0).GetInt(199), 99);
}

TEST(PersistentTableTest, ForcedCompactionThinsBlocksAndBumpsLayout) {
  PersistentFixture fx("compact");
  auto table = std::make_shared<Table>(
      "t", std::vector<ColumnDef>{{"i", LogicalType::kInt64}},
      /*row_group_size=*/32);
  DataChunk data({LogicalType::kInt64});
  for (int64_t i = 0; i < 400; ++i) data.AppendRow({Value(i)});
  table->Append(data);
  ASSERT_TRUE(table->AttachStorage(fx.MakeStorage(*table)).ok());
  const auto before = table->storage()->Summary();
  ASSERT_GT(before.blocks, 1u);
  const uint64_t layout_before = table->layout_version();

  auto merged = table->CompactStorage(/*force=*/true);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(*merged);
  EXPECT_GT(table->layout_version(), layout_before);

  const auto after = table->storage()->Summary();
  EXPECT_EQ(after.compactions, 1u);
  EXPECT_LT(after.blocks, before.blocks);  // bigger blocks, fewer GETs
  EXPECT_EQ(after.rows, before.rows);

  // Rows and order survive the merge.
  auto all = table->ScanPinned();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->num_rows(), 400u);
  for (int64_t i = 0; i < 400; ++i) {
    ASSERT_EQ(all->column(0).GetInt(static_cast<size_t>(i)), i);
  }
}

std::vector<ColumnDef> AllTypeColumns() {
  return {{"i", LogicalType::kInt64},
          {"d", LogicalType::kDouble},
          {"s", LogicalType::kVarchar},
          {"b", LogicalType::kBool},
          {"dt", LogicalType::kDate}};
}

TEST(PersistentTableTest, EveryProjectedPinMatchesAFullDecode) {
  // A cache too small for any column: every pin decodes its projection
  // from its own GET, so each subset exercises the projected decode, over
  // blocks holding every page encoding.
  PersistentFixture fx("projections", /*cache_bytes=*/1);
  auto table = std::make_shared<Table>("t", EveryEncodingColumns(),
                                       /*row_group_size=*/100);
  const DataChunk data = EveryEncodingChunk(300);
  table->Append(data);
  ASSERT_TRUE(table->AttachStorage(fx.MakeStorage(*table)).ok());
  const size_t ncols = table->columns().size();
  ASSERT_EQ(table->row_groups().size(), 3u);
  for (size_t g = 0; g < table->row_groups().size(); ++g) {
    auto full = table->PinRowGroup(g, Iota(ncols));
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    DataChunk rows(data.Types());
    rows.AppendRange(data, 100 * g, 100 * (g + 1));
    for (size_t c = 0; c < ncols; ++c) {
      ExpectColumnsBitIdentical(full->column(c), rows.column(c));
    }
    for (uint32_t mask = 0; mask < (1u << ncols); ++mask) {
      std::vector<size_t> subset;
      for (size_t c = 0; c < ncols; ++c) {
        if (mask & (1u << c)) subset.push_back(c);
      }
      auto pin = table->PinRowGroup(g, subset);
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      for (size_t c = 0; c < ncols; ++c) {
        if (mask & (1u << c)) {
          ExpectColumnsBitIdentical(pin->column(c), full->column(c));
        } else {
          EXPECT_EQ(pin->columns[c], nullptr);
        }
      }
    }
  }
  EXPECT_EQ(fx.cache.entries(), 0u);  // every column was rejected
  EXPECT_TRUE(table->PinRowGroup(0, {ncols}).status().IsOutOfRange());
}

TEST(PersistentTableTest, SharedColumnsHitAndEachColumnIsCachedOnce) {
  PersistentFixture fx("shared_columns");
  auto table = std::make_shared<Table>("t", AllTypeColumns(),
                                       /*row_group_size=*/64);
  table->Append(AllTypesChunk(64));  // one row group, one block
  ASSERT_TRUE(table->AttachStorage(fx.MakeStorage(*table)).ok());
  ASSERT_EQ(table->row_groups().size(), 1u);
  const TableStorage& storage = *table->storage();
  const int64_t gets = fx.store.get_requests();

  BlockCacheStats first;
  ASSERT_TRUE(table->PinRowGroup(0, {0, 2}, &first).ok());
  EXPECT_EQ(first.misses, 1);
  EXPECT_EQ(first.hits, 0);
  EXPECT_EQ(first.bytes_hit, 0.0);
  EXPECT_EQ(first.bytes_read, storage.Summary().bytes);
  EXPECT_EQ(fx.store.get_requests(), gets + 1);

  // Shares column 2, adds column 4: exactly one GET, column 2 a cache hit.
  BlockCacheStats second;
  ASSERT_TRUE(table->PinRowGroup(0, {2, 4}, &second).ok());
  EXPECT_EQ(second.misses, 1);
  EXPECT_EQ(second.hits, 0);
  EXPECT_EQ(second.bytes_hit, storage.ColumnBytes(2));
  EXPECT_EQ(fx.store.get_requests(), gets + 2);

  // Every requested column cached: a hit, no GET.
  BlockCacheStats third;
  ASSERT_TRUE(table->PinRowGroup(0, {4, 0, 2}, &third).ok());
  EXPECT_EQ(third.hits, 1);
  EXPECT_EQ(third.misses, 0);
  EXPECT_EQ(fx.store.get_requests(), gets + 2);

  // Each column is cached once, charged its manifest bytes.
  EXPECT_EQ(fx.cache.entries(), 3u);
  EXPECT_EQ(static_cast<double>(fx.cache.bytes_used()),
            storage.ColumnBytes(0) + storage.ColumnBytes(2) +
                storage.ColumnBytes(4));
}

TEST(PersistentTableTest, TruncatedBlockFailsInTheStoreBeforeDecode) {
  PersistentFixture fx("truncated_block");
  auto table = std::make_shared<Table>(
      "t", std::vector<ColumnDef>{{"i", LogicalType::kInt64}},
      /*row_group_size=*/64);
  DataChunk data({LogicalType::kInt64});
  for (int64_t i = 0; i < 64; ++i) data.AppendRow({Value(i)});
  table->Append(data);
  ASSERT_TRUE(table->AttachStorage(fx.MakeStorage(*table)).ok());
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(fx.store.spill_directory())) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 1u);
  std::filesystem::resize_file(files[0],
                               std::filesystem::file_size(files[0]) - 1);

  auto pin = table->PinRowGroup(0, {0});
  ASSERT_FALSE(pin.ok());
  EXPECT_TRUE(pin.status().IsInternal());
  // The GET's byte count caught the short read, before any checksum ran.
  EXPECT_NE(pin.status().message().find("object store: size mismatch"),
            std::string::npos)
      << pin.status().ToString();
}

TEST(ObjectStoreTest, SpillFileTruncatedOrGrownIsASizeMismatch) {
  PricingCatalog pricing = PricingCatalog::Default();
  SimulatedObjectStore store(&pricing);
  ASSERT_TRUE(store.EnableSpill(FreshSpillDir("sized_get")).ok());
  // A raw payload, not a block: no checksum exists to catch a bad read.
  const std::string payload = "0123456789abcdef";
  ASSERT_TRUE(store.PutObject("obj", payload).ok());
  auto intact = store.GetObject("obj");
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_EQ(*intact, payload);

  // A key without '/' or '_' names its spill file unchanged.
  const auto path = std::filesystem::path(store.spill_directory()) / "obj";
  std::filesystem::resize_file(path, payload.size() - 3);
  auto truncated = store.GetObject("obj");
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsInternal());
  EXPECT_NE(truncated.status().message().find("size mismatch"),
            std::string::npos)
      << truncated.status().ToString();

  {
    std::ofstream grow(path, std::ios::binary | std::ios::trunc);
    grow << payload << "tail";
  }
  auto grown = store.GetObject("obj");
  ASSERT_FALSE(grown.ok());
  EXPECT_TRUE(grown.status().IsInternal());
  EXPECT_NE(grown.status().message().find("size mismatch"), std::string::npos)
      << grown.status().ToString();
}

TEST(ObjectStoreTest, ZeroByteObjectRoundTrips) {
  PricingCatalog pricing = PricingCatalog::Default();
  SimulatedObjectStore store(&pricing);
  ASSERT_TRUE(store.EnableSpill(FreshSpillDir("empty_object")).ok());
  ASSERT_TRUE(store.PutObject("empty", "").ok());
  auto got = store.GetObject("empty");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->empty());
  EXPECT_EQ(store.get_requests(), 1);
}

TEST(ObjectStoreTest, RangedGetIsSizedAndBilledAsOneGet) {
  PricingCatalog pricing = PricingCatalog::Default();
  SimulatedObjectStore store(&pricing);
  ASSERT_TRUE(store.EnableSpill(FreshSpillDir("ranged_get")).ok());
  const std::string payload = "0123456789abcdef";
  ASSERT_TRUE(store.PutObject("obj", payload).ok());

  auto middle = store.GetRange("obj", 4, 6);
  ASSERT_TRUE(middle.ok()) << middle.status().ToString();
  EXPECT_EQ(*middle, "456789");
  EXPECT_EQ(store.get_requests(), 1);
  auto tail = store.GetRange("obj", 16, 0);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_TRUE(tail->empty());
  EXPECT_EQ(store.get_requests(), 2);

  // Ranges outside the recorded size are rejected before any read.
  for (const auto& [offset, length] :
       std::vector<std::pair<uint64_t, uint64_t>>{{10, 7}, {17, 0}, {0, 17}}) {
    auto outside = store.GetRange("obj", offset, length);
    ASSERT_FALSE(outside.ok()) << offset << "+" << length;
    EXPECT_TRUE(outside.status().IsInternal());
    EXPECT_NE(outside.status().message().find("size mismatch"),
              std::string::npos)
        << outside.status().ToString();
  }
  EXPECT_EQ(store.get_requests(), 2);

  // A truncated or grown spill file fails even a range it still covers.
  const auto path = std::filesystem::path(store.spill_directory()) / "obj";
  std::filesystem::resize_file(path, payload.size() - 3);
  auto truncated = store.GetRange("obj", 0, 4);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("size mismatch"),
            std::string::npos)
      << truncated.status().ToString();
  {
    std::ofstream grow(path, std::ios::binary | std::ios::trunc);
    grow << payload << "tail";
  }
  auto grown = store.GetRange("obj", 0, 4);
  ASSERT_FALSE(grown.ok());
  EXPECT_NE(grown.status().message().find("size mismatch"), std::string::npos)
      << grown.status().ToString();
}

// ------------------------------------------------------- multi-block objects

/// Prices that put the PricedObjectBytes boundary at `object_bytes`: the
/// GET fee alone is the fixed part, and a byte costs 1/GiB dollars.
StoragePricing PricingForObjectBytes(double object_bytes) {
  StoragePricing price;
  price.read_gibps = 1.0;
  price.get_seconds = 0.0;
  price.node_dollars_per_second = 1.0;
  price.get_dollars = object_bytes / kGiB;
  return price;
}

constexpr size_t kObjectGroupRows = 256;
constexpr size_t kObjectBlocks = 10;

/// A table of kObjectBlocks equal blocks (i = row number, sorted; v = i % 7)
/// persisted three blocks to an object: objects {0,1,2} {3,4,5} {6,7,8} {9}.
struct ObjectsFixture {
  PersistentFixture fx;
  std::shared_ptr<Table> table;
  MetadataService meta;

  ObjectsFixture(const std::string& name, size_t cache_bytes)
      : fx(name, cache_bytes) {
    const std::vector<ColumnDef> columns = {{"i", LogicalType::kInt64},
                                            {"v", LogicalType::kInt64}};
    table = std::make_shared<Table>("t", columns, kObjectGroupRows);
    DataChunk rows({LogicalType::kInt64, LogicalType::kInt64});
    for (int64_t i = 0; i < int64_t(kObjectBlocks * kObjectGroupRows); ++i) {
      rows.AppendRow({Value(i), Value(i % 7)});
    }
    table->Append(rows);
    meta.RegisterTable(table);
    meta.AnalyzeAll();

    DataChunk first({LogicalType::kInt64, LogicalType::kInt64});
    first.AppendRange(rows, 0, kObjectGroupRows);
    const std::string block =
        block::BlockWriter(first.Types()).Encode(first, nullptr, nullptr);
    EXPECT_TRUE(table
                    ->AttachStorage(fx.MakeStorage(
                        *table, PricingForObjectBytes(3.5 * block.size())))
                    .ok());
  }

  /// Run `sql` through the vectorized engine.
  QueryResult Scan(const std::string& sql, ExecProfile* profile) {
    auto plan = Optimizer(&meta).OptimizeSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return {};
    auto result = LocalEngine(4).Execute(plan->get(), profile);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::filesystem::path ObjectFile(uint64_t object_id) const {
    // Keys are "lsm/<table>/<first block id>"; '/' spills as "_s".
    return std::filesystem::path(fx.store.spill_directory()) /
           ("lsm_st_s" + std::to_string(object_id));
  }
};

TEST(ObjectLayoutTest, ColdFullScanMakesOneGetPerObject) {
  ObjectsFixture ox("objects_full", /*cache_bytes=*/4u << 20);
  const BlockManifestSummary summary = ox.table->storage()->Summary();
  ASSERT_EQ(summary.blocks, kObjectBlocks);
  ASSERT_EQ(summary.objects, 4u);
  EXPECT_EQ(ox.fx.store.put_requests(), 4);  // one PUT per object

  const std::string sql = "SELECT count(*) AS n, sum(v) AS s FROM t";
  const int64_t gets = ox.fx.store.get_requests();
  ExecProfile cold;
  const QueryResult first = ox.Scan(sql, &cold);
  EXPECT_EQ(ox.fx.store.get_requests() - gets, 4);
  EXPECT_EQ(cold.storage.misses, 4);
  EXPECT_EQ(cold.storage.hits, 0);
  EXPECT_EQ(cold.storage.bytes_read, summary.bytes);
  EXPECT_EQ(cold.scan.cold_runs, 4u);

  // Warm: every pin is a hit; no run, no GET, same rows.
  ExecProfile warm;
  const QueryResult second = ox.Scan(sql, &warm);
  EXPECT_EQ(ox.fx.store.get_requests() - gets, 4);
  EXPECT_EQ(warm.storage.hits, int64_t(kObjectBlocks));
  EXPECT_EQ(warm.scan.cold_runs, 0u);
  EXPECT_EQ(first.chunk.ToString(-1), second.chunk.ToString(-1));
  int64_t sum = 0;
  for (int64_t i = 0; i < int64_t(kObjectBlocks * kObjectGroupRows); ++i) {
    sum += i % 7;
  }
  EXPECT_TRUE(first.chunk.column(1).GetValue(0) == Value(sum));
}

TEST(ObjectLayoutTest, PrunedScanGetsOnlyObjectsWithSurvivingBlocks) {
  ObjectsFixture ox("objects_pruned", /*cache_bytes=*/4u << 20);
  // i in [600, 1000) survives in blocks 2 and 3: objects 0 and 1 only.
  const int64_t gets = ox.fx.store.get_requests();
  ExecProfile one;
  const QueryResult r = ox.Scan(
      "SELECT count(*) AS n FROM t WHERE i >= 600 AND i < 1000", &one);
  EXPECT_EQ(one.scan.morsels_pruned, kObjectBlocks - 2);
  EXPECT_EQ(one.scan.cold_runs, 2u);
  EXPECT_EQ(ox.fx.store.get_requests() - gets, 2);
  EXPECT_TRUE(r.chunk.column(0).GetValue(0) == Value(int64_t{400}));

  // i in [1700, 2400) survives in blocks 6..9: objects 2 and 3, never 0
  // or 1 again, and block 5 (object 1, pruned) costs nothing.
  ExecProfile two;
  ox.Scan("SELECT count(*) AS n FROM t WHERE i >= 1700 AND i < 2400", &two);
  EXPECT_EQ(two.scan.cold_runs, 2u);
  EXPECT_EQ(two.storage.misses, 2);
  EXPECT_EQ(ox.fx.store.get_requests() - gets, 4);
}

TEST(ObjectLayoutTest, RejectingCacheStillMakesOneGetPerObject) {
  // 1 KiB: every 2 KiB column is rejected at admission, so each scan pins
  // every block cold, and the runs still read each object once.
  ObjectsFixture ox("objects_tiny_cache", /*cache_bytes=*/1024);
  const std::string sql = "SELECT sum(i) AS s, max(v) AS m FROM t";
  std::string first;
  for (int pass = 0; pass < 2; ++pass) {
    const int64_t gets = ox.fx.store.get_requests();
    ExecProfile profile;
    const QueryResult r = ox.Scan(sql, &profile);
    EXPECT_EQ(ox.fx.store.get_requests() - gets, 4) << "pass " << pass;
    EXPECT_EQ(profile.storage.misses, 4);
    EXPECT_EQ(profile.storage.hits, 0);
    EXPECT_EQ(profile.storage.rejected, int64_t(2 * kObjectBlocks));
    if (pass == 0) first = r.chunk.ToString(-1);
    EXPECT_EQ(r.chunk.ToString(-1), first);
  }
  EXPECT_EQ(ox.fx.cache.entries(), 0u);
}

TEST(ObjectLayoutTest, AnyFlippedByteOfAnObjectFailsTheRunsPin) {
  ObjectsFixture ox("objects_flip", /*cache_bytes=*/4u << 20);
  const std::vector<size_t> columns = {0, 1};
  const std::vector<uint64_t> object0 = {0, 1, 2};  // blocks, in pin order
  const std::filesystem::path path = ox.ObjectFile(0);
  const size_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, 0u);
  // Three of the ten equal blocks, back to back.
  ASSERT_EQ(static_cast<double>(size * kObjectBlocks),
            3.0 * ox.table->storage()->Summary().bytes);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  for (size_t pos = 0; pos < size; ++pos) {
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(pos));
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(pos));
    file.put(static_cast<char>(byte ^ 0x01));
    file.flush();
    BlockRun run(object0);
    auto pin = ox.table->PinRowGroup(0, columns, nullptr, &run);
    ASSERT_FALSE(pin.ok()) << "flipped byte " << pos << " of " << size;
    file.seekp(static_cast<std::streamoff>(pos));
    file.put(byte);
    file.flush();
  }
  // Intact again: the run's three pins succeed on one GET.
  const int64_t gets = ox.fx.store.get_requests();
  BlockRun run(object0);
  for (size_t g = 0; g < object0.size(); ++g) {
    auto pin = ox.table->PinRowGroup(g, columns, nullptr, &run);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    EXPECT_EQ(pin->column(0).GetInt(0), int64_t(g * kObjectGroupRows));
  }
  EXPECT_EQ(ox.fx.store.get_requests() - gets, 1);
}

// ------------------------------------------------- database-level wiring

std::string SortedLines(const QueryResult& r) {
  std::string rendered = r.ToString(1 << 20);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < rendered.size()) {
    size_t end = rendered.find('\n', start);
    if (end == std::string::npos) end = rendered.size();
    lines.push_back(rendered.substr(start, end - start));
    start = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::unique_ptr<Database> MakePersistentSsbDb(const std::string& spill_name,
                                              size_t cache_bytes,
                                              bool result_cache = false) {
  DatabaseOptions opts;
  opts.exec_threads = 2;
  opts.enable_persistent_storage = true;
  opts.block_cache_bytes = cache_bytes;
  opts.storage_spill_dir = FreshSpillDir(spill_name);
  opts.enable_calibration = false;  // isolate layout-driven invalidation
  opts.enable_result_cache = result_cache;
  auto db = std::make_unique<Database>(opts);
  SsbOptions data;
  data.scale = 0.002;
  data.row_group_size = 256;
  LoadSsb(db->meta(), data);
  return db;
}

TEST(DatabaseStorageTest, PersistedScansBitIdenticalAcrossEngineTiers) {
  auto db = MakePersistentSsbDb("db_tiers", 8u << 20);
  const std::vector<std::pair<std::string, UserConstraint>> runs = {
      // Fused tier: Q1's conjunctive scan filter is the fuse_kernels
      // pass's home turf.
      {FindQuery("Q1").sql, UserConstraint()},
      // Vectorized (non-fused) tier: a disjunctive predicate.
      {"SELECT lo_shipmode, count(*) AS n, sum(lo_revenue) AS rev "
       "FROM lineorder WHERE lo_quantity < 10 OR lo_discount = 2 "
       "GROUP BY lo_shipmode ORDER BY rev DESC",
       UserConstraint()},
      // Sharded tier: same rows through contiguous row-group shares.
      {FindQuery("Q2").sql, UserConstraint().WithWorkers(2)},
  };

  std::vector<std::string> ram_results;
  for (const auto& [sql, constraint] : runs) {
    auto r = db->ExecuteSql(sql, constraint);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->storage.misses + r->storage.hits, 0);  // still RAM
    ram_results.push_back(SortedLines(r->result));
  }

  ASSERT_TRUE(db->PersistTable("lineorder").ok());
  ASSERT_GT(db->storage_store()->put_requests(), 0);

  for (size_t i = 0; i < runs.size(); ++i) {
    auto cold = db->ExecuteSql(runs[i].first, runs[i].second);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(SortedLines(cold->result), ram_results[i]) << runs[i].first;
  }
  // The whole suite scanned cold blocks at least once.
  EXPECT_GT(db->block_cache()->totals().misses, 0);
}

TEST(DatabaseStorageTest, TableLargerThanCacheScansBitIdentical) {
  // A cache far smaller than one decoded block: every pin is a miss (or a
  // rejected admission) and the scan must still stream every row.
  auto db = MakePersistentSsbDb("db_thrash", /*cache_bytes=*/4096);
  const std::string sql = FindQuery("Q2").sql;
  auto ram = db->ExecuteSql(sql, UserConstraint());
  ASSERT_TRUE(ram.ok());

  ASSERT_TRUE(db->PersistTable("lineorder").ok());
  auto cold = db->ExecuteSql(sql, UserConstraint());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(SortedLines(cold->result), SortedLines(ram->result));
  EXPECT_GT(cold->storage.misses, 0);
  const auto totals = db->block_cache()->totals();
  EXPECT_GT(totals.rejected + totals.evictions, 0);

  // Re-running pays the misses again — nothing fits, nothing is served
  // stale.
  auto again = db->ExecuteSql(sql, UserConstraint());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(SortedLines(again->result), SortedLines(ram->result));
  EXPECT_GT(again->storage.misses, 0);
}

TEST(DatabaseStorageTest, BilledRequestsMatchStoreCountersExactly) {
  auto db = MakePersistentSsbDb("db_billing", 8u << 20);
  ASSERT_TRUE(db->PersistTable("lineorder").ok());
  auto r = db->ExecuteSql(FindQuery("Q2").sql, UserConstraint());
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->storage.misses, 0);

  const auto billed = db->SettleStorageRequests();
  // Dollar conservation: the billing layer charged exactly the requests
  // the store served — GETs from scans (and any compactions), PUTs from
  // flushes.
  EXPECT_EQ(billed.gets, db->storage_store()->get_requests());
  EXPECT_EQ(billed.puts, db->storage_store()->put_requests());
  const auto breakdown = db->billing_snapshot().Breakdown();
  ASSERT_TRUE(breakdown.count("storage:get"));
  ASSERT_TRUE(breakdown.count("storage:put"));
  EXPECT_NEAR(breakdown.at("storage:get") + breakdown.at("storage:put"),
              billed.dollars, 1e-12);

  // Settling twice without new traffic charges nothing more.
  const auto again = db->SettleStorageRequests();
  EXPECT_EQ(again.gets, billed.gets);
  EXPECT_NEAR(again.dollars, billed.dollars, 1e-12);

  // The tenant-side attribution saw the same GET fees per cold read.
  Dollars per_get = PricingCatalog::Default().per_1k_get_requests / 1000.0;
  EXPECT_NEAR(r->storage.miss_get_dollars,
              static_cast<double>(r->storage.misses) * per_get, 1e-12);
}

TEST(DatabaseStorageTest, ConcurrentSessionsScanBitIdenticalThroughSmallCache) {
  // Two sessions scan one persisted table at once through a cache that holds
  // a fraction of it, so their runs, ranged GETs, admissions and evictions
  // interleave; every result must match the RAM-resident one.
  auto db = MakePersistentSsbDb("db_concurrent", /*cache_bytes=*/16u << 10);
  const std::vector<std::string> queries = {
      FindQuery("Q1").sql,
      "SELECT lo_shipmode, count(*) AS n, sum(lo_revenue) AS rev "
      "FROM lineorder WHERE lo_quantity < 10 OR lo_discount = 2 "
      "GROUP BY lo_shipmode ORDER BY rev DESC",
      FindQuery("Q10").sql,
  };
  std::vector<std::string> ram;
  for (const auto& sql : queries) {
    auto r = db->ExecuteSql(sql, UserConstraint());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ram.push_back(SortedLines(r->result));
  }
  ASSERT_TRUE(db->PersistTable("lineorder").ok());

  constexpr size_t kClients = 2, kRounds = 3;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Session session(db.get());
      for (size_t i = 0; i < kRounds * queries.size(); ++i) {
        auto r = session.ExecuteSql(queries[(i + c) % queries.size()],
                                    UserConstraint());
        got[c].push_back(r.ok() ? SortedLines(r->result)
                                : "failed: " + r.status().ToString());
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), kRounds * queries.size());
    for (size_t i = 0; i < got[c].size(); ++i) {
      EXPECT_EQ(got[c][i], ram[(i + c) % queries.size()])
          << "client " << c << " query " << i;
    }
  }
  const BlockCacheStats totals = db->block_cache()->totals();
  EXPECT_GT(totals.misses, 0);
  EXPECT_GT(totals.evictions, 0);
}

TEST(DatabaseStorageTest, CompactionInvalidatesResultCache) {
  auto db = MakePersistentSsbDb("db_resultcache", 8u << 20,
                                /*result_cache=*/true);
  ASSERT_TRUE(db->PersistTable("lineorder").ok());

  Session session(db.get());
  const std::string sql = FindQuery("Q2").sql;
  auto first = session.ExecuteSql(sql, UserConstraint());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->result_cache_hit);
  auto second = session.ExecuteSql(sql, UserConstraint());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cache_hit);

  // A forced merge rewrites the physical layout; layout_version bumps and
  // the cached rows must not be served again.
  auto merged = db->CompactTable("lineorder", /*force=*/true);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_TRUE(*merged);

  auto third = session.ExecuteSql(sql, UserConstraint());
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->result_cache_hit);
  EXPECT_EQ(SortedLines(third->result), SortedLines(first->result));
}

TEST(DatabaseStorageTest, CatalogReportsBlockManifest) {
  auto db = MakePersistentSsbDb("db_manifest", 8u << 20);
  ASSERT_TRUE(db->PersistTable("lineorder").ok());

  auto manifest = db->meta()->GetBlockManifest("lineorder");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_GT(manifest->blocks, 0u);
  EXPECT_GE(manifest->flushes, 1u);
  auto lineorder = db->meta()->GetTable("lineorder");
  ASSERT_TRUE(lineorder.ok());
  EXPECT_EQ(manifest->rows, (*lineorder)->num_rows());

  // RAM-resident and unknown tables are typed errors, not crashes.
  EXPECT_TRUE(
      db->meta()->GetBlockManifest("dates").status().IsInvalidArgument());
  EXPECT_TRUE(db->meta()->GetBlockManifest("nope").status().IsNotFound());
}

TEST(DatabaseStorageTest, PersistTableGuards) {
  {
    Database db;  // persistence off by default
    EXPECT_TRUE(db.PersistTable("anything").IsNotSupported());
    EXPECT_EQ(db.storage_store(), nullptr);
  }
  auto db = MakePersistentSsbDb("db_guards", 8u << 20);
  EXPECT_TRUE(db->PersistTable("nope").IsNotFound());
  ASSERT_TRUE(db->PersistTable("lineorder").ok());
  EXPECT_TRUE(db->PersistTable("lineorder").IsAlreadyExists());
  EXPECT_TRUE(db->CompactTable("dates").status().IsInvalidArgument());
}

TEST(DatabaseStorageTest, MixedProjectionColdScansBitIdenticalAcrossTiers) {
  // A cache that holds only part of the table's columns: queries with
  // overlapping projections share, evict and re-fetch each other's
  // entries, so pins mix cached and missing columns within one block.
  auto db = MakePersistentSsbDb("db_projections", /*cache_bytes=*/16u << 10);
  const std::string disjunctive =
      "SELECT count(*) AS n, sum(lo_quantity) AS q, max(lo_revenue) AS top "
      "FROM lineorder WHERE lo_quantity < 10 OR lo_discount = 2";
  const std::vector<std::pair<std::string, UserConstraint>> runs = {
      {FindQuery("Q1").sql, UserConstraint()},                // fused
      {disjunctive, UserConstraint()},                        // vectorized
      {FindQuery("Q2").sql, UserConstraint().WithWorkers(2)},  // sharded
      {FindQuery("Q10").sql, UserConstraint()},
      {FindQuery("Q3").sql, UserConstraint()},
  };
  std::vector<std::string> ram;
  for (const auto& [sql, constraint] : runs) {
    auto r = db->ExecuteSql(sql, constraint);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ram.push_back(SortedLines(r->result));
  }

  ASSERT_TRUE(db->PersistTable("lineorder").ok());
  // Two rounds, the second in reverse, so each query meets the cache state
  // the others left behind.
  for (int round = 0; round < 2; ++round) {
    for (size_t k = 0; k < runs.size(); ++k) {
      const size_t i = round == 0 ? k : runs.size() - 1 - k;
      auto cold = db->ExecuteSql(runs[i].first, runs[i].second);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      EXPECT_EQ(SortedLines(cold->result), ram[i]) << runs[i].first;
    }
  }
  const BlockCacheStats totals = db->block_cache()->totals();
  EXPECT_GT(totals.misses, 0);
  EXPECT_GT(totals.bytes_hit, 0.0);
  EXPECT_GT(totals.evictions, 0);

  // Row-at-a-time oracle for the vectorized query over a cold full scan.
  auto lineorder = db->meta()->GetTable("lineorder");
  ASSERT_TRUE(lineorder.ok());
  auto all = (*lineorder)->ScanPinned();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  const ColumnVector& quantity =
      all->column((*lineorder)->ColumnIndex("lo_quantity").value());
  const ColumnVector& discount =
      all->column((*lineorder)->ColumnIndex("lo_discount").value());
  const ColumnVector& revenue =
      all->column((*lineorder)->ColumnIndex("lo_revenue").value());
  int64_t n = 0, q = 0;
  double top = 0.0;
  for (size_t r = 0; r < all->num_rows(); ++r) {
    if (quantity.GetInt(r) >= 10 && discount.GetInt(r) != 2) continue;
    top = n == 0 ? revenue.GetDouble(r) : std::max(top, revenue.GetDouble(r));
    ++n;
    q += quantity.GetInt(r);
  }
  auto vectorized = db->ExecuteSql(disjunctive, UserConstraint());
  ASSERT_TRUE(vectorized.ok());
  ASSERT_GT(n, 0);
  const DataChunk& row = vectorized->result.chunk;
  EXPECT_TRUE(row.column(0).GetValue(0) == Value(n));
  EXPECT_TRUE(row.column(1).GetValue(0) == Value(q));
  EXPECT_TRUE(row.column(2).GetValue(0) == Value(top));
}

}  // namespace
}  // namespace costdb
