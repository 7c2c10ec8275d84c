#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "cloud/object_store.h"
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
  // Block format v2 stores these values on disk: changing the function is
  // a format change.
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
    std::vector<LogicalType> types;
    for (const auto& c : table.columns()) types.push_back(c.type);
    StoragePricing price;
    price.get_dollars = pricing.per_1k_get_requests / 1000.0;
    price.put_dollars = pricing.per_1k_put_requests / 1000.0;
    price.node_dollars_per_second =
        pricing.default_node().price_per_second();
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
  // from its own GET, so each subset exercises the projected decode.
  PersistentFixture fx("projections", /*cache_bytes=*/1);
  auto table = std::make_shared<Table>("t", AllTypeColumns(),
                                       /*row_group_size=*/64);
  table->Append(AllTypesChunk(150));
  ASSERT_TRUE(table->AttachStorage(fx.MakeStorage(*table)).ok());
  const size_t ncols = table->columns().size();
  ASSERT_EQ(table->row_groups().size(), 3u);
  for (size_t g = 0; g < table->row_groups().size(); ++g) {
    auto full = table->PinRowGroup(g, Iota(ncols));
    ASSERT_TRUE(full.ok()) << full.status().ToString();
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
