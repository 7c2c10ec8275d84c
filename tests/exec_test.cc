#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <thread>

#include "chunk_testing.h"
#include "cloud/object_store.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "exec/evaluator.h"
#include "exec/hash_table.h"
#include "optimizer/optimizer.h"
#include "storage/cache.h"
#include "storage/persistent.h"

namespace costdb {
namespace {

/// Fixture: two small tables with hand-checkable contents.
///
/// orders: id 0..9, cid = id % 3, amount = 10*id, odate = 1995-01-01 + id
/// customer: id 0..2, name in {alice, bob, carol}, tier = id
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto orders = std::make_shared<Table>(
        "orders", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                         {"cid", LogicalType::kInt64},
                                         {"amount", LogicalType::kDouble},
                                         {"odate", LogicalType::kDate}},
        4);  // tiny row groups to exercise morsels + zone maps
    int64_t base_date = 0;
    EXPECT_TRUE(ParseDate("1995-01-01", &base_date));
    DataChunk oc({LogicalType::kInt64, LogicalType::kInt64,
                  LogicalType::kDouble, LogicalType::kDate});
    for (int64_t i = 0; i < 10; ++i) {
      oc.AppendRow({Value(i), Value(i % 3), Value(10.0 * i),
                    Value(base_date + i)});
    }
    orders->Append(oc);

    auto customer = std::make_shared<Table>(
        "customer", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                           {"name", LogicalType::kVarchar},
                                           {"tier", LogicalType::kInt64}});
    DataChunk cc({LogicalType::kInt64, LogicalType::kVarchar,
                  LogicalType::kInt64});
    cc.AppendRow({Value(int64_t{0}), Value(std::string("alice")), Value(int64_t{0})});
    cc.AppendRow({Value(int64_t{1}), Value(std::string("bob")), Value(int64_t{1})});
    cc.AppendRow({Value(int64_t{2}), Value(std::string("carol")), Value(int64_t{2})});
    customer->Append(cc);

    meta_.RegisterTable(orders);
    meta_.RegisterTable(customer);
    meta_.AnalyzeAll();
  }

  QueryResult Run(const std::string& sql, size_t threads = 4) {
    Optimizer opt(&meta_);
    auto plan = opt.OptimizeSql(sql);
    EXPECT_TRUE(plan.ok()) << sql << " -> " << plan.status().ToString();
    LocalEngine engine(threads);
    auto result = engine.Execute(plan->get());
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  MetadataService meta_;
};

TEST_F(ExecTest, ScanAll) {
  auto r = Run("SELECT id FROM orders");
  EXPECT_EQ(r.chunk.num_rows(), 10u);
}

TEST_F(ExecTest, FilterInt) {
  auto r = Run("SELECT id FROM orders WHERE id >= 7");
  ASSERT_EQ(r.chunk.num_rows(), 3u);
}

TEST_F(ExecTest, FilterDoubleAndArithmetic) {
  auto r = Run("SELECT amount * 2 AS dbl FROM orders WHERE amount > 75.0");
  // amounts 80, 90 -> doubled 160, 180
  ASSERT_EQ(r.chunk.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(r.chunk.column(0).GetDouble(0) +
                       r.chunk.column(0).GetDouble(1),
                   340.0);
}

TEST_F(ExecTest, FilterDate) {
  auto r = Run(
      "SELECT id FROM orders WHERE odate BETWEEN DATE '1995-01-03' AND "
      "DATE '1995-01-05'");
  EXPECT_EQ(r.chunk.num_rows(), 3u);  // ids 2,3,4
}

TEST_F(ExecTest, FilterString) {
  auto r = Run("SELECT id FROM customer WHERE name = 'bob'");
  ASSERT_EQ(r.chunk.num_rows(), 1u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 1);
}

TEST_F(ExecTest, LikePattern) {
  auto r = Run("SELECT name FROM customer WHERE name LIKE '%o%'");
  EXPECT_EQ(r.chunk.num_rows(), 2u);  // bob, carol
}

TEST_F(ExecTest, InList) {
  auto r = Run("SELECT id FROM orders WHERE id IN (1, 5, 9, 100)");
  EXPECT_EQ(r.chunk.num_rows(), 3u);
}

TEST_F(ExecTest, GlobalAggregates) {
  auto r = Run(
      "SELECT count(*), sum(amount), min(id), max(id), avg(amount) "
      "FROM orders");
  ASSERT_EQ(r.chunk.num_rows(), 1u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 10);
  EXPECT_DOUBLE_EQ(r.chunk.column(1).GetDouble(0), 450.0);
  EXPECT_EQ(r.chunk.column(2).GetInt(0), 0);
  EXPECT_EQ(r.chunk.column(3).GetInt(0), 9);
  EXPECT_DOUBLE_EQ(r.chunk.column(4).GetDouble(0), 45.0);
}

TEST_F(ExecTest, GlobalAggregateOnEmptyInput) {
  auto r = Run("SELECT count(*) FROM orders WHERE id > 1000");
  ASSERT_EQ(r.chunk.num_rows(), 1u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 0);
}

TEST_F(ExecTest, GroupByWithHavingAndOrder) {
  // cid 0: ids 0,3,6,9 -> sum 180 ; cid 1: 1,4,7 -> 120 ; cid 2: 2,5,8 -> 150
  auto r = Run(
      "SELECT cid, sum(amount) AS total FROM orders GROUP BY cid "
      "HAVING sum(amount) > 130 ORDER BY total DESC");
  ASSERT_EQ(r.chunk.num_rows(), 2u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 0);
  EXPECT_DOUBLE_EQ(r.chunk.column(1).GetDouble(0), 180.0);
  EXPECT_EQ(r.chunk.column(0).GetInt(1), 2);
}

TEST_F(ExecTest, JoinTwoWay) {
  auto r = Run(
      "SELECT o.id, c.name FROM orders o JOIN customer c ON o.cid = c.id "
      "WHERE c.name = 'bob' ORDER BY o.id");
  // cid=1 -> ids 1,4,7
  ASSERT_EQ(r.chunk.num_rows(), 3u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 1);
  EXPECT_EQ(r.chunk.column(0).GetInt(2), 7);
  EXPECT_EQ(r.chunk.column(1).GetString(1), "bob");
}

TEST_F(ExecTest, JoinWithAggregation) {
  auto r = Run(
      "SELECT c.name, sum(o.amount) AS total FROM orders o, customer c "
      "WHERE o.cid = c.id GROUP BY c.name ORDER BY total");
  ASSERT_EQ(r.chunk.num_rows(), 3u);
  EXPECT_EQ(r.chunk.column(0).GetString(0), "bob");      // 120
  EXPECT_EQ(r.chunk.column(0).GetString(1), "carol");    // 150
  EXPECT_EQ(r.chunk.column(0).GetString(2), "alice");    // 180
  EXPECT_DOUBLE_EQ(r.chunk.column(1).GetDouble(2), 180.0);
}

TEST_F(ExecTest, OrderByLimit) {
  auto r = Run("SELECT id FROM orders ORDER BY id DESC LIMIT 4");
  ASSERT_EQ(r.chunk.num_rows(), 4u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 9);
  EXPECT_EQ(r.chunk.column(0).GetInt(3), 6);
}

TEST_F(ExecTest, OrderByUnselectedColumn) {
  auto r = Run("SELECT amount FROM orders ORDER BY id DESC LIMIT 2");
  ASSERT_EQ(r.chunk.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(r.chunk.column(0).GetDouble(0), 90.0);
}

TEST_F(ExecTest, EmptyJoinResult) {
  auto r = Run(
      "SELECT o.id FROM orders o JOIN customer c ON o.cid = c.id "
      "WHERE c.name = 'nobody'");
  EXPECT_EQ(r.chunk.num_rows(), 0u);
}

TEST_F(ExecTest, DeterministicAcrossThreadCounts) {
  const std::string sql =
      "SELECT cid, count(*) AS n FROM orders GROUP BY cid ORDER BY cid";
  auto r1 = Run(sql, 1);
  auto r8 = Run(sql, 8);
  ASSERT_EQ(r1.chunk.num_rows(), r8.chunk.num_rows());
  for (size_t i = 0; i < r1.chunk.num_rows(); ++i) {
    EXPECT_EQ(r1.chunk.column(0).GetInt(i), r8.chunk.column(0).GetInt(i));
    EXPECT_EQ(r1.chunk.column(1).GetInt(i), r8.chunk.column(1).GetInt(i));
  }
}

TEST_F(ExecTest, ZoneMapPruningPreservesCorrectness) {
  // orders is appended in id order with row groups of 4, so id predicates
  // prune groups; the result must match the unpruned logical answer.
  auto r = Run("SELECT count(*) FROM orders WHERE id < 4");
  ASSERT_EQ(r.chunk.num_rows(), 1u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 4);
}

TEST_F(ExecTest, ThreeWayJoinChain) {
  // Self-style chain through customer: orders->customer->customer tier.
  auto r = Run(
      "SELECT count(*) FROM orders o, customer c, customer d "
      "WHERE o.cid = c.id AND c.tier = d.tier");
  ASSERT_EQ(r.chunk.num_rows(), 1u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 10);  // tiers unique -> 1:1
}

TEST_F(ExecTest, SharedEngineIsReentrant) {
  // Many morsels per scan, so concurrent calls interleave inside
  // pipelines, not just between them.
  auto big = std::make_shared<Table>(
      "big", std::vector<ColumnDef>{{"k", LogicalType::kInt64},
                                    {"g", LogicalType::kInt64},
                                    {"v", LogicalType::kDouble}},
      256);
  DataChunk bc({LogicalType::kInt64, LogicalType::kInt64,
                LogicalType::kDouble});
  for (int64_t i = 0; i < 20000; ++i) {
    bc.AppendRow({Value(i), Value(i % 37), Value(0.5 * (i % 101))});
  }
  big->Append(bc);
  meta_.RegisterTable(big);
  meta_.AnalyzeAll();

  const std::vector<std::string> queries = {
      "SELECT k FROM big WHERE k < 3000",
      "SELECT g, count(*) AS n, sum(k) AS s, min(v) AS lo FROM big "
      "GROUP BY g",
      "SELECT count(*), sum(k), max(v) FROM big WHERE v > 20.0",
      "SELECT b.k, c.name FROM big b JOIN customer c ON b.g = c.id "
      "WHERE b.k < 5000",
      "SELECT g, sum(v) AS s FROM big WHERE k >= 7000 GROUP BY g "
      "ORDER BY s DESC LIMIT 5",
      "SELECT k, v FROM big WHERE g = 3 ORDER BY k DESC LIMIT 40",
      "SELECT o.id, c.name FROM orders o JOIN customer c ON o.cid = c.id "
      "ORDER BY o.id",
      "SELECT cid, count(*) AS n FROM orders GROUP BY cid",
  };
  Optimizer opt(&meta_);
  LocalEngine engine(4);
  std::vector<PhysicalPlanPtr> plans;
  std::vector<QueryResult> expected;
  std::vector<std::string> expected_counters;
  for (const auto& sql : queries) {
    auto plan = opt.OptimizeSql(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    ExecProfile profile;
    auto serial = engine.Execute(plan->get(), &profile);
    ASSERT_TRUE(serial.ok()) << sql << ": " << serial.status().ToString();
    EXPECT_EQ(profile.timings.size(),
              BuildPipelines(plan->get()).pipelines.size());
    plans.push_back(*plan);
    expected.push_back(std::move(*serial));
    expected_counters.push_back(ProfileCounters(profile));
  }

  // Eight threads, one engine, different plans at once. Every call must
  // reproduce its serial run exactly.
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 12; ++round) {
        const size_t q = (t + round) % plans.size();
        ExecProfile profile;
        auto r = engine.Execute(plans[q].get(), &profile);
        ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
        std::string why;
        EXPECT_TRUE(ChunksBitIdentical(expected[q].chunk, r->chunk, &why))
            << queries[q] << " (thread " << t << "): " << why;
        EXPECT_EQ(ProfileCounters(profile), expected_counters[q])
            << queries[q] << " (thread " << t << ")";
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST_F(ExecTest, PersistedScanDispatchesOneRunPerColdObject) {
  auto big = std::make_shared<Table>(
      "big", std::vector<ColumnDef>{{"k", LogicalType::kInt64},
                                    {"g", LogicalType::kInt64},
                                    {"v", LogicalType::kDouble}},
      256);
  DataChunk bc({LogicalType::kInt64, LogicalType::kInt64,
                LogicalType::kDouble});
  for (int64_t i = 0; i < 20000; ++i) {
    bc.AppendRow({Value(i), Value(i % 37), Value(0.5 * (i % 101))});
  }
  big->Append(bc);
  meta_.RegisterTable(big);
  meta_.AnalyzeAll();
  const std::string sql =
      "SELECT g, count(*) AS n, sum(k) AS s FROM big GROUP BY g";
  Optimizer opt(&meta_);
  auto plan = opt.OptimizeSql(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  LocalEngine engine(4);
  auto ram = engine.Execute(plan->get());
  ASSERT_TRUE(ram.ok()) << ram.status().ToString();

  // Objects of about 150 KB: the GET fee is the whole fixed cost and a
  // byte costs 1/GiB dollars, so PricedObjectBytes is 150e3.
  PricingCatalog pricing = PricingCatalog::Default();
  SimulatedObjectStore store(&pricing);
  const auto spill =
      std::filesystem::temp_directory_path() / "costdb_test_exec_runs";
  std::filesystem::remove_all(spill);
  ASSERT_TRUE(store.EnableSpill(spill.string()).ok());
  BlockCache cache(16u << 20);
  StoragePricing price;
  price.read_gibps = 1.0;
  price.get_seconds = 0.0;
  price.node_dollars_per_second = 1.0;
  price.get_dollars = 150e3 / kGiB;
  ASSERT_TRUE(big->AttachStorage(std::make_shared<TableStorage>(
                                     "big",
                                     std::vector<LogicalType>{
                                         LogicalType::kInt64,
                                         LogicalType::kInt64,
                                         LogicalType::kDouble},
                                     256, &store, &cache, StorageOptions(),
                                     [price] { return price; }))
                  .ok());
  const BlockManifestSummary summary = big->storage()->Summary();
  ASSERT_GT(summary.objects, 1u);
  ASSERT_LT(summary.objects, summary.blocks);

  // Cold: one run and one GET per object.
  ExecProfile cold;
  auto first = engine.Execute(plan->get(), &cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(cold.scan.cold_runs, summary.objects);
  EXPECT_EQ(cold.storage.misses, static_cast<int64_t>(summary.objects));
  EXPECT_EQ(store.get_requests(), static_cast<int64_t>(summary.objects));
  std::string why;
  EXPECT_TRUE(ChunksBitIdentical(ram->chunk, first->chunk, &why)) << why;

  // Fully cached: every morsel its own unit, no run, no GET.
  ExecProfile warm;
  auto second = engine.Execute(plan->get(), &warm);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(warm.scan.cold_runs, 0u);
  EXPECT_EQ(warm.storage.misses, 0);
  EXPECT_EQ(warm.storage.hits, static_cast<int64_t>(summary.blocks));
  EXPECT_EQ(store.get_requests(), static_cast<int64_t>(summary.objects));
  EXPECT_TRUE(ChunksBitIdentical(ram->chunk, second->chunk, &why)) << why;
}

TEST(LikeMatchTest, Patterns) {
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%llo"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_FALSE(LikeMatch("hello", "h_abc"));
  EXPECT_FALSE(LikeMatch("hello", "hello!"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "abc"));
}

TEST(EvaluatorTest, ArithmeticAndLogic) {
  DataChunk chunk({LogicalType::kInt64, LogicalType::kDouble});
  chunk.AppendRow({Value(int64_t{4}), Value(2.0)});
  chunk.AppendRow({Value(int64_t{6}), Value(3.0)});
  std::vector<std::string> names = {"a", "b"};
  Evaluator ev(&names);

  auto sum = Expr::MakeArith('+', Expr::MakeColumn("a", LogicalType::kInt64),
                             Expr::MakeColumn("b", LogicalType::kDouble));
  auto v = ev.Evaluate(*sum, chunk);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->GetDouble(0), 6.0);
  EXPECT_DOUBLE_EQ(v->GetDouble(1), 9.0);

  auto div = Expr::MakeArith('/', Expr::MakeColumn("a", LogicalType::kInt64),
                             Expr::MakeColumn("b", LogicalType::kDouble));
  v = ev.Evaluate(*div, chunk);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->GetDouble(1), 2.0);

  auto cmp = Expr::MakeCompare(CompareOp::kGt,
                               Expr::MakeColumn("a", LogicalType::kInt64),
                               Expr::MakeConstant(Value(int64_t{5}),
                                                  LogicalType::kInt64));
  auto sel = ev.EvaluateSelection(*cmp, chunk);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->size(), 1u);
  EXPECT_EQ((*sel)[0], 1u);
}

// ------------------------------------------------- hash table oracles
//
// The engine's joins and GROUP BYs run on one flat hash table
// (exec/hash_table.h). These tests run hand-built plans over seeded data
// and compare every output row, bit for bit and in order, with a direct
// oracle: a nested loop for joins and a std::map fold keyed by
// EncodeRowKeyInto for GROUP BY.

/// Bit-exact chunk equality: same types, NULLs in the same cells, and
/// identical payload bits elsewhere (-0.0 differs from 0.0, a NaN equals
/// only the same NaN).
bool SameBits(const DataChunk& a, const DataChunk& b, std::string* why) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    *why = "shape " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_rows()) + "x" +
           std::to_string(b.num_columns());
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const ColumnVector& x = a.column(c);
    const ColumnVector& y = b.column(c);
    if (x.physical_type() != y.physical_type()) {
      *why = "column " + std::to_string(c) + " type";
      return false;
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      bool same = x.IsNull(r) == y.IsNull(r);
      if (same && !x.IsNull(r)) {
        switch (x.physical_type()) {
          case PhysicalType::kInt64:
            same = x.GetInt(r) == y.GetInt(r);
            break;
          case PhysicalType::kDouble: {
            const double dx = x.GetDouble(r);
            const double dy = y.GetDouble(r);
            same = std::memcmp(&dx, &dy, sizeof(dx)) == 0;
            break;
          }
          case PhysicalType::kString:
            same = x.GetString(r) == y.GetString(r);
            break;
        }
      }
      if (!same) {
        *why = "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + x.GetValue(r).ToString() + " vs " +
               y.GetValue(r).ToString();
        return false;
      }
    }
  }
  return true;
}

PhysicalPlanPtr ScanNode(const std::shared_ptr<Table>& table,
                         const std::string& alias) {
  auto p = std::make_shared<PhysicalPlan>();
  p->kind = PhysicalPlan::Kind::kTableScan;
  p->table = table;
  p->alias = alias;
  for (size_t c = 0; c < table->columns().size(); ++c) {
    p->scan_column_indices.push_back(c);
    p->output_names.push_back(alias + "." + table->columns()[c].name);
    p->output_types.push_back(table->columns()[c].type);
  }
  return p;
}

ExprPtr ColumnOf(const PhysicalPlan& node, const std::string& name) {
  const size_t i = node.FindColumn(name);
  EXPECT_NE(i, static_cast<size_t>(-1)) << name;
  return Expr::MakeColumn(name, node.output_types[i]);
}

/// probe ⋈ build on pairwise equal key columns (none: a cross join).
PhysicalPlanPtr JoinNode(PhysicalPlanPtr probe, PhysicalPlanPtr build,
                         const std::vector<std::string>& probe_keys,
                         const std::vector<std::string>& build_keys) {
  auto p = std::make_shared<PhysicalPlan>();
  p->kind = PhysicalPlan::Kind::kHashJoin;
  for (const auto& k : probe_keys) p->probe_keys.push_back(ColumnOf(*probe, k));
  for (const auto& k : build_keys) p->build_keys.push_back(ColumnOf(*build, k));
  p->output_names = probe->output_names;
  p->output_types = probe->output_types;
  p->output_names.insert(p->output_names.end(), build->output_names.begin(),
                         build->output_names.end());
  p->output_types.insert(p->output_types.end(), build->output_types.begin(),
                         build->output_types.end());
  p->children = {std::move(probe), std::move(build)};
  return p;
}

std::vector<LogicalType> TypesOf(const Table& table) {
  std::vector<LogicalType> types;
  for (const ColumnDef& c : table.columns()) types.push_back(c.type);
  return types;
}

/// Rows of `table` in scan order.
DataChunk TableRows(const Table& table) {
  DataChunk all(TypesOf(table));
  for (const RowGroup& g : table.row_groups()) all.Append(g.data);
  return all;
}

/// Nested-loop join oracle: probe rows in order, each probe row's matches
/// in descending build-row order. Keys match as the engine's join defines
/// it: NULL matches nothing, otherwise Value equality (two int64s exactly,
/// a double on either side numerically, strings bytewise).
DataChunk NestedLoopJoin(const Table& probe, const Table& build,
                         const std::vector<size_t>& probe_keys,
                         const std::vector<size_t>& build_keys) {
  const DataChunk p = TableRows(probe);
  const DataChunk b = TableRows(build);
  std::vector<LogicalType> types = TypesOf(probe);
  for (LogicalType t : TypesOf(build)) types.push_back(t);
  DataChunk out(types);
  for (size_t pr = 0; pr < p.num_rows(); ++pr) {
    for (size_t i = b.num_rows(); i-- > 0;) {
      bool match = true;
      for (size_t k = 0; k < probe_keys.size() && match; ++k) {
        const Value x = p.column(probe_keys[k]).GetValue(pr);
        const Value y = b.column(build_keys[k]).GetValue(i);
        match = !x.is_null() && !y.is_null() && x == y;
      }
      if (!match) continue;
      for (size_t c = 0; c < p.num_columns(); ++c) {
        out.column(c).AppendFrom(p.column(c), pr);
      }
      for (size_t c = 0; c < b.num_columns(); ++c) {
        out.column(p.num_columns() + c).AppendFrom(b.column(c), i);
      }
    }
  }
  return out;
}

/// A seeded join-key table: `rows` rows over a small key domain, so keys
/// repeat in chains of 1 to 50 rows, with NULLs, NaN, -0.0 and 0.0, and
/// int64 keys 2^53 and 2^53 + 1, which are equal as doubles.
std::shared_ptr<Table> JoinKeyTable(const std::string& name, uint64_t seed,
                                    size_t rows) {
  const std::vector<LogicalType> types = {
      LogicalType::kInt64, LogicalType::kDouble, LogicalType::kVarchar,
      LogicalType::kInt64};
  auto table = std::make_shared<Table>(
      name,
      std::vector<ColumnDef>{{"ki", types[0]},
                             {"kd", types[1]},
                             {"ks", types[2]},
                             {"id", types[3]}},
      64);
  Rng rng(seed);
  DataChunk chunk(types);
  const int64_t big = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  size_t r = 0;
  while (r < rows) {
    // One key drawn per run, repeated 1..50 times (runs of one key may
    // recur later, lengthening its chain further).
    const int64_t run = rng.UniformInt(1, 50);
    const int64_t ki = rng.UniformInt(0, 9) == 0 ? big + rng.UniformInt(0, 1)
                                                 : rng.UniformInt(-3, 12);
    // Mostly correlated keys, so that multi-key joins match too.
    double kd = static_cast<double>(ki);
    switch (rng.UniformInt(0, 9)) {
      case 0:
        kd = nan;
        break;
      case 1:
        kd = -0.0;
        break;
      case 2:
        kd = 0.0;
        break;
      case 3:
        kd = static_cast<double>(big);
        break;
      default:
        break;
    }
    const int64_t letter =
        rng.UniformInt(0, 3) == 0 ? rng.UniformInt(0, 5) : (ki & 3);
    const std::string ks(1, static_cast<char>('a' + letter));
    for (int64_t i = 0; i < run && r < rows; ++i, ++r) {
      auto sparse = [&](Value v) {
        return rng.UniformInt(0, 11) == 0 ? Value::Null() : v;
      };
      chunk.AppendRow({sparse(Value(ki)), sparse(Value(kd)),
                       sparse(Value(ks)), Value(static_cast<int64_t>(r))});
    }
  }
  table->Append(chunk);
  return table;
}

TEST(HashTableOracleTest, JoinsMatchANestedLoop) {
  auto build = JoinKeyTable("b", 0xB01D, 700);
  auto probe = JoinKeyTable("p", 0x9A0B, 500);
  auto empty = std::make_shared<Table>("e", build->columns(), 64);
  auto tiny = JoinKeyTable("t", 0x7111, 7);
  struct Case {
    const char* what;
    std::shared_ptr<Table> build;
    std::vector<size_t> probe_keys;
    std::vector<size_t> build_keys;
  };
  const std::vector<std::string> cols = {"ki", "kd", "ks", "id"};
  const std::vector<Case> cases = {
      {"int64 key", build, {0}, {0}},
      {"int64 ⋈ double", build, {0}, {1}},
      {"double ⋈ int64", build, {1}, {0}},
      {"double key (NaN, -0.0)", build, {1}, {1}},
      {"string key", build, {2}, {2}},
      {"int64 + string keys", build, {0, 2}, {0, 2}},
      {"three keys", build, {2, 1, 0}, {2, 1, 0}},
      {"empty build side", empty, {0}, {0}},
      {"cross join", tiny, {}, {}},
  };
  for (const Case& c : cases) {
    std::vector<std::string> probe_names, build_names;
    for (size_t k : c.probe_keys) probe_names.push_back("p." + cols[k]);
    for (size_t k : c.build_keys) build_names.push_back("b." + cols[k]);
    PhysicalPlanPtr plan = JoinNode(ScanNode(probe, "p"),
                                    ScanNode(c.build, "b"), probe_names,
                                    build_names);
    const DataChunk expected =
        NestedLoopJoin(*probe, *c.build, c.probe_keys, c.build_keys);
    if (std::string(c.what) != "empty build side") {
      EXPECT_GT(expected.num_rows(), 0u) << c.what;
    }
    for (size_t threads : {1, 2, 8}) {
      LocalEngine engine(threads);
      auto r = engine.Execute(plan.get());
      ASSERT_TRUE(r.ok()) << c.what << ": " << r.status().ToString();
      std::string why;
      EXPECT_TRUE(SameBits(expected, r->chunk, &why))
          << c.what << " at " << threads << " threads: " << why;
    }
  }
}

/// The reference GROUP BY: each morsel (row group) folds into a map keyed
/// by EncodeRowKeyInto with boxed states, the partials merge in morsel
/// order (the first holding a group seeds it), and groups come out in key
/// order.
struct OracleState {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  Value min;
  Value max;
  bool has_value = false;
};
struct OracleGroup {
  std::vector<Value> keys;
  std::vector<OracleState> aggs;
};

DataChunk MapGroupBy(const Table& table, const std::vector<size_t>& keys,
                     const std::vector<std::pair<AggFunc, int>>& aggs,
                     const PhysicalPlan& sink) {
  std::map<std::string, OracleGroup> merged;
  for (const RowGroup& group : table.row_groups()) {
    const DataChunk& data = group.data;
    std::vector<ColumnVector> key_cols;
    for (size_t k : keys) key_cols.push_back(data.column(k));
    std::map<std::string, OracleGroup> partial;
    std::string key;
    for (size_t r = 0; r < data.num_rows(); ++r) {
      EncodeRowKeyInto(key_cols, r, &key);
      auto [it, inserted] = partial.try_emplace(key);
      OracleGroup& g = it->second;
      if (inserted) {
        for (const auto& kc : key_cols) g.keys.push_back(kc.GetValue(r));
        g.aggs.resize(aggs.size());
      }
      for (size_t a = 0; a < aggs.size(); ++a) {
        OracleState& st = g.aggs[a];
        if (aggs[a].first == AggFunc::kCountStar) {
          ++st.count;
          continue;
        }
        const Value v = data.column(static_cast<size_t>(aggs[a].second))
                            .GetValue(r);
        if (v.is_null()) continue;
        ++st.count;
        if (v.is_int()) st.isum += v.AsInt();
        if (!v.is_string()) st.dsum += v.AsDouble();
        if (!st.has_value) {
          st.min = v;
          st.max = v;
          st.has_value = true;
        } else {
          if (v < st.min) st.min = v;
          if (st.max < v) st.max = v;
        }
      }
    }
    for (auto& [k, g] : partial) {
      auto [it, inserted] = merged.try_emplace(k, g);
      if (inserted) continue;
      for (size_t a = 0; a < aggs.size(); ++a) {
        OracleState& into = it->second.aggs[a];
        const OracleState& from = g.aggs[a];
        into.count += from.count;
        into.isum += from.isum;
        into.dsum += from.dsum;
        if (!from.has_value) continue;
        if (!into.has_value) {
          into.min = from.min;
          into.max = from.max;
          into.has_value = true;
          continue;
        }
        if (from.min < into.min) into.min = from.min;
        if (into.max < from.max) into.max = from.max;
      }
    }
  }
  DataChunk out(sink.output_types);
  for (const auto& [k, g] : merged) {
    std::vector<Value> row = g.keys;
    for (size_t a = 0; a < aggs.size(); ++a) {
      const OracleState& st = g.aggs[a];
      const Expr& agg = *sink.aggregates[a];
      switch (agg.agg) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          row.push_back(Value(st.count));
          break;
        case AggFunc::kSum:
          row.push_back(agg.type == LogicalType::kInt64 ? Value(st.isum)
                                                        : Value(st.dsum));
          break;
        case AggFunc::kAvg:
          row.push_back(Value(st.count == 0 ? 0.0
                                            : st.dsum / double(st.count)));
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          if (st.has_value) {
            row.push_back(agg.agg == AggFunc::kMin ? st.min : st.max);
          } else if (sink.agg_is_partial) {
            row.push_back(Value::Null());
          } else if (PhysicalTypeOf(agg.type) == PhysicalType::kString) {
            row.push_back(Value(std::string()));
          } else if (PhysicalTypeOf(agg.type) == PhysicalType::kDouble) {
            row.push_back(Value(0.0));
          } else {
            row.push_back(Value(int64_t{0}));
          }
          break;
      }
    }
    out.AppendRow(row);
  }
  return out;
}

TEST(HashTableOracleTest, GroupBysMatchAnOrderedMapFold) {
  // Group keys: g (int64 incl. 2^53 and 2^53 + 1), x (double incl. NaN,
  // -0.0, 0.0), s (string), all with NULLs; inputs: v (int64), w
  // (double, wide magnitudes so a changed fold order changes the bits).
  const std::vector<LogicalType> types = {
      LogicalType::kInt64, LogicalType::kDouble, LogicalType::kVarchar,
      LogicalType::kInt64, LogicalType::kDouble, LogicalType::kVarchar};
  auto table = std::make_shared<Table>(
      "t",
      std::vector<ColumnDef>{{"g", types[0]},
                             {"x", types[1]},
                             {"s", types[2]},
                             {"v", types[3]},
                             {"w", types[4]},
                             {"name", types[5]}},
      128);
  Rng rng(0x6B0B);
  const int64_t big = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  DataChunk chunk(types);
  for (int64_t r = 0; r < 3000; ++r) {
    auto sparse = [&](Value v, int one_in) {
      return rng.UniformInt(0, one_in - 1) == 0 ? Value::Null() : v;
    };
    const int64_t g = rng.UniformInt(0, 7) == 0 ? big + rng.UniformInt(0, 1)
                                                : rng.UniformInt(0, 40);
    double x = static_cast<double>(rng.UniformInt(0, 3));
    switch (rng.UniformInt(0, 5)) {
      case 0:
        x = nan;
        break;
      case 1:
        x = -0.0;
        break;
      default:
        break;
    }
    double w = rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.UniformInt(-8, 8));
    if (rng.UniformInt(0, 30) == 0) w = nan;
    if (rng.UniformInt(0, 30) == 0) w = -0.0;
    const std::string s(1, static_cast<char>('p' + rng.UniformInt(0, 2)));
    const std::string name(static_cast<size_t>(rng.UniformInt(0, 4)),
                           static_cast<char>('a' + rng.UniformInt(0, 9)));
    chunk.AppendRow({sparse(Value(g), 15), sparse(Value(x), 15),
                     sparse(Value(s), 15),
                     sparse(Value(rng.UniformInt(-1000000, 1000000) * 1000003),
                            6),
                     sparse(Value(w), 6), sparse(Value(name), 6)});
  }
  table->Append(chunk);

  const std::vector<std::string> cols = {"g", "x", "s", "v", "w", "name"};
  const std::vector<std::pair<AggFunc, int>> aggs = {
      {AggFunc::kCountStar, -1}, {AggFunc::kCount, 5}, {AggFunc::kSum, 3},
      {AggFunc::kSum, 4},        {AggFunc::kAvg, 3},   {AggFunc::kAvg, 4},
      {AggFunc::kMin, 3},        {AggFunc::kMax, 3},   {AggFunc::kMin, 4},
      {AggFunc::kMax, 4},        {AggFunc::kMin, 5},   {AggFunc::kMax, 5},
  };
  const std::vector<std::vector<size_t>> key_sets = {
      {0}, {1}, {2}, {0, 1, 2}, {2, 1}, {}};
  for (const auto& keys : key_sets) {
    for (bool partial : {false, true}) {
      PhysicalPlanPtr scan = ScanNode(table, "t");
      auto agg = std::make_shared<PhysicalPlan>();
      agg->kind = PhysicalPlan::Kind::kHashAggregate;
      agg->agg_is_partial = partial;
      for (size_t k : keys) {
        agg->group_by.push_back(ColumnOf(*scan, "t." + cols[k]));
        agg->output_names.push_back("t." + cols[k]);
        agg->output_types.push_back(types[k]);
      }
      for (size_t a = 0; a < aggs.size(); ++a) {
        ExprPtr arg = aggs[a].second < 0
                          ? nullptr
                          : ColumnOf(*scan, "t." + cols[aggs[a].second]);
        agg->aggregates.push_back(Expr::MakeAgg(aggs[a].first, arg));
        agg->agg_names.push_back("a" + std::to_string(a));
        agg->output_names.push_back("a" + std::to_string(a));
        agg->output_types.push_back(agg->aggregates.back()->type);
      }
      agg->children = {scan};
      const DataChunk expected = MapGroupBy(*table, keys, aggs, *agg);
      EXPECT_GT(expected.num_rows(), keys.empty() ? 0u : 3u);
      for (size_t threads : {1, 2, 8}) {
        LocalEngine engine(threads);
        auto r = engine.Execute(agg.get());
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        std::string why;
        EXPECT_TRUE(SameBits(expected, r->chunk, &why))
            << "keys " << keys.size() << (partial ? " partial" : "")
            << " at " << threads << " threads: " << why;
      }
    }
  }
}

TEST(HashTableTest, EqualityAloneDecidesUnderOneHash) {
  // Every row hashes alike, so each lookup walks one chain and only key
  // comparison tells rows apart. 2^53 and 2^53 + 1 are equal as doubles.
  const int64_t big = int64_t{1} << 53;
  const uint64_t hash = 0x5EED5EED5EED5EEDULL;
  ColumnVector build(LogicalType::kInt64);
  for (int64_t v : {big, big + 1, big, int64_t{7}}) build.AppendInt(v);
  build.AppendNull();
  JoinTable join;
  join.Build({build}, std::vector<uint64_t>(build.size(), hash));

  ColumnVector probe(LogicalType::kInt64);
  for (int64_t v : {big + 1, big, big + 2, int64_t{7}}) probe.AppendInt(v);
  probe.AppendNull();
  std::vector<uint32_t> probe_rows, build_rows;
  join.Probe({probe}, std::vector<uint64_t>(probe.size(), hash), &probe_rows,
             &build_rows);
  EXPECT_EQ(probe_rows, (std::vector<uint32_t>{0, 1, 1, 3}));
  EXPECT_EQ(build_rows, (std::vector<uint32_t>{1, 2, 0, 3}));

  // A double on either side compares as double: 2^53 as a double equals
  // both int64 keys.
  ColumnVector probe_double(LogicalType::kDouble);
  probe_double.AppendDouble(static_cast<double>(big));
  probe_rows.clear();
  build_rows.clear();
  join.Probe({probe_double}, {hash}, &probe_rows, &build_rows);
  EXPECT_EQ(build_rows, (std::vector<uint32_t>{2, 1, 0}));

  GroupTable groups;
  ColumnVector g(LogicalType::kInt64);
  for (int64_t v : {big, big + 1, big, big + 1}) g.AppendInt(v);
  g.AppendNull();
  g.AppendNull();
  std::vector<uint32_t> ids;
  for (size_t r = 0; r < g.size(); ++r) {
    ids.push_back(groups.FindOrAdd({g}, r, hash));
  }
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0, 1, 2, 2}));
  EXPECT_EQ(groups.keys()[0].GetInt(0), big);
  EXPECT_EQ(groups.keys()[0].GetInt(1), big + 1);

  // Doubles group bit for bit, except that -0.0 joins 0.0.
  GroupTable by_double;
  ColumnVector d(LogicalType::kDouble);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {-0.0, 0.0, nan, nan, -nan, 1.0}) d.AppendDouble(v);
  ids.clear();
  for (size_t r = 0; r < d.size(); ++r) {
    ids.push_back(by_double.FindOrAdd({d}, r, hash));
  }
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 0, 1, 1, 2, 3}));
  EXPECT_TRUE(std::signbit(by_double.keys()[0].GetDouble(0)));  // first row
}

TEST(HashTableTest, GroupTableGrowsPastItsFirstSlots) {
  GroupTable groups;
  ColumnVector k(LogicalType::kInt64);
  for (int64_t v = 0; v < 5000; ++v) k.AppendInt(v % 1000);
  std::vector<uint64_t> hashes;
  kernels::HashRows({k}, {false}, k.size(), &hashes);
  for (size_t r = 0; r < k.size(); ++r) {
    ASSERT_EQ(groups.FindOrAdd({k}, r, hashes[r]), r % 1000) << r;
  }
  EXPECT_EQ(groups.size(), 1000u);
}

}  // namespace
}  // namespace costdb
