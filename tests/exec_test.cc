#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "chunk_testing.h"
#include "cloud/object_store.h"
#include "exec/engine.h"
#include "exec/evaluator.h"
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

/// Collects streamed chunks in arrival order.
class CollectSink : public ChunkSink {
 public:
  explicit CollectSink(std::vector<LogicalType> types)
      : rows(std::move(types)) {}
  Status Push(DataChunk chunk) override {
    rows.Append(chunk);
    return Status::OK();
  }
  DataChunk rows;
};

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

  // Eight threads, one engine, different plans at once; odd rounds stream
  // through a sink. Every call must reproduce its serial run exactly.
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 12; ++round) {
        const size_t q = (t + round) % plans.size();
        ExecProfile profile;
        CollectSink sink(expected[q].types);
        const bool stream = round % 2 == 1;
        auto r = engine.Execute(plans[q].get(), &profile,
                                stream ? &sink : nullptr);
        ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
        const DataChunk& rows = stream ? sink.rows : r->chunk;
        std::string why;
        EXPECT_TRUE(ChunksBitIdentical(expected[q].chunk, rows, &why))
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

}  // namespace
}  // namespace costdb
