#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "chunk_testing.h"
#include "common/rng.h"
#include "exec/sharded_engine.h"
#include "service/database.h"
#include "service/session.h"
#include "sim/harness.h"
#include "storage/partition.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

constexpr size_t kParts = 8;

/// Two databases over the same logical data: `plain` holds unpartitioned
/// tables (joins broadcast or shuffle), `part` holds the same rows
/// hash-partitioned on the join key (joins go partition-wise). A third,
/// `shuffled`, disables co-partitioning and broadcasting so repartition
/// joins are exercised.
class ShardedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions plain_opts;
    plain_opts.enable_calibration = false;
    plain_ = std::make_unique<Database>(plain_opts);
    part_ = std::make_unique<Database>(plain_opts);
    DatabaseOptions shuffle_opts = plain_opts;
    shuffle_opts.optimizer.physical.enable_copartition = false;
    shuffle_opts.optimizer.physical.broadcast_threshold_bytes = 0.0;
    shuffled_ = std::make_unique<Database>(shuffle_opts);

    Rng rng(1234);
    DataChunk oc({LogicalType::kInt64, LogicalType::kInt64,
                  LogicalType::kDouble, LogicalType::kVarchar});
    const char* tags[] = {"red", "green", "blue", "amber"};
    for (int64_t i = 0; i < 20000; ++i) {
      oc.AppendRow({Value(i), Value(rng.UniformInt(0, 799)),
                    Value(rng.Uniform(0.0, 1000.0)),
                    Value(std::string(tags[rng.UniformInt(0, 3)]))});
    }
    DataChunk cc({LogicalType::kInt64, LogicalType::kVarchar,
                  LogicalType::kInt64});
    const char* regions[] = {"na", "emea", "apac"};
    for (int64_t k = 0; k < 800; ++k) {
      cc.AppendRow({Value(k), Value(std::string(regions[k % 3])),
                    Value(rng.UniformInt(0, 99))});
    }

    auto load = [&](Database* db, bool partitioned) {
      auto orders = std::make_shared<Table>(
          "orders", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                           {"cust", LogicalType::kInt64},
                                           {"amount", LogicalType::kDouble},
                                           {"tag", LogicalType::kVarchar}},
          512);
      orders->Append(oc);
      auto customer = std::make_shared<Table>(
          "customer", std::vector<ColumnDef>{{"key", LogicalType::kInt64},
                                             {"region", LogicalType::kVarchar},
                                             {"score", LogicalType::kInt64}},
          128);
      customer->Append(cc);
      if (partitioned) {
        ASSERT_TRUE(PartitionTable(orders.get(),
                                   PartitionSpec::Hash("cust", kParts))
                        .ok());
        ASSERT_TRUE(PartitionTable(customer.get(),
                                   PartitionSpec::Hash("key", kParts))
                        .ok());
      }
      db->meta()->RegisterTable(orders);
      db->meta()->RegisterTable(customer);
      db->meta()->AnalyzeAll();
    };
    load(plain_.get(), false);
    load(part_.get(), true);
    load(shuffled_.get(), false);
  }

  /// Plan through the facade, execute on LocalEngine and on ShardedEngine
  /// at 1, 2, 4, and 7 workers; every result must be bit-identical.
  /// `exact == false` relaxes to multiset identity — the documented
  /// contract for bare repartition-join output, whose row order only
  /// canonicalizes at the next order-fixing operator.
  void ExpectDeterministicAcrossWorkers(Database* db, const std::string& sql,
                                        bool exact = true) {
    auto planned = db->PlanSql(sql, UserConstraint());
    ASSERT_TRUE(planned.ok()) << sql << ": " << planned.status().ToString();
    LocalEngine local(4);
    auto reference = local.Execute(planned->plan.get());
    ASSERT_TRUE(reference.ok()) << sql << ": "
                                << reference.status().ToString();
    ShardedEngine sharded;
    for (size_t workers : {1u, 2u, 4u, 7u}) {
      auto result = sharded.Execute(planned->plan.get(), workers);
      ASSERT_TRUE(result.ok())
          << sql << " @" << workers << ": " << result.status().ToString();
      std::string why;
      const bool same =
          exact ? ChunksBitIdentical(reference->chunk, result->chunk, &why)
                : ChunksSameMultiset(reference->chunk, result->chunk, &why);
      EXPECT_TRUE(same) << sql << " diverged at " << workers
                        << " workers: " << why;
    }
  }

  std::unique_ptr<Database> plain_;
  std::unique_ptr<Database> part_;
  std::unique_ptr<Database> shuffled_;
};

TEST_F(ShardedTest, PartitionTableAlignsGroupsAndKeepsAllRows) {
  auto orders = *part_->meta()->GetTable("orders");
  const TablePartitioning* p = orders->partitioning();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->spec.kind, PartitionKind::kHash);
  EXPECT_EQ(p->partitions(), kParts);
  ASSERT_EQ(p->group_begin.size(), kParts + 1);
  EXPECT_EQ(p->group_begin.front(), 0u);
  EXPECT_EQ(p->group_begin.back(), orders->row_groups().size());
  EXPECT_EQ(orders->num_rows(), 20000u);
  // Every row sits in the partition its key hashes to.
  size_t cust_col = *orders->ColumnIndex("cust");
  for (size_t part = 0; part < kParts; ++part) {
    for (size_t g = p->group_begin[part]; g < p->group_begin[part + 1]; ++g) {
      const auto& col = orders->row_groups()[g].data.column(cust_col);
      for (size_t r = 0; r < col.size(); ++r) {
        EXPECT_EQ(HashPartitionOf(col.GetValue(r), kParts), part);
      }
    }
  }
  // Worker shares cover whole partitions, contiguously and exhaustively.
  for (size_t workers : {1u, 3u, 8u}) {
    size_t expect_begin = 0;
    for (size_t w = 0; w < workers; ++w) {
      auto [b, e] = WorkerGroupRange(*orders, w, workers);
      EXPECT_EQ(b, expect_begin);
      expect_begin = e;
    }
    EXPECT_EQ(expect_begin, orders->row_groups().size());
  }
}

TEST_F(ShardedTest, RangePartitionKeepsEqualKeysTogether) {
  auto t = std::make_shared<Table>(
      "r", std::vector<ColumnDef>{{"k", LogicalType::kInt64}}, 64);
  DataChunk c({LogicalType::kInt64});
  for (int64_t i = 0; i < 1000; ++i) c.AppendRow({Value(i % 7)});
  t->Append(c);
  ASSERT_TRUE(PartitionTable(t.get(), PartitionSpec::Range("k", 4)).ok());
  const TablePartitioning* p = t->partitioning();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(t->num_rows(), 1000u);
  // Each distinct key appears in exactly one partition.
  std::map<int64_t, size_t> owner;
  for (size_t part = 0; part < 4; ++part) {
    for (size_t g = p->group_begin[part]; g < p->group_begin[part + 1]; ++g) {
      const auto& col = t->row_groups()[g].data.column(0);
      for (size_t r = 0; r < col.size(); ++r) {
        auto [it, inserted] = owner.emplace(col.GetInt(r), part);
        EXPECT_EQ(it->second, part) << "key " << col.GetInt(r);
      }
    }
  }
  EXPECT_EQ(owner.size(), 7u);
}

TEST_F(ShardedTest, RangePartitionHandlesDuplicateHeavyAndAllEqualKeys) {
  // Partitions > distinct keys: tie runs are consumed whole, later
  // partitions stay empty, and the group_begin boundaries must remain a
  // monotone exact cover of the row groups so worker scan shares stay
  // aligned (regression for RangeBuckets on heavily-duplicated columns).
  struct Case {
    std::vector<int64_t> keys;
    size_t partitions;
  };
  std::vector<Case> cases;
  cases.push_back({std::vector<int64_t>(1000, 42), 4});  // all equal
  {
    std::vector<int64_t> heavy;  // 3 distinct keys, 8 partitions
    for (int64_t i = 0; i < 900; ++i) heavy.push_back(i % 3 == 0 ? 7 : i % 3);
    cases.push_back({std::move(heavy), 8});
  }
  cases.push_back({{5, 5, 5}, 8});  // more partitions than rows
  for (const auto& c : cases) {
    auto t = std::make_shared<Table>(
        "r", std::vector<ColumnDef>{{"k", LogicalType::kInt64}}, 64);
    DataChunk chunk({LogicalType::kInt64});
    for (int64_t k : c.keys) chunk.AppendRow({Value(k)});
    t->Append(chunk);
    ASSERT_TRUE(
        PartitionTable(t.get(), PartitionSpec::Range("k", c.partitions)).ok());
    const TablePartitioning* p = t->partitioning();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(t->num_rows(), c.keys.size());
    ASSERT_EQ(p->group_begin.size(), c.partitions + 1);
    EXPECT_EQ(p->group_begin.front(), 0u);
    EXPECT_EQ(p->group_begin.back(), t->row_groups().size());
    for (size_t i = 1; i < p->group_begin.size(); ++i) {
      EXPECT_LE(p->group_begin[i - 1], p->group_begin[i]);
    }
    // Each distinct key lives in exactly one partition.
    std::map<int64_t, size_t> owner;
    for (size_t part = 0; part < c.partitions; ++part) {
      for (size_t g = p->group_begin[part]; g < p->group_begin[part + 1];
           ++g) {
        const auto& col = t->row_groups()[g].data.column(0);
        for (size_t r = 0; r < col.size(); ++r) {
          auto [it, inserted] = owner.emplace(col.GetInt(r), part);
          EXPECT_EQ(it->second, part) << "key " << col.GetInt(r);
        }
      }
    }
    // Worker shares cover the groups contiguously and exhaustively at any
    // width, empty partitions included.
    for (size_t workers : {1u, 2u, 3u, 5u, 11u}) {
      size_t expect_begin = 0;
      for (size_t w = 0; w < workers; ++w) {
        auto [b, e] = WorkerGroupRange(*t, w, workers);
        EXPECT_EQ(b, expect_begin);
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, t->row_groups().size());
    }
  }
}

TEST_F(ShardedTest, RangePartitionedAllEqualTableAnswersAcrossWorkers) {
  // End to end: an all-equal range-partitioned key column leaves most
  // workers with empty shares; queries must still be bit-identical to
  // LocalEngine at every width.
  DatabaseOptions opts;
  opts.enable_calibration = false;
  Database db(opts);
  auto t = std::make_shared<Table>(
      "dup", std::vector<ColumnDef>{{"k", LogicalType::kInt64},
                                    {"v", LogicalType::kInt64}},
      64);
  DataChunk chunk({LogicalType::kInt64, LogicalType::kInt64});
  for (int64_t i = 0; i < 2000; ++i) chunk.AppendRow({Value(int64_t{9}), Value(i)});
  t->Append(chunk);
  ASSERT_TRUE(PartitionTable(t.get(), PartitionSpec::Range("k", 6)).ok());
  db.meta()->RegisterTable(t);
  db.meta()->AnalyzeAll();
  ExpectDeterministicAcrossWorkers(
      &db, "SELECT k, count(*) AS c, sum(v) AS s FROM dup GROUP BY k");
  ExpectDeterministicAcrossWorkers(&db,
                                   "SELECT v FROM dup WHERE v < 100");
}

TEST_F(ShardedTest, NullJoinKeysMatchNothingAcrossEnginesAndWorkers) {
  // NULL join keys must behave per SQL three-valued logic: they match
  // nothing — in particular they must not collide with genuine 0 keys
  // (the NULL payload filler) — and NULL-key rows must shuffle to one
  // deterministic bucket so no plan shape can split or duplicate them.
  DatabaseOptions opts;
  opts.enable_calibration = false;
  Database db(opts);
  DatabaseOptions shuffle_opts = opts;
  shuffle_opts.optimizer.physical.enable_copartition = false;
  shuffle_opts.optimizer.physical.broadcast_threshold_bytes = 0.0;
  Database shuffled(shuffle_opts);

  Rng rng(77);
  DataChunk fact({LogicalType::kInt64, LogicalType::kInt64,
                  LogicalType::kDouble});
  for (int64_t i = 0; i < 4000; ++i) {
    // ~15% NULL keys, and plenty of genuine 0 keys to collide with.
    Value key = rng.NextDouble() < 0.15
                    ? Value::Null()
                    : Value(rng.UniformInt(0, 49));
    fact.AppendRow({Value(i), key, Value(rng.Uniform(0.0, 100.0))});
  }
  DataChunk dim({LogicalType::kInt64, LogicalType::kInt64});
  for (int64_t k = 0; k < 50; ++k) {
    Value key = k % 10 == 3 ? Value::Null() : Value(k);
    dim.AppendRow({key, Value(k * 100)});
  }
  for (Database* d : {&db, &shuffled}) {
    auto f = std::make_shared<Table>(
        "fact", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                       {"key", LogicalType::kInt64},
                                       {"x", LogicalType::kDouble}},
        256);
    f->Append(fact);
    auto m = std::make_shared<Table>(
        "dim", std::vector<ColumnDef>{{"k", LogicalType::kInt64},
                                      {"score", LogicalType::kInt64}},
        64);
    m->Append(dim);
    d->meta()->RegisterTable(f);
    d->meta()->RegisterTable(m);
    d->meta()->AnalyzeAll();
  }

  // Ground truth by brute force over the source chunks.
  size_t expected_pairs = 0;
  for (size_t i = 0; i < fact.num_rows(); ++i) {
    if (fact.column(1).IsNull(i)) continue;
    for (size_t j = 0; j < dim.num_rows(); ++j) {
      if (dim.column(0).IsNull(j)) continue;
      if (fact.column(1).GetInt(i) == dim.column(0).GetInt(j)) {
        ++expected_pairs;
      }
    }
  }
  ASSERT_GT(expected_pairs, 0u);

  const std::string join_sql =
      "SELECT f.id, d.score FROM fact f JOIN dim d ON f.key = d.k";
  auto planned = db.PlanSql(join_sql, UserConstraint());
  ASSERT_TRUE(planned.ok());
  LocalEngine local(4);
  auto reference = local.Execute(planned->plan.get());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->chunk.num_rows(), expected_pairs);
  ShardedEngine sharded;
  for (size_t workers : {1u, 2u, 4u, 7u}) {
    auto result = sharded.Execute(planned->plan.get(), workers);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string why;
    EXPECT_TRUE(ChunksBitIdentical(reference->chunk, result->chunk, &why))
        << workers << " workers: " << why;
  }

  // Repartition join: both sides shuffle on the key, so NULL rows cross
  // the shuffle path too; the grouped aggregate above canonicalizes
  // order. The NULL group must appear exactly once per distinct key side.
  const std::string agg_sql =
      "SELECT d.score, count(*) AS n FROM fact f JOIN dim d "
      "ON f.key = d.k GROUP BY d.score";
  auto agg_planned = shuffled.PlanSql(agg_sql, UserConstraint());
  ASSERT_TRUE(agg_planned.ok());
  auto agg_reference = local.Execute(agg_planned->plan.get());
  ASSERT_TRUE(agg_reference.ok());
  for (size_t workers : {2u, 4u, 7u}) {
    auto result = sharded.Execute(agg_planned->plan.get(), workers);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string why;
    EXPECT_TRUE(
        ChunksBitIdentical(agg_reference->chunk, result->chunk, &why))
        << workers << " workers: " << why;
  }

  // Grouping by the NULL-bearing key itself: the NULL group must not be
  // split across workers by the shuffle (one output row, same as local).
  const std::string group_sql =
      "SELECT key, count(*) AS n, sum(id) AS s FROM fact GROUP BY key";
  auto group_planned = db.PlanSql(group_sql, UserConstraint());
  ASSERT_TRUE(group_planned.ok());
  auto group_reference = local.Execute(group_planned->plan.get());
  ASSERT_TRUE(group_reference.ok());
  for (size_t workers : {2u, 4u, 7u}) {
    auto result = sharded.Execute(group_planned->plan.get(), workers);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string why;
    EXPECT_TRUE(
        ChunksBitIdentical(group_reference->chunk, result->chunk, &why))
        << workers << " workers: " << why;
  }
}

TEST_F(ShardedTest, ScanFilterProjectBitIdenticalAcrossWorkers) {
  ExpectDeterministicAcrossWorkers(
      plain_.get(), "SELECT id, amount FROM orders WHERE amount > 750.0");
  ExpectDeterministicAcrossWorkers(
      part_.get(),
      "SELECT id, tag FROM orders WHERE cust < 100 AND amount <= 500.0");
  ExpectDeterministicAcrossWorkers(plain_.get(),
                                   "SELECT id FROM orders WHERE tag = 'red'");
}

TEST_F(ShardedTest, AggregatesBitIdenticalAcrossWorkers) {
  // Integer SUM/COUNT and MIN/MAX are exactly associative, AVG of an int
  // column divides two exact partials — all bit-stable across any worker
  // partitioning. (SUM over doubles re-associates and is deliberately not
  // asserted bit-identical; see sharded_engine.h.)
  ExpectDeterministicAcrossWorkers(
      plain_.get(),
      "SELECT cust, count(*) AS c, sum(id) AS s, min(amount) AS mn, "
      "max(tag) AS mx, avg(id) AS a FROM orders GROUP BY cust");
  ExpectDeterministicAcrossWorkers(
      part_.get(),
      "SELECT cust, count(*) AS c, sum(id) AS s FROM orders GROUP BY cust");
  ExpectDeterministicAcrossWorkers(
      plain_.get(),
      "SELECT count(*), sum(id), min(amount), max(amount) FROM orders "
      "WHERE amount > 400.0");
  ExpectDeterministicAcrossWorkers(
      plain_.get(), "SELECT tag, count(*) AS c FROM orders GROUP BY tag");
}

TEST_F(ShardedTest, JoinsBitIdenticalAcrossWorkers) {
  // Broadcast join (plain: small build side) and partition-wise join
  // (part_: co-partitioned on the key) both preserve probe order.
  const std::string join_sql =
      "SELECT o.id, c.region FROM orders o JOIN customer c ON o.cust = c.key "
      "WHERE o.amount > 900.0";
  ExpectDeterministicAcrossWorkers(plain_.get(), join_sql);
  ExpectDeterministicAcrossWorkers(part_.get(), join_sql);
  // Repartition join: canonical under the grouped aggregate above it.
  ExpectDeterministicAcrossWorkers(
      shuffled_.get(),
      "SELECT c.region, count(*) AS n, sum(o.id) AS s FROM orders o "
      "JOIN customer c ON o.cust = c.key GROUP BY c.region");
}

TEST_F(ShardedTest, ScanFilterAndGlobalAggregateBitIdenticalAcrossWorkers) {
  // Multi-conjunct pushed filters, with and without a global aggregate on
  // top: every worker count must reproduce the LocalEngine reference
  // bit-for-bit.
  const char* queries[] = {
      "SELECT id, amount FROM orders WHERE id < 5000 AND cust >= 100",
      // Integer SUM and double MIN/MAX are exactly associative; SUM over
      // doubles re-associates across worker counts and is deliberately not
      // asserted here (see AggregatesBitIdenticalAcrossWorkers).
      "SELECT count(*) AS n, sum(id) AS s, min(amount) AS lo, "
      "max(amount) AS hi "
      "FROM orders WHERE amount > 100.0 AND amount < 900.0 AND cust >= 10",
  };
  for (const char* sql : queries) {
    auto planned = plain_->PlanSql(sql, UserConstraint());
    ASSERT_TRUE(planned.ok()) << sql << ": " << planned.status().ToString();
    LocalEngine local(4);
    auto reference = local.Execute(planned->plan.get());
    ASSERT_TRUE(reference.ok()) << sql;
    ShardedEngine sharded;
    for (size_t workers : {1u, 2u, 4u, 7u}) {
      auto result = sharded.Execute(planned->plan.get(), workers);
      ASSERT_TRUE(result.ok())
          << sql << " @" << workers << ": " << result.status().ToString();
      std::string why;
      EXPECT_TRUE(ChunksBitIdentical(reference->chunk, result->chunk, &why))
          << sql << " diverged at " << workers << " workers: " << why;
    }
  }
}

TEST_F(ShardedTest, AggregatesOverShardEmptyingFiltersAcrossWorkers) {
  // id < 100 keeps rows only in the first worker's slice (plain_ orders
  // is id-ordered): the other workers' partial aggregates see zero rows
  // after filtering. A fabricated zero-filled partial from an empty
  // shard would poison global MIN/MAX (min(amount) -> 0.0, max(tag) ->
  // ""), so partials must emit nothing on empty input.
  ExpectDeterministicAcrossWorkers(
      plain_.get(),
      "SELECT min(amount), max(amount), max(tag), count(*), sum(id) "
      "FROM orders WHERE id < 100");
  ExpectDeterministicAcrossWorkers(
      plain_.get(),
      "SELECT cust, min(amount), max(tag) FROM orders WHERE id < 100 "
      "GROUP BY cust");
  ExpectDeterministicAcrossWorkers(
      part_.get(),
      "SELECT min(amount), max(amount), count(*) FROM orders "
      "WHERE cust = 3");
}

TEST_F(ShardedTest, SortLimitAndEmptyResultsAcrossWorkers) {
  ExpectDeterministicAcrossWorkers(
      plain_.get(),
      "SELECT id, amount FROM orders WHERE amount > 990.0 ORDER BY id DESC "
      "LIMIT 50");
  ExpectDeterministicAcrossWorkers(plain_.get(),
                                   "SELECT id FROM orders LIMIT 37");
  ExpectDeterministicAcrossWorkers(
      plain_.get(), "SELECT id FROM orders WHERE amount < -1.0");
  ExpectDeterministicAcrossWorkers(
      plain_.get(),
      "SELECT count(*), sum(id) FROM orders WHERE amount < -1.0");
  ExpectDeterministicAcrossWorkers(
      plain_.get(),
      "SELECT cust, count(*) AS c FROM orders WHERE amount < -1.0 "
      "GROUP BY cust");
}

TEST_F(ShardedTest, TopNReturnsTheFirstRowsOfTheFullSortOnEveryTier) {
  // Int, double and string keys with ties and NULLs over ten row groups.
  auto keys = std::make_shared<Table>(
      "keys", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                     {"i", LogicalType::kInt64},
                                     {"d", LogicalType::kDouble},
                                     {"s", LogicalType::kVarchar}},
      32);
  DataChunk kc({LogicalType::kInt64, LogicalType::kInt64,
                LogicalType::kDouble, LogicalType::kVarchar});
  const char* words[] = {"pear", "apple", "fig", "", "kiwi"};
  for (int64_t id = 0; id < 300; ++id) {
    kc.AppendRow(
        {Value(id), id % 11 == 0 ? Value() : Value((id * 7) % 13),
         id % 7 == 3 ? Value() : Value(0.5 * static_cast<double>(id * 5 % 9)),
         id % 13 == 5 ? Value() : Value(std::string(words[id * 3 % 5]))});
  }
  keys->Append(kc);
  plain_->meta()->RegisterTable(keys);
  plain_->meta()->AnalyzeAll();

  const std::string queries[] = {
      "SELECT id, i FROM keys ORDER BY i",
      "SELECT id, d FROM keys ORDER BY d DESC",
      "SELECT s, id FROM keys ORDER BY s",
      "SELECT id, s, i, d FROM keys ORDER BY s DESC, i, d DESC",
      "SELECT d, i, id FROM keys WHERE id > 40 ORDER BY i DESC, d",
  };
  LocalEngine local(4);
  for (const std::string& sql : queries) {
    auto full_plan = plain_->PlanSql(sql, UserConstraint());
    ASSERT_TRUE(full_plan.ok()) << sql << ": "
                                << full_plan.status().ToString();
    auto full = local.Execute(full_plan->plan.get());
    ASSERT_TRUE(full.ok()) << sql << ": " << full.status().ToString();
    const size_t n = full->chunk.num_rows();
    ASSERT_GT(n, 8u) << sql;
    for (size_t k : {size_t{0}, size_t{1}, size_t{7}, n - 1, n, n + 5}) {
      const std::string limited = sql + " LIMIT " + std::to_string(k);
      auto planned = plain_->PlanSql(limited, UserConstraint());
      ASSERT_TRUE(planned.ok()) << limited << ": "
                                << planned.status().ToString();
      // The planner made the sort below the LIMIT a top-N sort.
      const PhysicalPlan* sort = planned->plan.get();
      while (sort->kind != PhysicalPlan::Kind::kSort &&
             !sort->children.empty()) {
        sort = sort->children[0].get();
      }
      ASSERT_EQ(sort->kind, PhysicalPlan::Kind::kSort) << limited;
      EXPECT_EQ(sort->limit, static_cast<int64_t>(k)) << limited;

      DataChunk expected(full->chunk.Types());
      expected.AppendRange(full->chunk, 0, std::min(k, n));
      auto got = local.Execute(planned->plan.get());
      ASSERT_TRUE(got.ok()) << limited << ": " << got.status().ToString();
      std::string why;
      EXPECT_TRUE(ChunksBitIdentical(expected, got->chunk, &why))
          << limited << " on LocalEngine: " << why;
      for (TransportKind transport :
           {TransportKind::kInProcess, TransportKind::kSocket}) {
        ShardedEngineOptions options;
        options.transport = transport;
        ShardedEngine sharded(options);
        for (size_t workers : {1u, 2u, 4u, 7u}) {
          auto r = sharded.Execute(planned->plan.get(), workers);
          ASSERT_TRUE(r.ok()) << limited << " @" << workers << ": "
                              << r.status().ToString();
          EXPECT_TRUE(ChunksBitIdentical(expected, r->chunk, &why))
              << limited << " @" << workers << " "
              << TransportName(transport) << ": " << why;
        }
      }
    }
  }
}

TEST(ShardedTopNTest, TopNSortRunsBelowTheGatherOnEveryWorker) {
  // A top-N sort over a gather gets a copy (same keys, same limit) under
  // the gather, so each worker ships at most `limit` rows. The rows are
  // those of the plan without the copy: the first `limit` rows of the full
  // stable sort of the same gathered input. Q10, keys with heavy ties, and
  // a grouped top-N, whose gather merges on the group key and so keeps its
  // single sort.
  DatabaseOptions opts;
  opts.enable_calibration = false;
  Database db(opts);
  SsbOptions ssb;
  ssb.scale = 0.01;
  ssb.row_group_size = 512;
  LoadSsb(db.meta(), ssb);
  struct Case {
    std::string sql;
    int64_t limit;
    bool below_gather;
  };
  const Case cases[] = {
      {FindQuery("Q10").sql, 10, true},
      {"SELECT lo_orderkey, lo_quantity FROM lineorder WHERE lo_discount < 3 "
       "ORDER BY lo_quantity LIMIT 40",
       40, true},
      {"SELECT lo_quantity, lo_orderkey, lo_discount FROM lineorder "
       "ORDER BY lo_discount DESC, lo_quantity LIMIT 25",
       25, true},
      {"SELECT lo_shipmode, count(*) AS n FROM lineorder "
       "GROUP BY lo_shipmode ORDER BY n DESC LIMIT 3",
       3, false},
  };
  for (const Case& c : cases) {
    const std::string limit_clause = " LIMIT " + std::to_string(c.limit);
    ASSERT_NE(c.sql.find(limit_clause), std::string::npos) << c.sql;
    const std::string full_sql = c.sql.substr(0, c.sql.find(limit_clause));
    auto planned = db.PlanSql(c.sql, UserConstraint());
    auto full_plan = db.PlanSql(full_sql, UserConstraint());
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    ASSERT_TRUE(full_plan.ok()) << full_plan.status().ToString();
    // Limit -> Sort -> Gather -> Sort (the copy) when pushed.
    const PhysicalPlan* sort = planned->plan->children[0].get();
    ASSERT_EQ(sort->kind, PhysicalPlan::Kind::kSort) << c.sql;
    const PhysicalPlan* gather = sort->children[0].get();
    ASSERT_EQ(gather->exchange_kind, ExchangeKind::kGather) << c.sql;
    const PhysicalPlan* below = gather->children[0].get();
    EXPECT_EQ(below->kind == PhysicalPlan::Kind::kSort, c.below_gather)
        << c.sql;
    if (c.below_gather) {
      EXPECT_EQ(below->limit, c.limit);
      EXPECT_EQ(below->sort_keys.size(), sort->sort_keys.size());
    }
    for (TransportKind transport :
         {TransportKind::kInProcess, TransportKind::kSocket}) {
      ShardedEngineOptions options;
      options.transport = transport;
      ShardedEngine sharded(options);
      for (size_t workers : {1u, 2u, 4u, 7u}) {
        SCOPED_TRACE(c.sql + " @" + std::to_string(workers) + " " +
                     TransportName(transport));
        ExecProfile full_profile, profile;
        auto full = sharded.Execute(full_plan->plan.get(), workers,
                                    &full_profile);
        auto got = sharded.Execute(planned->plan.get(), workers, &profile);
        ASSERT_TRUE(full.ok()) << full.status().ToString();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const size_t n = std::min<size_t>(c.limit, full->chunk.num_rows());
        ASSERT_EQ(n, static_cast<size_t>(c.limit));
        DataChunk expected(full->chunk.Types());
        expected.AppendRange(full->chunk, 0, n);
        std::string why;
        EXPECT_TRUE(ChunksBitIdentical(expected, got->chunk, &why)) << why;
        if (c.below_gather) {
          EXPECT_LE(profile.exchange.gather.rows_moved, workers * n);
          if (workers > 1) {
            EXPECT_GT(full_profile.exchange.gather.rows_moved, workers * n);
          }
        }
      }
    }
  }
}

TEST_F(ShardedTest, Int64OrderIsExactAboveTwoToThe53) {
  // Values above 2^53 that doubles cannot tell apart, two per row group:
  // MIN/MAX merge them across morsels and workers, and sorts compare
  // them, exactly.
  const int64_t big = int64_t{1} << 53;
  auto wide = std::make_shared<Table>(
      "wide", std::vector<ColumnDef>{{"off", LogicalType::kInt64},
                                     {"x", LogicalType::kInt64}},
      2);
  DataChunk wc({LogicalType::kInt64, LogicalType::kInt64});
  const int64_t offsets[] = {1, 3, 0, 2};
  for (int64_t off : offsets) wc.AppendRow({Value(off), Value(big + off)});
  wide->Append(wc);
  plain_->meta()->RegisterTable(wide);
  plain_->meta()->AnalyzeAll();

  struct Case {
    std::string sql;
    std::vector<std::vector<int64_t>> rows;
  };
  const Case cases[] = {
      {"SELECT min(x) AS lo, max(x) AS hi FROM wide", {{big, big + 3}}},
      {"SELECT off, x FROM wide ORDER BY x",
       {{0, big}, {1, big + 1}, {2, big + 2}, {3, big + 3}}},
      {"SELECT off, x FROM wide ORDER BY x DESC",
       {{3, big + 3}, {2, big + 2}, {1, big + 1}, {0, big}}},
      {"SELECT off, x FROM wide ORDER BY x DESC LIMIT 3",
       {{3, big + 3}, {2, big + 2}, {1, big + 1}}},
  };
  auto expect_rows = [](const Case& c, const DataChunk& chunk,
                        const std::string& where) {
    ASSERT_EQ(chunk.num_rows(), c.rows.size()) << c.sql << where;
    for (size_t r = 0; r < c.rows.size(); ++r) {
      for (size_t col = 0; col < c.rows[r].size(); ++col) {
        EXPECT_EQ(chunk.column(col).GetInt(r), c.rows[r][col])
            << c.sql << where << " row " << r << " column " << col;
      }
    }
  };
  LocalEngine local(4);
  ShardedEngine sharded;
  for (const Case& c : cases) {
    auto planned = plain_->PlanSql(c.sql, UserConstraint());
    ASSERT_TRUE(planned.ok()) << c.sql << ": "
                              << planned.status().ToString();
    auto got = local.Execute(planned->plan.get());
    ASSERT_TRUE(got.ok()) << c.sql << ": " << got.status().ToString();
    expect_rows(c, got->chunk, " on LocalEngine");
    for (size_t workers : {1u, 2u, 4u, 7u}) {
      auto r = sharded.Execute(planned->plan.get(), workers);
      ASSERT_TRUE(r.ok()) << c.sql << " @" << workers << ": "
                          << r.status().ToString();
      expect_rows(c, r->chunk, " @" + std::to_string(workers));
    }
  }
}

TEST_F(ShardedTest, RandomizedQueriesBitIdenticalAcrossWorkers) {
  // Property sweep: randomized filters, group keys, and join shapes on all
  // three catalogs must agree with LocalEngine bit-for-bit at 1/2/4/7
  // workers.
  Rng rng(99);
  const char* group_cols[] = {"cust", "tag"};
  for (int trial = 0; trial < 12; ++trial) {
    double lo = rng.Uniform(0.0, 900.0);
    int64_t cust_cut = rng.UniformInt(1, 799);
    const char* g = group_cols[rng.UniformInt(0, 1)];
    char sql[512];
    switch (trial % 4) {
      case 0:
        std::snprintf(sql, sizeof(sql),
                      "SELECT id, cust FROM orders WHERE amount > %.3f AND "
                      "cust < %lld",
                      lo, static_cast<long long>(cust_cut));
        break;
      case 1:
        std::snprintf(sql, sizeof(sql),
                      "SELECT %s, count(*) AS c, sum(id) AS s, max(amount) "
                      "AS m FROM orders WHERE amount > %.3f GROUP BY %s",
                      g, lo, g);
        break;
      case 2:
        std::snprintf(sql, sizeof(sql),
                      "SELECT o.id, c.score FROM orders o JOIN customer c "
                      "ON o.cust = c.key WHERE o.amount > %.3f",
                      lo);
        break;
      default:
        std::snprintf(sql, sizeof(sql),
                      "SELECT c.region, sum(o.id) AS s FROM orders o JOIN "
                      "customer c ON o.cust = c.key WHERE o.cust < %lld "
                      "GROUP BY c.region",
                      static_cast<long long>(cust_cut));
        break;
    }
    ExpectDeterministicAcrossWorkers(plain_.get(), sql);
    ExpectDeterministicAcrossWorkers(part_.get(), sql);
    // On the forced-shuffle catalog a bare join repartitions its probe
    // side, so row order is only canonical up to the next aggregate —
    // exact for every other template, multiset for the bare join.
    ExpectDeterministicAcrossWorkers(shuffled_.get(), sql,
                                     /*exact=*/trial % 4 != 2);
  }
}

TEST_F(ShardedTest, CoPartitionedJoinMovesNoBytesAndShuffleMoves) {
  const std::string sql =
      "SELECT c.region, sum(o.id) AS s FROM orders o JOIN customer c "
      "ON o.cust = c.key GROUP BY c.region";
  auto co = part_->PlanSql(sql, UserConstraint());
  ASSERT_TRUE(co.ok());
  // The optimizer picked the partition-wise plan: kLocal exchanges on the
  // join, and a cheaper estimate than the forced-shuffle plan.
  std::string plan_str = co->plan->ToString();
  EXPECT_NE(plan_str.find("Exchange Local"), std::string::npos) << plan_str;
  auto sh = shuffled_->PlanSql(sql, UserConstraint());
  ASSERT_TRUE(sh.ok());
  EXPECT_NE(sh->plan->ToString().find("Exchange Shuffle"), std::string::npos);

  // The cost model agrees with the pick: the co-partitioned plan is
  // estimated no slower and no dearer than the forced-shuffle plan.
  EXPECT_LE(co->estimate.latency, sh->estimate.latency);
  EXPECT_LE(co->estimate.cost, sh->estimate.cost);

  ShardedEngine engine;
  ExecProfile co_profile;
  ASSERT_TRUE(engine.Execute(co->plan.get(), 4, &co_profile).ok());
  ExecProfile sh_profile;
  ASSERT_TRUE(engine.Execute(sh->plan.get(), 4, &sh_profile).ok());
  const ExchangeStats& co_stats = co_profile.exchange;
  const ExchangeStats& sh_stats = sh_profile.exchange;
  // The co-partitioned plan still shuffles its handful of per-worker
  // aggregate partials; the join rows themselves never move, so it moves
  // orders of magnitude less than the repartition plan.
  EXPECT_GT(sh_stats.shuffle.count, 0u);
  EXPECT_LT(co_stats.rows_moved() * 100, sh_stats.rows_moved());
  EXPECT_LT(co_stats.bytes_moved(), sh_stats.bytes_moved());
}

TEST_F(ShardedTest, StaleCoPartitionedPlanFailsLoudly) {
  const std::string sql =
      "SELECT c.region, sum(o.id) AS s FROM orders o JOIN customer c "
      "ON o.cust = c.key GROUP BY c.region";
  auto planned = part_->PlanSql(sql, UserConstraint());
  ASSERT_TRUE(planned.ok());
  ASSERT_NE(planned->plan->ToString().find("Exchange Local"),
            std::string::npos);
  // Appending after planning drops the partitioning metadata; running the
  // partition-wise plan now would join mis-aligned shards, so the engine
  // must refuse instead of returning wrong rows.
  auto orders = *part_->meta()->GetTable("orders");
  DataChunk extra({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kVarchar});
  extra.AppendRow({Value(int64_t{20000}), Value(int64_t{5}), Value(1.0),
                   Value(std::string("red"))});
  orders->Append(extra);
  ShardedEngine engine;
  auto result = engine.Execute(planned->plan.get(), 4);
  EXPECT_FALSE(result.ok());
  // Restore the partitioned layout for the remaining tests' shared data.
  ASSERT_TRUE(
      PartitionTable(orders.get(), PartitionSpec::Hash("cust", kParts)).ok());

  // Same partition *count* but a different key column is just as
  // mis-aligned — the recorded partition key must catch it.
  auto customer = *part_->meta()->GetTable("customer");
  ASSERT_TRUE(
      PartitionTable(customer.get(), PartitionSpec::Hash("score", kParts))
          .ok());
  auto rekeyed = engine.Execute(planned->plan.get(), 4);
  EXPECT_FALSE(rekeyed.ok());
  ASSERT_TRUE(
      PartitionTable(customer.get(), PartitionSpec::Hash("key", kParts)).ok());
  EXPECT_TRUE(engine.Execute(planned->plan.get(), 4).ok());
}

TEST_F(ShardedTest, LayoutChangeInvalidatesCachedPlanAndReplans) {
  // Through the facade the stale guard must never be terminal: the plan
  // cache validates table layout versions on every hit, so a repartition
  // evicts the co-partitioned plan and the query replans and succeeds.
  const std::string sql =
      "SELECT c.region, sum(o.id) AS s FROM orders o JOIN customer c "
      "ON o.cust = c.key GROUP BY c.region";
  Session session(part_.get());
  auto first = session.ExecuteSql(sql, UserConstraint().WithWorkers(4));
  ASSERT_TRUE(first.ok());
  auto again = session.ExecuteSql(sql, UserConstraint().WithWorkers(4));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cache_hit);

  auto customer = *part_->meta()->GetTable("customer");
  ASSERT_TRUE(
      PartitionTable(customer.get(), PartitionSpec::Hash("score", kParts))
          .ok());
  auto after = session.ExecuteSql(sql, UserConstraint().WithWorkers(4));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->plan_cache_hit);  // layout change forced a replan
  // The replanned query no longer joins partition-wise (sides are not
  // co-partitioned on the join key any more) but still answers right.
  std::string why;
  EXPECT_TRUE(
      ChunksBitIdentical(first->result.chunk, after->result.chunk, &why))
      << why;
  ASSERT_TRUE(
      PartitionTable(customer.get(), PartitionSpec::Hash("key", kParts)).ok());
}

TEST_F(ShardedTest, FacadeRoutesWorkerKnobToShardedEngine) {
  const std::string sql = "SELECT cust, sum(id) AS s FROM orders GROUP BY cust";
  Session session(plain_.get());
  auto one = session.ExecuteSql(sql, UserConstraint());
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->workers, 1u);
  EXPECT_TRUE(one->exchange.timings.empty());

  auto four = session.ExecuteSql(sql, UserConstraint().WithWorkers(4));
  ASSERT_TRUE(four.ok());
  EXPECT_EQ(four->workers, 4u);
  EXPECT_FALSE(four->exchange.timings.empty());
  std::string why;
  EXPECT_TRUE(
      ChunksBitIdentical(one->result.chunk, four->result.chunk, &why)) << why;

  // Auto mode resolves to the DOP plan's parallelism (>= 1).
  auto planned = plain_->PlanSql(sql, UserConstraint().WithWorkers(0));
  ASSERT_TRUE(planned.ok());
  EXPECT_GE(planned->workers, 1);
}

TEST_F(ShardedTest, ExplicitWorkerRequestClampedToFacadeCap) {
  DatabaseOptions opts;
  opts.enable_calibration = false;
  opts.max_workers = 1;
  Database db(opts);
  db.meta()->RegisterTable(*plain_->meta()->GetTable("orders"));
  db.meta()->RegisterTable(*plain_->meta()->GetTable("customer"));
  db.meta()->AnalyzeAll();
  const std::string sql = "SELECT cust, sum(id) AS s FROM orders GROUP BY cust";
  // An explicit request above the cap runs clamped — on both the
  // synchronous and the asynchronous (engine-lazy) path — not erroring.
  Session session(&db);
  auto sync = session.ExecuteSql(sql, UserConstraint().WithWorkers(4));
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  EXPECT_EQ(sync->workers, 1u);
  Session::SubmitOptions submit;
  submit.constraint = UserConstraint().WithWorkers(4);
  auto handle = session.Submit(sql, submit);
  ASSERT_TRUE(handle.ok());
  auto taken = (*handle)->Take();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  std::string why;
  EXPECT_TRUE(ChunksBitIdentical(sync->result.chunk, taken->result.chunk,
                                 &why)) << why;
}

TEST_F(ShardedTest, SessionWorkerKnobAndStreamingSubmit) {
  Session session(part_.get());
  auto handle = session.Submit(
      "SELECT cust, count(*) AS c FROM orders GROUP BY cust");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE((*handle)->Wait().ok());

  SessionOptions opts;
  opts.default_constraint = UserConstraint().WithWorkers(4);
  Session wide(part_.get(), opts);
  auto sync = wide.ExecuteSql("SELECT cust, count(*) AS c FROM orders "
                              "GROUP BY cust");
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(sync->workers, 4u);
  auto async = wide.Submit("SELECT cust, count(*) AS c FROM orders "
                           "GROUP BY cust");
  ASSERT_TRUE(async.ok());
  auto taken = (*async)->Take();
  ASSERT_TRUE(taken.ok());
  std::string why;
  EXPECT_TRUE(ChunksBitIdentical(sync->result.chunk, taken->result.chunk,
                                 &why)) << why;
}

TEST_F(ShardedTest, ShuffleCalibrationTightensWithObservations) {
  DatabaseOptions opts;
  opts.enable_calibration = true;
  Database db(opts);
  auto orders = *plain_->meta()->GetTable("orders");
  auto customer = *plain_->meta()->GetTable("customer");
  db.meta()->RegisterTable(orders);
  db.meta()->RegisterTable(customer);
  db.meta()->AnalyzeAll();

  const std::string sql =
      "SELECT cust, count(*) AS c FROM orders GROUP BY cust";
  const double gibps_before = db.hardware()->shuffle_gibps;
  Session session(&db);
  GroupReport last;
  for (int i = 0; i < 4; ++i) {
    auto r = session.ExecuteSql(sql, UserConstraint().WithWorkers(4));
    ASSERT_TRUE(r.ok());
    last = r->calibration[TermGroup::kShuffle];
    ASSERT_GT(last.observed, 0);
  }
  // The EWMA drives predictions toward measurements: the post-round
  // q-error never exceeds the pre-round one, and the shuffle term moved.
  EXPECT_LE(last.q_error_after, last.q_error_before * 1.0001);
  EXPECT_NE(db.hardware()->shuffle_gibps, gibps_before);
  EXPECT_NE(db.calibration().drift(TermGroup::kShuffle), 1.0);
}

TEST_F(ShardedTest, ShardedRunsTimeEveryPipelineOfThePlan) {
  DatabaseOptions opts;
  opts.enable_calibration = true;
  Database db(opts);
  auto orders = *plain_->meta()->GetTable("orders");
  db.meta()->RegisterTable(orders);
  db.meta()->RegisterTable(*plain_->meta()->GetTable("customer"));
  db.meta()->AnalyzeAll();

  const std::string queries[] = {
      "SELECT c.region, sum(o.id) AS s FROM orders o JOIN customer c "
      "ON o.cust = c.key GROUP BY c.region",
      "SELECT id, amount FROM orders WHERE amount > 990.0 ORDER BY id DESC "
      "LIMIT 50",
  };
  Session session(&db);
  for (const std::string& sql : queries) {
    double orders_scanned = -1.0;  // by the local run
    for (int workers : {1, 4}) {
      auto r = session.ExecuteSql(sql, UserConstraint().WithWorkers(workers));
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      ASSERT_EQ(r->workers, static_cast<size_t>(workers)) << sql;
      // Exactly one timing per pipeline of the plan, in the plan's ids
      // and order, at a width the run held.
      const std::vector<Pipeline>& pipelines = r->plan->pipelines.pipelines;
      ASSERT_EQ(r->timings.size(), pipelines.size())
          << sql << " @" << workers;
      int widest = 0;
      for (size_t i = 0; i < pipelines.size(); ++i) {
        const PipelineTiming& t = r->timings[i];
        EXPECT_EQ(t.pipeline_id, pipelines[i].id) << sql << " @" << workers;
        EXPECT_GE(t.seconds, 0.0);
        EXPECT_GE(t.width, 1);
        EXPECT_LE(t.width, workers);
        widest = std::max(widest, t.width);
        // The sharded scan of orders reads what the local one read,
        // summed over the workers that shared it.
        const Pipeline& p = pipelines[i];
        if (!p.source_is_breaker && p.source->table == orders) {
          if (orders_scanned < 0.0) orders_scanned = t.source_rows;
          EXPECT_EQ(t.source_rows, orders_scanned) << sql << " @" << workers;
          EXPECT_GT(t.source_rows, 0.0);
        }
        if (p.sink == nullptr) {
          EXPECT_EQ(t.output_rows,
                    static_cast<double>(r->result.chunk.num_rows()))
              << sql << " @" << workers;
        }
      }
      EXPECT_EQ(widest, workers) << sql;
      EXPECT_GT(r->calibration[TermGroup::kPipelines].observed, 0) << sql;
    }
  }
}

TEST_F(ShardedTest, BitIdenticalAcrossTransports) {
  // The distribution matrix: {in-process, socket} transports x
  // {1, 2, 4, 7} widths. At a fixed width, the socket transport serializes
  // every moved partition through the checksummed wire format — which may
  // not change a single byte relative to the in-process engine at that
  // width, even for plans whose double aggregates are
  // association-sensitive. Order-stable plans (no floating-point
  // re-association across partials) must additionally match the
  // LocalEngine reference at every width.
  struct MatrixQuery {
    std::string sql;
    // sum(amount) over doubles re-associates across worker partials, so
    // its result is a function of the partitioning width; it still must be
    // invariant to transport at any given width.
    bool order_stable;
  };
  const MatrixQuery queries[] = {
      {"SELECT tag, count(*) AS c, sum(amount) AS s FROM orders "
       "GROUP BY tag",
       false},
      {"SELECT c.region, sum(o.id) AS s FROM orders o JOIN customer c "
       "ON o.cust = c.key GROUP BY c.region",
       true},
      {"SELECT id, cust, amount FROM orders WHERE amount > 900.0", true},
  };
  for (const MatrixQuery& q : queries) {
    auto planned = shuffled_->PlanSql(q.sql, UserConstraint());
    ASSERT_TRUE(planned.ok())
        << q.sql << ": " << planned.status().ToString();
    LocalEngine local(4);
    auto reference = local.Execute(planned->plan.get());
    ASSERT_TRUE(reference.ok());
    ShardedEngineOptions socket_options;
    socket_options.transport = TransportKind::kSocket;
    ShardedEngine in_process_engine;
    ShardedEngine socket_engine(socket_options);
    for (size_t workers : {1u, 2u, 4u, 7u}) {
      // The in-process leg is the width reference the socket leg must
      // reproduce byte-for-byte.
      auto base = in_process_engine.Execute(planned->plan.get(), workers);
      ASSERT_TRUE(base.ok()) << q.sql << " @" << workers << ": "
                             << base.status().ToString();
      if (q.order_stable) {
        std::string why;
        EXPECT_TRUE(ChunksBitIdentical(reference->chunk, base->chunk, &why))
            << q.sql << " diverged from LocalEngine @" << workers << ": "
            << why;
      }
      auto result = socket_engine.Execute(planned->plan.get(), workers);
      ASSERT_TRUE(result.ok()) << q.sql << " @" << workers << " "
                               << TransportName(TransportKind::kSocket)
                               << ": " << result.status().ToString();
      std::string why;
      EXPECT_TRUE(ChunksBitIdentical(base->chunk, result->chunk, &why))
          << q.sql << " diverged @" << workers << " "
          << TransportName(TransportKind::kSocket) << ": " << why;
    }
  }
}

TEST_F(ShardedTest, SocketTransportRecordsWireBytesAndLinkSeconds) {
  const std::string sql =
      "SELECT cust, count(*) AS c, sum(amount) AS s FROM orders GROUP BY "
      "cust";
  auto planned = plain_->PlanSql(sql, UserConstraint());
  ASSERT_TRUE(planned.ok());

  ShardedEngineOptions socket_options;
  socket_options.transport = TransportKind::kSocket;
  ShardedEngine socket_engine(socket_options);
  ExecProfile socket_profile;
  ASSERT_TRUE(
      socket_engine.Execute(planned->plan.get(), 4, &socket_profile).ok());
  const ExchangeStats& socket_stats = socket_profile.exchange;
  EXPECT_EQ(socket_stats.transport, TransportKind::kSocket);
  EXPECT_GT(socket_stats.wire_bytes(), 0.0);
  EXPECT_GT(socket_stats.link_seconds(), 0.0);
  // The per-exchange timings carry the same decomposition.
  bool any_wire_timing = false;
  for (const ExchangeTiming& t : socket_stats.timings) {
    if (t.wire_bytes > 0.0) {
      any_wire_timing = true;
      EXPECT_EQ(t.transport, TransportKind::kSocket);
      EXPECT_GT(t.transfers, 0u);
      EXPECT_LE(t.link_seconds, t.seconds + 1e-9);
    }
  }
  EXPECT_TRUE(any_wire_timing);
  // The call's transport counters agree: socket bytes are the wire bodies
  // plus one 8-byte length prefix per transfer.
  const TransportStats& tp = socket_stats.transport_stats;
  EXPECT_EQ(tp.socket_bytes, tp.wire_bytes + 8.0 * tp.transfers);

  ShardedEngine inproc_engine;
  ExecProfile inproc_profile;
  ASSERT_TRUE(
      inproc_engine.Execute(planned->plan.get(), 4, &inproc_profile).ok());
  const ExchangeStats& inproc_stats = inproc_profile.exchange;
  EXPECT_EQ(inproc_stats.transport, TransportKind::kInProcess);
  EXPECT_EQ(inproc_stats.wire_bytes(), 0.0);
  EXPECT_EQ(inproc_stats.link_seconds(), 0.0);
  // Same logical movement either way: the transport changes how
  // partitions travel, never how many.
  EXPECT_EQ(inproc_stats.rows_moved(), socket_stats.rows_moved());
  EXPECT_EQ(inproc_stats.bytes_moved(), socket_stats.bytes_moved());
}

TEST_F(ShardedTest, SharedEngineIsReentrantAcrossWidthsAndTransports) {
  // Eight threads run different plans at widths 1, 2 and 4 on one shared
  // engine per transport; every call must reproduce its serial run: the
  // same bytes and the same deterministic profile counters, with its own
  // transport's framing conserved.
  const std::vector<std::string> queries = {
      "SELECT cust, count(*) AS c, sum(id) AS s FROM orders GROUP BY cust",
      "SELECT tag, count(*) AS c, max(amount) AS m FROM orders "
      "WHERE amount > 300.0 GROUP BY tag",
      "SELECT o.id, c.region FROM orders o JOIN customer c "
      "ON o.cust = c.key WHERE o.amount > 950.0",
      "SELECT c.region, sum(o.id) AS s FROM orders o JOIN customer c "
      "ON o.cust = c.key GROUP BY c.region",
      "SELECT id, amount FROM orders WHERE amount > 990.0 ORDER BY id DESC "
      "LIMIT 50",
      "SELECT count(*), sum(id) FROM orders WHERE cust < 100",
  };
  std::vector<PlannedQuery> plans;
  for (const auto& sql : queries) {
    auto planned = plain_->PlanSql(sql, UserConstraint());
    ASSERT_TRUE(planned.ok()) << sql << ": " << planned.status().ToString();
    plans.push_back(std::move(*planned));
  }
  const size_t widths[] = {1, 2, 4};
  for (TransportKind transport :
       {TransportKind::kInProcess, TransportKind::kSocket}) {
    ShardedEngineOptions options;
    options.transport = transport;
    ShardedEngine engine(options);
    // Serial references, one per (plan, width).
    std::vector<std::vector<DataChunk>> expected(plans.size());
    std::vector<std::vector<std::string>> counters(plans.size());
    for (size_t q = 0; q < plans.size(); ++q) {
      for (size_t width : widths) {
        ExecProfile profile;
        auto r = engine.Execute(plans[q].plan.get(), width, &profile);
        ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
        expected[q].push_back(std::move(r->chunk));
        counters[q].push_back(ProfileCounters(profile));
      }
    }
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        for (size_t round = 0; round < 6; ++round) {
          const size_t q = (t + round) % plans.size();
          const size_t wi = (t + 2 * round) % 3;
          ExecProfile profile;
          auto r = engine.Execute(plans[q].plan.get(), widths[wi], &profile);
          ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
          std::string why;
          EXPECT_TRUE(ChunksBitIdentical(expected[q][wi], r->chunk, &why))
              << queries[q] << " @" << widths[wi] << " "
              << TransportName(transport) << ": " << why;
          EXPECT_EQ(ProfileCounters(profile), counters[q][wi])
              << queries[q] << " @" << widths[wi] << " "
              << TransportName(transport);
          const TransportStats& tp = profile.exchange.transport_stats;
          if (transport == TransportKind::kSocket) {
            EXPECT_EQ(tp.socket_bytes,
                      tp.wire_bytes + 8.0 * static_cast<double>(tp.transfers));
          } else {
            EXPECT_EQ(tp.socket_bytes, 0.0);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
}

TEST_F(ShardedTest, ShardedParityFillsLinkFieldsOverSocketTransport) {
  const std::string sql =
      "SELECT cust, count(*) AS c FROM orders GROUP BY cust";
  auto prepared = plain_->Prepare(sql, UserConstraint());
  ASSERT_TRUE(prepared.ok());

  auto run = [&](TransportKind transport) {
    ShardedEngineOptions options;
    options.transport = transport;
    ShardedEngine engine(options);
    ExecProfile profile;
    EXPECT_TRUE(
        engine.Execute(prepared->planned.plan.get(), 4, &profile).ok());
    return CheckShardedParity(*prepared, *plain_->estimator(), 4,
                              /*measured_single=*/0.01,
                              /*measured_sharded=*/0.01, profile.exchange);
  };

  ShardedParity socket_parity = run(TransportKind::kSocket);
  EXPECT_GT(socket_parity.measured_wire_bytes, 0.0);
  EXPECT_GT(socket_parity.measured_link_seconds, 0.0);
  EXPECT_GT(socket_parity.predicted_link_seconds, 0.0);
  EXPECT_GE(socket_parity.link_q_error, 1.0);

  // In-process runs have no link: every link field stays at its neutral
  // default so existing parity consumers see exactly the old behavior.
  ShardedParity inproc_parity = run(TransportKind::kInProcess);
  EXPECT_EQ(inproc_parity.measured_wire_bytes, 0.0);
  EXPECT_EQ(inproc_parity.measured_link_seconds, 0.0);
  EXPECT_EQ(inproc_parity.predicted_link_seconds, 0.0);
  EXPECT_EQ(inproc_parity.link_q_error, 1.0);
}

TEST_F(ShardedTest, FacadeBillsEgressAndCalibratesLinkTermsOverSocket) {
  DatabaseOptions opts;
  opts.exchange_transport = TransportKind::kSocket;
  Database db(opts);
  Rng rng(77);
  auto orders = std::make_shared<Table>(
      "orders", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                       {"cust", LogicalType::kInt64},
                                       {"amount", LogicalType::kDouble}},
      512);
  DataChunk oc({LogicalType::kInt64, LogicalType::kInt64,
                LogicalType::kDouble});
  for (int64_t i = 0; i < 20000; ++i) {
    oc.AppendRow({Value(i), Value(rng.UniformInt(0, 799)),
                  Value(rng.Uniform(0.0, 1000.0))});
  }
  orders->Append(oc);
  db.meta()->RegisterTable(orders);
  db.meta()->AnalyzeAll();

  EXPECT_EQ(db.hardware()->exchange_transport, LinkTransport::kSocket);
  const double serialize_before = db.hardware()->wire_serialize_gibps;
  const double link_before = db.hardware()->link_gibps;

  const std::string sql =
      "SELECT cust, count(*) AS c, sum(amount) AS s FROM orders GROUP BY "
      "cust";
  Session session(&db);
  double wire_total = 0.0;
  Dollars egress_total = 0.0;
  for (int i = 0; i < 3; ++i) {
    auto r = session.ExecuteSql(sql, UserConstraint().WithWorkers(4));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->exchange.wire_bytes(), 0.0);
    EXPECT_GT(r->egress_dollars, 0.0);
    wire_total += r->exchange.wire_bytes();
    egress_total += r->egress_dollars;
  }
  // Dollar conservation: the facade's egress ledger is exactly the sum of
  // the per-run charges, which are wire_bytes/GiB x the catalog rate.
  Database::EgressBilling billed = db.egress_billing();
  EXPECT_EQ(billed.runs, 3u);
  EXPECT_NEAR(billed.wire_bytes, wire_total, 1.0);
  EXPECT_NEAR(billed.dollars, egress_total, 1e-12);
  EXPECT_NEAR(billed.dollars, billed.wire_bytes / kGiB * 0.01, 1e-12);
  // The calibration loop saw real link measurements and moved the link
  // terms off their priors.
  EXPECT_TRUE(db.hardware()->wire_serialize_gibps != serialize_before ||
              db.hardware()->link_gibps != link_before);
  EXPECT_NE(db.calibration().drift(TermGroup::kLink), 1.0);
}

TEST_F(ShardedTest, SimulatorParityOnSmallWorkload) {
  const std::string sql =
      "SELECT cust, count(*) AS c, sum(id) AS s FROM orders GROUP BY cust";
  auto prepared = part_->Prepare(sql, UserConstraint());
  ASSERT_TRUE(prepared.ok());

  auto time_run = [&](size_t workers, ExchangeStats* stats) {
    ShardedEngine engine;
    ExecProfile profile;
    auto t0 = std::chrono::steady_clock::now();
    auto r = engine.Execute(prepared->planned.plan.get(), workers, &profile);
    auto t1 = std::chrono::steady_clock::now();
    EXPECT_TRUE(r.ok());
    if (stats != nullptr) *stats = profile.exchange;
    return std::chrono::duration<double>(t1 - t0).count();
  };
  ExchangeStats stats;
  double single = time_run(1, nullptr);
  double sharded = time_run(4, &stats);

  ShardedParity parity = CheckShardedParity(
      *prepared, *part_->estimator(), 4, single, sharded, stats);
  EXPECT_GT(parity.predicted_single, 0.0);
  EXPECT_GT(parity.predicted_sharded, 0.0);
  // The model was built for cloud-scale volumes; on a small local workload
  // the cross-check is structural: the partial-aggregate shuffle moves a
  // bounded number of group rows, and the model's believed exchange bytes
  // must be the same order of magnitude as what actually moved.
  EXPECT_GT(parity.measured_exchange_bytes, 0.0);
  EXPECT_GT(parity.predicted_exchange_bytes, 0.0);
  double ratio =
      parity.predicted_exchange_bytes / parity.measured_exchange_bytes;
  EXPECT_GT(ratio, 0.02) << parity.predicted_exchange_bytes << " vs "
                         << parity.measured_exchange_bytes;
  EXPECT_LT(ratio, 50.0) << parity.predicted_exchange_bytes << " vs "
                         << parity.measured_exchange_bytes;
}

}  // namespace
}  // namespace costdb
