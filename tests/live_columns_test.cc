// Late materialization: the physical planner trims every scan, hash join
// and exchange to the columns some ancestor reads or the root returns, and
// the engines then carry only those. These tests check the trimmed plans
// column by column, and check the edge cases of trimming against results
// the test computes itself from the table data.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "optimizer/passes.h"
#include "service/database.h"
#include "service/session.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

/// SSB at scale 0.01 in 512-row groups, so that 4 workers each scan a
/// share of both fact tables.
SsbOptions SmallSsb() {
  SsbOptions o;
  o.scale = 0.01;
  o.row_group_size = 512;
  return o;
}

std::unique_ptr<Database> MakeSsbDb(TransportKind transport, bool persist) {
  DatabaseOptions opts;
  opts.enable_calibration = false;
  opts.exchange_transport = transport;
  opts.enable_persistent_storage = persist;
  auto db = std::make_unique<Database>(opts);
  LoadSsb(db->meta(), SmallSsb());
  if (persist) {
    EXPECT_TRUE(db->PersistTable("lineorder").ok());
  }
  return db;
}

/// The edge cases of trimming, each with the column it stresses.
const char* const kEdgeQueries[] = {
    // No column is live above the join: it keeps one to count.
    "SELECT count(*) AS n FROM lineorder, part WHERE lo_partkey = p_partkey",
    // No column is live above the scan; its filter column is the one kept.
    "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < 10",
    // A residual cross-relation filter reads lo_quantity and p_brand, which
    // nothing else reads.
    "SELECT count(*) AS n FROM lineorder, part "
    "WHERE lo_partkey = p_partkey AND lo_quantity < p_brand",
    // The same filter under a gather: a hidden sort key forces the sort,
    // and so the gather, below the projection.
    "SELECT lo_orderkey FROM lineorder, part "
    "WHERE lo_partkey = p_partkey AND lo_quantity < p_brand "
    "ORDER BY lo_revenue, lo_orderkey",
    // One table under two aliases; s1.s_region is read by its filter only.
    "SELECT count(*) AS n FROM supplier s1, supplier s2 "
    "WHERE s1.s_nation = s2.s_nation AND s1.s_region = 'ASIA'",
    // A prepared statement's plan, trimmed before its placeholder binds.
    "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < ?",
};

/// The columns one node's own expressions read, enumerated here field by
/// field rather than through the planner's ColumnsReadBy.
std::set<std::string> OwnReads(const PhysicalPlan& node) {
  std::vector<ExprPtr> exprs = node.scan_filters;
  if (node.predicate != nullptr) exprs.push_back(node.predicate);
  for (const auto* list : {&node.projections, &node.probe_keys,
                           &node.build_keys, &node.partition_exprs,
                           &node.group_by, &node.aggregates}) {
    exprs.insert(exprs.end(), list->begin(), list->end());
  }
  for (const auto& s : node.sort_keys) exprs.push_back(s.expr);
  std::vector<std::string> columns;
  for (const auto& e : exprs) e->CollectColumns(&columns);
  return {columns.begin(), columns.end()};
}

/// Every breach of the liveness contract under `node`; `above` holds the
/// columns some ancestor reads or the root returns. A node whose one column
/// is dead keeps it only so that its chunks can count rows.
void CheckLive(const PhysicalPlan& node, std::set<std::string> above,
               std::vector<std::string>* faults) {
  if (node.output_names.empty()) {
    faults->push_back(std::string(node.KindName()) + " keeps no column");
  }
  if ((node.kind == PhysicalPlan::Kind::kTableScan ||
       node.kind == PhysicalPlan::Kind::kHashJoin ||
       node.kind == PhysicalPlan::Kind::kExchange) &&
      node.output_names.size() > 1) {
    for (const auto& name : node.output_names) {
      if (above.count(name) == 0) {
        faults->push_back(std::string(node.KindName()) +
                          " emits dead column " + name);
      }
    }
  }
  const std::set<std::string> own = OwnReads(node);
  above.insert(own.begin(), own.end());
  for (const auto& child : node.children) CheckLive(*child, above, faults);
}

TEST(LiveColumnsTest, NoDeadColumnLeavesAScanJoinOrExchange) {
  auto db = MakeSsbDb(TransportKind::kInProcess, /*persist=*/false);
  std::vector<std::string> sqls;
  for (const auto& q : SsbQueries()) sqls.push_back(q.sql);
  sqls.insert(sqls.end(), std::begin(kEdgeQueries), std::end(kEdgeQueries));
  for (const std::string& sql : sqls) {
    auto bound = BindSql(db->meta(), sql);
    ASSERT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    for (int workers : {1, 4}) {
      auto planned = db->PlanSql(sql, UserConstraint().WithWorkers(workers));
      ASSERT_TRUE(planned.ok()) << sql << ": " << planned.status().ToString();
      const PhysicalPlan& root = *planned->plan;
      std::vector<std::string> faults;
      CheckLive(root, {root.output_names.begin(), root.output_names.end()},
                &faults);
      for (const auto& f : faults) {
        ADD_FAILURE() << sql << " @" << workers << ": " << f << "\n"
                      << root.ToString();
      }
      // The root returns exactly what the statement selects.
      EXPECT_EQ(root.output_names, bound->select_names) << sql;
      std::vector<LogicalType> types;
      for (const auto& e : bound->select_exprs) types.push_back(e->type);
      EXPECT_EQ(root.output_types, types) << sql;
    }
  }
}

/// Column `name` of `table`'s rows.
std::vector<Value> Column(const Table& table, const std::string& name) {
  const DataChunk rows = table.Scan();
  const ColumnVector& c = rows.column(*table.ColumnIndex(name));
  std::vector<Value> out;
  for (size_t r = 0; r < c.size(); ++r) out.push_back(c.GetValue(r));
  return out;
}

/// Expected answers, computed row by row from the generated tables.
struct Expected {
  int64_t join_rows = 0;
  int64_t quantity_below_10 = 0;
  int64_t quantity_below_30 = 0;
  int64_t residual_rows = 0;
  std::vector<int64_t> residual_orderkeys;  // by revenue, then orderkey
  int64_t self_join_rows = 0;
};

Expected Compute(MetadataService* meta) {
  const Table& lo = **meta->GetTable("lineorder");
  const Table& part = **meta->GetTable("part");
  const Table& supp = **meta->GetTable("supplier");
  std::map<int64_t, int64_t> brand_of;
  const auto partkeys = Column(part, "p_partkey");
  const auto brands = Column(part, "p_brand");
  for (size_t i = 0; i < partkeys.size(); ++i) {
    brand_of[partkeys[i].AsInt()] = brands[i].AsInt();
  }
  const auto lo_part = Column(lo, "lo_partkey");
  const auto lo_qty = Column(lo, "lo_quantity");
  const auto lo_key = Column(lo, "lo_orderkey");
  const auto lo_rev = Column(lo, "lo_revenue");
  Expected e;
  std::vector<std::pair<Value, int64_t>> residual;
  for (size_t r = 0; r < lo_part.size(); ++r) {
    const int64_t qty = lo_qty[r].AsInt();
    if (qty < 10) ++e.quantity_below_10;
    if (qty < 30) ++e.quantity_below_30;
    auto it = brand_of.find(lo_part[r].AsInt());
    if (it == brand_of.end()) continue;
    ++e.join_rows;
    if (qty < it->second) residual.emplace_back(lo_rev[r], lo_key[r].AsInt());
  }
  std::sort(residual.begin(), residual.end());
  e.residual_rows = static_cast<int64_t>(residual.size());
  for (const auto& [rev, key] : residual) e.residual_orderkeys.push_back(key);
  const auto nations = Column(supp, "s_nation");
  const auto regions = Column(supp, "s_region");
  for (size_t i = 0; i < nations.size(); ++i) {
    if (regions[i].AsString() != "ASIA") continue;
    for (size_t j = 0; j < nations.size(); ++j) {
      if (nations[i] == nations[j]) ++e.self_join_rows;
    }
  }
  return e;
}

int64_t Count(const Result<ExecutionResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return -1;
  EXPECT_EQ(r->result.chunk.num_rows(), 1u);
  return r->result.chunk.column(0).GetInt(0);
}

TEST(LiveColumnsTest, EdgeCasesMatchCountsComputedFromTheData) {
  for (TransportKind transport :
       {TransportKind::kInProcess, TransportKind::kSocket}) {
    for (int workers : {1, 4}) {
      SCOPED_TRACE(std::string(TransportName(transport)) + " @" +
                   std::to_string(workers));
      auto db = MakeSsbDb(transport, /*persist=*/false);
      const Expected want = Compute(db->meta());
      ASSERT_GT(want.residual_rows, 0);
      ASSERT_LT(want.residual_rows, want.join_rows);
      Session session(db.get());
      const UserConstraint c = UserConstraint().WithWorkers(workers);
      EXPECT_EQ(Count(session.ExecuteSql(kEdgeQueries[0], c)), want.join_rows);
      EXPECT_EQ(Count(session.ExecuteSql(kEdgeQueries[1], c)),
                want.quantity_below_10);
      EXPECT_EQ(Count(session.ExecuteSql(kEdgeQueries[2], c)),
                want.residual_rows);
      auto rows = session.ExecuteSql(kEdgeQueries[3], c);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(rows->workers, static_cast<size_t>(workers));
      std::vector<int64_t> keys;
      for (size_t r = 0; r < rows->result.chunk.num_rows(); ++r) {
        keys.push_back(rows->result.chunk.column(0).GetInt(r));
      }
      EXPECT_EQ(keys, want.residual_orderkeys);
      EXPECT_EQ(Count(session.ExecuteSql(kEdgeQueries[4], c)),
                want.self_join_rows);
      // One prepared statement bound twice: each run binds a copy of the
      // one trimmed plan.
      auto stmt = session.Prepare(kEdgeQueries[5], c);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
      EXPECT_EQ(Count(session.Execute(*stmt, {Value(int64_t{10})})),
                want.quantity_below_10);
      EXPECT_EQ(Count(session.Execute(*stmt, {Value(int64_t{30})})),
                want.quantity_below_30);
      EXPECT_EQ(Count(session.Execute(*stmt, {Value(int64_t{10})})),
                want.quantity_below_10);

      // The persisted table, cold and then warm: the scan still pins its
      // filter column, and emits it as the one column it keeps.
      auto persisted = MakeSsbDb(transport, /*persist=*/true);
      Session cold_session(persisted.get());
      auto cold = cold_session.ExecuteSql(kEdgeQueries[1], c);
      EXPECT_EQ(Count(cold), want.quantity_below_10);
      ASSERT_TRUE(cold.ok());
      EXPECT_GT(cold->storage.misses, 0);
      auto warm = cold_session.ExecuteSql(kEdgeQueries[1], c);
      EXPECT_EQ(Count(warm), want.quantity_below_10);
      ASSERT_TRUE(warm.ok());
      EXPECT_EQ(warm->storage.misses, 0);
      EXPECT_GT(warm->storage.hits, 0);
    }
  }
}

TEST(LiveColumnsTest, BreakerBytesOfOneJoinAtWidthsOneAndFour) {
  // fact(k, v) has 4096 rows in 16 groups, so 4 workers each scan 4;
  // dim(k, name) has 64 rows, every key matched. The build side is dim,
  // broadcast, and keeps its int64 key alone: its filter column is dead
  // above the scan.
  DatabaseOptions opts;
  opts.enable_calibration = false;
  Database db(opts);
  auto fact = std::make_shared<Table>(
      "fact",
      std::vector<ColumnDef>{{"k", LogicalType::kInt64},
                             {"v", LogicalType::kInt64}},
      256);
  DataChunk f({LogicalType::kInt64, LogicalType::kInt64});
  for (int64_t i = 0; i < 4096; ++i) f.AppendRow({Value(i % 64), Value(i)});
  fact->Append(f);
  auto dim = std::make_shared<Table>(
      "dim",
      std::vector<ColumnDef>{{"k", LogicalType::kInt64},
                             {"name", LogicalType::kVarchar}},
      256);
  DataChunk d({LogicalType::kInt64, LogicalType::kVarchar});
  for (int64_t i = 0; i < 64; ++i) {
    d.AppendRow({Value(i), Value("name#" + std::to_string(i))});
  }
  dim->Append(d);
  db.meta()->RegisterTable(fact);
  db.meta()->RegisterTable(dim);
  db.meta()->AnalyzeAll();
  const std::string sql =
      "SELECT count(*) AS n FROM fact, dim "
      "WHERE fact.k = dim.k AND dim.name LIKE 'name%'";
  Session session(&db);

  // One run: the build side (64 keys x 8 B) plus the partial and the final
  // aggregate's one 8-byte count each.
  auto one = session.ExecuteSql(sql, UserConstraint().WithWorkers(1));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->result.chunk.column(0).GetInt(0), 4096);
  EXPECT_EQ(one->breaker_bytes, 64 * 8 + 8 + 8);

  // Four workers: the join's fragment holds a broadcast build side and a
  // partial count on each worker; the final aggregate's fragment holds 8 B.
  auto four = session.ExecuteSql(sql, UserConstraint().WithWorkers(4));
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  EXPECT_EQ(four->workers, 4u);
  EXPECT_EQ(four->result.chunk.column(0).GetInt(0), 4096);
  EXPECT_EQ(four->breaker_bytes, 4 * (64 * 8 + 8));
}

}  // namespace
}  // namespace costdb
