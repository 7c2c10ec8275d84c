#pragma once

#include <memory>
#include <string>
#include <vector>

#include "plan/logical_plan.h"

namespace costdb {

struct PhysicalPlan;
using PhysicalPlanPtr = std::shared_ptr<PhysicalPlan>;

/// Data movement between pipeline stages of the distributed plan.
enum class ExchangeKind {
  kShuffle,    // hash-partition rows on a key set across consumer nodes
  kBroadcast,  // replicate the (small) input to every consumer node
  kGather,     // funnel everything to one node (final result / global sort)
  kLocal,      // co-partitioned pass-through: both sides already live on
               // the right worker, so no row crosses the wire
};

const char* ExchangeKindName(ExchangeKind k);

/// Physical operator tree. Conventions:
///   - kHashJoin: children[0] = probe side, children[1] = build side.
///   - Expressions reference columns by unique name; the executor resolves
///     them against the child's output_names when a pipeline runs.
///   - est_rows / est_bytes are optimizer estimates used by the cost
///     estimator; the simulator replaces them with true values.
struct PhysicalPlan {
  enum class Kind {
    kTableScan,
    kFilter,
    kProject,
    kHashJoin,
    kHashAggregate,
    kSort,
    kLimit,
    kExchange,
  };

  Kind kind = Kind::kTableScan;
  std::vector<PhysicalPlanPtr> children;

  /// Output schema: unique column names and their types, positionally.
  /// The planner trims scans, joins, residual filters and exchanges to the
  /// columns some ancestor reads or the root returns (at least one each).
  std::vector<std::string> output_names;
  std::vector<LogicalType> output_types;

  /// Optimizer estimates.
  double est_rows = 0.0;
  double est_row_bytes = 8.0;  // average bytes per output row

  // kTableScan. The scan pins and filters every column it reads and emits
  // the subset named by output_names.
  std::shared_ptr<Table> table;
  std::string alias;
  std::vector<size_t> scan_column_indices;  // read, into the table's schema
  std::vector<std::string> scan_column_names;  // their names, positionally
  double est_read_row_bytes = 8.0;  // average bytes per row read
  std::vector<ExprPtr> scan_filters;
  /// Row-group range [scan_group_begin, scan_group_end) this scan covers —
  /// how the sharded engine hands each worker its horizontal slice of the
  /// table without copying data. SIZE_MAX end = all groups.
  size_t scan_group_begin = 0;
  size_t scan_group_end = static_cast<size_t>(-1);
  double est_scanned_bytes = 0.0;  // after zone-map pruning, before filters
  double est_source_rows = 0.0;    // rows fed to the filters (post-pruning)
  double prune_keep_fraction = 1.0;  // share of row groups zone maps keep

  // kFilter
  ExprPtr predicate;

  // kProject
  std::vector<ExprPtr> projections;

  // kHashJoin: probe-side and build-side key expressions, pairwise.
  std::vector<ExprPtr> probe_keys;
  std::vector<ExprPtr> build_keys;

  // kHashAggregate
  std::vector<ExprPtr> group_by;
  std::vector<ExprPtr> aggregates;
  std::vector<std::string> agg_names;
  /// True for the partial half of a two-phase aggregation. A partial
  /// feeds another aggregate, so it must not apply the engine's NULL-free
  /// result conventions: it emits no fabricated zero row on empty input
  /// (an empty shard would poison global MIN/MAX merged across workers)
  /// and emits NULL — which the final aggregate skips — for a MIN/MAX
  /// state that saw no valid value.
  bool agg_is_partial = false;

  // kSort
  std::vector<BoundOrderItem> sort_keys;

  // kLimit: rows to pass (-1 = all). kSort: the top-N bound of a LIMIT
  // directly above the sort, which then keeps only its first `limit` rows
  // (-1 = full sort).
  int64_t limit = -1;

  // kExchange
  ExchangeKind exchange_kind = ExchangeKind::kShuffle;
  /// kShuffle: key expressions (over the child's output schema) whose hash
  /// picks the receiving worker. Filled by the physical planner: join keys
  /// for join-side shuffles, group-by columns for aggregate shuffles.
  std::vector<ExprPtr> partition_exprs;

  const char* KindName() const;

  /// EXPLAIN-style indented rendering.
  std::string ToString(int indent = 0) const;

  /// Position of `name` in output_names, or npos.
  size_t FindColumn(const std::string& name) const;
};

/// Every column that `node`'s own expressions read: scan filters,
/// predicates, projections, join and partition keys, group-bys, aggregates
/// and sort keys.
std::vector<std::string> ColumnsReadBy(const PhysicalPlan& node);

/// Deep copy of a plan tree with every kParam placeholder replaced by the
/// corresponding bound constant from `params` (positional). Expression
/// subtrees without placeholders stay shared with the original, so binding
/// a cached prepared plan costs one pass over the plan's expressions, not
/// a re-optimization. The original tree is untouched.
PhysicalPlanPtr BindPlanParams(const PhysicalPlan* root,
                               const std::vector<Value>& params);

/// True if any expression anywhere in the plan still carries a kParam
/// placeholder (i.e. the plan needs BindPlanParams before execution).
bool PlanHasParams(const PhysicalPlan* root);

/// Current hash partitioning of a scan node's table, as the plan
/// references it: {partition count, "alias.column"}; count 0 when the
/// table is not hash-partitioned (or the node is not a scan). The shared
/// leaf of the planner's co-partition detection (physical_planner.cc)
/// and the sharded engine's staleness validation (sharded_engine.cc) —
/// their chain *walks* differ on purpose (conservative plan-time
/// detection vs validation of planner-built chains), but what counts as
/// "hash-partitioned on X" must stay identical between them.
std::pair<size_t, std::string> ScanHashPartitioning(const PhysicalPlan& scan);

}  // namespace costdb
