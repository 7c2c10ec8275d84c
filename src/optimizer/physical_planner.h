#pragma once

#include <set>
#include <string>

#include "common/result.h"
#include "optimizer/cardinality.h"
#include "plan/physical_plan.h"

namespace costdb {

struct PhysicalPlannerOptions {
  /// Build sides estimated below this many bytes are broadcast instead of
  /// shuffled (both sides).
  double broadcast_threshold_bytes = 64.0 * kMiB;
  /// Elide exchanges when both sides are already hash-partitioned on the
  /// key (partition-wise joins / pre-partitioned aggregation): the join or
  /// aggregate gets kLocal pass-through exchanges, which cost ~nothing and
  /// move no rows in the sharded engine. Off reverts to shuffle/broadcast
  /// (the ablation knob for bench_e14_sharded).
  bool enable_copartition = true;
};

/// Lowers an annotated logical plan to a distributed physical plan:
/// hash-join/hash-aggregate operator selection, exchange placement
/// (shuffle / broadcast / gather), schema propagation, and byte-size
/// estimates for the cost model.
class PhysicalPlanner {
 public:
  PhysicalPlanner(const MetadataService* meta,
                  const std::vector<BoundRelation>* relations,
                  PhysicalPlannerOptions options = PhysicalPlannerOptions())
      : cards_(meta, relations), options_(options) {}

  Result<PhysicalPlanPtr> Plan(const LogicalPlanPtr& logical) const;

 private:
  Result<PhysicalPlanPtr> Lower(const LogicalPlanPtr& node) const;
  /// Top-down liveness walk: trims every scan, hash join, residual filter
  /// and exchange under `node` to the columns in `live` (those some
  /// ancestor reads or the root returns) plus what its own operator reads
  /// below it, keeping at least one column each, and re-derives
  /// est_row_bytes from the trimmed schemas.
  void KeepLiveColumns(PhysicalPlan* node,
                       const std::set<std::string>& live) const;
  PhysicalPlanPtr WrapExchange(PhysicalPlanPtr child, ExchangeKind kind) const;
  double RowBytes(const std::vector<std::string>& names,
                  const std::vector<LogicalType>& types) const;

  CardinalityEstimator cards_;
  PhysicalPlannerOptions options_;
};

}  // namespace costdb
