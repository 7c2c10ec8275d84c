#include "cost/volumes.h"

#include <algorithm>

namespace costdb {

namespace {

NodeVolumes Walk(const PhysicalPlan* node, const CardinalityEstimator& cards,
                 VolumeMap* out) {
  std::vector<NodeVolumes> child_volumes;
  for (const auto& c : node->children) {
    child_volumes.push_back(Walk(c.get(), cards, out));
  }
  NodeVolumes v;
  switch (node->kind) {
    case PhysicalPlan::Kind::kTableScan: {
      // Zone-map pruning is table geometry (identical for estimate and
      // truth); the base row count comes from this view's statistics.
      double base = cards.BaseRows(node->alias);
      v.source_rows = base * node->prune_keep_fraction;
      v.scanned_bytes = v.source_rows * node->est_read_row_bytes;
      double rows = v.source_rows;
      for (const auto& f : node->scan_filters) rows *= cards.Selectivity(f);
      v.out_rows = std::max(rows, 0.0);
      break;
    }
    case PhysicalPlan::Kind::kFilter:
      v.out_rows = child_volumes[0].out_rows * cards.Selectivity(node->predicate);
      break;
    case PhysicalPlan::Kind::kProject:
    case PhysicalPlan::Kind::kExchange:
      v.out_rows = child_volumes[0].out_rows;
      break;
    case PhysicalPlan::Kind::kLimit:
    case PhysicalPlan::Kind::kSort:  // a top-N sort emits at most its bound
      v.out_rows = node->limit >= 0
                       ? std::min(child_volumes[0].out_rows,
                                  static_cast<double>(node->limit))
                       : child_volumes[0].out_rows;
      break;
    case PhysicalPlan::Kind::kHashJoin: {
      std::vector<std::pair<ExprPtr, ExprPtr>> keys;
      for (size_t i = 0; i < node->probe_keys.size(); ++i) {
        keys.emplace_back(node->probe_keys[i], node->build_keys[i]);
      }
      v.out_rows = cards.EstimateJoinRows(child_volumes[0].out_rows,
                                          child_volumes[1].out_rows, keys);
      break;
    }
    case PhysicalPlan::Kind::kHashAggregate: {
      v.out_rows = cards.EstimateGroupCount(child_volumes[0].out_rows,
                                            node->group_by);
      break;
    }
  }
  v.out_bytes = v.out_rows * node->est_row_bytes;
  (*out)[node] = v;
  return v;
}

}  // namespace

VolumeMap ComputeVolumes(const PhysicalPlan* root,
                         const CardinalityEstimator& cards) {
  VolumeMap out;
  Walk(root, cards, &out);
  return out;
}

}  // namespace costdb
