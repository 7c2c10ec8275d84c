#include "optimizer/physical_planner.h"

#include <set>
#include <utility>

#include "storage/partition.h"

namespace costdb {

namespace {

/// Hash-partitioning of the base table feeding `node`. The walk is
/// deliberately conservative — only filters (which preserve both row
/// partitioning and column names) and earlier kLocal pass-throughs are
/// crossed; projections may rename the partition column, so they stop
/// detection. The sharded engine's staleness validator walks the chains
/// this detection *creates* (sharded_engine.cc LocalExchangeSource); the
/// partitioning check itself is shared (ScanHashPartitioning).
bool HashPartitionSourceOf(const PhysicalPlan* node,
                           std::string* qualified_column,
                           size_t* partitions) {
  while (node->kind == PhysicalPlan::Kind::kFilter ||
         (node->kind == PhysicalPlan::Kind::kExchange &&
          node->exchange_kind == ExchangeKind::kLocal)) {
    node = node->children[0].get();
  }
  auto [parts, qualified] = ScanHashPartitioning(*node);
  if (parts == 0) return false;
  *qualified_column = std::move(qualified);
  *partitions = parts;
  return true;
}

/// True when `keys` contains a plain reference to `qualified_column`;
/// reports its position so the paired key on the other side can be
/// checked.
bool KeysReferenceColumn(const std::vector<ExprPtr>& keys,
                         const std::string& qualified_column, size_t* index) {
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i]->kind == Expr::Kind::kColumn &&
        keys[i]->column == qualified_column) {
      *index = i;
      return true;
    }
  }
  return false;
}

/// Positions of the entries of `names` in `live`, in order; position 0
/// alone when none is, because a zero-column chunk reports zero rows.
std::vector<size_t> LivePositions(const std::vector<std::string>& names,
                                  const std::set<std::string>& live) {
  std::vector<size_t> out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (live.count(names[i]) > 0) out.push_back(i);
  }
  if (out.empty() && !names.empty()) out.push_back(0);
  return out;
}

template <typename T>
std::vector<T> Pick(const std::vector<T>& values,
                    const std::vector<size_t>& positions) {
  std::vector<T> out;
  out.reserve(positions.size());
  for (size_t i : positions) out.push_back(values[i]);
  return out;
}

}  // namespace

double PhysicalPlanner::RowBytes(const std::vector<std::string>& names,
                                 const std::vector<LogicalType>& types) const {
  double total = 0.0;
  for (size_t i = 0; i < names.size(); ++i) {
    if (PhysicalTypeOf(types[i]) == PhysicalType::kString) {
      total += cards_.ColumnWidth(names[i]) + 4.0;
    } else {
      total += TypeWidthBytes(types[i]);
    }
  }
  return std::max(total, 1.0);
}

PhysicalPlanPtr PhysicalPlanner::WrapExchange(PhysicalPlanPtr child,
                                              ExchangeKind kind) const {
  auto ex = std::make_shared<PhysicalPlan>();
  ex->kind = PhysicalPlan::Kind::kExchange;
  ex->exchange_kind = kind;
  ex->output_names = child->output_names;
  ex->output_types = child->output_types;
  ex->est_rows = child->est_rows;
  ex->est_row_bytes = child->est_row_bytes;
  ex->children = {std::move(child)};
  return ex;
}

Result<PhysicalPlanPtr> PhysicalPlanner::Plan(
    const LogicalPlanPtr& logical) const {
  PhysicalPlanPtr root;
  COSTDB_ASSIGN_OR_RETURN(root, Lower(logical));
  // The coordinator receives the final result: make sure the top of the
  // plan funnels to one node.
  if (root->kind != PhysicalPlan::Kind::kExchange ||
      root->exchange_kind != ExchangeKind::kGather) {
    bool gathered = false;
    // A sort already gathers; a limit/project over a gathered child keeps it.
    const PhysicalPlan* p = root.get();
    while (p != nullptr) {
      if (p->kind == PhysicalPlan::Kind::kExchange) {
        gathered = p->exchange_kind == ExchangeKind::kGather;
        break;
      }
      if (p->kind == PhysicalPlan::Kind::kSort ||
          (p->kind == PhysicalPlan::Kind::kHashAggregate &&
           p->group_by.empty())) {
        gathered = true;
        break;
      }
      if (p->children.empty()) break;
      if (p->kind == PhysicalPlan::Kind::kFilter ||
          p->kind == PhysicalPlan::Kind::kProject ||
          p->kind == PhysicalPlan::Kind::kLimit) {
        p = p->children[0].get();
        continue;
      }
      break;
    }
    if (!gathered) root = WrapExchange(std::move(root), ExchangeKind::kGather);
  }
  KeepLiveColumns(root.get(), std::set<std::string>(root->output_names.begin(),
                                                    root->output_names.end()));
  return root;
}

void PhysicalPlanner::KeepLiveColumns(PhysicalPlan* node,
                                      const std::set<std::string>& live) const {
  // What the children must provide: what this node's expressions read,
  // plus, through an operator that passes its input on, what its
  // ancestors read. A projection or aggregate computes its output instead.
  const std::vector<std::string> own = ColumnsReadBy(*node);
  std::set<std::string> reads(own.begin(), own.end());
  if (node->kind != PhysicalPlan::Kind::kProject &&
      node->kind != PhysicalPlan::Kind::kHashAggregate) {
    reads.insert(live.begin(), live.end());
  }
  for (auto& child : node->children) KeepLiveColumns(child.get(), reads);

  auto keep = [&](const std::set<std::string>& columns) {
    const std::vector<size_t> kept = LivePositions(node->output_names, columns);
    node->output_names = Pick(node->output_names, kept);
    node->output_types = Pick(node->output_types, kept);
    node->est_row_bytes = RowBytes(node->output_names, node->output_types);
    return kept;
  };
  auto pass_through = [&](const PhysicalPlan& child) {
    node->output_names = child.output_names;
    node->output_types = child.output_types;
    node->est_row_bytes = child.est_row_bytes;
  };
  switch (node->kind) {
    case PhysicalPlan::Kind::kTableScan: {
      // Pin and filter every column read; emit only the live ones.
      const std::vector<size_t> read = keep(reads);
      node->scan_column_indices = Pick(node->scan_column_indices, read);
      node->scan_column_names = node->output_names;
      node->est_read_row_bytes = node->est_row_bytes;
      keep(live);
      break;
    }
    case PhysicalPlan::Kind::kHashJoin: {
      const PhysicalPlan& probe = *node->children[0];
      const PhysicalPlan& build = *node->children[1];
      pass_through(probe);
      node->output_names.insert(node->output_names.end(),
                                build.output_names.begin(),
                                build.output_names.end());
      node->output_types.insert(node->output_types.end(),
                                build.output_types.begin(),
                                build.output_types.end());
      keep(live);
      break;
    }
    case PhysicalPlan::Kind::kFilter: {
      // A residual filter drops the columns only its predicate read. Over
      // an aggregate or projection (HAVING) it passes its input on whole,
      // so a grouped aggregate's key columns keep leading the output that
      // a sharded gather merges on.
      const PhysicalPlan& child = *node->children[0];
      pass_through(child);
      if (child.kind == PhysicalPlan::Kind::kTableScan ||
          child.kind == PhysicalPlan::Kind::kHashJoin) {
        keep(live);
      }
      break;
    }
    case PhysicalPlan::Kind::kExchange:
    case PhysicalPlan::Kind::kSort:
    case PhysicalPlan::Kind::kLimit:
      pass_through(*node->children[0]);
      break;
    case PhysicalPlan::Kind::kProject:
    case PhysicalPlan::Kind::kHashAggregate:
      break;
  }
}

Result<PhysicalPlanPtr> PhysicalPlanner::Lower(
    const LogicalPlanPtr& node) const {
  auto p = std::make_shared<PhysicalPlan>();
  p->est_rows = node->est_rows;
  switch (node->kind) {
    case LogicalPlan::Kind::kScan: {
      p->kind = PhysicalPlan::Kind::kTableScan;
      p->table = node->table;
      p->alias = node->alias;
      p->scan_filters = node->pushed_filters;
      for (const auto& qualified : node->scan_columns) {
        std::string base = qualified.substr(qualified.find('.') + 1);
        size_t idx = 0;
        COSTDB_ASSIGN_OR_RETURN(idx, node->table->ColumnIndex(base));
        p->scan_column_indices.push_back(idx);
        p->output_names.push_back(qualified);
        p->output_types.push_back(node->table->columns()[idx].type);
      }
      p->est_row_bytes = RowBytes(p->output_names, p->output_types);
      // Bytes read from object storage: selected columns of every
      // non-pruned row group. Zone-map pruning is metadata, so the planner
      // may consult it without peeking at data.
      double prune_frac = 0.0;
      for (const auto& f : p->scan_filters) {
        std::string col;
        CompareOp op;
        Value constant;
        if (!MatchColumnCompareConstant(f, &col, &op, &constant)) continue;
        std::string base = col.substr(col.find('.') + 1);
        auto frac = node->table->PruneFraction(base, op, constant);
        if (frac.ok()) prune_frac = std::max(prune_frac, *frac);
      }
      // ComputeVolumes derives the scan's source rows and scanned bytes
      // from this fraction and est_read_row_bytes.
      p->prune_keep_fraction = 1.0 - prune_frac;
      return PhysicalPlanPtr(p);
    }
    case LogicalPlan::Kind::kJoin: {
      p->kind = PhysicalPlan::Kind::kHashJoin;
      PhysicalPlanPtr probe, build;
      COSTDB_ASSIGN_OR_RETURN(probe, Lower(node->children[0]));
      COSTDB_ASSIGN_OR_RETURN(build, Lower(node->children[1]));
      // Hash the smaller side regardless of the logical join order
      // (downstream consumers reference columns by name, so the physical
      // column order is free to change).
      const bool swap_sides = build->est_rows > probe->est_rows;
      if (swap_sides) std::swap(probe, build);
      for (const auto& [l, r] : node->join_keys) {
        p->probe_keys.push_back(swap_sides ? r : l);
        p->build_keys.push_back(swap_sides ? l : r);
      }
      // Partition-wise join: when both sides arrive hash-partitioned on a
      // joined key pair with the same partition count, matching rows are
      // already co-located — kLocal pass-through exchanges move nothing
      // and cost ~nothing, strictly dominating broadcast and shuffle.
      bool copartitioned = false;
      size_t pi = 0, bi = 0;
      if (options_.enable_copartition) {
        std::string probe_part, build_part;
        size_t probe_n = 0, build_n = 0;
        copartitioned =
            HashPartitionSourceOf(probe.get(), &probe_part, &probe_n) &&
            HashPartitionSourceOf(build.get(), &build_part, &build_n) &&
            probe_n == build_n &&
            KeysReferenceColumn(p->probe_keys, probe_part, &pi) &&
            KeysReferenceColumn(p->build_keys, build_part, &bi) && pi == bi;
      }
      double build_bytes = build->est_rows * build->est_row_bytes;
      if (copartitioned) {
        // kLocal exchanges remember the partition key they were elided
        // on, so the sharded engine can refuse a cached plan whose table
        // was since repartitioned on a different column.
        build = WrapExchange(std::move(build), ExchangeKind::kLocal);
        build->partition_exprs = {p->build_keys[bi]};
        probe = WrapExchange(std::move(probe), ExchangeKind::kLocal);
        probe->partition_exprs = {p->probe_keys[pi]};
      } else if (build_bytes < options_.broadcast_threshold_bytes) {
        build = WrapExchange(std::move(build), ExchangeKind::kBroadcast);
      } else {
        build = WrapExchange(std::move(build), ExchangeKind::kShuffle);
        build->partition_exprs = p->build_keys;
        probe = WrapExchange(std::move(probe), ExchangeKind::kShuffle);
        probe->partition_exprs = p->probe_keys;
      }
      p->output_names = probe->output_names;
      p->output_types = probe->output_types;
      p->output_names.insert(p->output_names.end(),
                             build->output_names.begin(),
                             build->output_names.end());
      p->output_types.insert(p->output_types.end(),
                             build->output_types.begin(),
                             build->output_types.end());
      p->est_row_bytes = probe->est_row_bytes + build->est_row_bytes;
      p->children = {std::move(probe), std::move(build)};
      return PhysicalPlanPtr(p);
    }
    case LogicalPlan::Kind::kFilter: {
      p->kind = PhysicalPlan::Kind::kFilter;
      PhysicalPlanPtr child;
      COSTDB_ASSIGN_OR_RETURN(child, Lower(node->children[0]));
      p->predicate = node->predicate;
      p->output_names = child->output_names;
      p->output_types = child->output_types;
      p->est_row_bytes = child->est_row_bytes;
      p->children = {std::move(child)};
      return PhysicalPlanPtr(p);
    }
    case LogicalPlan::Kind::kAggregate: {
      // Two-phase aggregation: partial aggregate on each producer node,
      // exchange only the (small) partial states, then combine. AVG is
      // decomposed into SUM/COUNT partials and restored by a projection.
      PhysicalPlanPtr child;
      COSTDB_ASSIGN_OR_RETURN(child, Lower(node->children[0]));

      auto partial = std::make_shared<PhysicalPlan>();
      partial->kind = PhysicalPlan::Kind::kHashAggregate;
      partial->agg_is_partial = true;
      partial->group_by = node->group_by;
      partial->est_rows = node->est_rows;
      for (const auto& g : node->group_by) {
        partial->output_names.push_back(g->column);
        partial->output_types.push_back(g->type);
      }
      // Final aggregate built alongside.
      auto final_agg = std::make_shared<PhysicalPlan>();
      final_agg->kind = PhysicalPlan::Kind::kHashAggregate;
      final_agg->group_by = node->group_by;
      final_agg->est_rows = node->est_rows;
      for (const auto& g : node->group_by) {
        final_agg->output_names.push_back(g->column);
        final_agg->output_types.push_back(g->type);
      }
      bool needs_avg_projection = false;
      for (size_t i = 0; i < node->aggregates.size(); ++i) {
        const ExprPtr& agg = node->aggregates[i];
        const std::string& name = node->agg_names[i];
        auto add_partial = [&](AggFunc f, ExprPtr arg, const std::string& col) {
          ExprPtr pagg = Expr::MakeAgg(f, std::move(arg));
          partial->aggregates.push_back(pagg);
          partial->agg_names.push_back(col);
          partial->output_names.push_back(col);
          partial->output_types.push_back(pagg->type);
          return pagg->type;
        };
        auto add_final = [&](AggFunc f, const std::string& in_col,
                             LogicalType in_type, const std::string& out) {
          ExprPtr fagg = Expr::MakeAgg(f, Expr::MakeColumn(in_col, in_type));
          final_agg->aggregates.push_back(fagg);
          final_agg->agg_names.push_back(out);
          final_agg->output_names.push_back(out);
          final_agg->output_types.push_back(fagg->type);
        };
        ExprPtr arg = agg->children.empty() ? nullptr : agg->children[0];
        switch (agg->agg) {
          case AggFunc::kCountStar:
          case AggFunc::kCount: {
            LogicalType t = add_partial(agg->agg, arg, name + "__c");
            add_final(AggFunc::kSum, name + "__c", t, name);
            break;
          }
          case AggFunc::kSum: {
            LogicalType t = add_partial(AggFunc::kSum, arg, name + "__s");
            add_final(AggFunc::kSum, name + "__s", t, name);
            break;
          }
          case AggFunc::kMin: {
            LogicalType t = add_partial(AggFunc::kMin, arg, name + "__m");
            add_final(AggFunc::kMin, name + "__m", t, name);
            break;
          }
          case AggFunc::kMax: {
            LogicalType t = add_partial(AggFunc::kMax, arg, name + "__m");
            add_final(AggFunc::kMax, name + "__m", t, name);
            break;
          }
          case AggFunc::kAvg: {
            needs_avg_projection = true;
            LogicalType ts = add_partial(AggFunc::kSum, arg, name + "__s");
            LogicalType tc =
                add_partial(AggFunc::kCount, arg, name + "__c");
            add_final(AggFunc::kSum, name + "__s", ts, name + "__s");
            add_final(AggFunc::kSum, name + "__c", tc, name + "__c");
            break;
          }
        }
      }
      partial->est_row_bytes =
          RowBytes(partial->output_names, partial->output_types);
      final_agg->est_row_bytes =
          RowBytes(final_agg->output_names, final_agg->output_types);
      // Pre-partitioned aggregation: when the input is hash-partitioned on
      // a group column, every group already lives on one worker and the
      // partial states need not move.
      bool group_copartitioned = false;
      size_t gi = 0;
      if (options_.enable_copartition && !node->group_by.empty()) {
        std::string part_col;
        size_t parts = 0;
        group_copartitioned =
            HashPartitionSourceOf(child.get(), &part_col, &parts) &&
            KeysReferenceColumn(node->group_by, part_col, &gi);
      }
      partial->children = {std::move(child)};
      // Partial states move to their group's owner (or to one node for a
      // global aggregate) — tiny compared to the raw input.
      ExchangeKind agg_exchange =
          node->group_by.empty()
              ? ExchangeKind::kGather
              : (group_copartitioned ? ExchangeKind::kLocal
                                     : ExchangeKind::kShuffle);
      PhysicalPlanPtr exchanged = WrapExchange(partial, agg_exchange);
      if (agg_exchange == ExchangeKind::kShuffle) {
        // Shuffle keys: the group columns as the partial emits them.
        for (const auto& g : node->group_by) {
          exchanged->partition_exprs.push_back(g);
        }
      } else if (agg_exchange == ExchangeKind::kLocal) {
        // Remember the group column the elision relied on (see the join
        // case above).
        exchanged->partition_exprs = {node->group_by[gi]};
      }
      final_agg->children = {std::move(exchanged)};

      if (!needs_avg_projection) return PhysicalPlanPtr(final_agg);

      // Restore the declared schema: group columns + agg_i, with
      // agg_i = sum/count for AVG.
      auto project = std::make_shared<PhysicalPlan>();
      project->kind = PhysicalPlan::Kind::kProject;
      project->est_rows = node->est_rows;
      for (const auto& g : node->group_by) {
        project->projections.push_back(g->Clone());
        project->output_names.push_back(g->column);
        project->output_types.push_back(g->type);
      }
      for (size_t i = 0; i < node->aggregates.size(); ++i) {
        const ExprPtr& agg = node->aggregates[i];
        const std::string& name = node->agg_names[i];
        ExprPtr expr;
        if (agg->agg == AggFunc::kAvg) {
          expr = Expr::MakeArith(
              '/', Expr::MakeColumn(name + "__s", LogicalType::kDouble),
              Expr::MakeColumn(name + "__c", LogicalType::kInt64));
        } else {
          expr = Expr::MakeColumn(name, agg->type);
        }
        project->output_types.push_back(expr->type);
        project->projections.push_back(std::move(expr));
        project->output_names.push_back(name);
      }
      project->est_row_bytes =
          RowBytes(project->output_names, project->output_types);
      project->children = {PhysicalPlanPtr(final_agg)};
      return PhysicalPlanPtr(project);
    }
    case LogicalPlan::Kind::kProject: {
      p->kind = PhysicalPlan::Kind::kProject;
      PhysicalPlanPtr child;
      COSTDB_ASSIGN_OR_RETURN(child, Lower(node->children[0]));
      p->projections = node->projections;
      p->output_names = node->projection_names;
      for (const auto& e : node->projections) {
        p->output_types.push_back(e->type);
      }
      p->est_row_bytes = RowBytes(p->output_names, p->output_types);
      p->children = {std::move(child)};
      return PhysicalPlanPtr(p);
    }
    case LogicalPlan::Kind::kSort: {
      p->kind = PhysicalPlan::Kind::kSort;
      PhysicalPlanPtr child;
      COSTDB_ASSIGN_OR_RETURN(child, Lower(node->children[0]));
      child = WrapExchange(std::move(child), ExchangeKind::kGather);
      p->sort_keys = node->sort_keys;
      p->output_names = child->output_names;
      p->output_types = child->output_types;
      p->est_row_bytes = child->est_row_bytes;
      p->children = {std::move(child)};
      return PhysicalPlanPtr(p);
    }
    case LogicalPlan::Kind::kLimit: {
      p->kind = PhysicalPlan::Kind::kLimit;
      PhysicalPlanPtr child;
      COSTDB_ASSIGN_OR_RETURN(child, Lower(node->children[0]));
      p->limit = node->limit;
      // A sort directly below keeps only the rows this limit passes: it
      // becomes a top-N sort. The limit node stays; it also truncates the
      // gathered result of a sharded run.
      if (child->kind == PhysicalPlan::Kind::kSort) {
        child->limit = p->limit;
        // A copy of the top-N sort under its gather makes each worker ship
        // at most `limit` rows. The rows stay bit-identical: SortOrder is
        // stable (the row index is its last key), and the gather still
        // concatenates in worker order, so equal keys keep the order they
        // had in the gathered input.
        PhysicalPlanPtr& gather = child->children[0];
        if (p->limit >= 0 &&
            MergeSpineOf(gather->children[0].get()) == nullptr) {
          auto below = std::make_shared<PhysicalPlan>(*child);
          below->children = {std::move(gather->children[0])};
          gather->children[0] = std::move(below);
        }
      }
      p->output_names = child->output_names;
      p->output_types = child->output_types;
      p->est_row_bytes = child->est_row_bytes;
      p->children = {std::move(child)};
      return PhysicalPlanPtr(p);
    }
  }
  return Status::Internal("unknown logical node");
}

}  // namespace costdb
