#include "plan/physical_plan.h"

#include "common/table_printer.h"
#include "storage/partition.h"

namespace costdb {

const char* ExchangeKindName(ExchangeKind k) {
  switch (k) {
    case ExchangeKind::kShuffle:
      return "Shuffle";
    case ExchangeKind::kBroadcast:
      return "Broadcast";
    case ExchangeKind::kGather:
      return "Gather";
    case ExchangeKind::kLocal:
      return "Local";
  }
  return "?";
}

const char* PhysicalPlan::KindName() const {
  switch (kind) {
    case Kind::kTableScan:
      return "TableScan";
    case Kind::kFilter:
      return "Filter";
    case Kind::kProject:
      return "Project";
    case Kind::kHashJoin:
      return "HashJoin";
    case Kind::kHashAggregate:
      return "HashAggregate";
    case Kind::kSort:
      return "Sort";
    case Kind::kLimit:
      return "Limit";
    case Kind::kExchange:
      return "Exchange";
  }
  return "?";
}

std::string PhysicalPlan::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + KindName();
  switch (kind) {
    case Kind::kTableScan: {
      out += " " + alias;
      if (!scan_filters.empty()) {
        out += " [";
        for (size_t i = 0; i < scan_filters.size(); ++i) {
          if (i > 0) out += " AND ";
          out += scan_filters[i]->ToString();
        }
        out += "]";
      }
      break;
    }
    case Kind::kFilter:
      out += " " + predicate->ToString();
      break;
    case Kind::kHashJoin: {
      for (size_t i = 0; i < probe_keys.size(); ++i) {
        out += " " + probe_keys[i]->ToString() + "=" +
               build_keys[i]->ToString();
      }
      break;
    }
    case Kind::kExchange:
      out += std::string(" ") + ExchangeKindName(exchange_kind);
      break;
    case Kind::kLimit:
      out += " " + std::to_string(limit);
      break;
    case Kind::kSort:
      if (limit >= 0) out += " top " + std::to_string(limit);
      break;
    default:
      break;
  }
  out += StrFormat(" (est %.0f rows)", est_rows);
  out += "\n";
  for (const auto& c : children) out += c->ToString(indent + 1);
  return out;
}

size_t PhysicalPlan::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < output_names.size(); ++i) {
    if (output_names[i] == name) return i;
  }
  return static_cast<size_t>(-1);
}

namespace {

/// Apply `fn` to every expression slot of one plan node (non-recursive).
/// The single enumeration of PhysicalPlan's expression-bearing fields —
/// new fields get added here once and every traversal sees them.
template <typename Node, typename Fn>
void ForEachExprSlot(Node* node, Fn fn) {
  for (auto& f : node->scan_filters) fn(f);
  if (node->predicate) fn(node->predicate);
  for (auto& p : node->projections) fn(p);
  for (auto& k : node->probe_keys) fn(k);
  for (auto& k : node->build_keys) fn(k);
  for (auto& k : node->partition_exprs) fn(k);
  for (auto& g : node->group_by) fn(g);
  for (auto& a : node->aggregates) fn(a);
  for (auto& s : node->sort_keys) fn(s.expr);
}

}  // namespace

std::vector<std::string> ColumnsReadBy(const PhysicalPlan& node) {
  std::vector<std::string> out;
  ForEachExprSlot(&node, [&out](const ExprPtr& e) { e->CollectColumns(&out); });
  return out;
}

PhysicalPlanPtr BindPlanParams(const PhysicalPlan* root,
                               const std::vector<Value>& params) {
  if (root == nullptr) return nullptr;
  auto node = std::make_shared<PhysicalPlan>(*root);
  for (auto& child : node->children) {
    child = BindPlanParams(child.get(), params);
  }
  ForEachExprSlot(node.get(),
                  [&params](ExprPtr& e) { e = SubstituteParams(e, params); });
  return node;
}

std::pair<size_t, std::string> ScanHashPartitioning(const PhysicalPlan& scan) {
  if (scan.kind != PhysicalPlan::Kind::kTableScan || scan.table == nullptr) {
    return {0, std::string()};
  }
  const TablePartitioning* p = scan.table->partitioning();
  if (p == nullptr || p->spec.kind != PartitionKind::kHash) {
    return {0, std::string()};
  }
  return {p->spec.partitions, scan.alias + "." + p->spec.column};
}

bool PlanHasParams(const PhysicalPlan* root) {
  if (root == nullptr) return false;
  bool found = false;
  ForEachExprSlot(root, [&found](const ExprPtr& e) {
    if (ContainsParam(e)) found = true;
  });
  if (found) return true;
  for (const auto& c : root->children) {
    if (PlanHasParams(c.get())) return true;
  }
  return false;
}

}  // namespace costdb
