#include "exec/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include "exec/evaluator.h"
#include "exec/hash_table.h"
#include "storage/persistent.h"
#include "storage/table.h"

namespace costdb {

namespace {

constexpr size_t kMorselRows = 4096;

/// One column's contribution to the serialized row key (see
/// EncodeRowKeyInto in engine.h for the format contract).
void EncodeKeyColumn(const ColumnVector& g, size_t row, std::string* key) {
  if (g.IsNull(row)) {
    *key += 'n';
    *key += '\x01';
    return;
  }
  switch (g.physical_type()) {
    case PhysicalType::kInt64:
      *key += 'i';
      *key += std::to_string(g.GetInt(row));
      break;
    case PhysicalType::kDouble: {
      // Bit-exact encoding: to_string's 6 decimals would merge nearby
      // distinct values into one group. -0.0 normalizes to 0.0 so the
      // two (equal) zeros stay one group.
      double d = g.GetDouble(row);
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      *key += 'd';
      *key += std::to_string(bits);
      break;
    }
    case PhysicalType::kString: {
      const std::string& s = g.GetString(row);
      *key += 's';
      *key += std::to_string(s.size());
      *key += ':';
      *key += s;
      break;
    }
  }
  *key += '\x01';
}

bool IsMinMax(AggFunc f) { return f == AggFunc::kMin || f == AggFunc::kMax; }

/// Running states of one aggregate, one entry per group id: COUNT keeps
/// `count`; SUM and AVG `count`, `isum` and `dsum`; MIN and MAX
/// `has_value` and the bounds, typed like their input.
struct AggStates {
  AggFunc func = AggFunc::kCountStar;
  std::vector<int64_t> count;
  std::vector<int64_t> isum;
  std::vector<double> dsum;
  std::vector<uint8_t> has_value;
  ColumnVector min;
  ColumnVector max;

  void Resize(size_t groups) {
    if (!IsMinMax(func)) {
      count.resize(groups);
      if (func == AggFunc::kSum || func == AggFunc::kAvg) {
        isum.resize(groups);
        dsum.resize(groups);
      }
      return;
    }
    has_value.resize(groups);
    for (ColumnVector* v : {&min, &max}) {
      switch (v->physical_type()) {
        case PhysicalType::kInt64:
          v->ints().resize(groups);
          break;
        case PhysicalType::kDouble:
          v->doubles().resize(groups);
          break;
        case PhysicalType::kString:
          v->strings().resize(groups);
          break;
      }
    }
  }
};

/// Widen group `g`'s bounds by [lo, hi]. The first bounds seed it; later
/// ones replace a bound only when strictly beyond it, in Value::operator<'s
/// order, so a NaN seen first stays and the first of two equal zeros
/// stays.
template <typename T>
void FoldBounds(const T& lo, const T& hi, size_t g, std::vector<T>* mins,
                std::vector<T>* maxs, uint8_t* has_value) {
  if (!*has_value) {
    (*mins)[g] = lo;
    (*maxs)[g] = hi;
    *has_value = 1;
    return;
  }
  if (lo < (*mins)[g]) (*mins)[g] = lo;
  if ((*maxs)[g] < hi) (*maxs)[g] = hi;
}

/// MIN/MAX sweep: row r of `in` folds into group row_group[r], or into
/// group 0 when `row_group` is null.
template <typename T>
void FoldExtrema(const ColumnVector& in, const std::vector<T>& vals,
                 const uint32_t* row_group, std::vector<T>* mins,
                 std::vector<T>* maxs, std::vector<uint8_t>* has_value) {
  const size_t rows = vals.size();
  if (row_group == nullptr) {
    // One group: find its extreme rows by the same rule, then fold once.
    size_t lo = rows;
    size_t hi = rows;
    for (size_t r = 0; r < rows; ++r) {
      if (in.IsNull(r)) continue;
      if (lo == rows) {
        lo = hi = r;
        continue;
      }
      if (vals[r] < vals[lo]) lo = r;
      if (vals[hi] < vals[r]) hi = r;
    }
    if (lo < rows) {
      FoldBounds(vals[lo], vals[hi], 0, mins, maxs, &(*has_value)[0]);
    }
    return;
  }
  for (size_t r = 0; r < rows; ++r) {
    if (in.IsNull(r)) continue;
    const uint32_t g = row_group[r];
    FoldBounds(vals[r], vals[r], g, mins, maxs, &(*has_value)[g]);
  }
}

Status FoldExtrema(const ColumnVector& in, const uint32_t* row_group,
                   AggStates* st) {
  if (in.physical_type() != st->min.physical_type()) {
    return Status::Internal("MIN/MAX input changed type");
  }
  switch (in.physical_type()) {
    case PhysicalType::kInt64:
      FoldExtrema(in, in.ints(), row_group, &st->min.ints(), &st->max.ints(),
                  &st->has_value);
      break;
    case PhysicalType::kDouble:
      FoldExtrema(in, in.doubles(), row_group, &st->min.doubles(),
                  &st->max.doubles(), &st->has_value);
      break;
    case PhysicalType::kString:
      FoldExtrema(in, in.strings(), row_group, &st->min.strings(),
                  &st->max.strings(), &st->has_value);
      break;
  }
  return Status::OK();
}

/// Folds group `src` of `from` into group `dst` of `into`; `seed` when
/// `from` is the first partial that holds the group.
void MergeStates(const AggStates& from, uint32_t src, bool seed,
                 AggStates* into, uint32_t dst) {
  if (!IsMinMax(from.func)) {
    into->count[dst] += from.count[src];
    if (from.isum.empty()) return;
    into->isum[dst] += from.isum[src];
    // The seed's sum is copied bit for bit: adding it to the new group's
    // zero would turn a -0.0 into 0.0.
    into->dsum[dst] = seed ? from.dsum[src] : into->dsum[dst] + from.dsum[src];
    return;
  }
  if (!from.has_value[src]) return;
  uint8_t* has_value = &into->has_value[dst];
  switch (into->min.physical_type()) {
    case PhysicalType::kInt64:
      FoldBounds(from.min.ints()[src], from.max.ints()[src], dst,
                 &into->min.ints(), &into->max.ints(), has_value);
      break;
    case PhysicalType::kDouble:
      FoldBounds(from.min.doubles()[src], from.max.doubles()[src], dst,
                 &into->min.doubles(), &into->max.doubles(), has_value);
      break;
    case PhysicalType::kString:
      FoldBounds(from.min.strings()[src], from.max.strings()[src], dst,
                 &into->min.strings(), &into->max.strings(), has_value);
      break;
  }
}

/// Morsel-local partial aggregation, and the table the partials merge into
/// after the parallel loop: dense group ids plus typed per-aggregate
/// states. No lock is held on the per-row path.
struct AggPartial {
  GroupTable groups;
  std::vector<AggStates> aggs;
  size_t rows_folded = 0;

  /// Size the aggregate states on first use; MIN/MAX bounds take the type
  /// of their input, `input_types[a]`.
  void Init(const PhysicalPlan* sink,
            const std::vector<LogicalType>& input_types) {
    if (!aggs.empty() || sink->aggregates.empty()) return;
    aggs.resize(sink->aggregates.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      aggs[a].func = sink->aggregates[a]->agg;
      if (IsMinMax(aggs[a].func)) {
        aggs[a].min = ColumnVector(input_types[a]);
        aggs[a].max = ColumnVector(input_types[a]);
      }
    }
  }

  /// The one group of an aggregate without GROUP BY.
  uint32_t GlobalGroup() {
    const uint32_t g = groups.FindOrAdd({}, 0, 0);
    for (auto& st : aggs) st.Resize(groups.size());
    return g;
  }

  /// Merge a later morsel's partial (morsel order keeps every double sum
  /// in one fixed order). The first partial that holds a group seeds it.
  Status MergeFrom(AggPartial&& from) {
    rows_folded += from.rows_folded;
    if (from.groups.size() == 0) return Status::OK();
    if (groups.size() == 0) {
      const size_t rows = rows_folded;
      *this = std::move(from);
      rows_folded = rows;
      return Status::OK();
    }
    for (size_t k = 0; k < groups.keys().size(); ++k) {
      if (groups.keys()[k].physical_type() !=
          from.groups.keys()[k].physical_type()) {
        return Status::Internal("group key changed type");
      }
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].min.physical_type() != from.aggs[a].min.physical_type()) {
        return Status::Internal("MIN/MAX input changed type");
      }
    }
    for (uint32_t g = 0; g < from.groups.size(); ++g) {
      const uint32_t before = groups.size();
      const uint32_t into =
          groups.FindOrAdd(from.groups.keys(), g, from.groups.hash(g));
      const bool seed = into == before;
      for (size_t a = 0; a < aggs.size(); ++a) {
        if (seed) aggs[a].Resize(groups.size());
        MergeStates(from.aggs[a], g, seed, &aggs[a], into);
      }
    }
    return Status::OK();
  }
};

std::vector<LogicalType> AggInputTypes(
    const std::vector<ColumnVector>& agg_inputs) {
  std::vector<LogicalType> types;
  types.reserve(agg_inputs.size());
  for (const auto& in : agg_inputs) types.push_back(in.type());
  return types;
}

/// Column-at-a-time fold of one morsel's chunk into `partial`: one pass
/// maps each row to its group id through the hash table, then one typed
/// sweep per aggregate folds the rows into the group's states.
Status FoldChunkIntoGroups(const PhysicalPlan* sink,
                           const std::vector<ColumnVector>& group_vecs,
                           const std::vector<ColumnVector>& agg_inputs,
                           size_t rows, AggPartial* partial) {
  partial->rows_folded += rows;
  partial->Init(sink, AggInputTypes(agg_inputs));
  std::vector<uint64_t> hashes;
  kernels::HashRows(group_vecs, std::vector<bool>(group_vecs.size(), false),
                    rows, &hashes);
  std::vector<uint32_t> row_group(rows);
  for (size_t r = 0; r < rows; ++r) {
    row_group[r] = partial->groups.FindOrAdd(group_vecs, r, hashes[r]);
  }
  for (auto& st : partial->aggs) st.Resize(partial->groups.size());
  for (size_t a = 0; a < sink->aggregates.size(); ++a) {
    const Expr& agg = *sink->aggregates[a];
    AggStates& st = partial->aggs[a];
    if (agg.agg == AggFunc::kCountStar) {
      for (size_t r = 0; r < rows; ++r) ++st.count[row_group[r]];
      continue;
    }
    const ColumnVector& in = agg_inputs[a];
    switch (agg.agg) {
      case AggFunc::kCount:
        // COUNT(col) counts non-null rows of any type — never touch the
        // typed payload (it may be a string column).
        for (size_t r = 0; r < rows; ++r) {
          if (!in.IsNull(r)) ++st.count[row_group[r]];
        }
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (in.physical_type() == PhysicalType::kInt64) {
          const auto& vals = in.ints();
          for (size_t r = 0; r < rows; ++r) {
            if (in.IsNull(r)) continue;
            const uint32_t g = row_group[r];
            ++st.count[g];
            st.isum[g] += vals[r];
            st.dsum[g] += static_cast<double>(vals[r]);
          }
        } else {
          const auto& vals = in.doubles();
          for (size_t r = 0; r < rows; ++r) {
            if (in.IsNull(r)) continue;
            const uint32_t g = row_group[r];
            ++st.count[g];
            st.dsum[g] += vals[r];
          }
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        COSTDB_RETURN_NOT_OK(FoldExtrema(in, row_group.data(), &st));
        break;
      default:
        return Status::Internal("unexpected aggregate function");
    }
  }
  return Status::OK();
}

/// Global-aggregate fast path (no GROUP BY): pure column reductions into
/// the one group, no hashing at all.
Status FoldChunkIntoGlobal(const PhysicalPlan* sink,
                           const std::vector<ColumnVector>& agg_inputs,
                           size_t rows, AggPartial* partial) {
  partial->rows_folded += rows;
  partial->Init(sink, AggInputTypes(agg_inputs));
  const uint32_t g = partial->GlobalGroup();
  for (size_t a = 0; a < sink->aggregates.size(); ++a) {
    const Expr& agg = *sink->aggregates[a];
    AggStates& st = partial->aggs[a];
    if (agg.agg == AggFunc::kCountStar) {
      st.count[g] += static_cast<int64_t>(rows);
      continue;
    }
    const ColumnVector& in = agg_inputs[a];
    switch (agg.agg) {
      case AggFunc::kCount:
        st.count[g] += kernels::CountValid(in);  // any type, nulls skipped
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        kernels::Accumulate(in, &st.count[g], &st.isum[g], &st.dsum[g]);
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        COSTDB_RETURN_NOT_OK(FoldExtrema(in, nullptr, &st));
        break;
      default:
        return Status::Internal("unexpected aggregate function");
    }
  }
  return Status::OK();
}

}  // namespace

void EncodeRowKeyInto(const std::vector<ColumnVector>& columns, size_t row,
                      std::string* key) {
  key->clear();
  for (const auto& g : columns) EncodeKeyColumn(g, row, key);
}

void EncodeChunkKeyInto(const DataChunk& chunk, size_t num_columns, size_t row,
                        std::string* key) {
  key->clear();
  for (size_t c = 0; c < num_columns; ++c) {
    EncodeKeyColumn(chunk.column(c), row, key);
  }
}

namespace {

Value TypeZero(LogicalType t) {
  switch (PhysicalTypeOf(t)) {
    case PhysicalType::kDouble:
      return Value(0.0);
    case PhysicalType::kString:
      return Value(std::string());
    case PhysicalType::kInt64:
    default:
      return Value(int64_t{0});
  }
}

/// dst->AppendValue(src.GetValue(row)) without boxing a same-typed cell.
void AppendCell(const ColumnVector& src, size_t row, ColumnVector* dst) {
  if (src.IsNull(row)) {
    dst->AppendNull();
  } else if (src.physical_type() == dst->physical_type()) {
    dst->AppendFrom(src, row);
  } else {
    dst->AppendValue(src.GetValue(row));
  }
}

/// The aggregate sink's output: one row per group, the groups sorted by
/// their EncodeRowKeyInto bytes, encoded once per group here. Result chunks
/// stay NULL-free by convention: empty inputs and all-NULL MIN/MAX groups
/// zero-fill instead of emitting NULL (the engine's consumers index typed
/// payloads directly).
Result<DataChunk> EmitGroups(const PhysicalPlan* sink,
                             const AggPartial& merged) {
  DataChunk out(sink->output_types);
  const size_t num_keys = sink->group_by.size();
  if (out.num_columns() != num_keys + sink->aggregates.size()) {
    return Status::Internal("aggregate output schema mismatch");
  }
  if (merged.rows_folded == 0 && sink->group_by.empty() &&
      !sink->agg_is_partial) {
    // Global aggregate over empty input: one row of zeros. A *partial*
    // aggregate instead emits nothing — its consumer is the final
    // aggregate, and a fabricated zero from one empty shard would poison
    // the global MIN/MAX merged across workers.
    for (size_t a = 0; a < sink->aggregates.size(); ++a) {
      out.column(a).AppendValue(TypeZero(sink->aggregates[a]->type));
    }
    return out;
  }
  const uint32_t groups = merged.groups.size();
  if (groups == 0) return out;
  std::vector<std::string> encoded(groups);
  for (uint32_t g = 0; g < groups; ++g) {
    EncodeRowKeyInto(merged.groups.keys(), g, &encoded[g]);
  }
  std::vector<uint32_t> order(groups);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return encoded[a] < encoded[b];
  });
  for (size_t k = 0; k < num_keys; ++k) {
    for (uint32_t g : order) {
      AppendCell(merged.groups.keys()[k], g, &out.column(k));
    }
  }
  for (size_t a = 0; a < sink->aggregates.size(); ++a) {
    const Expr& agg = *sink->aggregates[a];
    const AggStates& st = merged.aggs[a];
    ColumnVector& col = out.column(num_keys + a);
    for (uint32_t g : order) {
      switch (agg.agg) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          col.AppendValue(Value(st.count[g]));
          break;
        case AggFunc::kSum:
          col.AppendValue(agg.type == LogicalType::kInt64 ? Value(st.isum[g])
                                                          : Value(st.dsum[g]));
          break;
        case AggFunc::kAvg: {
          const double n = static_cast<double>(st.count[g]);
          col.AppendValue(Value(st.count[g] == 0 ? 0.0 : st.dsum[g] / n));
          break;
        }
        case AggFunc::kMin:
        case AggFunc::kMax:
          // Value-less MIN/MAX: the NULL-free result convention zero-fills
          // — except in a partial, whose consumer (the final aggregate)
          // skips NULL inputs, so NULL is the only emission that cannot
          // corrupt the merged extremum.
          if (st.has_value[g]) {
            AppendCell(agg.agg == AggFunc::kMin ? st.min : st.max, g, &col);
          } else if (sink->agg_is_partial) {
            col.AppendNull();
          } else {
            col.AppendValue(TypeZero(agg.type));
          }
          break;
      }
    }
  }
  return out;
}

}  // namespace

std::string QueryResult::ToString(int64_t limit) const {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += " | ";
    out += names[i];
  }
  out += "\n";
  out += chunk.ToString(limit);
  return out;
}

/// Materialized output and/or join hash table of a pipeline breaker.
struct LocalEngine::BreakerState {
  // Join build.
  DataChunk build_data;
  JoinTable build_table;
  std::vector<bool> keys_as_double;
  // Aggregate / sort output.
  DataChunk materialized;
  bool materialized_valid = false;
};

struct LocalEngine::ExecContext {
  std::map<const PhysicalPlan*, BreakerState> breakers;
  DataChunk result;
  bool result_valid = false;
  ExecProfile* profile = nullptr;  // this call's counters; never null
};

namespace {

/// Schema (column names) flowing *into* each streaming operator is the
/// output schema of whatever preceded it; we track it as we apply ops.
struct MorselProcessor {
  const Pipeline* pipeline;
  LocalEngine::ExecContext* ctx;  // breaker states (read-only during probe)
  std::map<const PhysicalPlan*, LocalEngine::BreakerState>* breakers;

  /// Apply the streaming operators to `chunk` (schema `names` updated in
  /// place). Returns an error or the transformed chunk (possibly empty).
  Status Apply(DataChunk* chunk, std::vector<std::string>* names) const {
    for (const PhysicalPlan* op : pipeline->operators) {
      if (chunk->num_rows() == 0 &&
          op->kind != PhysicalPlan::Kind::kHashJoin) {
        *names = op->output_names;
        DataChunk empty(op->output_types);
        *chunk = std::move(empty);
        continue;
      }
      switch (op->kind) {
        case PhysicalPlan::Kind::kFilter: {
          Evaluator ev(names);
          SelectionVector sel;
          COSTDB_ASSIGN_OR_RETURN(sel,
                                  ev.EvaluateSelection(*op->predicate, *chunk));
          chunk->Slice(sel);
          break;
        }
        case PhysicalPlan::Kind::kProject: {
          Evaluator ev(names);
          DataChunk out;
          for (const auto& p : op->projections) {
            ColumnVector v;
            COSTDB_ASSIGN_OR_RETURN(v, ev.Evaluate(*p, *chunk));
            out.AddColumn(std::move(v));
          }
          *chunk = std::move(out);
          *names = op->output_names;
          break;
        }
        case PhysicalPlan::Kind::kExchange:
          break;  // no network locally
        case PhysicalPlan::Kind::kLimit:
          break;  // applied at result finalization
        case PhysicalPlan::Kind::kHashJoin: {
          COSTDB_RETURN_NOT_OK(Probe(op, chunk, names));
          break;
        }
        default:
          return Status::Internal("unexpected streaming operator");
      }
    }
    return Status::OK();
  }

  /// Vectorized probe: hash every probe row column-at-a-time, collect the
  /// matching (probe, build) row pairs, then gather output columns in bulk.
  Status Probe(const PhysicalPlan* join, DataChunk* chunk,
               std::vector<std::string>* names) const {
    auto it = breakers->find(join);
    if (it == breakers->end()) {
      return Status::Internal("probe before build");
    }
    const LocalEngine::BreakerState& bs = it->second;
    Evaluator ev(names);
    std::vector<ColumnVector> probe_keys;
    for (const auto& k : join->probe_keys) {
      ColumnVector v;
      COSTDB_ASSIGN_OR_RETURN(v, ev.Evaluate(*k, *chunk));
      probe_keys.push_back(std::move(v));
    }
    std::vector<uint64_t> hashes;
    kernels::HashRows(probe_keys, bs.keys_as_double, chunk->num_rows(),
                      &hashes);
    SelectionVector probe_sel;
    std::vector<uint32_t> build_sel;
    bs.build_table.Probe(probe_keys, hashes, &probe_sel, &build_sel);
    DataChunk out(join->output_types);
    const size_t probe_cols = chunk->num_columns();
    for (size_t c = 0; c < probe_cols; ++c) {
      out.column(c) = chunk->column(c).Gather(probe_sel);
    }
    for (size_t c = 0; c < bs.build_data.num_columns(); ++c) {
      out.column(probe_cols + c) = bs.build_data.column(c).Gather(build_sel);
    }
    *chunk = std::move(out);
    *names = join->output_names;
    return Status::OK();
  }

};

}  // namespace

LocalEngine::LocalEngine(size_t num_threads, ThreadPool* pool)
    : num_threads_(std::max<size_t>(1, num_threads)), pool_(pool) {}

Status LocalEngine::RunPipeline(const Pipeline& pipeline, ExecContext* ctx,
                                PipelineTiming* timing) const {
  // ---- 1. Build the morsel list ----
  struct Morsel {
    const DataChunk* source_chunk = nullptr;  // row group or materialized
    size_t begin = 0;
    size_t end = 0;  // rows [begin, end)
    const RowGroup* row_group = nullptr;
    size_t group_index = 0;  // index into the table's row groups
  };
  std::vector<Morsel> morsels;
  std::vector<std::string> source_names;
  ScanStats& scan_stats = ctx->profile->scan;
  const PhysicalPlan* src = pipeline.source;
  if (src == nullptr) return Status::Internal("pipeline without source");

  if (!pipeline.source_is_breaker) {
    // TableScan source: one morsel per row group that survives zone-map
    // pruning. A pruned morsel is never touched again — its rows are not
    // read, filtered, or materialized.
    source_names = src->output_names;
    const auto& groups = src->table->row_groups();
    // A sharded worker scans only its contiguous row-group share; the
    // default [0, SIZE_MAX) covers the whole table.
    const size_t g_end = std::min(groups.size(), src->scan_group_end);
    for (size_t g = std::min(src->scan_group_begin, g_end); g < g_end; ++g) {
      const RowGroup& group = groups[g];
      ++scan_stats.morsels_total;
      bool prunable = false;
      for (const auto& f : src->scan_filters) {
        std::string col;
        CompareOp op;
        Value constant;
        if (!MatchColumnCompareConstant(f, &col, &op, &constant)) continue;
        // Strip the alias qualifier to find the base column.
        auto dot = col.find('.');
        std::string base = dot == std::string::npos ? col : col.substr(dot + 1);
        auto idx = src->table->ColumnIndex(base);
        if (!idx.ok()) continue;
        if (!group.zones[*idx].MayMatch(op, constant)) {
          prunable = true;
          break;
        }
      }
      if (prunable) {
        ++scan_stats.morsels_pruned;
        scan_stats.rows_pruned += group.num_rows();
        continue;
      }
      scan_stats.rows_scanned += group.num_rows();
      Morsel m;
      m.row_group = &group;
      m.group_index = g;
      m.begin = 0;
      m.end = group.num_rows();
      morsels.push_back(m);
    }
  } else {
    auto it = ctx->breakers.find(src);
    if (it == ctx->breakers.end() || !it->second.materialized_valid) {
      return Status::Internal("pipeline source not materialized");
    }
    source_names = src->output_names;
    const DataChunk& data = it->second.materialized;
    for (size_t begin = 0; begin < data.num_rows(); begin += kMorselRows) {
      Morsel m;
      m.source_chunk = &data;
      m.begin = begin;
      m.end = std::min(begin + kMorselRows, data.num_rows());
      morsels.push_back(m);
    }
    if (data.num_rows() == 0) {
      Morsel m;
      m.source_chunk = &data;
      morsels.push_back(m);  // empty morsel keeps global aggregates alive
    }
  }

  // Dispatch units (ParallelFor indices). The surviving cold morsels of one
  // storage object become one unit, a run that one ranged GET serves, when
  // any of them lacks a projected column in the block cache. Every other
  // morsel is a unit of its own, so warm scans keep per-morsel balance.
  struct Unit {
    size_t begin = 0;  // morsel slots [begin, end)
    size_t end = 0;
    bool run = false;
  };
  std::vector<Unit> units;
  units.reserve(morsels.size());
  std::vector<size_t> object_groups;
  for (size_t i = 0; i < morsels.size();) {
    const RowGroup* group = morsels[i].row_group;
    size_t j = i + 1;
    bool run = false;
    if (group != nullptr && !group->resident) {
      auto same_object = [&](size_t k) {
        const RowGroup* g = morsels[k].row_group;
        return g != nullptr && !g->resident &&
               g->object_id == group->object_id;
      };
      while (j < morsels.size() && same_object(j)) ++j;
      object_groups.clear();
      for (size_t k = i; k < j; ++k) {
        object_groups.push_back(morsels[k].group_index);
      }
      run = !src->table->Cached(object_groups, src->scan_column_indices);
    }
    if (run) {
      units.push_back(Unit{i, j, true});
      ++scan_stats.cold_runs;
    } else {
      for (size_t k = i; k < j; ++k) units.push_back(Unit{k, k + 1, false});
    }
    i = j;
  }
  // A scan with runs admits columns, which may evict the cached cold
  // morsels of other objects before they run, and each would then cost a
  // GET of its own. Such a scan pins them now.
  std::vector<BlockCacheStats> slot_blocks(morsels.size());
  std::vector<std::optional<Result<Table::RowGroupPin>>> early_pins(
      morsels.size());
  if (scan_stats.cold_runs > 0) {
    for (const Unit& unit : units) {
      const Morsel& m = morsels[unit.begin];
      if (unit.run || m.row_group == nullptr || m.row_group->resident) {
        continue;
      }
      early_pins[unit.begin] = src->table->PinRowGroup(
          m.group_index, src->scan_column_indices, &slot_blocks[unit.begin]);
    }
  }

  // ---- 2. Process morsels in parallel, collecting per-slot outputs ----
  std::vector<DataChunk> slot_outputs(morsels.size());
  std::vector<Status> slot_status(morsels.size());
  std::vector<AggPartial> slot_aggs;  // aggregate sink partials

  MorselProcessor processor{&pipeline, ctx, &ctx->breakers};
  const PhysicalPlan* sink = pipeline.sink;
  const bool agg_sink =
      sink != nullptr && sink->kind == PhysicalPlan::Kind::kHashAggregate &&
      !pipeline.sink_is_build_side;
  if (agg_sink) slot_aggs.resize(morsels.size());
  const ExprPtr combined_scan_filter =
      (!pipeline.source_is_breaker && !src->scan_filters.empty())
          ? CombineConjuncts(src->scan_filters)
          : nullptr;

  double source_rows = 0.0;
  for (const Morsel& m : morsels) source_rows += double(m.end - m.begin);

  auto process_one = [&](size_t slot, BlockRun* run) {
    const Morsel& m = morsels[slot];
    // Assemble the source chunk.
    DataChunk chunk;
    std::vector<std::string> names = source_names;
    if (m.row_group != nullptr) {
      // Pin the group's payload for the duration of the morsel: resident
      // groups borrow in place, cold groups come through the block cache
      // (or the run's ranged GET) — the engine itself never sees the
      // object store, only this Table-level pin.
      Table::RowGroupPin pin;
      {
        auto pinned = early_pins[slot].has_value()
                          ? std::move(*early_pins[slot])
                          : src->table->PinRowGroup(m.group_index,
                                                    src->scan_column_indices,
                                                    &slot_blocks[slot], run);
        if (!pinned.ok()) {
          slot_status[slot] = pinned.status();
          return;
        }
        pin = std::move(*pinned);
      }
      DataChunk projected;
      if (combined_scan_filter != nullptr) {
        // Filter before materializing: the predicate runs on borrowed
        // row-group columns, and only surviving rows are ever copied.
        ChunkView view;
        for (size_t idx : src->scan_column_indices) {
          view.AddColumn(&pin.column(idx));
        }
        Evaluator ev(&names);
        auto sel = ev.EvaluateSelection(*combined_scan_filter, view);
        if (!sel.ok()) {
          slot_status[slot] = sel.status();
          return;
        }
        for (size_t idx : src->scan_column_indices) {
          projected.AddColumn(pin.column(idx).Gather(*sel));
        }
      } else {
        for (size_t idx : src->scan_column_indices) {
          projected.AddColumn(pin.column(idx));
        }
      }
      chunk = std::move(projected);
    } else {
      DataChunk sliced(m.source_chunk->Types());
      sliced.AppendRange(*m.source_chunk, m.begin, m.end);
      chunk = std::move(sliced);
    }
    Status st = processor.Apply(&chunk, &names);
    if (!st.ok()) {
      slot_status[slot] = st;
      return;
    }
    if (agg_sink) {
      // Fold this chunk into the slot-local partial aggregation.
      Evaluator ev(&names);
      std::vector<ColumnVector> group_vecs;
      for (const auto& g : sink->group_by) {
        auto v = ev.Evaluate(*g, chunk);
        if (!v.ok()) {
          slot_status[slot] = v.status();
          return;
        }
        group_vecs.push_back(std::move(*v));
      }
      std::vector<ColumnVector> agg_inputs;
      for (const auto& a : sink->aggregates) {
        if (a->children.empty()) {
          agg_inputs.emplace_back();  // COUNT(*) has no input
          continue;
        }
        auto v = ev.Evaluate(*a->children[0], chunk);
        if (!v.ok()) {
          slot_status[slot] = v.status();
          return;
        }
        agg_inputs.push_back(std::move(*v));
      }
      if (chunk.num_rows() == 0) return;
      if (sink->group_by.empty()) {
        slot_status[slot] = FoldChunkIntoGlobal(sink, agg_inputs,
                                                chunk.num_rows(),
                                                &slot_aggs[slot]);
      } else {
        slot_status[slot] = FoldChunkIntoGroups(
            sink, group_vecs, agg_inputs, chunk.num_rows(), &slot_aggs[slot]);
      }
      return;  // nothing materialized per slot
    }
    slot_outputs[slot] = std::move(chunk);
  };

  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::Shared();
  pool.ParallelFor(units.size(), num_threads_, [&](size_t u) {
    const Unit& unit = units[u];
    std::unique_ptr<BlockRun> run;  // released when the run ends
    if (unit.run) {
      std::vector<uint64_t> block_ids;
      for (size_t slot = unit.begin; slot < unit.end; ++slot) {
        block_ids.push_back(morsels[slot].row_group->block_id);
      }
      run = std::make_unique<BlockRun>(std::move(block_ids));
    }
    for (size_t slot = unit.begin; slot < unit.end; ++slot) {
      process_one(slot, run.get());
    }
  });
  for (const auto& st : slot_status) {
    COSTDB_RETURN_NOT_OK(st);
  }
  for (const auto& bs : slot_blocks) ctx->profile->storage.MergeFrom(bs);

  // Merge aggregate partials in morsel order (deterministic for any thread
  // count; the per-row path above never took a lock).
  AggPartial merged;
  for (auto& partial : slot_aggs) {
    COSTDB_RETURN_NOT_OK(merged.MergeFrom(std::move(partial)));
  }

  if (timing != nullptr) {
    timing->source_rows = source_rows;
  }

  // ---- 3. Finalize the sink ----
  // Concatenate slot outputs in morsel order (deterministic).
  auto concatenate = [&](std::vector<LogicalType> types) {
    DataChunk all(std::move(types));
    for (auto& s : slot_outputs) {
      if (s.num_columns() == all.num_columns()) all.Append(s);
    }
    return all;
  };

  if (sink == nullptr) {
    // Result sink. The streamed schema is the root's output schema.
    std::vector<LogicalType> types = pipeline.operators.empty()
                                         ? src->output_types
                                         : pipeline.operators.back()->output_types;
    ctx->result = concatenate(types);
    // Apply any LIMIT in this pipeline (root-level semantics).
    for (const PhysicalPlan* op : pipeline.operators) {
      if (op->kind == PhysicalPlan::Kind::kLimit && op->limit >= 0 &&
          static_cast<int64_t>(ctx->result.num_rows()) > op->limit) {
        std::vector<uint32_t> head(static_cast<size_t>(op->limit));
        for (size_t i = 0; i < head.size(); ++i) head[i] = static_cast<uint32_t>(i);
        ctx->result.Slice(head);
      }
    }
    ctx->result_valid = true;
    if (timing != nullptr) timing->output_rows = double(ctx->result.num_rows());
    return Status::OK();
  }

  if (pipeline.sink_is_build_side) {
    BreakerState& bs = ctx->breakers[sink];
    bs.build_data = concatenate(sink->children[1]->output_types);
    // Evaluate build keys and index them.
    std::vector<std::string> build_names = sink->children[1]->output_names;
    Evaluator ev(&build_names);
    bs.keys_as_double.clear();
    for (size_t k = 0; k < sink->build_keys.size(); ++k) {
      bool as_double = sink->build_keys[k]->type == LogicalType::kDouble ||
                       sink->probe_keys[k]->type == LogicalType::kDouble;
      bs.keys_as_double.push_back(as_double);
    }
    std::vector<ColumnVector> keys;
    for (const auto& k : sink->build_keys) {
      ColumnVector v;
      COSTDB_ASSIGN_OR_RETURN(v, ev.Evaluate(*k, bs.build_data));
      keys.push_back(std::move(v));
    }
    const size_t rows = bs.build_data.num_rows();
    std::vector<uint64_t> hashes;
    kernels::HashRows(keys, bs.keys_as_double, rows, &hashes);
    bs.build_table.Build(std::move(keys), hashes);
    if (timing != nullptr) timing->output_rows = double(rows);
    return Status::OK();
  }

  if (sink->kind == PhysicalPlan::Kind::kHashAggregate) {
    BreakerState& bs = ctx->breakers[sink];
    COSTDB_ASSIGN_OR_RETURN(bs.materialized, EmitGroups(sink, merged));
    bs.materialized_valid = true;
    if (timing != nullptr) {
      timing->output_rows = double(bs.materialized.num_rows());
    }
    return Status::OK();
  }

  if (sink->kind == PhysicalPlan::Kind::kSort) {
    BreakerState& bs = ctx->breakers[sink];
    DataChunk all = concatenate(sink->output_types);
    std::vector<std::string> names = sink->output_names;
    Evaluator ev(&names);
    std::vector<ColumnVector> key_vecs;
    for (const auto& k : sink->sort_keys) {
      ColumnVector v;
      COSTDB_ASSIGN_OR_RETURN(v, ev.Evaluate(*k.expr, all));
      key_vecs.push_back(std::move(v));
    }
    std::vector<bool> descending;
    for (const auto& k : sink->sort_keys) descending.push_back(k.descending);
    // A top-N sort (a LIMIT directly above, copied onto the node by the
    // planner) keeps only its first `limit` rows.
    all.Slice(kernels::SortOrder(key_vecs, descending, all.num_rows(),
                                 sink->limit));
    bs.materialized = std::move(all);
    bs.materialized_valid = true;
    if (timing != nullptr) {
      timing->output_rows = double(bs.materialized.num_rows());
    }
    return Status::OK();
  }

  return Status::Internal("unknown sink kind");
}

Result<QueryResult> LocalEngine::Execute(const PhysicalPlan* root,
                                         ExecProfile* profile) const {
  ExecProfile local_profile;
  ExecContext ctx;
  ctx.profile = profile != nullptr ? profile : &local_profile;
  *ctx.profile = ExecProfile();
  PipelineGraph graph = BuildPipelines(root);
  for (const auto& pipeline : graph.pipelines) {
    PipelineTiming t;
    t.pipeline_id = pipeline.id;
    auto start = std::chrono::steady_clock::now();
    COSTDB_RETURN_NOT_OK(RunPipeline(pipeline, &ctx, &t));
    auto end = std::chrono::steady_clock::now();
    t.seconds = std::chrono::duration<double>(end - start).count();
    ctx.profile->timings.push_back(t);
  }
  if (!ctx.result_valid) {
    return Status::Internal("query produced no result sink");
  }
  QueryResult result;
  result.names = root->output_names;
  result.types = root->output_types;
  result.chunk = std::move(ctx.result);
  return result;
}

}  // namespace costdb
