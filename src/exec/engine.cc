#include "exec/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <unordered_map>

#include "catalog/hll.h"
#include "common/annotated_mutex.h"
#include "exec/evaluator.h"
#include "storage/table.h"

namespace costdb {

namespace {

constexpr size_t kMorselRows = 4096;

/// Running state of one aggregate function for one group.
struct AggState {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  Value min;
  Value max;
  bool has_value = false;
};

/// Commutative merge of two partial aggregate states (morsel-local partials
/// are merged in morsel order, so results are deterministic for any thread
/// count).
void MergeAggState(AggState* into, const AggState& from) {
  into->count += from.count;
  into->isum += from.isum;
  into->dsum += from.dsum;
  if (from.has_value) {
    if (!into->has_value) {
      into->min = from.min;
      into->max = from.max;
      into->has_value = true;
    } else {
      if (from.min < into->min) into->min = from.min;
      if (into->max < from.max) into->max = from.max;
    }
  }
}

struct GroupState {
  std::vector<Value> group_values;
  std::vector<AggState> aggs;
};

bool KeysEqual(const std::vector<ColumnVector>& a, size_t ra,
               const std::vector<ColumnVector>& b, size_t rb) {
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].IsNull(ra) || b[k].IsNull(rb)) return false;  // NULL joins nothing
    const bool a_str = a[k].physical_type() == PhysicalType::kString;
    const bool b_str = b[k].physical_type() == PhysicalType::kString;
    if (a_str != b_str) return false;
    if (a_str) {
      if (a[k].GetString(ra) != b[k].GetString(rb)) return false;
      continue;
    }
    auto num = [](const ColumnVector& v, size_t i) {
      return v.physical_type() == PhysicalType::kDouble
                 ? v.GetDouble(i)
                 : static_cast<double>(v.GetInt(i));
    };
    if (num(a[k], ra) != num(b[k], rb)) return false;
  }
  return true;
}

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

/// Morsel-local partial aggregation: group index + one state per group.
/// Merged into the global (ordered) table in morsel order after the
/// parallel loop, so no lock is held on the per-row path and results are
/// deterministic; the partial itself can stay unordered — per-key merge
/// order is slot order either way.
struct SlotAggPartial {
  std::unordered_map<std::string, GroupState> groups;
  size_t rows_folded = 0;
};

/// Column-at-a-time fold of one morsel's chunk into `partial`.
Status FoldChunkIntoGroups(const PhysicalPlan* sink,
                           const std::vector<ColumnVector>& group_vecs,
                           const std::vector<ColumnVector>& agg_inputs,
                           size_t rows, SlotAggPartial* partial) {
  partial->rows_folded += rows;
  // Pass 1: per-row group lookup (the only row-at-a-time step; the key
  // buffer is reused so the loop does not allocate once groups repeat).
  std::vector<GroupState*> row_group(rows);
  std::string key;
  for (size_t r = 0; r < rows; ++r) {
    EncodeRowKeyInto(group_vecs, r, &key);
    auto [it, inserted] = partial->groups.try_emplace(key);
    GroupState& gs = it->second;
    if (inserted) {  // aggs may stay empty (aggregate-free GROUP BY)
      gs.aggs.resize(sink->aggregates.size());
      for (const auto& g : group_vecs) {
        gs.group_values.push_back(g.GetValue(r));
      }
    }
    row_group[r] = &gs;
  }
  // Pass 2: one vectorized sweep per aggregate over the typed payloads.
  for (size_t a = 0; a < sink->aggregates.size(); ++a) {
    const Expr& agg = *sink->aggregates[a];
    if (agg.agg == AggFunc::kCountStar) {
      for (size_t r = 0; r < rows; ++r) ++row_group[r]->aggs[a].count;
      continue;
    }
    const ColumnVector& in = agg_inputs[a];
    switch (agg.agg) {
      case AggFunc::kCount:
        // COUNT(col) counts non-null rows of any type — never touch the
        // typed payload (it may be a string column).
        for (size_t r = 0; r < rows; ++r) {
          if (!in.IsNull(r)) ++row_group[r]->aggs[a].count;
        }
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (in.physical_type() == PhysicalType::kInt64) {
          const auto& vals = in.ints();
          for (size_t r = 0; r < rows; ++r) {
            if (in.IsNull(r)) continue;
            AggState& st = row_group[r]->aggs[a];
            ++st.count;
            st.isum += vals[r];
            st.dsum += static_cast<double>(vals[r]);
          }
        } else {
          const auto& vals = in.doubles();
          for (size_t r = 0; r < rows; ++r) {
            if (in.IsNull(r)) continue;
            AggState& st = row_group[r]->aggs[a];
            ++st.count;
            st.dsum += vals[r];
          }
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        for (size_t r = 0; r < rows; ++r) {
          if (in.IsNull(r)) continue;
          AggState& st = row_group[r]->aggs[a];
          ++st.count;
          Value v = in.GetValue(r);
          if (!st.has_value) {
            st.min = v;
            st.max = v;
            st.has_value = true;
          } else {
            if (v < st.min) st.min = v;
            if (st.max < v) st.max = v;
          }
        }
        break;
      default:
        return Status::Internal("unexpected aggregate function");
    }
  }
  return Status::OK();
}

/// Global-aggregate fast path (no GROUP BY): pure column reductions, no
/// key encoding at all.
Status FoldChunkIntoGlobal(const PhysicalPlan* sink,
                           const std::vector<ColumnVector>& agg_inputs,
                           size_t rows, SlotAggPartial* partial) {
  partial->rows_folded += rows;
  GroupState& gs = partial->groups[std::string()];
  if (gs.aggs.empty()) gs.aggs.resize(sink->aggregates.size());
  for (size_t a = 0; a < sink->aggregates.size(); ++a) {
    const Expr& agg = *sink->aggregates[a];
    AggState& st = gs.aggs[a];
    if (agg.agg == AggFunc::kCountStar) {
      st.count += static_cast<int64_t>(rows);
      continue;
    }
    const ColumnVector& in = agg_inputs[a];
    switch (agg.agg) {
      case AggFunc::kCount:
        st.count += kernels::CountValid(in);  // any type, nulls skipped
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        kernels::Accumulate(in, &st.count, &st.isum, &st.dsum);
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        kernels::MinMax(in, &st.min, &st.max, &st.has_value);
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
  std::vector<ColumnVector> build_key_vectors;
  std::unordered_multimap<uint64_t, uint32_t> build_index;
  std::vector<bool> keys_as_double;
  // Aggregate / sort output.
  DataChunk materialized;
  bool materialized_valid = false;
};

struct LocalEngine::ExecContext {
  std::map<const PhysicalPlan*, BreakerState> breakers;
  DataChunk result;
  bool result_valid = false;
  /// When set, the result pipeline streams into this sink (in morsel
  /// order, as prefixes complete) instead of materializing `result`.
  ChunkSink* result_sink = nullptr;
  size_t rows_streamed = 0;
};

namespace {

/// Schema (column names) flowing *into* each streaming operator is the
/// output schema of whatever preceded it; we track it as we apply ops.
struct MorselProcessor {
  const Pipeline* pipeline;
  LocalEngine::ExecContext* ctx;  // breaker states (read-only during probe)
  std::map<const PhysicalPlan*, LocalEngine::BreakerState>* breakers;

  /// Apply the streaming operators from `first_op` on to `chunk` (schema
  /// `names` updated in place). A fused filter→probe morsel enters here
  /// *after* the join it fused through, so it resumes at the next
  /// operator. Returns an error or the transformed chunk (possibly empty).
  Status Apply(DataChunk* chunk, std::vector<std::string>* names,
               size_t first_op = 0) const {
    for (size_t oi = first_op; oi < pipeline->operators.size(); ++oi) {
      const PhysicalPlan* op = pipeline->operators[oi];
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
    const size_t probe_rows = chunk->num_rows();
    for (uint32_t r = 0; r < probe_rows; ++r) {
      // SQL three-valued logic: a NULL probe key matches nothing. Skip
      // before the lookup — NULL keys share one hash tag, so probing
      // would walk the whole NULL chain just for KeysEqual to reject it.
      if (kernels::AnyKeyNull(probe_keys, r)) continue;
      auto range = bs.build_index.equal_range(hashes[r]);
      for (auto m = range.first; m != range.second; ++m) {
        if (!KeysEqual(probe_keys, r, bs.build_key_vectors, m->second)) {
          continue;
        }
        probe_sel.push_back(r);
        build_sel.push_back(m->second);
      }
    }
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

  /// Fused filter→hash-probe: probe straight off the scan's borrowed
  /// row-group columns. `sel` holds the filter survivors (absolute view
  /// rows); only the key columns of survivors are gathered before hashing,
  /// and output columns are gathered once, for *matching* rows only — the
  /// interpreted path's full filtered-chunk materialization never happens.
  /// Hashing, NULL-key rejection, and match order are shared with Probe
  /// (same kernels, same row order), so output is bit-identical.
  Status FusedProbe(const PhysicalPlan* join, const ChunkView& view,
                    const SelectionVector& sel,
                    const std::vector<uint32_t>& key_cols,
                    DataChunk* out_chunk) const {
    auto it = breakers->find(join);
    if (it == breakers->end()) {
      return Status::Internal("probe before build");
    }
    const LocalEngine::BreakerState& bs = it->second;
    std::vector<ColumnVector> probe_keys;
    probe_keys.reserve(key_cols.size());
    for (uint32_t c : key_cols) {
      probe_keys.push_back(view.column(c).Gather(sel));
    }
    std::vector<uint64_t> hashes;
    kernels::HashRows(probe_keys, bs.keys_as_double, sel.size(), &hashes);
    SelectionVector probe_sel;  // indices into the survivor domain
    std::vector<uint32_t> build_sel;
    const size_t probe_rows = sel.size();
    for (uint32_t r = 0; r < probe_rows; ++r) {
      if (kernels::AnyKeyNull(probe_keys, r)) continue;
      auto range = bs.build_index.equal_range(hashes[r]);
      for (auto m = range.first; m != range.second; ++m) {
        if (!KeysEqual(probe_keys, r, bs.build_key_vectors, m->second)) {
          continue;
        }
        probe_sel.push_back(r);
        build_sel.push_back(m->second);
      }
    }
    // Translate survivor-domain matches back to absolute view rows.
    SelectionVector abs_sel(probe_sel.size());
    for (size_t k = 0; k < probe_sel.size(); ++k) {
      abs_sel[k] = sel[probe_sel[k]];
    }
    DataChunk out(join->output_types);
    const size_t probe_cols = view.num_columns();
    for (size_t c = 0; c < probe_cols; ++c) {
      out.column(c) = view.column(c).Gather(abs_sel);
    }
    for (size_t c = 0; c < bs.build_data.num_columns(); ++c) {
      out.column(probe_cols + c) = bs.build_data.column(c).Gather(build_sel);
    }
    *out_chunk = std::move(out);
    return Status::OK();
  }
};

}  // namespace

LocalEngine::LocalEngine(size_t num_threads) : pool_(num_threads) {}

Status LocalEngine::RunPipeline(const Pipeline& pipeline, ExecContext* ctx,
                                PipelineTiming* timing) {
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
      ++scan_stats_.morsels_total;
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
        ++scan_stats_.morsels_pruned;
        scan_stats_.rows_pruned += group.num_rows();
        continue;
      }
      scan_stats_.rows_scanned += group.num_rows();
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

  // ---- 2. Process morsels in parallel, collecting per-slot outputs ----
  std::vector<DataChunk> slot_outputs(morsels.size());
  std::vector<Status> slot_status(morsels.size());
  std::vector<SlotAggPartial> slot_aggs;  // aggregate sink partials

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

  // ---- fused-kernel setup (annotations from the fuse_kernels pass) ----
  // Compiled once per pipeline through the same registry the optimizer
  // priced with; a shape that fails to compile here (stale annotation on a
  // hand-built plan) falls back to the vectorized path per morsel.
  const FusedKernelRegistry& fused_registry = FusedKernelRegistry::Global();
  std::optional<FusedPredicate> fused_pred;
  if (!pipeline.source_is_breaker && src->fuse_scan_filter &&
      combined_scan_filter != nullptr) {
    fused_pred = fused_registry.Compile(*combined_scan_filter,
                                        src->output_names, src->output_types);
  }
  const bool fused_filter_bound =
      combined_scan_filter == nullptr || fused_pred.has_value();
  // Columns to gather for a plain fused select+gather scan: all of them.
  std::vector<size_t> fused_gather_cols;
  if (fused_pred.has_value()) {
    fused_gather_cols.resize(src->scan_column_indices.size());
    for (size_t i = 0; i < fused_gather_cols.size(); ++i) {
      fused_gather_cols[i] = i;
    }
  }
  // Fused filter→aggregate: global-agg sink fed by the scan through
  // exchanges only, every aggregate input a bare scan column.
  std::vector<FusedAggSpec> fused_agg_specs;
  bool fused_agg = false;
  if (agg_sink && sink->fuse_aggregate && sink->group_by.empty() &&
      !pipeline.source_is_breaker && fused_filter_bound) {
    bool ops_ok = true;
    for (const PhysicalPlan* op : pipeline.operators) {
      if (op->kind != PhysicalPlan::Kind::kExchange) ops_ok = false;
    }
    fused_agg = ops_ok && fused_registry.CompileAggregates(
                              sink->aggregates, src->output_names,
                              src->output_types, &fused_agg_specs);
  }
  // Fused filter→hash-probe: the first non-exchange streaming operator is
  // the annotated join and its probe keys are bare scan columns.
  const PhysicalPlan* fused_join = nullptr;
  size_t fused_join_index = 0;
  std::vector<uint32_t> fused_probe_key_cols;
  if (!pipeline.source_is_breaker && !fused_agg && fused_filter_bound) {
    for (size_t i = 0; i < pipeline.operators.size(); ++i) {
      const PhysicalPlan* op = pipeline.operators[i];
      if (op->kind == PhysicalPlan::Kind::kExchange) continue;
      if (op->kind == PhysicalPlan::Kind::kHashJoin && op->fuse_probe) {
        std::vector<uint32_t> cols;
        bool ok = true;
        for (const auto& k : op->probe_keys) {
          const size_t idx = k->kind == Expr::Kind::kColumn
                                 ? src->FindColumn(k->column)
                                 : static_cast<size_t>(-1);
          if (idx == static_cast<size_t>(-1)) {
            ok = false;
            break;
          }
          cols.push_back(static_cast<uint32_t>(idx));
        }
        if (ok && !cols.empty()) {
          fused_join = op;
          fused_join_index = i;
          fused_probe_key_cols = std::move(cols);
        }
      }
      break;  // only the operator adjacent to the scan can fuse with it
    }
  }
  std::vector<FusedExecStats> slot_fused(morsels.size());
  // Per-slot cold-read counters; merged after the barrier like slot_fused.
  std::vector<BlockCacheStats> slot_blocks(morsels.size());

  double source_rows = 0.0;
  for (const Morsel& m : morsels) source_rows += double(m.end - m.begin);

  // Streaming result path: the final pipeline pushes each morsel's output
  // to the client sink as soon as every earlier morsel has been delivered
  // — deterministic morsel order without materializing the whole result.
  const bool streaming = sink == nullptr && ctx->result_sink != nullptr;
  int64_t limit_remaining = -1;  // result-pipeline LIMIT, applied on push
  if (streaming) {
    for (const PhysicalPlan* op : pipeline.operators) {
      if (op->kind == PhysicalPlan::Kind::kLimit && op->limit >= 0) {
        limit_remaining = op->limit;
      }
    }
  }
  Mutex push_mu;
  std::vector<uint8_t> slot_ready(morsels.size(), 0);
  size_t next_push = 0;
  size_t pushed_rows = 0;
  Status push_status;  // first sink failure; surfaced after the barrier

  auto fused_elapsed = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  auto process_inner = [&](size_t slot) {
    const Morsel& m = morsels[slot];
    // Assemble the source chunk.
    DataChunk chunk;
    std::vector<std::string> names = source_names;
    size_t first_op = 0;  // fused probes resume Apply after their join
    if (m.row_group != nullptr) {
      // Pin the group's payload for the duration of the morsel: resident
      // groups borrow in place, cold groups come through the block cache
      // (or one object-store GET) — the engine itself never sees the
      // storage tier, only this Table-level pin.
      Table::RowGroupPin pin;
      {
        auto pinned = src->table->PinRowGroup(
            m.group_index, src->scan_column_indices, &slot_blocks[slot]);
        if (!pinned.ok()) {
          slot_status[slot] = pinned.status();
          return;
        }
        pin = std::move(*pinned);
      }
      ChunkView view;
      for (size_t idx : src->scan_column_indices) {
        view.AddColumn(&pin.column(idx));
      }
      const size_t view_rows = view.num_rows();
      FusedExecStats& fstats = slot_fused[slot];
      bool scan_done = false;
      bool pred_bind_failed = false;

      if (fused_agg) {
        // Fused filter→aggregate fold: survivors go straight from the
        // borrowed row-group columns into the aggregate states — no
        // materialization at all.
        std::vector<FusedAggState> states(fused_agg_specs.size());
        SelectionVector sel;
        auto t0 = std::chrono::steady_clock::now();
        Result<size_t> survivors =
            FusedFilterAggregate(fused_pred ? &*fused_pred : nullptr, view,
                                 fused_agg_specs, &states, &sel);
        if (survivors.ok()) {
          fstats.fused_seconds += fused_elapsed(t0);
          ++fstats.fused_agg_morsels;
          fstats.fused_rows += view_rows;
          if (*survivors > 0) {
            SlotAggPartial& partial = slot_aggs[slot];
            partial.rows_folded += *survivors;
            GroupState& gs = partial.groups[std::string()];
            gs.aggs.resize(sink->aggregates.size());
            for (size_t a = 0; a < fused_agg_specs.size(); ++a) {
              AggState& st = gs.aggs[a];
              const FusedAggState& fs = states[a];
              st.count += fs.count;
              st.isum += fs.isum;
              st.dsum += fs.dsum;
              if (fs.has_value) {
                st.min = fs.min;
                st.max = fs.max;
                st.has_value = true;
              }
            }
          }
          return;  // nothing materialized per slot
        }
        ++fstats.fallback_morsels;  // stale shape: interpreted path below
        pred_bind_failed = true;
      }

      if (!scan_done && !pred_bind_failed && fused_join != nullptr) {
        // Fused filter→hash-probe pipeline.
        SelectionVector sel;
        Status fst;
        auto t0 = std::chrono::steady_clock::now();
        if (fused_pred.has_value()) {
          fst = fused_pred->Select(view, &sel);
        } else {
          sel.resize(view_rows);
          for (uint32_t i = 0; i < view_rows; ++i) sel[i] = i;
        }
        if (fst.ok()) {
          DataChunk out;
          Status pst = processor.FusedProbe(fused_join, view, sel,
                                            fused_probe_key_cols, &out);
          fstats.fused_seconds += fused_elapsed(t0);
          if (!pst.ok()) {
            slot_status[slot] = pst;  // real error (e.g. probe before build)
            return;
          }
          ++fstats.fused_probe_morsels;
          fstats.fused_rows += view_rows;
          chunk = std::move(out);
          names = fused_join->output_names;
          first_op = fused_join_index + 1;
          scan_done = true;
        } else {
          ++fstats.fallback_morsels;
          pred_bind_failed = true;
        }
      }

      if (!scan_done && !pred_bind_failed && fused_pred.has_value()) {
        // Fused select+gather: one pass decides survivors, one gather
        // materializes them — no per-conjunct selection vectors.
        DataChunk projected;
        SelectionVector sel;
        auto t0 = std::chrono::steady_clock::now();
        Status fst =
            fused_pred->SelectGather(view, fused_gather_cols, &projected, &sel);
        if (fst.ok()) {
          fstats.fused_seconds += fused_elapsed(t0);
          ++fstats.fused_filter_morsels;
          fstats.fused_rows += view_rows;
          chunk = std::move(projected);
          scan_done = true;
        } else {
          ++fstats.fallback_morsels;
        }
      }
      if (!scan_done && src->fuse_scan_filter &&
          combined_scan_filter != nullptr && !fused_pred.has_value()) {
        ++fstats.fallback_morsels;  // annotated fused, shape never compiled
      }

      if (!scan_done) {
        if (combined_scan_filter != nullptr) {
          // Filter before materializing: the predicate runs on borrowed
          // row-group columns, and only surviving rows are ever copied.
          Evaluator ev(&names);
          auto sel = ev.EvaluateSelection(*combined_scan_filter, view);
          if (!sel.ok()) {
            slot_status[slot] = sel.status();
            return;
          }
          DataChunk projected;
          for (size_t idx : src->scan_column_indices) {
            projected.AddColumn(pin.column(idx).Gather(*sel));
          }
          chunk = std::move(projected);
        } else {
          DataChunk projected;
          for (size_t idx : src->scan_column_indices) {
            projected.AddColumn(pin.column(idx));
          }
          chunk = std::move(projected);
        }
      }
    } else {
      DataChunk sliced(m.source_chunk->Types());
      sliced.AppendRange(*m.source_chunk, m.begin, m.end);
      chunk = std::move(sliced);
    }
    Status st = processor.Apply(&chunk, &names, first_op);
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

  auto process_one = [&](size_t slot) {
    process_inner(slot);
    if (!streaming) return;
    // Mark this slot delivered (even on error — a stuck prefix would
    // otherwise pin every later chunk) and push all consecutive ready
    // slots. The lock serializes pushes; order is morsel order.
    MutexLock lock(push_mu);
    slot_ready[slot] = 1;
    while (next_push < slot_ready.size() && slot_ready[next_push]) {
      DataChunk& ready = slot_outputs[next_push];
      // A failed morsel latches: nothing after it is pushed, so whatever
      // the client streamed before the error is a correct prefix of the
      // true result (never a row sequence with a hole in the middle).
      if (push_status.ok() && !slot_status[next_push].ok()) {
        push_status = slot_status[next_push];
      }
      const bool ok_to_push = push_status.ok() && ready.num_rows() > 0 &&
                              limit_remaining != 0;
      ++next_push;
      if (!ok_to_push) continue;
      if (limit_remaining > 0 &&
          static_cast<int64_t>(ready.num_rows()) > limit_remaining) {
        std::vector<uint32_t> head(static_cast<size_t>(limit_remaining));
        for (size_t i = 0; i < head.size(); ++i) {
          head[i] = static_cast<uint32_t>(i);
        }
        ready.Slice(head);
      }
      if (limit_remaining > 0) {
        limit_remaining -= static_cast<int64_t>(ready.num_rows());
      }
      pushed_rows += ready.num_rows();
      push_status = ctx->result_sink->Push(std::move(ready));
    }
  };

  if (pool_.num_threads() > 1 && morsels.size() > 1) {
    for (size_t slot = 0; slot < morsels.size(); ++slot) {
      pool_.Submit([&, slot] { process_one(slot); });
    }
    pool_.WaitIdle();
  } else {
    for (size_t slot = 0; slot < morsels.size(); ++slot) process_one(slot);
  }
  for (const auto& st : slot_status) {
    COSTDB_RETURN_NOT_OK(st);
  }
  // Per-slot fused counters merge after the barrier (no atomics on the
  // morsel path), like the aggregate partials.
  for (const auto& fs : slot_fused) fused_stats_.MergeFrom(fs);
  for (const auto& bs : slot_blocks) block_stats_.MergeFrom(bs);

  // Merge aggregate partials in morsel order (deterministic for any thread
  // count; the per-row path above never took a lock).
  std::map<std::string, GroupState> agg_groups;
  size_t agg_rows_folded = 0;
  for (auto& partial : slot_aggs) {
    agg_rows_folded += partial.rows_folded;
    for (auto& [key, gs] : partial.groups) {
      auto [it, inserted] = agg_groups.try_emplace(key, std::move(gs));
      if (inserted) continue;
      GroupState& into = it->second;
      for (size_t a = 0; a < into.aggs.size(); ++a) {
        MergeAggState(&into.aggs[a], gs.aggs[a]);
      }
    }
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

  if (sink == nullptr && ctx->result_sink != nullptr) {
    // Streaming result: every chunk already went out in morsel order.
    COSTDB_RETURN_NOT_OK(push_status);
    ctx->result_valid = true;
    ctx->rows_streamed += pushed_rows;
    if (timing != nullptr) timing->output_rows = double(pushed_rows);
    return Status::OK();
  }

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
    for (const auto& k : sink->build_keys) {
      ColumnVector v;
      COSTDB_ASSIGN_OR_RETURN(v, ev.Evaluate(*k, bs.build_data));
      bs.build_key_vectors.push_back(std::move(v));
    }
    const size_t rows = bs.build_data.num_rows();
    std::vector<uint64_t> hashes;
    kernels::HashRows(bs.build_key_vectors, bs.keys_as_double, rows, &hashes);
    bs.build_index.reserve(rows * 2);
    for (size_t r = 0; r < rows; ++r) {
      // A NULL build key can never be matched; indexing it would only
      // lengthen the shared NULL-tag chain every probe miss walks.
      if (kernels::AnyKeyNull(bs.build_key_vectors, r)) continue;
      bs.build_index.emplace(hashes[r], static_cast<uint32_t>(r));
    }
    if (timing != nullptr) timing->output_rows = double(rows);
    return Status::OK();
  }

  if (sink->kind == PhysicalPlan::Kind::kHashAggregate) {
    BreakerState& bs = ctx->breakers[sink];
    DataChunk out(sink->output_types);
    // Result chunks stay NULL-free by convention: empty inputs and
    // all-NULL MIN/MAX groups zero-fill instead of emitting NULL (the
    // engine's consumers index typed payloads directly).
    auto type_zero = [](LogicalType t) {
      switch (PhysicalTypeOf(t)) {
        case PhysicalType::kDouble:
          return Value(0.0);
        case PhysicalType::kString:
          return Value(std::string());
        case PhysicalType::kInt64:
        default:
          return Value(int64_t{0});
      }
    };
    if (agg_rows_folded == 0 && sink->group_by.empty() &&
        !sink->agg_is_partial) {
      // Global aggregate over empty input: one row of zeros. A *partial*
      // aggregate instead emits nothing — its consumer is the final
      // aggregate, and a fabricated zero from one empty shard would
      // poison the global MIN/MAX merged across workers.
      agg_groups.clear();
      std::vector<Value> row;
      for (const auto& a : sink->aggregates) {
        row.push_back(type_zero(a->type));
      }
      out.AppendRow(row);
    }
    for (const auto& [key, gs] : agg_groups) {
      std::vector<Value> row = gs.group_values;
      for (size_t a = 0; a < sink->aggregates.size(); ++a) {
        const Expr& agg = *sink->aggregates[a];
        const AggState& st = gs.aggs[a];
        switch (agg.agg) {
          case AggFunc::kCountStar:
          case AggFunc::kCount:
            row.push_back(Value(st.count));
            break;
          case AggFunc::kSum:
            if (agg.type == LogicalType::kInt64) {
              row.push_back(Value(st.isum));
            } else {
              row.push_back(Value(st.dsum));
            }
            break;
          case AggFunc::kAvg:
            row.push_back(Value(st.count == 0
                                    ? 0.0
                                    : st.dsum / static_cast<double>(st.count)));
            break;
          case AggFunc::kMin:
          case AggFunc::kMax: {
            // Value-less MIN/MAX: the NULL-free result convention
            // zero-fills — except in a partial, whose consumer (the
            // final aggregate) skips NULL inputs, so NULL is the only
            // emission that cannot corrupt the merged extremum.
            const Value& extremum = agg.agg == AggFunc::kMin ? st.min : st.max;
            if (st.has_value) {
              row.push_back(extremum);
            } else {
              row.push_back(sink->agg_is_partial ? Value::Null()
                                                 : type_zero(agg.type));
            }
            break;
          }
        }
      }
      out.AppendRow(row);
    }
    bs.materialized = std::move(out);
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
    std::vector<uint32_t> order(all.num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      for (size_t k = 0; k < key_vecs.size(); ++k) {
        Value va = key_vecs[k].GetValue(a);
        Value vb = key_vecs[k].GetValue(b);
        if (va == vb) continue;
        bool less = va < vb;
        return sink->sort_keys[k].descending ? !less : less;
      }
      return false;
    });
    all.Slice(order);
    bs.materialized = std::move(all);
    bs.materialized_valid = true;
    if (timing != nullptr) {
      timing->output_rows = double(bs.materialized.num_rows());
    }
    return Status::OK();
  }

  return Status::Internal("unknown sink kind");
}

Status LocalEngine::RunAll(const PhysicalPlan* root, ExecContext* ctx) {
  PipelineGraph graph = BuildPipelines(root);
  timings_.clear();
  scan_stats_ = ScanStats();
  fused_stats_ = FusedExecStats();
  block_stats_ = BlockCacheStats();
  for (const auto& pipeline : graph.pipelines) {
    PipelineTiming t;
    t.pipeline_id = pipeline.id;
    auto start = std::chrono::steady_clock::now();
    COSTDB_RETURN_NOT_OK(RunPipeline(pipeline, ctx, &t));
    auto end = std::chrono::steady_clock::now();
    t.seconds = std::chrono::duration<double>(end - start).count();
    timings_.push_back(t);
  }
  if (!ctx->result_valid) {
    return Status::Internal("query produced no result sink");
  }
  return Status::OK();
}

Result<QueryResult> LocalEngine::Execute(const PhysicalPlan* root) {
  ExecContext ctx;
  COSTDB_RETURN_NOT_OK(RunAll(root, &ctx));
  QueryResult result;
  result.names = root->output_names;
  result.types = root->output_types;
  result.chunk = std::move(ctx.result);
  return result;
}

Result<StreamedResult> LocalEngine::ExecuteToSink(const PhysicalPlan* root,
                                                  ChunkSink* sink) {
  if (sink == nullptr) {
    return Status::InvalidArgument("ExecuteToSink requires a sink");
  }
  ExecContext ctx;
  ctx.result_sink = sink;
  COSTDB_RETURN_NOT_OK(RunAll(root, &ctx));
  StreamedResult out;
  out.names = root->output_names;
  out.types = root->output_types;
  out.rows_streamed = ctx.rows_streamed;
  return out;
}

}  // namespace costdb
