#include "exec/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>

#include "exec/evaluator.h"
#include "storage/partition.h"

namespace costdb {

namespace {

constexpr size_t kTempRowGroupRows = 4096;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A cut is an exchange that actually moves rows between workers; kLocal
/// (co-partitioned pass-through) stays inside its fragment and the worker
/// engines treat it as a no-op.
bool IsCut(const PhysicalPlan* node) {
  return node->kind == PhysicalPlan::Kind::kExchange &&
         node->exchange_kind != ExchangeKind::kLocal;
}

void CollectCuts(const PhysicalPlan* node,
                 std::vector<const PhysicalPlan*>* cuts) {
  for (const auto& c : node->children) {
    if (IsCut(c.get())) {
      cuts->push_back(c.get());
      continue;  // the exchange subtree belongs to the producing fragments
    }
    CollectCuts(c.get(), cuts);
  }
}

/// Cut exchanges anywhere in the tree (the elastic controller's coarse
/// how-much-is-left signal).
size_t CountCuts(const PhysicalPlan* node) {
  size_t n = IsCut(node) ? 1 : 0;
  for (const auto& c : node->children) n += CountCuts(c.get());
  return n;
}

bool HasBaseScan(const PhysicalPlan* node) {
  if (node->kind == PhysicalPlan::Kind::kTableScan) return true;
  for (const auto& c : node->children) {
    if (IsCut(c.get())) continue;
    if (HasBaseScan(c.get())) return true;
  }
  return false;
}

/// Group-key column count of a fragment whose per-worker output is sorted
/// by encoded group key with disjoint key sets — i.e. the fragment's
/// order-fixing spine is a grouped aggregate over hash-distributed input
/// (a shuffle cut, or a co-partitioned kLocal pass-through), optionally
/// wrapped in projections that pass the group columns through positionally
/// (the planner's AVG-restoring projection does). 0 = plain concatenation.
size_t MergeKeyPrefixOf(const PhysicalPlan* frag_root) {
  std::vector<const PhysicalPlan*> projects;
  const PhysicalPlan* n = MergeSpineOf(frag_root, &projects);
  if (n == nullptr) return 0;
  const PhysicalPlan* child = n->children[0].get();
  const bool distributed_by_key =
      child->kind == PhysicalPlan::Kind::kExchange &&
      (child->exchange_kind == ExchangeKind::kShuffle ||
       child->exchange_kind == ExchangeKind::kLocal);
  if (!distributed_by_key) return 0;
  const size_t k = n->group_by.size();
  // Every projection layer must pass the group columns through as its
  // first k outputs for the merged key order to survive to the fragment
  // output.
  for (const PhysicalPlan* p : projects) {
    if (p->projections.size() < k) return 0;
    const auto& child_names = p->children[0]->output_names;
    if (child_names.size() < k) return 0;
    for (size_t i = 0; i < k; ++i) {
      const Expr& e = *p->projections[i];
      if (e.kind != Expr::Kind::kColumn || e.column != child_names[i]) {
        return 0;
      }
    }
  }
  return k;
}

/// Hash partitioning currently backing a kLocal pass-through: walk down
/// to the base scan and report its partition count plus the qualified
/// partition column ("alias.column"); parts == 0 means the source is no
/// longer hash-partitioned. This walk is wider than the planner's
/// detection walk (physical_planner.cc HashPartitionSourceOf) because it
/// validates chains the planner built — a kLocal over a partial
/// aggregate, projections the planner inserted — while sharing the
/// partitioning check itself (ScanHashPartitioning).
struct LocalSource {
  size_t parts = 0;
  std::string qualified_column;
};
LocalSource LocalExchangeSource(const PhysicalPlan* node) {
  while (node != nullptr) {
    switch (node->kind) {
      case PhysicalPlan::Kind::kFilter:
      case PhysicalPlan::Kind::kProject:
      case PhysicalPlan::Kind::kLimit:
      case PhysicalPlan::Kind::kHashAggregate:  // partial agg keeps locality
        node = node->children[0].get();
        continue;
      case PhysicalPlan::Kind::kExchange:
        if (node->exchange_kind != ExchangeKind::kLocal) return {};
        node = node->children[0].get();
        continue;
      case PhysicalPlan::Kind::kTableScan: {
        auto [parts, qualified] = ScanHashPartitioning(*node);
        return {parts, std::move(qualified)};
      }
      default:
        return {};
    }
  }
  return {};
}

/// True when the kLocal exchange's source table is still hash-partitioned
/// on the column the elision was decided on (the exchange records it in
/// partition_exprs at plan time).
bool LocalExchangeStillValid(const PhysicalPlan* exchange,
                             const LocalSource& src) {
  if (src.parts == 0) return false;
  if (exchange->partition_exprs.empty()) return true;  // pre-key plans
  const Expr& key = *exchange->partition_exprs[0];
  return key.kind == Expr::Kind::kColumn &&
         key.column == src.qualified_column;
}

/// A plan carrying kLocal exchanges was shaped for co-partitioned data.
/// If a table was appended to or repartitioned (fewer parts, different
/// column) since planning, running it partition-wise would silently join
/// mis-aligned shards or split groups across workers — fail loudly
/// instead; the caller replans against current metadata.
Status ValidateCoPartitioning(const PhysicalPlan* node) {
  if (node->kind == PhysicalPlan::Kind::kExchange &&
      node->exchange_kind == ExchangeKind::kLocal &&
      !LocalExchangeStillValid(node, LocalExchangeSource(node))) {
    return Status::Internal(
        "co-partitioned (kLocal) plan is stale: source table is no longer "
        "hash-partitioned on the plan's key; replan");
  }
  if (node->kind == PhysicalPlan::Kind::kHashJoin &&
      node->children.size() == 2) {
    const bool l0 = node->children[0]->kind == PhysicalPlan::Kind::kExchange &&
                    node->children[0]->exchange_kind == ExchangeKind::kLocal;
    const bool l1 = node->children[1]->kind == PhysicalPlan::Kind::kExchange &&
                    node->children[1]->exchange_kind == ExchangeKind::kLocal;
    const LocalSource s0 = LocalExchangeSource(node->children[0].get());
    const LocalSource s1 = LocalExchangeSource(node->children[1].get());
    if (l0 != l1 || (l0 && (s0.parts == 0 || s0.parts != s1.parts))) {
      return Status::Internal(
          "partition-wise join plan is stale: sides are no longer "
          "co-partitioned; replan");
    }
  }
  for (const auto& c : node->children) {
    COSTDB_RETURN_NOT_OK(ValidateCoPartitioning(c.get()));
  }
  return Status::OK();
}

/// LIMIT applied to the final gathered result: the outermost limit on the
/// root's streaming chain (worker-local limits were already applied by the
/// per-worker engines; the global result needs one more truncation).
int64_t RootLimit(const PhysicalPlan* root) {
  int64_t limit = -1;
  const PhysicalPlan* n = root;
  while (n != nullptr) {
    if (n->kind == PhysicalPlan::Kind::kLimit && n->limit >= 0) {
      limit = limit < 0 ? n->limit : std::min(limit, n->limit);
    }
    if ((n->kind == PhysicalPlan::Kind::kLimit ||
         n->kind == PhysicalPlan::Kind::kFilter ||
         n->kind == PhysicalPlan::Kind::kProject ||
         n->kind == PhysicalPlan::Kind::kExchange) &&
        !n->children.empty()) {
      n = n->children[0].get();
      continue;
    }
    break;
  }
  return limit;
}

void TruncateChunk(DataChunk* chunk, int64_t limit) {
  if (limit < 0 || static_cast<int64_t>(chunk->num_rows()) <= limit) return;
  std::vector<uint32_t> head(static_cast<size_t>(limit));
  std::iota(head.begin(), head.end(), 0);
  chunk->Slice(head);
}

/// Gather the selected rows of `chunk` into a fresh chunk (bulk column
/// gathers, no per-row work).
DataChunk GatherRows(const DataChunk& chunk,
                     const std::vector<uint32_t>& sel,
                     const std::vector<LogicalType>& types) {
  DataChunk out(types);
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    out.column(c) = chunk.column(c).Gather(sel);
  }
  return out;
}

std::shared_ptr<Table> MakeTempTable(const PhysicalPlan* exchange,
                                     const DataChunk& rows) {
  std::vector<ColumnDef> cols;
  cols.reserve(exchange->output_names.size());
  for (size_t i = 0; i < exchange->output_names.size(); ++i) {
    cols.push_back(ColumnDef{exchange->output_names[i],
                             exchange->output_types[i]});
  }
  auto table = std::make_shared<Table>("__exchange", std::move(cols),
                                       kTempRowGroupRows);
  if (rows.num_rows() > 0) table->Append(rows);
  return table;
}

/// Per-worker chunks flowing between fragments and exchanges.
struct Shards {
  std::vector<DataChunk> chunks;  // one per worker
  /// All rows live on worker 0 (post-gather); downstream fragments run
  /// single-worker.
  bool single = false;
  /// Every worker holds the full input (post-broadcast); chunks[0] is the
  /// one materialized copy.
  bool shared = false;
  /// When > 0: each shard is sorted by the encoded key of its first
  /// `key_prefix` columns and key sets are disjoint across shards, so a
  /// gather k-way-merges instead of concatenating (grouped aggregates).
  size_t key_prefix = 0;
};

/// A fragment input produced by a cut exchange: the temp table each
/// worker scans in place of the exchange subtree.
struct FragmentInput {
  std::vector<std::shared_ptr<Table>> per_worker;  // size 1 when shared
  bool shared = false;
  bool single = false;
  std::shared_ptr<Table> SharedForWorker(size_t w) const {
    return (shared || single) ? per_worker[0] : per_worker[w];
  }
};

/// Per-worker result of one fragment execution.
struct SlotResult {
  Result<QueryResult> result{Status::Internal("not run")};
  ExecProfile profile;  // scan and storage counters travel back
};

/// Concatenate (or key-merge) shards into one chunk, in worker order.
DataChunk MergeShards(Shards* shards, const std::vector<LogicalType>& types) {
  DataChunk out(types);
  if (shards->single || shards->shared) {
    if (!shards->chunks.empty()) out = std::move(shards->chunks[0]);
    return out;
  }
  if (shards->key_prefix == 0) {
    for (auto& c : shards->chunks) {
      if (c.num_columns() == out.num_columns()) out.Append(c);
    }
    return out;
  }
  // K-way merge on the encoded group key: every shard is key-sorted with
  // disjoint key sets, and the encoding is byte-identical to the one that
  // orders LocalEngine's aggregate output — so the merged order matches a
  // single-node run exactly.
  const size_t k = shards->key_prefix;
  const size_t n = shards->chunks.size();
  std::vector<size_t> cursor(n, 0);
  std::vector<std::string> current(n);
  for (size_t w = 0; w < n; ++w) {
    if (shards->chunks[w].num_rows() > 0) {
      EncodeChunkKeyInto(shards->chunks[w], k, 0, &current[w]);
    }
  }
  while (true) {
    size_t best = n;
    for (size_t w = 0; w < n; ++w) {
      if (cursor[w] >= shards->chunks[w].num_rows()) continue;
      if (best == n || current[w] < current[best]) best = w;
    }
    if (best == n) break;
    out.AppendRowFrom(shards->chunks[best], cursor[best]);
    ++cursor[best];
    if (cursor[best] < shards->chunks[best].num_rows()) {
      EncodeChunkKeyInto(shards->chunks[best], k, cursor[best],
                         &current[best]);
    }
  }
  return out;
}

/// Clone node -> the plan node it was cloned from (a temp-table scan maps
/// to the cut exchange it replaces).
using CloneOrigins = std::map<const PhysicalPlan*, const PhysicalPlan*>;

/// Clone `node` for one worker of `width`: cut exchanges become temp-table
/// scans, base scans get the worker's row-group range. `input_rows`
/// accumulates the rows this worker would read (empty workers are
/// skipped); `origins` records where each clone node came from.
PhysicalPlanPtr CloneForWorker(
    const PhysicalPlan* node, size_t worker, size_t width, bool single,
    const std::map<const PhysicalPlan*, FragmentInput>& inputs,
    double* input_rows, CloneOrigins* origins) {
  auto it = inputs.find(node);
  if (it != inputs.end()) {
    const FragmentInput& fi = it->second;
    auto scan = std::make_shared<PhysicalPlan>();
    scan->kind = PhysicalPlan::Kind::kTableScan;
    scan->table = fi.SharedForWorker(worker);
    scan->alias = "__exchange";
    scan->output_names = node->output_names;
    scan->output_types = node->output_types;
    scan->scan_column_names = node->output_names;
    scan->scan_column_indices.resize(node->output_names.size());
    std::iota(scan->scan_column_indices.begin(),
              scan->scan_column_indices.end(), 0);
    *input_rows += static_cast<double>(scan->table->num_rows());
    (*origins)[scan.get()] = node;
    return scan;
  }
  auto copy = std::make_shared<PhysicalPlan>(*node);
  (*origins)[copy.get()] = node;
  if (copy->kind == PhysicalPlan::Kind::kTableScan) {
    if (!single) {
      auto [begin, end] = WorkerGroupRange(*copy->table, worker, width);
      copy->scan_group_begin = begin;
      copy->scan_group_end = end;
      const auto& groups = copy->table->row_groups();
      for (size_t g = begin; g < std::min(end, groups.size()); ++g) {
        *input_rows += static_cast<double>(groups[g].num_rows());
      }
    } else {
      *input_rows += static_cast<double>(copy->table->num_rows());
    }
    return copy;
  }
  for (auto& child : copy->children) {
    child = CloneForWorker(child.get(), worker, width, single, inputs,
                           input_rows, origins);
  }
  return copy;
}

/// Per-pipeline timings of one sharded run, in the ids of the original
/// plan's pipelines (BuildPipelines(root), so PlannedQuery::pipelines).
/// Every worker runs a clone of one fragment; a clone pipeline counts
/// toward the original pipeline of its sink, else of its last operator,
/// else of its source. A pipeline that crosses a cut runs partly in each
/// fragment it spans: it is charged, per fragment, the seconds of its
/// slowest worker, summed over fragments, at the widest width it ran.
class PipelineAttribution {
 public:
  explicit PipelineAttribution(const PhysicalPlan* root)
      : graph_(BuildPipelines(root)) {
    for (size_t i = 0; i < graph_.pipelines.size(); ++i) {
      const Pipeline& p = graph_.pipelines[i];
      if (p.sink != nullptr) sink_of_[p.sink] = i;
      stream_of_[p.source] = i;
      for (const PhysicalPlan* op : p.operators) stream_of_[op] = i;
    }
  }

  /// Fold one fragment run at `width`: worker w ran a clone shaped like
  /// `clone` and filled `slots[w]`; `origins` maps the clone nodes.
  void AddFragment(const PhysicalPlan* clone, const CloneOrigins& origins,
                   const std::vector<SlotResult>& slots,
                   const std::vector<uint8_t>& skip, size_t width) {
    auto origin = [&](const PhysicalPlan* node) -> const PhysicalPlan* {
      auto it = origins.find(node);
      return it == origins.end() ? nullptr : it->second;
    };
    struct Target {
      size_t global = 0;
      bool starts = false;  // the clone pipeline reads the original source
      bool sinks = false;   // ...and fills its sink
    };
    std::map<int, Target> targets;  // by clone pipeline id
    for (const Pipeline& p : BuildPipelines(clone).pipelines) {
      const PhysicalPlan* last =
          p.operators.empty() ? p.source : p.operators.back();
      const auto& index = p.sink != nullptr ? sink_of_ : stream_of_;
      auto it = index.find(origin(p.sink != nullptr ? p.sink : last));
      if (it == index.end()) continue;
      const Pipeline& g = graph_.pipelines[it->second];
      targets[p.id] = {it->second, origin(p.source) == g.source,
                       p.sink != nullptr};
    }
    std::map<size_t, double> slowest;  // global pipeline -> seconds
    for (size_t w = 0; w < slots.size(); ++w) {
      if (skip[w]) continue;
      std::map<size_t, double> seconds;
      for (const PipelineTiming& t : slots[w].profile.timings) {
        auto it = targets.find(t.pipeline_id);
        if (it == targets.end()) continue;
        const Target& target = it->second;
        PipelineTiming& g = timings_[target.global];
        if (target.starts) g.source_rows += t.source_rows;
        if (target.sinks) g.output_rows += t.output_rows;
        seconds[target.global] += t.seconds;
      }
      for (const auto& [global, s] : seconds) {
        slowest[global] = std::max(slowest[global], s);
      }
    }
    for (const auto& [global, s] : slowest) {
      PipelineTiming& g = timings_[global];
      g.pipeline_id = graph_.pipelines[global].id;
      g.seconds += s;
      g.width = std::max(g.width, static_cast<int>(width));
    }
  }

  /// The timings in pipeline order; the result pipeline's output is the
  /// `result_rows` the run returned.
  std::vector<PipelineTiming> Timings(size_t result_rows) const {
    std::vector<PipelineTiming> out;
    for (const auto& [global, timing] : timings_) {
      out.push_back(timing);
      if (graph_.pipelines[global].sink == nullptr) {
        out.back().output_rows = static_cast<double>(result_rows);
      }
    }
    return out;
  }

 private:
  PipelineGraph graph_;
  std::map<const PhysicalPlan*, size_t> sink_of_;    // breaker -> pipeline
  std::map<const PhysicalPlan*, size_t> stream_of_;  // source/operator -> "
  std::map<size_t, PipelineTiming> timings_;  // by index in graph_
};

/// Per-call execution context of ShardedEngine::Execute: the width, the
/// exchange transport, the clocks and the counters one call mutates. It
/// lives on the caller's stack, so concurrent calls share nothing but the
/// reentrant worker engine and the thread pool.
class Call {
 public:
  Call(const ShardedEngineOptions& options, const LocalEngine& worker_engine,
       const WidthDecider& decider, size_t width, const PhysicalPlan* root,
       ExecProfile* profile)
      : options_(options),
        worker_engine_(worker_engine),
        decider_(decider),
        profile_(profile),
        transport_(MakeTransport(options.transport)),
        active_(std::max<size_t>(1, width)),
        held_(active_),
        cuts_remaining_(CountCuts(root)),
        pipelines_(root),
        exec_start_(NowSeconds()),
        segment_start_(exec_start_) {
    profile_->exchange.transport = transport_->kind();
    profile_->usage.peak_workers = active_;
    profile_->usage.min_workers = active_;
  }

  Result<Shards> RunNode(const PhysicalPlan* node);

  /// Close the books at the end of a successful run that returned
  /// `result_rows`: the last width segment, the wall time, the pipeline
  /// timings and the transport's counters.
  void Finish(size_t result_rows) {
    const double end = NowSeconds();
    CloseUsageSegment(end);
    profile_->usage.wall_seconds = end - exec_start_;
    profile_->timings = pipelines_.Timings(result_rows);
    profile_->exchange.transport_stats = transport_->stats();
  }

 private:
  Result<Shards> RunFragment(const PhysicalPlan* frag_root);

  /// Apply one cut exchange to its producer's output, rebucketing for a
  /// consumer fragment that will run at `width` workers.
  Result<Shards> ApplyExchange(const PhysicalPlan* exchange, Shards in,
                               size_t width);
  Result<Shards> ShuffleShards(Shards in, const PhysicalPlan* exchange,
                               size_t width);
  Result<Shards> BroadcastShards(Shards in, const PhysicalPlan* exchange,
                                 size_t width);
  Result<Shards> GatherShards(Shards in, const PhysicalPlan* exchange);

  /// Close one exchange's books: compute this exchange's transport delta
  /// against `before`, record the timing, and fold it into the per-kind
  /// stats bucket.
  void RecordExchange(ExchangeTiming timing, const TransportStats& before,
                      size_t rows_moved, double bytes_moved);

  /// Consult the decider at a fragment boundary and switch the active
  /// width. Returns the width to run at.
  size_t DecideWidth(double producer_seconds, double pending_bytes,
                     double pending_rows);

  /// Close the current constant-width billing segment at `now` and open
  /// the next one (called on width changes and at the end of the run).
  void CloseUsageSegment(double now) {
    profile_->usage.worker_seconds +=
        (now - segment_start_) * static_cast<double>(active_);
    segment_start_ = now;
  }

  const ShardedEngineOptions& options_;
  const LocalEngine& worker_engine_;
  const WidthDecider& decider_;
  ExecProfile* profile_;
  /// Not thread-safe, so one per call (a socketpair per socket run).
  std::unique_ptr<ExchangeTransport> transport_;
  size_t active_;  // current execution width
  size_t held_;    // widest width this call has held (spin-up ledger)
  size_t cuts_remaining_;
  PipelineAttribution pipelines_;
  int boundary_index_ = 0;
  double exec_start_;
  double segment_start_;  // start of the current constant-width span
};

size_t Call::DecideWidth(double producer_seconds, double pending_bytes,
                         double pending_rows) {
  if (!decider_) return active_;
  FragmentBoundary boundary;
  boundary.index = boundary_index_++;
  boundary.current_workers = active_;
  boundary.elapsed_seconds = NowSeconds() - exec_start_;
  boundary.producer_seconds = producer_seconds;
  boundary.pending_bytes = pending_bytes;
  boundary.pending_rows = pending_rows;
  boundary.cuts_remaining = cuts_remaining_;
  const size_t target = std::max<size_t>(1, decider_(boundary));
  if (target == active_) return active_;
  // Width changes cut a new billing segment: the seconds spent so far are
  // charged at the old width, everything after at the new one.
  CloseUsageSegment(NowSeconds());
  WorkerUsage& usage = profile_->usage;
  if (target > held_) {
    usage.workers_spun_up += target - held_;
    held_ = target;
  }
  ++usage.resizes;
  active_ = target;
  usage.peak_workers = std::max(usage.peak_workers, active_);
  usage.min_workers = std::min(usage.min_workers, active_);
  return active_;
}

Result<Shards> Call::ApplyExchange(const PhysicalPlan* exchange, Shards in,
                                   size_t width) {
  if (cuts_remaining_ > 0) --cuts_remaining_;
  switch (exchange->exchange_kind) {
    case ExchangeKind::kShuffle:
      return ShuffleShards(std::move(in), exchange, width);
    case ExchangeKind::kBroadcast:
      return BroadcastShards(std::move(in), exchange, width);
    case ExchangeKind::kGather:
      return GatherShards(std::move(in), exchange);
    case ExchangeKind::kLocal:
      break;  // not a cut; unreachable
  }
  return in;
}

void Call::RecordExchange(ExchangeTiming timing, const TransportStats& before,
                          size_t rows_moved, double bytes_moved) {
  const TransportStats& now = transport_->stats();
  timing.transport = transport_->kind();
  timing.wire_bytes = now.wire_bytes - before.wire_bytes;
  timing.plain_bytes = now.plain_bytes - before.plain_bytes;
  timing.transfers = now.transfers - before.transfers;
  timing.link_seconds =
      (now.serialize_seconds - before.serialize_seconds) +
      (now.transfer_seconds - before.transfer_seconds);
  ExchangeKindStats& ks = profile_->exchange.ByKind(timing.kind);
  ++ks.count;
  ks.rows_moved += rows_moved;
  ks.bytes_moved += bytes_moved;
  ks.seconds += timing.seconds;
  ks.wire_bytes += timing.wire_bytes;
  ks.link_seconds += timing.link_seconds;
  profile_->exchange.timings.push_back(timing);
}

Result<Shards> Call::ShuffleShards(Shards in, const PhysicalPlan* exchange,
                                   size_t width) {
  if (exchange->partition_exprs.empty()) {
    return Status::Internal("shuffle exchange without partition keys");
  }
  const double start = NowSeconds();
  const TransportStats tp_before = transport_->stats();
  const size_t W = std::max<size_t>(1, width);
  Shards out;
  out.chunks.assign(W, DataChunk(exchange->output_types));

  std::vector<std::string> names = exchange->output_names;
  Evaluator ev(&names);
  double bytes_moved = 0.0;   // logical: left the producing worker
  double bytes_copied = 0.0;  // physical: everything the repartition wrote
  size_t rows_moved = 0;
  const size_t sources = in.single ? 1 : in.chunks.size();
  for (size_t w = 0; w < sources; ++w) {
    DataChunk& chunk = in.chunks[w];
    const size_t rows = chunk.num_rows();
    if (rows == 0) continue;
    std::vector<ColumnVector> keys;
    std::vector<bool> as_double;
    for (const auto& e : exchange->partition_exprs) {
      ColumnVector v;
      COSTDB_ASSIGN_OR_RETURN(v, ev.Evaluate(*e, chunk));
      // Normalize every numeric key to double so an int64 key lands on the
      // same worker as the double it joins with (probe and build shuffles
      // hash independently but must agree).
      as_double.push_back(v.physical_type() != PhysicalType::kString);
      keys.push_back(std::move(v));
    }
    std::vector<uint64_t> hashes;
    kernels::HashRows(keys, as_double, rows, &hashes);
    std::vector<std::vector<uint32_t>> bucket_rows(W);
    for (size_t r = 0; r < rows; ++r) {
      bucket_rows[hashes[r] % W].push_back(static_cast<uint32_t>(r));
    }
    for (size_t b = 0; b < W; ++b) {
      if (bucket_rows[b].empty()) continue;
      DataChunk moved =
          GatherRows(chunk, bucket_rows[b], exchange->output_types);
      const double payload = ChunkPayloadBytes(moved);
      bytes_copied += payload;
      if (b != w) {
        // Only partitions that leave their producing worker cross the
        // transport; the b == w bucket never would on a real network.
        rows_moved += moved.num_rows();
        bytes_moved += payload;
        COSTDB_ASSIGN_OR_RETURN(
            moved, transport_->Send(w, b, std::move(moved),
                                    exchange->output_types));
      }
      out.chunks[b].Append(moved);
    }
    chunk.Clear();
  }

  ExchangeTiming timing;
  timing.kind = ExchangeKind::kShuffle;
  timing.bytes = bytes_copied;
  timing.partitions = W;
  timing.seconds = NowSeconds() - start;
  RecordExchange(timing, tp_before, rows_moved, bytes_moved);
  return out;
}

Result<Shards> Call::BroadcastShards(Shards in, const PhysicalPlan* exchange,
                                     size_t width) {
  const double start = NowSeconds();
  const TransportStats tp_before = transport_->stats();
  const size_t W = std::max<size_t>(1, width);
  Shards out;
  out.shared = true;
  out.chunks.assign(1, DataChunk(exchange->output_types));
  const size_t sources = (in.single || in.shared) ? 1 : in.chunks.size();
  for (size_t w = 0; w < sources; ++w) {
    out.chunks[0].Append(in.chunks[w]);
  }
  // Every other worker receives the full payload; the consumers borrow the
  // one materialized copy, so the stats charge what a fan-out wire would
  // (payload x (W-1)) while the transport carries one serialized copy.
  if (W > 1 && out.chunks[0].num_rows() > 0) {
    DataChunk shipped;
    COSTDB_ASSIGN_OR_RETURN(
        shipped, transport_->Send(0, 1, std::move(out.chunks[0]),
                                  exchange->output_types));
    out.chunks[0] = std::move(shipped);
  }
  const double payload = ChunkPayloadBytes(out.chunks[0]);
  const double bytes = payload * static_cast<double>(W - 1);

  ExchangeTiming timing;
  timing.kind = ExchangeKind::kBroadcast;
  timing.bytes = payload;
  timing.partitions = W;
  timing.seconds = NowSeconds() - start;
  RecordExchange(timing, tp_before, out.chunks[0].num_rows() * (W - 1),
                 bytes);
  return out;
}

Result<Shards> Call::GatherShards(Shards in, const PhysicalPlan* exchange) {
  const double start = NowSeconds();
  const TransportStats tp_before = transport_->stats();
  double bytes = 0.0;   // logical: arrived from other workers
  double copied = 0.0;  // physical: everything the merge wrote
  size_t rows = 0;
  if (!in.single) {
    const size_t sources = in.shared ? 1 : in.chunks.size();
    for (size_t w = 0; w < sources; ++w) {
      const double payload = ChunkPayloadBytes(in.chunks[w]);
      copied += payload;
      if (w > 0) {
        bytes += payload;
        rows += in.chunks[w].num_rows();
        if (in.chunks[w].num_rows() > 0) {
          COSTDB_ASSIGN_OR_RETURN(
              in.chunks[w], transport_->Send(w, 0, std::move(in.chunks[w]),
                                             exchange->output_types));
        }
      }
    }
  }
  Shards out;
  out.single = true;
  DataChunk merged = MergeShards(&in, exchange->output_types);
  out.chunks.assign(1, std::move(merged));

  ExchangeTiming timing;
  timing.kind = ExchangeKind::kGather;
  timing.bytes = copied;
  timing.partitions = 1;
  timing.seconds = NowSeconds() - start;
  RecordExchange(timing, tp_before, rows, bytes);
  return out;
}

Result<Shards> Call::RunNode(const PhysicalPlan* node) {
  if (!IsCut(node)) return RunFragment(node);
  // A bare cut at the plan root (no consuming fragment above): run its
  // producer and apply the exchange at the current width.
  Shards in;
  COSTDB_ASSIGN_OR_RETURN(in, RunNode(node->children[0].get()));
  return ApplyExchange(node, std::move(in), active_);
}

Result<Shards> Call::RunFragment(const PhysicalPlan* frag_root) {
  std::vector<const PhysicalPlan*> cuts;
  CollectCuts(frag_root, &cuts);

  // ---- 1. Run the producer subtree of every cut. Producers are whole
  // upstream fragments; they make their own width decisions recursively,
  // so by the time control returns here their timings are known and the
  // exact payload about to rebucket sits in `produced`.
  const double producers_start = NowSeconds();
  std::vector<Shards> produced;
  produced.reserve(cuts.size());
  for (const PhysicalPlan* cut : cuts) {
    Shards s;
    COSTDB_ASSIGN_OR_RETURN(s, RunNode(cut->children[0].get()));
    produced.push_back(std::move(s));
  }

  // ---- 2. Fragment boundary: pick the width this fragment runs at.
  // Every shuffle/broadcast cut rebuckets by hash % width regardless, so
  // this is the one place a resize is free of extra data movement. A
  // fragment fed only by gathers runs single-worker whatever the width,
  // so no decision is made there.
  bool resizable = false;
  double pending_bytes = 0.0;
  double pending_rows = 0.0;
  for (size_t i = 0; i < cuts.size(); ++i) {
    if (cuts[i]->exchange_kind == ExchangeKind::kGather) continue;
    resizable = true;
    const Shards& s = produced[i];
    const size_t sources = (s.single || s.shared) ? 1 : s.chunks.size();
    for (size_t w = 0; w < sources; ++w) {
      pending_bytes += ChunkPayloadBytes(s.chunks[w]);
      pending_rows += static_cast<double>(s.chunks[w].num_rows());
    }
  }
  size_t width = active_;
  if (resizable) {
    width = DecideWidth(NowSeconds() - producers_start, pending_bytes,
                        pending_rows);
  }

  // ---- 3. Apply the cut exchanges at that width and build the temp-table
  // inputs the worker clones will scan.
  std::map<const PhysicalPlan*, FragmentInput> inputs;
  bool all_inputs_single = !cuts.empty();
  for (size_t i = 0; i < cuts.size(); ++i) {
    const PhysicalPlan* cut = cuts[i];
    Shards s;
    COSTDB_ASSIGN_OR_RETURN(s,
                            ApplyExchange(cut, std::move(produced[i]), width));
    const double build_start = NowSeconds();
    FragmentInput fi;
    fi.shared = s.shared;
    fi.single = s.single;
    if (s.shared || s.single) {
      fi.per_worker.push_back(MakeTempTable(cut, s.chunks[0]));
    } else {
      fi.per_worker.reserve(s.chunks.size());
      for (size_t w = 0; w < s.chunks.size(); ++w) {
        fi.per_worker.push_back(MakeTempTable(cut, s.chunks[w]));
      }
    }
    // Temp-table build is part of the exchange's dispatch cost; fold it
    // into the timing the calibration loop observes (the entry this cut
    // appended last) and that entry's per-kind bucket.
    const double build_seconds = NowSeconds() - build_start;
    if (!profile_->exchange.timings.empty()) {
      ExchangeTiming& t = profile_->exchange.timings.back();
      t.seconds += build_seconds;
      profile_->exchange.ByKind(t.kind).seconds += build_seconds;
    }
    if (!s.single) all_inputs_single = false;
    inputs.emplace(cut, std::move(fi));
  }

  const bool has_base = HasBaseScan(frag_root);
  const bool single = !has_base && all_inputs_single;
  if (!single) {
    // A gathered (single) input inside a distributed fragment would be
    // scanned in full by every worker — W-fold row duplication. The
    // planner never emits such shapes; refuse rather than corrupt.
    bool any_single = has_base && !cuts.empty() && all_inputs_single;
    for (const auto& [cut, fi] : inputs) any_single = any_single || fi.single;
    if (any_single) {
      return Status::Internal(
          "unsupported fragment: gathered input mixed with distributed "
          "inputs");
    }
  }

  // ---- 4. Fan the fragment out across the width's workers.
  const size_t dop = single ? 1 : width;
  std::vector<PhysicalPlanPtr> plans(dop);
  std::vector<uint8_t> skip(dop, 0);
  CloneOrigins origins;
  for (size_t w = 0; w < dop; ++w) {
    double rows_in = 0.0;
    plans[w] = CloneForWorker(frag_root, w, width, single, inputs, &rows_in,
                              &origins);
    // A worker with no input contributes nothing — skipping it (rather
    // than running the engine on zero rows) keeps empty shards from
    // fabricating global-aggregate zero rows; the single-worker finalize
    // above the gather produces the canonical empty-input row instead.
    if (!single && rows_in == 0.0) skip[w] = 1;
  }

  const double frag_start = NowSeconds();
  std::vector<SlotResult> slots(dop);
  // Workers fan out over the shared pool; nested morsel loops inside each
  // worker engine use the same pool from its own threads.
  ThreadPool::Shared().ParallelFor(dop, dop, [&](size_t w) {
    if (skip[w]) return;
    slots[w].result = worker_engine_.Execute(plans[w].get(), &slots[w].profile);
  });
  profile_->usage.fragments.push_back(
      FragmentUsage{dop, NowSeconds() - frag_start});

  Shards out;
  out.single = single;
  out.key_prefix = MergeKeyPrefixOf(frag_root);
  out.chunks.assign(dop, DataChunk(frag_root->output_types));
  double breaker_bytes = 0.0;
  for (size_t w = 0; w < dop; ++w) {
    if (skip[w]) continue;
    COSTDB_RETURN_NOT_OK(slots[w].result.status());
    out.chunks[w] = std::move(slots[w].result->chunk);
    profile_->scan.MergeFrom(slots[w].profile.scan);
    profile_->storage.MergeFrom(slots[w].profile.storage);
    breaker_bytes += slots[w].profile.breaker_bytes;
  }
  profile_->breaker_bytes = std::max(profile_->breaker_bytes, breaker_bytes);
  pipelines_.AddFragment(plans[0].get(), origins, slots, skip, dop);
  return out;
}

}  // namespace

ShardedEngine::ShardedEngine(const ShardedEngineOptions& options)
    : options_(options), worker_engine_(options.threads_per_worker) {
  options_.threads_per_worker =
      std::max<size_t>(1, options_.threads_per_worker);
}

Result<QueryResult> ShardedEngine::Execute(const PhysicalPlan* root,
                                           size_t workers,
                                           ExecProfile* profile,
                                           const WidthDecider& decider) const {
  if (root == nullptr) return Status::InvalidArgument("null plan");
  COSTDB_RETURN_NOT_OK(ValidateCoPartitioning(root));
  ExecProfile local_profile;
  if (profile == nullptr) profile = &local_profile;
  *profile = ExecProfile();
  // Every call starts from its own width; an elastic schedule is per-query,
  // never engine state that leaks into the next query.
  Call call(options_, worker_engine_, decider, workers, root, profile);
  Shards shards;
  COSTDB_ASSIGN_OR_RETURN(shards, call.RunNode(root));
  DataChunk chunk = MergeShards(&shards, root->output_types);
  TruncateChunk(&chunk, RootLimit(root));
  call.Finish(chunk.num_rows());

  QueryResult result;
  result.names = root->output_names;
  result.types = root->output_types;
  result.chunk = std::move(chunk);
  return result;
}

}  // namespace costdb
