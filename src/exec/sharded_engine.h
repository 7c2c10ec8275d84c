#pragma once

#include <functional>

#include "exec/engine.h"
#include "net/transport.h"

namespace costdb {

/// What an elastic width decision can observe at one fragment boundary —
/// the repartition point where an exchange is about to rebucket its input
/// anyway, so changing the consumer's worker count costs only the delta
/// (spin-up + extra receiver partitions), not an extra data movement.
struct FragmentBoundary {
  int index = 0;                 // 0-based ordinal of this boundary
  size_t current_workers = 0;    // width the producers ran at
  double elapsed_seconds = 0.0;  // wall time since Execute began
  /// Wall time spent producing this fragment's exchange inputs (the
  /// just-finished upstream fragments and their exchanges).
  double producer_seconds = 0.0;
  double pending_bytes = 0.0;    // exchange payload about to rebucket
  double pending_rows = 0.0;
  /// Cut exchanges not yet executed anywhere in the plan — a coarse
  /// how-much-is-left signal (0 at the final gather).
  size_t cuts_remaining = 0;
};

/// Width chosen for the fragment about to run; values are clamped to
/// [1, +inf) and missing workers are spun up on demand.
using WidthDecider = std::function<size_t(const FragmentBoundary&)>;

/// Construction knobs of a ShardedEngine — per-worker threading and how
/// exchanged partitions travel. Results are bit-identical across both
/// transports at any width (tested in sharded_test). The width is not
/// among them: every Execute call names its own.
struct ShardedEngineOptions {
  size_t threads_per_worker = 1;
  TransportKind transport = TransportKind::kInProcess;
};

/// Partitioned multi-worker execution: runs a physical plan across N
/// workers, each a LocalEngine over a horizontal slice of the data,
/// stitched together by real exchange operators.
///
/// The same distributed-shaped plans the optimizer already emits (two-phase
/// aggregates, join-side shuffles/broadcasts, root gather) drive execution:
/// the plan is split into *fragments* at exchange boundaries. Every worker
/// runs each fragment on its slice — base-table scans are restricted to the
/// worker's contiguous row-group range (whole partitions for a partitioned
/// table; see storage/partition.h), and exchange inputs arrive as temp
/// tables filled by the parent exchange:
///   - shuffle:   rows are re-bucketed by hash(partition_exprs) % width,
///   - broadcast: every worker receives the full input,
///   - gather:    worker 0 receives everything; downstream fragments of a
///                gathered input run single-worker,
///   - local:     co-partitioned pass-through — no row moves; the fragment
///                keeps both sides and joins/aggregates partition-wise.
///
/// Elasticity: the worker count may change at fragment boundaries. Before a
/// fragment's cut exchanges rebucket, an optional WidthDecider (an Execute
/// argument; runtime/elastic_controller.h supplies the policy-driven one) picks
/// the width the fragment runs at; shuffles then hash into that many buckets
/// and missing workers spin up lazily. Because exchanges rebucket by hash %
/// width regardless, a resize changes no data-movement semantics — and because
/// co-partitioned fragments assign whole partitions to workers via
/// WorkerGroupRange at whatever width is active, partition-wise joins stay
/// correctly aligned across resizes. Machine time is metered per width segment
/// in ExecProfile::usage so elastic runs are billed the worker-seconds they
/// actually held.
///
/// Determinism and LocalEngine parity: all cross-worker merges happen in
/// worker order, worker slices are contiguous shares of the source order,
/// and grouped-aggregate outputs are gathered by k-way merge on the same
/// encoded group key that orders LocalEngine's aggregate output — so
/// results are bit-identical to LocalEngine (and across worker counts AND
/// across arbitrary resize schedules) for order-stable plans:
/// scans/filters/projections, broadcast and co-partitioned joins, grouped
/// and global aggregates, and sorts. Repartition (shuffle) joins produce
/// the same multiset in an order that is deterministic per width schedule
/// but only canonical up to the next order-fixing operator (aggregate or
/// sort). Floating-point SUM/AVG over double columns re-associates across
/// worker partials (integer aggregates stay exact). Partial aggregates
/// emit nothing on an empty shard and NULL for value-less MIN/MAX states
/// (PhysicalPlan::agg_is_partial), so empty or all-NULL shards cannot
/// poison merged extrema.
class ShardedEngine {
 public:
  explicit ShardedEngine(const ShardedEngineOptions& options = {});

  /// Run the plan on `workers` workers (clamped to at least 1); the width
  /// changes at fragment boundaries only through `decider`. Reentrant —
  /// every per-run datum (width, exchange transport, clocks, counters)
  /// lives in a per-call context, so one engine serves concurrent calls at
  /// any widths. `profile` (optional) receives scan and storage counters
  /// summed over workers, the exchange stats and the worker-second
  /// ledger. `decider` (optional) is consulted at each resizable fragment
  /// boundary on the calling thread; it must be fast and must not call
  /// back into the engine.
  Result<QueryResult> Execute(const PhysicalPlan* root, size_t workers,
                              ExecProfile* profile = nullptr,
                              const WidthDecider& decider = {}) const;

 private:
  ShardedEngineOptions options_;
  /// Runs every worker's fragment plan; reentrant, so all workers of all
  /// calls share it.
  LocalEngine worker_engine_;
};

}  // namespace costdb
