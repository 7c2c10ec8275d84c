#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "net/transport.h"
#include "plan/pipeline.h"
#include "storage/cache.h"
#include "storage/data_chunk.h"

namespace costdb {

/// Materialized query output.
struct QueryResult {
  std::vector<std::string> names;
  std::vector<LogicalType> types;
  DataChunk chunk;

  std::string ToString(int64_t limit = 20) const;
};

/// Serialized, type-tagged row-key encoding ('\x01'-separated; strings
/// length-prefixed; doubles bit-exact with -0.0 normalized to 0.0). The
/// aggregate sink encodes each group once at finalize and emits the groups
/// sorted by these bytes, and the sharded engine's key-merge gather orders
/// grouped results by exactly this byte string, so grouped output order is
/// identical across engines and worker counts.
void EncodeRowKeyInto(const std::vector<ColumnVector>& columns, size_t row,
                      std::string* key);
/// Same encoding over the first `num_columns` columns of a chunk.
void EncodeChunkKeyInto(const DataChunk& chunk, size_t num_columns, size_t row,
                        std::string* key);

/// In-memory payload bytes of a chunk (fixed 8B numerics, observed string
/// lengths + a 4B offset word) — what the exchange stats and the shuffle
/// calibration account as "bytes on the wire", and what ExecProfile counts
/// as breaker bytes.
double ChunkPayloadBytes(const DataChunk& chunk);

/// Wall-clock measurement of one pipeline run, used to calibrate the cost
/// estimator's per-operator throughput parameters.
struct PipelineTiming {
  int pipeline_id = 0;
  double seconds = 0.0;
  double source_rows = 0.0;
  double output_rows = 0.0;
  /// Workers the pipeline ran on, the DOP the calibration prices
  /// `seconds` at: 1 on LocalEngine; on ShardedEngine the widest fragment
  /// the pipeline ran in (one that crosses a cut runs partly in each).
  int width = 1;
};

/// Zone-map pruning counters of one Execute call. A "morsel" here is a
/// scan morsel (one row group); pruned morsels are skipped before any row
/// is read, which is where selective predicates win most of their time.
struct ScanStats {
  size_t morsels_total = 0;   // scan morsels considered, pre-pruning
  size_t morsels_pruned = 0;  // skipped whole via zone maps
  size_t rows_scanned = 0;    // rows in surviving morsels
  size_t rows_pruned = 0;     // rows in pruned morsels
  size_t cold_runs = 0;       // runs dispatched: the surviving morsels of
                              // one storage object, pinned in order on one
                              // thread so that one GET serves them

  void MergeFrom(const ScanStats& o) {
    morsels_total += o.morsels_total;
    morsels_pruned += o.morsels_pruned;
    rows_scanned += o.rows_scanned;
    rows_pruned += o.rows_pruned;
    cold_runs += o.cold_runs;
  }
  double pruned_fraction() const {
    return morsels_total == 0
               ? 0.0
               : static_cast<double>(morsels_pruned) /
                     static_cast<double>(morsels_total);
  }
};

/// One observed exchange execution, in the cost model's vocabulary. The
/// CalibrationUpdater folds these into the calibration's shuffle term
/// (bytes / shuffle_gibps + partitions * shuffle_dispatch_seconds), so
/// `bytes` counts what the measured wall time actually processed — every
/// payload byte the in-process movement copied (a broadcast materializes
/// one shared copy, not W wire copies) — while the logical cross-worker
/// charge lives in ExchangeStats::bytes_moved(). When the exchange ran
/// over a serializing transport, `link_seconds` isolates the serialization
/// + link share of `seconds`; the calibration's link group fits the link
/// terms on `plain_bytes` and that share (and the shuffle group subtracts
/// it, so the copy term never chases link time). `wire_bytes` are the
/// encoded frames, which egress bills.
struct ExchangeTiming {
  ExchangeKind kind = ExchangeKind::kShuffle;
  double bytes = 0.0;      // payload bytes the movement copied
  size_t partitions = 0;   // receiver partitions dispatched
  double seconds = 0.0;    // wall time of the repartition/copy step
  TransportKind transport = TransportKind::kInProcess;
  double wire_bytes = 0.0;    // encoded frame bytes (0 for in-process)
  double plain_bytes = 0.0;   // plain payload bytes those frames carried
  size_t transfers = 0;       // transport frames this exchange sent
  double link_seconds = 0.0;  // serialize+transfer share of `seconds`
};

/// Data-movement counters of one exchange kind within one Execute call.
struct ExchangeKindStats {
  size_t count = 0;
  size_t rows_moved = 0;      // rows that left their producing worker
  double bytes_moved = 0.0;   // payload bytes of those rows
  double seconds = 0.0;       // wall time spent in this exchange kind
  double wire_bytes = 0.0;    // serialized frame bytes over the transport
  double link_seconds = 0.0;  // serialize+transfer share of `seconds`
};

/// Data-movement counters of one ShardedEngine::Execute call, broken down
/// by exchange kind (shuffle vs broadcast vs gather move very different
/// byte volumes; a single sum hid which one dominated).
struct ExchangeStats {
  TransportKind transport = TransportKind::kInProcess;
  ExchangeKindStats shuffle;
  ExchangeKindStats broadcast;
  ExchangeKindStats gather;
  std::vector<ExchangeTiming> timings;  // per executed exchange, plan order
  /// The call's own transport counters (each call gets a fresh transport):
  /// socket bytes are the wire bodies plus one 8-byte prefix per frame.
  TransportStats transport_stats;

  size_t exchanges() const {
    return shuffle.count + broadcast.count + gather.count;
  }
  size_t rows_moved() const {
    return shuffle.rows_moved + broadcast.rows_moved + gather.rows_moved;
  }
  double bytes_moved() const {
    return shuffle.bytes_moved + broadcast.bytes_moved + gather.bytes_moved;
  }
  double seconds() const {
    return shuffle.seconds + broadcast.seconds + gather.seconds;
  }
  double wire_bytes() const {
    return shuffle.wire_bytes + broadcast.wire_bytes + gather.wire_bytes;
  }
  double link_seconds() const {
    return shuffle.link_seconds + broadcast.link_seconds +
           gather.link_seconds;
  }

  ExchangeKindStats& ByKind(ExchangeKind kind) {
    switch (kind) {
      case ExchangeKind::kBroadcast:
        return broadcast;
      case ExchangeKind::kGather:
        return gather;
      default:
        return shuffle;  // kShuffle; kLocal never records stats
    }
  }
};

/// One fragment execution at one width (elastic runs interleave widths).
struct FragmentUsage {
  size_t workers = 0;    // width the fragment ran at (1 for post-gather)
  double seconds = 0.0;  // fragment wall time (workers run concurrently)
};

/// Machine-time ledger of one ShardedEngine::Execute call, billed the way
/// the paper says clouds bill: every wall-clock second is charged at the
/// worker count held during it — blocked or skipped workers included.
/// This is what the cloud billing layer converts to dollars for elastic
/// runs.
struct WorkerUsage {
  double wall_seconds = 0.0;
  double worker_seconds = 0.0;   // sum of wall segments x active width
  size_t peak_workers = 0;
  size_t min_workers = 0;
  size_t resizes = 0;            // applied width changes
  size_t workers_spun_up = 0;    // workers added beyond the starting width
  std::vector<FragmentUsage> fragments;  // per executed fragment, run order
};

/// Everything one Execute call measured, filled by the call that produced
/// it — so concurrent calls on one engine never see each other's numbers.
/// It is the whole input of the calibration loop
/// (CalibrationUpdater::Observe).
/// LocalEngine fills timings, scan and storage; ShardedEngine fills
/// timings per pipeline of the plan it ran, scan and storage summed over
/// workers, plus exchange and usage.
struct ExecProfile {
  /// Per-pipeline wall time (the feedback signal of the calibration loop;
  /// see CalibrationUpdater), at most one entry per pipeline id of
  /// BuildPipelines(root). Sharded runs charge each pipeline its slowest
  /// worker's seconds per fragment, summed over the fragments it spans.
  std::vector<PipelineTiming> timings;
  ScanStats scan;
  /// Always zero: the engine has one vectorized path and no fused-kernel
  /// tier. The field remains only because costbench
  /// (bench/costbench/costbench.cc) still reports it as
  /// exec.fused_ms_per_query; it goes with that metric.
  struct {
    double fused_seconds = 0.0;
  } fused;
  /// Block-cache counters: cold-block hits, misses (each one object-store
  /// GET), and the measured read+decode time the calibration's storage
  /// group folds back. All-zero for purely RAM-resident scans.
  BlockCacheStats storage;
  /// ChunkPayloadBytes the run's pipeline breakers hold once its last
  /// pipeline has run: join build sides plus aggregate and sort outputs.
  /// Sharded runs report the largest fragment, summed over its workers.
  double breaker_bytes = 0.0;
  /// Sharded runs only: what the exchanges moved (the shuffle- and
  /// link-term calibration signal) and the worker-second ledger.
  ExchangeStats exchange;
  WorkerUsage usage;
};

/// Morsel-driven, push-style local execution engine, vectorized end to
/// end: scans evaluate predicates on borrowed row-group columns and
/// materialize only surviving rows, filters exchange selection vectors
/// instead of copies, join probes hash column-at-a-time and gather matches
/// in bulk, and aggregation folds each morsel into a lock-free local
/// partial that is merged in morsel order.
///
/// Pipelines run in dependency order, each parallelized over morsels (zone-
/// map-surviving row groups for scans, fixed slices for materialized
/// inputs) on helpers from a shared thread pool. Morsel outputs and
/// aggregate partials are reassembled in morsel order, so results are
/// deterministic for any thread count.
///
/// The engine is reentrant: it holds no per-run state, so one instance
/// serves any number of concurrent Execute calls.
///
/// Exchange operators are no-ops here: locally there is no network. Their
/// cost lives in the cost estimator and the distributed simulator, which
/// share this engine's pipeline decomposition.
class LocalEngine {
 public:
  /// `num_threads` bounds one call's morsel parallelism. Morsels run on
  /// helpers from `pool` — the process-wide ThreadPool::Shared() when
  /// null — see ThreadPool::ParallelFor.
  explicit LocalEngine(size_t num_threads = 8, ThreadPool* pool = nullptr);

  /// Run the plan and return its materialized rows. `profile` (optional)
  /// receives what this call measured.
  Result<QueryResult> Execute(const PhysicalPlan* root,
                              ExecProfile* profile = nullptr) const;

  // Execution state shared across the pipelines of one query; public so the
  // morsel-processing helpers in engine.cc can see it.
  struct BreakerState;
  struct ExecContext;

 private:
  Status RunPipeline(const Pipeline& pipeline, ExecContext* ctx,
                     PipelineTiming* timing) const;

  size_t num_threads_;
  ThreadPool* pool_;  // null = ThreadPool::Shared()
};

}  // namespace costdb
