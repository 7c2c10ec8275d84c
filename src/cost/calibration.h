#pragma once

#include "common/units.h"

namespace costdb {

/// Exchange transport the calibration prices (cost-model twin of
/// TransportKind in net/transport.h, duplicated so src/cost never includes
/// the net layer). kInProcess pays no link terms; kSocket adds the
/// serialize + link + RTT terms below to every exchange estimate.
enum class LinkTransport {
  kInProcess = 0,
  kSocket = 1,
};

/// Hardware parameters the scalability models refer to, "calibrated before
/// the service starts" (paper Section 3.1). Rates are per node of the
/// default shape; the defaults below correspond to an 8-vCPU node and were
/// chosen so relative operator costs mirror a vectorized engine (scans are
/// storage-bound, exchanges network-bound, hash operators CPU-bound).
struct HardwareCalibration {
  // Storage / network.
  double scan_gibps_per_node = 1.0;      // object-store scan bandwidth
  double network_gibps_per_node = 1.25;  // NIC bandwidth (10 Gbps)

  // Shuffle data-movement term: every byte an exchange moves between
  // workers pays a serialize/copy cost on top of the wire model, and every
  // receiver partition pays a fixed dispatch fee (bucket setup, temp-table
  // build). These are the terms the real ShardedEngine's measured exchange
  // timings calibrate (CalibrationUpdater's shuffle group) — the knob that
  // decides shuffle vs broadcast vs co-partitioned plans and how many
  // workers are worth paying for.
  double shuffle_gibps = 8.0;               // bytes/shuffle_bw copy rate
  Seconds shuffle_dispatch_seconds = 2e-4;  // per receiver partition

  // Per-transport link terms: which transport the engine's exchanges run
  // over (configuration — set by the facade, never calibrated) and what a
  // serializing transport adds on top of the copy term above. A socket
  // exchange pays plain_bytes/serialize_bw (encode+decode+checksum) plus
  // plain_bytes/link_bw (kernel copy through the socket) plus one RTT per
  // transfer; the rates absorb what the wire format's encoding saves.
  // These three are what the calibration's link group learns
  // from the measured serialize+transfer share of exchange wall times, and
  // the shuffle group subtracts that share — so the copy term and the link
  // terms each track their own reality and DOP decisions price real
  // serialization + link cost per transport.
  LinkTransport exchange_transport = LinkTransport::kInProcess;
  double wire_serialize_gibps = 4.0;  // encode+decode+verify bandwidth
  double link_gibps = 2.0;            // socket/loopback payload bandwidth
  Seconds link_rtt_seconds = 5e-5;    // fixed per-transfer latency

  // CPU rates, rows per second per node. Filter/project rates are
  // batch-at-a-time throughputs of the vectorized kernels (selection
  // vectors over flat payloads), not per-row interpreter rates — the
  // scalar reference path is roughly an order of magnitude slower (see
  // bench_e12_vectorized).
  double filter_rows_per_sec = 400e6;
  double project_rows_per_sec = 500e6;
  double hash_build_rows_per_sec = 50e6;
  double hash_probe_rows_per_sec = 80e6;
  double agg_rows_per_sec = 60e6;
  double agg_merge_groups_per_sec = 20e6;
  double sort_rows_per_sec = 15e6;       // per comparison-merge unit
  double exchange_rows_per_sec = 100e6;  // partitioning CPU cost

  // Vectorized execution: rows per DataChunk batch and the fixed dispatch
  // cost each batch pays (operator switch, selection-vector setup, kernel
  // entry). Batched operators cost rows/rate + ceil(rows/batch)*dispatch,
  // which is why tiny inputs don't get free and why the morsel size is a
  // real knob. Seeded here, tightened by the same uniform feedback
  // scaling as every other time term.
  // 4096 matches the engine's materialized-input morsel slices; scan
  // morsels are whole row groups whose size is per-table, so this is a
  // seed, not an exact chunk count.
  double vector_batch_rows = 4096;
  Seconds batch_dispatch_seconds = 5e-7;

  // Persistent block storage (docs/STORAGE.md): a cold block read costs
  // bytes / (storage_read_gibps * GiB) + storage_get_seconds of node time
  // on top of the object-store GET fee. These price the block cache's
  // admission benefit and the LSM compaction trade, and measured cold
  // reads recalibrate them (CalibrationUpdater's storage group) — the
  // same two-term rate+fixed split as the shuffle and link tiers. The
  // seed bandwidth is deliberately below scan_gibps_per_node: cold reads
  // pay decode + checksum verification on top of raw I/O.
  double storage_read_gibps = 0.5;     // cold-block fetch+decode bandwidth
  Seconds storage_get_seconds = 2e-3;  // fixed per-GET latency

  // Parallel-efficiency decay: effective speedup of a data-exchange-heavy
  // operator at dop d is d / (1 + alpha * log2(d)).
  double parallel_alpha = 0.12;

  // Fixed coordination cost per node involved in a shuffle (barrier /
  // connection setup); this is what eventually makes *latency* rise when a
  // pipeline is over-scaled, the paper's over-provisioning hazard.
  Seconds shuffle_sync_per_node = 0.01;

  // Fixed pipeline startup: scheduling, code distribution, and the warm-
  // pool acquire latency the elastic compute layer charges per pipeline.
  Seconds pipeline_startup = 0.55;

  // Per-worker spin-up fee of a mid-query grow (warm-pool acquire, engine
  // construction, scheduler registration). Together with the calibrated
  // shuffle term this prices a candidate resize at a fragment boundary:
  // the exchange rebuckets by hash % width anyway, so growing from c to t
  // workers costs (t - c) * spin-up + (t - c) * shuffle_dispatch extra
  // receiver partitions — what the ElasticController weighs against the
  // predicted latency saving before accepting a ResizePolicy's proposal.
  Seconds worker_spinup_seconds = 0.08;
};

}  // namespace costdb
