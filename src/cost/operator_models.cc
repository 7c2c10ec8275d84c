#include "cost/operator_models.h"

#include <algorithm>
#include <cmath>

#include "common/stats_math.h"

namespace costdb {

double EffectiveParallelism(int dop, double alpha) {
  if (dop <= 1) return 1.0;
  return static_cast<double>(dop) /
         (1.0 + alpha * std::log2(static_cast<double>(dop)));
}

Seconds LinkSeconds(const HardwareCalibration& hw, double plain_bytes,
                    double transfers) {
  return plain_bytes / (hw.wire_serialize_gibps * kGiB) +
         plain_bytes / (hw.link_gibps * kGiB) +
         transfers * hw.link_rtt_seconds;
}

namespace {

class ScanModel : public OperatorModel {
 public:
  explicit ScanModel(const HardwareCalibration* hw) : hw_(hw) {}
  Seconds StageTime(const StageWorkload& w, int dop) const override {
    // Object-store scans are embarrassingly parallel: bandwidth scales
    // linearly with nodes (the paper's canonical elastic operator).
    return w.bytes_in / (hw_->scan_gibps_per_node * kGiB * dop);
  }
  const char* name() const override { return "scan"; }

 private:
  const HardwareCalibration* hw_;
};

/// Per-batch dispatch cost of a vectorized operator: every DataChunk pays
/// a fixed kernel-entry fee on top of its per-row throughput. The ceil
/// keeps a one-row input from costing zero batches. `known_batches` >= 0
/// overrides the row-derived count — scan pipelines dispatch one batch
/// per zone-map-*surviving* morsel, so fully pruned morsels are never
/// charged.
Seconds BatchDispatch(const HardwareCalibration* hw, double rows, int dop,
                      double known_batches = -1.0) {
  if (rows <= 0.0) return 0.0;
  double batches = known_batches >= 0.0
                       ? known_batches
                       : std::ceil(rows / hw->vector_batch_rows);
  return batches * hw->batch_dispatch_seconds / dop;
}

class FilterModel : public OperatorModel {
 public:
  FilterModel(const HardwareCalibration* hw, double rate)
      : hw_(hw), rate_(rate) {}
  Seconds StageTime(const StageWorkload& w, int dop) const override {
    // Batch-at-a-time: selection-vector kernels stream rows at `rate_`,
    // plus a fixed dispatch per chunk.
    return w.rows_in / (rate_ * dop) +
           BatchDispatch(hw_, w.rows_in, dop, w.dispatch_batches);
  }
  const char* name() const override { return "filter"; }

 private:
  const HardwareCalibration* hw_;
  double rate_;
};

class HashBuildModel : public OperatorModel {
 public:
  explicit HashBuildModel(const HardwareCalibration* hw) : hw_(hw) {}
  Seconds StageTime(const StageWorkload& w, int dop) const override {
    double eff = EffectiveParallelism(dop, hw_->parallel_alpha);
    return w.rows_in / (hw_->hash_build_rows_per_sec * eff);
  }
  const char* name() const override { return "hash_build"; }

 private:
  const HardwareCalibration* hw_;
};

class HashProbeModel : public OperatorModel {
 public:
  explicit HashProbeModel(const HardwareCalibration* hw) : hw_(hw) {}
  Seconds StageTime(const StageWorkload& w, int dop) const override {
    double eff = EffectiveParallelism(dop, hw_->parallel_alpha);
    double work = w.rows_in + 0.5 * w.rows_out;  // matches cost extra emits
    // Probe hashes column-at-a-time and gathers matches in bulk, so it
    // pays the same per-chunk dispatch fee as the other batch operators.
    Seconds dispatch = BatchDispatch(hw_, w.rows_in, dop, w.dispatch_batches);
    return work / (hw_->hash_probe_rows_per_sec * eff) + dispatch;
  }
  const char* name() const override { return "hash_probe"; }

 private:
  const HardwareCalibration* hw_;
};

class AggregateModel : public OperatorModel {
 public:
  explicit AggregateModel(const HardwareCalibration* hw) : hw_(hw) {}
  Seconds StageTime(const StageWorkload& w, int dop) const override {
    // Local aggregation parallelizes (morsel partials fold batch-at-a-
    // time, so the per-chunk dispatch fee applies); merging per-node
    // partial tables does not — each extra node adds another partial of
    // `groups` entries. This term is why aggregation has a finite
    // cost-optimal DOP.
    Seconds dispatch = BatchDispatch(hw_, w.rows_in, dop, w.dispatch_batches);
    Seconds local = w.rows_in / (hw_->agg_rows_per_sec * dop) + dispatch;
    Seconds merge =
        w.groups * std::max(0, dop - 1) / hw_->agg_merge_groups_per_sec;
    return local + merge;
  }
  const char* name() const override { return "aggregate"; }

 private:
  const HardwareCalibration* hw_;
};

class SortModel : public OperatorModel {
 public:
  explicit SortModel(const HardwareCalibration* hw) : hw_(hw) {}
  Seconds StageTime(const StageWorkload& w, int dop) const override {
    double n = std::max(w.rows_in, 2.0);
    // Every input row is compared against the rows kept: all n for a full
    // sort, k for a top-N sort (whose output is min(n, k) rows).
    double log_kept = std::log2(std::clamp(w.rows_out, 2.0, n));
    Seconds local = n * log_kept / (hw_->sort_rows_per_sec * dop);
    // Final merge of dop sorted runs happens on one node.
    Seconds merge = dop > 1 ? n * std::log2(static_cast<double>(dop)) /
                                  hw_->sort_rows_per_sec
                            : 0.0;
    return local + merge;
  }
  const char* name() const override { return "sort"; }

 private:
  const HardwareCalibration* hw_;
};

/// Calibrated serialize/copy side of the data-movement term: the byte
/// half of `bytes/shuffle_bw + partitions*dispatch`. It overlaps the wire
/// in the exchange models (both sit under a max), so the cloud-shaped NIC
/// model keeps its scaling behavior while the in-process sharded engine —
/// whose "wire" IS this copy — calibrates it from measured exchange times
/// (the calibration's shuffle group, TermGroup::kShuffle).
Seconds ShuffleCopyTime(const HardwareCalibration* hw, double moved_bytes) {
  return moved_bytes / (hw->shuffle_gibps * kGiB);
}

/// Per-receiver-partition dispatch fee (bucket setup, temp-table build) —
/// the partition half of the calibrated shuffle term.
Seconds ShuffleDispatch(const HardwareCalibration* hw, int partitions) {
  return static_cast<double>(partitions) * hw->shuffle_dispatch_seconds;
}

/// Per-transport link surcharge of the plain payload bytes an exchange
/// moves: zero on the in-process transport (no serialization exists), and
/// LinkSeconds on a serializing transport. Additive on top of the copy/NIC
/// max — serialization and the kernel copy genuinely happen in sequence
/// with the repartition, they don't overlap it (measured as
/// ExchangeTiming::link_seconds; calibrated by the link group,
/// TermGroup::kLink).
Seconds LinkTime(const HardwareCalibration* hw, double moved_bytes,
                 int transfers) {
  if (hw->exchange_transport != LinkTransport::kSocket) return 0.0;
  return LinkSeconds(*hw, moved_bytes, transfers);
}

class ShuffleModel : public OperatorModel {
 public:
  explicit ShuffleModel(const HardwareCalibration* hw) : hw_(hw) {}
  Seconds StageTime(const StageWorkload& w, int dop) const override {
    // Hash partitioning: every row is hashed (CPU), and (dop-1)/dop of the
    // bytes cross the network whose aggregate bandwidth scales sublinearly.
    // The per-node sync term makes latency *rise* again at large DOP —
    // over-scaling a distributed exchange hurts both cost and latency.
    double cpu = w.rows_in / (hw_->exchange_rows_per_sec * dop);
    double frac_remote =
        dop <= 1 ? 0.0 : static_cast<double>(dop - 1) / dop;
    double eff = EffectiveParallelism(dop, hw_->parallel_alpha);
    double moved = w.bytes_in * frac_remote;
    double net = moved / (hw_->network_gibps_per_node * kGiB * eff);
    return std::max({cpu, net, ShuffleCopyTime(hw_, moved)}) +
           LinkTime(hw_, moved, dop) + ShuffleDispatch(hw_, dop) +
           hw_->shuffle_sync_per_node * dop;
  }
  const char* name() const override { return "shuffle"; }

 private:
  const HardwareCalibration* hw_;
};

/// Co-partitioned pass-through: both sides already live on the right
/// worker, so nothing moves and nothing is dispatched.
class LocalExchangeModel : public OperatorModel {
 public:
  Seconds StageTime(const StageWorkload& w, int dop) const override {
    (void)w;
    (void)dop;
    return 0.0;
  }
  const char* name() const override { return "local"; }
};

class BroadcastModel : public OperatorModel {
 public:
  explicit BroadcastModel(const HardwareCalibration* hw) : hw_(hw) {}
  Seconds StageTime(const StageWorkload& w, int dop) const override {
    // Each consumer must receive the whole input: total bytes on the wire
    // grow linearly with dop, so broadcast *time* is constant-to-rising in
    // dop (tree distribution amortizes some of it).
    double per_node = w.bytes_in / (hw_->network_gibps_per_node * kGiB);
    double fanout_penalty =
        1.0 + 0.1 * std::log2(std::max(1.0, static_cast<double>(dop)));
    double moved = w.bytes_in * static_cast<double>(dop > 1 ? dop - 1 : 0);
    // The transport serializes the broadcast payload once (consumers share
    // the decoded copy), so the link surcharge is per-payload, not per
    // consumer.
    return std::max(per_node * fanout_penalty, ShuffleCopyTime(hw_, moved)) +
           LinkTime(hw_, dop > 1 ? w.bytes_in : 0.0, dop > 1 ? 1 : 0) +
           ShuffleDispatch(hw_, dop) + hw_->shuffle_sync_per_node * dop;
  }
  const char* name() const override { return "broadcast"; }

 private:
  const HardwareCalibration* hw_;
};

class GatherModel : public OperatorModel {
 public:
  explicit GatherModel(const HardwareCalibration* hw) : hw_(hw) {}
  Seconds StageTime(const StageWorkload& w, int dop) const override {
    // Single receiver NIC is the bottleneck regardless of producer count,
    // and the receiver copies the full payload into its buffers either
    // way — gather neither speeds up nor slows down with DOP. Over a
    // serializing transport, the (dop-1)/dop share that leaves its
    // producer pays the link terms, one transfer per remote producer.
    const double frac_remote =
        dop <= 1 ? 0.0 : static_cast<double>(dop - 1) / dop;
    return std::max(w.bytes_in / (hw_->network_gibps_per_node * kGiB),
                    ShuffleCopyTime(hw_, w.bytes_in)) +
           LinkTime(hw_, w.bytes_in * frac_remote, dop > 1 ? dop - 1 : 0) +
           ShuffleDispatch(hw_, 1);
  }
  const char* name() const override { return "gather"; }

 private:
  const HardwareCalibration* hw_;
};

}  // namespace

std::unique_ptr<OperatorModel> MakeAnalyticModel(
    const PhysicalPlan& op, const HardwareCalibration* hw) {
  switch (op.kind) {
    case PhysicalPlan::Kind::kTableScan:
      return std::make_unique<ScanModel>(hw);
    case PhysicalPlan::Kind::kFilter:
      return std::make_unique<FilterModel>(hw, hw->filter_rows_per_sec);
    case PhysicalPlan::Kind::kProject:
    case PhysicalPlan::Kind::kLimit:
      return std::make_unique<FilterModel>(hw, hw->project_rows_per_sec);
    case PhysicalPlan::Kind::kHashJoin:
      return std::make_unique<HashProbeModel>(hw);
    case PhysicalPlan::Kind::kHashAggregate:
      return std::make_unique<AggregateModel>(hw);
    case PhysicalPlan::Kind::kSort:
      return std::make_unique<SortModel>(hw);
    case PhysicalPlan::Kind::kExchange:
      switch (op.exchange_kind) {
        case ExchangeKind::kShuffle:
          return std::make_unique<ShuffleModel>(hw);
        case ExchangeKind::kBroadcast:
          return std::make_unique<BroadcastModel>(hw);
        case ExchangeKind::kGather:
          return std::make_unique<GatherModel>(hw);
        case ExchangeKind::kLocal:
          return std::make_unique<LocalExchangeModel>();
      }
  }
  return std::make_unique<FilterModel>(hw, hw->project_rows_per_sec);
}

double SurvivingScanMorsels(const PhysicalPlan& scan) {
  if (scan.kind != PhysicalPlan::Kind::kTableScan || scan.table == nullptr) {
    return -1.0;
  }
  const size_t total_groups = scan.table->row_groups().size();
  const size_t g_end = std::min(total_groups, scan.scan_group_end);
  const size_t g_begin = std::min(scan.scan_group_begin, g_end);
  const double groups = static_cast<double>(g_end - g_begin);
  if (groups <= 0.0) return 0.0;
  const double keep =
      std::min(1.0, std::max(0.0, scan.prune_keep_fraction));
  return std::ceil(groups * keep);
}

Seconds InterpretedFilterChainTime(const HardwareCalibration& hw, double rows,
                                   int conjuncts, double selectivity,
                                   double batches, int dop) {
  if (rows <= 0.0 || conjuncts <= 0) return 0.0;
  if (batches < 0.0) batches = std::ceil(rows / hw.vector_batch_rows);
  const double d = std::max(1, dop);
  const double s = std::min(1.0, std::max(1e-9, selectivity));
  // Progressive narrowing: conjunct c only inspects rows that survived the
  // first c-1 conjuncts; with per-conjunct selectivity s^(1/k) the total
  // rows touched are rows * (1 + s^(1/k) + s^(2/k) + ...).
  const double per = std::pow(s, 1.0 / conjuncts);
  double touched = 0.0;
  double surviving = 1.0;
  for (int c = 0; c < conjuncts; ++c) {
    touched += surviving;
    surviving *= per;
  }
  return rows * touched / (hw.filter_rows_per_sec * d) +
         static_cast<double>(conjuncts) * batches *
             hw.batch_dispatch_seconds / d;
}

std::vector<double> RegressionOperatorModel::Features(const StageWorkload& w,
                                                      int dop) {
  double ld = std::log(static_cast<double>(std::max(dop, 1)));
  return {1.0, std::log1p(w.rows_in), std::log1p(w.bytes_in), ld, ld * ld};
}

bool RegressionOperatorModel::Fit(const std::vector<Sample>& samples) {
  if (samples.size() < 8) return false;
  std::vector<double> x;
  std::vector<double> y;
  for (const auto& s : samples) {
    if (s.observed_time <= 0.0) continue;
    auto f = Features(s.workload, s.dop);
    x.insert(x.end(), f.begin(), f.end());
    y.push_back(std::log(s.observed_time));
  }
  if (y.size() < 6) return false;
  fitted_ = LeastSquares(x, 5, y, &beta_);
  return fitted_;
}

Seconds RegressionOperatorModel::StageTime(const StageWorkload& w,
                                           int dop) const {
  if (!fitted_) return 0.0;
  auto f = Features(w, dop);
  double log_t = 0.0;
  for (size_t i = 0; i < f.size(); ++i) log_t += beta_[i] * f[i];
  return std::exp(log_t);
}

}  // namespace costdb
