#include "cost/calibration_updater.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "cost/operator_models.h"
#include "exec/engine.h"

namespace costdb {

namespace {

/// EWMA learning rate: a step's scale is ratio^rate, so repeated
/// observations converge geometrically instead of chasing one noisy run.
constexpr double kCalibrationLearningRate = 0.5;

struct Pair {
  double predicted = 0.0;
  double actual = 0.0;
};

/// What a group's pair reader may look at: the run, the plan it ran, and
/// the calibration as the earlier groups of the round left it.
struct Inputs {
  const ExecProfile& profile;
  const PipelineGraph& graph;
  const VolumeMap& volumes;
  const CostEstimator& estimator;
  const HardwareCalibration& hw;
};

using Term = double HardwareCalibration::*;
using ReadPairs = void (*)(const Inputs&, std::vector<Pair>*);

/// One row of the term-group table. Predictions are volume/rate plus fixed
/// seconds, so dividing `rates` and multiplying `latencies` by a step's
/// scale multiplies every duration the group prices by exactly that scale.
struct GroupRow {
  std::vector<Term> rates;
  std::vector<Term> latencies;
  ReadPairs read;
};

void ReadPipelines(const Inputs& in, std::vector<Pair>* pairs) {
  for (const PipelineTiming& timing : in.profile.timings) {
    if (timing.seconds <= 0.0) continue;
    for (const Pipeline& pipeline : in.graph.pipelines) {
      if (pipeline.id != timing.pipeline_id) continue;
      const double predicted =
          in.estimator.PipelineDuration(pipeline, timing.width, in.volumes);
      if (predicted > 0.0) pairs->push_back({predicted, timing.seconds});
      break;
    }
  }
}

void ReadShuffles(const Inputs& in, std::vector<Pair>* pairs) {
  for (const ExchangeTiming& t : in.profile.exchange.timings) {
    // The copy term must never chase link time: the link group prices a
    // serializing transport's serialize+transfer share, so it is taken out
    // of the measured wall time (a no-op in process, where it is 0).
    const double actual = t.seconds - t.link_seconds;
    if (actual <= 0.0) continue;
    const double predicted =
        t.bytes / (in.hw.shuffle_gibps * kGiB) +
        static_cast<double>(t.partitions) * in.hw.shuffle_dispatch_seconds;
    if (predicted > 0.0) pairs->push_back({predicted, actual});
  }
}

void ReadLink(const Inputs& in, std::vector<Pair>* pairs) {
  for (const ExchangeTiming& t : in.profile.exchange.timings) {
    // Only exchanges that serialized bytes over a link carry a signal for
    // the link terms; in-process exchanges have neither. The terms price
    // plain payload bytes, not the encoded frames.
    if (t.plain_bytes <= 0.0 || t.link_seconds <= 0.0) continue;
    const double predicted = LinkSeconds(in.hw, t.plain_bytes,
                                         static_cast<double>(t.transfers));
    if (predicted > 0.0) pairs->push_back({predicted, t.link_seconds});
  }
}

void ReadStorage(const Inputs& in, std::vector<Pair>* pairs) {
  const BlockCacheStats& s = in.profile.storage;
  if (s.misses <= 0 || s.miss_seconds <= 0.0) return;
  const double predicted =
      s.bytes_read / (in.hw.storage_read_gibps * kGiB) +
      static_cast<double>(s.misses) * in.hw.storage_get_seconds;
  if (predicted > 0.0) pairs->push_back({predicted, s.miss_seconds});
}

using HW = HardwareCalibration;

/// The term groups, indexed by TermGroup.
const std::array<GroupRow, kNumTermGroups>& Groups() {
  static const std::array<GroupRow, kNumTermGroups> groups = {{
      // kPipelines: every time term (vector_batch_rows is a size and
      // parallel_alpha a ratio, not times), so a step rescales the whole
      // model and keeps relative operator costs.
      {{&HW::scan_gibps_per_node, &HW::network_gibps_per_node,
        &HW::filter_rows_per_sec, &HW::project_rows_per_sec,
        &HW::hash_build_rows_per_sec, &HW::hash_probe_rows_per_sec,
        &HW::agg_rows_per_sec, &HW::agg_merge_groups_per_sec,
        &HW::sort_rows_per_sec, &HW::exchange_rows_per_sec,
        &HW::shuffle_gibps, &HW::wire_serialize_gibps, &HW::link_gibps,
        &HW::storage_read_gibps},
       {&HW::shuffle_dispatch_seconds, &HW::link_rtt_seconds,
        &HW::storage_get_seconds, &HW::shuffle_sync_per_node,
        &HW::pipeline_startup, &HW::worker_spinup_seconds,
        &HW::batch_dispatch_seconds},
       &ReadPipelines},
      // kShuffle: bytes / shuffle_gibps + partitions * dispatch.
      {{&HW::shuffle_gibps}, {&HW::shuffle_dispatch_seconds}, &ReadShuffles},
      // kLink: plain / serialize_bw + plain / link_bw + transfers * RTT.
      {{&HW::wire_serialize_gibps, &HW::link_gibps},
       {&HW::link_rtt_seconds},
       &ReadLink},
      // kStorage: bytes / read_bw + GETs * per-GET latency.
      {{&HW::storage_read_gibps}, {&HW::storage_get_seconds}, &ReadStorage},
  }};
  return groups;
}

double QError(double predicted, double actual) {
  if (predicted <= 0.0 || actual <= 0.0) return 1.0;
  return std::max(predicted / actual, actual / predicted);
}

/// Geometric-mean q-error of `pairs` with every prediction scaled by
/// `scale`.
double GeoMeanQError(const std::vector<Pair>& pairs, double scale) {
  double log_sum = 0.0;
  for (const Pair& p : pairs) {
    log_sum += std::log(QError(p.predicted * scale, p.actual));
  }
  return std::exp(log_sum / static_cast<double>(pairs.size()));
}

/// Clamped EWMA step: the geometric-mean actual/predicted ratio raised to
/// the learning rate, bounded per step and so the group's cumulative
/// drift stays inside kCalibrationMaxDrift.
double StepScale(const std::vector<Pair>& pairs, double drift) {
  double log_ratio = 0.0;
  for (const Pair& p : pairs) log_ratio += std::log(p.actual / p.predicted);
  log_ratio /= static_cast<double>(pairs.size());
  double scale = std::exp(log_ratio * kCalibrationLearningRate);
  scale = std::clamp(scale, 1.0 / kCalibrationMaxStep, kCalibrationMaxStep);
  const double total = std::clamp(drift * scale, 1.0 / kCalibrationMaxDrift,
                                  kCalibrationMaxDrift);
  return total / drift;
}

}  // namespace

CalibrationReport CalibrationUpdater::Observe(const ExecProfile& profile,
                                              const PipelineGraph& graph,
                                              const VolumeMap& volumes,
                                              const CostEstimator& estimator) {
  const auto& groups = Groups();
  const Inputs in{profile, graph, volumes, estimator, *hw_};
  CalibrationReport report;
  std::vector<Pair> pairs;
  for (size_t g = 0; g < kNumTermGroups; ++g) {
    const GroupRow& row = groups[g];
    pairs.clear();
    row.read(in, &pairs);
    GroupReport& out = report.groups[g];
    out.observed = static_cast<int>(pairs.size());
    if (pairs.empty()) continue;
    out.q_error_before = GeoMeanQError(pairs, 1.0);
    const double scale = StepScale(pairs, drift_[g]);
    for (Term t : row.rates) hw_->*t /= scale;
    for (Term t : row.latencies) hw_->*t *= scale;
    if (g == static_cast<size_t>(TermGroup::kPipelines)) {
      // The pipeline step moves every group's terms, so every drift.
      for (double& d : drift_) d *= scale;
    } else {
      drift_[g] *= scale;
    }
    ++rounds_;
    out.applied_scale = scale;
    // Every term of the group scaled linearly, so the post-step q-error
    // is exact without re-invoking the estimator.
    out.q_error_after = GeoMeanQError(pairs, scale);
    report.moved = report.moved || scale > 1.0 + kRecalibrationThreshold ||
                   scale < 1.0 / (1.0 + kRecalibrationThreshold);
  }
  return report;
}

}  // namespace costdb
