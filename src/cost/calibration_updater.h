#pragma once

#include <array>
#include <cstddef>

#include "cost/cost_model.h"

namespace costdb {

struct ExecProfile;  // exec/engine.h; kept forward to avoid a cycle

/// The calibration's term groups, in the order one feedback round steps
/// them. Each owns a set of HardwareCalibration time terms and reads its
/// own (predicted, actual) pairs from the run's ExecProfile:
///   kPipelines  every time term, from per-pipeline wall times;
///   kShuffle    the exchange copy term, from exchange wall time minus its
///               link share;
///   kLink       the serialize + link + RTT terms, from the link share of
///               exchanges that ran over a serializing transport;
///   kFused      the fused-kernel rate and dispatch, from fused wall time;
///   kStorage    cold-read bandwidth and per-GET latency, from block-cache
///               miss time.
enum class TermGroup { kPipelines, kShuffle, kLink, kFused, kStorage };
inline constexpr size_t kNumTermGroups = 5;

/// Clamp on one step's scale.
inline constexpr double kCalibrationMaxStep = 8.0;
/// Clamp on a group's cumulative drift from the initial calibration — a
/// runaway guard so a pathological measurement cannot destroy the model.
/// Wide, because a laptop-local engine legitimately sits orders of
/// magnitude away from the modeled cloud node's fixed latencies.
inline constexpr double kCalibrationMaxDrift = 1024.0;
/// Relative step that makes estimates priced before it stale (the facade
/// then invalidates its cached plans and results).
inline constexpr double kRecalibrationThreshold = 0.05;

/// What one feedback round did to one term group.
struct GroupReport {
  /// (predicted, actual) pairs read from the profile; 0 means the run
  /// carried no signal for the group and the round left it alone.
  int observed = 0;
  /// Geometric-mean q-error max(pred/act, act/pred) before/after the step.
  double q_error_before = 1.0;
  double q_error_after = 1.0;
  /// Multiplier applied to every time term of the group (1.0 = no change).
  double applied_scale = 1.0;
};

/// What one feedback round did to the calibration.
struct CalibrationReport {
  std::array<GroupReport, kNumTermGroups> groups;
  /// Some group stepped by more than kRecalibrationThreshold.
  bool moved = false;

  const GroupReport& operator[](TermGroup group) const {
    return groups[static_cast<size_t>(group)];
  }
};

/// Closes the paper's calibration loop (Section 3.1 calibrates "before the
/// service starts"; this keeps calibrating *while* it runs): what one run
/// measured is compared against what the estimator predicted for it, and
/// the shared HardwareCalibration is nudged so later estimates tighten.
/// A step scales its group's time terms uniformly — rates divided, fixed
/// latencies multiplied — so every prediction the group prices scales by
/// exactly the step, preserving the *relative* costs the planner's
/// decisions depend on while correcting the absolute scale the hardware
/// delivers.
class CalibrationUpdater {
 public:
  explicit CalibrationUpdater(HardwareCalibration* hw) : hw_(hw) {}

  /// Fold one run's profile into the calibration, stepping each term group
  /// in TermGroup order; a group reads its pairs after the earlier groups
  /// stepped. `graph` and `volumes` must be the plan the profile came
  /// from; each pipeline is predicted at the width it ran at
  /// (PipelineTiming::width: one node for the local engine).
  CalibrationReport Observe(const ExecProfile& profile,
                            const PipelineGraph& graph,
                            const VolumeMap& volumes,
                            const CostEstimator& estimator);

  /// Cumulative movement of a group's terms from the initial calibration:
  /// the product of every step that moved all of them — the group's own
  /// and, since it moves every time term, each kPipelines step.
  double drift(TermGroup group) const {
    return drift_[static_cast<size_t>(group)];
  }
  /// Group steps taken so far (groups without pairs take none).
  int rounds() const { return rounds_; }

 private:
  HardwareCalibration* hw_;
  std::array<double, kNumTermGroups> drift_ = {1.0, 1.0, 1.0, 1.0, 1.0};
  int rounds_ = 0;
};

}  // namespace costdb
