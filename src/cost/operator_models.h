#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cost/calibration.h"
#include "plan/physical_plan.h"

namespace costdb {

/// Work arriving at one operator stage of a pipeline.
struct StageWorkload {
  double rows_in = 0.0;
  double bytes_in = 0.0;
  double rows_out = 0.0;
  double groups = 1.0;  // aggregate output groups / sort runs
  /// Batches the engine will actually dispatch for this stage, when the
  /// caller knows the real batching geometry (a scan pipeline dispatches
  /// one batch per *surviving* zone-map morsel, not ceil(rows/4096)).
  /// Negative = unknown; models fall back to deriving batches from
  /// rows_in and the calibrated vector_batch_rows.
  double dispatch_batches = -1.0;
};

/// Per-operator scalability model: time for the stage to process a
/// workload at a given degree of parallelism. Simple closed-form formulas
/// per the paper ("simple mathematical formulas are good enough for most
/// physical operators"), explainable by construction.
class OperatorModel {
 public:
  virtual ~OperatorModel() = default;
  virtual Seconds StageTime(const StageWorkload& w, int dop) const = 0;
  virtual const char* name() const = 0;
};

/// d / (1 + alpha log2 d): sublinear speedup of exchange-heavy operators.
double EffectiveParallelism(int dop, double alpha);

/// Seconds a serializing transport spends moving `plain_bytes` of plain
/// payload in `transfers` frames at the calibrated link terms:
/// plain / serialize_bw + plain / link_bw + transfers × RTT. Ungated: the
/// exchange models add it only on the socket transport, while the link
/// group (TermGroup::kLink) and the sharded parity check apply it to what
/// measured exchanges carried (ExchangeTiming::plain_bytes, transfers).
Seconds LinkSeconds(const HardwareCalibration& hw, double plain_bytes,
                    double transfers);

/// Factory for the analytic model of a physical operator. `hw` must
/// outlive the returned model.
std::unique_ptr<OperatorModel> MakeAnalyticModel(
    const PhysicalPlan& op, const HardwareCalibration* hw);

/// Scan morsels that survive zone-map pruning — the batch-dispatch unit of
/// a scan pipeline. Counted from the table's actual row-group geometry in
/// the node's [scan_group_begin, scan_group_end) range scaled by the
/// planner's prune_keep_fraction (zone maps are metadata, so this is fair
/// game for the cost model). Returns -1 when the node has no table handle
/// (callers fall back to row-derived batching).
double SurvivingScanMorsels(const PhysicalPlan& scan);

/// Cost of running a k-conjunct pushed filter chain with the per-kernel
/// vectorized path: one selection-vector pass per conjunct (progressively
/// narrowed assuming equal per-conjunct selectivity s^(1/k)) plus one
/// batch dispatch per conjunct per surviving morsel. `selectivity` is the
/// overall keep fraction of the whole chain; `batches` < 0 derives from
/// rows and vector_batch_rows.
Seconds InterpretedFilterChainTime(const HardwareCalibration& hw, double rows,
                                   int conjuncts, double selectivity,
                                   double batches, int dop);

/// Pre-trained regression model for exchange-heavy operators (paper: "we
/// pre-train regression models for them with synthetic workloads that
/// cover the parameter space"). Log-linear in (rows, bytes, dop):
///   log t = b0 + b1 log(1+rows) + b2 log(1+bytes) + b3 log d + b4 log^2 d
class RegressionOperatorModel : public OperatorModel {
 public:
  struct Sample {
    StageWorkload workload;
    int dop = 1;
    Seconds observed_time = 0.0;
  };

  explicit RegressionOperatorModel(std::string name)
      : name_(std::move(name)) {}

  /// Least-squares fit; returns false with insufficient/degenerate data.
  bool Fit(const std::vector<Sample>& samples);

  bool fitted() const { return fitted_; }

  Seconds StageTime(const StageWorkload& w, int dop) const override;
  const char* name() const override { return name_.c_str(); }

 private:
  static std::vector<double> Features(const StageWorkload& w, int dop);

  std::string name_;
  std::vector<double> beta_;
  bool fitted_ = false;
};

}  // namespace costdb
