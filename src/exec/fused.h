#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/evaluator.h"
#include "plan/expression.h"
#include "storage/data_chunk.h"

namespace costdb {

/// What the fused-kernel tier actually ran during one Execute call. The
/// *decision* to fuse is a plan annotation made by the optimizer's
/// fuse_kernels pass; these counters confirm the engine honored it (or hit
/// the runtime fallback) and feed measured fused timings back into the
/// calibration loop. Summed across workers on the sharded path.
struct FusedExecStats {
  size_t fused_filter_morsels = 0;  // morsels run through a fused select
  size_t fused_probe_morsels = 0;   // morsels run filter→hash-probe fused
  size_t fused_agg_morsels = 0;     // morsels run filter→aggregate fused
  size_t fallback_morsels = 0;      // fusion annotated, shape did not bind
  size_t fused_rows = 0;            // rows entering fused kernels
  double fused_seconds = 0.0;       // wall time inside fused kernels

  void MergeFrom(const FusedExecStats& o) {
    fused_filter_morsels += o.fused_filter_morsels;
    fused_probe_morsels += o.fused_probe_morsels;
    fused_agg_morsels += o.fused_agg_morsels;
    fallback_morsels += o.fallback_morsels;
    fused_rows += o.fused_rows;
    fused_seconds += o.fused_seconds;
  }
  bool any_fused() const {
    return fused_filter_morsels + fused_probe_morsels + fused_agg_morsels > 0;
  }
};

/// A conjunction compiled to a single-pass kernel: one traversal of the
/// morsel evaluates every conjunct per row with short-circuit, instead of
/// one vectorized kernel invocation (and one intermediate selection
/// vector) per conjunct. Selection semantics are bit-identical to
/// Evaluator::EvaluateSelection — SQL three-valued logic, NULL deselects,
/// comparison against a NULL constant selects nothing — which the
/// three-way parity tests (fused / vectorized / scalar) enforce.
///
/// Compilation happens once per pipeline (FusedKernelRegistry::Compile);
/// Select binds the compiled terms to a chunk's flat payloads and runs the
/// pass. Shapes without an instantiation (OR, NOT, arithmetic, params,
/// expression operands) do not compile — the caller falls back to the
/// per-kernel vectorized path.
class FusedPredicate {
 public:
  /// Supported conjunct shapes. The int-const kernels are additionally
  /// monomorphized per CompareOp (see Instantiations()).
  enum class TermKind : uint8_t {
    kIntColConst,  // int64 column  <op> int64 constant
    kNumColConst,  // numeric column <op> numeric constant, double compare
    kNumColCol,    // numeric column <op> numeric column
    kStrColConst,  // string column <op> string constant
    kLike,         // string column LIKE constant [ESCAPE]
  };

  struct Term {
    TermKind kind = TermKind::kIntColConst;
    CompareOp cmp = CompareOp::kEq;
    uint32_t lhs = 0;          // column index into the chunk
    uint32_t rhs = 0;          // kNumColCol only
    bool lhs_is_double = false;
    bool rhs_is_double = false;
    bool both_int = false;     // kNumColCol: exact int64 compare
    int64_t iconst = 0;
    double dconst = 0.0;
    std::string sconst;
    LikePattern like;
  };

  size_t num_terms() const { return terms_.size(); }
  bool always_false() const { return always_false_; }

  /// Single-pass conjunctive select over the chunk. `out` is cleared and
  /// filled with surviving row indices in ascending order. Fails (caller
  /// falls back to the vectorized path) if the chunk's physical column
  /// families do not match what the predicate was compiled against.
  Status Select(const ChunkView& chunk, SelectionVector* out) const;

  /// Fused scan: select survivors and gather `columns` of the view into
  /// `out` in one call, so no per-conjunct intermediate ever materializes.
  /// `sel_scratch` receives the selection (reused across morsels).
  Status SelectGather(const ChunkView& view, const std::vector<size_t>& columns,
                      DataChunk* out, SelectionVector* sel_scratch) const;

 private:
  friend class FusedKernelRegistry;
  std::vector<Term> terms_;
  bool always_false_ = false;  // a conjunct compares against a NULL constant
};

/// One aggregate of the fused filter→aggregate fold. `col` indexes the
/// scan view (-1 for COUNT(*)).
struct FusedAggSpec {
  AggFunc func = AggFunc::kCountStar;
  int col = -1;
};

/// Partial state of one fused aggregate: the fields of the engine's
/// per-group aggregate states, with the MIN/MAX bounds boxed.
struct FusedAggState {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  Value min;
  Value max;
  bool has_value = false;
};

/// Fused filter→aggregate fold for the global-agg fast path: survivors of
/// `pred` (nullptr = all rows) fold straight from the borrowed row-group
/// columns into `states` — the interpreted path's gather + per-aggregate
/// input evaluation never happens. Accumulation visits survivors in
/// ascending row order with the same branch structure as the unfused
/// folds (Accumulate/CountValid and the typed MIN/MAX fold over a gathered
/// column), so floating-point sums are bit-identical. Returns the survivor
/// count.
Result<size_t> FusedFilterAggregate(const FusedPredicate* pred,
                                    const ChunkView& view,
                                    const std::vector<FusedAggSpec>& specs,
                                    std::vector<FusedAggState>* states,
                                    SelectionVector* sel_scratch);

/// The dispatch point of the fused tier: decides whether a predicate (and
/// the aggregate shapes riding on it) has a fused instantiation. Both the
/// optimizer's fuse_kernels pass (plan-time decision) and the engine
/// (runtime compile) go through here, so they can never disagree about
/// what is fusable. Stateless — the global instance is shared.
class FusedKernelRegistry {
 public:
  static const FusedKernelRegistry& Global();

  /// True when every conjunct of `predicate` matches a fused term shape
  /// against the schema (names + logical types, positional).
  bool CanCompile(const Expr& predicate,
                  const std::vector<std::string>& schema,
                  const std::vector<LogicalType>& types) const;

  /// Compile the conjunction, or nullopt when some conjunct has no fused
  /// instantiation (the caller keeps the vectorized path).
  std::optional<FusedPredicate> Compile(
      const Expr& predicate, const std::vector<std::string>& schema,
      const std::vector<LogicalType>& types) const;

  /// True when the aggregate list fits the fused filter→aggregate fold:
  /// global (no GROUP BY) COUNT(*)/COUNT/SUM/AVG/MIN/MAX over bare scan
  /// columns, numeric except COUNT. Fills `specs` on success.
  bool CompileAggregates(const std::vector<ExprPtr>& aggregates,
                         const std::vector<std::string>& schema,
                         const std::vector<LogicalType>& types,
                         std::vector<FusedAggSpec>* specs) const;

  /// Names of the template-instantiated kernel shapes (introspection).
  std::vector<std::string> Instantiations() const;
};

}  // namespace costdb
