// The computational cost model of LSH-based search (paper §3.1).
//
// For a query, LSH-based search pays (Eq. 1)
//
//     LSHCost = alpha * #collisions + beta * candSize
//
// (S2: one dedup operation per collision; S3: one distance computation per
// distinct candidate), while a linear scan pays (Eq. 2)
//
//     LinearCost = beta * n.
//
// alpha and beta are implementation- and dataset-dependent constants; the
// paper calibrates the ratio beta/alpha on a random sample of 100 queries
// and 10,000 points (§4.2), landing at 10, 10, 6 and 1 for Webspam,
// CoverType, Corel and MNIST respectively. CostCalibrator reproduces that
// measurement for any dataset; CostModel::FromRatio pins the ratio
// directly, which the figure benches use to mirror the published setup.

#ifndef HYBRIDLSH_CORE_COST_MODEL_H_
#define HYBRIDLSH_CORE_COST_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/status.h"

namespace hybridlsh {
namespace core {

/// A coherent (live, indexed) pair for one decision. A mutable index's two
/// counters move independently under concurrent writers; reading them with
/// two separate calls can observe an impossible state (e.g. live > indexed,
/// or a fraction > 1) between an insert's increments. Segmented indexes
/// keep both packed in one atomic word and materialize this struct from a
/// single load (SegmentedIndex::live_stats), so every decision site prices
/// LinearCost and the tombstone correction from the same instant.
struct LiveStats {
  /// Points a query can report (the linear path's iteration count).
  size_t live = 0;
  /// Live + tombstoned-but-not-yet-compacted ids still occupying buckets.
  size_t indexed = 0;

  /// Fraction of indexed ids that are live (1.0 for a static index).
  double fraction() const {
    return indexed == 0
               ? 1.0
               : static_cast<double>(live) / static_cast<double>(indexed);
  }
};

/// The (alpha, beta) constants of Equations 1-2. Units are arbitrary but
/// must be shared: only the ratio beta/alpha affects the decision.
struct CostModel {
  /// Average cost of removing one duplicate (a VisitedSet insert).
  double alpha = 1.0;
  /// Average cost of one EXACT distance computation (the float kernels).
  double beta = 10.0;

  /// Quantized-verification split of the per-candidate cost. Under the
  /// int8 screen (engine option quantized_verify) every candidate pays a
  /// cheap screen pass and only the borderline fraction pays the full
  /// float32 rescore, so the effective per-candidate verification cost is
  ///
  ///     VerifyBeta() = beta_screen + rescore_fraction * beta.
  ///
  /// The defaults (0, 1) reproduce the single-beta model exactly — the
  /// decision arithmetic is unchanged unless a caller installs a split
  /// (the engine never does so silently, which keeps quantized-on and
  /// quantized-off strategy decisions — and thus LSH candidate sets —
  /// identical). Both strategies verify through the same screen, so
  /// VerifyBeta() replaces beta in Eq. 1, Eq. 2, and the tombstone
  /// correction alike; the decision stays exact either way, only its
  /// LSH-vs-linear pick shifts with the cheaper verify.
  double beta_screen = 0.0;
  double rescore_fraction = 1.0;

  /// Effective cost of verifying one candidate (screen + expected rescore).
  double VerifyBeta() const { return beta_screen + rescore_fraction * beta; }

  /// Eq. 1. `cand_size` may be the HLL estimate (query time) or the exact
  /// distinct count (analysis).
  double LshCost(uint64_t collisions, double cand_size) const {
    return alpha * static_cast<double>(collisions) + VerifyBeta() * cand_size;
  }

  /// Eq. 2. For a segmented index n is the LIVE point count: the linear
  /// path iterates live ids only, so tombstoned points cost nothing there.
  /// With a pushed-down predicate filter, `selectivity` is the fraction of
  /// live points that pass the filter: the filtered linear path enumerates
  /// filter survivors by word-skipping the composed bitmap, so only
  /// survivors reach the distance check.
  double LinearCost(size_t n, double selectivity = 1.0) const {
    return VerifyBeta() * static_cast<double>(n) * Clamp01(selectivity);
  }

  /// The one clamped live-fraction helper every discount flows through.
  ///
  /// `live_fraction` is live/indexed (tombstone share); `selectivity` is
  /// the fraction of LIVE points passing the pushed-down filter — it is
  /// measured on the composed filter∧¬tombstone bitmap, i.e. already
  /// conditioned on liveness. The expected fraction of indexed candidates
  /// that reach the exact distance check is therefore the clamped product:
  /// each point deleted AND filtered out is discounted exactly once
  /// (through live_fraction; the conditional selectivity never re-counts
  /// it). Deriving both the tombstone and the filter discount from this
  /// single value — instead of subtracting two independently computed
  /// corrections — is what keeps the combined correction from
  /// double-discounting and driving the LSH estimate negative.
  static double EffectiveLiveFraction(double live_fraction,
                                      double selectivity) {
    return Clamp01(Clamp01(live_fraction) * Clamp01(selectivity));
  }

  /// The LSH side of the hybrid decision with the tombstone and filter
  /// discounts applied — the single formula every decision site
  /// (DecideStrategy) compares against LinearCost(live_n, selectivity).
  /// Candidates that are dead or filtered are rejected by a bit test at
  /// S2/verify-screen whose cost is already inside alpha*#collisions + the
  /// screen share of VerifyBeta(); only the effective live fraction of them
  /// pays an exact distance. The defaults (live_fraction 1, selectivity 1)
  /// reduce to Eq. 1. Written as a sum of non-negative products so that it
  /// is non-decreasing in `cand_size` in floating point too, which is what
  /// lets DecideStrategy decide from the collision bounds alone.
  double CorrectedLshCost(uint64_t collisions, double cand_size,
                          double live_fraction,
                          double selectivity = 1.0) const {
    return alpha * static_cast<double>(collisions) +
           VerifyBeta() * cand_size *
               EffectiveLiveFraction(live_fraction, selectivity);
  }

  /// CorrectedLshCost from one coherent LiveStats snapshot — the form the
  /// concurrent query paths use so the correction and the linear
  /// comparison cannot mix counter values from different instants.
  double CorrectedLshCost(uint64_t collisions, double cand_size,
                          const LiveStats& live,
                          double selectivity = 1.0) const {
    return CorrectedLshCost(collisions, cand_size, live.fraction(),
                            selectivity);
  }

  /// Model with alpha = 1 and beta = `beta_over_alpha` (the paper's
  /// pinned-ratio setup).
  static CostModel FromRatio(double beta_over_alpha) {
    return CostModel{1.0, beta_over_alpha};
  }

  /// beta / alpha.
  double Ratio() const { return beta / alpha; }

 private:
  static double Clamp01(double f) { return f < 0.0 ? 0.0 : (f > 1.0 ? 1.0 : f); }
};

/// One walk's hybrid decision (Alg. 2 lines 3-4) and the figures behind it.
struct StrategyDecision {
  bool use_lsh = false;
  /// True when the exact collision count alone decided the strategy: no
  /// sketch was merged and cand_estimate stays 0.
  bool estimate_skipped = false;
  /// candSize estimate (0 when skipped).
  double cand_estimate = 0.0;
  /// CorrectedLshCost at cand_estimate; when skipped, at the bound that
  /// decided (cand_size = collisions for LSH, 0 for linear).
  double lsh_cost = 0.0;
  double linear_cost = 0.0;
};

/// The decision at a known candSize estimate: LSH iff
/// CorrectedLshCost(collisions, cand_estimate) < LinearCost(live).
inline StrategyDecision DecideAtEstimate(const CostModel& model,
                                         uint64_t collisions,
                                         double cand_estimate,
                                         const LiveStats& live,
                                         double selectivity = 1.0) {
  StrategyDecision decision;
  decision.cand_estimate = cand_estimate;
  decision.lsh_cost =
      model.CorrectedLshCost(collisions, cand_estimate, live, selectivity);
  decision.linear_cost = model.LinearCost(live.live, selectivity);
  decision.use_lsh = decision.lsh_cost < decision.linear_cost;
  return decision;
}

/// The hybrid decision of one walk whose exact collision count is known,
/// deciding from bounds where they suffice. A candSize estimate lies in
/// [0, collisions] (EstimateProbe caps it there: distinct candidates never
/// outnumber collisions) and CorrectedLshCost is non-decreasing in it, so
///   - CorrectedLshCost(c, c) <  LinearCost  => LSH, whatever the estimate;
///   - CorrectedLshCost(c, 0) >= LinearCost  => linear, whatever it is.
/// Only between the bounds does `estimate()` run (merging the sketches);
/// it must return the capped estimate. Every outcome equals
/// DecideAtEstimate at the capped estimate.
template <typename EstimateFn>
StrategyDecision DecideStrategy(const CostModel& model, uint64_t collisions,
                                const LiveStats& live, double selectivity,
                                EstimateFn&& estimate) {
  const double linear_cost = model.LinearCost(live.live, selectivity);
  const double upper = model.CorrectedLshCost(
      collisions, static_cast<double>(collisions), live, selectivity);
  if (upper < linear_cost) {
    return StrategyDecision{true, true, 0.0, upper, linear_cost};
  }
  const double lower =
      model.CorrectedLshCost(collisions, 0.0, live, selectivity);
  if (lower >= linear_cost) {
    return StrategyDecision{false, true, 0.0, lower, linear_cost};
  }
  return DecideAtEstimate(model, collisions, estimate(), live, selectivity);
}

/// Measures alpha and beta empirically (paper §4.2's procedure). Degenerate
/// inputs fail with InvalidArgument instead of indexing out of range or
/// dividing by zero — calibration often runs on a caller-supplied sample
/// whose size the library cannot see past the callback.
class CostCalibrator {
 public:
  /// Seconds per dedup operation: timed VisitedSet inserts of `ops` random
  /// ids over a set of the given capacity, best of `repetitions` runs.
  static util::StatusOr<double> MeasureAlpha(size_t capacity, size_t ops,
                                             uint64_t seed,
                                             int repetitions = 3);

  /// Seconds per distance computation: times `distance_fn(i)` over point
  /// indices i < min(sample_size, n) for `ops` evaluations, best of
  /// `repetitions`. `n` is the number of points the callback can index (the
  /// dataset size); a paper-style sample_size of 10,000 is clamped to it,
  /// so the callback is never called out of range. The callback should
  /// compute one representative distance (e.g. sample point i against a
  /// fixed query) and return it; returns are accumulated into a sink so the
  /// calls cannot be optimized away. InvalidArgument when the dataset is
  /// empty (n == 0 or sample_size == 0) or ops/repetitions are zero.
  static util::StatusOr<double> MeasureBeta(
      const std::function<double(size_t)>& distance_fn, size_t n,
      size_t sample_size, size_t ops, int repetitions = 3);

  /// Convenience: a CostModel from both measurements. `sample_size` is
  /// clamped to `n` like MeasureBeta's.
  static util::StatusOr<CostModel> Calibrate(
      const std::function<double(size_t)>& distance_fn, size_t n,
      size_t sample_size, size_t dedup_capacity, size_t ops = 200000,
      uint64_t seed = 1);
};

}  // namespace core
}  // namespace hybridlsh

#endif  // HYBRIDLSH_CORE_COST_MODEL_H_
