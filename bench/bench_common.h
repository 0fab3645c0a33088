// Shared support for the paper-reproduction benchmark binaries.
//
// Every bench binary runs with no arguments at a scaled-down (but
// shape-preserving) size so that `for b in build/bench/*; do $b; done`
// finishes quickly; pass --full (or set HYBRIDLSH_FULL=1) for the paper's
// dataset sizes (n up to 581,012, 100 queries, averaged over runs).
//
// Output format: one comment header describing the paper artifact, then
// whitespace-aligned columns, one row per sweep point — the same series
// the paper's tables/figures report, plus recall columns the paper omits
// for space.

#ifndef HYBRIDLSH_BENCH_BENCH_COMMON_H_
#define HYBRIDLSH_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/hybridlsh.h"
#include "util/stats.h"
#include "util/timer.h"

namespace hybridlsh {
namespace bench {

/// Scaling knobs resolved from argv / environment.
struct BenchScale {
  bool full = false;
  /// Number of held-out queries (paper: 100).
  size_t num_queries = 40;
  /// Repetitions of the query set, averaged (paper: 5).
  int runs = 1;

  /// Scales a paper-sized n down in quick mode. Small datasets use a
  /// gentler divisor so timings stay measurable.
  size_t N(size_t paper_n, size_t quick_divisor = 8) const {
    return full ? paper_n : paper_n / quick_divisor;
  }
};

inline BenchScale GetScale(int argc, char** argv) {
  BenchScale scale;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) scale.full = true;
  }
  const char* env = std::getenv("HYBRIDLSH_FULL");
  if (env != nullptr && env[0] == '1') scale.full = true;
  if (scale.full) {
    scale.num_queries = 100;
    scale.runs = 3;
  }
  return scale;
}

inline void PrintScaleNote(const BenchScale& scale) {
  std::printf("# mode: %s (queries=%zu, runs=%d)%s\n",
              scale.full ? "FULL (paper-sized)" : "QUICK (n/8)",
              scale.num_queries, scale.runs,
              scale.full ? "" : " — pass --full for paper-sized datasets");
}

/// Timing + quality of the three strategies over one query set.
struct StrategyResult {
  double hybrid_seconds = 0;  // total CPU seconds for the whole query set
  double lsh_seconds = 0;
  double linear_seconds = 0;
  double hybrid_recall = 0;  // averaged per query
  double lsh_recall = 0;
  double pct_linear_calls = 0;  // % of hybrid queries answered by scan
  // Table 1 ingredients (collected on the hybrid pass).
  double estimate_seconds = 0;     // HLL merge+estimate time (all queries)
  double mean_cand_rel_error = 0;  // |candEst - candActual| / candActual
  double sd_cand_rel_error = 0;
  // Figure 3 (left) ingredients.
  double avg_output = 0;
  size_t min_output = 0;
  size_t max_output = 0;
};

/// Runs hybrid, forced-LSH and forced-linear passes over the query set,
/// `runs` times, and aggregates. Ground truth may be empty (skips recall).
template <typename Index, typename Dataset, typename QuerySet>
StrategyResult RunStrategies(const Index& index, const Dataset& base,
                             const QuerySet& queries, double radius,
                             const core::CostModel& model,
                             const std::vector<std::vector<uint32_t>>& truth,
                             int runs) {
  StrategyResult result;
  core::SearcherOptions hybrid_options;
  hybrid_options.cost_model = model;
  core::SearcherOptions lsh_options = hybrid_options;
  lsh_options.forced = core::ForcedStrategy::kAlwaysLsh;
  core::SearcherOptions linear_options = hybrid_options;
  linear_options.forced = core::ForcedStrategy::kAlwaysLinear;

  core::HybridSearcher<Index, Dataset> hybrid(&index, &base, hybrid_options);
  core::HybridSearcher<Index, Dataset> lsh(&index, &base, lsh_options);
  core::HybridSearcher<Index, Dataset> linear(&index, &base, linear_options);

  const size_t num_queries = queries.size();
  std::vector<uint32_t> out;
  core::QueryStats stats;

  // Timed passes contain NOTHING but the queries. Wall-clock timing:
  // query execution is single-threaded, so wall time equals CPU time (the
  // paper's axis) — and the wall clock has nanosecond granularity where
  // this kernel's process-CPU clock only has 10 ms.
  for (int run = 0; run < runs; ++run) {
    {
      util::WallTimer timer;
      for (size_t q = 0; q < num_queries; ++q) {
        out.clear();
        hybrid.Query(queries.point(q), radius, &out);
      }
      result.hybrid_seconds += timer.ElapsedSeconds();
    }
    {
      util::WallTimer timer;
      for (size_t q = 0; q < num_queries; ++q) {
        out.clear();
        lsh.Query(queries.point(q), radius, &out);
      }
      result.lsh_seconds += timer.ElapsedSeconds();
    }
    {
      util::WallTimer timer;
      for (size_t q = 0; q < num_queries; ++q) {
        out.clear();
        linear.Query(queries.point(q), radius, &out);
      }
      result.linear_seconds += timer.ElapsedSeconds();
    }
  }
  result.hybrid_seconds /= runs;
  result.lsh_seconds /= runs;
  result.linear_seconds /= runs;

  // Untimed instrumentation pass: recalls, strategy mix, estimate accuracy
  // and overhead, output-size spread.
  util::RunningStat cand_err;
  util::RunningStat output_sizes;
  size_t linear_calls = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    out.clear();
    hybrid.Query(queries.point(q), radius, &out, &stats);
    result.estimate_seconds += stats.estimate_seconds;
    linear_calls += (stats.strategy == core::Strategy::kLinear);
    output_sizes.Add(static_cast<double>(out.size()));
    if (!truth.empty()) result.hybrid_recall += data::Recall(out, truth[q]);
    if (stats.strategy == core::Strategy::kLsh && stats.cand_actual > 0) {
      // Query skips the HLL merge where the collision bounds decide;
      // EstimateOnly always reports the estimate.
      const double cand_estimate =
          hybrid.EstimateOnly(queries.point(q)).cand_estimate;
      cand_err.Add(std::abs(cand_estimate -
                            static_cast<double>(stats.cand_actual)) /
                   static_cast<double>(stats.cand_actual));
    }
    if (!truth.empty()) {
      out.clear();
      lsh.Query(queries.point(q), radius, &out);
      result.lsh_recall += data::Recall(out, truth[q]);
    }
  }
  if (!truth.empty()) {
    result.hybrid_recall /= static_cast<double>(num_queries);
    result.lsh_recall /= static_cast<double>(num_queries);
  }
  result.pct_linear_calls = 100.0 * static_cast<double>(linear_calls) /
                            static_cast<double>(num_queries);
  result.mean_cand_rel_error = cand_err.count() > 0 ? cand_err.mean() : 0.0;
  result.sd_cand_rel_error = cand_err.count() > 1 ? cand_err.stddev() : 0.0;
  result.avg_output = output_sizes.mean();
  result.min_output = static_cast<size_t>(output_sizes.min());
  result.max_output = static_cast<size_t>(output_sizes.max());
  return result;
}

/// Calibrates the cost model the way the paper does (§4.2: "We use a
/// random set of 100 queries and 10,000 data points for choosing the ratio
/// beta/alpha"), on THIS implementation and machine. `distance_fn(i)` must
/// compute one representative distance against sample point i. The paper's
/// pinned ratios (10, 10, 6, 1) came from its Python implementation; the
/// benches print both.
inline core::CostModel CalibratedModel(
    const std::function<double(size_t)>& distance_fn, size_t sample_size,
    size_t dedup_capacity, double paper_ratio) {
  // The benches hand a sample_size already bounded by their dataset, so it
  // doubles as the callback's valid range n.
  auto calibrated = core::CostCalibrator::Calibrate(
      distance_fn, /*n=*/sample_size, sample_size, dedup_capacity,
      /*ops=*/200000, /*seed=*/1);
  HLSH_CHECK(calibrated.ok());
  const core::CostModel measured = *calibrated;
  std::printf("# cost model: measured beta/alpha = %.1f "
              "(paper's Python implementation used %.0f)\n",
              measured.Ratio(), paper_ratio);
  return measured;
}

/// Header + row printers for the Figure 2 CPU-time sweeps.
inline void PrintFig2Header() {
  std::printf("# %-9s %-12s %-12s %-12s %-9s %-9s %-8s\n", "radius",
              "hybrid_s", "lsh_s", "linear_s", "rec_hyb", "rec_lsh", "%LS");
}

inline void PrintFig2Row(double radius, const StrategyResult& r) {
  std::printf("  %-9.4g %-12.5f %-12.5f %-12.5f %-9.3f %-9.3f %-8.1f\n", radius,
              r.hybrid_seconds, r.lsh_seconds, r.linear_seconds,
              r.hybrid_recall, r.lsh_recall, r.pct_linear_calls);
}

/// One-line qualitative check for the figure shape: who wins at this row.
inline const char* Winner(const StrategyResult& r) {
  const double h = r.hybrid_seconds, l = r.lsh_seconds, n = r.linear_seconds;
  if (h <= l && h <= n) return "hybrid";
  return l <= n ? "lsh" : "linear";
}

}  // namespace bench
}  // namespace hybridlsh

#endif  // HYBRIDLSH_BENCH_BENCH_COMMON_H_
