// Quickstart: build a hybrid LSH index over an L2 point set and answer
// r-near-neighbor-reporting (rNNR) queries.
//
// The hybrid searcher (Pham, EDBT 2017) estimates, per query, whether
// classic LSH-based search or a plain linear scan will be cheaper — using
// HyperLogLog sketches embedded in every LSH bucket — and runs the winner.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "core/hybridlsh.h"

using namespace hybridlsh;

int main() {
  // 1. Data: 20,000 points in 32 dimensions with mixed cluster densities.
  //    In a real application you would load your own vectors (see data/io.h
  //    for fvecs / csv / libsvm readers).
  const size_t dim = 32;
  const double radius = 0.45;
  const data::DenseDataset full = data::MakeCorelLike(20000, dim, /*seed=*/1);

  // Hold out 5 points as queries (the paper's protocol).
  const data::DenseSplit split = data::SplitQueries(full, 5, /*seed=*/2);
  const data::DenseDataset& points = split.base;

  // 2. Index: 50 tables of 2-stable (Gaussian) projections for L2 distance.
  //    The paper ties the quantization window to the radius (w = 2r) and
  //    k is derived from (radius, delta) by the E2LSH rule.
  lsh::PStableFamily family = lsh::PStableFamily::L2(dim, 2 * radius);
  L2Index::Options options;
  options.num_tables = 50;
  options.k = 0;  // auto: k = ceil(log(1 - delta^(1/L)) / log p1)
  options.delta = 0.1;
  options.radius = radius;
  options.num_build_threads = 8;
  auto index = L2Index::Build(family, points, options);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  std::printf("index: n=%zu L=%d k=%d p1(r)=%.3f recall>=%.3f sketches=%zu\n",
              index->size(), index->num_tables(), index->k(),
              index->stats().p1_at_radius, index->stats().recall_lower_bound,
              index->stats().total_sketches);

  // 3. Searcher: the cost model's beta/alpha ratio is the price of one
  //    distance computation in units of one dedup operation. Measure it
  //    (core::CostCalibrator) or pin it like the paper does (Corel: 6).
  core::SearcherOptions searcher_options;
  searcher_options.cost_model = core::CostModel::FromRatio(6.0);
  L2Searcher searcher(&*index, &points, searcher_options);

  // 4. Queries: the searcher reports every point within `radius` with
  //    probability >= 1 - delta, choosing LSH or linear per query.
  std::vector<uint32_t> neighbors;
  core::QueryStats stats;
  for (size_t q = 0; q < split.queries.size(); ++q) {
    neighbors.clear();
    searcher.Query(split.queries.point(q), radius, &neighbors, &stats);
    // When the exact collision count already decides, no sketch is merged
    // and lsh_cost is the bound that decided.
    char cand[32];
    if (stats.estimate_skipped) {
      std::snprintf(cand, sizeof(cand), "skipped");
    } else {
      std::snprintf(cand, sizeof(cand), "%.0f", stats.cand_estimate);
    }
    std::printf(
        "query %zu: strategy=%-6s  neighbors=%-5zu  collisions=%-6llu "
        "candSize~%-7s (actual %zu)  cost lsh=%.0f linear=%.0f\n",
        q, std::string(core::StrategyName(stats.strategy)).c_str(),
        neighbors.size(), static_cast<unsigned long long>(stats.collisions),
        cand, stats.cand_actual, stats.lsh_cost, stats.linear_cost);
  }

  // 5. Recall check against exact ground truth (linear scan).
  double recall = 0;
  for (size_t q = 0; q < split.queries.size(); ++q) {
    const auto truth = data::RangeScanDense(points, split.queries.point(q),
                                            radius, data::Metric::kL2);
    neighbors.clear();
    searcher.Query(split.queries.point(q), radius, &neighbors);
    recall += data::Recall(neighbors, truth);
  }
  std::printf("average recall over %zu queries: %.3f (target >= %.2f)\n",
              split.queries.size(), recall / split.queries.size(),
              1.0 - options.delta);
  return 0;
}
