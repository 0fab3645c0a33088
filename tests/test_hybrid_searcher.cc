// Tests for core/hybrid_searcher.h — the paper's Algorithm 2.
//
// Key properties verified here:
//   * the linear path returns the exact rNNR answer;
//   * the LSH path never reports a point outside the radius and meets the
//     1 - delta recall guarantee;
//   * the hybrid decision picks linear for "hard" (dense) queries and LSH
//     for "easy" (sparse) ones on a Webspam-like density mix (Figure 1's
//     q1 / q2 scenario);
//   * hybrid recall >= LSH recall (the paper's closing observation in §4.2);
//   * forced strategies, stats plumbing, estimate-only mode, multi-probe
//     execution, and the covering-LSH searcher all behave.

#include "core/hybrid_searcher.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"

namespace hybridlsh {
namespace core {
namespace {

using data::DenseDataset;

// Webspam-like mix: half the points in a tight cosine cluster, half
// diffuse. Queries 0..9 are cluster members ("hard"), 10..19 background
// ("easy").
class HybridCosineTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 64;
  static constexpr double kRadius = 0.10;

  void SetUp() override {
    data::WebspamLikeConfig config;
    config.n = 6000;
    config.dim = kDim;
    config.cluster_fraction = 0.5;
    // Tight near-duplicate core: cluster pairs sit well inside r = 0.10, so
    // they collide in most of the 50 tables (the paper's q2 scenario). At
    // this n the hybrid decision needs that density to prefer linear.
    config.eps_min = 0.02;
    config.eps_max = 0.20;
    config.seed = 13;
    dataset_ = data::MakeWebspamLike(config);

    queries_ = DenseDataset(0, kDim);
    for (int q = 0; q < 10; ++q) {  // cluster members
      queries_.Append(std::span<const float>(dataset_.point(q * 250), kDim));
    }
    for (int q = 0; q < 10; ++q) {  // background
      queries_.Append(
          std::span<const float>(dataset_.point(3000 + q * 250), kDim));
    }

    CosineIndex::Options options;
    options.num_tables = 50;
    options.delta = 0.1;
    options.radius = kRadius;
    options.seed = 17;
    options.num_build_threads = 8;
    auto index = CosineIndex::Build(lsh::SimHashFamily(kDim), dataset_, options);
    HLSH_CHECK(index.ok());
    index_ = std::make_unique<CosineIndex>(std::move(*index));
  }

  SearcherOptions Opts(double ratio = 10.0) const {
    SearcherOptions options;
    options.cost_model = CostModel::FromRatio(ratio);  // paper: 10 for Webspam
    return options;
  }

  DenseDataset dataset_;
  DenseDataset queries_;
  std::unique_ptr<CosineIndex> index_;
};

TEST_F(HybridCosineTest, LinearPathIsExact) {
  CosineSearcher searcher(index_.get(), &dataset_, Opts());
  for (size_t q = 0; q < queries_.size(); q += 5) {
    std::vector<uint32_t> out;
    QueryStats stats;
    searcher.QueryLinear(queries_.point(q), kRadius, &out, &stats);
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, data::RangeScanDense(dataset_, queries_.point(q), kRadius,
                                        data::Metric::kCosine));
    EXPECT_EQ(stats.strategy, Strategy::kLinear);
    EXPECT_EQ(stats.output_size, out.size());
  }
}

TEST_F(HybridCosineTest, LshPathReportsOnlyTrueNeighbors) {
  CosineSearcher searcher(index_.get(), &dataset_, Opts());
  for (size_t q = 0; q < queries_.size(); ++q) {
    std::vector<uint32_t> out;
    searcher.QueryLsh(queries_.point(q), kRadius, &out);
    for (uint32_t id : out) {
      EXPECT_LE(data::CosineDistance(dataset_.point(id), queries_.point(q),
                                     kDim),
                kRadius + 1e-6);
    }
  }
}

TEST_F(HybridCosineTest, LshPathMeetsRecallGuarantee) {
  CosineSearcher searcher(index_.get(), &dataset_, Opts());
  size_t found = 0, total = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto truth = data::RangeScanDense(dataset_, queries_.point(q),
                                            kRadius, data::Metric::kCosine);
    std::vector<uint32_t> out;
    searcher.QueryLsh(queries_.point(q), kRadius, &out);
    found += static_cast<size_t>(data::Recall(out, truth) *
                                 static_cast<double>(truth.size()) +
                                 0.5);
    total += truth.size();
  }
  EXPECT_GT(static_cast<double>(found) / static_cast<double>(total), 0.85);
}

TEST_F(HybridCosineTest, DecisionSeparatesHardAndEasyQueries) {
  CosineSearcher searcher(index_.get(), &dataset_, Opts());
  int cluster_linear = 0, background_linear = 0;
  for (size_t q = 0; q < 10; ++q) {
    const QueryStats stats = searcher.EstimateOnly(queries_.point(q));
    cluster_linear += (stats.strategy == Strategy::kLinear);
  }
  for (size_t q = 10; q < 20; ++q) {
    const QueryStats stats = searcher.EstimateOnly(queries_.point(q));
    background_linear += (stats.strategy == Strategy::kLinear);
  }
  // Dense cluster queries should usually trigger linear search; diffuse
  // background queries should stay on LSH.
  EXPECT_GE(cluster_linear, 7) << "hard queries misrouted to LSH";
  EXPECT_LE(background_linear, 3) << "easy queries misrouted to linear";
}

TEST_F(HybridCosineTest, HybridRecallAtLeastLshRecall) {
  CosineSearcher searcher(index_.get(), &dataset_, Opts());
  double hybrid_recall = 0, lsh_recall = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto truth = data::RangeScanDense(dataset_, queries_.point(q),
                                            kRadius, data::Metric::kCosine);
    std::vector<uint32_t> hybrid_out, lsh_out;
    searcher.Query(queries_.point(q), kRadius, &hybrid_out);
    searcher.QueryLsh(queries_.point(q), kRadius, &lsh_out);
    hybrid_recall += data::Recall(hybrid_out, truth);
    lsh_recall += data::Recall(lsh_out, truth);
  }
  // The hybrid answers hard queries exactly, so its recall dominates
  // (paper: "hybrid search gives higher recall ratio than LSH-based
  // search"). Tiny slack for per-query randomness.
  EXPECT_GE(hybrid_recall, lsh_recall - 1e-9);
}

TEST_F(HybridCosineTest, HybridStatsAreConsistent) {
  CosineSearcher searcher(index_.get(), &dataset_, Opts());
  for (size_t q = 0; q < queries_.size(); ++q) {
    std::vector<uint32_t> out;
    QueryStats stats;
    searcher.Query(queries_.point(q), kRadius, &out, &stats);
    EXPECT_EQ(stats.output_size, out.size());
    EXPECT_GT(stats.linear_cost, 0.0);
    EXPECT_GE(stats.total_seconds, stats.estimate_seconds);
    if (stats.strategy == Strategy::kLsh) {
      EXPECT_LT(stats.lsh_cost, stats.linear_cost);
      EXPECT_GE(stats.cand_actual, stats.output_size);
    } else {
      EXPECT_GE(stats.lsh_cost, stats.linear_cost);
      // Linear path answers exactly.
      std::sort(out.begin(), out.end());
      EXPECT_EQ(out, data::RangeScanDense(dataset_, queries_.point(q), kRadius,
                                          data::Metric::kCosine));
    }
  }
}

TEST_F(HybridCosineTest, ForcedStrategiesBypassDecision) {
  SearcherOptions lsh_only = Opts();
  lsh_only.forced = ForcedStrategy::kAlwaysLsh;
  SearcherOptions linear_only = Opts();
  linear_only.forced = ForcedStrategy::kAlwaysLinear;
  CosineSearcher lsh_searcher(index_.get(), &dataset_, lsh_only);
  CosineSearcher linear_searcher(index_.get(), &dataset_, linear_only);
  for (size_t q = 0; q < queries_.size(); q += 4) {
    std::vector<uint32_t> out;
    QueryStats stats;
    lsh_searcher.Query(queries_.point(q), kRadius, &out, &stats);
    EXPECT_EQ(stats.strategy, Strategy::kLsh);
    out.clear();
    linear_searcher.Query(queries_.point(q), kRadius, &out, &stats);
    EXPECT_EQ(stats.strategy, Strategy::kLinear);
  }
}

TEST_F(HybridCosineTest, ExtremeRatiosForceEachPath) {
  // beta/alpha -> infinity makes LSH always cheaper (collisions get free);
  // beta/alpha -> 0 makes the candidate term dominate so dense queries go
  // linear. Check the decision responds to the model.
  CosineSearcher cheap_dedup(index_.get(), &dataset_, Opts(1e9));
  const QueryStats s1 = cheap_dedup.EstimateOnly(queries_.point(0));
  // With enormous beta, LshCost ~ beta*cand < beta*n unless cand ~ n.
  EXPECT_EQ(s1.strategy, Strategy::kLsh);

  CosineSearcher pricey_dedup(index_.get(), &dataset_, Opts(1e-9));
  const QueryStats s2 = pricey_dedup.EstimateOnly(queries_.point(0));
  // With beta ~ 0, LinearCost ~ 0 while collisions still cost: linear wins.
  EXPECT_EQ(s2.strategy, Strategy::kLinear);
}

TEST_F(HybridCosineTest, EstimateOnlyMatchesQueryDecision) {
  CosineSearcher searcher(index_.get(), &dataset_, Opts());
  for (size_t q = 0; q < queries_.size(); ++q) {
    const QueryStats estimate = searcher.EstimateOnly(queries_.point(q));
    std::vector<uint32_t> out;
    QueryStats stats;
    searcher.Query(queries_.point(q), kRadius, &out, &stats);
    EXPECT_EQ(estimate.strategy, stats.strategy);
    EXPECT_EQ(estimate.collisions, stats.collisions);
    // EstimateOnly always merges the sketches; Query skips the merge when
    // the collision bounds decide, and then reports no estimate.
    EXPECT_FALSE(estimate.estimate_skipped);
    if (stats.estimate_skipped) {
      EXPECT_EQ(stats.cand_estimate, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(estimate.cand_estimate, stats.cand_estimate);
    }
  }
}

TEST_F(HybridCosineTest, CandEstimateTracksActual) {
  CosineSearcher searcher(index_.get(), &dataset_, Opts());
  for (size_t q = 0; q < queries_.size(); ++q) {
    std::vector<uint32_t> out;
    QueryStats stats;
    searcher.QueryLsh(queries_.point(q), kRadius, &out, &stats);
    const QueryStats estimate = searcher.EstimateOnly(queries_.point(q));
    if (stats.cand_actual < 50) continue;
    const double rel_err =
        std::abs(estimate.cand_estimate -
                 static_cast<double>(stats.cand_actual)) /
        static_cast<double>(stats.cand_actual);
    EXPECT_LT(rel_err, 0.3) << "query " << q;
  }
}

TEST_F(HybridCosineTest, ZeroRadiusReportsOnlyExactDuplicates) {
  CosineSearcher searcher(index_.get(), &dataset_, Opts());
  std::vector<uint32_t> out;
  // Query 0 is dataset point 0: cosine distance 0 to itself.
  searcher.Query(queries_.point(0), 0.0, &out);
  for (uint32_t id : out) {
    EXPECT_LE(data::CosineDistance(dataset_.point(id), queries_.point(0), kDim),
              1e-6);
  }
}

TEST_F(HybridCosineTest, RadiusBeyondTuningStillNeverFalsePositive) {
  // The cost model is radius-blind: an index tuned for r = 0.10 gives no
  // recall promise at r = 0.5 (the paper ties w/k to the target radius).
  // What must still hold at any radius: every reported id is a true
  // neighbor, and the linear path stays exact.
  CosineSearcher searcher(index_.get(), &dataset_, Opts());
  std::vector<uint32_t> out;
  QueryStats stats;
  searcher.Query(queries_.point(0), 0.5, &out, &stats);
  for (uint32_t id : out) {
    EXPECT_LE(data::CosineDistance(dataset_.point(id), queries_.point(0), kDim),
              0.5 + 1e-6);
  }
  out.clear();
  searcher.QueryLinear(queries_.point(0), 0.5, &out, &stats);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, data::RangeScanDense(dataset_, queries_.point(0), 0.5,
                                      data::Metric::kCosine));
}

// --- Multi-probe searcher ----------------------------------------------------

TEST(HybridMultiProbeTest, FewerTablesWithProbesStillRecall) {
  const size_t dim = 16;
  const double radius = 0.4;
  DenseDataset dataset = data::MakeCorelLike(3000, dim, 21);
  util::Rng rng(22);
  DenseDataset queries(0, dim);
  for (int q = 0; q < 10; ++q) {
    std::vector<float> query(dim);
    for (size_t j = 0; j < dim; ++j) query[j] = dataset.point(q * 200)[j];
    data::PlantNeighborsL2(&dataset, query.data(), radius, 6, &rng);
    queries.Append(query);
  }

  // 10 tables (vs the paper's 50) but 8 probes per table.
  L2Index::Options options;
  options.num_tables = 10;
  options.delta = 0.1;
  options.radius = radius;
  options.seed = 23;
  options.num_build_threads = 4;
  auto index =
      L2Index::Build(lsh::PStableFamily::L2(dim, 2 * radius), dataset, options);
  ASSERT_TRUE(index.ok());

  SearcherOptions single = {};
  single.cost_model = CostModel::FromRatio(6.0);
  SearcherOptions probing = single;
  probing.probes_per_table = 8;

  L2Searcher searcher1(&*index, &dataset, single);
  L2Searcher searcher8(&*index, &dataset, probing);

  double recall1 = 0, recall8 = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto truth = data::RangeScanDense(dataset, queries.point(q), radius,
                                            data::Metric::kL2);
    std::vector<uint32_t> out1, out8;
    searcher1.QueryLsh(queries.point(q), radius, &out1);
    searcher8.QueryLsh(queries.point(q), radius, &out8);
    recall1 += data::Recall(out1, truth);
    recall8 += data::Recall(out8, truth);
  }
  EXPECT_GE(recall8, recall1);            // probing can only help recall
  EXPECT_GT(recall8 / queries.size(), 0.85);  // and reaches high recall
}

// --- Covering LSH searcher ---------------------------------------------------

TEST(HybridCoveringTest, NoFalseNegativesThroughFullStack) {
  const uint32_t radius = 4;
  data::BinaryDataset dataset = data::MakeRandomCodes(2000, 64, 31);
  util::Rng rng(32);
  data::BinaryDataset queries(0, 64);
  for (int q = 0; q < 10; ++q) {
    const uint64_t query = dataset.point(q * 150)[0];
    data::PlantNeighborsHamming(&dataset, &query, radius, 5, &rng);
    queries.Append(&query);
  }

  lsh::CoveringLshIndex::Options options;
  options.radius = radius;
  options.seed = 33;
  options.num_build_threads = 8;
  auto index = lsh::CoveringLshIndex::Build(dataset, options);
  ASSERT_TRUE(index.ok());

  SearcherOptions searcher_options;
  searcher_options.cost_model = CostModel::FromRatio(1.0);
  CoveringSearcher searcher(&*index, &dataset, searcher_options);

  for (size_t q = 0; q < queries.size(); ++q) {
    const auto truth = data::RangeScanBinary(dataset, queries.point(q), radius);
    std::vector<uint32_t> out;
    QueryStats stats;
    searcher.Query(queries.point(q), radius, &out, &stats);
    std::sort(out.begin(), out.end());
    // Hybrid over covering LSH is *exact* regardless of the chosen path:
    // linear is exact by construction, covering-LSH has no false negatives
    // and S3 removes false positives.
    EXPECT_EQ(out, truth) << "query " << q << " strategy "
                          << StrategyName(stats.strategy);
  }
}

}  // namespace
}  // namespace core
}  // namespace hybridlsh
