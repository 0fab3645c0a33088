// Unit, property, and failure-injection tests for hll/hyperloglog.h.
//
// The paper's Table 1 depends on HLL delivering < 10% relative error at
// m = 128; the parameterized sweeps here verify the error bound across
// precisions and cardinalities.

#include "hll/hyperloglog.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "engine/segmented_index.h"
#include "lsh/covering.h"
#include "lsh/index.h"
#include "util/random.h"

namespace hybridlsh {
namespace hll {
namespace {

TEST(HyperLogLogTest, EmptyEstimateIsZero) {
  HyperLogLog sketch(7);
  EXPECT_DOUBLE_EQ(sketch.Estimate(), 0.0);
}

TEST(HyperLogLogTest, PrecisionAccessors) {
  HyperLogLog sketch(7);
  EXPECT_EQ(sketch.precision(), 7);
  EXPECT_EQ(sketch.num_registers(), 128u);
  EXPECT_EQ(sketch.MemoryBytes(), 128u);
  EXPECT_NEAR(sketch.StandardError(), 1.04 / std::sqrt(128.0), 1e-12);
}

TEST(HyperLogLogTest, CreateRejectsBadPrecision) {
  EXPECT_FALSE(HyperLogLog::Create(3).ok());
  EXPECT_FALSE(HyperLogLog::Create(19).ok());
  EXPECT_TRUE(HyperLogLog::Create(4).ok());
  EXPECT_TRUE(HyperLogLog::Create(18).ok());
}

TEST(HyperLogLogDeathTest, ConstructorAbortsOnBadPrecision) {
  EXPECT_DEATH(HyperLogLog(2), "HLSH_CHECK");
}

TEST(HyperLogLogTest, SingleElement) {
  HyperLogLog sketch(7);
  sketch.AddPoint(12345);
  EXPECT_NEAR(sketch.Estimate(), 1.0, 0.05);
}

TEST(HyperLogLogTest, UpdatesAreIdempotent) {
  HyperLogLog once(7), thrice(7);
  for (uint32_t id = 0; id < 500; ++id) {
    once.AddPoint(id);
    thrice.AddPoint(id);
    thrice.AddPoint(id);
    thrice.AddPoint(id);
  }
  EXPECT_EQ(once, thrice);
}

TEST(HyperLogLogTest, SmallRangeIsNearExact) {
  // Linear counting makes tiny cardinalities very accurate.
  HyperLogLog sketch(7);
  for (uint32_t id = 0; id < 20; ++id) sketch.AddPoint(id);
  EXPECT_NEAR(sketch.Estimate(), 20.0, 2.0);
}

TEST(HyperLogLogTest, ClearResetsEstimate) {
  HyperLogLog sketch(7);
  for (uint32_t id = 0; id < 1000; ++id) sketch.AddPoint(id);
  sketch.Clear();
  EXPECT_DOUBLE_EQ(sketch.Estimate(), 0.0);
}

TEST(HyperLogLogTest, MergeEqualsSketchOfUnion) {
  // Register-wise max must be *exactly* the sketch of the union — this is
  // the property that lets the paper treat L buckets as one stream.
  HyperLogLog a(7), b(7), expected_union(7);
  for (uint32_t id = 0; id < 3000; ++id) {
    if (id % 2 == 0) a.AddPoint(id);
    if (id % 3 == 0) b.AddPoint(id);
    if (id % 2 == 0 || id % 3 == 0) expected_union.AddPoint(id);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a, expected_union);
}

TEST(HyperLogLogTest, MergeWithOverlapDoesNotDoubleCount) {
  HyperLogLog a(7), b(7);
  for (uint32_t id = 0; id < 2000; ++id) {
    a.AddPoint(id);
    b.AddPoint(id);  // same ids
  }
  ASSERT_TRUE(a.Merge(b).ok());
  const double est = a.Estimate();
  EXPECT_NEAR(est, 2000.0, 2000.0 * 3 * a.StandardError());
}

TEST(HyperLogLogTest, MergeRejectsPrecisionMismatch) {
  HyperLogLog a(6), b(7);
  EXPECT_EQ(a.Merge(b).code(), util::StatusCode::kFailedPrecondition);
}

TEST(HyperLogLogTest, MergeManyPartitionsMatchesWholeStream) {
  // Partition 10k ids into 50 "buckets" (as the L hash tables do), merge,
  // and compare against a sketch of the whole stream.
  constexpr int kParts = 50;
  std::vector<HyperLogLog> parts(kParts, HyperLogLog(7));
  HyperLogLog whole(7);
  for (uint32_t id = 0; id < 10000; ++id) {
    parts[id % kParts].AddPoint(id);
    whole.AddPoint(id);
  }
  HyperLogLog merged(7);
  for (const auto& part : parts) ASSERT_TRUE(merged.Merge(part).ok());
  EXPECT_EQ(merged, whole);
}

TEST(HyperLogLogTest, SerializeRoundTrip) {
  HyperLogLog sketch(7);
  for (uint32_t id = 0; id < 5000; ++id) sketch.AddPoint(id * 17);
  const std::vector<uint8_t> bytes = sketch.Serialize();
  EXPECT_EQ(bytes.size(), 1u + 128u);
  auto restored = HyperLogLog::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, sketch);
  EXPECT_DOUBLE_EQ(restored->Estimate(), sketch.Estimate());
}

TEST(HyperLogLogTest, DeserializeRejectsEmptyBuffer) {
  EXPECT_EQ(HyperLogLog::Deserialize({}).status().code(),
            util::StatusCode::kDataLoss);
}

TEST(HyperLogLogTest, DeserializeRejectsBadPrecision) {
  std::vector<uint8_t> bytes{42};  // precision byte out of range
  bytes.resize(1 + (1ull << 7), 0);
  EXPECT_FALSE(HyperLogLog::Deserialize(bytes).ok());
}

TEST(HyperLogLogTest, DeserializeRejectsTruncatedBuffer) {
  HyperLogLog sketch(7);
  std::vector<uint8_t> bytes = sketch.Serialize();
  bytes.pop_back();
  EXPECT_EQ(HyperLogLog::Deserialize(bytes).status().code(),
            util::StatusCode::kDataLoss);
}

TEST(HyperLogLogTest, DeserializeRejectsOversizedBuffer) {
  HyperLogLog sketch(7);
  std::vector<uint8_t> bytes = sketch.Serialize();
  bytes.push_back(0);
  EXPECT_FALSE(HyperLogLog::Deserialize(bytes).ok());
}

TEST(HyperLogLogTest, DeserializeRejectsCorruptRegister) {
  HyperLogLog sketch(7);
  std::vector<uint8_t> bytes = sketch.Serialize();
  bytes[5] = 255;  // impossible rank for precision 7 (max 58)
  EXPECT_EQ(HyperLogLog::Deserialize(bytes).status().code(),
            util::StatusCode::kDataLoss);
}

TEST(HyperLogLogTest, PointHashIsStable) {
  EXPECT_EQ(PointHash(7), PointHash(7));
  EXPECT_NE(PointHash(7), PointHash(8));
}

// --- Parameterized accuracy sweep -----------------------------------------

struct AccuracyCase {
  int precision;
  uint32_t cardinality;
};

class HllAccuracySweep : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(HllAccuracySweep, RelativeErrorWithinBound) {
  const auto [precision, cardinality] = GetParam();
  util::Rng rng(precision * 1000003u + cardinality);
  HyperLogLog sketch(precision);
  for (uint32_t i = 0; i < cardinality; ++i) sketch.AddHash(rng.NextU64());
  const double est = sketch.Estimate();
  const double rel_err = std::abs(est - cardinality) / cardinality;
  // 4 standard errors, plus 2% absolute slack for small-range transitions.
  const double bound = 4.0 * sketch.StandardError() + 0.02;
  EXPECT_LT(rel_err, bound) << "precision=" << precision
                            << " cardinality=" << cardinality
                            << " estimate=" << est;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HllAccuracySweep,
    ::testing::Values(AccuracyCase{5, 100}, AccuracyCase{5, 1000},
                      AccuracyCase{5, 10000}, AccuracyCase{6, 100},
                      AccuracyCase{6, 1000}, AccuracyCase{6, 50000},
                      AccuracyCase{7, 100}, AccuracyCase{7, 1000},
                      AccuracyCase{7, 10000}, AccuracyCase{7, 100000},
                      AccuracyCase{10, 1000}, AccuracyCase{10, 100000},
                      AccuracyCase{12, 500000}),
    [](const ::testing::TestParamInfo<AccuracyCase>& info) {
      return "p" + std::to_string(info.param.precision) + "_n" +
             std::to_string(info.param.cardinality);
    });

// Average relative error over repeated trials should be close to the
// theoretical standard error (the paper observes ~6-7% at m = 128).
TEST(HyperLogLogTest, MeanRelativeErrorNearTheory) {
  constexpr int kTrials = 60;
  constexpr uint32_t kCardinality = 20000;
  util::Rng rng(99);
  double total_rel_err = 0;
  for (int t = 0; t < kTrials; ++t) {
    HyperLogLog sketch(7);
    for (uint32_t i = 0; i < kCardinality; ++i) sketch.AddHash(rng.NextU64());
    total_rel_err += std::abs(sketch.Estimate() - kCardinality) / kCardinality;
  }
  const double mean_rel_err = total_rel_err / kTrials;
  // E|N(0,s)| = s*sqrt(2/pi) ~ 0.8 s; allow [0.3 s, 1.6 s].
  const double s = 1.04 / std::sqrt(128.0);
  EXPECT_GT(mean_rel_err, 0.3 * s);
  EXPECT_LT(mean_rel_err, 1.6 * s);
}


// The probe estimate is capped at the exact collision count: distinct
// candidates never outnumber collisions, yet linear counting over a few
// ids overshoots — one id alone estimates m ln(m / (m - 1)) > 1. Probing
// k singleton buckets (k distinct ids, k collisions) shows the overshoot on
// the raw merged sketch and the cap on the estimate the walks report.
TEST(HyperLogLogTest, SingletonBucketEstimateIsCappedAtCollisions) {
  constexpr size_t kBuckets = 2000;
  std::vector<uint64_t> keys(kBuckets);
  for (size_t i = 0; i < kBuckets; ++i) keys[i] = util::HashU64(i, 7);
  lsh::LshTable table;
  table.Build(keys, lsh::LshTable::Options{});
  ASSERT_EQ(table.num_buckets(), kBuckets);

  size_t overshoots = 0;
  std::vector<lsh::LshTable::BucketView> views;
  for (size_t k = 1; k <= 200; ++k) {
    lsh::ProbePlan plan;
    plan.keys.assign(keys.begin(), keys.begin() + static_cast<long>(k));
    plan.table_offsets = {0, static_cast<uint32_t>(k)};
    views.clear();
    const uint64_t collisions = lsh::ResolveProbe(
        std::span<const lsh::LshTable>(&table, 1), plan, &views);
    ASSERT_EQ(collisions, k);
    HyperLogLog merged(7);
    lsh::MergeResolved(views, &merged);
    overshoots += merged.Estimate() > static_cast<double>(k);
    EXPECT_LE(lsh::ClampedEstimate(merged, collisions),
              static_cast<double>(collisions));
  }
  EXPECT_GT(overshoots, 0u);
}

// Every EstimateProbe applies the cap: the static index (plan and key
// forms), a segmented snapshot (sealed buckets and the active log's folded
// ids), and covering LSH. One table over points that each sit alone in
// their bucket: a query at a dataset point collides once, and the raw
// estimate of that one id would be above 1.
TEST(HyperLogLogTest, EveryEstimateProbeIsCappedAtCollisions) {
  const data::DenseDataset points = data::MakeUniformCube(500, 8, 3);
  using Index = lsh::LshIndex<lsh::PStableFamily>;
  Index::Options options;
  options.num_tables = 1;
  options.k = 8;
  options.seed = 5;
  const lsh::PStableFamily family = lsh::PStableFamily::L2(8, 0.05);
  auto index = Index::Build(family, points, options);
  ASSERT_TRUE(index.ok());

  using Segmented = engine::SegmentedIndex<lsh::PStableFamily>;
  Segmented::Options segmented_options;
  segmented_options.index = options;
  data::DenseDataset growing = points;
  auto segmented =
      Segmented::Build(family, &growing, 0, 250, segmented_options);
  ASSERT_TRUE(segmented.ok());
  ASSERT_TRUE(segmented->EnableUpdates(&growing).ok());
  for (size_t i = 250; i < points.size(); ++i) {
    // Re-inserts rows 250.. as new ids into the active log.
    ASSERT_TRUE(segmented->Insert(points.point(i)).ok());
  }

  HyperLogLog scratch = index->MakeScratchSketch();
  lsh::PlanScratch plan_scratch;
  lsh::ProbePlan plan;
  std::vector<uint64_t> keys;
  size_t singletons = 0;
  for (size_t i = 0; i < points.size(); i += 5) {
    ASSERT_TRUE(index->ComputePlan(points.point(i), 1, &plan_scratch, &plan)
                    .ok());
    index->QueryKeys(points.point(i), &keys);
    const lsh::ProbeEstimate by_plan = index->EstimateProbe(plan, &scratch);
    const lsh::ProbeEstimate by_keys = index->EstimateProbe(keys, &scratch);
    EXPECT_EQ(by_plan.collisions, by_keys.collisions);
    EXPECT_EQ(by_plan.cand_estimate, by_keys.cand_estimate);
    EXPECT_LE(by_plan.cand_estimate, static_cast<double>(by_plan.collisions));
    if (by_plan.collisions == 1) {
      ++singletons;
      EXPECT_EQ(by_plan.cand_estimate, 1.0);
    }
    const auto snapshot = segmented->Acquire();
    for (const lsh::ProbeEstimate estimate :
         {snapshot.EstimateProbe(plan, &scratch),
          snapshot.EstimateProbe(keys, &scratch)}) {
      EXPECT_LE(estimate.cand_estimate,
                static_cast<double>(estimate.collisions));
    }
  }
  EXPECT_GT(singletons, 0u);
  HyperLogLog one(7);
  one.AddPoint(0);
  EXPECT_GT(one.Estimate(), 1.0);

  const data::BinaryDataset codes = data::MakeRandomCodes(400, 64, 9);
  lsh::CoveringLshIndex::Options covering_options;
  covering_options.radius = 1;
  auto covering = lsh::CoveringLshIndex::Build(codes, covering_options);
  ASSERT_TRUE(covering.ok());
  HyperLogLog covering_scratch(covering_options.hll_precision);
  for (size_t i = 0; i < codes.size(); i += 7) {
    covering->QueryKeys(codes.point(i), &keys);
    const auto estimate = covering->EstimateProbe(keys, &covering_scratch);
    EXPECT_LE(estimate.cand_estimate, static_cast<double>(estimate.collisions));
  }
}

}  // namespace
}  // namespace hll
}  // namespace hybridlsh
