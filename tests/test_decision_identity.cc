// Decision identity of the resolve-once, bound-decided shard walk.
//
// ShardedEngine::QueryShard resolves each probed bucket once and merges the
// HLL sketches only when the exact collision count leaves the hybrid
// decision open (core::DecideStrategy). The property pinned here: on every
// shard of every query, the engine picks exactly the strategy of the public
// rule
//
//     CorrectedLshCost(EstimateProbe(plan)) < LinearCost
//
// evaluated through the public per-layer functions on the same snapshot,
// returns exactly the ids of that rule's path (same ids, same order), and
// flags the walks whose collision bounds decided. Three engines: static,
// churned (tombstones plus frozen and active logs, with the background
// thread sealing while queries run) and 1%-filtered.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/kernels.h"
#include "data/attributes.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "engine/query_pipeline.h"
#include "engine/sharded_engine.h"

namespace hybridlsh {
namespace engine {
namespace {

constexpr size_t kDim = 16;
constexpr double kRadius = 0.4;
constexpr uint32_t kCategories = 100;  // Equals(0, c) keeps ~1%

using Engine = ShardedEngine<lsh::PStableFamily>;

/// How the collision bounds and the estimate split the checked walks.
struct Outcomes {
  size_t skipped_lsh = 0;
  size_t skipped_linear = 0;
  size_t estimated = 0;
  size_t with_frozen = 0;  // walks whose snapshot held a frozen log
  size_t with_active = 0;  // ... or a non-empty active log
};

class DecisionIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const data::DenseDataset full = data::MakeCorelLike(3001, kDim, 61);
    const data::DenseSplit split = data::SplitQueries(full, 24, 62);
    dataset_ = split.base;
    queries_ = split.queries;
    extra_ = data::MakeCorelLike(4000, kDim, 63);
  }

  static Engine::Options Options() {
    Engine::Options options;
    options.num_shards = 3;
    options.index.num_tables = 25;
    options.index.k = 7;
    options.index.seed = 64;
    options.searcher.cost_model = core::CostModel::FromRatio(6.0);
    options.active_seal_threshold = 64;
    options.max_sealed_segments = 2;
    return options;
  }

  static lsh::PStableFamily Family() {
    return lsh::PStableFamily::L2(kDim, 2 * kRadius);
  }

  /// Runs query `q` through QueryConcurrent and through the public rule
  /// on snapshots acquired around it. Returns false (nothing checked)
  /// when background maintenance moved a shard in between, so the two did
  /// not read the same segments.
  bool CheckQuery(const Engine& engine, Engine::QueryScratch* scratch,
                  const float* query, const data::Predicate* predicate,
                  const data::AttributeStore* attributes, Outcomes* outcomes) {
    const size_t num_shards = engine.num_shards();
    std::vector<Engine::ShardIndex::SegmentSnapshot> before, after;
    std::vector<core::LiveStats> live;
    for (size_t s = 0; s < num_shards; ++s) {
      before.push_back(engine.shard_index(s).Acquire());
      live.push_back(engine.shard_index(s).live_stats());
    }

    QuerySpec spec = QuerySpec::Radius(kRadius);
    spec.predicate = predicate;
    std::vector<uint32_t> got;
    ShardedQueryStats stats;
    EXPECT_TRUE(
        engine.QueryConcurrent(query, spec, &got, scratch, &stats).ok());

    for (size_t s = 0; s < num_shards; ++s) {
      after.push_back(engine.shard_index(s).Acquire());
      const core::LiveStats now = engine.shard_index(s).live_stats();
      if (&after[s].view() != &before[s].view() ||
          after[s].active_count() != before[s].active_count() ||
          now.live != live[s].live || now.indexed != live[s].indexed) {
        return false;
      }
    }

    // The public rule, layer by layer.
    lsh::PlanScratch plan_scratch;
    lsh::ProbePlan plan;
    EXPECT_TRUE(engine.shard_index(0)
                    .ComputePlan(query, 1, &plan_scratch, &plan)
                    .ok());
    util::BitVector filter_bits;
    const FilterContext fctx = BuildFilterContext(
        attributes, predicate, nullptr, engine.dataset().size(),
        engine.live_size(), &filter_bits);
    if (predicate != nullptr) {
      EXPECT_EQ(stats.filter_selectivity, fctx.selectivity);
    }
    const core::CostModel& model = engine.options().searcher.cost_model;
    hll::HyperLogLog sketch = engine.shard_index(0).MakeScratchSketch();
    util::VisitedSet visited(engine.dataset().size());
    std::vector<uint32_t> expected, ids;

    EXPECT_EQ(stats.per_shard.size(), num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      const auto& snap = before[s];
      const lsh::ProbeEstimate estimate = snap.EstimateProbe(plan, &sketch);
      EXPECT_LE(estimate.cand_estimate,
                static_cast<double>(estimate.collisions));
      const double linear_cost = model.LinearCost(live[s].live, fctx.selectivity);
      const bool use_lsh =
          model.CorrectedLshCost(estimate.collisions, estimate.cand_estimate,
                                 live[s], fctx.selectivity) < linear_cost;
      const auto c = static_cast<double>(estimate.collisions);
      const bool bound_lsh = model.CorrectedLshCost(estimate.collisions, c,
                                                    live[s], fctx.selectivity) <
                             linear_cost;
      const bool bound_linear =
          model.CorrectedLshCost(estimate.collisions, 0.0, live[s],
                                 fctx.selectivity) >= linear_cost;

      const core::QueryStats& walk = stats.per_shard[s];
      EXPECT_EQ(walk.strategy,
                use_lsh ? core::Strategy::kLsh : core::Strategy::kLinear)
          << "shard " << s;
      EXPECT_EQ(walk.collisions, estimate.collisions) << "shard " << s;
      EXPECT_EQ(walk.estimate_skipped, bound_lsh || bound_linear)
          << "shard " << s;
      if (walk.estimate_skipped) {
        EXPECT_EQ(walk.cand_estimate, 0.0);
      } else {
        EXPECT_EQ(walk.cand_estimate, estimate.cand_estimate);
      }
      outcomes->skipped_lsh += bound_lsh;
      outcomes->skipped_linear += bound_linear;
      outcomes->estimated += !bound_lsh && !bound_linear;
      outcomes->with_frozen += !snap.view().frozen.empty();
      outcomes->with_active += snap.active_count() > 0;

      if (use_lsh) {
        visited.Reset();
        snap.CollectCandidates(plan, &visited);
        core::kernels::VerifyCandidates(engine.shard_index(s),
                                        engine.dataset(), query,
                                        visited.touched(), kRadius, &expected,
                                        fctx.filter);
      } else {
        ids.clear();
        auto push = [&](uint32_t id) { ids.push_back(id); };
        if (fctx.filter != nullptr) {
          snap.ForEachLiveIdFiltered(*fctx.filter, push);
        } else {
          snap.ForEachLiveId(push);
        }
        core::kernels::VerifyCandidates(engine.shard_index(s),
                                        engine.dataset(), query, ids, kRadius,
                                        &expected);
      }
    }
    EXPECT_EQ(got, expected);
    return true;
  }

  /// Checks every held-out query plus every 50th dataset point (dense
  /// regions, where collisions pile up); returns how many were checked.
  size_t CheckAll(const Engine& engine, const data::Predicate* predicate,
                  const data::AttributeStore* attributes, Outcomes* outcomes) {
    auto scratch = engine.MakeQueryScratch();
    size_t checked = 0;
    for (size_t q = 0; q < queries_.size(); ++q) {
      checked += CheckQuery(engine, &scratch, queries_.point(q), predicate,
                            attributes, outcomes);
    }
    for (size_t i = 0; i < dataset_.size(); i += 50) {
      checked += CheckQuery(engine, &scratch, dataset_.point(i), predicate,
                            attributes, outcomes);
    }
    return checked;
  }

  data::DenseDataset dataset_;
  data::DenseDataset queries_;
  data::DenseDataset extra_;
};

TEST_F(DecisionIdentityTest, StaticEngine) {
  auto engine = Engine::Build(Family(), dataset_, Options());
  ASSERT_TRUE(engine.ok());
  Outcomes outcomes;
  const size_t total = queries_.size() + (dataset_.size() + 49) / 50;
  EXPECT_EQ(CheckAll(*engine, nullptr, nullptr, &outcomes), total);
  // The bounds decide most walks here, but not all of them.
  EXPECT_GT(outcomes.skipped_lsh, 0u);
  EXPECT_GT(outcomes.estimated, 0u);
}

TEST_F(DecisionIdentityTest, ChurnedEngineWithFrozenAndActiveLogs) {
  data::DenseDataset working = dataset_;
  auto built = Engine::Build(Family(), &working, Options());
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(*built);

  size_t next = 0;
  auto insert = [&](size_t count) {
    for (size_t i = 0; i < count && next < extra_.size(); ++i, ++next) {
      auto id = engine.Insert(extra_.point(next));
      ASSERT_TRUE(id.ok());
    }
  };
  auto remove = [&](uint32_t id) { ASSERT_TRUE(engine.Remove(id).ok()); };

  // Sealed and compacted churn: inserts, then every 7th original id and
  // every 5th inserted one removed.
  insert(600);
  for (uint32_t id = 0; id < dataset_.size(); id += 7) remove(id);
  for (size_t i = 0; i < 600; i += 5) {
    remove(static_cast<uint32_t>(dataset_.size() + i));
  }
  engine.DrainMaintenance();

  // Rounds that freeze one log per shard (3 shards x 64 inserts), leave a
  // few entries in the new active logs, remove a few ids, and query at
  // once — while the background thread seals the frozen logs. Snapshots
  // the sealing moved are skipped; the rounds go on until frozen logs
  // were seen by enough checked walks.
  Outcomes outcomes;
  size_t checked = 0;
  for (int round = 0; round < 20 && outcomes.with_frozen < 20; ++round) {
    insert(3 * 64 + 5);
    remove(static_cast<uint32_t>(next + dataset_.size() - 3));
    remove(static_cast<uint32_t>(round * 11 + 1));
    checked += CheckAll(engine, nullptr, nullptr, &outcomes);
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(outcomes.with_frozen, 0u);
  EXPECT_GT(outcomes.with_active, 0u);
  EXPECT_GT(outcomes.skipped_lsh, 0u);
}

TEST_F(DecisionIdentityTest, OnePercentFilteredEngine) {
  data::AttributeStore attributes;
  attributes.AddColumn("category");
  for (size_t id = 0; id < dataset_.size(); ++id) {
    const uint32_t row[1] = {static_cast<uint32_t>(
        ((id * 2654435761u) >> 16) % kCategories)};
    attributes.AppendRow(row);
  }
  auto engine = Engine::Build(Family(), dataset_, Options());
  ASSERT_TRUE(engine.ok());
  engine->AttachAttributes(&attributes);

  Outcomes outcomes;
  for (uint32_t category : {3u, 42u}) {
    const data::Predicate predicate = data::Predicate::Equals(0, category);
    CheckAll(*engine, &predicate, &attributes, &outcomes);
  }
  // At 1% selectivity the filtered scan is cheap: the lower bound sends
  // most walks linear without an estimate.
  EXPECT_GT(outcomes.skipped_linear, 0u);
}

}  // namespace
}  // namespace engine
}  // namespace hybridlsh
