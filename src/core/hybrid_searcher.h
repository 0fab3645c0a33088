// The hybrid search strategy (paper Algorithm 2) — the primary contribution.
//
// For each query the searcher:
//   1. hashes the query into its L bucket keys (LSH step S1);
//   2. reads the probed buckets' sizes (exact #collisions) and merges their
//      HyperLogLog sketches to estimate candSize (Alg. 2 lines 1-2);
//   3. evaluates LSHCost = alpha*#collisions + beta*candSize against
//      LinearCost = beta*n (lines 3);
//   4. answers with LSH-based search when LSHCost < LinearCost, with an
//      exact linear scan otherwise (line 4).
//
// Both execution paths verify candidates through the block-batched SIMD
// kernels in core/kernels.h (flat id buffer + prefetch + dispatched
// distance kernels) rather than one Distance() call per candidate.
//
// HybridSearcher is generic over the index (LshIndex<Family> or
// CoveringLshIndex) and the dataset container; it owns the per-query
// scratch (VisitedSet, merged HLL, key buffer), so create one searcher per
// thread and reuse it across queries. It does not own the index or the
// dataset.

#ifndef HYBRIDLSH_CORE_HYBRID_SEARCHER_H_
#define HYBRIDLSH_CORE_HYBRID_SEARCHER_H_

#include <concepts>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/cost_model.h"
#include "core/kernels.h"
#include "hll/hyperloglog.h"
#include "lsh/index.h"
#include "util/bit_vector.h"
#include "util/status.h"
#include "util/timer.h"

namespace hybridlsh {
namespace core {

/// Which execution path answered a query.
enum class Strategy {
  kLsh,
  kLinear,
};

/// Stable display name ("lsh" / "linear").
inline std::string_view StrategyName(Strategy strategy) {
  return strategy == Strategy::kLsh ? "lsh" : "linear";
}

/// Per-query observability: everything Table 1 and Figures 2-3 report.
struct QueryStats {
  Strategy strategy = Strategy::kLsh;
  /// Exact number of collisions in the probed buckets.
  uint64_t collisions = 0;
  /// candSize estimate from the merged HLLs, capped at collisions (0 when
  /// estimate_skipped).
  double cand_estimate = 0.0;
  /// True when the exact collision count alone decided the strategy, so no
  /// sketch was merged (core::DecideStrategy).
  bool estimate_skipped = false;
  /// Exact distinct candidate count (LSH path only; 0 on the linear path).
  size_t cand_actual = 0;
  /// Number of reported near neighbors.
  size_t output_size = 0;
  /// Model costs behind the decision; when the estimate was skipped,
  /// lsh_cost is the collision bound that decided.
  double lsh_cost = 0.0;
  double linear_cost = 0.0;
  /// Wall seconds spent deciding: merging HLLs + estimating candSize
  /// (Table 1 %Cost). On plan walks the bucket lookups it shares with the
  /// gather are not included.
  double estimate_seconds = 0.0;
  /// Wall seconds for the whole query (S1 + estimate + execution).
  double total_seconds = 0.0;
  /// Per-table hash signatures evaluated for this query: L on any path
  /// that runs S1 (hybrid, forced-LSH), 0 on forced-linear. Under a
  /// sharded engine the per-shard value is 0 — the engine hashes once and
  /// every shard walk reuses the plan.
  uint64_t hash_evals = 0;
  /// 1 when this query (or shard walk) consumed a precomputed ProbePlan
  /// instead of rehashing; 0 on the legacy key-buffer path and on
  /// forced-linear.
  size_t plan_reuse = 0;
};

/// Copies a decision's figures (not the strategy, which a forced mode may
/// override) into a walk's stats.
inline void NoteDecision(const StrategyDecision& decision, QueryStats* s) {
  s->cand_estimate = decision.cand_estimate;
  s->estimate_skipped = decision.estimate_skipped;
  s->lsh_cost = decision.lsh_cost;
  s->linear_cost = decision.linear_cost;
}

/// Mutually exclusive execution modes (see Query()).
enum class ForcedStrategy {
  kAuto,        // the hybrid decision (default)
  kAlwaysLsh,   // classic LSH-based search
  kAlwaysLinear  // exact scan
};

/// Options for a HybridSearcher.
struct SearcherOptions {
  /// The calibrated or pinned (alpha, beta) constants.
  CostModel cost_model;
  /// Probes per table; > 1 enables multi-probe on indexes that support it.
  size_t probes_per_table = 1;
  /// Bypass the decision (used by the figure benches' LSH/Linear series).
  ForcedStrategy forced = ForcedStrategy::kAuto;
};

/// S1 for any index: the home-bucket keys, or the multi-probe sequence when
/// probes_per_table > 1. Shared by HybridSearcher and the sharded engine so
/// the probing policy cannot diverge between the monolithic and sharded
/// paths. Aborts if probing is requested on an index without multi-probe
/// support.
template <typename Index>
void ComputeProbeKeys(const Index& index, typename Index::Point query,
                      size_t probes_per_table, std::vector<uint64_t>* keys) {
  constexpr bool kHasMultiProbe =
      requires(const Index& i, typename Index::Point p, size_t probes,
               std::vector<uint64_t>* out) {
        i.QueryKeysMultiProbe(p, probes, out);
      };
  if (probes_per_table > 1) {
    if constexpr (kHasMultiProbe) {
      HLSH_CHECK(index.QueryKeysMultiProbe(query, probes_per_table, keys).ok());
      return;
    } else {
      HLSH_CHECK(false && "index does not support multi-probe");
    }
  }
  index.QueryKeys(query, keys);
}

/// Detects a segmented (mutable) index — engine/segmented_index.h. Such an
/// index reports live_size() < dataset size after deletes, iterates live
/// ids for the linear path, and needs the tombstone correction applied to
/// the LSH cost before the strategy decision.
template <typename Index>
concept SegmentedIndexLike = requires(const Index& index) {
  { index.live_size() } -> std::convertible_to<size_t>;
  { index.live_fraction() } -> std::convertible_to<double>;
  index.ForEachLiveId([](uint32_t) {});
};

/// Hybrid rNNR searcher over a built index and its dataset.
///
/// Index requirements: Point, QueryKeys, EstimateProbe, CollectCandidates,
/// Distance, size(), MakeScratchSketch(). Dataset requirements: size(),
/// point(i) -> Point. The dataset must be the one the index was built on.
///
/// Over a SegmentedIndexLike index the searcher follows the mutable
/// lifecycle: the per-query scratch grows with the dataset, the estimate
/// sums across segments (inside the index), the decision compares the
/// tombstone-corrected LSH cost against LinearCost(live_size), and the
/// linear path scans live ids only.
template <typename Index, typename Dataset>
class HybridSearcher {
 public:
  using Point = typename Index::Point;

  static constexpr bool kSegmented = SegmentedIndexLike<Index>;

  HybridSearcher(const Index* index, const Dataset* dataset,
                 const SearcherOptions& options)
      : index_(index),
        dataset_(dataset),
        options_(options),
        visited_(dataset->size()),
        merged_(index->MakeScratchSketch()) {
    if constexpr (!kSegmented) {
      HLSH_CHECK(index->size() == dataset->size());
    }
    HLSH_CHECK(options.probes_per_table >= 1);
    if constexpr (requires { index->id_base(); }) {
      // A range-offset index (lsh/index.h Options::id_base) stores global
      // ids outside [0, size()), which would index past visited_ and the
      // dataset here. Such indexes belong to engine::ShardedEngine, whose
      // scratch spans the parent id space.
      HLSH_CHECK(index->id_base() == 0);
    }
  }

  /// Reports all ids with Distance(point, query) <= radius, each with
  /// probability >= 1 - delta (exactly, when the linear path is taken).
  /// Results are appended to *out in unspecified order. `stats` is optional.
  void Query(Point query, double radius, std::vector<uint32_t>* out,
             QueryStats* stats = nullptr) {
    QueryStats local_stats;
    QueryStats* s = stats != nullptr ? stats : &local_stats;
    *s = QueryStats{};
    util::WallTimer total_timer;
    EnsureCapacity();

    if (options_.forced == ForcedStrategy::kAlwaysLinear) {
      s->strategy = Strategy::kLinear;
      s->linear_cost = options_.cost_model.LinearCost(LiveStatsSnapshot().live);
      ExecuteLinear(query, radius, out, s);
      s->total_seconds = total_timer.ElapsedSeconds();
      return;
    }

    // S1: the probe plan (or legacy bucket keys) — home buckets plus the
    // multi-probe sequence — resolved against the tables.
    ComputeProbe(query, s);

    // Alg. 2: exact #collisions, then the candSize estimate where the
    // collision bounds leave the decision open, and the comparison. A
    // segmented index's estimate includes tombstoned ids; the corrected LSH
    // cost discounts their share, and the linear path scans live points.
    const bool use_lsh = Decide(LiveStatsSnapshot(), 1.0, s);

    if (use_lsh) {
      s->strategy = Strategy::kLsh;
      ExecuteLsh(query, radius, out, s);
    } else {
      s->strategy = Strategy::kLinear;
      ExecuteLinear(query, radius, out, s);
    }
    s->total_seconds = total_timer.ElapsedSeconds();
  }

  /// Predicate-filtered Query(): the pipeline's searcher leg. `filter`
  /// holds raw predicate bits over [0, bound) — bit set iff the id passes
  /// the predicate (engine/query_pipeline.h BuildFilterContext evaluates
  /// it; here it need NOT be composed with tombstones: the LSH path drops
  /// dead ids at S2 as always, the linear path iterates live ids only).
  /// Null filter degrades to Query(). The strategy decision folds the
  /// filter's selectivity through CostModel::EffectiveLiveFraction, so at
  /// low selectivity the linear path — which verifies only filter
  /// survivors — wins even when the unfiltered decision would pick LSH.
  /// Results are exactly the unfiltered results restricted to ids whose
  /// filter bit is set (ids at or past filter->size() fail).
  void QueryFiltered(Point query, double radius, const util::BitVector* filter,
                     std::vector<uint32_t>* out, QueryStats* stats = nullptr) {
    if (filter == nullptr) {
      Query(query, radius, out, stats);
      return;
    }
    QueryStats local_stats;
    QueryStats* s = stats != nullptr ? stats : &local_stats;
    *s = QueryStats{};
    util::WallTimer total_timer;
    EnsureCapacity();

    const LiveStats live = LiveStatsSnapshot();
    // Survivor estimate: predicate passers (dead passers inflate it for a
    // standalone segmented index, which only nudges the decision toward
    // LSH — the clamp keeps the fraction sane).
    double selectivity =
        live.live == 0 ? 0.0
                       : static_cast<double>(filter->Count()) /
                             static_cast<double>(live.live);
    if (selectivity > 1.0) selectivity = 1.0;

    if (options_.forced == ForcedStrategy::kAlwaysLinear) {
      s->strategy = Strategy::kLinear;
      s->linear_cost = options_.cost_model.LinearCost(live.live, selectivity);
      ExecuteLinearFiltered(query, radius, filter, out, s);
      s->total_seconds = total_timer.ElapsedSeconds();
      return;
    }

    ComputeProbe(query, s);
    const bool use_lsh = Decide(live, selectivity, s);
    if (use_lsh) {
      s->strategy = Strategy::kLsh;
      ExecuteLsh(query, radius, out, s, filter);
    } else {
      s->strategy = Strategy::kLinear;
      ExecuteLinearFiltered(query, radius, filter, out, s);
    }
    s->total_seconds = total_timer.ElapsedSeconds();
  }

  /// Classic LSH-based search (no decision, no estimation overhead beyond
  /// stats collection).
  void QueryLsh(Point query, double radius, std::vector<uint32_t>* out,
                QueryStats* stats = nullptr) {
    QueryStats local_stats;
    QueryStats* s = stats != nullptr ? stats : &local_stats;
    *s = QueryStats{};
    util::WallTimer total_timer;
    EnsureCapacity();
    ComputeProbe(query, s);
    s->strategy = Strategy::kLsh;
    ExecuteLsh(query, radius, out, s);
    s->total_seconds = total_timer.ElapsedSeconds();
  }

  /// Exact linear scan.
  void QueryLinear(Point query, double radius, std::vector<uint32_t>* out,
                   QueryStats* stats = nullptr) {
    QueryStats local_stats;
    QueryStats* s = stats != nullptr ? stats : &local_stats;
    *s = QueryStats{};
    util::WallTimer total_timer;
    EnsureCapacity();
    s->strategy = Strategy::kLinear;
    ExecuteLinear(query, radius, out, s);
    s->total_seconds = total_timer.ElapsedSeconds();
  }

  /// The decision inputs for a query without executing it (Alg. 2 lines
  /// 1-3). Useful for inspecting the cost model: unlike Query, it always
  /// merges the sketches and reports the estimate (estimate_skipped stays
  /// false); the strategy is the one the hybrid decision picks.
  QueryStats EstimateOnly(Point query) {
    QueryStats s;
    util::WallTimer total_timer;
    ComputeProbe(query, &s);
    util::WallTimer estimate_timer;
    const double cand_estimate = FullEstimate(&s);
    const StrategyDecision decision = DecideAtEstimate(
        options_.cost_model, s.collisions, cand_estimate, LiveStatsSnapshot());
    s.estimate_seconds = estimate_timer.ElapsedSeconds();
    NoteDecision(decision, &s);
    s.strategy = decision.use_lsh ? Strategy::kLsh : Strategy::kLinear;
    s.total_seconds = total_timer.ElapsedSeconds();
    return s;
  }

  const CostModel& cost_model() const { return options_.cost_model; }
  const SearcherOptions& options() const { return options_; }

 private:
  /// Does the index speak the hash-once, resolve-once ProbePlan protocol
  /// (lsh/index.h)? LshIndex does; SegmentedIndex (whose one-call forms
  /// each acquire their own snapshot) and CoveringLshIndex stay on the
  /// legacy key buffer.
  static constexpr bool kHasPlan =
      requires(const Index& i, Point p, size_t probes,
               lsh::PlanScratch* scratch, lsh::ProbePlan* plan,
               std::vector<lsh::LshTable::BucketView>* views,
               hll::HyperLogLog* merged, util::VisitedSet* visited) {
        { i.ComputePlan(p, probes, scratch, plan) } -> std::same_as<util::Status>;
        { i.ResolveProbe(*plan, views) } -> std::same_as<uint64_t>;
        i.EstimateResolved(*views, uint64_t{0}, merged);
        i.GatherResolved(*views, visited);
      };

  /// S1: compute the probe plan (and record the hash accounting) and
  /// resolve its buckets once, setting the exact collision count — or fall
  /// back to the flat key buffer for indexes without plan support.
  void ComputeProbe(Point query, QueryStats* s) {
    if constexpr (kHasPlan) {
      HLSH_CHECK(index_
                     ->ComputePlan(query, options_.probes_per_table,
                                   &plan_scratch_, &plan_)
                     .ok());
      s->hash_evals = plan_.num_tables();
      s->plan_reuse = 1;
      s->collisions = index_->ResolveProbe(plan_, &buckets_);
    } else {
      ComputeProbeKeys(*index_, query, options_.probes_per_table, &keys_);
      s->hash_evals = static_cast<uint64_t>(index_->num_tables());
    }
  }

  /// Alg. 2 lines 1-2: the capped candSize estimate. The key-buffer path
  /// learns the collision count here too.
  double FullEstimate(QueryStats* s) {
    if constexpr (kHasPlan) {
      return index_->EstimateResolved(buckets_, s->collisions, &merged_);
    } else {
      const auto estimate = index_->EstimateProbe(keys_, &merged_);
      s->collisions = estimate.collisions;
      return estimate.cand_estimate;
    }
  }

  /// Alg. 2 lines 2-4 after ComputeProbe: records the decision in *s and
  /// returns whether to take the LSH path. Plan walks decide from the
  /// collision bounds where they suffice (core::DecideStrategy); the
  /// key-buffer path has its estimate anyway and decides at it.
  bool Decide(const LiveStats& live, double selectivity, QueryStats* s) {
    util::WallTimer estimate_timer;
    StrategyDecision decision;
    if constexpr (kHasPlan) {
      decision = DecideStrategy(options_.cost_model, s->collisions, live,
                                selectivity, [&] { return FullEstimate(s); });
    } else {
      const double cand_estimate = FullEstimate(s);
      decision = DecideAtEstimate(options_.cost_model, s->collisions,
                                  cand_estimate, live, selectivity);
    }
    s->estimate_seconds = estimate_timer.ElapsedSeconds();
    NoteDecision(decision, s);
    return options_.forced == ForcedStrategy::kAlwaysLsh || decision.use_lsh;
  }

  // S2 + S3: dedup candidates into the flat touched() buffer, then verify
  // it in one block-batched kernel pass (core/kernels.h). A pushed-down
  // filter rides into the verify call: filtered candidates pay a bit test,
  // not a distance.
  void ExecuteLsh(Point query, double radius, std::vector<uint32_t>* out,
                  QueryStats* s, const util::BitVector* filter = nullptr) {
    visited_.Reset();
    if constexpr (kHasPlan) {
      index_->GatherResolved(buckets_, &visited_);
    } else {
      s->collisions = index_->CollectCandidates(keys_, &visited_);
    }
    s->cand_actual = visited_.size();
    s->output_size += kernels::VerifyCandidates(
        *index_, *dataset_, query, visited_.touched(), radius, out, filter);
  }

  void ExecuteLinear(Point query, double radius, std::vector<uint32_t>* out,
                     QueryStats* s) {
    if constexpr (kSegmented) {
      // Gather the live ids into a flat buffer so verification runs
      // block-batched instead of one virtual-ish call per id.
      linear_ids_.clear();
      index_->ForEachLiveId([&](uint32_t id) { linear_ids_.push_back(id); });
      s->output_size += kernels::VerifyCandidates(*index_, *dataset_, query,
                                                  linear_ids_, radius, out);
    } else {
      s->output_size += kernels::VerifyAllIds(
          *index_, *dataset_, query, 0,
          static_cast<uint32_t>(dataset_->size()), radius, out);
    }
  }

  /// The filtered linear path verifies only filter survivors. Static
  /// indexes let the range kernel word-skip the bitmap directly; a
  /// segmented index intersects during the live-id walk so dead passers
  /// never reach the verify buffer.
  void ExecuteLinearFiltered(Point query, double radius,
                             const util::BitVector* filter,
                             std::vector<uint32_t>* out, QueryStats* s) {
    if constexpr (kSegmented) {
      linear_ids_.clear();
      const size_t bound = filter->size();
      index_->ForEachLiveId([&](uint32_t id) {
        if (id < bound && filter->Get(id)) linear_ids_.push_back(id);
      });
      s->output_size += kernels::VerifyCandidates(*index_, *dataset_, query,
                                                  linear_ids_, radius, out);
    } else {
      s->output_size += kernels::VerifyAllIds(
          *index_, *dataset_, query, 0,
          static_cast<uint32_t>(dataset_->size()), radius, out, filter);
    }
  }

  /// One coherent (live, indexed) pair per decision. A concurrent
  /// segmented index keeps both packed in one atomic word (live_stats()),
  /// so the tombstone correction and the linear comparison price from the
  /// same instant; two separate live_size()/live_fraction() calls could
  /// straddle a writer's update. Static indexes are trivially coherent.
  LiveStats LiveStatsSnapshot() const {
    if constexpr (requires(const Index& index) {
                    { index.live_stats() } -> std::convertible_to<LiveStats>;
                  }) {
      return index_->live_stats();
    } else if constexpr (kSegmented) {
      return LiveStats{index_->live_size(), index_->indexed_size()};
    } else {
      return LiveStats{dataset_->size(), dataset_->size()};
    }
  }

  /// A mutable index's dataset grows between queries; keep the dedup set's
  /// id space in step (no-op on the static path).
  void EnsureCapacity() {
    if constexpr (kSegmented) {
      if (visited_.capacity() < dataset_->size()) {
        visited_.Resize(dataset_->size());
      }
    }
  }

  const Index* index_;
  const Dataset* dataset_;
  SearcherOptions options_;
  util::VisitedSet visited_;
  hll::HyperLogLog merged_;
  std::vector<uint64_t> keys_;        // legacy S1 buffer (non-plan indexes)
  lsh::PlanScratch plan_scratch_;     // hash-once S1 workspace
  lsh::ProbePlan plan_;               // the query's reusable probe plan
  std::vector<lsh::LshTable::BucketView> buckets_;  // plan_'s resolved buckets
  std::vector<uint32_t> linear_ids_;  // live-id scratch (segmented linear)
};

}  // namespace core
}  // namespace hybridlsh

#endif  // HYBRIDLSH_CORE_HYBRID_SEARCHER_H_
