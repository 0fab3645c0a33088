#include "replay.h"

#include <algorithm>
#include <cmath>

#include "core/cost_model.h"

namespace perfbench {

namespace core = hybridlsh::core;
namespace engine = hybridlsh::engine;
namespace lsh = hybridlsh::lsh;

void Replayer::Replay(const Inputs& in, const float* point,
                      const hybridlsh::data::Predicate* predicate,
                      double engine_seconds, std::vector<uint32_t>* out) {
  const DenseEngine& eng = *in.engine;
  if (!sketch_.has_value()) sketch_ = eng.shard_index(0).MakeScratchSketch();
  const core::CostModel& model = eng.options().searcher.cost_model;
  const uint32_t query = queries_++;
  engine_seconds_ += engine_seconds;
  const size_t num_shards = eng.num_shards();
  const size_t first_walk = walks_.size();
  walks_.resize(first_walk + num_shards);
  snapshots_.resize(num_shards);

  engine::FilterContext filter;
  {
    ScopedSpan root(&recorder_, query, 0, Stage::kQuery, -1);
    {
      ScopedSpan span(&recorder_, query, 0, Stage::kFilter, root.id());
      filter = engine::BuildFilterContext(in.attributes, predicate,
                                          in.removed, eng.dataset().size(),
                                          eng.size(), &filter_bits_);
    }
    {
      ScopedSpan span(&recorder_, query, 0, Stage::kPlan, root.id());
      HLSH_CHECK(eng.shard_index(0)
                     .ComputePlan(point, eng.options().searcher.probes_per_table,
                                  &plan_scratch_, &plan_)
                     .ok());
    }
    for (uint32_t s = 0; s < num_shards; ++s) {
      ScopedSpan shard(&recorder_, query, s, Stage::kShard, root.id());
      const DenseEngine::ShardIndex& index = eng.shard_index(s);
      {
        ScopedSpan span(&recorder_, query, s, Stage::kAcquire, shard.id());
        snapshots_[s] = index.Acquire();
      }
      if (visited_.capacity() < snapshots_[s].id_bound()) {
        visited_.Resize(snapshots_[s].id_bound());
      }
      lsh::ProbeEstimate estimate;
      {
        ScopedSpan span(&recorder_, query, s, Stage::kEstimate, shard.id());
        estimate = snapshots_[s].EstimateProbe(plan_, &*sketch_);
      }
      bool use_lsh = false;
      core::LiveStats live;
      {
        ScopedSpan span(&recorder_, query, s, Stage::kDecide, shard.id());
        live = index.live_stats();
        use_lsh = model.CorrectedLshCost(estimate.collisions,
                                         estimate.cand_estimate, live,
                                         filter.selectivity) <
                  model.LinearCost(live.live, filter.selectivity);
      }
      Walk& walk = walks_[first_walk + s];
      walk.chose_lsh = use_lsh;
      walk.cand_estimate = estimate.cand_estimate * live.fraction();
      if (use_lsh) {
        RunLsh(in, snapshots_[s], point, filter, query, s, shard.id(), &walk,
               out);
      } else {
        RunLinear(in, snapshots_[s], point, filter, query, s, shard.id(),
                  &walk, out);
      }
    }
  }

  // Decision audit: the path not taken, on the same snapshot, outside the
  // query's root span so it never counts as query time.
  {
    ScopedSpan audit(&recorder_, query, 0, Stage::kAudit, -1);
    for (uint32_t s = 0; s < num_shards; ++s) {
      Walk& walk = walks_[first_walk + s];
      audit_out_.clear();
      if (walk.chose_lsh) {
        RunLinear(in, snapshots_[s], point, filter, query, s, audit.id(),
                  &walk, &audit_out_);
      } else {
        RunLsh(in, snapshots_[s], point, filter, query, s, audit.id(), &walk,
               &audit_out_);
      }
    }
  }

  if (predicate != nullptr) {
    ++filtered_queries_;
    selectivity_sum_ += filter.selectivity;
  }
  probe_keys_ += plan_.keys.size();
  snapshots_.clear();  // do not pin superseded segment lists between reads
}

void Replayer::RunLsh(const Inputs& in, const Snapshot& snapshot,
                      const float* point,
                      const engine::FilterContext& filter, uint32_t query,
                      uint32_t shard, int32_t parent, Walk* walk,
                      std::vector<uint32_t>* out) {
  ScopedSpan path(&recorder_, query, shard, Stage::kLsh, parent);
  walk->lsh_span = path.id();
  {
    ScopedSpan span(&recorder_, query, shard, Stage::kGather, path.id());
    visited_.Reset();
    walk->collisions = snapshot.CollectCandidates(plan_, &visited_);
  }
  walk->candidates = visited_.size();
  ScopedSpan span(&recorder_, query, shard, Stage::kVerify, path.id());
  walk->lsh_outputs = core::kernels::VerifyBlockQuantized(
      *in.points, *in.mirror, in.engine->shard_index(0).family().metric(),
      point, visited_.touched(), in.radius, out, &screen_, filter.filter);
}

void Replayer::RunLinear(const Inputs& in, const Snapshot& snapshot,
                         const float* point,
                         const engine::FilterContext& filter, uint32_t query,
                         uint32_t shard, int32_t parent, Walk* walk,
                         std::vector<uint32_t>* out) {
  ScopedSpan path(&recorder_, query, shard, Stage::kLinear, parent);
  walk->linear_span = path.id();
  {
    ScopedSpan span(&recorder_, query, shard, Stage::kEnumerate, path.id());
    live_ids_.clear();
    auto push = [&](uint32_t id) { live_ids_.push_back(id); };
    if (filter.filter != nullptr) {
      snapshot.ForEachLiveIdFiltered(*filter.filter, push);
    } else {
      snapshot.ForEachLiveId(push);
    }
  }
  walk->scanned = live_ids_.size();
  ScopedSpan span(&recorder_, query, shard, Stage::kScan, path.id());
  core::kernels::VerifyBlockQuantized(
      *in.points, *in.mirror, in.engine->shard_index(0).family().metric(),
      point, live_ids_, in.radius, out, &screen_);
}

void Replayer::Report(Result* result) const {
  const std::vector<Span>& spans = recorder_.spans();
  const std::vector<int64_t> self = recorder_.SelfTimes();
  const std::vector<Stage> roots = recorder_.RootStages();
  double stage_ns[static_cast<size_t>(Stage::kNumStages)] = {};
  double query_ns = 0.0;       // replayed queries, chosen path
  double chosen_leaf_ns = 0.0;  // their leaf stages' self time
  for (size_t i = 0; i < spans.size(); ++i) {
    const Stage stage = spans[i].stage;
    stage_ns[static_cast<size_t>(stage)] += spans[i].duration_ns();
    if (stage == Stage::kQuery) query_ns += spans[i].duration_ns();
    const bool container = stage == Stage::kQuery || stage == Stage::kShard ||
                           stage == Stage::kLsh || stage == Stage::kLinear;
    if (roots[i] == Stage::kQuery && !container) chosen_leaf_ns += self[i];
  }
  auto stage_us = [&](Stage stage, double per) {
    return stage_ns[static_cast<size_t>(stage)] / per / 1e3;
  };

  const double q = std::max<double>(1.0, queries_);
  const double w = std::max<double>(1.0, walks_.size());
  double collisions = 0, candidates = 0, lsh_outputs = 0, scanned = 0;
  double lsh_total = 0, linear_total = 0, chosen_total = 0;
  double rel_err_sum = 0;
  size_t rel_err_count = 0, chose_lsh = 0, wrong = 0;
  for (const Walk& walk : walks_) {
    collisions += static_cast<double>(walk.collisions);
    candidates += static_cast<double>(walk.candidates);
    lsh_outputs += static_cast<double>(walk.lsh_outputs);
    scanned += static_cast<double>(walk.scanned);
    const double t_lsh = static_cast<double>(spans[walk.lsh_span].duration_ns());
    const double t_linear =
        static_cast<double>(spans[walk.linear_span].duration_ns());
    lsh_total += t_lsh;
    linear_total += t_linear;
    chosen_total += walk.chose_lsh ? t_lsh : t_linear;
    chose_lsh += walk.chose_lsh ? 1 : 0;
    wrong += (walk.chose_lsh ? t_lsh > t_linear : t_linear > t_lsh) ? 1 : 0;
    if (walk.candidates > 0) {
      rel_err_sum += std::fabs(walk.cand_estimate -
                               static_cast<double>(walk.candidates)) /
                     static_cast<double>(walk.candidates);
      ++rel_err_count;
    }
  }
  const double best_fixed = std::min(lsh_total, linear_total);
  const double engine_ns = engine_seconds_ * 1e9;

  result->Add("lsh.plan_us", stage_us(Stage::kPlan, q), "us");
  result->Add("lsh.probe_keys", static_cast<double>(probe_keys_) / q, "count");
  result->Add("lsh.gather_us", stage_us(Stage::kGather, w), "us");
  result->Add("lsh.candidates", candidates / w, "count");
  result->Add("lsh.dup_ratio", candidates > 0 ? collisions / candidates : 0.0,
              "ratio");
  result->Add("hll.estimate_us", stage_us(Stage::kEstimate, w), "us");
  result->Add("hll.cand_rel_err",
              rel_err_count > 0 ? rel_err_sum / rel_err_count : 0.0, "ratio");
  result->Add("core.verify_us", stage_us(Stage::kVerify, w), "us");
  result->Add("core.verify_yield",
              candidates > 0 ? lsh_outputs / candidates : 0.0, "ratio");
  result->Add("core.rescore_pct",
              screen_.screened > 0
                  ? 100.0 * static_cast<double>(screen_.borderline) /
                        static_cast<double>(screen_.screened)
                  : 0.0,
              "%");
  result->Add("core.linear_us", stage_us(Stage::kLinear, w), "us");
  result->Add("core.linear_ns_per_point",
              scanned > 0 ? stage_ns[static_cast<size_t>(Stage::kLinear)] /
                                scanned
                          : 0.0,
              "ns");
  result->Add("core.decide_lsh_pct", 100.0 * chose_lsh / w, "%");
  result->Add("core.decide_wrong_pct", 100.0 * wrong / w, "%");
  result->Add("core.decide_regret_pct",
              best_fixed > 0 ? 100.0 * (chosen_total - best_fixed) / best_fixed
                             : 0.0,
              "%");
  result->Add("engine.overhead_us", (engine_ns - chosen_leaf_ns) / q / 1e3,
              "us");
  result->Add("engine.filter_us", stage_us(Stage::kFilter, q), "us");
  result->Add("engine.filter_selectivity",
              filtered_queries_ > 0 ? selectivity_sum_ / filtered_queries_
                                    : 1.0,
              "ratio");
  result->Add("trace_overhead_pct",
              engine_ns > 0 ? 100.0 * (query_ns - engine_ns) / engine_ns : 0.0,
              "%");
}

}  // namespace perfbench
