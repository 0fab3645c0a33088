// Shard-parallel serving engine over id-range partitions of one dataset.
//
// ShardedEngine<Family> splits the dataset into S disjoint contiguous id
// ranges, builds one SegmentedIndex<Family> per range (in parallel, on the
// engine's persistent util::ThreadPool), and answers a query by fanning out
// across shards and concatenating results. Each shard runs the paper's full
// Algorithm-2 hybrid decision *locally*, with LinearCost(shard_live_n)
// instead of LinearCost(n) — so a small or dense shard can independently
// fall back to an exact scan of its range while the others stay on LSH.
//
// Shards share the hash-function seed: table t of every shard samples the
// same k-wise functions and bucket-key seed as a monolithic index built
// with the same Options. A bucket of the monolithic index is therefore the
// exact union of the shards' corresponding buckets, which gives the
// engine's equivalence guarantee: with the same (seed, k, L), the union of
// per-shard LSH candidate sets equals the monolithic candidate set, and
// forced-LSH / forced-linear results are identical to the single-index
// path for any shard count (tests/test_sharded_engine.cc).
//
// Shard indexes carry *global* ids directly (the initial segment is built
// with the range start as its id offset) — no per-result offset translation
// on the query hot path.
//
// Mutable lifecycle (engine/segmented_index.h): after EnableUpdates (or a
// Build from a mutable dataset), Insert appends to the shared dataset and
// routes the new point to a shard round-robin; Remove routes the tombstone
// to the shard that owns the id; CompactAll compacts every shard in
// parallel on the pool (one task per shard, so no shard is touched by two
// threads).
//
// --- Concurrency model (the serving core) ----------------------------------
//
// The engine serves reads lock-free while writes and background
// maintenance run:
//
//   - QueryConcurrent + a caller-owned QueryScratch (one per reader
//     thread, MakeQueryScratch) is the concurrent read path: each query
//     walks an epoch-published SegmentSnapshot per shard — acquired with
//     plain atomic loads, re-acquired only when a shard's segment list
//     actually changed — and takes no lock anywhere. Any number of reader
//     threads may call it concurrently with each other, with Insert /
//     Remove, and with background seal / compaction.
//   - Insert and Remove serialize against each other on an internal writer
//     mutex (callers need no external locking) and never block readers.
//   - When ingest fills a shard's active segment, the freeze is published
//     immediately and the expensive part — CSR-building the sealed segment
//     and compaction — is scheduled on a dedicated background maintenance
//     thread, rate-limited to one in-flight task per shard. Ingest applies
//     backpressure (seals inline) only if the background thread falls
//     behind by several segments.
//   - stats(), size(), and live accounting are atomic snapshots, safe to
//     poll from any thread.
//   - SaveSnapshot and CompactAll take the writer mutex and drain
//     maintenance first: they block writers, not readers.
//
// The legacy Query / QueryBatch entry points (internal shard fan-out /
// batch pooling) use engine-owned scratch: at most one thread may be in
// them at a time, but they may run concurrently with writers and
// maintenance — they ride the same snapshot path underneath.
//
// --- The composable query pipeline (engine/query_pipeline.h) ----------------
//
// Every entry point executes one QuerySpec through the same stage chain:
// plan -> probe -> gather -> filter -> verify -> score -> merge. The legacy
// radius calls are thin wrappers over QuerySpec::Radius(r); a predicate
// pushes a BitVector filter into the verify kernels (candidates pay a bit
// test before a distance, and the cost model prices the linear scan at
// LinearCost(live, selectivity)); fusion runs N subqueries against the
// same per-shard snapshot acquisition, sharing the hash-once plan and the
// filter, and merges with deterministic RRF / LINEAR scoring
// (core/fusion.h). Attach an AttributeStore (row == global id) with
// AttachAttributes before issuing filtered specs.

#ifndef HYBRIDLSH_ENGINE_SHARDED_ENGINE_H_
#define HYBRIDLSH_ENGINE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fusion.h"
#include "core/hybrid_searcher.h"
#include "core/kernels.h"
#include "data/attributes.h"
#include "data/dataset.h"
#include "data/metric.h"
#include "data/quantized.h"
#include "engine/dataset_slice.h"
#include "engine/query_pipeline.h"
#include "engine/segmented_index.h"
#include "engine/snapshot.h"
#include "lsh/index.h"
#include "util/bit_vector.h"
#include "util/simd.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hybridlsh {
namespace engine {

/// Aggregate per-query observability across the shard fan-out.
struct ShardedQueryStats {
  /// Shards queried (== engine num_shards()).
  size_t num_shards = 0;
  /// How many shards answered with LSH-based search vs. exact scan.
  size_t lsh_shards = 0;
  size_t linear_shards = 0;
  /// Sums of the per-shard Algorithm-2 quantities.
  uint64_t collisions = 0;
  double cand_estimate = 0.0;
  size_t cand_actual = 0;
  size_t output_size = 0;
  /// Per-table hash signatures evaluated for this query: L with the
  /// hash-once ProbePlan regardless of shard count, 0 on forced-linear
  /// (the plan is skipped entirely).
  uint64_t hash_evals = 0;
  /// Shard walks served by the one precomputed plan (== shards queried on
  /// the hybrid/LSH paths; 0 on forced-linear).
  size_t plan_reuse = 0;
  /// Wall seconds computing the probe plan (S1; amortized share of the
  /// batch plan computation on the QueryBatch path).
  double hash_seconds = 0.0;
  /// Wall seconds for the whole fan-out (not the per-shard sum).
  double total_seconds = 0.0;
  /// Filter stage (pushdown predicate): whether this query carried one,
  /// the fraction of live points passing it, the composed-bitmap
  /// popcount, and the wall seconds spent evaluating + composing it (0
  /// when the filter was prebuilt and shared, e.g. across a batch).
  bool filtered = false;
  double filter_selectivity = 1.0;
  size_t filter_survivors = 0;
  double filter_seconds = 0.0;
  /// Fusion clauses executed (0 for plain queries).
  size_t fusion_subqueries = 0;
  /// Per-shard detail, indexed by shard ordinal. On fused queries each
  /// shard's counters accumulate over its geometric subqueries and
  /// `strategy` reflects the last one.
  std::vector<core::QueryStats> per_shard;
};

/// One query's result in a batch.
struct ShardedBatchResult {
  std::vector<uint32_t> neighbors;
  ShardedQueryStats stats;
};

/// Build/serve summary of an engine.
struct EngineStats {
  size_t num_points = 0;
  size_t num_shards = 0;
  size_t num_threads = 0;
  double build_seconds = 0.0;   // wall time of the parallel shard build
  size_t memory_bytes = 0;      // summed over shard indexes
  size_t sketch_bytes = 0;
  /// Memory accounting, split by what the bytes buy: the point container
  /// (with its norm cache), the int8 quantized mirror (0 when the screen
  /// is off or the container is not dense — expect ~dataset_bytes/4 when
  /// on), and the index structures (segments + tombstones; equals
  /// memory_bytes, kept under both names for compatibility).
  size_t dataset_bytes = 0;
  size_t mirror_bytes = 0;
  size_t index_bytes = 0;
  /// Whether the int8 screen is active (a mirror is built and queries
  /// verify through VerifyBlockQuantized).
  bool quantized_verify = false;
  /// Cumulative query-side hash counters (atomic snapshots): per-table
  /// signature evaluations performed, and shard walks that reused a
  /// precomputed ProbePlan instead of rehashing. With S shards,
  /// plan_reuse grows S times faster than hash_evals / num_tables — the
  /// hash-once pipeline's savings made visible.
  uint64_t hash_evals = 0;
  uint64_t plan_reuse = 0;
  /// Instruction-set tier resolved at build ("scalar"/"sse2"/"avx2"). The
  /// kernel dispatch is process-wide (util/simd.h), so every shard and
  /// segment of every engine verifies through the same kernel table.
  std::string_view simd_tier = "scalar";
};

/// Shard-parallel hybrid-LSH engine (see file comment).
template <typename Family,
          typename Dataset =
              typename DefaultDataset<typename Family::Point>::type>
class ShardedEngine {
 public:
  using Index = lsh::LshIndex<Family>;
  using ShardIndex = SegmentedIndex<Family, Dataset>;
  using Point = typename Family::Point;

  struct Options {
    /// Number of id-range shards S. Clamped to the dataset size so that no
    /// shard is empty; shard s covers a contiguous range of n/S (+1 for the
    /// first n mod S shards) ids.
    size_t num_shards = 1;
    /// Worker threads in the engine's persistent pool (shard builds, query
    /// fan-out, batch execution). 0 = one per shard.
    size_t num_threads = 0;
    /// Per-shard index parameters. `id_base` is overwritten per shard and
    /// `num_build_threads` is ignored (shard builds already saturate the
    /// pool); everything else — including `seed` — is shared by all shards,
    /// which is what makes the engine candidate-equivalent to a monolithic
    /// index (see file comment).
    typename Index::Options index;
    /// Segment lifecycle knobs, applied per shard (segmented_index.h).
    size_t active_seal_threshold = 4096;
    size_t max_sealed_segments = 4;
    /// Run seal/compaction on the engine's background maintenance thread
    /// (default). false = the standalone-index behavior: maintenance runs
    /// inline on the inserting thread at the thresholds, so lifecycle
    /// counters are deterministic after every Insert (tests, benches that
    /// measure seal cost on the ingest path).
    bool background_maintenance = true;
    /// Quantized verification tier (dense datasets only): build an int8
    /// mirror of the dataset and screen every candidate with integer SIMD
    /// kernels plus a conservative error bound, rescoring only the
    /// borderline ones with the exact float kernels. Result sets are
    /// bit-identical to the all-float path; this knob is the escape hatch
    /// back to exact-float-everywhere verification. Ignored (no mirror,
    /// no overhead) for binary and sparse containers.
    bool quantized_verify = true;
    /// Cost model, multi-probe width, and forced-strategy escape hatch.
    /// The hybrid decision runs per shard with LinearCost(shard_live_n).
    core::SearcherOptions searcher;
  };

  /// Caller-owned scratch for the lock-free QueryConcurrent path: the
  /// global-id dedup set, the merged HLL sketch, the hash-once plan
  /// workspace, the resolved-bucket buffer of the current shard walk, and
  /// one cached SegmentSnapshot per shard — re-acquired with two plain
  /// atomic loads per query and only refreshed (a shared_ptr copy) when
  /// that shard's segment list actually changed. Create one per reader
  /// thread with MakeQueryScratch(); a scratch must never be used by two
  /// queries at once.
  class QueryScratch {
   private:
    friend class ShardedEngine;
    struct ShardView {
      typename ShardIndex::SegmentSnapshot snapshot;
      uint64_t version = 0;
    };
    QueryScratch(util::VisitedSet v, hll::HyperLogLog m, size_t num_shards)
        : visited(std::move(v)), merged(std::move(m)), views(num_shards) {}

    util::VisitedSet visited;
    hll::HyperLogLog merged;
    std::vector<uint32_t> live_ids;  // flat buffer for the linear path
    std::vector<ShardView> views;    // per-shard epoch cache
    lsh::PlanScratch plan_scratch;   // hash-once S1 workspace
    lsh::ProbePlan plan;             // the query's plan, shared by all shards
    std::vector<lsh::LshTable::BucketView> buckets;  // walk's buckets
    util::BitVector filter;          // filter stage: predicate ∧ ¬tombstone
    std::vector<core::ScoredList> sub_lists;  // fused per-subquery results
    std::vector<uint32_t> sub_ids;   // per-(shard, subquery) gather buffer
    core::FusionScratch fusion;      // merge-stage workspace
  };

  /// Builds all shards in parallel. The dataset is retained by pointer and
  /// must outlive the engine.
  static util::StatusOr<ShardedEngine> Build(Family family,
                                             const Dataset& dataset,
                                             const Options& options) {
    if (options.num_shards < 1) {
      return util::Status::InvalidArgument("num_shards must be >= 1");
    }
    if (dataset.size() == 0) {
      return util::Status::InvalidArgument("cannot build over an empty dataset");
    }
    // Mirror the monolithic LshIndex::Build guard on the full dataset:
    // shard.base is stored as a uint32_t id_base, so a larger n would wrap
    // global ids instead of failing.
    if (dataset.size() > static_cast<size_t>(UINT32_MAX)) {
      return util::Status::InvalidArgument("dataset exceeds 2^32-1 points");
    }
    HLSH_CHECK(options.searcher.probes_per_table >= 1);

    ShardedEngine engine;
    engine.options_ = options;
    engine.dataset_ = &dataset;
    const size_t n = dataset.size();
    const size_t num_shards = std::min(options.num_shards, n);
    const size_t num_threads =
        options.num_threads > 0 ? options.num_threads : num_shards;
    engine.pool_ = std::make_unique<util::ThreadPool>(num_threads);

    // Balanced contiguous partition: n/S per shard, remainder spread left.
    engine.shards_.resize(num_shards);
    {
      const size_t per_shard = n / num_shards;
      const size_t remainder = n % num_shards;
      size_t base = 0;
      for (size_t s = 0; s < num_shards; ++s) {
        engine.shards_[s].base = base;
        engine.shards_[s].size = per_shard + (s < remainder ? 1 : 0);
        base += engine.shards_[s].size;
      }
      HLSH_CHECK(base == n);
    }

    // Build every shard's index on the pool. All shards share one
    // tombstone bitmap (heap-allocated so engine moves keep it stable).
    engine.tombstones_ = std::make_unique<util::BitVector>(n);
    util::WallTimer build_timer;
    std::vector<util::Status> statuses(num_shards, util::Status::Ok());
    util::ParallelForOn(engine.pool_.get(), 0, num_shards, [&](size_t s) {
      Shard& shard = engine.shards_[s];
      typename ShardIndex::Options shard_options;
      shard_options.index = options.index;
      shard_options.index.num_build_threads = 1;
      shard_options.active_seal_threshold = options.active_seal_threshold;
      shard_options.max_sealed_segments = options.max_sealed_segments;
      auto built = ShardIndex::Build(family, &dataset, shard.base, shard.size,
                                     shard_options, engine.tombstones_.get());
      if (!built.ok()) {
        statuses[s] = built.status();
        return;
      }
      shard.index = std::make_unique<ShardIndex>(std::move(*built));
    });
    for (const util::Status& status : statuses) {
      if (!status.ok()) return status;
    }

    engine.SetupMirror();
    engine.initial_n_ = n;
    engine.stats_.num_points = n;
    engine.stats_.num_shards = num_shards;
    engine.stats_.num_threads = num_threads;
    engine.stats_.build_seconds = build_timer.ElapsedSeconds();
    engine.stats_.simd_tier = util::simd::TierName(util::ResolvedSimdTier());
    engine.StartMaintenance();

    // Fan-out scratch: one per shard (single-query path). Batch scratch is
    // created lazily, one per pool worker.
    engine.fanout_scratch_.reserve(num_shards);
    engine.fanout_out_.resize(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      engine.fanout_scratch_.push_back(engine.MakeQueryScratch());
    }
    return engine;
  }

  /// Build over a mutable dataset: same as the const Build plus
  /// EnableUpdates, so Insert works immediately.
  static util::StatusOr<ShardedEngine> Build(Family family, Dataset* dataset,
                                             const Options& options) {
    if (dataset == nullptr) {
      return util::Status::InvalidArgument("dataset pointer is null");
    }
    auto engine = Build(std::move(family), *dataset, options);
    if (!engine.ok()) return engine.status();
    HLSH_RETURN_IF_ERROR(engine->EnableUpdates(dataset));
    return engine;
  }

  /// Arms Insert on every shard. `dataset` must be the object Build indexed.
  util::Status EnableUpdates(Dataset* dataset) {
    if (dataset != dataset_) {
      return util::Status::InvalidArgument(
          "mutable dataset does not match the engine's dataset");
    }
    for (Shard& shard : shards_) {
      HLSH_RETURN_IF_ERROR(shard.index->EnableUpdates(dataset));
    }
    mutable_dataset_ = dataset;
    return util::Status::Ok();
  }
  bool updates_enabled() const { return mutable_dataset_ != nullptr; }

  /// Attaches the attribute table the filter stage evaluates predicates
  /// against. Row r describes global id r; ids past the store's current
  /// row count match no predicate. The store must outlive the engine and
  /// may keep growing (AppendRow) while queries run — the filter stage
  /// reads it through acquire-published row counts. Passing nullptr
  /// detaches (filtered specs then fail ValidateSpec).
  void AttachAttributes(const data::AttributeStore* attributes) {
    attributes_ = attributes;
  }
  const data::AttributeStore* attributes() const { return attributes_; }

  /// Appends the point to the shared dataset and indexes it in one shard's
  /// active segment (round-robin, so ingest load spreads evenly). Returns
  /// the new global id. Ownership needs no side table: every successful
  /// insert appends exactly one point, so the k-th insert gets id
  /// initial_n + k and shard k % S — Remove re-derives that.
  ///
  /// Serialized on the internal writer mutex; safe to call from any thread
  /// and concurrently with queries. When the shard's active segment fills,
  /// sealing is scheduled on the background maintenance thread (one task
  /// in flight per shard) instead of running on this call.
  util::StatusOr<uint32_t> Insert(Point point) {
    if (mutable_dataset_ == nullptr) {
      return util::Status::FailedPrecondition(
          "engine is read-only: build from a mutable dataset or call "
          "EnableUpdates to insert");
    }
    std::lock_guard<std::mutex> lock(sync_->write_mu);
    const size_t inserted = dataset_->size() - initial_n_;
    Shard& shard = shards_[inserted % shards_.size()];
    auto id = shard.index->Insert(point);
    if (id.ok()) {
      // Quantize the stored copy of the point (published by the dataset
      // append inside Insert) so the mirror stays row-for-row with the
      // dataset. Still under write_mu: the mirror has one writer.
      if constexpr (std::is_same_v<Dataset, data::DenseDataset>) {
        if (mirror_ != nullptr) mirror_->AppendRow(dataset_->point(*id));
      }
      MaybeScheduleMaintenance(shard.index.get());
    }
    return id;
  }

  /// Tombstones one global id on the shard that owns it. Removing an
  /// already-removed id is a no-op; unknown ids are rejected. Serialized on
  /// the writer mutex like Insert; safe concurrently with queries, which
  /// observe the removal through release/acquire tombstone bits.
  util::Status Remove(uint32_t id) {
    std::lock_guard<std::mutex> lock(sync_->write_mu);
    const size_t n = static_cast<size_t>(id);
    size_t s = 0;
    if (n < initial_n_) {
      // Initial ids live in the contiguous ranges (S is small).
      while (s < shards_.size() &&
             n >= shards_[s].base + shards_[s].size) {
        ++s;
      }
      HLSH_CHECK(s < shards_.size());
    } else {
      if (n >= dataset_->size()) {
        return util::Status::InvalidArgument(
            "id was never inserted into this engine");
      }
      s = (n - initial_n_) % shards_.size();  // round-robin insert order
    }
    return shards_[s].index->Remove(id);
  }

  /// Blocks until every scheduled background seal/compaction has finished.
  /// Queries and writers may keep running; tasks scheduled after this call
  /// are not waited for.
  void DrainMaintenance() {
    if (maintenance_group_ != nullptr) maintenance_group_->Wait();
  }

  /// Compacts every shard in parallel on the engine's pool (one task per
  /// shard — segments are never touched by two threads). Takes the writer
  /// mutex and drains background maintenance first; queries continue
  /// serving off the pre-compaction epochs until each shard's merged
  /// segment is published.
  void CompactAll() {
    std::lock_guard<std::mutex> lock(sync_->write_mu);
    DrainMaintenance();
    util::ParallelForOn(pool_.get(), 0, shards_.size(),
                        [&](size_t s) { shards_[s].index->Compact(); });
  }

  /// The lock-free concurrent read path: answers one query on a
  /// caller-owned scratch (one per reader thread, MakeQueryScratch). Every
  /// id with Distance(point, query) <= radius is appended to *out with the
  /// same per-shard guarantees as Query, each shard walked over an
  /// epoch-published SegmentSnapshot — consistent even while Insert /
  /// Remove / background maintenance run, with no lock or shared mutable
  /// state touched anywhere on the path. Shards are searched sequentially
  /// on the calling thread; concurrency comes from many callers, not an
  /// internal fan-out.
  void QueryConcurrent(Point query, double radius, std::vector<uint32_t>* out,
                       QueryScratch* scratch,
                       ShardedQueryStats* stats = nullptr) const {
    HLSH_CHECK(
        QueryConcurrent(query, QuerySpec::Radius(radius), out, scratch, stats)
            .ok());
  }

  /// Spec form of the concurrent read path: same lock-free guarantees,
  /// plus the filter stage (evaluated into the scratch's BitVector) when
  /// the spec carries a predicate. Rejects fused specs — those return
  /// scored hits, use QueryFusedConcurrent.
  util::Status QueryConcurrent(Point query, const QuerySpec& spec,
                               std::vector<uint32_t>* out,
                               QueryScratch* scratch,
                               ShardedQueryStats* stats = nullptr) const {
    HLSH_RETURN_IF_ERROR(ValidateSpec(spec, /*fused=*/false));
    ShardedQueryStats local_stats;
    ShardedQueryStats* s = stats != nullptr ? stats : &local_stats;
    QueryOnScratch(query, spec, out, scratch, s);
    return util::Status::Ok();
  }

  /// Concurrent fused query: N subqueries against one snapshot acquisition
  /// per shard, merged into (id, score) hits under the spec's fusion mode.
  /// Lock-free like QueryConcurrent; one scratch per reader thread.
  util::Status QueryFusedConcurrent(Point query, const QuerySpec& spec,
                                    std::vector<core::FusedHit>* out,
                                    QueryScratch* scratch,
                                    ShardedQueryStats* stats = nullptr) const {
    HLSH_RETURN_IF_ERROR(ValidateSpec(spec, /*fused=*/true));
    ShardedQueryStats local_stats;
    ShardedQueryStats* s = stats != nullptr ? stats : &local_stats;
    return QueryFusedOnScratch(query, spec, out, scratch, s);
  }

  /// A scratch sized for this engine: dedup over the current id space
  /// (widened automatically as inserts land), sketch at the engine's HLL
  /// precision, one snapshot slot per shard.
  QueryScratch MakeQueryScratch() const {
    return QueryScratch(util::VisitedSet(dataset_->size()),
                        shards_[0].index->MakeScratchSketch(),
                        shards_.size());
  }

  /// Answers one query with a parallel fan-out across shards: every id with
  /// Distance(point, query) <= radius is reported with the same per-shard
  /// guarantees as HybridSearcher. Results are appended to *out grouped by
  /// shard (ascending id ranges); ids are global.
  void Query(Point query, double radius, std::vector<uint32_t>* out,
             ShardedQueryStats* stats = nullptr) {
    HLSH_CHECK(Query(query, QuerySpec::Radius(radius), out, stats).ok());
  }

  /// Spec form of the parallel fan-out: the filter stage runs once on the
  /// calling thread (into engine-owned storage), then every shard worker
  /// reads the composed bitmap const. Rejects fused specs — use
  /// QueryFused. Engine-owned scratch: one caller at a time, like the
  /// radius overload.
  util::Status Query(Point query, const QuerySpec& spec,
                     std::vector<uint32_t>* out,
                     ShardedQueryStats* stats = nullptr) {
    HLSH_RETURN_IF_ERROR(ValidateSpec(spec, /*fused=*/false));
    ShardedQueryStats local_stats;
    ShardedQueryStats* s = stats != nullptr ? stats : &local_stats;
    ResetStats(s);
    util::WallTimer timer;
    const FilterContext fctx = BuildFilterStage(spec, &fanout_filter_, s);

    // S1 once, on the calling thread: every worker reads the one plan
    // (const; the pool dispatch orders the writes before the reads).
    const lsh::ProbePlan* plan = nullptr;
    if (options_.searcher.forced != core::ForcedStrategy::kAlwaysLinear) {
      util::WallTimer hash_timer;
      ComputePlan(query, &fanout_plan_scratch_, &fanout_plan_);
      s->hash_seconds = hash_timer.ElapsedSeconds();
      s->hash_evals = fanout_plan_.num_tables();
      plan = &fanout_plan_;
    }

    util::ParallelForOn(pool_.get(), 0, shards_.size(), [&](size_t i) {
      fanout_out_[i].clear();
      QueryScratch& scratch = fanout_scratch_[i];
      RefreshShardView(i, &scratch);
      QueryShard(shards_[i], scratch.views[i].snapshot, query, spec.radius,
                 plan, fctx, &scratch, &fanout_out_[i], &s->per_shard[i]);
    });

    for (size_t i = 0; i < shards_.size(); ++i) {
      out->insert(out->end(), fanout_out_[i].begin(), fanout_out_[i].end());
    }
    FoldStats(s);
    NoteQueryCounters(*s);
    s->total_seconds = timer.ElapsedSeconds();
    return util::Status::Ok();
  }

  /// Fused query on engine-owned scratch (one caller at a time): executes
  /// every subquery per shard over one snapshot acquisition, scores with
  /// the scalar reference metrics, and merges under the spec's fusion
  /// options. Shards run sequentially — fusion gathers per-subquery lists,
  /// which the parallel fan-out buffers are not shaped for.
  util::Status QueryFused(Point query, const QuerySpec& spec,
                          std::vector<core::FusedHit>* out,
                          ShardedQueryStats* stats = nullptr) {
    HLSH_RETURN_IF_ERROR(ValidateSpec(spec, /*fused=*/true));
    ShardedQueryStats local_stats;
    ShardedQueryStats* s = stats != nullptr ? stats : &local_stats;
    return QueryFusedOnScratch(query, spec, out, &fanout_scratch_[0], s);
  }

  /// Answers a whole query set (any container with size() and point(i)) on
  /// the pool: queries are distributed dynamically across workers, each
  /// worker owns one reusable scratch and runs every shard of its query
  /// sequentially. Results are positionally aligned with the query set.
  /// `wall_seconds` (optional) receives the batch wall time.
  template <typename QuerySet>
  std::vector<ShardedBatchResult> QueryBatch(const QuerySet& queries,
                                             double radius,
                                             double* wall_seconds = nullptr) {
    auto results = QueryBatch(queries, QuerySpec::Radius(radius), wall_seconds);
    HLSH_CHECK(results.ok());
    return std::move(*results);
  }

  /// Spec form of the batch path. The filter stage runs ONCE for the whole
  /// batch — predicates do not depend on the query point, so every worker
  /// shares the one composed bitmap read-only (per-query stats report
  /// filter_seconds = 0 and the shared selectivity). Rejects fused specs.
  template <typename QuerySet>
  util::StatusOr<std::vector<ShardedBatchResult>> QueryBatch(
      const QuerySet& queries, const QuerySpec& spec,
      double* wall_seconds = nullptr) {
    HLSH_RETURN_IF_ERROR(ValidateSpec(spec, /*fused=*/false));
    std::vector<ShardedBatchResult> results(queries.size());
    util::WallTimer timer;
    if (queries.size() > 0) {
      EnsureBatchScratch();
      FilterContext batch_fctx;
      const FilterContext* shared_filter = nullptr;
      if (spec.predicate != nullptr) {
        ShardedQueryStats filter_stats;
        batch_fctx = BuildFilterStage(spec, &batch_filter_, &filter_stats);
        shared_filter = &batch_fctx;
      }
      // S1 for the whole batch up front: every table's projections run
      // through the blocked (multi-query) kernel form, and the workers
      // consume the precomputed plans read-only.
      const bool hash_once =
          options_.searcher.forced != core::ForcedStrategy::kAlwaysLinear;
      double hash_share = 0.0;
      if (hash_once) {
        util::WallTimer hash_timer;
        batch_points_.resize(queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          batch_points_[q] = queries.point(q);
        }
        batch_plans_.resize(queries.size());
        HLSH_CHECK(shards_[0]
                       .index
                       ->ComputePlanBatch(batch_points_.data(), queries.size(),
                                          options_.searcher.probes_per_table,
                                          &batch_plan_scratch_,
                                          batch_plans_.data())
                       .ok());
        hash_share = hash_timer.ElapsedSeconds() / queries.size();
      }
      const size_t num_workers =
          std::min(batch_scratch_.size(), queries.size());
      std::atomic<size_t> next{0};
      util::ParallelForOn(pool_.get(), 0, num_workers, [&](size_t w) {
        QueryScratch& scratch = batch_scratch_[w];
        for (size_t q = next.fetch_add(1); q < queries.size();
             q = next.fetch_add(1)) {
          ShardedBatchResult& result = results[q];
          QueryOnScratch(queries.point(q), spec, &result.neighbors, &scratch,
                         &result.stats, hash_once ? &batch_plans_[q] : nullptr,
                         hash_share, shared_filter);
        }
      });
    }
    if (wall_seconds != nullptr) *wall_seconds = timer.ElapsedSeconds();
    return results;
  }

  /// Span-of-points convenience overload (used by the type-erased facade).
  std::vector<ShardedBatchResult> QueryBatch(std::span<const Point> queries,
                                             double radius,
                                             double* wall_seconds = nullptr) {
    struct SpanSet {
      std::span<const Point> points;
      size_t size() const { return points.size(); }
      Point point(size_t i) const { return points[i]; }
    };
    return QueryBatch(SpanSet{queries}, radius, wall_seconds);
  }

  size_t num_shards() const { return shards_.size(); }
  size_t num_threads() const { return pool_->num_threads(); }
  /// Live points across all shards (equals the dataset size until the
  /// first Remove).
  size_t size() const {
    size_t live = 0;
    for (const Shard& shard : shards_) live += shard.index->live_size();
    return live;
  }
  size_t live_size() const { return size(); }
  /// Build-time shape plus *current* point and memory accounting (segments
  /// grow with ingest and shrink at compaction, so bytes are recomputed
  /// per call). Returns a by-value snapshot assembled from atomic reads
  /// and epoch-published segment lists — safe to poll from any thread
  /// while writers and background maintenance run.
  EngineStats stats() const {
    EngineStats stats = stats_;
    stats.num_points = dataset_->size();
    stats.memory_bytes = 0;
    stats.sketch_bytes = 0;
    for (const Shard& shard : shards_) {
      stats.memory_bytes += shard.index->MemoryBytes();
      stats.sketch_bytes += shard.index->SketchBytes();
    }
    if (tombstones_ != nullptr) {
      stats.memory_bytes += tombstones_->MemoryBytes();
    }
    stats.index_bytes = stats.memory_bytes;
    stats.dataset_bytes = dataset_->MemoryBytes();
    stats.mirror_bytes = mirror_ != nullptr ? mirror_->MemoryBytes() : 0;
    stats.quantized_verify = mirror_ != nullptr;
    stats.hash_evals = counters_->hash_evals.load(std::memory_order_relaxed);
    stats.plan_reuse = counters_->plan_reuse.load(std::memory_order_relaxed);
    return stats;
  }
  const Options& options() const { return options_; }
  const Dataset& dataset() const { return *dataset_; }

  /// Shard inspection for tests: the index and initial id range of shard s.
  const ShardIndex& shard_index(size_t s) const { return *shards_[s].index; }
  std::pair<size_t, size_t> shard_range(size_t s) const {
    return {shards_[s].base, shards_[s].base + shards_[s].size};
  }

  // --- Snapshot / restore (engine/snapshot.h). ---------------------------

  /// Persists the full serving state into a versioned, checksummed snapshot
  /// under `dir`: the shared FunctionSet (once), the dataset with its norm
  /// cache, the tombstone bitmap, and every shard's sealed segments. Active
  /// segments are sealed first, so the snapshot is pure CSR and the engine
  /// continues serving from exactly the state it saved. Atomic at the
  /// directory level: a crash mid-save never disturbs the previous
  /// snapshot, and the new one only becomes visible when its CURRENT
  /// pointer commits. Takes the writer mutex and drains background
  /// maintenance (counters must agree with the sealed view it persists),
  /// so it blocks writers for its duration — but not readers, which keep
  /// serving off their epochs.
  util::Status SaveSnapshot(const std::string& dir) {
    std::lock_guard<std::mutex> lock(sync_->write_mu);
    DrainMaintenance();
    for (Shard& shard : shards_) shard.index->SealActive();

    auto writer = snapshot::SnapshotWriter::Begin(dir);
    if (!writer.ok()) return writer.status();
    {
      util::ByteWriter payload;
      shards_[0].index->functions().Save(&payload);
      HLSH_RETURN_IF_ERROR(
          writer->WriteFile(snapshot::kFunctionsFile, payload.bytes()));
    }
    {
      util::ByteWriter payload;
      data::SaveDataset(*dataset_, &payload);
      HLSH_RETURN_IF_ERROR(
          writer->WriteFile(snapshot::kDatasetFile, payload.bytes()));
    }
    {
      util::ByteWriter payload;
      tombstones_->Serialize(&payload);
      HLSH_RETURN_IF_ERROR(
          writer->WriteFile(snapshot::kTombstonesFile, payload.bytes()));
    }
    if (mirror_ != nullptr) {
      // v2 sidecar: the int8 mirror, so a restore skips requantization.
      util::ByteWriter payload;
      mirror_->Save(&payload);
      HLSH_RETURN_IF_ERROR(
          writer->WriteFile(snapshot::kMirrorFile, payload.bytes()));
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      util::ByteWriter payload;
      payload.WriteU64(shards_[s].base);
      payload.WriteU64(shards_[s].size);
      HLSH_RETURN_IF_ERROR(shards_[s].index->SaveTo(&payload));
      HLSH_RETURN_IF_ERROR(
          writer->WriteFile(snapshot::ShardFileName(s), payload.bytes()));
    }

    snapshot::Manifest manifest;
    manifest.family_tag = Family::kFamilyTag;
    manifest.metric_tag =
        static_cast<uint32_t>(shards_[0].index->family().metric());
    manifest.dataset_kind = data::DatasetKindOf(*dataset_);
    manifest.num_points = dataset_->size();
    manifest.initial_n = initial_n_;
    manifest.config = ToConfig();
    return writer->Commit(std::move(manifest));
  }

  /// Rehydrates a query-ready engine from the snapshot CURRENT points at.
  /// The dataset is loaded into *dataset (which must outlive the engine,
  /// like Build's) and updates are armed on it, so Insert/Remove serve
  /// immediately. Zero hash functions are evaluated — functions, tables,
  /// and sketches reload as bytes; shard payloads parse in parallel on the
  /// restored pool. Rejects snapshots of a different family or container
  /// with InvalidArgument and corrupt ones with DataLoss.
  static util::StatusOr<ShardedEngine> OpenSnapshot(
      const std::string& dir, Dataset* dataset,
      const snapshot::OpenOptions& open_options = {}) {
    if (dataset == nullptr) {
      return util::Status::InvalidArgument("dataset pointer is null");
    }
    auto reader = snapshot::SnapshotReader::Open(dir, open_options.use_mmap);
    if (!reader.ok()) return reader.status();
    const snapshot::Manifest& manifest = reader->manifest();
    if (manifest.family_tag != Family::kFamilyTag) {
      return util::Status::InvalidArgument(
          "snapshot was saved with a different LSH family");
    }
    if (manifest.dataset_kind != data::DatasetKindOf(*dataset)) {
      return util::Status::InvalidArgument(
          "snapshot holds a different dataset container");
    }

    util::WallTimer restore_timer;
    ShardedEngine engine;
    engine.options_ = OptionsFromConfig(manifest.config);
    engine.dataset_ = dataset;
    engine.initial_n_ = manifest.initial_n;

    const size_t num_shards = manifest.config.num_shards;
    const size_t num_threads =
        open_options.num_threads > 0 ? open_options.num_threads
        : manifest.config.num_threads > 0
            ? static_cast<size_t>(manifest.config.num_threads)
            : num_shards;
    engine.pool_ = std::make_unique<util::ThreadPool>(num_threads);

    // Phase 1, all on the pool at once: the dataset chain (read + checksum
    // + parse — the cold-start critical path at millions of points), the
    // tombstone bitmap, the function set, and every shard file's read +
    // checksum. Shard PARSING needs the dataset size and the tombstones for
    // validation, so it waits for phase 2.
    util::Status dataset_status = util::Status::Ok();
    util::Status tombstones_status = util::Status::Ok();
    util::Status functions_status = util::Status::Ok();
    std::optional<lsh::FunctionSet<Family>> functions;
    std::vector<std::optional<snapshot::SnapshotBlob>> shard_blobs(num_shards);
    std::vector<util::Status> statuses(num_shards, util::Status::Ok());
    util::ParallelForOn(
        engine.pool_.get(), 0, num_shards + 3, [&](size_t task) {
          if (task == num_shards) {
            dataset_status = [&] {
              auto blob = reader->ReadFile(snapshot::kDatasetFile);
              if (!blob.ok()) return blob.status();
              util::ByteReader bytes(blob->payload());
              HLSH_RETURN_IF_ERROR(data::LoadDataset(&bytes, dataset));
              return bytes.ExpectEnd();
            }();
            return;
          }
          if (task == num_shards + 1) {
            tombstones_status = [&] {
              auto blob = reader->ReadFile(snapshot::kTombstonesFile);
              if (!blob.ok()) return blob.status();
              util::ByteReader bytes(blob->payload());
              auto tombstones = util::BitVector::Deserialize(&bytes);
              if (!tombstones.ok()) return tombstones.status();
              HLSH_RETURN_IF_ERROR(bytes.ExpectEnd());
              engine.tombstones_ =
                  std::make_unique<util::BitVector>(std::move(*tombstones));
              return util::Status::Ok();
            }();
            return;
          }
          if (task == num_shards + 2) {
            functions_status = [&] {
              auto blob = reader->ReadFile(snapshot::kFunctionsFile);
              if (!blob.ok()) return blob.status();
              util::ByteReader bytes(blob->payload());
              auto loaded = lsh::FunctionSet<Family>::Load(&bytes);
              if (!loaded.ok()) return loaded.status();
              HLSH_RETURN_IF_ERROR(bytes.ExpectEnd());
              functions.emplace(std::move(*loaded));
              return util::Status::Ok();
            }();
            return;
          }
          auto blob = reader->ReadFile(snapshot::ShardFileName(task));
          if (!blob.ok()) {
            statuses[task] = blob.status();
            return;
          }
          shard_blobs[task].emplace(std::move(*blob));
        });
    HLSH_RETURN_IF_ERROR(dataset_status);
    HLSH_RETURN_IF_ERROR(tombstones_status);
    HLSH_RETURN_IF_ERROR(functions_status);
    if (dataset->size() != manifest.num_points ||
        manifest.initial_n > manifest.num_points) {
      return util::Status::DataLoss(
          "snapshot dataset disagrees with its manifest");
    }
    if (engine.tombstones_->size() != dataset->size()) {
      return util::Status::DataLoss(
          "snapshot tombstone bitmap mismatches the dataset");
    }
    if (functions->num_tables() !=
        static_cast<size_t>(manifest.config.num_tables)) {
      return util::Status::DataLoss(
          "snapshot function set mismatches the manifest table count");
    }

    // Phase 2: parse every shard's segments (checksums already verified).
    engine.shards_.resize(num_shards);
    util::ParallelForOn(engine.pool_.get(), 0, num_shards, [&](size_t s) {
      if (!statuses[s].ok()) return;
      util::ByteReader bytes(shard_blobs[s]->payload());
      Shard& shard = engine.shards_[s];
      uint64_t base = 0, size = 0;
      util::Status header = bytes.ReadU64(&base);
      if (header.ok()) header = bytes.ReadU64(&size);
      if (!header.ok() || base > dataset->size() ||
          size > dataset->size() - base) {
        statuses[s] =
            util::Status::DataLoss("snapshot shard range is invalid");
        return;
      }
      shard.base = static_cast<size_t>(base);
      shard.size = static_cast<size_t>(size);
      typename ShardIndex::Options shard_options;
      shard_options.index = engine.options_.index;
      shard_options.index.num_build_threads = 1;
      shard_options.active_seal_threshold =
          engine.options_.active_seal_threshold;
      shard_options.max_sealed_segments = engine.options_.max_sealed_segments;
      auto loaded = ShardIndex::LoadFrom(&bytes, *functions, dataset,
                                         shard_options,
                                         engine.tombstones_.get());
      if (!loaded.ok()) {
        statuses[s] = loaded.status();
        return;
      }
      const util::Status end = bytes.ExpectEnd();
      if (!end.ok()) {
        statuses[s] = end;
        return;
      }
      shard.index = std::make_unique<ShardIndex>(std::move(*loaded));
    });
    for (const util::Status& status : statuses) {
      if (!status.ok()) return status;
    }

    // Mirror restore: load the v2 sidecar when the snapshot carries one,
    // else (a v1 snapshot, or one saved with the screen off and re-opened
    // with it on) requantize from the freshly loaded dataset. Both paths
    // produce the same mirror — quantization is deterministic.
    if constexpr (std::is_same_v<Dataset, data::DenseDataset>) {
      if (engine.options_.quantized_verify) {
        if (manifest.FindFile(snapshot::kMirrorFile) != nullptr) {
          auto blob = reader->ReadFile(snapshot::kMirrorFile);
          if (!blob.ok()) return blob.status();
          util::ByteReader bytes(blob->payload());
          auto mirror = data::QuantizedMirror::Load(&bytes, dataset->dim(),
                                                    dataset->size());
          if (!mirror.ok()) return mirror.status();
          HLSH_RETURN_IF_ERROR(bytes.ExpectEnd());
          if (mirror->size() != dataset->size()) {
            return util::Status::DataLoss(
                "snapshot mirror row count mismatches the dataset");
          }
          engine.mirror_ =
              std::make_unique<data::QuantizedMirror>(std::move(*mirror));
        } else {
          engine.SetupMirror();
        }
      }
    }

    engine.stats_.num_points = manifest.num_points;
    engine.stats_.num_shards = num_shards;
    engine.stats_.num_threads = num_threads;
    engine.stats_.build_seconds = restore_timer.ElapsedSeconds();
    engine.stats_.simd_tier = util::simd::TierName(util::ResolvedSimdTier());

    engine.StartMaintenance();
    engine.fanout_scratch_.reserve(num_shards);
    engine.fanout_out_.resize(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      engine.fanout_scratch_.push_back(engine.MakeQueryScratch());
    }
    HLSH_RETURN_IF_ERROR(engine.EnableUpdates(dataset));
    return engine;
  }

 private:
  /// The engine's family-independent configuration, as persisted in the
  /// snapshot manifest and restored by OptionsFromConfig.
  snapshot::EngineConfig ToConfig() const {
    snapshot::EngineConfig config;
    config.num_shards = shards_.size();
    config.num_threads = pool_->num_threads();
    config.num_tables = options_.index.num_tables;
    config.k = options_.index.k;
    config.delta = options_.index.delta;
    config.radius = options_.index.radius;
    config.hll_precision = options_.index.hll_precision;
    config.small_bucket_threshold = options_.index.small_bucket_threshold;
    config.seed = options_.index.seed;
    config.active_seal_threshold = options_.active_seal_threshold;
    config.max_sealed_segments = options_.max_sealed_segments;
    config.cost_alpha = options_.searcher.cost_model.alpha;
    config.cost_beta = options_.searcher.cost_model.beta;
    config.probes_per_table = options_.searcher.probes_per_table;
    config.forced_strategy =
        static_cast<uint32_t>(options_.searcher.forced);
    config.quantized_verify = options_.quantized_verify ? 1 : 0;
    config.cost_beta_screen = options_.searcher.cost_model.beta_screen;
    config.cost_rescore_fraction =
        options_.searcher.cost_model.rescore_fraction;
    return config;
  }

  static Options OptionsFromConfig(const snapshot::EngineConfig& config) {
    Options options;
    options.num_shards = config.num_shards;
    options.num_threads = config.num_threads;
    options.index.num_tables = config.num_tables;
    options.index.k = config.k;
    options.index.delta = config.delta;
    options.index.radius = config.radius;
    options.index.hll_precision = config.hll_precision;
    options.index.small_bucket_threshold = config.small_bucket_threshold;
    options.index.seed = config.seed;
    options.active_seal_threshold = config.active_seal_threshold;
    options.max_sealed_segments = config.max_sealed_segments;
    options.searcher.cost_model.alpha = config.cost_alpha;
    options.searcher.cost_model.beta = config.cost_beta;
    options.searcher.cost_model.beta_screen = config.cost_beta_screen;
    options.searcher.cost_model.rescore_fraction =
        config.cost_rescore_fraction;
    options.searcher.probes_per_table = config.probes_per_table;
    options.searcher.forced =
        static_cast<core::ForcedStrategy>(config.forced_strategy);
    options.quantized_verify = config.quantized_verify != 0;
    return options;
  }

  struct Shard {
    size_t base = 0;
    size_t size = 0;  // initial range size (inserts/removes don't update it)
    std::unique_ptr<ShardIndex> index;  // pointer keeps Shard movable
  };

  /// Writer-side synchronization, heap-allocated so engine moves keep the
  /// mutex address stable.
  struct EngineSync {
    std::mutex write_mu;
  };

  /// Engine-lifetime query counters, heap-allocated (atomics are neither
  /// movable nor copyable, and the engine must stay movable).
  struct QueryCounters {
    std::atomic<uint64_t> hash_evals{0};
    std::atomic<uint64_t> plan_reuse{0};
  };

  ShardedEngine()
      : sync_(std::make_unique<EngineSync>()),
        counters_(std::make_unique<QueryCounters>()) {}

  /// Builds the int8 mirror over the engine's dataset when the container
  /// is dense, the option is on, and the data quantizes (non-degenerate
  /// scale). No-op otherwise — queries then verify all-float, which is the
  /// same result set either way.
  void SetupMirror() {
    if constexpr (std::is_same_v<Dataset, data::DenseDataset>) {
      if (!options_.quantized_verify) return;
      auto mirror = data::QuantizedMirror::Build(*dataset_);
      if (!mirror.enabled()) return;
      mirror_ = std::make_unique<data::QuantizedMirror>(std::move(mirror));
    }
  }

  /// Arms deferred maintenance on every shard and spins up the dedicated
  /// one-thread maintenance pool. No-op in inline mode
  /// (options_.background_maintenance == false).
  void StartMaintenance() {
    if (!options_.background_maintenance) return;
    for (Shard& shard : shards_) shard.index->SetDeferredMaintenance(true);
    maintenance_pool_ = std::make_unique<util::ThreadPool>(1);
    maintenance_group_ =
        std::make_unique<util::TaskGroup>(maintenance_pool_.get());
  }

  /// Schedules one background maintenance pass for the shard if it has
  /// pending work and none in flight — the per-shard rate limit that keeps
  /// a burst of inserts from queueing redundant seal tasks. Called under
  /// write_mu; the task captures the heap-stable index pointer, so the
  /// engine stays movable while tasks are queued.
  void MaybeScheduleMaintenance(ShardIndex* index) {
    if (maintenance_group_ == nullptr || !index->needs_maintenance()) return;
    if (index->maintenance_inflight().exchange(true,
                                               std::memory_order_acq_rel)) {
      return;
    }
    maintenance_group_->Submit([index] {
      index->RunMaintenance();
      index->maintenance_inflight().store(false, std::memory_order_release);
    });
  }

  void EnsureBatchScratch() {
    if (!batch_scratch_.empty()) return;
    batch_scratch_.reserve(pool_->num_threads());
    for (size_t w = 0; w < pool_->num_threads(); ++w) {
      batch_scratch_.push_back(MakeQueryScratch());
    }
  }

  /// Re-acquires shard s's snapshot into the scratch's view cache (two
  /// atomic loads when the segment list is unchanged) and widens the dedup
  /// set to cover every id the snapshot can emit. VisitedSet spans the
  /// *global* id space — shard buckets store global ids, so no translation
  /// is needed anywhere.
  void RefreshShardView(size_t s, QueryScratch* scratch) const {
    auto& view = scratch->views[s];
    shards_[s].index->AcquireCached(&view.snapshot, &view.version);
    if (scratch->visited.capacity() < view.snapshot.id_bound()) {
      scratch->visited.Resize(view.snapshot.id_bound());
    }
  }

  /// One full query over every shard on the caller's scratch: compute (or
  /// adopt) the probe plan once, refresh each shard's snapshot, run
  /// Algorithm 2 per shard sequentially, fold stats. Lock-free — shared by
  /// QueryConcurrent and the batch workers. `shared_plan` (batch path) is a
  /// plan precomputed for this query; nullptr computes one into the
  /// scratch. Forced-linear skips planning entirely — no hash function
  /// runs.
  void QueryOnScratch(Point query, const QuerySpec& spec,
                      std::vector<uint32_t>* out, QueryScratch* scratch,
                      ShardedQueryStats* s,
                      const lsh::ProbePlan* shared_plan = nullptr,
                      double shared_hash_seconds = 0.0,
                      const FilterContext* shared_filter = nullptr) const {
    ResetStats(s);
    util::WallTimer timer;
    FilterContext fctx;
    if (shared_filter != nullptr) {
      // Prebuilt for the whole batch: adopt it (filter_seconds stays 0 —
      // the cost was paid once, not per query).
      fctx = *shared_filter;
      NoteFilterStats(fctx, s);
    } else {
      fctx = BuildFilterStage(spec, &scratch->filter, s);
    }
    const lsh::ProbePlan* plan = shared_plan;
    if (plan != nullptr) {
      s->hash_seconds = shared_hash_seconds;
    } else if (options_.searcher.forced !=
               core::ForcedStrategy::kAlwaysLinear) {
      util::WallTimer hash_timer;
      ComputePlan(query, &scratch->plan_scratch, &scratch->plan);
      s->hash_seconds = hash_timer.ElapsedSeconds();
      plan = &scratch->plan;
    }
    if (plan != nullptr) s->hash_evals = plan->num_tables();
    for (size_t i = 0; i < shards_.size(); ++i) {
      RefreshShardView(i, scratch);
      QueryShard(shards_[i], scratch->views[i].snapshot, query, spec.radius,
                 plan, fctx, scratch, out, &s->per_shard[i]);
    }
    FoldStats(s);
    NoteQueryCounters(*s);
    s->total_seconds = timer.ElapsedSeconds();
  }

  /// The fused execution path (score + merge stages live here). Shards are
  /// walked sequentially; each shard's snapshot is acquired ONCE and every
  /// subquery runs against it, so all clauses see the same epoch. Gather
  /// results land in per-subquery ScoredLists; the score stage prices every
  /// id with the scalar reference metrics (data/metric.h) — deterministic
  /// across SIMD tiers, so fused scores are reproducible bit-for-bit — and
  /// FuseScoredLists merges with stable tie-breaks.
  util::Status QueryFusedOnScratch(Point query, const QuerySpec& spec,
                                   std::vector<core::FusedHit>* out,
                                   QueryScratch* scratch,
                                   ShardedQueryStats* s) const {
    ResetStats(s);
    util::WallTimer timer;
    s->fusion_subqueries = spec.subqueries.size();
    const FilterContext fctx = BuildFilterStage(spec, &scratch->filter, s);

    // Plan once iff some clause runs the hybrid path: metric overrides
    // bypass the index (their buckets hash a different geometry) and
    // attribute-only clauses never touch it.
    const data::Metric engine_metric = shards_[0].index->family().metric();
    bool needs_plan = false;
    if (options_.searcher.forced != core::ForcedStrategy::kAlwaysLinear) {
      for (const SubquerySpec& sub : spec.subqueries) {
        needs_plan |= !sub.attribute_only &&
                      (!sub.metric.has_value() || *sub.metric == engine_metric);
      }
    }
    const lsh::ProbePlan* plan = nullptr;
    if (needs_plan) {
      util::WallTimer hash_timer;
      ComputePlan(query, &scratch->plan_scratch, &scratch->plan);
      s->hash_seconds = hash_timer.ElapsedSeconds();
      s->hash_evals = scratch->plan.num_tables();
      plan = &scratch->plan;
    }

    auto& lists = scratch->sub_lists;
    lists.resize(spec.subqueries.size());
    for (size_t j = 0; j < lists.size(); ++j) {
      lists[j].weight = spec.subqueries[j].weight;
      lists[j].ids.clear();
      lists[j].distances.clear();
    }

    // Gather: shard-major so each snapshot is acquired once per query, not
    // once per (shard, subquery).
    for (size_t i = 0; i < shards_.size(); ++i) {
      RefreshShardView(i, scratch);
      const auto& snap = scratch->views[i].snapshot;
      for (size_t j = 0; j < spec.subqueries.size(); ++j) {
        const SubquerySpec& sub = spec.subqueries[j];
        if (sub.attribute_only) continue;  // global, handled below
        if (sub.metric.has_value() && *sub.metric != engine_metric) {
          ExecuteOverrideScan(snap, query, sub, fctx, &lists[j]);
          continue;
        }
        scratch->sub_ids.clear();
        core::QueryStats sub_st;
        QueryShard(shards_[i], snap, query, sub.radius, plan, fctx, scratch,
                   &scratch->sub_ids, &sub_st);
        AccumulateShardStats(sub_st, &s->per_shard[i]);
        lists[j].ids.insert(lists[j].ids.end(), scratch->sub_ids.begin(),
                            scratch->sub_ids.end());
      }
    }

    // Score: exact scalar distances under the engine's metric for every
    // hybrid clause (override clauses scored theirs during the scan).
    for (size_t j = 0; j < spec.subqueries.size(); ++j) {
      const SubquerySpec& sub = spec.subqueries[j];
      if (sub.attribute_only) {
        // Every composed-filter survivor, distance 0: the predicate IS the
        // clause. ForEachSetBitInRange emits ascending ids — stable.
        fctx.filter->ForEachSetBitInRange(
            0, fctx.filter->size(), [&](size_t id) {
              lists[j].ids.push_back(static_cast<uint32_t>(id));
              lists[j].distances.push_back(0.0);
            });
        continue;
      }
      if (sub.metric.has_value() && *sub.metric != engine_metric) continue;
      lists[j].distances.reserve(lists[j].ids.size());
      for (const uint32_t id : lists[j].ids) {
        lists[j].distances.push_back(ExactDistance(query, id, engine_metric));
      }
    }

    // Merge.
    HLSH_RETURN_IF_ERROR(core::FuseScoredLists(
        std::span<core::ScoredList>(lists.data(), lists.size()), spec.fusion,
        &scratch->fusion, out));
    FoldStats(s);
    s->output_size = out->size();  // fused hits, not the per-shard sum
    NoteQueryCounters(*s);
    s->total_seconds = timer.ElapsedSeconds();
    return util::Status::Ok();
  }

  /// S1 once per query: all shards sample identical functions from the
  /// shared seed (the engine's equivalence invariant), so shard 0's
  /// function set plans for every shard. Aborts if multi-probe is
  /// requested on a family without it — same contract as ComputeProbeKeys.
  void ComputePlan(Point query, lsh::PlanScratch* scratch,
                   lsh::ProbePlan* plan) const {
    HLSH_CHECK(shards_[0]
                   .index
                   ->ComputePlan(query, options_.searcher.probes_per_table,
                                 scratch, plan)
                   .ok());
  }

  void ResetStats(ShardedQueryStats* s) const {
    *s = ShardedQueryStats{};
    s->num_shards = shards_.size();
    s->per_shard.resize(shards_.size());
  }

  /// Sums the per-shard stats into the aggregate fields.
  void FoldStats(ShardedQueryStats* s) const {
    for (const core::QueryStats& shard : s->per_shard) {
      if (shard.strategy == core::Strategy::kLsh) {
        ++s->lsh_shards;
      } else {
        ++s->linear_shards;
      }
      s->collisions += shard.collisions;
      s->cand_estimate += shard.cand_estimate;
      s->cand_actual += shard.cand_actual;
      s->output_size += shard.output_size;
      s->plan_reuse += shard.plan_reuse;
    }
  }

  /// Folds one query's hash accounting into the engine-lifetime counters
  /// surfaced by stats(). Relaxed: the counters are monotonic telemetry,
  /// not synchronization.
  void NoteQueryCounters(const ShardedQueryStats& s) const {
    counters_->hash_evals.fetch_add(s.hash_evals, std::memory_order_relaxed);
    counters_->plan_reuse.fetch_add(s.plan_reuse, std::memory_order_relaxed);
  }

  /// The paper's Algorithm 2 on one shard over an epoch-published
  /// snapshot: resolve the plan's buckets once (across the snapshot's
  /// segments), decide against LinearCost(shard_live_n) — estimating
  /// candSize only when the collision bounds do not decide — and execute
  /// on the same resolved buckets. The decision is priced
  /// from ONE coherent LiveStats read, so the tombstone correction and
  /// the linear side cannot mix counter values from different instants.
  /// Appends global ids to *out. Lock-free.
  void QueryShard(const Shard& shard,
                  const typename ShardIndex::SegmentSnapshot& snap,
                  Point query, double radius, const lsh::ProbePlan* plan,
                  const FilterContext& fctx, QueryScratch* scratch,
                  std::vector<uint32_t>* out, core::QueryStats* st) const {
    *st = core::QueryStats{};
    util::WallTimer total_timer;
    const core::CostModel& model = options_.searcher.cost_model;

    if (options_.searcher.forced == core::ForcedStrategy::kAlwaysLinear) {
      st->strategy = core::Strategy::kLinear;
      st->linear_cost = model.LinearCost(shard.index->live_stats().live,
                                         fctx.selectivity);
      ExecuteLinear(shard, snap, query, radius, fctx, out, st, scratch);
      st->total_seconds = total_timer.ElapsedSeconds();
      return;
    }

    // S1 already ran: this walk consumes the query's one shared plan —
    // valid here because every shard samples identical functions from the
    // shared seed. No hash function evaluates inside the shard.
    HLSH_DCHECK(plan != nullptr);
    st->plan_reuse = 1;

    // Resolve once: every probed bucket of the snapshot's segments is looked
    // up a single time, giving the exact collision count; the estimate and
    // the gather both read these views.
    st->collisions = snap.ResolveProbe(*plan, &scratch->buckets);

    // Alg. 2 lines 2-4 with the shard-local live linear cost. Tombstoned
    // ids inflate the estimate, so the corrected LSH cost discounts their
    // verification share, and a pushdown filter shrinks BOTH sides through
    // the one effective live fraction (cost_model.h): the linear scan only
    // pays exact distances on filter survivors, and LSH candidates that
    // fail the bit test stop before the distance. At low selectivity the
    // model therefore finds that the filtered linear scan wins. The HLL
    // merge runs only when the collision bounds leave the decision open.
    util::WallTimer estimate_timer;
    const core::StrategyDecision decision = core::DecideStrategy(
        model, st->collisions, shard.index->live_stats(), fctx.selectivity,
        [&] {
          return snap.EstimateResolved(*plan, scratch->buckets,
                                       st->collisions, &scratch->merged);
        });
    st->estimate_seconds = estimate_timer.ElapsedSeconds();
    core::NoteDecision(decision, st);
    const bool use_lsh =
        options_.searcher.forced == core::ForcedStrategy::kAlwaysLsh ||
        decision.use_lsh;

    if (use_lsh) {
      st->strategy = core::Strategy::kLsh;
      scratch->visited.Reset();
      snap.GatherResolved(*plan, scratch->buckets, &scratch->visited);
      st->cand_actual = scratch->visited.size();
      st->output_size += core::kernels::VerifyCandidatesQuantized(
          *shard.index, *dataset_, mirror_.get(), query,
          scratch->visited.touched(), radius, out, fctx.filter);
    } else {
      st->strategy = core::Strategy::kLinear;
      ExecuteLinear(shard, snap, query, radius, fctx, out, st, scratch);
    }
    st->total_seconds = total_timer.ElapsedSeconds();
  }

  void ExecuteLinear(const Shard& shard,
                     const typename ShardIndex::SegmentSnapshot& snap,
                     Point query, double radius, const FilterContext& fctx,
                     std::vector<uint32_t>* out, core::QueryStats* st,
                     QueryScratch* scratch) const {
    // Flatten the snapshot's live ids — through the filter's bit test when
    // one is pushed down, so non-survivors never reach the kernels — then
    // verify in one block-batched pass (core/kernels.h) instead of per-id
    // Distance calls. The filtered walk keeps the unfiltered emission
    // order (a subsequence), which is what makes pushdown results
    // bit-identical to post-filtering.
    scratch->live_ids.clear();
    if (fctx.filter != nullptr) {
      snap.ForEachLiveIdFiltered(*fctx.filter, [&](uint32_t id) {
        scratch->live_ids.push_back(id);
      });
    } else {
      snap.ForEachLiveId(
          [&](uint32_t id) { scratch->live_ids.push_back(id); });
    }
    st->output_size += core::kernels::VerifyCandidatesQuantized(
        *shard.index, *dataset_, mirror_.get(), query, scratch->live_ids,
        radius, out);
  }

  /// Linear scan of one shard's snapshot under a metric override — the
  /// index's buckets hash the engine's family, so a different metric can
  /// only scan. Scores with the scalar reference kernels (the same ones
  /// the fused score stage uses), appending (id, distance) pairs directly:
  /// override clauses never need a rescore pass. Dense datasets only
  /// (enforced by ValidateSpec).
  void ExecuteOverrideScan(const typename ShardIndex::SegmentSnapshot& snap,
                           Point query, const SubquerySpec& sub,
                           const FilterContext& fctx,
                           core::ScoredList* list) const {
    auto scan = [&](uint32_t id) {
      const double distance = ExactDistance(query, id, *sub.metric);
      if (distance <= sub.radius) {
        list->ids.push_back(id);
        list->distances.push_back(distance);
      }
    };
    if (fctx.filter != nullptr) {
      snap.ForEachLiveIdFiltered(*fctx.filter, scan);
    } else {
      snap.ForEachLiveId(scan);
    }
  }

  /// The score stage's distance: the scalar reference implementations of
  /// data/metric.h, independent of the SIMD tier and of the quantized
  /// screen, so fused scores compare bit-for-bit across machines.
  double ExactDistance(Point query, uint32_t id, data::Metric metric) const {
    if constexpr (std::is_same_v<Dataset, data::DenseDataset>) {
      const float* point = dataset_->point(id);
      const size_t dim = dataset_->dim();
      switch (metric) {
        case data::Metric::kL1:
          return data::L1Distance(query, point, dim);
        case data::Metric::kL2:
          return data::L2Distance(query, point, dim);
        case data::Metric::kCosine:
          return data::CosineDistance(query, point, dim);
        default:
          HLSH_CHECK(false && "metric does not apply to dense points");
          return 0.0;
      }
    } else if constexpr (std::is_same_v<Dataset, data::BinaryDataset>) {
      return data::HammingDistance(query, dataset_->point(id),
                                   dataset_->words_per_code());
    } else {
      return data::JaccardDistance(query, dataset_->point(id));
    }
  }

  /// Validates a spec against this engine before anything executes: a
  /// predicate needs an attached AttributeStore; attribute-only clauses
  /// need a predicate (they report its survivors); metric overrides exist
  /// for dense float data only, and only among the dense metrics. The
  /// fused flag pins which result shape the caller asked for.
  util::Status ValidateSpec(const QuerySpec& spec, bool fused) const {
    if (spec.fused() != fused) {
      return util::Status::InvalidArgument(
          fused ? "QueryFused needs a spec with subqueries"
                : "fused specs return scored hits: call QueryFused");
    }
    if (spec.predicate != nullptr && attributes_ == nullptr) {
      return util::Status::FailedPrecondition(
          "filtered spec without an attached AttributeStore "
          "(AttachAttributes)");
    }
    for (const SubquerySpec& sub : spec.subqueries) {
      if (sub.attribute_only && spec.predicate == nullptr) {
        return util::Status::InvalidArgument(
            "attribute-only subquery requires a predicate");
      }
      if (sub.metric.has_value() &&
          *sub.metric != shards_[0].index->family().metric()) {
        if constexpr (!std::is_same_v<Dataset, data::DenseDataset>) {
          return util::Status::InvalidArgument(
              "metric overrides require a dense float dataset");
        }
        if (*sub.metric != data::Metric::kL1 &&
            *sub.metric != data::Metric::kL2 &&
            *sub.metric != data::Metric::kCosine) {
          return util::Status::InvalidArgument(
              "metric override must be a dense metric (L1/L2/cosine)");
        }
      }
    }
    return util::Status::Ok();
  }

  /// Runs the filter stage for one query (BuildFilterContext) into
  /// `storage` and records it in the stats. Pass-through (and free) for
  /// unfiltered specs.
  FilterContext BuildFilterStage(const QuerySpec& spec,
                                 util::BitVector* storage,
                                 ShardedQueryStats* s) const {
    if (spec.predicate == nullptr) return FilterContext{};
    util::WallTimer timer;
    const FilterContext fctx =
        BuildFilterContext(attributes_, spec.predicate, tombstones_.get(),
                           dataset_->size(), live_size(), storage);
    NoteFilterStats(fctx, s);
    s->filter_seconds = timer.ElapsedSeconds();
    return fctx;
  }

  void NoteFilterStats(const FilterContext& fctx, ShardedQueryStats* s) const {
    if (fctx.filter == nullptr) return;
    s->filtered = true;
    s->filter_selectivity = fctx.selectivity;
    s->filter_survivors = fctx.survivors;
  }

  /// Accumulates one subquery's shard stats into the per-shard slot (the
  /// fused gather runs several QueryShard passes per shard).
  static void AccumulateShardStats(const core::QueryStats& sub,
                                   core::QueryStats* total) {
    total->strategy = sub.strategy;
    total->estimate_skipped = sub.estimate_skipped;
    total->collisions += sub.collisions;
    total->cand_estimate += sub.cand_estimate;
    total->cand_actual += sub.cand_actual;
    total->output_size += sub.output_size;
    total->plan_reuse += sub.plan_reuse;
    total->lsh_cost += sub.lsh_cost;
    total->linear_cost += sub.linear_cost;
    total->estimate_seconds += sub.estimate_seconds;
    total->total_seconds += sub.total_seconds;
  }

  Options options_;
  const Dataset* dataset_ = nullptr;
  Dataset* mutable_dataset_ = nullptr;
  // Attribute table for the filter stage (row == global id); attached by
  // the caller, read lock-free through acquire-published row counts.
  const data::AttributeStore* attributes_ = nullptr;
  // Writer mutex (heap-stable across engine moves).
  std::unique_ptr<EngineSync> sync_;
  // Cumulative hash/plan counters (heap-stable across engine moves).
  std::unique_ptr<QueryCounters> counters_;
  std::unique_ptr<util::ThreadPool> pool_;
  // One tombstone bitmap shared by every shard (heap-stable across moves).
  std::unique_ptr<util::BitVector> tombstones_;
  // Int8 mirror of the (dense) dataset for the quantized screen; null when
  // the option is off, the container is not dense, or the data does not
  // quantize. Heap-stable across engine moves; appended under write_mu,
  // read lock-free by queries through acquire-published row counts.
  std::unique_ptr<data::QuantizedMirror> mirror_;
  std::vector<Shard> shards_;
  // Background seal/compaction: a dedicated one-thread pool plus its
  // completion latch. Declared after shards_ so destruction drains every
  // queued task (which captures raw ShardIndex pointers) before any shard
  // index dies.
  std::unique_ptr<util::ThreadPool> maintenance_pool_;
  std::unique_ptr<util::TaskGroup> maintenance_group_;
  size_t initial_n_ = 0;  // dataset size at Build
  EngineStats stats_;     // build-time shape; dynamic fields redone in stats()
  // Single-query fan-out scratch (one per shard) and shard result buffers.
  std::vector<QueryScratch> fanout_scratch_;
  std::vector<std::vector<uint32_t>> fanout_out_;
  // Hash-once plan of the in-flight Query (computed on the calling thread,
  // read by every fan-out worker).
  lsh::PlanScratch fanout_plan_scratch_;
  lsh::ProbePlan fanout_plan_;
  // Filter-stage storage of the in-flight fan-out Query / QueryBatch
  // (built once on the calling thread, read const by the workers).
  util::BitVector fanout_filter_;
  util::BitVector batch_filter_;
  // Batch scratch (one per pool worker), created on first QueryBatch, plus
  // the batched S1 buffers: materialized query points, one plan per query,
  // and the blocked-projection workspace.
  std::vector<QueryScratch> batch_scratch_;
  std::vector<Point> batch_points_;
  std::vector<lsh::ProbePlan> batch_plans_;
  lsh::PlanScratch batch_plan_scratch_;
};

}  // namespace engine
}  // namespace hybridlsh

#endif  // HYBRIDLSH_ENGINE_SHARDED_ENGINE_H_
