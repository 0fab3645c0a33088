// The traced replay: one query re-executed through the public functions of
// each layer, in the order the engine calls them, with a span around every
// call (trace.h) and a decision audit that also times the path the cost
// model did not take.
//
//   1. engine::BuildFilterContext            (engine: filter stage)
//   2. SegmentedIndex::ComputePlan           (lsh: probe plan)
//   3. per shard: SegmentedIndex::Acquire, SegmentSnapshot::EstimateProbe
//                                            (engine, hll + lsh buckets)
//   4. CostModel::CorrectedLshCost / LinearCost   (core: decision)
//   5. LSH: SegmentSnapshot::CollectCandidates + VerifyBlockQuantized
//      linear: SegmentSnapshot::ForEachLiveId(Filtered) + VerifyBlockQuantized
//                                            (lsh buckets, core kernels)
//
// Verification runs against the benchmark's own QuantizedMirror::Build of
// the same rows, so the replay shares no scratch with the engine. The
// caller compares the replayed result set with the engine's answer; the two
// must be identical, which holds only while no write or background
// maintenance runs between the engine call and the replay.

#ifndef HLSH_PERFBENCH_REPLAY_H_
#define HLSH_PERFBENCH_REPLAY_H_

#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/kernels.h"
#include "data/quantized.h"
#include "engine/search_engine.h"
#include "hll/hyperloglog.h"
#include "lsh/families.h"
#include "trace.h"
#include "util/bit_vector.h"

namespace perfbench {

/// The engine type the kL1 / kL2 registry factories build.
using DenseEngine = hybridlsh::engine::ShardedEngine<
    hybridlsh::lsh::PStableFamily, hybridlsh::data::DenseDataset>;
using DenseAdapter = hybridlsh::engine::ShardedEngineAdapter<
    hybridlsh::lsh::PStableFamily, hybridlsh::data::DenseDataset>;

class Replayer {
 public:
  struct Inputs {
    const DenseEngine* engine = nullptr;
    /// Rows indexed by engine id (the engine's rows and every row it will
    /// insert).
    const hybridlsh::data::DenseDataset* points = nullptr;
    /// QuantizedMirror::Build(*points).
    const hybridlsh::data::QuantizedMirror* mirror = nullptr;
    double radius = 0.0;
    const hybridlsh::data::AttributeStore* attributes = nullptr;
    /// The benchmark's own record of removed ids (filter composition).
    const hybridlsh::util::BitVector* removed = nullptr;
  };

  /// Replays one query against `inputs`, appending its result set to *out
  /// in the engine's order, then audits every shard walk by running the
  /// other path. `engine_seconds` is the untraced engine time of the same
  /// query. One replayer may serve several engines of the same HLL
  /// precision (the spans and totals accumulate).
  void Replay(const Inputs& inputs, const float* point,
              const hybridlsh::data::Predicate* predicate,
              double engine_seconds, std::vector<uint32_t>* out);

  /// Adds the per-layer metrics measured by the replay (see README.md).
  void Report(Result* result) const;

  bool WriteSpans(const std::string& path) const {
    return recorder_.WriteCsv(path);
  }

 private:
  using Snapshot = DenseEngine::ShardIndex::SegmentSnapshot;

  /// One shard walk: both paths' spans and the audit's counts.
  struct Walk {
    int32_t lsh_span = -1;
    int32_t linear_span = -1;
    bool chose_lsh = false;
    uint64_t collisions = 0;
    size_t candidates = 0;
    size_t lsh_outputs = 0;
    double cand_estimate = 0.0;  // HLL estimate x live fraction
    size_t scanned = 0;          // ids the linear path verified
  };

  void RunLsh(const Inputs& in, const Snapshot& snapshot, const float* point,
              const hybridlsh::engine::FilterContext& filter, uint32_t query,
              uint32_t shard, int32_t parent, Walk* walk,
              std::vector<uint32_t>* out);
  void RunLinear(const Inputs& in, const Snapshot& snapshot,
                 const float* point,
                 const hybridlsh::engine::FilterContext& filter,
                 uint32_t query, uint32_t shard, int32_t parent, Walk* walk,
                 std::vector<uint32_t>* out);

  SpanRecorder recorder_;
  std::vector<Walk> walks_;

  uint32_t queries_ = 0;
  uint64_t probe_keys_ = 0;
  double engine_seconds_ = 0.0;
  size_t filtered_queries_ = 0;
  double selectivity_sum_ = 0.0;
  hybridlsh::core::kernels::QuantizedScreenStats screen_;

  hybridlsh::lsh::PlanScratch plan_scratch_;
  hybridlsh::lsh::ProbePlan plan_;
  std::optional<hybridlsh::hll::HyperLogLog> sketch_;
  hybridlsh::util::VisitedSet visited_;
  hybridlsh::util::BitVector filter_bits_;
  std::vector<uint32_t> live_ids_;
  std::vector<uint32_t> audit_out_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace perfbench

#endif  // HLSH_PERFBENCH_REPLAY_H_
