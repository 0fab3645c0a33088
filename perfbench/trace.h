// In-memory span recorder for the traced run.
//
// Each span covers one call the benchmark makes into a library layer,
// timed from outside the call with std::chrono::steady_clock. Spans of one
// query share its id; `parent` links a span to the span that caused it
// (-1 for a root). Spans stay in memory and are written out as CSV when
// the run ends; a layer's self time is its span's duration minus the
// durations of its direct children (children never overlap: the replay is
// sequential).

#ifndef HLSH_PERFBENCH_TRACE_H_
#define HLSH_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Stage : uint8_t {
  kQuery,      // root: the replayed query, chosen path only
  kAudit,      // root: the path the decision did not take (decision audit)
  kFilter,     // engine::BuildFilterContext
  kPlan,       // SegmentedIndex::ComputePlan
  kShard,      // one shard walk
  kAcquire,    // SegmentedIndex::Acquire
  kEstimate,   // SegmentSnapshot::EstimateProbe
  kDecide,     // CostModel::CorrectedLshCost / LinearCost
  kLsh,        // LSH path: gather + verify
  kGather,     // SegmentSnapshot::CollectCandidates
  kVerify,     // VerifyBlockQuantized over the candidates
  kLinear,     // linear path: enumerate + scan
  kEnumerate,  // SegmentSnapshot::ForEachLiveId(Filtered)
  kScan,       // VerifyBlockQuantized over every live id
  kNumStages,
};

const char* StageName(Stage stage);

struct Span {
  uint32_t query = 0;
  int32_t parent = -1;
  uint32_t shard = 0;
  Stage stage = Stage::kQuery;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  /// Opens a span and returns its handle.
  int32_t Begin(uint32_t query, uint32_t shard, Stage stage, int32_t parent);
  void End(int32_t span);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int32_t id) const { return spans_[id]; }

  /// Self time of every span: its duration minus its direct children's.
  std::vector<int64_t> SelfTimes() const;
  /// Stage of every span's root (kQuery or kAudit).
  std::vector<Stage> RootStages() const;

  /// Writes one line per span: query,shard,stage,parent,start_ns,end_ns,
  /// self_ns. Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, uint32_t query, uint32_t shard,
             Stage stage, int32_t parent)
      : recorder_(recorder),
        id_(recorder->Begin(query, shard, stage, parent)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // HLSH_PERFBENCH_TRACE_H_
