// The three workloads. Each makes all of its inputs from the run's seed,
// builds the engine through the public facade (timing only the builds as
// setup_s), measures for the requested seconds, and checks every answer.
// Why each workload exists is recorded in BENCHMARK.json and README.md.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/cost_model.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "engine/search_engine.h"
#include "replay.h"
#include "util/random.h"

namespace perfbench {

namespace data = hybridlsh::data;
namespace engine = hybridlsh::engine;
namespace util = hybridlsh::util;
using hybridlsh::core::CostModel;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
               0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

void Windows::Close(size_t ops, double seconds) {
  rates_.push_back(static_cast<double>(ops) / seconds);
  p50_.push_back(Percentile(open_, 50));
  p99_.push_back(Percentile(open_, 99));
  open_.clear();
}

std::vector<double> QueryLatencies::Latencies() const {
  std::vector<double> latencies;
  latencies.reserve(samples_.size());
  for (const std::vector<double>& timings : samples_) {
    if (!timings.empty()) {
      latencies.push_back(perfbench::Percentile(timings, 50));
    }
  }
  return latencies;
}

double QueryLatencies::Percentile(double p) const {
  return perfbench::Percentile(Latencies(), p);
}

double QueryLatencies::rate() const {
  const std::vector<double> latencies = Latencies();
  double total_us = 0.0;
  for (const double us : latencies) total_us += us;
  return total_us > 0.0
             ? static_cast<double>(latencies.size()) * 1e6 / total_us
             : 0.0;
}

OutputChecker::OutputChecker(const data::DenseDataset* points,
                             data::Metric metric, double radius)
    : points_(points), metric_(metric), radius_(radius),
      seen_(points->size(), 0) {}

bool OutputChecker::Check(const float* query, const std::vector<uint32_t>& ids,
                          uint32_t removed_below,
                          const data::Predicate* predicate,
                          const std::vector<uint32_t>* attribute_values,
                          size_t* valid) {
  const double limit = radius_ * (1.0 + 1e-5);
  const size_t dim = points_->dim();
  bool ok = true;
  *valid = 0;
  for (const uint32_t id : ids) {
    if (id >= points_->size() || seen_[id] != 0) {
      ok = false;
      continue;
    }
    seen_[id] = 1;
    const float* point = points_->point(id);
    const double distance = metric_ == data::Metric::kL1
                                ? data::L1Distance(query, point, dim)
                                : data::L2Distance(query, point, dim);
    bool good = distance <= limit && id >= removed_below;
    if (predicate != nullptr) {
      for (const data::Predicate::Term& term : predicate->all_of) {
        const uint32_t value = (*attribute_values)[id];
        good = good && term.lo <= value && value <= term.hi;
      }
    }
    if (good) {
      ++*valid;
    } else {
      ok = false;
    }
  }
  for (const uint32_t id : ids) {
    if (id < seen_.size()) seen_[id] = 0;
  }
  return ok;
}

std::vector<size_t> TruthCounts(const data::DenseDataset& base,
                                const data::DenseDataset& queries,
                                size_t stride, double radius,
                                data::Metric metric) {
  constexpr size_t kChunk = 64;
  const size_t count = (queries.size() + stride - 1) / stride;
  std::vector<size_t> counts;
  counts.reserve(count);
  for (size_t begin = 0; begin < count; begin += kChunk) {
    const size_t end = std::min(count, begin + kChunk);
    data::DenseDataset chunk(0, queries.dim());
    for (size_t i = begin; i < end; ++i) {
      chunk.Append({queries.point(i * stride), queries.dim()});
    }
    for (const auto& truth :
         data::GroundTruthDense(base, chunk, radius, metric, 4)) {
      counts.push_back(truth.size());
    }
  }
  return counts;
}

namespace {

constexpr double kWritePairsPerSecond = 2000.0;  // 2,000 Insert + 2,000 Remove
// The read-only workloads' write probe (RunWriteProbe).
constexpr size_t kProbeWarmupPairs = 64, kProbePairs = 250;

/// The rows of one run: `points` holds every row an engine id can name
/// ([0, initial) are built, later rows are inserted in order), `queries` the
/// held-out query set, `initial_rows` a copy of the built prefix that the
/// engine owns and grows.
struct Inputs {
  data::DenseDataset points;
  data::DenseDataset queries;
  data::DenseDataset initial_rows;
};

Inputs SplitInputs(const data::DenseDataset& full, size_t num_queries,
                   size_t initial, uint64_t seed) {
  data::DenseSplit split = data::SplitQueries(full, num_queries, seed);
  Inputs inputs{std::move(split.base), std::move(split.queries),
                data::DenseDataset(0, full.dim())};
  inputs.initial_rows.Reserve(initial);
  for (size_t i = 0; i < initial; ++i) {
    inputs.initial_rows.Append({inputs.points.point(i), full.dim()});
  }
  return inputs;
}

/// A seeded order over the query set, cycled by the workloads.
std::vector<uint32_t> QueryOrder(size_t num_queries, uint64_t seed) {
  std::vector<uint32_t> order(num_queries);
  for (size_t i = 0; i < num_queries; ++i) order[i] = static_cast<uint32_t>(i);
  util::Rng rng(seed);
  for (size_t i = num_queries; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextU64() % i]);
  }
  return order;
}

struct BuiltEngine {
  std::unique_ptr<engine::SearchEngine> facade;
  DenseEngine* engine = nullptr;
  double setup_s = 0.0;
};

/// Builds the engine `builds` times over *rows (only the build call is
/// timed), keeping the last; setup_s is the median build time.
bool BuildTimed(data::Metric metric, data::DenseDataset* rows,
                const engine::EngineOptions& options, size_t builds,
                BuiltEngine* out) {
  std::vector<double> seconds;
  for (size_t rep = 0; rep < builds; ++rep) {
    out->facade.reset();
    const Clock::time_point start = Clock::now();
    auto built = engine::BuildMutableEngine(metric, rows, options);
    seconds.push_back(SecondsSince(start));
    if (!built.ok()) {
      std::fprintf(stderr, "engine build failed: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    out->facade = std::move(*built);
  }
  out->engine = &dynamic_cast<DenseAdapter&>(*out->facade).engine();
  out->setup_s = Percentile(seconds, 50);
  return true;
}

double BytesPerPoint(const engine::SearchEngine& facade) {
  const engine::EngineStats stats = facade.stats();
  return static_cast<double>(stats.dataset_bytes + stats.mirror_bytes +
                             stats.index_bytes) /
         static_cast<double>(std::max<size_t>(1, facade.size()));
}

/// Per-call write timings, for the traced run's per-layer metrics.
struct WriteCalls {
  std::vector<double> insert_us, remove_us, lag_us;
};

/// Open-loop writer: pair j (Insert of the next row, Remove of the oldest
/// live id) is due at origin + j / rate. Latencies run from the due time,
/// so a stall also charges the writes queued behind it.
class OpenLoopWriter {
 public:
  struct Config {
    engine::SearchEngine* engine = nullptr;
    const data::DenseDataset* points = nullptr;
    size_t next_row = 0;
    uint32_t next_remove = 0;
    /// When set, the writer appends row `next_row` of these attribute
    /// values before inserting it, and records removals in `removed`.
    data::AttributeStore* attributes = nullptr;
    const std::vector<uint32_t>* attribute_values = nullptr;
    util::BitVector* removed = nullptr;
  };

  /// Scheduled pairs are measured into *latency in sub-windows of
  /// `window_pairs`, and their calls into *calls, until StopMeasuring.
  OpenLoopWriter(const Config& config, size_t window_pairs, Windows* latency,
                 WriteCalls* calls)
      : config_(config),
        window_pairs_(window_pairs),
        latency_(latency),
        calls_(calls),
        removed_below_(config.next_remove) {}

  void StopMeasuring() {
    latency_ = nullptr;
    calls_ = nullptr;
  }

  /// Runs `pairs` pairs back to back, unmeasured (warm-up).
  void RunUnthrottled(size_t pairs) {
    for (size_t j = 0; j < pairs; ++j) RunPair(std::nullopt);
  }

  /// Schedules `pairs` pairs from `origin` on.
  void Start(Clock::time_point origin, size_t pairs) {
    origin_ = origin;
    scheduled_ = pairs;
    done_ = 0;
  }

  Clock::time_point Due(size_t j) const {
    return origin_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(j) / kWritePairsPerSecond));
  }

  /// Runs every scheduled pair already due.
  void RunDue() {
    while (done_ < scheduled_ && Due(done_) <= Clock::now()) {
      RunPair(Due(done_));
      ++done_;
      if (latency_ != nullptr && done_ % window_pairs_ == 0) {
        latency_->Close(2 * window_pairs_,
                        std::chrono::duration<double>(
                            last_done_ - Due(done_ - window_pairs_))
                            .count());
      }
    }
  }

  /// Runs the whole schedule, yielding (never sleeping) until each pair is
  /// due: on a virtual machine a sleeping thread's CPU may be descheduled
  /// and take milliseconds to wake, which would show as write latency.
  void RunAll() {
    while (done_ < scheduled_) {
      while (Clock::now() < Due(done_)) std::this_thread::yield();
      RunDue();
    }
  }

  /// Every id below this has been removed (acquire: pairs with the store
  /// after each Remove returns).
  uint32_t removed_below() const {
    return removed_below_.load(std::memory_order_acquire);
  }
  size_t next_row() const { return config_.next_row; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  void RunPair(std::optional<Clock::time_point> due) {
    const Clock::time_point start = Clock::now();
    if (config_.attributes != nullptr) {
      const uint32_t value = (*config_.attribute_values)[config_.next_row];
      config_.attributes->AppendRow({&value, 1});
    }
    auto id = config_.engine->Insert(config_.points->point(config_.next_row));
    const Clock::time_point inserted = Clock::now();
    ++attempted;
    if (!id.ok() || *id != config_.next_row) ++failed;
    ++config_.next_row;

    const uint32_t victim = config_.next_remove++;
    const bool removed = config_.engine->Remove(victim).ok();
    const Clock::time_point end = Clock::now();
    ++attempted;
    if (!removed) ++failed;
    if (config_.removed != nullptr) config_.removed->SetConcurrent(victim);
    removed_below_.store(victim + 1, std::memory_order_release);
    last_done_ = end;

    if (due.has_value() && latency_ != nullptr) {
      auto us = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::micro>(b - a).count();
      };
      calls_->lag_us.push_back(std::max(0.0, us(*due, start)));
      calls_->insert_us.push_back(us(start, inserted));
      calls_->remove_us.push_back(us(inserted, end));
      latency_->Add(us(*due, inserted));
      latency_->Add(us(*due, end));
    }
  }

  Config config_;
  size_t window_pairs_;
  Windows* latency_;
  WriteCalls* calls_;
  std::atomic<uint32_t> removed_below_;
  Clock::time_point origin_;
  Clock::time_point last_done_;
  size_t scheduled_ = 0;
  size_t done_ = 0;
};

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Write metrics, medians over sub-windows: completed writes per second end
/// to end; in the traced run, open-loop latency from the due time and the
/// calls' own times.
void ReportWrites(const Windows& writes, const WriteCalls& calls, bool trace,
                  Result* result) {
  if (!trace) {
    result->Add("write_ops_per_s", writes.rate(), "1/s");
    return;
  }
  result->Add("write_p50_us", writes.p50(), "us");
  result->Add("write_p99_us", writes.p99(), "us");
  result->Add("engine.insert_us", Mean(calls.insert_us), "us");
  result->Add("engine.remove_us", Mean(calls.remove_us), "us");
  result->Add("engine.write_lag_us", Mean(calls.lag_us), "us");
}

/// The read-only workloads' write probe: 250 pairs at the churn rate,
/// measured as one sub-window per dataset, so every workload reports the
/// write metrics. A few unmeasured pairs go first: the first insert after a build
/// doubles the dataset's storage (a one-time copy of every row), which is
/// set-up cost, not steady-state write latency.
void RunWriteProbe(const BuiltEngine& built, const data::DenseDataset& points,
                   size_t next_row, Windows* writes, WriteCalls* calls,
                   Result* result) {
  OpenLoopWriter writer({built.facade.get(), &points, next_row, 0},
                        kProbePairs, writes, calls);
  writer.RunUnthrottled(kProbeWarmupPairs);
  writer.Start(Clock::now(), kProbePairs);
  writer.RunAll();
  result->attempted += writer.attempted;
  result->failed += writer.failed;
}

/// Segment count and tombstone share per shard, averaged over samples.
class LifecycleSampler {
 public:
  void Sample(const DenseEngine& eng) {
    for (size_t s = 0; s < eng.num_shards(); ++s) {
      const auto lifecycle = eng.shard_index(s).lifecycle();
      segments_ += static_cast<double>(lifecycle.sealed_segments +
                                       lifecycle.pending_seal_logs +
                                       (lifecycle.active_points > 0 ? 1 : 0));
      dead_pct_ += lifecycle.indexed_points == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(lifecycle.tombstones) /
                             static_cast<double>(lifecycle.indexed_points);
      ++samples_;
    }
  }
  void Report(Result* result) const {
    const double n = std::max<double>(1.0, samples_);
    result->Add("engine.segments_per_shard", segments_ / n, "count");
    result->Add("engine.dead_pct", dead_pct_ / n, "%");
  }

 private:
  double segments_ = 0.0;
  double dead_pct_ = 0.0;
  size_t samples_ = 0;
};

/// Latency and throughput of the read side, end to end.
void ReportReads(double qps, double p50_us, double p99_us, double recall_sum,
                 size_t recall_count, double setup_s, double bytes_per_point,
                 Result* result) {
  result->Add("qps", qps, "1/s");
  result->Add("p50_us", p50_us, "us");
  result->Add("p99_us", p99_us, "us");
  result->Add("recall",
              recall_count > 0 ? recall_sum / static_cast<double>(recall_count)
                               : 0.0,
              "ratio");
  result->Add("setup_s", setup_s, "s");
  result->Add("bytes_per_point", bytes_per_point, "B");
}

void FinishTrace(const Replayer& replayer, const Args& args, double pool_busy,
                 double pool_capacity, const LifecycleSampler& sampler,
                 Result* result) {
  replayer.Report(result);
  result->Add("util.pool_util",
              pool_capacity > 0 ? pool_busy / pool_capacity : 0.0, "ratio");
  sampler.Report(result);
  if (!args.trace_out.empty() && !replayer.WriteSpans(args.trace_out)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 args.trace_out.c_str());
  }
}

}  // namespace

// --- probe_batch and mixed_single ---------------------------------------------

namespace {

/// A read-only workload. A run generates `datasets` independently seeded
/// datasets and builds an engine on each (setup_s is the median build).
/// They are read `resident` at a time: each group is read round robin for
/// its share of the run, then ends with the write probe and is freed.
/// Spreading a run over datasets keeps one dataset's density profile from
/// setting the run's numbers; reading resident datasets round robin spreads
/// each query's timings over the group's whole share, so a slow spell of a
/// shared machine hits only some of them.
struct StaticWorkload {
  data::Metric metric = data::Metric::kL2;
  data::DenseDataset (*make)(size_t n, size_t dim, uint64_t seed) = nullptr;
  size_t dim = 0;
  size_t initial = 0;
  size_t queries = 0;
  double radius = 0.0;
  engine::EngineOptions options;  // `seed` is set per dataset
  size_t datasets = 0;
  size_t resident = 1;
  /// > 0: QueryBatch calls, each over this many seeded orders of the query
  /// set (probe_batch). 0: one facade Query at a time, a pass over the
  /// query set per turn (mixed_single).
  size_t batch_repeats = 0;
};

/// Recall is measured on every kRecallStride-th query of each query set (the
/// set keeps dataset order, so this samples it evenly); every answer is
/// still checked.
constexpr size_t kRecallStride = 4;

/// One dataset of a read-only run and its engine.
struct StaticSet {
  size_t index = 0;  // the dataset's number in the run
  Inputs in;
  std::vector<size_t> truth;  // exact answer sizes, every kRecallStride-th
  BuiltEngine built;
  std::unique_ptr<OutputChecker> checker;
  data::QuantizedMirror mirror;  // traced run only
  Replayer::Inputs replay_in;
  data::DenseDataset batch;           // probe_batch: the QueryBatch input
  std::vector<uint32_t> batch_query;  // probe_batch: query of each row
  std::vector<uint32_t> order;        // mixed_single: the pass order
};

/// Generates dataset `d`, its truth and engine; nullptr when a step fails.
std::unique_ptr<StaticSet> MakeStaticSet(const Args& args,
                                         const StaticWorkload& w, size_t d) {
  constexpr size_t kStream = kProbeWarmupPairs + kProbePairs;  // inserted rows
  auto set = std::make_unique<StaticSet>();
  set->index = d;
  const uint64_t seed = SubSeed(args.seed, 100 + d);
  set->in = SplitInputs(
      w.make(w.initial + kStream + w.queries, w.dim, SubSeed(seed, 1)),
      w.queries, w.initial, SubSeed(seed, 2));
  if (!args.trace) {
    set->truth = TruthCounts(set->in.initial_rows, set->in.queries,
                             kRecallStride, w.radius, w.metric);
  }
  engine::EngineOptions options = w.options;
  options.seed = SubSeed(seed, 3);
  if (!BuildTimed(w.metric, &set->in.initial_rows, options, 1, &set->built)) {
    return nullptr;
  }
  set->checker =
      std::make_unique<OutputChecker>(&set->in.points, w.metric, w.radius);
  if (args.trace) set->mirror = data::QuantizedMirror::Build(set->in.points);
  set->replay_in = {set->built.engine, &set->in.points, &set->mirror,
                    w.radius};
  if (w.batch_repeats > 0) {
    set->batch = data::DenseDataset(0, w.dim);
    for (size_t r = 0; r < w.batch_repeats; ++r) {
      for (const uint32_t q : QueryOrder(w.queries, SubSeed(seed, 10 + r))) {
        set->batch.Append({set->in.queries.point(q), w.dim});
        set->batch_query.push_back(q);
      }
    }
    // Warm-up batch: creates the per-worker scratch, faults in the index.
    if (!set->built.facade->QueryBatch(set->in.queries, w.radius).ok()) {
      return nullptr;
    }
  } else {
    set->order = QueryOrder(w.queries, SubSeed(seed, 10));
  }
  return set;
}

Result RunStatic(const Args& args, const StaticWorkload& w) {
  // The traced run replays every answer on one thread, a few milliseconds
  // each, so it reads at most kTracedDatasets datasets (each needs at least
  // one whole turn); its per-layer metrics are per walk.
  constexpr size_t kTracedDatasets = 3;
  const size_t datasets =
      args.trace ? std::min(w.datasets, kTracedDatasets) : w.datasets;
  Result result;
  std::vector<double> setup_seconds;
  double bytes_sum = 0.0, recall_sum = 0.0;
  size_t recall_count = 0, reads = 0;
  // Query q of dataset d is latency entry d * queries + q. probe_batch's
  // rate is the median over its QueryBatch calls.
  QueryLatencies latencies(datasets * w.queries);
  Windows batches, writes;
  WriteCalls write_calls;
  Replayer replayer;
  LifecycleSampler sampler;
  double busy = 0.0, capacity = 0.0;
  std::vector<uint32_t> out, replayed;

  // Times, checks and (traced) replays one answer to query q of *set.
  auto record = [&](const StaticSet& set, uint32_t q,
                    const std::vector<uint32_t>& ids, bool status_ok,
                    double seconds) {
    latencies.Add(set.index * w.queries + q, seconds * 1e6);
    ++result.attempted;
    const float* point = set.in.queries.point(q);
    size_t valid = 0;
    bool ok = status_ok &&
              set.checker->Check(point, ids, 0, nullptr, nullptr, &valid);
    if (args.trace) {
      replayed.clear();
      replayer.Replay(set.replay_in, point, nullptr, seconds, &replayed);
      ok = ok && replayed == ids;
    } else if (q % kRecallStride == 0) {
      recall_sum += RecallOf(valid, set.truth[q / kRecallStride]);
      ++recall_count;
    }
    if (!ok) ++result.failed;
  };
  // One turn on *set: a QueryBatch call, or a pass over the query set cut
  // short at `deadline`. False when the engine failed.
  auto turn = [&](const StaticSet& set, Clock::time_point deadline) {
    if (w.batch_repeats > 0) {
      double wall = 0.0;
      auto results = set.built.facade->QueryBatch(set.batch, w.radius, &wall);
      if (!results.ok()) {
        result.attempted += set.batch.size();
        result.failed += set.batch.size();
        return false;
      }
      capacity += wall * static_cast<double>(w.options.num_threads);
      if (args.trace) sampler.Sample(*set.built.engine);
      for (size_t i = 0; i < results->size(); ++i) {
        const engine::ShardedBatchResult& r = (*results)[i];
        busy += r.stats.total_seconds;
        record(set, set.batch_query[i], r.neighbors, true,
               r.stats.total_seconds + r.stats.hash_seconds);
      }
      batches.Close(results->size(), wall);
      return true;
    }
    for (size_t i = 0; i < set.order.size() && Clock::now() < deadline; ++i) {
      const uint32_t q = set.order[i];
      out.clear();
      engine::ShardedQueryStats stats;
      const Clock::time_point t = Clock::now();
      const bool status_ok =
          set.built.facade->Query(set.in.queries.point(q), w.radius, &out,
                                  &stats)
              .ok();
      const double seconds = SecondsSince(t);
      capacity += seconds;
      busy += stats.total_seconds;
      if (args.trace && ++reads % 64 == 0) sampler.Sample(*set.built.engine);
      record(set, q, out, status_ok, seconds);
    }
    return true;
  };

  for (size_t first = 0; first < datasets; first += w.resident) {
    std::vector<std::unique_ptr<StaticSet>> group;
    for (size_t d = first; d < std::min(datasets, first + w.resident); ++d) {
      group.push_back(MakeStaticSet(args, w, d));
      if (group.back() == nullptr) {
        result.setup_ok = false;
        return result;
      }
      setup_seconds.push_back(group.back()->built.setup_s);
      bytes_sum += BytesPerPoint(*group.back()->built.facade);
    }
    const double share = args.seconds * static_cast<double>(group.size()) /
                         static_cast<double>(datasets);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(share));
    bool engine_ok = true;
    while (engine_ok && Clock::now() < deadline) {
      for (const auto& set : group) {
        engine_ok = engine_ok && turn(*set, deadline);
      }
    }
    for (const auto& set : group) {
      RunWriteProbe(set->built, set->in.points, w.initial, &writes,
                    &write_calls, &result);
    }
  }

  if (args.trace) {
    FinishTrace(replayer, args, busy, capacity, sampler, &result);
  } else {
    ReportReads(w.batch_repeats > 0 ? batches.rate() : latencies.rate(),
                latencies.Percentile(50), latencies.Percentile(99),
                recall_sum, recall_count, Percentile(setup_seconds, 50),
                bytes_sum / static_cast<double>(datasets), &result);
  }
  ReportWrites(writes, write_calls, args.trace, &result);
  return result;
}

}  // namespace

Result RunProbeBatch(const Args& args) {
  StaticWorkload w;
  w.metric = data::Metric::kL2;
  w.make = &data::MakeCorelLike;
  w.dim = 32;
  w.initial = 68040;
  w.queries = 2000;
  w.radius = 0.25;  // w = 2r
  w.options.num_shards = 4;
  w.options.num_threads = 4;
  w.options.num_tables = 50;
  w.options.k = 7;
  w.options.radius = w.radius;
  w.options.searcher.cost_model = CostModel::FromRatio(6.0);
  w.datasets = 24;
  w.batch_repeats = 4;  // 8,000 queries per QueryBatch call
  return RunStatic(args, w);
}

Result RunMixedSingle(const Args& args) {
  StaticWorkload w;
  w.metric = data::Metric::kL1;
  w.make = &data::MakeCovtypeLike;
  w.dim = 54;
  w.initial = 290000;
  w.queries = 400;
  w.radius = 3000.0;  // w = 4r
  w.options.num_shards = 1;
  w.options.num_threads = 1;
  w.options.num_tables = 50;
  w.options.k = 8;
  w.options.radius = w.radius;
  w.options.searcher.cost_model = CostModel::FromRatio(10.0);
  w.datasets = 3;
  w.resident = 3;
  return RunStatic(args, w);
}

// --- churn_mix ---------------------------------------------------------------

Result RunChurnMix(const Args& args) {
  constexpr size_t kInitial = 68040, kQueries = 1000;
  constexpr size_t kShards = 2, kSealThreshold = 1024, kMaxSealed = 4;
  constexpr size_t kFilterValues = 100;  // Equals(tag, v): 1% selective
  constexpr double kRadius = 0.25;
  // One seal + compaction cycle: every shard seals kMaxSealed logs of
  // kSealThreshold inserts, then compacts (inserts go round-robin).
  constexpr size_t kCyclePairs = kMaxSealed * kSealThreshold * kShards;
  constexpr size_t kMaxWarmupCycles = 3;
  const size_t window_cycles = std::max<size_t>(
      1, static_cast<size_t>(args.seconds * kWritePairsPerSecond) /
             kCyclePairs);
  const size_t stream = (kMaxWarmupCycles + window_cycles) * kCyclePairs;
  Result result;

  Inputs in = SplitInputs(
      data::MakeCorelLike(kInitial + stream + kQueries, 32,
                          SubSeed(args.seed, 1)),
      kQueries, kInitial, SubSeed(args.seed, 2));
  std::vector<uint32_t> tags(in.points.size());
  {
    util::Rng rng(SubSeed(args.seed, 4));
    for (uint32_t& tag : tags) tag = rng.NextU64() % kFilterValues;
  }
  data::AttributeStore attributes;
  const size_t tag_column = attributes.AddColumn("tag");
  for (size_t i = 0; i < kInitial; ++i) attributes.AppendRow({&tags[i], 1});

  engine::EngineOptions options;
  options.num_shards = kShards;
  options.num_tables = 50;
  options.k = 7;
  options.radius = kRadius;
  options.seed = SubSeed(args.seed, 3);
  options.active_seal_threshold = kSealThreshold;
  options.max_sealed_segments = kMaxSealed;
  options.searcher.cost_model = CostModel::FromRatio(6.0);
  BuiltEngine built;
  if (!BuildTimed(data::Metric::kL2, &in.initial_rows, options, 3, &built) ||
      !built.facade->AttachAttributes(&attributes).ok()) {
    result.setup_ok = false;
    return result;
  }
  DenseEngine& eng = *built.engine;

  util::BitVector removed(in.points.size());
  Windows writes;  // one sub-window per cycle, like the reads
  WriteCalls write_calls;
  OpenLoopWriter writer({built.facade.get(), &in.points, kInitial, 0,
                         &attributes, &tags, &removed},
                        kCyclePairs, &writes, &write_calls);
  // Warm-up: run whole cycles back to back until every shard has compacted
  // at least once, so the timed window starts at a cycle boundary.
  bool compacted = false;
  for (size_t c = 0; c < kMaxWarmupCycles && !compacted; ++c) {
    writer.RunUnthrottled(kCyclePairs);
    eng.DrainMaintenance();
    compacted = true;
    for (size_t s = 0; s < eng.num_shards(); ++s) {
      compacted = compacted && eng.shard_index(s).lifecycle().compactions > 0;
    }
  }
  if (!compacted || writer.failed > 0) {
    std::fprintf(stderr, "churn warm-up did not reach a compaction\n");
    result.setup_ok = false;
    return result;
  }

  OutputChecker checker(&in.points, data::Metric::kL2, kRadius);
  const data::QuantizedMirror mirror =
      args.trace ? data::QuantizedMirror::Build(in.points)
                 : data::QuantizedMirror();
  Replayer replayer;
  const Replayer::Inputs replay_in{&eng,    &in.points,  &mirror,
                                   kRadius, &attributes, &removed};
  LifecycleSampler sampler;

  const std::vector<uint32_t> order = QueryOrder(kQueries, SubSeed(args.seed, 10));
  util::Rng predicate_rng(SubSeed(args.seed, 11));
  DenseEngine::QueryScratch scratch = eng.MakeQueryScratch();
  Windows read_windows;  // one sub-window per seal-and-compaction cycle
  std::vector<uint32_t> out, replayed;
  double busy = 0.0, read_total = 0.0;
  size_t reads = 0, cycle_reads = 0, cycles_closed = 0;

  // One read: 3 plain for every filtered one; `replay` replays it.
  auto read = [&](uint32_t removed_below, bool replay) {
    const uint32_t q = order[reads % order.size()];
    const float* point = in.queries.point(q);
    std::optional<data::Predicate> predicate;
    engine::QuerySpec spec = engine::QuerySpec::Radius(kRadius);
    if (reads % 4 == 3) {
      predicate = data::Predicate::Equals(
          tag_column, static_cast<uint32_t>(predicate_rng.NextU64() %
                                            kFilterValues));
      spec.predicate = &*predicate;
    }
    out.clear();
    engine::ShardedQueryStats stats;
    const Clock::time_point t = Clock::now();
    const bool status_ok =
        eng.QueryConcurrent(point, spec, &out, &scratch, &stats).ok();
    const double seconds = SecondsSince(t);
    read_windows.Add(seconds * 1e6);
    read_total += seconds;
    busy += stats.total_seconds;
    ++reads;
    ++cycle_reads;
    ++result.attempted;
    size_t valid = 0;
    bool ok = status_ok && checker.Check(point, out, removed_below,
                                         spec.predicate, &tags, &valid);
    if (replay) {
      replayed.clear();
      replayer.Replay(replay_in, point, spec.predicate, seconds, &replayed);
      ok = ok && replayed == out;
    }
    if (!ok) ++result.failed;
  };

  // Closes the read sub-window of every cycle whose scheduled end passed.
  auto close_cycles = [&] {
    while (cycles_closed < window_cycles &&
           Clock::now() >= writer.Due((cycles_closed + 1) * kCyclePairs)) {
      read_windows.Close(cycle_reads, kCyclePairs / kWritePairsPerSecond);
      cycle_reads = 0;
      ++cycles_closed;
    }
  };
  // Writer and reader run concurrently for `cycles` cycles. Every pair is
  // due by the window's end, so the writer ends right after it.
  auto run_concurrent = [&](size_t cycles, bool sample) {
    writer.Start(Clock::now(), cycles * kCyclePairs);
    const Clock::time_point end = writer.Due(cycles * kCyclePairs);
    std::thread writer_thread([&] { writer.RunAll(); });
    while (Clock::now() < end) {
      if (sample) sampler.Sample(eng);
      read(writer.removed_below(), false);
      close_cycles();
    }
    writer_thread.join();
  };

  if (args.trace) {
    // First the writer-side metrics and lifecycle samples under the
    // untraced concurrency, then the replay: writes and reads interleave on
    // this thread and maintenance is drained before each read, so the
    // replay sees the state the engine answered from.
    const size_t concurrent_cycles = std::max<size_t>(1, window_cycles / 2);
    run_concurrent(concurrent_cycles, true);
    writer.StopMeasuring();
    const size_t replay_pairs =
        std::max<size_t>(1, window_cycles - concurrent_cycles) * kCyclePairs;
    writer.Start(Clock::now(), replay_pairs);
    const Clock::time_point end = writer.Due(replay_pairs);
    while (Clock::now() < end) {
      writer.RunDue();
      eng.DrainMaintenance();
      read(writer.removed_below(), true);
    }
    eng.DrainMaintenance();
    result.attempted += writer.attempted;
    result.failed += writer.failed;
    ReportWrites(writes, write_calls, true, &result);
    FinishTrace(replayer, args, busy, read_total, sampler, &result);
    return result;
  }
  run_concurrent(window_cycles, false);
  eng.DrainMaintenance();

  // Recall over the final live set, ids [removed_below, next_row): exact
  // answers from GroundTruthDense over exactly those rows.
  const double bytes_per_point = BytesPerPoint(*built.facade);
  const uint32_t live_begin = writer.removed_below();
  data::DenseDataset live_rows(0, in.points.dim());
  for (size_t id = live_begin; id < writer.next_row(); ++id) {
    live_rows.Append({in.points.point(id), in.points.dim()});
  }
  const std::vector<size_t> truth =
      TruthCounts(live_rows, in.queries, 1, kRadius, data::Metric::kL2);
  double recall_sum = 0.0;
  for (size_t q = 0; q < kQueries; ++q) {
    out.clear();
    ++result.attempted;
    size_t valid = 0;
    const bool ok =
        eng.QueryConcurrent(in.queries.point(q),
                            engine::QuerySpec::Radius(kRadius), &out, &scratch)
            .ok() &&
        checker.Check(in.queries.point(q), out, live_begin, nullptr, nullptr,
                      &valid);
    if (!ok) ++result.failed;
    recall_sum += RecallOf(valid, truth[q]);
  }

  ReportReads(read_windows.rate(), read_windows.p50(), read_windows.p99(),
              recall_sum, kQueries, built.setup_s, bytes_per_point, &result);
  result.attempted += writer.attempted;
  result.failed += writer.failed;
  ReportWrites(writes, write_calls, false, &result);
  return result;
}

}  // namespace perfbench
