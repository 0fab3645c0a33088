// Shared declarations of the repository benchmark (see BENCHMARK.json and
// perfbench/README.md): command-line arguments, the result line, and the
// small statistics and correctness helpers every workload uses.

#ifndef HLSH_PERFBENCH_BENCH_H_
#define HLSH_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "data/attributes.h"
#include "data/dataset.h"
#include "data/metric.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (CSV); empty = do not write.
  std::string trace_out;
};

/// What one run prints as its last line.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when a check could not run at all (e.g. a set-up step failed).
  bool setup_ok = true;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

Result RunProbeBatch(const Args& args);
Result RunMixedSingle(const Args& args);
Result RunChurnMix(const Args& args);

/// Deterministic sub-seed for one input stream of a run.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Latency samples split into sub-windows of equal work. Each timing
/// metric is the median over sub-windows, so a stall or a slow spell of a
/// shared machine that hits one sub-window does not move it; the run's
/// length sets how many sub-windows there are.
class Windows {
 public:
  void Add(double latency_us) { open_.push_back(latency_us); }
  /// Closes the open sub-window, in which `ops` operations took `seconds`.
  void Close(size_t ops, double seconds);

  double rate() const { return Percentile(rates_, 50); }
  double p50() const { return Percentile(p50_, 50); }
  double p99() const { return Percentile(p99_, 50); }

 private:
  std::vector<double> open_;
  std::vector<double> rates_, p50_, p99_;
};

/// Latencies of a fixed query set that is run over and over. A read-only
/// workload does the same work on every run of a query, so a query's
/// latency is the median of its timings: a preemption or a slow spell of a
/// shared machine that hits fewer than half of them does not move it, and a
/// change that slows the query does.
class QueryLatencies {
 public:
  explicit QueryLatencies(size_t queries) : samples_(queries) {}
  void Add(size_t query, double latency_us) {
    samples_[query].push_back(latency_us);
  }

  /// Percentile p over the queries' latencies (queries never run skipped).
  double Percentile(double p) const;
  /// One caller's rate: the queries over the sum of their latencies.
  double rate() const;

 private:
  std::vector<double> Latencies() const;

  std::vector<std::vector<double>> samples_;
};

/// Checks one reported result set against the exact data/metric.h
/// distance. A reported id is bad when it is out of radius, reported
/// twice, below `removed_below` (removed before the read started), or
/// fails `predicate`. Distances are compared with a relative slack of
/// 1e-5: the engine's kernels sum in a different (canonical 8-lane)
/// order than the scalar reference, so a point within a few ulps of the
/// radius may land on either side, and that is not an engine error.
class OutputChecker {
 public:
  OutputChecker(const hybridlsh::data::DenseDataset* points,
                hybridlsh::data::Metric metric, double radius);

  /// Returns true when every id passes; *valid receives the number of
  /// distinct in-radius ids (the numerator of recall).
  bool Check(const float* query, const std::vector<uint32_t>& ids,
             uint32_t removed_below,
             const hybridlsh::data::Predicate* predicate,
             const std::vector<uint32_t>* attribute_values, size_t* valid);

 private:
  const hybridlsh::data::DenseDataset* points_;
  hybridlsh::data::Metric metric_;
  double radius_;
  std::vector<uint8_t> seen_;
};

/// Exact answer sizes of queries 0, stride, 2 * stride, ...
/// (data::GroundTruthDense, computed in chunks so that only the counts are
/// kept).
std::vector<size_t> TruthCounts(const hybridlsh::data::DenseDataset& base,
                                const hybridlsh::data::DenseDataset& queries,
                                size_t stride, double radius,
                                hybridlsh::data::Metric metric);

/// Recall of one answer from its valid-id count.
inline double RecallOf(size_t valid, size_t truth) {
  if (truth == 0) return 1.0;
  const double recall =
      static_cast<double>(valid) / static_cast<double>(truth);
  return recall > 1.0 ? 1.0 : recall;
}

}  // namespace perfbench

#endif  // HLSH_PERFBENCH_BENCH_H_
