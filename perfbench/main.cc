// hlsh_perfbench: the repository benchmark.
//
//   hlsh_perfbench --workload probe_batch|mixed_single|churn_mix --seed N
//                  --seconds S --trace 0|1 [--trace-out spans.csv]
//
// Prints each metric as a comment line, then, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// also replays every query through each layer (replay.h) and reports the
// per-layer ones. Exits 1 without a result line when set-up fails and 2 on
// bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload probe_batch|mixed_single|churn_mix "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Result result;
  if (args.workload == "probe_batch") {
    result = perfbench::RunProbeBatch(args);
  } else if (args.workload == "mixed_single") {
    result = perfbench::RunMixedSingle(args);
  } else if (args.workload == "churn_mix") {
    result = perfbench::RunChurnMix(args);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (!result.setup_ok || result.attempted == 0) {
    std::fprintf(stderr, "set-up failed; no result\n");
    return 1;
  }

  std::string metrics;
  for (const perfbench::Result::Metric& m : result.metrics) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    char buffer[256];
    // %.17g keeps every digit; JSON has no NaN or infinity, so those
    // become null (and the run is marked incorrect below).
    if (std::isfinite(m.value)) {
      std::snprintf(buffer, sizeof(buffer),
                    "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::snprintf(buffer, sizeof(buffer),
                    "\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                    m.name.c_str(), m.unit.c_str());
      result.setup_ok = false;
    }
    metrics += buffer;
  }
  const bool correct = result.setup_ok && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
