#include "trace.h"

#include <chrono>
#include <cstdio>
#include <filesystem>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* StageName(Stage stage) {
  static const char* const kNames[] = {
      "query", "audit",  "filter", "plan",   "shard",     "acquire", "estimate",
      "decide", "lsh",   "gather", "verify", "linear", "enumerate", "scan"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Stage::kNumStages));
  return kNames[static_cast<size_t>(stage)];
}

int32_t SpanRecorder::Begin(uint32_t query, uint32_t shard, Stage stage,
                            int32_t parent) {
  Span span;
  span.query = query;
  span.parent = parent;
  span.shard = shard;
  span.stage = stage;
  spans_.push_back(span);
  // Read the clock last so the push_back is not inside the span.
  spans_.back().start_ns = NowNs();
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t span) { spans_[span].end_ns = NowNs(); }

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_ns();
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.duration_ns();
  }
  return self;
}

std::vector<Stage> SpanRecorder::RootStages() const {
  // Parents are opened before their children, so one forward pass works.
  std::vector<Stage> roots(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    roots[i] = spans_[i].parent < 0 ? spans_[i].stage
                                    : roots[spans_[i].parent];
  }
  return roots;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::error_code ignored;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ignored);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes();
  std::fprintf(file, "query,shard,stage,parent,start_ns,end_ns,self_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%u,%u,%s,%d,%lld,%lld,%lld\n", s.query, s.shard,
                 StageName(s.stage), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
