#include "lsh/covering.h"

#include <bit>

#include "util/hash.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace hybridlsh {
namespace lsh {
namespace {

// Bucket key of a masked code: hash of (code AND mask) words.
uint64_t MaskedKey(const uint64_t* code, const std::vector<uint64_t>& mask,
                   uint64_t seed) {
  uint64_t h = seed;
  for (size_t w = 0; w < mask.size(); ++w) {
    h = util::HashCombine(h, code[w] & mask[w]);
  }
  return h;
}

}  // namespace

util::StatusOr<CoveringLshIndex> CoveringLshIndex::Build(
    const data::BinaryDataset& dataset, const Options& options) {
  if (options.radius < 1 || options.radius > kMaxRadius) {
    return util::Status::InvalidArgument(
        "covering LSH radius must be in [1, 12] (tables grow as 2^(r+1)-1)");
  }
  if (dataset.size() == 0) {
    return util::Status::InvalidArgument("cannot index an empty dataset");
  }
  if (options.hll_precision < hll::HyperLogLog::kMinPrecision ||
      options.hll_precision > hll::HyperLogLog::kMaxPrecision) {
    return util::Status::InvalidArgument("hll_precision out of range");
  }

  CoveringLshIndex index;
  index.radius_ = options.radius;
  index.width_bits_ = dataset.width_bits();
  index.words_per_code_ = dataset.words_per_code();
  index.num_points_ = dataset.size();
  index.hll_precision_ = options.hll_precision;
  index.seed_ = options.seed;

  const uint32_t b = options.radius + 1;
  const size_t num_tables = (size_t{1} << b) - 1;

  // Sample phi: every bit position gets a uniform vector in {0,1}^b.
  util::Rng rng(options.seed);
  std::vector<uint32_t> phi(index.width_bits_);
  for (auto& v : phi) {
    v = static_cast<uint32_t>(rng.NextU64() & ((uint64_t{1} << b) - 1));
  }

  // Table t uses a = t+1; mask bit i iff <phi(i), a> is odd.
  index.masks_.assign(num_tables,
                      std::vector<uint64_t>(index.words_per_code_, 0));
  for (size_t t = 0; t < num_tables; ++t) {
    const uint32_t a = static_cast<uint32_t>(t + 1);
    for (size_t i = 0; i < index.width_bits_; ++i) {
      if (std::popcount(phi[i] & a) & 1) {
        index.masks_[t][i >> 6] |= uint64_t{1} << (i & 63);
      }
    }
  }

  // Build the tables.
  index.tables_.resize(num_tables);
  LshTable::Options table_options;
  table_options.hll_precision = options.hll_precision;
  table_options.small_bucket_threshold = options.small_bucket_threshold;
  const size_t n = dataset.size();
  util::ParallelFor(0, num_tables, options.num_build_threads, [&](size_t t) {
    std::vector<uint64_t> keys(n);
    const uint64_t table_seed = util::HashU64(options.seed, t);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = MaskedKey(dataset.point(i), index.masks_[t], table_seed);
    }
    index.tables_[t].Build(keys, table_options);
  });
  return index;
}

void CoveringLshIndex::QueryKeys(Point code,
                                 std::vector<uint64_t>* keys) const {
  const size_t num_tables = tables_.size();
  keys->resize(num_tables);
  for (size_t t = 0; t < num_tables; ++t) {
    (*keys)[t] = MaskedKey(code, masks_[t], util::HashU64(seed_, t));
  }
}

CoveringLshIndex::ProbeEstimate CoveringLshIndex::EstimateProbe(
    std::span<const uint64_t> keys, hll::HyperLogLog* scratch) const {
  HLSH_DCHECK(scratch->precision() == hll_precision_);
  scratch->Clear();
  ProbeEstimate estimate;
  for (size_t t = 0; t < keys.size(); ++t) {
    const LshTable::BucketView bucket = tables_[t].Lookup(keys[t]);
    if (bucket.empty()) continue;
    estimate.collisions += bucket.size();
    if (bucket.sketch != nullptr) {
      HLSH_CHECK(scratch->Merge(*bucket.sketch).ok());
    } else {
      for (uint32_t id : bucket.ids) scratch->AddPoint(id);
    }
  }
  estimate.cand_estimate = ClampedEstimate(*scratch, estimate.collisions);
  return estimate;
}

uint64_t CoveringLshIndex::CollectCandidates(std::span<const uint64_t> keys,
                                             util::VisitedSet* visited) const {
  uint64_t collisions = 0;
  for (size_t t = 0; t < keys.size(); ++t) {
    const LshTable::BucketView bucket = tables_[t].Lookup(keys[t]);
    collisions += bucket.size();
    for (uint32_t id : bucket.ids) visited->Insert(id);
  }
  return collisions;
}

size_t CoveringLshIndex::MemoryBytes() const {
  size_t total = 0;
  for (const auto& mask : masks_) total += mask.size() * sizeof(uint64_t);
  for (const auto& table : tables_) total += table.MemoryBytes();
  return total;
}

}  // namespace lsh
}  // namespace hybridlsh
