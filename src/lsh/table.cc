#include "lsh/table.h"

#include <algorithm>
#include <numeric>

namespace hybridlsh {
namespace lsh {

namespace {

size_t ResolveThreshold(const LshTable::Options& options) {
  return options.small_bucket_threshold == LshTable::kThresholdAuto
             ? static_cast<size_t>(1) << options.hll_precision
             : options.small_bucket_threshold;
}

}  // namespace

void LshTable::Reset(size_t num_buckets) {
  ids_.clear();
  sketch_begins_.clear();
  sketches_.clear();
  min_sketched_size_ = UINT32_MAX;
  max_bucket_size_ = 0;
  num_buckets_ = 0;
  // Smallest power of two keeping the load factor at most 0.8; a non-empty
  // directory therefore always holds an empty slot, which ends every probe
  // run.
  size_t capacity = 0;
  if (num_buckets > 0) {
    capacity = 2;
    while (capacity * 4 < num_buckets * 5) capacity *= 2;
  }
  slots_.assign(capacity, Slot{});
  mask_ = capacity == 0 ? 0 : capacity - 1;
}

bool LshTable::InsertSlot(uint64_t key, uint32_t begin, uint32_t count) {
  HLSH_DCHECK(count > 0 && num_buckets_ < slots_.size());
  size_t i = HomeSlot(key);
  while (slots_[i].count != 0) {
    if (slots_[i].key == key) return false;
    i = (i + 1) & mask_;
  }
  slots_[i] = Slot{key, begin, count};
  ++num_buckets_;
  max_bucket_size_ = std::max<size_t>(max_bucket_size_, count);
  return true;
}

void LshTable::AddSketch(uint32_t begin, uint32_t count,
                         hll::HyperLogLog sketch) {
  sketch_begins_.push_back(begin);
  sketches_.push_back(std::move(sketch));
  min_sketched_size_ = std::min(min_sketched_size_, count);
}

template <typename KeyAt, typename IdAt>
void LshTable::BuildSorted(size_t n, KeyAt key_at, IdAt id_at,
                           const Options& options) {
  HLSH_CHECK(n <= UINT32_MAX);
  size_t num_buckets = 0;
  for (size_t j = 0; j < n; ++j) {
    num_buckets += j == 0 || key_at(j) != key_at(j - 1);
  }
  Reset(num_buckets);
  const size_t threshold = ResolveThreshold(options);

  ids_.resize(n);
  size_t i = 0;
  while (i < n) {
    const uint64_t key = key_at(i);
    const size_t begin = i;
    for (; i < n && key_at(i) == key; ++i) ids_[i] = id_at(i);
    const size_t bucket_size = i - begin;
    HLSH_CHECK(InsertSlot(key, static_cast<uint32_t>(begin),
                          static_cast<uint32_t>(bucket_size)));

    // Materialize a sketch only for large buckets (paper §3.2 trick).
    if (bucket_size >= threshold) {
      hll::HyperLogLog sketch(options.hll_precision);
      for (size_t j = begin; j < i; ++j) sketch.AddPoint(ids_[j]);
      AddSketch(static_cast<uint32_t>(begin),
                static_cast<uint32_t>(bucket_size), std::move(sketch));
    }
  }
}

void LshTable::Build(std::span<const uint64_t> keys, const Options& options) {
  // Kept separate from BuildFromEntries: here ids are the contiguous range
  // id_base + i, so the sort can tie-break on the order index directly and
  // no id array needs materializing — this is the hot per-table path of
  // every static index build.
  const size_t n = keys.size();
  HLSH_CHECK(static_cast<uint64_t>(options.id_base) + n <=
             static_cast<uint64_t>(UINT32_MAX) + 1);

  // Sort point ids by bucket key to group buckets contiguously.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&keys](uint32_t a, uint32_t b) {
    return keys[a] < keys[b] || (keys[a] == keys[b] && a < b);
  });
  BuildSorted(
      n, [&](size_t j) { return keys[order[j]]; },
      [&](size_t j) { return options.id_base + order[j]; }, options);
}

void LshTable::BuildFromEntries(std::span<const uint64_t> keys,
                                std::span<const uint32_t> ids,
                                const Options& options) {
  HLSH_CHECK(keys.size() == ids.size());
  const size_t n = keys.size();

  // Sort entries by bucket key to group buckets contiguously; break ties by
  // id so the layout is independent of the input entry order.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&keys, &ids](uint32_t a, uint32_t b) {
    return keys[a] < keys[b] || (keys[a] == keys[b] && ids[a] < ids[b]);
  });
  BuildSorted(
      n, [&](size_t j) { return keys[order[j]]; },
      [&](size_t j) { return ids[order[j]]; }, options);
}

void LshTable::ExportEntries(std::vector<uint64_t>* keys,
                             std::vector<uint32_t>* ids,
                             const util::BitVector* tombstones) const {
  for (const Slot& slot : slots_) {
    for (uint32_t j = slot.begin; j < slot.begin + slot.count; ++j) {
      const uint32_t id = ids_[j];
      if (tombstones != nullptr && id < tombstones->size() &&
          tombstones->Get(id)) {
        continue;
      }
      keys->push_back(slot.key);
      ids->push_back(id);
    }
  }
}

size_t LshTable::MemoryBytes() const {
  return ids_.size() * sizeof(uint32_t) + slots_.size() * sizeof(Slot) +
         sketch_begins_.size() * sizeof(uint32_t) + SketchBytes();
}

size_t LshTable::SketchBytes() const {
  size_t total = 0;
  for (const auto& sketch : sketches_) total += sketch.MemoryBytes();
  return total;
}

void LshTable::Serialize(util::ByteWriter* writer) const {
  // Buckets in ordinal order, which is ascending `begin`.
  std::vector<Slot> buckets;
  buckets.reserve(num_buckets_);
  for (const Slot& slot : slots_) {
    if (slot.count != 0) buckets.push_back(slot);
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const Slot& a, const Slot& b) { return a.begin < b.begin; });

  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  std::vector<int32_t> sketch_of_bucket;
  keys.reserve(buckets.size());
  offsets.reserve(buckets.size() + 1);
  sketch_of_bucket.reserve(buckets.size());
  size_t next_sketch = 0;
  for (const Slot& slot : buckets) {
    keys.push_back(slot.key);
    offsets.push_back(slot.begin);
    const bool sketched = next_sketch < sketch_begins_.size() &&
                          sketch_begins_[next_sketch] == slot.begin;
    sketch_of_bucket.push_back(
        sketched ? static_cast<int32_t>(next_sketch++) : -1);
  }
  offsets.push_back(ids_.size());

  writer->WriteU64(buckets.size());
  writer->WriteU64(ids_.size());
  writer->WriteU64(max_bucket_size_);
  writer->WriteArray<uint64_t>(keys);
  writer->WriteArray<size_t>(offsets);
  writer->WriteArray<uint32_t>(ids_);
  writer->WriteArray<int32_t>(sketch_of_bucket);

  writer->WriteU64(sketches_.size());
  for (const auto& sketch : sketches_) {
    writer->WriteBlob(sketch.Serialize());
  }
}

util::StatusOr<LshTable> LshTable::Deserialize(util::ByteReader* reader) {
  uint64_t num_buckets = 0, num_ids = 0, max_bucket = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_buckets));
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_ids));
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&max_bucket));

  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  std::vector<int32_t> sketch_of_bucket;
  HLSH_RETURN_IF_ERROR(reader->ReadArray<uint64_t>(num_buckets, &keys));
  HLSH_RETURN_IF_ERROR(reader->ReadArray<size_t>(
      num_buckets == 0 ? 1 : num_buckets + 1, &offsets));
  std::vector<uint32_t> ids;
  HLSH_RETURN_IF_ERROR(reader->ReadArray<uint32_t>(num_ids, &ids));
  HLSH_RETURN_IF_ERROR(
      reader->ReadArray<int32_t>(num_buckets, &sketch_of_bucket));

  // Validate the bucket layout: offsets bracket the ids and every bucket
  // holds at least one id (an empty bucket has no directory encoding).
  if (num_ids > UINT32_MAX) {
    return util::Status::DataLoss("table holds more than 2^32-1 ids");
  }
  if (offsets.front() != 0 || offsets.back() != num_ids) {
    return util::Status::DataLoss("table offsets do not bracket the ids");
  }
  for (size_t b = 1; b < offsets.size(); ++b) {
    if (offsets[b] < offsets[b - 1]) {
      return util::Status::DataLoss("table offsets are not monotone");
    }
    if (offsets[b] == offsets[b - 1]) {
      return util::Status::DataLoss("table has an empty bucket");
    }
  }

  uint64_t num_sketches = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_sketches));
  std::vector<hll::HyperLogLog> sketches;
  sketches.reserve(num_sketches);
  std::vector<uint8_t> blob;
  for (uint64_t s = 0; s < num_sketches; ++s) {
    HLSH_RETURN_IF_ERROR(reader->ReadBlob(&blob));
    auto sketch = hll::HyperLogLog::Deserialize(blob);
    if (!sketch.ok()) return sketch.status();
    sketches.push_back(std::move(*sketch));
  }

  // Rebuild the directory. Serialize numbers sketches in bucket order, so
  // the j-th sketched bucket must name sketch j and every sketch must be
  // used; anything else is not a table Serialize wrote.
  LshTable table;
  table.Reset(num_buckets);
  table.ids_ = std::move(ids);
  for (size_t b = 0; b < num_buckets; ++b) {
    const auto begin = static_cast<uint32_t>(offsets[b]);
    const auto count = static_cast<uint32_t>(offsets[b + 1] - offsets[b]);
    if (!table.InsertSlot(keys[b], begin, count)) {
      return util::Status::DataLoss("duplicate bucket key");
    }
    const int32_t index = sketch_of_bucket[b];
    if (index < 0) continue;
    if (static_cast<size_t>(index) != table.sketches_.size() ||
        static_cast<uint64_t>(index) >= num_sketches) {
      return util::Status::DataLoss("sketch index out of range");
    }
    table.AddSketch(begin, count,
                    std::move(sketches[static_cast<size_t>(index)]));
  }
  if (table.sketches_.size() != num_sketches) {
    return util::Status::DataLoss("table has unreferenced sketches");
  }
  table.max_bucket_size_ = max_bucket;
  return table;
}

}  // namespace lsh
}  // namespace hybridlsh
