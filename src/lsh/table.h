// One LSH hash table with HyperLogLog-augmented buckets (paper Alg. 1).
//
// A table maps 64-bit bucket keys (hashed k-wise signatures) to buckets of
// point ids. Each bucket additionally carries an HLL sketch of its ids so
// that, at query time, merging the sketches of the L probed buckets
// estimates the distinct candidate count candSize (paper Alg. 2, step 2).
//
// Space optimization (paper §3.2): buckets smaller than
// `small_bucket_threshold` do not materialize a sketch — their few ids are
// folded into the query-time merged HLL on demand, which costs O(bucket
// size) hashing but saves m bytes per small bucket. The threshold defaults
// to m (the register count), the break-even point the paper suggests.
//
// Storage: the ids of every bucket sit contiguously in one array, grouped
// by ascending bucket key. A flat bucket directory maps keys to buckets: one
// power-of-two array of {key, begin, count} slots, open-addressed with
// linear probing at a load factor of at most 0.8 (count == 0 marks an empty
// slot). Keys are already avalanched hashes, so a key's home slot is its
// low bits. Resolving a probe is one slot load (plus a short probe run)
// followed by the ids themselves — no node chasing — and a walk can
// prefetch every slot it will touch before reading any (PrefetchSlot). Only
// buckets of at least the threshold carry a sketch; a bucket's sketch is
// found by binary search over the sketched buckets' `begin`s, which only
// runs for buckets at least as large as the smallest sketched one.

#ifndef HYBRIDLSH_LSH_TABLE_H_
#define HYBRIDLSH_LSH_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hll/hyperloglog.h"
#include "util/bit_vector.h"
#include "util/serialize.h"
#include "util/status.h"

namespace hybridlsh {
namespace lsh {

/// A single hash table of the classic LSH scheme, with bucket sketches.
class LshTable {
 public:
  struct Options {
    /// HLL precision b; every bucket sketch has m = 2^b registers.
    int hll_precision = 7;
    /// Buckets with fewer ids than this get no sketch (ids are folded into
    /// the merged estimate on demand). kThresholdAuto = use m.
    size_t small_bucket_threshold = kThresholdAuto;
    /// Offset added to every stored id: position i in `keys` is indexed as
    /// id_base + i. Lets a shard index a slice of a larger dataset while
    /// reporting ids in the parent's global id space (bucket ids and bucket
    /// sketches both carry the offset). id_base + keys.size() must fit in
    /// uint32_t.
    uint32_t id_base = 0;
  };
  static constexpr size_t kThresholdAuto = static_cast<size_t>(-1);

  LshTable() = default;

  /// Builds the table from per-point bucket keys: point id i belongs to the
  /// bucket keyed keys[i]. Single pass; replaces any previous content.
  void Build(std::span<const uint64_t> keys, const Options& options);

  /// Builds the table from explicit (key, id) pairs: ids[i] belongs to the
  /// bucket keyed keys[i]. This is the segment-merge path: compaction
  /// exports the surviving entries of several tables (ExportEntries) and
  /// rebuilds one fresh table — with fresh sketches — without rehashing any
  /// point. Ids within a bucket are stored in ascending order, so the
  /// result is independent of the input entry order. Options::id_base is
  /// ignored (ids are already global). Replaces any previous content.
  void BuildFromEntries(std::span<const uint64_t> keys,
                        std::span<const uint32_t> ids, const Options& options);

  /// Appends every (bucket key, id) pair of the table to *keys / *ids,
  /// skipping ids whose `tombstones` bit is set (pass nullptr to keep
  /// everything). The inverse of BuildFromEntries, used by compaction.
  /// Buckets come out in directory order, not key order — BuildFromEntries
  /// sorts its input anyway.
  void ExportEntries(std::vector<uint64_t>* keys, std::vector<uint32_t>* ids,
                     const util::BitVector* tombstones = nullptr) const;

  /// A view of one bucket. `sketch` is null for small buckets (fold `ids`
  /// into the merged HLL instead).
  struct BucketView {
    std::span<const uint32_t> ids;
    const hll::HyperLogLog* sketch = nullptr;

    size_t size() const { return ids.size(); }
    bool empty() const { return ids.empty(); }
  };

  /// Looks up the bucket for a key; returns an empty view when absent.
  BucketView Lookup(uint64_t key) const {
    if (slots_.empty()) return BucketView{};
    for (size_t i = HomeSlot(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.count == 0) return BucketView{};
      if (slot.key == key) {
        return BucketView{{ids_.data() + slot.begin, slot.count},
                          SketchOf(slot)};
      }
    }
  }

  /// Prefetches the directory slot a Lookup of `key` starts at, so a walk
  /// can issue every probe's slot load before resolving any of them.
  void PrefetchSlot(uint64_t key) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[HomeSlot(key)]);
  }

  /// Number of non-empty buckets.
  size_t num_buckets() const { return num_buckets_; }
  /// Number of indexed points.
  size_t num_points() const { return ids_.size(); }
  /// Largest bucket size (0 when empty).
  size_t max_bucket_size() const { return max_bucket_size_; }
  /// Number of buckets that carry a materialized sketch.
  size_t num_sketches() const { return sketches_.size(); }
  /// Slots in the bucket directory (a power of two, or 0 when empty). A
  /// key's home slot is `key & (slot_capacity() - 1)`.
  size_t slot_capacity() const { return slots_.size(); }
  /// Heap bytes for ids, the directory's slots, and sketches.
  size_t MemoryBytes() const;
  /// Bytes used by HLL sketches alone (the paper's space overhead).
  size_t SketchBytes() const;

  /// Appends the table (buckets in ascending key order, ids, sketches) to
  /// the writer.
  void Serialize(util::ByteWriter* writer) const;
  /// Parses a table written by Serialize. Validates counts, offsets,
  /// bucket keys and sketch payloads; returns DataLoss on malformed input.
  static util::StatusOr<LshTable> Deserialize(util::ByteReader* reader);

 private:
  /// One directory entry: the bucket's ids are ids_[begin, begin + count).
  /// count == 0 marks an empty slot (stored buckets are never empty).
  struct Slot {
    uint64_t key = 0;
    uint32_t begin = 0;
    uint32_t count = 0;
  };

  size_t HomeSlot(uint64_t key) const {
    return static_cast<size_t>(key) & mask_;
  }

  const hll::HyperLogLog* SketchOf(const Slot& slot) const {
    if (slot.count < min_sketched_size_) return nullptr;
    const auto it = std::lower_bound(sketch_begins_.begin(),
                                     sketch_begins_.end(), slot.begin);
    if (it == sketch_begins_.end() || *it != slot.begin) return nullptr;
    return &sketches_[static_cast<size_t>(it - sketch_begins_.begin())];
  }

  /// Empties the table and sizes the directory for `num_buckets` buckets.
  void Reset(size_t num_buckets);
  /// Claims a slot for a bucket; false when the key is already present.
  bool InsertSlot(uint64_t key, uint32_t begin, uint32_t count);
  /// Records a sketch for the bucket starting at `begin`. Buckets must be
  /// added in ascending `begin` order.
  void AddSketch(uint32_t begin, uint32_t count, hll::HyperLogLog sketch);
  /// The shared body of Build / BuildFromEntries: `key_at(j)` / `id_at(j)`
  /// give the j-th entry in (key, id) sorted order.
  template <typename KeyAt, typename IdAt>
  void BuildSorted(size_t n, KeyAt key_at, IdAt id_at, const Options& options);

  std::vector<Slot> slots_;  // the bucket directory
  size_t mask_ = 0;          // slots_.size() - 1
  size_t num_buckets_ = 0;
  std::vector<uint32_t> ids_;  // point ids grouped by bucket, keys ascending
  std::vector<uint32_t> sketch_begins_;     // ascending; sketched buckets
  std::vector<hll::HyperLogLog> sketches_;  // parallel to sketch_begins_
  uint32_t min_sketched_size_ = UINT32_MAX;  // smallest sketched bucket
  size_t max_bucket_size_ = 0;
};

/// candSize from a sketch merged over probed buckets: the HLL estimate,
/// capped at the exact collision count — distinct candidates never
/// outnumber collisions, and linear counting overshoots on many tiny
/// buckets. Zero collisions give 0.
inline double ClampedEstimate(const hll::HyperLogLog& merged,
                              uint64_t collisions) {
  return collisions == 0
             ? 0.0
             : std::min(merged.Estimate(), static_cast<double>(collisions));
}

}  // namespace lsh
}  // namespace hybridlsh

#endif  // HYBRIDLSH_LSH_TABLE_H_
