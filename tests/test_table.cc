// Tests for lsh/table.h: bucket grouping, sketch materialization policy,
// the small-bucket on-demand trick, the flat bucket directory's probe runs,
// and the export / serialization round trips.

#include "lsh/table.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/random.h"

#include <gtest/gtest.h>

namespace hybridlsh {
namespace lsh {
namespace {

LshTable::Options SmallThreshold(size_t threshold) {
  LshTable::Options options;
  options.hll_precision = 7;
  options.small_bucket_threshold = threshold;
  return options;
}

TEST(LshTableTest, EmptyBuild) {
  LshTable table;
  table.Build({}, SmallThreshold(0));
  EXPECT_EQ(table.num_buckets(), 0u);
  EXPECT_EQ(table.num_points(), 0u);
  EXPECT_TRUE(table.Lookup(42).empty());
}

TEST(LshTableTest, GroupsIdsByKey) {
  // Points 0,2,4 -> key 10; 1,3 -> key 20; 5 -> key 30.
  const std::vector<uint64_t> keys{10, 20, 10, 20, 10, 30};
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  EXPECT_EQ(table.num_buckets(), 3u);
  EXPECT_EQ(table.num_points(), 6u);
  EXPECT_EQ(table.max_bucket_size(), 3u);

  auto bucket10 = table.Lookup(10);
  std::vector<uint32_t> ids10(bucket10.ids.begin(), bucket10.ids.end());
  std::sort(ids10.begin(), ids10.end());
  EXPECT_EQ(ids10, (std::vector<uint32_t>{0, 2, 4}));

  auto bucket30 = table.Lookup(30);
  EXPECT_EQ(bucket30.size(), 1u);
  EXPECT_EQ(bucket30.ids[0], 5u);
}

TEST(LshTableTest, LookupMissReturnsEmpty) {
  const std::vector<uint64_t> keys{1, 1, 2};
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  const auto view = table.Lookup(999);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.sketch, nullptr);
}

TEST(LshTableTest, ThresholdZeroSketchesEverything) {
  const std::vector<uint64_t> keys{1, 1, 2};
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  EXPECT_EQ(table.num_sketches(), 2u);
  EXPECT_NE(table.Lookup(1).sketch, nullptr);
  EXPECT_NE(table.Lookup(2).sketch, nullptr);
}

TEST(LshTableTest, ThresholdSkipsSmallBuckets) {
  // Bucket 1 has 3 ids, bucket 2 has 1: threshold 2 sketches only bucket 1.
  const std::vector<uint64_t> keys{1, 1, 1, 2};
  LshTable table;
  table.Build(keys, SmallThreshold(2));
  EXPECT_EQ(table.num_sketches(), 1u);
  EXPECT_NE(table.Lookup(1).sketch, nullptr);
  EXPECT_EQ(table.Lookup(2).sketch, nullptr);
}

TEST(LshTableTest, AutoThresholdUsesRegisterCount) {
  // m = 2^7 = 128: buckets below 128 ids get no sketch under kThresholdAuto.
  std::vector<uint64_t> keys;
  for (int i = 0; i < 127; ++i) keys.push_back(1);
  for (int i = 0; i < 128; ++i) keys.push_back(2);
  LshTable table;
  LshTable::Options options;  // defaults: precision 7, auto threshold
  table.Build(keys, options);
  EXPECT_EQ(table.num_sketches(), 1u);
  EXPECT_EQ(table.Lookup(1).sketch, nullptr);
  EXPECT_NE(table.Lookup(2).sketch, nullptr);
}

TEST(LshTableTest, SketchEstimatesBucketSize) {
  std::vector<uint64_t> keys(5000, 7);  // one big bucket
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  const auto view = table.Lookup(7);
  ASSERT_NE(view.sketch, nullptr);
  EXPECT_NEAR(view.sketch->Estimate(), 5000.0,
              5000.0 * 4 * view.sketch->StandardError());
}

TEST(LshTableTest, SketchMatchesDirectConstruction) {
  // The bucket sketch must be byte-identical to hashing the same ids into a
  // fresh HLL — required for on-demand folding to agree with materialized
  // sketches.
  const std::vector<uint64_t> keys{5, 9, 5, 5, 9};
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  hll::HyperLogLog expected(7);
  expected.AddPoint(0);
  expected.AddPoint(2);
  expected.AddPoint(3);
  EXPECT_EQ(*table.Lookup(5).sketch, expected);
}

TEST(LshTableTest, RebuildReplacesContent) {
  LshTable table;
  table.Build(std::vector<uint64_t>{1, 1}, SmallThreshold(0));
  table.Build(std::vector<uint64_t>{2}, SmallThreshold(0));
  EXPECT_TRUE(table.Lookup(1).empty());
  EXPECT_EQ(table.Lookup(2).size(), 1u);
  EXPECT_EQ(table.num_points(), 1u);
}

TEST(LshTableTest, MemoryAccounting) {
  std::vector<uint64_t> keys(1000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i % 10;
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  EXPECT_GT(table.MemoryBytes(), 1000 * sizeof(uint32_t));
  EXPECT_EQ(table.SketchBytes(), 10u * 128u);  // 10 sketches at m=128
  // No sketches -> no sketch bytes.
  LshTable lean;
  lean.Build(keys, SmallThreshold(SIZE_MAX));
  EXPECT_EQ(lean.SketchBytes(), 0u);
  EXPECT_LT(lean.MemoryBytes(), table.MemoryBytes());
}

TEST(LshTableTest, ManyDistinctKeys) {
  std::vector<uint64_t> keys(500);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 1315423911ULL;
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  EXPECT_EQ(table.num_buckets(), 500u);
  EXPECT_EQ(table.max_bucket_size(), 1u);
  for (size_t i = 0; i < keys.size(); i += 53) {
    const auto view = table.Lookup(keys[i]);
    ASSERT_EQ(view.size(), 1u);
    EXPECT_EQ(view.ids[0], i);
  }
}


TEST(LshTableTest, AbsentKeysMissInAPopulatedTable) {
  std::vector<uint64_t> keys(300);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = (i % 100) * 7919 + 1;
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  ASSERT_EQ(table.num_buckets(), 100u);
  // Keys between the stored ones, and keys sharing a stored key's home
  // slot (same low bits), all miss.
  const uint64_t capacity = table.slot_capacity();
  for (size_t b = 0; b < 100; ++b) {
    const uint64_t present = b * 7919 + 1;
    EXPECT_EQ(table.Lookup(present).size(), 3u);
    for (const uint64_t absent :
         {present + 1, present + capacity, present + (capacity << 20)}) {
      const auto view = table.Lookup(absent);
      EXPECT_TRUE(view.empty()) << absent;
      EXPECT_EQ(view.sketch, nullptr);
    }
  }
}

TEST(LshTableTest, KeysForcedOntoOneSlotWrapAround) {
  // Three buckets fit a 4-slot directory (load 0.75). Every key below has
  // home slot 3, the last one, so the probe run wraps to slots 0 and 1.
  constexpr uint64_t kSlots = 4;
  const std::vector<uint64_t> distinct{kSlots - 1, 2 * kSlots - 1,
                                       3 * kSlots - 1};
  const std::vector<uint64_t> keys{distinct[2], distinct[0], distinct[1],
                                   distinct[2], distinct[2]};
  LshTable table;
  table.Build(keys, SmallThreshold(3));
  ASSERT_EQ(table.slot_capacity(), kSlots);
  ASSERT_EQ(table.num_buckets(), 3u);
  EXPECT_EQ(table.Lookup(distinct[0]).size(), 1u);
  EXPECT_EQ(table.Lookup(distinct[0]).ids[0], 1u);
  EXPECT_EQ(table.Lookup(distinct[1]).size(), 1u);
  EXPECT_EQ(table.Lookup(distinct[1]).ids[0], 2u);
  const auto big = table.Lookup(distinct[2]);
  ASSERT_EQ(big.size(), 3u);
  EXPECT_EQ(std::vector<uint32_t>(big.ids.begin(), big.ids.end()),
            (std::vector<uint32_t>{0, 3, 4}));
  EXPECT_NE(big.sketch, nullptr);
  EXPECT_EQ(table.Lookup(distinct[0]).sketch, nullptr);
  // A fourth key with the same home slot walks the whole run and stops at
  // the one empty slot.
  EXPECT_TRUE(table.Lookup(4 * kSlots - 1).empty());
  EXPECT_TRUE(table.Lookup(kSlots - 2).empty());
}

TEST(LshTableTest, EmptyTableAnswersEveryCall) {
  for (const bool built : {false, true}) {
    LshTable table;
    if (built) table.BuildFromEntries({}, {}, SmallThreshold(0));
    EXPECT_EQ(table.num_buckets(), 0u);
    EXPECT_EQ(table.slot_capacity(), 0u);
    EXPECT_TRUE(table.Lookup(0).empty());
    EXPECT_TRUE(table.Lookup(~uint64_t{0}).empty());
    table.PrefetchSlot(42);
    std::vector<uint64_t> keys;
    std::vector<uint32_t> ids;
    table.ExportEntries(&keys, &ids);
    EXPECT_TRUE(keys.empty() && ids.empty());
    EXPECT_EQ(table.MemoryBytes(), 0u);

    util::ByteWriter writer;
    table.Serialize(&writer);
    util::ByteReader reader(writer.bytes());
    auto loaded = LshTable::Deserialize(&reader);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->num_buckets(), 0u);
    EXPECT_TRUE(loaded->Lookup(0).empty());
  }
}

/// A table over `n` points in about n/8 buckets of random keys, sketching
/// buckets of at least 12 ids.
LshTable RandomTable(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<uint64_t> bucket_keys(n / 8 + 1);
  for (uint64_t& key : bucket_keys) key = rng.NextU64();
  std::vector<uint64_t> keys(n);
  for (uint64_t& key : keys) {
    key = bucket_keys[rng.NextU64() % bucket_keys.size()];
  }
  LshTable table;
  table.Build(keys, SmallThreshold(12));
  return table;
}

std::vector<uint8_t> Bytes(const LshTable& table) {
  util::ByteWriter writer;
  table.Serialize(&writer);
  return writer.bytes();
}

TEST(LshTableTest, ExportThenBuildFromEntriesRoundTrips) {
  const LshTable table = RandomTable(3000, 17);
  ASSERT_GT(table.num_sketches(), 0u);
  ASSERT_LT(table.num_sketches(), table.num_buckets());
  std::vector<uint64_t> keys;
  std::vector<uint32_t> ids;
  table.ExportEntries(&keys, &ids);
  ASSERT_EQ(keys.size(), 3000u);
  // Any entry order rebuilds the same table.
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::reverse(order.begin(), order.end());
  std::vector<uint64_t> shuffled_keys;
  std::vector<uint32_t> shuffled_ids;
  for (const size_t i : order) {
    shuffled_keys.push_back(keys[i]);
    shuffled_ids.push_back(ids[i]);
  }
  LshTable rebuilt;
  rebuilt.BuildFromEntries(shuffled_keys, shuffled_ids, SmallThreshold(12));
  EXPECT_EQ(Bytes(rebuilt), Bytes(table));
  for (size_t i = 0; i < keys.size(); i += 97) {
    const auto a = table.Lookup(keys[i]);
    const auto b = rebuilt.Lookup(keys[i]);
    EXPECT_TRUE(std::equal(a.ids.begin(), a.ids.end(), b.ids.begin(),
                           b.ids.end()));
    EXPECT_EQ(a.sketch == nullptr, b.sketch == nullptr);
    if (a.sketch != nullptr) EXPECT_EQ(*a.sketch, *b.sketch);
  }
}

TEST(LshTableTest, SerializeDeserializeSerializeIsByteIdentical) {
  const LshTable table = RandomTable(2000, 23);
  const std::vector<uint8_t> bytes = Bytes(table);
  util::ByteReader reader(bytes);
  auto loaded = LshTable::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Bytes(*loaded), bytes);
  EXPECT_EQ(loaded->num_buckets(), table.num_buckets());
  EXPECT_EQ(loaded->num_sketches(), table.num_sketches());
  EXPECT_EQ(loaded->MemoryBytes(), table.MemoryBytes());
}

/// Serializes a hand-made table in the on-disk layout.
std::vector<uint8_t> HandMadeTable(const std::vector<uint64_t>& keys,
                                   const std::vector<size_t>& offsets,
                                   const std::vector<int32_t>& sketch_of,
                                   size_t num_sketches) {
  util::ByteWriter writer;
  writer.WriteU64(keys.size());
  writer.WriteU64(offsets.back());
  writer.WriteU64(1);
  writer.WriteArray<uint64_t>(keys);
  writer.WriteArray<size_t>(offsets);
  std::vector<uint32_t> ids(offsets.back());
  std::iota(ids.begin(), ids.end(), 0);
  writer.WriteArray<uint32_t>(ids);
  writer.WriteArray<int32_t>(sketch_of);
  writer.WriteU64(num_sketches);
  for (size_t s = 0; s < num_sketches; ++s) {
    writer.WriteBlob(hll::HyperLogLog(7).Serialize());
  }
  return writer.bytes();
}

util::StatusCode LoadCode(const std::vector<uint8_t>& bytes) {
  util::ByteReader reader(bytes);
  return LshTable::Deserialize(&reader).status().code();
}

TEST(LshTableTest, DeserializeRejectsMalformedDirectories) {
  // The well-formed baseline loads.
  EXPECT_EQ(LoadCode(HandMadeTable({5, 9}, {0, 1, 2}, {-1, 0}, 1)),
            util::StatusCode::kOk);
  // Duplicate bucket keys.
  EXPECT_EQ(LoadCode(HandMadeTable({5, 5}, {0, 1, 2}, {-1, -1}, 0)),
            util::StatusCode::kDataLoss);
  // A duplicate found only after the probe run wraps: four buckets take
  // an 8-slot directory, and 7, 15, 23 all start at the last slot.
  EXPECT_EQ(LoadCode(HandMadeTable({7, 15, 23, 15}, {0, 1, 2, 3, 4},
                                   {-1, -1, -1, -1}, 0)),
            util::StatusCode::kDataLoss);
  // An empty bucket.
  EXPECT_EQ(LoadCode(HandMadeTable({5, 9}, {0, 0, 2}, {-1, -1}, 0)),
            util::StatusCode::kDataLoss);
  // Sketch indexes out of bucket order, and an unreferenced sketch.
  EXPECT_EQ(LoadCode(HandMadeTable({5, 9}, {0, 1, 2}, {1, 0}, 2)),
            util::StatusCode::kDataLoss);
  EXPECT_EQ(LoadCode(HandMadeTable({5, 9}, {0, 1, 2}, {-1, 0}, 2)),
            util::StatusCode::kDataLoss);
}

}  // namespace
}  // namespace lsh
}  // namespace hybridlsh
