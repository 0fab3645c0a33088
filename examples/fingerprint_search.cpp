// Hamming-space rNNR over 64-bit SimHash fingerprints — the paper's MNIST
// pipeline (§4): reduce dense vectors to compact binary codes once, then
// serve near-neighbor reports with bit-sampling LSH where a distance
// computation is a single XOR + popcount.
//
// Because distances are so cheap in this regime (beta/alpha ~ 1), the
// hybrid decision is dominated by the collision term: only queries whose
// buckets are overwhelmingly duplicated fall back to the scan.
//
//   $ ./build/examples/fingerprint_search

#include <cstdio>
#include <vector>

#include "core/hybridlsh.h"

using namespace hybridlsh;

int main() {
  const size_t pixel_dim = 780;  // the paper's MNIST dimensionality
  const uint32_t radius = 14;    // Hamming radius, mid paper range 12..17

  // 1. "Images": 30,000 near-binary vectors in 10 prototype classes.
  const data::DenseDataset images = data::MakeMnistLike(30000, pixel_dim,
                                                        /*num_classes=*/10,
                                                        /*seed=*/3);

  // 2. Fingerprint once with 64 SimHash hyperplanes. Base set and queries
  //    must share the same Fingerprinter instance (same hyperplanes).
  const lsh::Fingerprinter fingerprinter(pixel_dim, 64, /*seed=*/4);
  auto codes = fingerprinter.Transform(images);
  if (!codes.ok()) {
    std::fprintf(stderr, "fingerprint failed: %s\n",
                 codes.status().ToString().c_str());
    return 1;
  }
  const data::BinarySplit split = data::SplitQueriesBinary(*codes, 10, 5);

  // 3. Bit-sampling index over the 64-bit codes.
  HammingIndex::Options options;
  options.num_tables = 50;
  options.delta = 0.1;
  options.radius = radius;
  options.num_build_threads = 8;
  auto index =
      HammingIndex::Build(lsh::BitSamplingFamily(64), split.base, options);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed: %s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu fingerprints, L=%d k=%d\n", index->size(),
              index->num_tables(), index->k());

  // 4. Search. beta/alpha = 1 (paper's MNIST ratio): popcount distances
  //    cost about as much as dedup probes.
  core::SearcherOptions searcher_options;
  searcher_options.cost_model = core::CostModel::FromRatio(1.0);
  HammingSearcher searcher(&*index, &split.base, searcher_options);

  std::vector<uint32_t> neighbors;
  core::QueryStats stats;
  double recall = 0;
  for (size_t q = 0; q < split.queries.size(); ++q) {
    neighbors.clear();
    searcher.Query(split.queries.point(q), radius, &neighbors, &stats);
    const auto truth =
        data::RangeScanBinary(split.base, split.queries.point(q), radius);
    recall += data::Recall(neighbors, truth);
    // No estimate when the exact collision count already decided.
    char cand[32];
    if (stats.estimate_skipped) {
      std::snprintf(cand, sizeof(cand), "skipped");
    } else {
      std::snprintf(cand, sizeof(cand), "%.0f", stats.cand_estimate);
    }
    std::printf(
        "query %zu: %-6s  reported=%zu / true=%zu  collisions=%llu  "
        "candSize~%s\n",
        q, std::string(core::StrategyName(stats.strategy)).c_str(),
        neighbors.size(), truth.size(),
        static_cast<unsigned long long>(stats.collisions), cand);
  }
  std::printf("average recall: %.3f\n", recall / split.queries.size());
  return 0;
}
