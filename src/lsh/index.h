// The classic multi-table LSH index with HLL-augmented buckets.
//
// LshIndex<Family> realizes the paper's Algorithm 1: L tables, each keyed
// by a concatenation of k atomic hashes from `Family`, every bucket
// carrying a HyperLogLog sketch of its ids. The query side exposes the
// three LSH steps separately so that the hybrid layer (core/) can run the
// cost estimate before deciding to execute:
//
//   S1  ComputePlan — hash the query once into a ProbePlan of bucket keys
//       (QueryKeys / QueryKeysMultiProbe are the legacy key-buffer form);
//   (resolve)  ResolveProbe — look every probed bucket up once, yielding
//       BucketViews and #collisions exactly;
//   (estimate)  EstimateResolved — candSize via the views' merged HLLs
//       (paper Alg. 2 lines 1-2), in O(mL) plus small-bucket folding,
//       capped at #collisions;
//   S2  GatherResolved — dedup the views' ids into a VisitedSet;
//   S3  (caller) verify candidate distances and report.
// EstimateProbe and CollectCandidates are the one-call forms (resolve, then
// estimate or gather).
//
// The sampled hash functions and the probe arithmetic are factored into
// FunctionSet<Family> so that several table sets can share one draw of
// functions: LshIndex owns one FunctionSet and one set of L tables, while
// engine::SegmentedIndex owns one FunctionSet and *many* table sets (the
// sealed segments of its LSM-style lifecycle). The resolve, estimate and
// gather steps are likewise free functions over any table range
// (ResolveProbe / MergeResolved / GatherResolved) so segments sum into one
// decision.
//
// The template parameter Family supplies the point type, the atomic hash
// sampler, the paired metric, and multi-probe costs (see lsh/families.h).

#ifndef HYBRIDLSH_LSH_INDEX_H_
#define HYBRIDLSH_LSH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "hll/hyperloglog.h"
#include "lsh/families.h"
#include "lsh/multi_probe.h"
#include "lsh/params.h"
#include "lsh/table.h"
#include "util/bit_vector.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hybridlsh {
namespace lsh {

/// Result of the query-time cost estimation (paper Alg. 2, lines 1-2).
struct ProbeEstimate {
  uint64_t collisions = 0;     // exact: sum of probed bucket sizes
  double cand_estimate = 0.0;  // candSize estimate from merged HLLs
};

/// A query's complete S1 product, computed ONCE and then replayed against
/// any number of table ranges (shards, segments): the unique probe keys of
/// every table, in probe order, in CSR layout. Deduplication happens at
/// plan-build time — exhausted perturbation pools simply contribute fewer
/// keys instead of home-key padding — so probe walks never rescan for
/// repeated probes and collision counts stay exact by construction.
struct ProbePlan {
  std::vector<uint64_t> keys;           // unique probe keys, grouped by table
  std::vector<uint32_t> table_offsets;  // CSR offsets, num_tables() + 1 long

  size_t num_tables() const {
    return table_offsets.empty() ? 0 : table_offsets.size() - 1;
  }
  std::span<const uint64_t> TableKeys(size_t t) const {
    return std::span<const uint64_t>(keys.data() + table_offsets[t],
                                     table_offsets[t + 1] - table_offsets[t]);
  }
  void Clear() {
    keys.clear();
    table_offsets.clear();
  }
};

/// Reusable workspace for FunctionSet::ComputePlan / ComputePlanBatch. One
/// instance per query worker; every member keeps its capacity across
/// queries, so steady-state plan computation allocates nothing.
struct PlanScratch {
  std::vector<int32_t> slots;      // home signature of the current table
  std::vector<int32_t> perturbed;  // slots with one probe set applied
  std::vector<double> down, up;    // per-slot perturbation costs
  std::vector<ProbeAtom> atoms;    // candidate perturbations of one table
  ProbeGenScratch probe_gen;       // heap scratch for GenerateProbeSetsInto
  std::vector<ProbeSet> sets;      // emitted probe sets of one table
  std::vector<float> projections;  // batch path: raw L x count x k dots
};

// --- Hash-evaluation instrumentation (tests and benches only). -------------
// Counts k-wise signature computations (one per point-table pair) across
// every FunctionSet. The snapshot tests use it to prove that restoring an
// engine evaluates ZERO hash functions — the whole point of persistence.
// Disabled by default; the enabled check is one relaxed load of a
// read-mostly flag, which is noise next to the k x dim signature itself.

namespace internal {
inline std::atomic<bool>& HashEvalCountingEnabled() {
  static std::atomic<bool> enabled{false};
  return enabled;
}
inline std::atomic<uint64_t>& HashEvalCount() {
  static std::atomic<uint64_t> count{0};
  return count;
}
inline void NoteHashEvals(uint64_t n) {
  if (HashEvalCountingEnabled().load(std::memory_order_relaxed)) {
    HashEvalCount().fetch_add(n, std::memory_order_relaxed);
  }
}
}  // namespace internal

/// Turns signature counting on/off; returns the current count. Counting is
/// process-wide, so tests that use it must not run concurrent builds they
/// don't mean to measure.
inline void SetHashEvalCounting(bool enabled) {
  internal::HashEvalCountingEnabled().store(enabled,
                                            std::memory_order_relaxed);
}
inline uint64_t HashEvalCountForTest() {
  return internal::HashEvalCount().load(std::memory_order_relaxed);
}

/// One draw of the L k-wise hash functions plus the per-table bucket-key
/// seeds — everything S1 needs, independent of any table contents. Two
/// holders sampled with the same (family, num_tables, k, seed) hash every
/// point identically, which is the invariant both the sharded engine and
/// the segmented lifecycle build on: a point collides with a query in table
/// t no matter which shard or segment currently stores it.
template <typename Family>
class FunctionSet {
 public:
  using Point = typename Family::Point;

  /// Parameters derived by the paper's AutoK rule (zero when k was given
  /// explicitly).
  struct DerivedParams {
    double p1_at_radius = 0.0;
    double recall_lower_bound = 0.0;
  };

  /// Samples the k-wise functions of `num_tables` tables from decorrelated
  /// streams. k == 0 derives k from (radius, delta) via AutoK.
  static util::StatusOr<FunctionSet> Sample(Family family, int num_tables,
                                            int k, double delta, double radius,
                                            uint64_t seed) {
    if (num_tables < 1) {
      return util::Status::InvalidArgument("num_tables must be >= 1");
    }
    FunctionSet set(std::move(family));
    if (k == 0) {
      if (radius <= 0.0) {
        return util::Status::InvalidArgument(
            "k == 0 (auto) requires a positive radius");
      }
      const double p1 = set.family_.CollisionProbability(radius);
      auto auto_k = AutoK(p1, num_tables, delta);
      if (!auto_k.ok()) return auto_k.status();
      k = *auto_k;
      set.derived_.p1_at_radius = p1;
      set.derived_.recall_lower_bound = RecallLowerBound(k, num_tables, p1);
    } else if (k < 0) {
      return util::Status::InvalidArgument("k must be >= 0");
    }
    set.k_ = k;

    const size_t L = static_cast<size_t>(num_tables);
    set.functions_.reserve(L);
    set.table_seeds_.reserve(L);
    for (size_t t = 0; t < L; ++t) {
      util::Rng rng(util::HashU64(seed, t));
      set.functions_.push_back(
          set.family_.Sample(static_cast<size_t>(k), &rng));
      set.table_seeds_.push_back(util::HashU64(seed ^ 0x5bd1e995, t));
    }
    return set;
  }

  /// The bucket key of `point` in table t. `slots` is caller scratch.
  uint64_t SignatureKey(Point point, size_t t,
                        std::vector<int32_t>* slots) const {
    internal::NoteHashEvals(1);
    slots->resize(static_cast<size_t>(k_));
    family_.Signature(functions_[t], point, *slots);
    return KeyOf(*slots, t);
  }

  /// S1: the L home-bucket keys of a query.
  void QueryKeys(Point query, std::vector<uint64_t>* keys) const {
    const size_t L = functions_.size();
    internal::NoteHashEvals(L);
    keys->resize(L);
    std::vector<int32_t> slots(static_cast<size_t>(k_));
    for (size_t t = 0; t < L; ++t) {
      family_.Signature(functions_[t], query, slots);
      (*keys)[t] = KeyOf(slots, t);
    }
  }

  /// S1 with multi-probing: `probes_per_table` keys per table (home bucket
  /// first, then perturbed buckets in increasing cost). The output holds
  /// num_tables() * probes_per_table keys grouped by table; a table that
  /// runs out of perturbations repeats its home key (harmless duplicates —
  /// same bucket, same sketch). Unsupported for ProbeKind::kNone families.
  util::Status QueryKeysMultiProbe(Point query, size_t probes_per_table,
                                   std::vector<uint64_t>* keys) const {
    if (probes_per_table == 0) {
      return util::Status::InvalidArgument("probes_per_table must be >= 1");
    }
    if (family_.probe_kind() == ProbeKind::kNone) {
      return util::Status::Unimplemented(
          "multi-probe is not defined for this family");
    }
    const size_t L = functions_.size();
    internal::NoteHashEvals(L);
    const size_t k = static_cast<size_t>(k_);
    keys->assign(L * probes_per_table, 0);
    std::vector<int32_t> slots(k);
    std::vector<int32_t> perturbed(k);
    std::vector<ProbeAtom> atoms;
    std::vector<double> down(k), up(k);
    for (size_t t = 0; t < L; ++t) {
      atoms.clear();
      if constexpr (HasTwoSidedCosts<Family>) {
        if (family_.probe_kind() == ProbeKind::kTwoSided) {
          family_.SignatureWithProbeCosts(functions_[t], query, slots, down, up);
          for (uint32_t i = 0; i < k; ++i) {
            atoms.push_back(ProbeAtom{i, -1, down[i]});
            atoms.push_back(ProbeAtom{i, +1, up[i]});
          }
        }
      }
      if constexpr (HasFlipCosts<Family>) {
        if (family_.probe_kind() == ProbeKind::kFlip) {
          family_.SignatureWithProbeCosts(functions_[t], query, slots, down);
          for (uint32_t i = 0; i < k; ++i) {
            atoms.push_back(ProbeAtom{i, +1, down[i]});
          }
        }
      }
      uint64_t* out = keys->data() + t * probes_per_table;
      out[0] = KeyOf(slots, t);
      const auto sets = GenerateProbeSets(atoms, probes_per_table - 1);
      for (size_t p = 0; p < probes_per_table - 1; ++p) {
        if (p < sets.size()) {
          perturbed.assign(slots.begin(), slots.end());
          for (const ProbeAtom& atom : sets[p]) {
            if (family_.probe_kind() == ProbeKind::kFlip) {
              perturbed[atom.slot] ^= 1;
            } else {
              perturbed[atom.slot] += atom.delta;
            }
          }
          out[1 + p] = KeyOf(perturbed, t);
        } else {
          out[1 + p] = out[0];
        }
      }
    }
    return util::Status::Ok();
  }

  /// S1, hash-once form: computes the query's full probe plan — the unique
  /// probe keys of every table, home bucket first then perturbed buckets in
  /// increasing cost (see ProbePlan). probes_per_table == 1 plans only the
  /// home buckets and works for every family; larger values require a
  /// multi-probe family, exactly like QueryKeysMultiProbe. The plan replays
  /// against any table range sharing this function set, so an engine with S
  /// shards evaluates L hash signatures per query instead of S * L.
  util::Status ComputePlan(Point query, size_t probes_per_table,
                           PlanScratch* scratch, ProbePlan* plan) const {
    HLSH_RETURN_IF_ERROR(ValidatePlanRequest(probes_per_table));
    const size_t L = functions_.size();
    const size_t k = static_cast<size_t>(k_);
    internal::NoteHashEvals(L);
    ResetPlan(L, probes_per_table, plan);
    scratch->slots.resize(k);
    for (size_t t = 0; t < L; ++t) {
      if (probes_per_table == 1) {
        family_.Signature(functions_[t], query, scratch->slots);
        scratch->atoms.clear();
      } else {
        SignatureAndAtoms(t, query, scratch);
      }
      AppendTablePlan(t, probes_per_table, scratch, plan);
    }
    return util::Status::Ok();
  }

  /// ComputePlan for a whole batch of queries. Dense projection families
  /// push all count x k dot products of each table through the blocked
  /// (GEMM-shaped) projection kernel in one call — bit-identical to the
  /// per-query form — before finishing each query's slots and probe sets;
  /// other families fall back to a per-query loop. plans must hold `count`
  /// entries.
  util::Status ComputePlanBatch(const Point* queries, size_t count,
                                size_t probes_per_table, PlanScratch* scratch,
                                ProbePlan* plans) const {
    if constexpr (HasBatchProjection<Family>) {
      HLSH_RETURN_IF_ERROR(ValidatePlanRequest(probes_per_table));
      if (count == 0) return util::Status::Ok();
      const size_t L = functions_.size();
      const size_t k = static_cast<size_t>(k_);
      internal::NoteHashEvals(L * count);
      scratch->projections.resize(L * count * k);
      for (size_t t = 0; t < L; ++t) {
        family_.ProjectBatch(
            functions_[t], queries, count,
            std::span<float>(scratch->projections.data() + t * count * k,
                             count * k));
      }
      scratch->slots.resize(k);
      for (size_t q = 0; q < count; ++q) {
        ProbePlan* plan = plans + q;
        ResetPlan(L, probes_per_table, plan);
        for (size_t t = 0; t < L; ++t) {
          const std::span<const float> proj(
              scratch->projections.data() + (t * count + q) * k, k);
          if (probes_per_table == 1) {
            family_.SignatureFromProjections(functions_[t], proj,
                                             scratch->slots);
            scratch->atoms.clear();
          } else {
            SignatureAndAtomsFromProjections(t, proj, scratch);
          }
          AppendTablePlan(t, probes_per_table, scratch, plan);
        }
      }
      return util::Status::Ok();
    } else {
      for (size_t q = 0; q < count; ++q) {
        HLSH_RETURN_IF_ERROR(
            ComputePlan(queries[q], probes_per_table, scratch, plans + q));
      }
      return util::Status::Ok();
    }
  }

  const Family& family() const { return family_; }
  int k() const { return k_; }
  size_t num_tables() const { return functions_.size(); }
  const DerivedParams& derived() const { return derived_; }

  /// Serialization hooks used by LshIndex::Save / Load: functions are
  /// written per table, interleaved with the tables.
  void SaveFunctions(size_t t, util::ByteWriter* writer) const {
    family_.SaveFunctions(functions_[t], writer);
  }
  const std::vector<uint64_t>& table_seeds() const { return table_seeds_; }
  static FunctionSet ForLoad(Family family, int k,
                             std::vector<uint64_t> table_seeds) {
    FunctionSet set(std::move(family));
    set.k_ = k;
    set.table_seeds_ = std::move(table_seeds);
    set.functions_.reserve(set.table_seeds_.size());
    return set;
  }
  util::Status LoadAppendFunctions(util::ByteReader* reader) {
    auto functions = family_.LoadFunctions(reader);
    if (!functions.ok()) return functions.status();
    functions_.push_back(std::move(*functions));
    return util::Status::Ok();
  }

  /// Persists the whole set — family parameters, k, table seeds, and every
  /// table's sampled functions — as one self-contained block. This is the
  /// snapshot path (engine/snapshot.h): one FunctionSet block per engine,
  /// shared by all shards and segments, instead of LshIndex::Save's
  /// per-table interleaving.
  void Save(util::ByteWriter* writer) const {
    writer->WriteU32(Family::kFamilyTag);
    family_.SaveFamily(writer);
    writer->WriteU32(static_cast<uint32_t>(k_));
    writer->WriteU64(functions_.size());
    writer->WriteArray<uint64_t>(table_seeds_);
    for (size_t t = 0; t < functions_.size(); ++t) {
      family_.SaveFunctions(functions_[t], writer);
    }
  }

  /// Parses a block written by Save. Rejects wrong-family payloads with
  /// InvalidArgument and malformed ones with DataLoss. No hash function is
  /// evaluated — the sampled functions are reloaded, not re-drawn.
  static util::StatusOr<FunctionSet> Load(util::ByteReader* reader) {
    uint32_t family_tag = 0;
    HLSH_RETURN_IF_ERROR(reader->ReadU32(&family_tag));
    if (family_tag != Family::kFamilyTag) {
      return util::Status::InvalidArgument(
          "function set was sampled from a different LSH family");
    }
    auto family = Family::LoadFamily(reader);
    if (!family.ok()) return family.status();
    uint32_t k = 0;
    uint64_t num_tables = 0;
    HLSH_RETURN_IF_ERROR(reader->ReadU32(&k));
    HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_tables));
    if (num_tables == 0 || num_tables > (uint64_t{1} << 20) ||
        k > (uint32_t{1} << 20)) {
      return util::Status::DataLoss("function set header is invalid");
    }
    std::vector<uint64_t> table_seeds;
    HLSH_RETURN_IF_ERROR(
        reader->ReadArray<uint64_t>(num_tables, &table_seeds));
    FunctionSet set = ForLoad(std::move(*family), static_cast<int>(k),
                              std::move(table_seeds));
    for (uint64_t t = 0; t < num_tables; ++t) {
      HLSH_RETURN_IF_ERROR(set.LoadAppendFunctions(reader));
    }
    return set;
  }

 private:
  explicit FunctionSet(Family family) : family_(std::move(family)) {}

  // Concept probes for the two probe-cost signatures.
  template <typename F>
  static constexpr bool HasTwoSidedCosts = requires(
      const F& f, const typename F::Functions& fns, typename F::Point p,
      std::span<int32_t> s, std::span<double> c) {
    f.SignatureWithProbeCosts(fns, p, s, c, c);
  };
  template <typename F>
  static constexpr bool HasFlipCosts = requires(
      const F& f, const typename F::Functions& fns, typename F::Point p,
      std::span<int32_t> s, std::span<double> c) {
    f.SignatureWithProbeCosts(fns, p, s, c);
  };

  // The raw-projection split of dense families (lsh/families.h), which is
  // what lets ComputePlanBatch run one blocked kernel per table.
  template <typename F>
  static constexpr bool HasBatchProjection = requires(
      const F& f, const typename F::Functions& fns,
      const typename F::Point* pts, std::span<float> proj,
      std::span<const float> cproj, std::span<int32_t> s) {
    f.ProjectBatch(fns, pts, size_t{1}, proj);
    f.SignatureFromProjections(fns, cproj, s);
  };
  template <typename F>
  static constexpr bool HasTwoSidedCostsFromProj = requires(
      const F& f, const typename F::Functions& fns,
      std::span<const float> proj, std::span<int32_t> s, std::span<double> c) {
    f.SignatureWithProbeCostsFromProjections(fns, proj, s, c, c);
  };
  template <typename F>
  static constexpr bool HasFlipCostsFromProj = requires(
      const F& f, const typename F::Functions& fns,
      std::span<const float> proj, std::span<int32_t> s, std::span<double> c) {
    f.SignatureWithProbeCostsFromProjections(fns, proj, s, c);
  };

  util::Status ValidatePlanRequest(size_t probes_per_table) const {
    if (probes_per_table == 0) {
      return util::Status::InvalidArgument("probes_per_table must be >= 1");
    }
    if (probes_per_table > 1 && family_.probe_kind() == ProbeKind::kNone) {
      return util::Status::Unimplemented(
          "multi-probe is not defined for this family");
    }
    return util::Status::Ok();
  }

  static void ResetPlan(size_t num_tables, size_t probes_per_table,
                        ProbePlan* plan) {
    plan->keys.clear();
    plan->keys.reserve(num_tables * probes_per_table);
    plan->table_offsets.clear();
    plan->table_offsets.reserve(num_tables + 1);
    plan->table_offsets.push_back(0);
  }

  /// Fills scratch->slots and scratch->atoms for table t by hashing the
  /// query with probe costs (multi-probe path of ComputePlan).
  void SignatureAndAtoms(size_t t, Point query, PlanScratch* scratch) const {
    const size_t k = static_cast<size_t>(k_);
    scratch->atoms.clear();
    if constexpr (HasTwoSidedCosts<Family>) {
      if (family_.probe_kind() == ProbeKind::kTwoSided) {
        scratch->down.resize(k);
        scratch->up.resize(k);
        family_.SignatureWithProbeCosts(functions_[t], query, scratch->slots,
                                        scratch->down, scratch->up);
        BuildAtomsFromCosts(scratch);
        return;
      }
    }
    if constexpr (HasFlipCosts<Family>) {
      if (family_.probe_kind() == ProbeKind::kFlip) {
        scratch->down.resize(k);
        family_.SignatureWithProbeCosts(functions_[t], query, scratch->slots,
                                        scratch->down);
        BuildAtomsFromCosts(scratch);
        return;
      }
    }
  }

  /// SignatureAndAtoms from precomputed raw projections (batch path).
  void SignatureAndAtomsFromProjections(size_t t, std::span<const float> proj,
                                        PlanScratch* scratch) const {
    const size_t k = static_cast<size_t>(k_);
    scratch->atoms.clear();
    if constexpr (HasTwoSidedCostsFromProj<Family>) {
      if (family_.probe_kind() == ProbeKind::kTwoSided) {
        scratch->down.resize(k);
        scratch->up.resize(k);
        family_.SignatureWithProbeCostsFromProjections(
            functions_[t], proj, scratch->slots, scratch->down, scratch->up);
        BuildAtomsFromCosts(scratch);
        return;
      }
    }
    if constexpr (HasFlipCostsFromProj<Family>) {
      if (family_.probe_kind() == ProbeKind::kFlip) {
        scratch->down.resize(k);
        family_.SignatureWithProbeCostsFromProjections(
            functions_[t], proj, scratch->slots, scratch->down);
        BuildAtomsFromCosts(scratch);
        return;
      }
    }
  }

  /// Turns the costs in scratch->down / scratch->up into probe atoms,
  /// matching QueryKeysMultiProbe's atom construction exactly.
  void BuildAtomsFromCosts(PlanScratch* scratch) const {
    const uint32_t k = static_cast<uint32_t>(k_);
    if (family_.probe_kind() == ProbeKind::kTwoSided) {
      for (uint32_t i = 0; i < k; ++i) {
        scratch->atoms.push_back(ProbeAtom{i, -1, scratch->down[i]});
        scratch->atoms.push_back(ProbeAtom{i, +1, scratch->up[i]});
      }
    } else {
      for (uint32_t i = 0; i < k; ++i) {
        scratch->atoms.push_back(ProbeAtom{i, +1, scratch->down[i]});
      }
    }
  }

  /// Appends table t's unique probe keys (home bucket first, then perturbed
  /// buckets in increasing cost) and closes the table's CSR range. Expects
  /// scratch->slots / scratch->atoms already filled for table t. The dedup
  /// scan runs over at most probes_per_table emitted keys, once per query —
  /// not once per shard walk as IsRepeatedProbe used to.
  void AppendTablePlan(size_t t, size_t probes_per_table, PlanScratch* scratch,
                       ProbePlan* plan) const {
    const size_t table_begin = plan->keys.size();
    plan->keys.push_back(KeyOf(scratch->slots, t));
    if (probes_per_table > 1) {
      const size_t num_sets =
          GenerateProbeSetsInto(scratch->atoms, probes_per_table - 1,
                                &scratch->probe_gen, &scratch->sets);
      std::vector<int32_t>& perturbed = scratch->perturbed;
      for (size_t p = 0; p < num_sets; ++p) {
        perturbed.assign(scratch->slots.begin(), scratch->slots.end());
        for (const ProbeAtom& atom : scratch->sets[p]) {
          if (family_.probe_kind() == ProbeKind::kFlip) {
            perturbed[atom.slot] ^= 1;
          } else {
            perturbed[atom.slot] += atom.delta;
          }
        }
        const uint64_t key = KeyOf(perturbed, t);
        bool duplicate = false;
        for (size_t j = table_begin; j < plan->keys.size(); ++j) {
          if (plan->keys[j] == key) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) plan->keys.push_back(key);
      }
    }
    plan->table_offsets.push_back(static_cast<uint32_t>(plan->keys.size()));
  }

  /// Reduces a k-slot signature to the 64-bit bucket key of table t.
  /// Distinct signatures collide with probability ~2^-64; such a collision
  /// only adds spurious candidates, which S3's distance check removes.
  uint64_t KeyOf(std::span<const int32_t> slots, size_t table) const {
    return util::HashBytes(slots.data(), slots.size() * sizeof(int32_t),
                           table_seeds_[table]);
  }

  Family family_;
  int k_ = 0;
  std::vector<typename Family::Functions> functions_;
  std::vector<uint64_t> table_seeds_;
  DerivedParams derived_;
};

/// True when keys[i] repeats an earlier probe of the same table (the table's
/// probes start at `table_begin`). Multi-probe padding repeats the home key,
/// and distinct perturbations can land on the same bucket; probing a bucket
/// once per table keeps collision counts exact and sketch merges minimal.
/// Linear in probes_per_table, which is small.
inline bool IsRepeatedProbe(std::span<const uint64_t> keys, size_t table_begin,
                            size_t i) {
  for (size_t j = table_begin; j < i; ++j) {
    if (keys[j] == keys[i]) return true;
  }
  return false;
}

/// Accumulates one table range's contribution to the Alg. 2 estimate:
/// adds the probed buckets' sizes to *collisions and merges (or folds)
/// their sketches into *scratch, which is NOT cleared — callers sum several
/// segments into one estimate. This is the legacy key-buffer walk; plan
/// walks go through ResolveProbe below.
inline void AccumulateProbe(std::span<const LshTable> tables,
                            std::span<const uint64_t> keys,
                            hll::HyperLogLog* scratch, uint64_t* collisions) {
  const size_t probes_per_table = keys.size() / tables.size();
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t t = i / probes_per_table;
    if (IsRepeatedProbe(keys, t * probes_per_table, i)) continue;
    const LshTable::BucketView bucket = tables[t].Lookup(keys[i]);
    if (bucket.empty()) continue;
    *collisions += bucket.size();
    if (bucket.sketch != nullptr) {
      HLSH_CHECK(scratch->Merge(*bucket.sketch).ok());
    } else {
      // Small bucket: fold ids on demand (paper §3.2).
      for (uint32_t id : bucket.ids) scratch->AddPoint(id);
    }
  }
}

/// S2 over one table range: dedups every probed id into *visited, whose
/// touched() list then IS the flat candidate buffer block verification
/// consumes (core/kernels.h), and returns the exact number of collisions.
/// Ids whose `tombstones` bit is set are counted as collisions (the probe
/// cost was paid) but not inserted, so deleted points never reach
/// verification. Legacy key-buffer walk, like AccumulateProbe.
inline uint64_t CollectProbedIds(std::span<const LshTable> tables,
                                 std::span<const uint64_t> keys,
                                 util::VisitedSet* visited,
                                 const util::BitVector* tombstones = nullptr) {
  uint64_t collisions = 0;
  const size_t probes_per_table = keys.size() / tables.size();
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t t = i / probes_per_table;
    if (IsRepeatedProbe(keys, t * probes_per_table, i)) continue;
    const LshTable::BucketView bucket = tables[t].Lookup(keys[i]);
    collisions += bucket.size();
    if (tombstones == nullptr) {
      visited->InsertSpan(bucket.ids);
    } else {
      visited->InsertSpanFiltered(bucket.ids, *tombstones);
    }
  }
  return collisions;
}

// --- Resolve-once plan walks. -----------------------------------------------
// A walk over a ProbePlan resolves each probed bucket exactly once: ResolveProbe
// turns the plan's keys into BucketViews and the exact collision count, and
// the two consumers — the Alg. 2 estimate (MergeResolved) and the S2 gather
// (GatherResolved) — both read those views. The decision between them needs
// only the collision count, so a walk the collision bounds already decide
// never merges a sketch (core::DecideStrategy).

/// Resolves the plan's probe keys against one table range, appending every
/// non-empty bucket to *views (NOT cleared — segments append into one
/// buffer) in (table, probe) order, and returns the exact number of
/// collisions. All directory slots are prefetched before the first lookup,
/// and each bucket's ids and sketch as it resolves, so the dependent loads
/// overlap instead of queueing.
inline uint64_t ResolveProbe(std::span<const LshTable> tables,
                             const ProbePlan& plan,
                             std::vector<LshTable::BucketView>* views) {
  HLSH_DCHECK(plan.num_tables() == tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    for (const uint64_t key : plan.TableKeys(t)) tables[t].PrefetchSlot(key);
  }
  uint64_t collisions = 0;
  for (size_t t = 0; t < tables.size(); ++t) {
    for (const uint64_t key : plan.TableKeys(t)) {
      const LshTable::BucketView bucket = tables[t].Lookup(key);
      if (bucket.empty()) continue;
      __builtin_prefetch(bucket.ids.data());
      if (bucket.sketch != nullptr) __builtin_prefetch(bucket.sketch);
      collisions += bucket.size();
      views->push_back(bucket);
    }
  }
  return collisions;
}

/// The estimate half of a resolved walk: merges the views' sketches (or
/// folds small buckets' ids, paper §3.2) into *scratch, which is NOT
/// cleared.
inline void MergeResolved(std::span<const LshTable::BucketView> views,
                          hll::HyperLogLog* scratch) {
  for (const LshTable::BucketView& bucket : views) {
    if (bucket.sketch != nullptr) {
      HLSH_CHECK(scratch->Merge(*bucket.sketch).ok());
    } else {
      for (const uint32_t id : bucket.ids) scratch->AddPoint(id);
    }
  }
}

/// The S2 half of a resolved walk: dedups the views' ids into *visited in
/// view order, skipping ids whose `tombstones` bit is set.
inline void GatherResolved(std::span<const LshTable::BucketView> views,
                           util::VisitedSet* visited,
                           const util::BitVector* tombstones = nullptr) {
  for (const LshTable::BucketView& bucket : views) {
    if (tombstones == nullptr) {
      visited->InsertSpan(bucket.ids);
    } else {
      visited->InsertSpanFiltered(bucket.ids, *tombstones);
    }
  }
}

namespace internal {
/// Per-thread view buffer for the one-call EstimateProbe / CollectCandidates
/// plan forms, so they allocate nothing in steady state.
inline std::vector<LshTable::BucketView>& ThreadViews() {
  thread_local std::vector<LshTable::BucketView> views;
  return views;
}
}  // namespace internal

/// Classic LSH index over a Family (see file comment).
template <typename Family>
class LshIndex {
 public:
  using Point = typename Family::Point;

  struct Options {
    /// Number of hash tables L. The paper's evaluation fixes L = 50.
    int num_tables = 50;
    /// Concatenation width k; 0 = derive from (radius, delta) via the
    /// paper's rule AutoK (requires radius > 0).
    int k = 0;
    /// Per-point failure probability delta (used when k == 0).
    double delta = 0.1;
    /// Search radius used for parameter derivation when k == 0.
    double radius = 0.0;
    /// HLL precision b (m = 2^b registers per bucket sketch). Paper: b = 7.
    int hll_precision = 7;
    /// Small-bucket threshold; LshTable::kThresholdAuto = m.
    size_t small_bucket_threshold = LshTable::kThresholdAuto;
    /// Seed for sampling hash functions.
    uint64_t seed = 1;
    /// Threads for table construction (queries are single-threaded).
    size_t num_build_threads = 1;
    /// Global id of the dataset's first point. A shard built over a slice
    /// of a larger dataset passes its range start here so that buckets and
    /// sketches carry global ids directly (see lsh/table.h Options).
    uint32_t id_base = 0;
  };

  /// Summary of a built index.
  struct Stats {
    size_t num_points = 0;
    int num_tables = 0;
    int k = 0;
    double p1_at_radius = 0.0;      // 0 when k was given explicitly
    double recall_lower_bound = 0.0;  // 1-(1-p1^k)^L, 0 when k explicit
    size_t total_buckets = 0;
    size_t total_sketches = 0;
    size_t memory_bytes = 0;
    size_t sketch_bytes = 0;
    double build_seconds = 0.0;
  };

  using ProbeEstimate = lsh::ProbeEstimate;

  /// Builds an index over `dataset` (any container with size() and
  /// point(i) -> Point). The dataset is not retained.
  template <typename Dataset>
  static util::StatusOr<LshIndex> Build(Family family, const Dataset& dataset,
                                        const Options& options) {
    if (options.hll_precision < hll::HyperLogLog::kMinPrecision ||
        options.hll_precision > hll::HyperLogLog::kMaxPrecision) {
      return util::Status::InvalidArgument("hll_precision out of range");
    }
    if (dataset.size() == 0) {
      return util::Status::InvalidArgument("cannot index an empty dataset");
    }
    if (dataset.size() > static_cast<size_t>(UINT32_MAX)) {
      return util::Status::InvalidArgument("dataset exceeds 2^32-1 points");
    }
    if (static_cast<uint64_t>(options.id_base) + dataset.size() >
        static_cast<uint64_t>(UINT32_MAX) + 1) {
      return util::Status::InvalidArgument(
          "id_base + dataset size exceeds the 32-bit id space");
    }

    auto functions = FunctionSet<Family>::Sample(
        std::move(family), options.num_tables, options.k, options.delta,
        options.radius, options.seed);
    if (!functions.ok()) return functions.status();

    LshIndex index(std::move(*functions));
    index.options_ = options;
    index.stats_.num_points = dataset.size();
    index.stats_.num_tables = options.num_tables;
    index.stats_.k = index.functions_.k();
    index.stats_.p1_at_radius = index.functions_.derived().p1_at_radius;
    index.stats_.recall_lower_bound =
        index.functions_.derived().recall_lower_bound;

    util::WallTimer build_timer;
    const size_t L = static_cast<size_t>(options.num_tables);

    // Hash all points and build each table (parallel across tables).
    index.tables_.resize(L);
    LshTable::Options table_options;
    table_options.hll_precision = options.hll_precision;
    table_options.small_bucket_threshold = options.small_bucket_threshold;
    table_options.id_base = options.id_base;
    const size_t n = dataset.size();
    util::ParallelFor(0, L, options.num_build_threads, [&](size_t t) {
      std::vector<int32_t> slots;
      std::vector<uint64_t> keys(n);
      for (size_t i = 0; i < n; ++i) {
        keys[i] = index.functions_.SignatureKey(dataset.point(i), t, &slots);
      }
      index.tables_[t].Build(keys, table_options);
    });

    index.stats_.build_seconds = build_timer.ElapsedSeconds();
    for (const LshTable& table : index.tables_) {
      index.stats_.total_buckets += table.num_buckets();
      index.stats_.total_sketches += table.num_sketches();
      index.stats_.memory_bytes += table.MemoryBytes();
      index.stats_.sketch_bytes += table.SketchBytes();
    }
    return index;
  }

  /// S1: the L home-bucket keys of a query.
  void QueryKeys(Point query, std::vector<uint64_t>* keys) const {
    functions_.QueryKeys(query, keys);
  }

  /// S1 with multi-probing (see FunctionSet::QueryKeysMultiProbe).
  util::Status QueryKeysMultiProbe(Point query, size_t probes_per_table,
                                   std::vector<uint64_t>* keys) const {
    return functions_.QueryKeysMultiProbe(query, probes_per_table, keys);
  }

  /// S1, hash-once form (see FunctionSet::ComputePlan).
  util::Status ComputePlan(Point query, size_t probes_per_table,
                           PlanScratch* scratch, ProbePlan* plan) const {
    return functions_.ComputePlan(query, probes_per_table, scratch, plan);
  }

  /// Estimates #collisions (exact) and candSize (merged HLLs, capped at
  /// the collisions) for a set of probe keys produced by QueryKeys*.
  /// `scratch` must have the index's HLL precision; it is cleared first.
  /// Paper Alg. 2, lines 1-2. The sketch merges and the final estimate run
  /// on the dispatched SIMD register kernels (util/simd.h: byte-max merge,
  /// fused sum-of-2^-M + zero count).
  ProbeEstimate EstimateProbe(std::span<const uint64_t> keys,
                              hll::HyperLogLog* scratch) const {
    HLSH_DCHECK(scratch->precision() == options_.hll_precision);
    scratch->Clear();
    ProbeEstimate estimate;
    AccumulateProbe(tables_, keys, scratch, &estimate.collisions);
    estimate.cand_estimate = ClampedEstimate(*scratch, estimate.collisions);
    return estimate;
  }

  /// EstimateProbe over a precomputed plan (hash-once path): ResolveProbe
  /// then EstimateResolved.
  ProbeEstimate EstimateProbe(const ProbePlan& plan,
                              hll::HyperLogLog* scratch) const {
    std::vector<LshTable::BucketView>& views = internal::ThreadViews();
    ProbeEstimate estimate;
    estimate.collisions = ResolveProbe(plan, &views);
    estimate.cand_estimate =
        EstimateResolved(views, estimate.collisions, scratch);
    return estimate;
  }

  /// S2: inserts every probed id into `visited` (deduplicating) and returns
  /// the exact number of collisions. visited->touched() is then the
  /// distinct candidate set for S3.
  uint64_t CollectCandidates(std::span<const uint64_t> keys,
                             util::VisitedSet* visited) const {
    return CollectProbedIds(tables_, keys, visited);
  }

  /// S2 over a precomputed plan (hash-once path): ResolveProbe then
  /// GatherResolved.
  uint64_t CollectCandidates(const ProbePlan& plan,
                             util::VisitedSet* visited) const {
    std::vector<LshTable::BucketView>& views = internal::ThreadViews();
    const uint64_t collisions = ResolveProbe(plan, &views);
    GatherResolved(views, visited);
    return collisions;
  }

  /// Resolve-once walk, step 1: the plan's non-empty buckets into *views
  /// (cleared first) and the exact collision count (see lsh::ResolveProbe).
  uint64_t ResolveProbe(const ProbePlan& plan,
                        std::vector<LshTable::BucketView>* views) const {
    views->clear();
    return lsh::ResolveProbe(tables_, plan, views);
  }

  /// Resolve-once walk, estimate: candSize from the resolved views
  /// (`scratch` is cleared first), capped at `collisions`.
  double EstimateResolved(std::span<const LshTable::BucketView> views,
                          uint64_t collisions,
                          hll::HyperLogLog* scratch) const {
    HLSH_DCHECK(scratch->precision() == options_.hll_precision);
    scratch->Clear();
    MergeResolved(views, scratch);
    return ClampedEstimate(*scratch, collisions);
  }

  /// Resolve-once walk, S2: the resolved views' ids into *visited.
  void GatherResolved(std::span<const LshTable::BucketView> views,
                      util::VisitedSet* visited) const {
    lsh::GatherResolved(views, visited);
  }

  /// Bucket access for inspection and tests.
  LshTable::BucketView Bucket(size_t table, uint64_t key) const {
    HLSH_DCHECK(table < tables_.size());
    return tables_[table].Lookup(key);
  }

  /// Metric distance between two points (delegates to the family), so that
  /// generic searchers can verify candidates without naming the family.
  double Distance(Point a, Point b) const {
    return functions_.family().Distance(a, b);
  }

  const Family& family() const { return functions_.family(); }
  /// The sampled hash functions (shared surface with SegmentedIndex).
  const FunctionSet<Family>& functions() const { return functions_; }
  int k() const { return functions_.k(); }
  /// Global id of the first indexed point (see Options::id_base).
  /// Serialized since format v2, so Save/Load round-trips it.
  uint32_t id_base() const { return options_.id_base; }
  int num_tables() const { return static_cast<int>(tables_.size()); }
  size_t size() const { return stats_.num_points; }
  int hll_precision() const { return options_.hll_precision; }
  const Stats& stats() const { return stats_; }

  /// Creates a scratch sketch compatible with EstimateProbe.
  hll::HyperLogLog MakeScratchSketch() const {
    return hll::HyperLogLog(options_.hll_precision);
  }

  /// Persists the whole index (family, sampled functions, tables with
  /// their bucket sketches) to `path`. The dataset itself is NOT stored —
  /// reload it separately and pair it with the loaded index. The write is
  /// crash-safe: the bytes land in a temp file that is fsynced and renamed
  /// over `path`, so an interrupted Save never leaves a truncated index.
  util::Status Save(const std::string& path) const {
    util::ByteWriter writer;
    writer.WriteU64(kIndexMagic);
    writer.WriteU32(kIndexVersion);
    writer.WriteU32(Family::kFamilyTag);
    functions_.family().SaveFamily(&writer);
    writer.WriteU32(static_cast<uint32_t>(functions_.k()));
    writer.WriteU32(static_cast<uint32_t>(tables_.size()));
    writer.WriteU32(static_cast<uint32_t>(options_.hll_precision));
    writer.WriteU32(options_.id_base);
    writer.WriteU64(options_.small_bucket_threshold);
    writer.WriteU64(options_.seed);
    writer.WriteU64(stats_.num_points);
    writer.WriteF64(stats_.p1_at_radius);
    writer.WriteF64(stats_.recall_lower_bound);
    writer.WriteU64(functions_.table_seeds().size());
    writer.WriteArray<uint64_t>(functions_.table_seeds());
    for (size_t t = 0; t < tables_.size(); ++t) {
      functions_.SaveFunctions(t, &writer);
      tables_[t].Serialize(&writer);
    }
    return util::AtomicWriteFileBytes(path, writer.bytes());
  }

  /// Loads an index written by Save. Rejects wrong-family files, truncated
  /// payloads, and structurally invalid tables.
  static util::StatusOr<LshIndex> Load(const std::string& path) {
    auto bytes = util::ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    util::ByteReader reader(*bytes);

    uint64_t magic = 0;
    uint32_t version = 0, family_tag = 0;
    HLSH_RETURN_IF_ERROR(reader.ReadU64(&magic));
    if (magic != kIndexMagic) {
      return util::Status::DataLoss("not a hybridlsh index file");
    }
    HLSH_RETURN_IF_ERROR(reader.ReadU32(&version));
    // v1 files lack only the id_base field (defaulting to 0 below), so
    // they stay loadable.
    if (version != kIndexVersion && version != 1) {
      return util::Status::DataLoss("unsupported index file version");
    }
    HLSH_RETURN_IF_ERROR(reader.ReadU32(&family_tag));
    if (family_tag != Family::kFamilyTag) {
      return util::Status::InvalidArgument(
          "index file was built with a different LSH family");
    }
    auto family = Family::LoadFamily(&reader);
    if (!family.ok()) return family.status();

    uint32_t k = 0, num_tables = 0, hll_precision = 0, id_base = 0;
    HLSH_RETURN_IF_ERROR(reader.ReadU32(&k));
    HLSH_RETURN_IF_ERROR(reader.ReadU32(&num_tables));
    HLSH_RETURN_IF_ERROR(reader.ReadU32(&hll_precision));
    if (version >= 2) {
      HLSH_RETURN_IF_ERROR(reader.ReadU32(&id_base));
    }
    if (hll_precision < hll::HyperLogLog::kMinPrecision ||
        hll_precision > hll::HyperLogLog::kMaxPrecision || num_tables == 0) {
      return util::Status::DataLoss("index header has invalid parameters");
    }

    Options options;
    options.num_tables = static_cast<int>(num_tables);
    options.k = static_cast<int>(k);
    options.hll_precision = static_cast<int>(hll_precision);
    options.id_base = id_base;

    Stats stats;
    HLSH_RETURN_IF_ERROR(reader.ReadU64(&options.small_bucket_threshold));
    HLSH_RETURN_IF_ERROR(reader.ReadU64(&options.seed));
    HLSH_RETURN_IF_ERROR(reader.ReadU64(&stats.num_points));
    HLSH_RETURN_IF_ERROR(reader.ReadF64(&stats.p1_at_radius));
    HLSH_RETURN_IF_ERROR(reader.ReadF64(&stats.recall_lower_bound));
    stats.k = options.k;
    stats.num_tables = options.num_tables;

    uint64_t num_seeds = 0;
    HLSH_RETURN_IF_ERROR(reader.ReadU64(&num_seeds));
    if (num_seeds != num_tables) {
      return util::Status::DataLoss("table seed count mismatches tables");
    }
    std::vector<uint64_t> table_seeds;
    HLSH_RETURN_IF_ERROR(reader.ReadArray<uint64_t>(num_seeds, &table_seeds));

    LshIndex index(FunctionSet<Family>::ForLoad(
        std::move(*family), options.k, std::move(table_seeds)));
    index.options_ = options;
    index.stats_ = stats;

    index.tables_.reserve(num_tables);
    for (uint32_t t = 0; t < num_tables; ++t) {
      HLSH_RETURN_IF_ERROR(index.functions_.LoadAppendFunctions(&reader));
      auto table = LshTable::Deserialize(&reader);
      if (!table.ok()) return table.status();
      index.tables_.push_back(std::move(*table));
    }
    HLSH_RETURN_IF_ERROR(reader.ExpectEnd());

    for (const LshTable& table : index.tables_) {
      if (table.num_points() != index.stats_.num_points) {
        return util::Status::DataLoss("table size mismatches point count");
      }
      index.stats_.total_buckets += table.num_buckets();
      index.stats_.total_sketches += table.num_sketches();
      index.stats_.memory_bytes += table.MemoryBytes();
      index.stats_.sketch_bytes += table.SketchBytes();
    }
    return index;
  }

 private:
  static constexpr uint64_t kIndexMagic = 0x31584449484c5348ULL;  // "HSLHIDX1"
  static constexpr uint32_t kIndexVersion = 2;  // v2: id_base in the header

  explicit LshIndex(FunctionSet<Family> functions)
      : functions_(std::move(functions)) {}

  FunctionSet<Family> functions_;
  Options options_;
  std::vector<LshTable> tables_;
  Stats stats_;
};

}  // namespace lsh
}  // namespace hybridlsh

#endif  // HYBRIDLSH_LSH_INDEX_H_
