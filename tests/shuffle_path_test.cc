// Wide-stage hot-path tests: the fused map-side bucketing must be a pure
// performance change, and the merge-based reduce must compute exactly what
// the operators promise. Covers:
//   - FlatHashMap unit behaviour (growth, collision storms, insertion-order
//     iteration, Reserve contract);
//   - fused vs unfused bucketing bit-identity for ReduceByKey / GroupByKey /
//     Join, including a non-commutative string combine. The unfused
//     reference caches the map side, which is a fusion barrier;
//   - the merge-based reduce against an independent std::map oracle;
//   - determinism across num_reduce choices;
//   - fused bucket chains recomputing bit-identically through a whole-cluster
//     revocation storm.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/engine/typed_rdd_ops.h"
#include "src/inject/fault_injector.h"
#include "tests/test_util.h"

namespace flint {
namespace {

using testing::CachedIf;
using testing::EngineHarness;

// --- FlatHashMap units ---

struct IdentityHash {
  size_t operator()(int k) const { return static_cast<size_t>(k); }
};

// Worst case for open addressing: every key lands in the same slot, so the
// probe chain is the whole table.
struct ConstantHash {
  size_t operator()(int) const { return 7; }
};

TEST(FlatHashTest, InsertsFindsAndGrows) {
  FlatHashMap<int, int, IdentityHash> m;
  EXPECT_TRUE(m.empty());
  for (int i = 0; i < 1000; ++i) {
    auto [slot, inserted] = m.FindOrEmplace(i, i * 2);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*slot, i * 2);
  }
  EXPECT_EQ(m.size(), 1000u);
  EXPECT_GE(m.capacity(), 1024u);  // grew past the minimum table
  for (int i = 0; i < 1000; ++i) {
    const int* v = m.Find(i);
    ASSERT_NE(v, nullptr) << "key " << i;
    EXPECT_EQ(*v, i * 2);
  }
  EXPECT_EQ(m.Find(1000), nullptr);
  EXPECT_EQ(m.Find(-1), nullptr);
}

TEST(FlatHashTest, CollisionStormProbesLinearly) {
  FlatHashMap<int, int, ConstantHash> m;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(m.FindOrEmplace(i, i).second);
  }
  // Second pass hits every existing key through the full probe chain and
  // updates in place.
  for (int i = 0; i < 200; ++i) {
    auto [slot, inserted] = m.FindOrEmplace(i, -1);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*slot, i);
    *slot += 1000;
  }
  EXPECT_EQ(m.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    const int* v = m.Find(i);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i + 1000);
  }
  EXPECT_EQ(m.Find(777), nullptr);  // absent key terminates the probe
}

TEST(FlatHashTest, IterationFollowsInsertionOrder) {
  FlatHashMap<int, int, IdentityHash> m;
  // Insertion order deliberately differs from both key order and hash order.
  const std::vector<int> keys = {42, 7, 1000, 3, 99, 0, 512};
  for (size_t i = 0; i < keys.size(); ++i) {
    m[keys[i]] = static_cast<int>(i);
  }
  ASSERT_EQ(m.entries().size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(m.entries()[i].first, keys[i]);
    EXPECT_EQ(m.entries()[i].second, static_cast<int>(i));
  }
  std::vector<std::pair<int, int>> taken = m.TakeEntries();
  ASSERT_EQ(taken.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(taken[i].first, keys[i]);
  }
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(42), nullptr);
}

TEST(FlatHashTest, ReservePreventsRehash) {
  FlatHashMap<int, int, IdentityHash> m;
  m.Reserve(1000);
  const size_t cap = m.capacity();
  for (int i = 0; i < 1000; ++i) {
    m.FindOrEmplace(i, i);
  }
  EXPECT_EQ(m.capacity(), cap) << "Reserve(1000) must cover 1000 inserts";
}

TEST(FlatHashTest, BracketDefaultInsertsAndAppends) {
  FlatHashMap<int, std::vector<int>, IdentityHash> m;
  m[5].push_back(1);
  m[5].push_back(2);
  m[9].push_back(3);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.Find(5), (std::vector<int>{1, 2}));
  EXPECT_EQ(*m.Find(9), (std::vector<int>{3}));
}

// --- fused vs unfused bit-identity, merge reduce vs std::map oracle ---
//
// Each workload takes `cache_map_side`: caching the RDD feeding the shuffle
// is a fusion barrier, so the cached run buckets through the
// materialize-then-bucket fallback. That is the unfused reference.

// Skewed keyed data: key frequencies differ and values depend on position,
// so any reordering anywhere in the shuffle shows up in the output.
std::vector<std::pair<int, int>> SkewedPairs(int rows, int keys) {
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    data.emplace_back((i * i + i / 3) % keys, i);
  }
  return data;
}

// Asserts which map-side path a finished run took.
void ExpectFusedMapSide(FlintContext& ctx) {
  EXPECT_GT(ctx.counters().shuffle_fused_bucket_chains.load(), 0u);
  EXPECT_GT(ctx.counters().shuffle_rows_bucketed_fused.load(), 0u);
  EXPECT_EQ(ctx.counters().shuffle_rows_bucketed_unfused.load(), 0u);
}

void ExpectUnfusedMapSide(FlintContext& ctx) {
  EXPECT_EQ(ctx.counters().shuffle_fused_bucket_chains.load(), 0u);
  EXPECT_GT(ctx.counters().shuffle_rows_bucketed_unfused.load(), 0u);
}

// The per-row transforms and combines, shared by the pipelines and the
// oracles so both see the same input rows.
std::pair<int, int> OddDouble(const std::pair<int, int>& kv) {
  return {kv.first, kv.second * 2 + 1};
}
std::pair<int, std::string> Decimal(const std::pair<int, int>& kv) {
  return {kv.first, std::to_string(kv.second)};
}
std::pair<int, int> XorFive(const std::pair<int, int>& kv) { return {kv.first, kv.second ^ 5}; }
std::pair<int, int> Shift(const std::pair<int, int>& kv) {
  return {kv.first, kv.second + 100000};
}
std::pair<int, int> Negate(const std::pair<int, int>& kv) { return {kv.first, -kv.second}; }
// Associative and visibly non-commutative: any change in fold order shows.
std::string Concat(const std::string& a, const std::string& b) { return a + "," + b; }

template <typename In, typename F>
auto Transformed(const std::vector<In>& rows, F fn) {
  std::vector<std::decay_t<std::invoke_result_t<F, const In&>>> out;
  out.reserve(rows.size());
  for (const In& r : rows) {
    out.push_back(fn(r));
  }
  return out;
}

// --- the std::map oracle ---
//
// Independent of every engine data structure: an ordered map folds values
// in input order and emits rows sorted by key. For Join, each key's rows
// are ordered by right-side row, then by left-side row.

template <typename K, typename V, typename F>
std::vector<std::pair<K, V>> OracleReduceByKey(const std::vector<std::pair<K, V>>& rows,
                                               F combine) {
  std::map<K, V> acc;
  for (const auto& [k, v] : rows) {
    auto [it, inserted] = acc.emplace(k, v);
    if (!inserted) {
      it->second = combine(it->second, v);
    }
  }
  return {acc.begin(), acc.end()};
}

template <typename K, typename V>
std::vector<std::pair<K, std::vector<V>>> OracleGroupByKey(
    const std::vector<std::pair<K, V>>& rows) {
  std::map<K, std::vector<V>> acc;
  for (const auto& [k, v] : rows) {
    acc[k].push_back(v);
  }
  return {acc.begin(), acc.end()};
}

template <typename K, typename V, typename W>
std::vector<std::pair<K, std::pair<V, W>>> OracleJoin(const std::vector<std::pair<K, V>>& left,
                                                      const std::vector<std::pair<K, W>>& right) {
  std::map<K, std::vector<V>> lefts;
  for (const auto& [k, v] : left) {
    lefts[k].push_back(v);
  }
  std::map<K, std::vector<W>> rights;
  for (const auto& [k, w] : right) {
    rights[k].push_back(w);
  }
  std::vector<std::pair<K, std::pair<V, W>>> out;
  for (const auto& [k, ws] : rights) {
    auto it = lefts.find(k);
    if (it == lefts.end()) {
      continue;
    }
    for (const W& w : ws) {
      for (const V& v : it->second) {
        out.emplace_back(k, std::make_pair(v, w));
      }
    }
  }
  return out;
}

// Collect concatenates reduce partitions, each key-sorted; a stable sort by
// key lines the result up with the oracle without touching per-key order.
template <typename Row>
std::vector<Row> SortedByKey(std::vector<Row> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.first < b.first; });
  return rows;
}

// Each workload returns the raw Collect — partitions concatenated in order,
// so the fused-vs-unfused comparison is full bit-identity, not just set
// equality.

std::vector<std::pair<int, int>> RunReduceByKey(FlintContext* ctx, int num_reduce,
                                                bool cache_map_side = false) {
  // The Map between the source and the shuffle is the narrow chain the fused
  // path elides; the combine is order-sensitive mixing, so any change in
  // fold order breaks equality.
  auto mapped = CachedIf(Parallelize(ctx, SkewedPairs(6000, 37), 5).Map(OddDouble),
                         cache_map_side);
  auto out = ReduceByKey(mapped, num_reduce,
                         [](int a, int b) { return a * 31 + b; })
                 .Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, int>>{};
}

std::vector<std::pair<int, std::string>> RunStringConcat(FlintContext* ctx,
                                                         bool cache_map_side = false,
                                                         int num_reduce = 3) {
  // String concatenation: associative, visibly non-commutative. The fold
  // order (map partition, row index) must survive fusion and the merge.
  auto mapped =
      CachedIf(Parallelize(ctx, SkewedPairs(2000, 23), 4).Map(Decimal), cache_map_side);
  auto out = ReduceByKey(mapped, num_reduce, Concat).Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, std::string>>{};
}

std::vector<std::pair<int, std::vector<int>>> RunGroupByKey(FlintContext* ctx,
                                                            bool cache_map_side = false) {
  auto mapped =
      CachedIf(Parallelize(ctx, SkewedPairs(4000, 29), 6).Map(XorFive), cache_map_side);
  auto out = GroupByKey(mapped, 4).Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, std::vector<int>>>{};
}

std::vector<std::pair<int, std::pair<int, int>>> RunJoin(FlintContext* ctx,
                                                         bool cache_map_side = false) {
  // Duplicate keys on both sides so the per-key cross product's row order is
  // exercised, with narrow Maps above both shuffles.
  auto left = CachedIf(Parallelize(ctx, SkewedPairs(1500, 19), 4).Map(Shift), cache_map_side);
  auto right =
      CachedIf(Parallelize(ctx, SkewedPairs(900, 19), 3).Map(Negate), cache_map_side);
  auto out = Join(left, right, 3).Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, std::pair<int, int>>>{};
}

TEST(ShufflePathTest, ReduceByKeyFusedMatchesUnfused) {
  std::vector<std::pair<int, int>> fused, unfused;
  {
    EngineHarness h;
    fused = RunReduceByKey(&h.ctx(), 4);
    ExpectFusedMapSide(h.ctx());
    EXPECT_GT(h.ctx().counters().shuffle_combine_hits.load(), 0u);
  }
  {
    EngineHarness h;
    unfused = RunReduceByKey(&h.ctx(), 4, /*cache_map_side=*/true);
    ExpectUnfusedMapSide(h.ctx());
  }
  ASSERT_FALSE(fused.empty());
  EXPECT_EQ(fused, unfused);
}

TEST(ShufflePathTest, ReduceByKeyMatchesOrderedMapOracle) {
  const auto oracle = OracleReduceByKey(Transformed(SkewedPairs(2000, 23), Decimal), Concat);
  for (int num_reduce : {1, 2, 5, 8}) {
    EngineHarness h;
    EXPECT_EQ(SortedByKey(RunStringConcat(&h.ctx(), /*cache_map_side=*/false, num_reduce)),
              oracle)
        << "num_reduce=" << num_reduce;
  }
}

TEST(ShufflePathTest, NonCommutativeCombineIdenticalOnAllPaths) {
  std::vector<std::pair<int, std::string>> reference;
  {
    EngineHarness h;
    reference = RunStringConcat(&h.ctx());
    ASSERT_FALSE(reference.empty());
    ExpectFusedMapSide(h.ctx());
  }
  {
    EngineHarness h;
    EXPECT_EQ(RunStringConcat(&h.ctx(), /*cache_map_side=*/true), reference);
    ExpectUnfusedMapSide(h.ctx());
  }
  EXPECT_EQ(SortedByKey(reference),
            OracleReduceByKey(Transformed(SkewedPairs(2000, 23), Decimal), Concat));
}

TEST(ShufflePathTest, GroupByKeyIdenticalOnAllPaths) {
  std::vector<std::pair<int, std::vector<int>>> reference;
  {
    EngineHarness h;
    reference = RunGroupByKey(&h.ctx());
    ASSERT_FALSE(reference.empty());
    ExpectFusedMapSide(h.ctx());
  }
  {
    EngineHarness h;
    EXPECT_EQ(RunGroupByKey(&h.ctx(), /*cache_map_side=*/true), reference);
    ExpectUnfusedMapSide(h.ctx());
  }
  EXPECT_EQ(SortedByKey(reference), OracleGroupByKey(Transformed(SkewedPairs(4000, 29), XorFive)));
}

TEST(ShufflePathTest, JoinIdenticalOnAllPaths) {
  std::vector<std::pair<int, std::pair<int, int>>> reference;
  {
    EngineHarness h;
    reference = RunJoin(&h.ctx());
    ASSERT_FALSE(reference.empty());
    ExpectFusedMapSide(h.ctx());
  }
  {
    EngineHarness h;
    EXPECT_EQ(RunJoin(&h.ctx(), /*cache_map_side=*/true), reference);
    ExpectUnfusedMapSide(h.ctx());
  }
  EXPECT_EQ(SortedByKey(reference),
            OracleJoin(Transformed(SkewedPairs(1500, 19), Shift),
                       Transformed(SkewedPairs(900, 19), Negate)));
}

// The reduce output read key-sorted must not depend on how many reduce
// partitions the shuffle used (the per-key fold order is partition-count
// invariant: map-side row order, then bucket-index order).
TEST(ShufflePathTest, ReduceByKeyDeterministicAcrossNumReduce) {
  auto sorted = [](std::vector<std::pair<int, int>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  std::vector<std::pair<int, int>> reference;
  {
    EngineHarness h;
    reference = sorted(RunReduceByKey(&h.ctx(), 1));
    ASSERT_FALSE(reference.empty());
  }
  for (int num_reduce : {2, 3, 7}) {
    EngineHarness h;
    EXPECT_EQ(sorted(RunReduceByKey(&h.ctx(), num_reduce)), reference)
        << "num_reduce=" << num_reduce;
  }
}

// A whole-cluster hard revocation mid-stage forces the fused bucket chains
// to recompute from source on replacement nodes; the result must match an
// untouched cluster's byte for byte.
TEST(ShufflePathTest, FusedBucketChainSurvivesRevokeAllStorm) {
  std::vector<std::pair<int, std::string>> reference;
  {
    EngineHarness clean;
    reference = RunStringConcat(&clean.ctx());
    ASSERT_FALSE(reference.empty());
    ASSERT_GT(clean.ctx().counters().shuffle_fused_bucket_chains.load(), 0u);
  }

  EngineHarness h;
  FaultPlan plan;
  plan.events.push_back(RevokeAllAt(EnginePoint::kShuffleMapTaskRun, /*after_hits=*/0,
                                    /*with_warning=*/false, /*replacements=*/4,
                                    /*delay_seconds=*/0.05));
  FaultInjector injector(&h.cluster(), plan);
  h.ctx().SetProbe(&injector);
  auto out = RunStringConcat(&h.ctx());
  h.ctx().SetProbe(nullptr);
  injector.Drain();
  h.ctx().DrainExecutors();

  EXPECT_EQ(out, reference);
  EXPECT_TRUE(injector.AllEventsFired());
  EXPECT_GT(h.ctx().counters().shuffle_fused_bucket_chains.load(), 0u);
}

}  // namespace
}  // namespace flint
