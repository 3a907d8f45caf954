// Network-plane scenarios (ISSUE 10): scripted kSlowLink injections exercise
// the per-node bandwidth model, the hardened shuffle-fetch path (a pull
// outlasting its own budget -> recompute fallback), link-driven node-health
// quarantine, and the per-context health record. The acceptance case pins
// the paper-style bound: with one of eight nodes serving its shuffle output
// over a 4x-degraded link, job latency stays within 1.6x fault-free and the
// results match the clean run bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/node_manager.h"
#include "src/engine/partition.h"
#include "src/engine/shuffle_manager.h"
#include "src/engine/typed_rdd.h"
#include "src/engine/typed_rdd_ops.h"
#include "src/inject/fault_injector.h"
#include "src/market/marketplace.h"
#include "tests/test_util.h"

// Sanitizers stretch compute (but not sleeps) unpredictably, which breaks
// wall-clock ratio assertions; keep correctness and counters, drop timing.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FLINT_TIMING_ASSERTS 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FLINT_TIMING_ASSERTS 0
#else
#define FLINT_TIMING_ASSERTS 1
#endif
#else
#define FLINT_TIMING_ASSERTS 1
#endif

namespace flint {
namespace {

using testing::EngineHarness;
using testing::EngineHarnessOptions;

// Installs the injector as the context's probe for the guard's lifetime and
// settles all injected activity before the injector or harness dies (same
// contract as straggler_test.cc).
class ProbeGuard {
 public:
  ProbeGuard(FlintContext* ctx, FaultInjector* injector) : ctx_(ctx), injector_(injector) {
    ctx_->SetProbe(injector_);
  }
  ~ProbeGuard() {
    ctx_->SetProbe(nullptr);
    injector_->Drain();
    ctx_->DrainExecutors();
  }

  ProbeGuard(const ProbeGuard&) = delete;
  ProbeGuard& operator=(const ProbeGuard&) = delete;

 private:
  FlintContext* ctx_;
  FaultInjector* injector_;
};

// Slow-link scenarios double as a lock-order regression net: the fetch path
// adds link-health samples and quarantine marks on top of the
// engine/injector/node-manager locking.
class SlowLinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = SetMutexDebug(true);
    violations_before_ = GetLockOrderViolations().size();
  }
  void TearDown() override {
    const auto violations = GetLockOrderViolations();
    EXPECT_EQ(violations.size(), violations_before_)
        << "lock-order cycle detected: "
        << (violations.empty() ? "" : violations.back().description);
    SetMutexDebug(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
  size_t violations_before_ = 0;
};

SpeculationConfig FastSpec(bool enabled = true) {
  SpeculationConfig spec;
  spec.enabled = enabled;
  spec.quorum = 3;
  spec.spec_multiplier = 3.0;
  spec.min_deadline_seconds = 0.05;
  spec.max_attempts_per_task = 6;
  spec.retry_backoff_seconds = 0.02;
  return spec;
}

double MeasureMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// A wide shuffle whose reduce side must pull a bucket from every map node:
// `pairs` records over `keys` distinct keys, `maps` map and `reduces` reduce
// partitions, sorted so runs compare independent of reduce completion order.
// Timeout-path tests use keys == pairs: map-side combine then cannot shrink
// the buckets, so transfers are big enough to blow a pinned fetch timeout.
std::vector<std::pair<int, int>> WideCounts(FlintContext* ctx, int pairs, int keys, int maps,
                                            int reduces, Status* status_out = nullptr) {
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(pairs));
  for (int i = 0; i < pairs; ++i) {
    data.emplace_back(i % keys, 1);
  }
  auto counts = ReduceByKey(Parallelize(ctx, data, maps), reduces,
                            [](int a, int b) { return a + b; });
  auto out = counts.Collect();
  if (status_out != nullptr) {
    *status_out = out.status();
  }
  std::vector<std::pair<int, int>> got = out.ok() ? *out : std::vector<std::pair<int, int>>{};
  std::sort(got.begin(), got.end());
  return got;
}

// The acceptance scenario: one of eight nodes serves its shuffle output over
// a 4x-degraded link (the node computes fine, its NIC is sick). Transfers
// are modelled against a 1 MiB/s fleet so a healthy pull takes single-digit
// milliseconds. A pull's budget is spec_multiplier (3) x its own transfer
// time at nominal capacity, so every pull from the 4x victim outlasts it:
// the consumer abandons the pull at the budget and the victim's outputs
// recompute on other nodes. The job stays within 1.6x fault-free and
// produces bit-identical results, and each slow pull is an unhealthy
// verdict, so the link-driven samples quarantine the victim within a few
// jobs.
TEST_F(SlowLinkTest, DegradedLinkLatencyBoundedAndQuarantined) {
  constexpr int kPairs = 24000;
  constexpr int kMaps = 8;
  constexpr int kReduces = 8;
  const EngineHarnessOptions base{.num_nodes = 8,
                                  .model_latency = true,
                                  .speculation = FastSpec(true),
                                  .link_bandwidth_bytes_per_s = 1.0 * kMiB};

  // Timing bounds are re-measured up to 3 times: the suite runs under ctest
  // -j alongside CPU-heavy tests, and one contended iteration must not fail
  // the gate. Correctness and counter assertions stay strict every pass.
  double fault_free_ms = 0.0, degraded_ms = 0.0;
  for (int tries = 0; tries < 3; ++tries) {
    std::vector<std::pair<int, int>> reference;
    {
      EngineHarness h{base};
      fault_free_ms =
          MeasureMs([&] { reference = WideCounts(&h.ctx(), kPairs, kPairs, kMaps, kReduces); });
      ASSERT_EQ(reference.size(), static_cast<size_t>(kPairs));
      ASSERT_GT(h.ctx().counters().net_fetches.load(), 0u);
      ASSERT_GT(h.ctx().counters().net_fetch_bytes.load(), 0u);
    }

    EngineHarness h{base};
    Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                       /*on_demand_price=*/1.0, /*seed=*/7);
    NodeManagerConfig nm_cfg;
    nm_cfg.health.ewma_alpha = 0.5;
    nm_cfg.health.min_samples = 2;
    nm_cfg.health.quarantine_threshold = 0.5;
    // A tiny rate keeps a quarantine standing for dozens of folded samples,
    // longer than one job, so the assertions below see it.
    nm_cfg.health.decay_rate = 0.01;
    NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);
    const NodeId victim = h.node_ids().front();

    FaultPlan plan;
    plan.events.push_back(SlowLinkAt(EnginePoint::kSchedulerRound, /*after_hits=*/0,
                                     /*node_ordinal=*/0, /*slow_factor=*/4.0,
                                     /*duration_seconds=*/30.0));
    FaultInjector injector(&h.cluster(), plan);
    ProbeGuard guard(&h.ctx(), &injector);

    std::vector<std::pair<int, int>> degraded;
    degraded_ms =
        MeasureMs([&] { degraded = WideCounts(&h.ctx(), kPairs, kPairs, kMaps, kReduces); });
    EXPECT_EQ(degraded, reference);
    EXPECT_TRUE(injector.AllEventsFired());
    EXPECT_GT(injector.GetStats().fetches_slowed, 0u);

    // Link samples alone must sink the victim's health: loop a few more jobs
    // if the first one's samples were not enough.
    for (int job = 0; job < 5 && !nm.Quarantined(victim); ++job) {
      WideCounts(&h.ctx(), kPairs / 4, kPairs / 4, kMaps, kReduces);
    }
    EXPECT_TRUE(nm.Quarantined(victim))
        << "link-driven health samples never quarantined the victim, score "
        << nm.HealthScore(victim);
    EXPECT_LT(nm.HealthScore(victim), 1.0);

    if (degraded_ms <= 1.6 * fault_free_ms) {
      break;  // bound met; no need to burn another iteration
    }
  }

#if FLINT_TIMING_ASSERTS
  EXPECT_LE(degraded_ms, 1.6 * fault_free_ms)
      << "fault-free " << fault_free_ms << " ms, degraded link " << degraded_ms << " ms";
#else
  (void)fault_free_ms;
  (void)degraded_ms;
#endif
}

// The recompute fallback: the slow-link window never lapses, a pull from
// the victim outlasts its budget, and the consumer drops the victim's
// outputs to force the scheduler's kDataLoss recompute fallback. Timed-out
// pulls classify the producer link-slow (unhealthy verdicts), the node
// manager quarantines it, and the recomputed map outputs land on healthy
// nodes so the job completes with clean-run results.
TEST_F(SlowLinkTest, PersistentSlowLinkFallsBackToRecompute) {
  constexpr int kPairs = 12000;
  constexpr int kMaps = 4;
  constexpr int kReduces = 4;
  SpeculationConfig spec = FastSpec(true);
  // Each pull's budget is 3x its own transfer time at nominal capacity: a
  // healthy ~3 KB pull at 1 MiB/s takes ~3 ms of a ~9 ms budget (never
  // trips); the 64x-degraded one would take ~190 ms (always trips at ~9 ms).
  // The 30 ms floor pins the task deadline T above the map stage's 3 x P50
  // of a few milliseconds, so reduce tasks stuck behind a timed-out pull may
  // be speculated; results must stay bit-identical.
  spec.min_deadline_seconds = 0.03;
  const EngineHarnessOptions opts{.num_nodes = 4,
                                  .model_latency = true,
                                  .speculation = spec,
                                  .link_bandwidth_bytes_per_s = 1.0 * kMiB};

  std::vector<std::pair<int, int>> reference;
  {
    EngineHarness clean{opts};
    reference = WideCounts(&clean.ctx(), kPairs, kPairs, kMaps, kReduces);
    ASSERT_EQ(reference.size(), static_cast<size_t>(kPairs));
  }

  EngineHarness h{opts};
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManagerConfig nm_cfg;
  nm_cfg.health.ewma_alpha = 0.5;
  nm_cfg.health.min_samples = 2;
  nm_cfg.health.quarantine_threshold = 0.5;
  nm_cfg.health.decay_rate = 0.01;  // see the acceptance test
  NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);
  const NodeId victim = h.node_ids().front();

  FaultPlan plan;
  plan.events.push_back(SlowLinkAt(EnginePoint::kSchedulerRound, /*after_hits=*/0,
                                   /*node_ordinal=*/0, /*slow_factor=*/64.0,
                                   /*duration_seconds=*/30.0));
  FaultInjector injector(&h.cluster(), plan);
  Status status;
  std::vector<std::pair<int, int>> got;
  {
    ProbeGuard guard(&h.ctx(), &injector);
    got = WideCounts(&h.ctx(), kPairs, kPairs, kMaps, kReduces, &status);
  }
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, reference);
  EXPECT_GE(h.ctx().counters().net_fetches_slow.load(), 2u);
  EXPECT_GE(h.ctx().counters().net_fetch_recomputes.load(), 1u);
  EXPECT_GE(injector.GetStats().fetches_slowed, 2u);
  EXPECT_TRUE(nm.Quarantined(victim))
      << "timed-out pulls never quarantined the slow producer, score "
      << nm.HealthScore(victim);
}

// A healthy pull is judged against its own transfer time, not the task
// deadline. The map stage's tasks take about a millisecond, so with a 10 ms
// deadline floor the stage's T is 10 ms, while every healthy pull at the
// 64 KiB/s fleet bandwidth takes at least 3x that. No pull is slow, nothing
// recomputes, and the result matches a clean run bit for bit.
TEST_F(SlowLinkTest, HealthyPullNeverTimesOut) {
  constexpr int kPairs = 12000;
  constexpr int kMaps = 4;
  constexpr int kReduces = 4;
  SpeculationConfig spec = FastSpec(true);
  spec.min_deadline_seconds = 0.01;
  // Bounds a run that keeps recomputing; a healthy run takes well under a
  // second.
  spec.stage_watchdog_seconds = 30.0;
  const EngineHarnessOptions opts{.num_nodes = 4,
                                  .model_latency = true,
                                  .speculation = spec,
                                  .link_bandwidth_bytes_per_s = 64.0 * 1024.0};

  std::vector<std::pair<int, int>> reference;
  {
    EngineHarness clean;
    reference = WideCounts(&clean.ctx(), kPairs, kPairs, kMaps, kReduces);
    ASSERT_EQ(reference.size(), static_cast<size_t>(kPairs));
  }

  EngineHarness h{opts};
  Status status;
  std::vector<std::pair<int, int>> got =
      WideCounts(&h.ctx(), kPairs, kPairs, kMaps, kReduces, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, reference);
  const EngineCounters& counters = h.ctx().counters();
  ASSERT_GT(counters.net_fetches.load(), 0u);
  // Buckets hash evenly, so a mean pull of at least 60 ms keeps every pull
  // above the 30 ms mark (3x the 10 ms T).
  ASSERT_GE(static_cast<double>(counters.net_fetch_bytes.load()) /
                static_cast<double>(counters.net_fetches.load()),
            0.06 * opts.link_bandwidth_bytes_per_s);
  EXPECT_EQ(counters.net_fetches_slow.load(), 0u);
  EXPECT_EQ(counters.net_fetch_recomputes.load(), 0u);
}

// Composition: the slow link stays correct when a whole-cluster revocation
// storm lands mid shuffle-map stage on top of it. The stage re-dispatches
// onto replacements (whose links are healthy — the window pins the original
// victim) and the result matches a clean cluster's bit for bit.
TEST_F(SlowLinkTest, SlowLinkComposesWithRevocationStorm) {
  auto workload = [](FlintContext* ctx, Status* status_out = nullptr) {
    return WideCounts(ctx, 400, /*keys=*/64, /*maps=*/8, /*reduces=*/4, status_out);
  };

  std::vector<std::pair<int, int>> reference;
  {
    EngineHarness clean;
    reference = workload(&clean.ctx());
    ASSERT_EQ(reference.size(), 64u);
  }

  EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
  FaultPlan plan;
  plan.events.push_back(SlowLinkAt(EnginePoint::kSchedulerRound, /*after_hits=*/0,
                                   /*node_ordinal=*/0, /*slow_factor=*/4.0,
                                   /*duration_seconds=*/30.0));
  plan.events.push_back(RevokeAllAt(EnginePoint::kShuffleMapTaskRun, /*after_hits=*/2,
                                    /*with_warning=*/false, /*replacements=*/4,
                                    /*delay_seconds=*/0.05));
  FaultInjector injector(&h.cluster(), plan);
  ProbeGuard guard(&h.ctx(), &injector);

  Status status;
  std::vector<std::pair<int, int>> got = workload(&h.ctx(), &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, reference);
  EXPECT_TRUE(injector.AllEventsFired());
}

// Replayability across both map-side shapes: the same plan + seed must make
// identical injection decisions and produce identical output on two runs of
// each cell — a fused map side (the Map streams into the bucket sinks) and a
// .Cache()d one (a fusion barrier, so the map side materializes and then
// buckets) — and both cells must agree on the (sorted) result. Injector
// stats are compared field by field EXCEPT points_observed: the
// kSchedulerRound probe fires once per scheduler retry round, and the number
// of rounds a stage needs is timing-dependent even when every injection
// decision is identical.
TEST_F(SlowLinkTest, SeedDeterminismAcrossFusionGrid) {
  constexpr int kPairs = 2000;
  constexpr int kMaps = 8;
  constexpr int kReduces = 4;

  auto run_cell = [&](bool cache_map_side, FaultInjector::Stats* stats_out) {
    EngineHarness h;
    FaultPlan plan;  // seed = 42 (FaultPlan default)
    plan.events.push_back(SlowLinkAt(EnginePoint::kSchedulerRound, /*after_hits=*/0,
                                     /*node_ordinal=*/0, /*slow_factor=*/4.0,
                                     /*duration_seconds=*/30.0));
    FaultInjector injector(&h.cluster(), plan);
    std::vector<std::pair<int, int>> data;
    data.reserve(kPairs);
    for (int i = 0; i < kPairs; ++i) {
      data.emplace_back(i % 64, 1);
    }
    auto map_side = Parallelize(&h.ctx(), data, kMaps).Map([](const std::pair<int, int>& kv) {
      return std::make_pair(kv.first, kv.second * 2);
    });
    if (cache_map_side) {
      map_side.Cache();
    }
    Status status;
    std::vector<std::pair<int, int>> got;
    {
      ProbeGuard guard(&h.ctx(), &injector);
      auto out = ReduceByKey(map_side, kReduces, [](int a, int b) { return a + b; }).Collect();
      status = out.status();
      if (out.ok()) {
        got = std::move(*out);
      }
    }
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (cache_map_side) {
      EXPECT_EQ(h.ctx().counters().shuffle_fused_bucket_chains.load(), 0u);
      EXPECT_GT(h.ctx().counters().shuffle_rows_bucketed_unfused.load(), 0u);
    } else {
      EXPECT_GT(h.ctx().counters().shuffle_fused_bucket_chains.load(), 0u);
    }
    if (stats_out != nullptr) {
      *stats_out = injector.GetStats();
    }
    std::sort(got.begin(), got.end());
    return got;
  };

  std::vector<std::pair<int, int>> grid_reference;
  for (bool cache_map_side : {false, true}) {
    FaultInjector::Stats a{}, b{};
    std::vector<std::pair<int, int>> first = run_cell(cache_map_side, &a);
    std::vector<std::pair<int, int>> second = run_cell(cache_map_side, &b);
    EXPECT_EQ(first, second) << "cache_map_side=" << cache_map_side;
    EXPECT_EQ(a.events_fired, b.events_fired);
    EXPECT_EQ(a.nodes_revoked, b.nodes_revoked);
    EXPECT_EQ(a.replacements_scheduled, b.replacements_scheduled);
    EXPECT_EQ(a.writes_failed_injected, b.writes_failed_injected);
    EXPECT_EQ(a.reads_failed_injected, b.reads_failed_injected);
    EXPECT_EQ(a.objects_corrupted, b.objects_corrupted);
    EXPECT_EQ(a.ops_slowed, b.ops_slowed);
    EXPECT_EQ(a.tasks_slowed, b.tasks_slowed);
    EXPECT_EQ(a.tasks_hung_injected, b.tasks_hung_injected);
    EXPECT_EQ(a.tasks_failed_injected, b.tasks_failed_injected);
    EXPECT_EQ(a.fetches_slowed, b.fetches_slowed) << "cache_map_side=" << cache_map_side;
    EXPECT_GT(a.fetches_slowed, 0u) << "cache_map_side=" << cache_map_side;
    if (grid_reference.empty()) {
      grid_reference = first;
    } else {
      EXPECT_EQ(first, grid_reference) << "cache_map_side=" << cache_map_side;
    }
  }
  ASSERT_EQ(grid_reference.size(), 64u);
}

// A node's health record outlives any one NodeManager: a node quarantined
// for flaking stays suspect after it is revoked and its manager torn down,
// because the context keeps the revoked node's NodeState, frozen at
// revocation, and a rebuilt manager reads health from there.
TEST_F(SlowLinkTest, QuarantinePersistsAcrossNodeManagerRebuilds) {
  EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManagerConfig nm_cfg;
  nm_cfg.health.min_samples = 3;
  nm_cfg.health.decay_rate = 0.0;  // decay is not under test; keep the mark until the revoke
  const NodeId victim = h.node_ids().front();

  {
    NodeManager nm_a(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);
    FaultPlan plan;
    plan.events.push_back(FlakyNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                      /*node_ordinal=*/0, /*probability=*/1.0,
                                      /*duration_seconds=*/0.25));
    FaultInjector injector(&h.cluster(), plan);
    {
      ProbeGuard guard(&h.ctx(), &injector);
      std::vector<int> data(16);
      std::iota(data.begin(), data.end(), 0);
      auto out = Parallelize(&h.ctx(), data, 16)
                     .Map([](const int& x) {
                       std::this_thread::sleep_for(std::chrono::milliseconds(5));
                       return x + 1;
                     })
                     .Collect();
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_GT(injector.GetStats().tasks_failed_injected, 0u);
    }
    ASSERT_TRUE(nm_a.Quarantined(victim)) << "score " << nm_a.HealthScore(victim);

    // Revocation retires (not erases) the victim's NodeState and freezes
    // its health record: decay skips it and teardown keeps the mark.
    h.cluster().Revoke({victim}, /*with_warning=*/false);
    h.cluster().DrainEvents();
    const std::shared_ptr<NodeState> retired = h.ctx().GetNodeState(victim);
    ASSERT_NE(retired, nullptr);
    EXPECT_TRUE(retired->revoked.load());
    EXPECT_TRUE(retired->quarantined.load());
    EXPECT_LT(retired->health_score.load(), nm_cfg.health.quarantine_threshold);
  }  // nm_a destroyed; only the retired NodeState remembers the victim now

  // A rebuilt manager reads the retired record: the node is still
  // quarantined, still suspect.
  NodeManager nm_b(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);
  EXPECT_TRUE(nm_b.Quarantined(victim));
  EXPECT_LT(nm_b.HealthScore(victim), nm_cfg.health.quarantine_threshold);
}

// Health is per context: node ids restart at 0 in every harness, and a
// quarantine in one must not leak into another's node with the same id.
TEST_F(SlowLinkTest, HealthDoesNotLeakAcrossContexts) {
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManagerConfig nm_cfg;
  nm_cfg.health.min_samples = 3;
  nm_cfg.health.decay_rate = 0.5;
  EngineHarness h_a;
  NodeManager nm_a(&h_a.ctx(), &market, /*ft=*/nullptr, nm_cfg);
  const NodeId victim = h_a.node_ids().front();
  for (int i = 0; i < 8 && !nm_a.Quarantined(victim); ++i) {
    nm_a.OnTaskHealthSample(victim, /*healthy=*/false, /*stage_p50_seconds=*/0.0);
  }
  ASSERT_TRUE(nm_a.Quarantined(victim)) << "score " << nm_a.HealthScore(victim);

  EngineHarness h_b;
  ASSERT_EQ(h_b.node_ids().front(), victim);
  NodeManager nm_b(&h_b.ctx(), &market, /*ft=*/nullptr, nm_cfg);
  EXPECT_EQ(nm_b.HealthScore(victim), 1.0);
  EXPECT_FALSE(nm_b.Quarantined(victim));
}

// Concurrency hammer over the shuffle map-output tracker: registrations,
// detailed fetches, node revocations, and targeted output drops race while
// readers poll the aggregate views. Every kDataLoss the fetchers observe
// must be accounted in FetchWaits() — no lost increments, no phantom waits.
// (Runs under TSan via the sanitizer test filter.)
TEST(ShuffleConcTest, ConcurrentFetchDropRevokeAccounting) {
  constexpr int kShuffle = 1;
  constexpr int kNumMaps = 8;
  constexpr int kNumReduces = 4;
  constexpr int kRounds = 200;

  ShuffleManager sm;
  sm.RegisterShuffle(kShuffle, kNumMaps, kNumReduces);
  auto make_buckets = [] {
    std::vector<PartitionPtr> buckets;
    for (int r = 0; r < kNumReduces; ++r) {
      buckets.push_back(MakePartition(std::vector<int>{r, r + 1, r + 2}));
    }
    return buckets;
  };
  auto register_all = [&] {
    for (int m = 0; m < kNumMaps; ++m) {
      sm.RegisterMapOutput(kShuffle, m, /*node=*/m % 4, make_buckets());
    }
  };
  register_all();

  std::atomic<uint64_t> data_losses{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Fetchers: alternate plain and detailed fetches over valid reduce
  // indices, tallying every kDataLoss (each one bumped fetch_waits_).
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const int reduce = (t + i) % kNumReduces;
        if ((i & 1) == 0) {
          auto r = sm.Fetch(kShuffle, reduce);
          if (!r.ok() && r.status().code() == StatusCode::kDataLoss) {
            data_losses.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          auto r = sm.FetchDetailed(kShuffle, reduce);
          if (!r.ok() && r.status().code() == StatusCode::kDataLoss) {
            data_losses.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // Chaos: revoke / drop a node's outputs, then re-register everything so
  // fetchers keep seeing both complete and torn states.
  threads.emplace_back([&] {
    for (int i = 0; i < kRounds / 4; ++i) {
      if ((i & 1) == 0) {
        sm.OnNodeRevoked(/*node=*/i % 4);
      } else {
        sm.DropNodeOutputs(kShuffle, /*node=*/i % 4);
      }
      register_all();
    }
  });
  // Readers: aggregate views must never crash or deadlock mid-race.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)sm.MissingMaps(kShuffle);
      (void)sm.IsComplete(kShuffle);
      (void)sm.TotalBytes();
      (void)sm.RecentShuffleBytes(2);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  for (size_t t = 0; t + 1 < threads.size(); ++t) {
    threads[t].join();
  }
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(sm.FetchWaits(), data_losses.load());
  // Settle to a complete state and prove the tracker recovered.
  register_all();
  EXPECT_TRUE(sm.IsComplete(kShuffle));
  EXPECT_TRUE(sm.MissingMaps(kShuffle).empty());
  auto final_fetch = sm.FetchDetailed(kShuffle, 0);
  ASSERT_TRUE(final_fetch.ok());
  EXPECT_EQ(final_fetch->size(), static_cast<size_t>(kNumMaps));
}

// The market-selection fold: observed link throughput reported through
// RecordObservedThroughput penalizes a market's expected unit cost, flipping
// a near-tie, and the EWMA recovers as healthy samples arrive.
TEST(SelectorLinkTest, ObservedThroughputPenalizesMarket) {
  std::vector<MarketDesc> markets;
  markets.push_back(testing::MakeSpikyMarket("a", 1.0, 0.10, 0.10, 24 * 40, 0, 0));
  markets.push_back(testing::MakeSpikyMarket("b", 1.0, 0.11, 0.11, 24 * 40, 0, 0));
  Marketplace mp(std::move(markets), /*on_demand_price=*/1.0, /*seed=*/1);
  ServerSelector selector(&mp, SelectionConfig{});
  JobProfile job;
  job.delta_hours = Minutes(1);
  job.rd_hours = Minutes(2);

  auto cost_of = [&](MarketId id) {
    auto evs = selector.EvaluateMarkets(Hours(24.0 * 7), job);
    for (const auto& ev : evs) {
      if (ev.id == id) {
        return ev.expected_unit_cost;
      }
    }
    ADD_FAILURE() << "market " << id << " missing from evaluation";
    return 0.0;
  };

  // Pristine: the marginally cheaper market wins.
  EXPECT_LT(cost_of(0), cost_of(1));
  EXPECT_DOUBLE_EQ(selector.ObservedThroughput(0), 1.0);

  // Market 0's nodes serve shuffle pulls at a quarter speed: its effective
  // cost must now exceed market 1's.
  for (int i = 0; i < 8; ++i) {
    selector.RecordObservedThroughput(0, 0.25);
  }
  EXPECT_LT(selector.ObservedThroughput(0), 0.35);
  EXPECT_GT(cost_of(0), cost_of(1));

  // Healthy samples fold the EWMA back toward 1.0 and the order recovers.
  for (int i = 0; i < 32; ++i) {
    selector.RecordObservedThroughput(0, 1.0);
  }
  EXPECT_GT(selector.ObservedThroughput(0), 0.95);
  EXPECT_LT(cost_of(0), cost_of(1));
}

}  // namespace
}  // namespace flint
