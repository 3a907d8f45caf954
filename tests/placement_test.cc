// Health-informed placement + execution-start deadlines (ISSUE 8
// satellites): PickNode weights its smooth weighted round-robin by the EWMA
// health score pushed from the NodeManager, so a degraded-but-unbenched node
// draws proportionally less work; and attempt deadlines/service times run
// from the executor's own execution-start stamp, so queue wait on a busy
// node neither inflates the stage P50 nor counts against deadlines or health.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "src/engine/context.h"
#include "src/engine/dag_scheduler.h"
#include "src/engine/typed_rdd.h"
#include "src/engine/typed_rdd_ops.h"
#include "tests/test_util.h"

// Sanitizers stretch compute unpredictably; keep structural assertions, drop
// wall-clock ratio assertions (same policy as straggler_test.cc).
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

// --- SwrrPick unit behaviour ---

TEST(SwrrPickTest, EqualWeightsDegenerateToRoundRobin) {
  const std::vector<double> weights{1.0, 1.0, 1.0};
  std::vector<double> credits(3, 0.0);
  std::vector<size_t> picks;
  for (int i = 0; i < 9; ++i) {
    picks.push_back(SwrrPick(weights, credits));
  }
  const std::vector<size_t> expect{0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_EQ(picks, expect);
}

TEST(SwrrPickTest, ProportionalAndInterleavedAtHalfWeight) {
  // Index 0 at weight 0.5 against two full-weight peers: exactly 50 of 250
  // picks (0.5 / 2.5), and never starved for long stretches.
  const std::vector<double> weights{0.5, 1.0, 1.0};
  std::vector<double> credits(3, 0.0);
  std::vector<int> counts(3, 0);
  int longest_drought = 0;
  int since_zero = 0;
  for (int i = 0; i < 250; ++i) {
    const size_t pick = SwrrPick(weights, credits);
    ++counts[pick];
    since_zero = pick == 0 ? 0 : since_zero + 1;
    longest_drought = std::max(longest_drought, since_zero);
  }
  EXPECT_EQ(counts[0], 50);
  EXPECT_EQ(counts[1], 100);
  EXPECT_EQ(counts[2], 100);
  // Smoothness: the weighted node appears roughly every 1/share picks, not
  // in a burst at the end.
  EXPECT_LE(longest_drought, 10);
}

TEST(SwrrPickTest, DeterministicAcrossRuns) {
  const std::vector<double> weights{0.3, 1.0, 0.7, 1.0};
  std::vector<double> credits_a(4, 0.0);
  std::vector<double> credits_b(4, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(SwrrPick(weights, credits_a), SwrrPick(weights, credits_b)) << "step " << i;
  }
  EXPECT_EQ(credits_a, credits_b);
}

// --- health-weighted placement through the scheduler ---

TEST(HealthPlacementTest, DegradedNodeReceivesProportionallyLessWork) {
  EngineHarnessOptions options;
  options.num_nodes = 3;
  EngineHarness h(options);
  const NodeId degraded = h.node_ids()[0];
  // The regression scenario from ROADMAP: one node at score 0.5, unbenched.
  h.ctx().SetNodeHealthScore(degraded, 0.5);

  std::vector<int> data(60);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, /*partitions=*/60).Map([](const int& x) {
    return x + 1;
  });
  auto out = rdd.Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // 60 uncached partitions all route through the weighted round-robin:
  // weights 0.5/1/1 => shares 12/24/24. The scheduler thread is the only
  // picker and candidate vectors are id-sorted, so the split is exact.
  std::vector<uint64_t> picked;
  for (NodeId id : h.node_ids()) {
    picked.push_back(h.ctx().GetNodeState(id)->tasks_picked.load());
  }
  EXPECT_EQ(picked[0], 12u) << "degraded node should draw a half share";
  EXPECT_EQ(picked[1], 24u);
  EXPECT_EQ(picked[2], 24u);
}

TEST(HealthPlacementTest, UniformHealthSplitsEvenly) {
  EngineHarnessOptions options;
  options.num_nodes = 3;
  EngineHarness h(options);

  std::vector<int> data(60);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, /*partitions=*/60).Map([](const int& x) {
    return x * 2;
  });
  ASSERT_TRUE(rdd.Collect().ok());

  for (NodeId id : h.node_ids()) {
    EXPECT_EQ(h.ctx().GetNodeState(id)->tasks_picked.load(), 20u)
        << "equal weights must keep the exact round-robin split (node " << id << ")";
  }
}

TEST(HealthPlacementTest, ScoreRecoveryRestoresFullShare) {
  EngineHarnessOptions options;
  options.num_nodes = 2;
  EngineHarness h(options);
  const NodeId degraded = h.node_ids()[0];
  h.ctx().SetNodeHealthScore(degraded, 0.25);
  h.ctx().SetNodeHealthScore(degraded, 1.0);  // scorer saw it recover

  std::vector<int> data(40);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, /*partitions=*/40).Map([](const int& x) {
    return x - 1;
  });
  ASSERT_TRUE(rdd.Collect().ok());

  const uint64_t a = h.ctx().GetNodeState(h.node_ids()[0])->tasks_picked.load();
  const uint64_t b = h.ctx().GetNodeState(h.node_ids()[1])->tasks_picked.load();
  EXPECT_EQ(a, 20u);
  EXPECT_EQ(b, 20u);
}

// --- execution-start deadlines ---

// Records the health samples the scheduler reports to observers; with
// execution-start stamping a task's sample must not count its queue wait.
class HealthSampleRecorder : public EngineObserver {
 public:
  void OnTaskHealthSample(NodeId node, double sample, double stage_p50_seconds) override {
    (void)node;
    (void)stage_p50_seconds;
    MutexLock lock(&mutex_);
    samples_.push_back(sample);
  }

  std::vector<double> samples() const {
    MutexLock lock(&mutex_);
    return samples_;
  }

 private:
  mutable Mutex mutex_{"HealthSampleRecorder::mutex_"};
  std::vector<double> samples_ GUARDED_BY(mutex_);
};

TEST(ExecStartDeadlineTest, ServiceTimesExcludeQueueWait) {
  // One single-threaded node, eight 20 ms tasks: the last task waits ~140 ms
  // in queue but occupies the executor for only ~20 ms. Samples are the
  // stage P50 over the service time, so a queue-inclusive time would read
  // the late tasks as up to 8x slow (a sample near 1/8).
  EngineHarnessOptions options;
  options.num_nodes = 1;
  EngineHarness h(options);
  HealthSampleRecorder recorder;
  h.ctx().AddObserver(&recorder);

  constexpr int kTasks = 8;
  constexpr int kTaskMs = 20;
  std::vector<int> data(kTasks);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, kTasks).Map([kTaskMs](const int& x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kTaskMs));
    return x;
  });
  ASSERT_TRUE(rdd.Collect().ok());
  h.ctx().DrainExecutors();
  h.ctx().RemoveObserver(&recorder);

  const std::vector<double> samples = recorder.samples();
  ASSERT_EQ(samples.size(), static_cast<size_t>(kTasks));
#if FLINT_TIMING_ASSERTS
  // Every service time ~= one task's compute, so every sample ~= 1; 1/3
  // (a 3x-slow reading) leaves slack for scheduling noise.
  for (double s : samples) {
    EXPECT_GT(s, 1.0 / 3.0) << "health sample counts queue wait";
  }
#endif
  // The queue-wait the stamp subtracted is now accounted explicitly. With 8
  // serialized tasks the waits sum to ~(1+2+...+7)*20 ms; any positive value
  // proves the stamp (not inference) supplied the start times.
  EXPECT_GT(h.ctx().counters().task_queue_wait_nanos.load(), int64_t{0});
}

TEST(ExecStartDeadlineTest, QueuedTasksAreNotSpeculatedOnAHealthyNode) {
  // Deep queue on a healthy (but busy) 2-node cluster with tight deadlines:
  // execution-start measurement means queue depth alone must not trigger
  // deadline misses or speculative duplicates.
  EngineHarnessOptions options;
  options.num_nodes = 2;
  options.speculation.enabled = true;
  options.speculation.quorum = 3;
  options.speculation.spec_multiplier = 3.0;
  options.speculation.min_deadline_seconds = 0.05;
  EngineHarness h(options);

  constexpr int kTasks = 24;
  std::vector<int> data(kTasks);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, kTasks).Map([](const int& x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    return x;
  });
  ASSERT_TRUE(rdd.Collect().ok());

  // 12 queued tasks per node at 15 ms each: total queue wait far exceeds the
  // 50 ms deadline floor, yet no attempt may look expired while queued.
  EXPECT_EQ(h.ctx().counters().task_deadline_misses.load(), 0u);
  EXPECT_EQ(h.ctx().counters().tasks_speculated.load(), 0u);
}

}  // namespace
}  // namespace flint
