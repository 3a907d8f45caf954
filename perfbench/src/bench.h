// Shared pieces of the end-to-end benchmark driver: run options, the report
// every workload fills in, the span recorder of the traced run, and the
// per-layer probe that reads the engine's public state around each
// operation. Everything here runs on the single driver thread except
// LayerObserver, whose callbacks arrive on engine threads.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/flint_cluster.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-check sizes: tiny inputs so every workload finishes in seconds.
  bool tiny = false;
  // > 0: run exactly this many operations instead of measuring for
  // `seconds` (used to compare two runs of one seed op for op).
  int ops = 0;
  // Alter the reference answers before measuring; the run must then fail.
  bool corrupt_reference = false;
  // market-sim: print the seed's unit costs after the reference pass and
  // stop (how the recorded table is produced).
  bool print_unit_costs = false;
};

// Latency class of one operation. The paper's short query is Q6 and its
// medium query Q3; the other workloads map their two operation kinds here.
enum class OpClass { kShort, kMedium, kOther };

// What one workload run measured. Metrics keep insertion order so the
// printed report reads top to bottom.
class Report {
 public:
  // Non-finite values (an infinite tau when nothing is checkpointed) are
  // stored as 0 so the JSON line stays valid.
  void Metric(const std::string& name, double value, const std::string& unit);
  // Counts one checked operation; `ok` false records `why` as a failure.
  void Check(bool ok, const std::string& why);
  // Records one measured operation. The process's peak RSS is sampled when
  // the kRssOps-th operation lands, so the memory metric covers set-up plus
  // a fixed amount of work however fast the host runs.
  void Op(OpClass cls, double seconds, double work_units);
  static constexpr size_t kRssOps = 100;
  // Peak RSS at the kRssOps-th operation, or now if fewer ran.
  double peak_rss_mib() const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  size_t ops() const { return op_seconds_.size(); }
  double op_seconds_total() const;

  // Fills ops_per_s, short/medium p50 and op_p90_s from the recorded ops.
  void LatencyMetrics();

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& metrics() const { return metrics_; }

 private:
  std::vector<Entry> metrics_;
  std::vector<double> op_seconds_;
  std::vector<OpClass> op_class_;
  double work_units_ = 0.0;
  double peak_rss_mib_ = 0.0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// Linear-interpolated quantile of `v` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> v, double q);

// Spans recorded from the driver around each call into a layer. Spans live
// in memory and are written once when the run ends. Disabled recorders hand
// out no-op scopes, so the untraced run pays one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  class Scope {
   public:
    Scope(SpanRecorder* recorder, int index) : recorder_(recorder), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  // Opens a span named `name` for operation `op`, nested under the
  // innermost open span.
  Scope Span(const char* name, uint64_t op);
  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }

  // Sum over spans of each name of (span length - time its children cover).
  std::map<std::string, double> SelfSeconds() const;
  // Chrome trace_event JSON, readable by Perfetto and chrome://tracing.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    double start;
    double end;
    int parent;
    uint64_t op;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

// Engine callbacks the benchmark needs and cannot read as state: checkpoint
// write seconds, node arrivals (for revoke-to-replacement time) and
// revocations. Registered through FlintContext::AddObserver.
class LayerObserver : public flint::EngineObserver {
 public:
  void OnCheckpointWritten(const flint::RddPtr& rdd, int partition, uint64_t bytes,
                           double write_seconds) override;
  void OnNodeAdded(const flint::NodeInfo& node) override;
  void OnNodeRevoked(const flint::NodeInfo& node) override;

  double checkpoint_write_seconds() const;
  uint64_t revocations() const;
  Clock::time_point last_node_added() const;

 private:
  mutable std::mutex mutex_;
  double checkpoint_write_seconds_ = 0.0;
  uint64_t revocations_ = 0;
  Clock::time_point last_node_added_{};
};

// Registers a LayerObserver with a cluster's context for its lifetime and
// drains the executors before unregistering, so no in-flight task can reach
// the observer afterwards.
class ObserverRegistration {
 public:
  ObserverRegistration(flint::FlintCluster* cluster, LayerObserver* observer);
  ~ObserverRegistration();
  ObserverRegistration(const ObserverRegistration&) = delete;
  ObserverRegistration& operator=(const ObserverRegistration&) = delete;

 private:
  flint::FlintCluster* cluster_;
  LayerObserver* observer_;
};

// Monotonic public state of one cluster, read between operations.
struct EngineSample {
  uint64_t tasks = 0;
  uint64_t task_retries = 0;
  uint64_t speculated = 0;
  uint64_t speculative_wins = 0;
  uint64_t recomputed = 0;
  uint64_t checkpoint_writes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t restores = 0;
  uint64_t restore_fallbacks = 0;
  uint64_t net_fetch_bytes = 0;
  int64_t compute_nanos = 0;
  int64_t queue_wait_nanos = 0;
  int64_t acquisition_wait_nanos = 0;
  int64_t net_fetch_wait_nanos = 0;
  uint64_t dfs_bytes_written = 0;
  uint64_t dfs_bytes_read = 0;
  double checkpoint_write_seconds = 0.0;
  uint64_t revocations = 0;
  // Block-cache counters per node id. Revoked nodes leave LiveNodeStates(),
  // so the cache is differenced per node rather than as one sum.
  std::map<flint::NodeId, flint::BlockManager::CacheCounters> cache;
};

// Reads the cluster's counters. With `previous`, nodes it saw that have
// since been revoked are read too, so their last operations still count.
EngineSample SampleEngine(flint::FlintCluster& cluster, const LayerObserver& observer,
                          const EngineSample* previous = nullptr);

// Per-layer totals over a run: the sum of (after - before) over operations,
// plus end-of-run gauges.
class LayerTotals {
 public:
  void Add(const EngineSample& before, const EngineSample& after);
  // End-of-run gauges read from the cluster that served the last operation.
  void Gauges(flint::FlintCluster& cluster);
  void AddReplacementSeconds(double s) { replacement_seconds_ += s; }
  // Growth of the shuffle output the engine holds (ShuffleManager::
  // TotalBytes() walks every bucket, so it is read around a whole loop or
  // job rather than around each operation).
  void AddShuffleBytesRetained(uint64_t before, uint64_t after) {
    shuffle_bytes_retained_ += after > before ? after - before : 0;
  }
  // Appends the engine/checkpoint/dfs/cluster/core metrics, per operation.
  void Emit(Report& report, double ops) const;

 private:
  EngineSample sum_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t shuffle_bytes_retained_ = 0;
  double replacement_seconds_ = 0.0;
  double delta_seconds_ = 0.0;
  double tau_seconds_ = 0.0;
  double markets_active_ = 0.0;
};

// Work a workload adds to the common per-layer metrics.
struct LayerExtras {
  double load_seconds = 0.0;          // TpchDatabase::Load, summed
  double batch_pick_seconds = 0.0;    // SelectBatch, summed
  double interactive_pick_seconds = 0.0;
  uint64_t picks = 0;                 // SelectBatch/SelectInteractive pairs
  double sim_batch_seconds = 0.0;     // TraceSimulator::Run, summed
  double sim_interactive_seconds = 0.0;
  uint64_t sim_batch_runs = 0;
  uint64_t sim_interactive_runs = 0;
  double unit_cost_batch = 0.0;
  double unit_cost_interactive = 0.0;
  uint64_t setups = 0;
};

// Cluster shape every engine workload runs: nodes x executor threads must
// fit the host's cores so executors never time-share one.
inline constexpr int kNodes = 4;
inline constexpr int kExecutorThreads = 1;

// What one workload run reads and fills in; main turns it into metrics.
struct RunContext {
  const Options& options;
  Report& report;
  SpanRecorder& spans;
  LayerTotals& layers;
  LayerExtras& extras;
  std::vector<double> setup_seconds;
  double loop_cpu_seconds = 0.0;  // user + sys over the measuring loop
};

// Each runs one workload: set-up, reference answers, then the measuring loop.
void RunTpch(RunContext& run, bool with_revocations);
void RunBatchPageRank(RunContext& run);
void RunMarketSim(RunContext& run);

// Measuring loop shared by every workload: keeps going until the time
// budget is spent and at least `min_ops` operations have run (so the p90
// has ten samples beyond it), or exactly `options.ops` when set.
class OpLoop {
 public:
  OpLoop(const Options& options, size_t min_ops);
  bool Continue(size_t done) const;
  // Process CPU (user + sys) spent since the loop started.
  double CpuSeconds() const;

 private:
  const Options& options_;
  size_t min_ops_;
  Clock::time_point start_;
  double cpu_start_;
};

// Process CPU seconds (user + sys) and peak resident memory, from getrusage.
double ProcessCpuSeconds();
double PeakRssMib();

// Exact text form of a double, so reference comparisons are bit-exact.
std::string Hex(double v);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
