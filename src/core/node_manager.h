// The node manager (paper Sec 4, Fig 5): provisions a cluster of N transient
// servers using a server-selection policy, monitors market state, replaces
// revoked servers (restoration policy), keeps the fault-tolerance manager's
// cluster MTTF estimate current, and bills every lease.
//
// It bridges the two time planes: engine wall time advances the simulated
// market clock at TimeConfig::seconds_per_model_hour. With
// market_driven_revocations, leases' trace-determined revocation times are
// scheduled onto the cluster as warnings + revocations; benches that need
// scripted faults leave it off and call ClusterManager::Revoke directly.

#ifndef SRC_CORE_NODE_MANAGER_H_
#define SRC_CORE_NODE_MANAGER_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/checkpoint/ft_manager.h"
#include "src/cluster/timer_queue.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/engine/context.h"
#include "src/engine/observer.h"
#include "src/market/marketplace.h"
#include "src/select/selection.h"

namespace flint {

// Node-health scoring (DESIGN.md "Straggler mitigation"). Every health
// verdict is pass/fail: a task attempt passes when it succeeds within its
// stage's T and fails on an error or a deadline miss
// (EngineObserver::OnTaskHealthSample); a shuffle pull fails when it
// outlasts its budget (OnLinkSample). Each verdict steps an EWMA health
// score per node toward 1 or 0, so a node whose verdicts all pass stays at
// exactly 1.0. Nodes whose score sinks below quarantine_threshold (after
// min_samples) are excluded from scheduling — a reversible drain, and the
// score's only consumer. Every sample folded, from any node, decays each
// quarantined node's score toward 1.0, and a node rejoins once its score
// passes recover_threshold, so recovery replays by sample count, not by
// wall clock. The score, sample count and quarantine mark live on the
// node's NodeState; the manager only applies this policy to them.
struct NodeHealthConfig {
  double ewma_alpha = 0.3;            // weight of the newest sample
  double quarantine_threshold = 0.35; // quarantine below this score
  double recover_threshold = 0.7;     // un-quarantine once decay reaches this
  int min_samples = 4;                // samples before quarantine can trigger
  double decay_rate = 0.15;           // score += rate * (1 - score) per sample folded
};

struct NodeManagerConfig {
  int cluster_size = 10;
  uint64_t node_memory_bytes = 64 * kMiB;
  int executor_threads = 1;
  SelectionPolicyKind policy = SelectionPolicyKind::kFlintBatch;
  SelectionConfig selection;
  JobProfile job;
  // Drive revocations from the market traces (demo / end-to-end runs).
  // Benches with scripted fault plans keep this false.
  bool market_driven_revocations = false;
  // Simulated epoch at which the cluster starts; defaults to one window in so
  // "recent history" exists.
  SimTime sim_start = Hours(24.0 * 7);
  // A market revoked recently is excluded from restoration until its own
  // replacement joins, or this much simulated time passes, whichever comes
  // first (a storm elsewhere must not re-admit a market still in turmoil).
  SimDuration revocation_exclusion_cooldown = Hours(1.0);
  NodeHealthConfig health;
};

class NodeManager : public EngineObserver {
 public:
  NodeManager(FlintContext* ctx, Marketplace* marketplace, FaultToleranceManager* ft,
              NodeManagerConfig config);
  ~NodeManager() override;

  NodeManager(const NodeManager&) = delete;
  NodeManager& operator=(const NodeManager&) = delete;

  // Runs the initial selection policy and provisions cluster_size nodes.
  Status Start();

  // Current simulated market time.
  SimTime Now() const;

  // Total cost accrued so far across all leases (closed + open-to-now).
  double TotalCost() const;
  // What the same node-hours would have cost on on-demand servers.
  double OnDemandEquivalentCost() const;

  // Markets currently in use (distinct, live nodes).
  std::vector<MarketId> ActiveMarkets() const;
  // Markets currently excluded from restoration (sorted); observability for
  // dashboards and tests.
  std::vector<MarketId> ExcludedMarkets() const;
  const ServerSelector& selector() const { return selector_; }

  // Current EWMA health score of `node` and whether the health scorer holds
  // it in quarantine, read from its live or retired NodeState (1.0 / false
  // for an unknown id). A revoked node's record is frozen at revocation.
  double HealthScore(NodeId node) const;
  bool Quarantined(NodeId node) const;

  // EngineObserver:
  void OnNodeWarning(const NodeInfo& node) override;
  void OnNodeRevoked(const NodeInfo& node) override;
  void OnNodeAdded(const NodeInfo& node) override;
  void OnTaskHealthSample(NodeId node, bool healthy, double stage_p50_seconds) override;
  void OnLinkSample(NodeId node, double throughput_ratio, bool slow) override;

 private:
  struct LeaseRecord {
    Lease lease;
    bool open = true;
    SimTime end = 0.0;
  };
  // Picks markets for the initial cluster per the policy. Returns one entry
  // per node (round-robin across the mix for interactive).
  Result<std::vector<MarketId>> InitialMarkets();
  // Acquires a lease and registers a node joining after the acquisition
  // delay. Falls back to on-demand if the market refuses.
  void ProvisionReplacement(MarketId preferred);
  void UpdateFtMttf();
  // Drops exclusion entries older than the cooldown.
  void PruneRevokedLocked(SimTime now) REQUIRES(mutex_);
  void ScheduleMarketRevocation(NodeId node, SimTime revocation_time);
  // Mutates a LeaseRecord living inside leases_.
  double CloseLeaseCost(LeaseRecord& rec, SimTime end) REQUIRES(mutex_);
  // Folds one pass/fail verdict into a live node's EWMA, after one decay
  // step for every node already quarantined, and quarantines the node when
  // its score sinks below threshold. `stage_p50_seconds` is the stage P50
  // that armed a task verdict's T (0 for link samples); it is traced with
  // the quarantine. Returns whether this sample imposed a quarantine.
  bool AddHealthSample(NodeId node, bool healthy, double stage_p50_seconds);
  // Excludes `state` from scheduling. If the context refuses (last
  // schedulable node), lifts the score to the threshold instead so the next
  // bad sample retries, and returns false.
  bool ApplyQuarantineLocked(NodeState& state, double score, double stage_p50_seconds)
      REQUIRES(mutex_);
  // Lifts `state`'s quarantine with `score` and resets its sample count, so
  // a fresh run of bad samples is needed before re-quarantining.
  void LiftQuarantineLocked(NodeState& state, double score) REQUIRES(mutex_);
  // One recovery step per folded sample: decays every live quarantined
  // node's score toward 1.0 and lifts those reaching recover_threshold.
  // Revoked nodes keep their frozen record.
  void DecayQuarantinedLocked() REQUIRES(mutex_);

  FlintContext* ctx_;
  Marketplace* marketplace_;
  FaultToleranceManager* ft_;
  NodeManagerConfig config_;
  ServerSelector selector_;

  // Also serializes every health write, so the manager is the single writer
  // of each NodeState's health fields.
  mutable Mutex mutex_{"NodeManager::mutex_"};
  // Atomic, not mutex_-guarded: Now() is called while mutex_ is already held
  // (cost accounting) as well as lock-free from the timer thread.
  std::atomic<WallTime> engine_start_;
  bool started_ GUARDED_BY(mutex_) = false;
  std::unordered_map<NodeId, LeaseRecord> leases_ GUARDED_BY(mutex_);
  std::unordered_set<NodeId> warned_ GUARDED_BY(mutex_);  // replacement already requested
  // Markets excluded from restoration, keyed by when the exclusion started.
  // An entry clears when that market's replacement lands (replacement_for_)
  // or lazily once the configured cooldown elapses.
  std::unordered_map<MarketId, SimTime> recently_revoked_ GUARDED_BY(mutex_);
  // Pending replacement node -> the market whose revocation it restores.
  std::unordered_map<NodeId, MarketId> replacement_for_ GUARDED_BY(mutex_);
  double closed_cost_ GUARDED_BY(mutex_) = 0.0;

  // Lease-lifecycle accounting, exported as flint_node_* metrics.
  std::atomic<uint64_t> acquisitions_{0};       // leases acquired (initial + replacement)
  std::atomic<uint64_t> od_fallbacks_{0};       // spot refusals that fell back to on-demand
  std::atomic<uint64_t> replacements_{0};       // replacement provisions requested
  std::atomic<uint64_t> warnings_seen_{0};      // revocation warnings observed
  std::atomic<uint64_t> revocations_seen_{0};   // revocations observed
  std::atomic<uint64_t> quarantines_{0};        // health quarantines imposed
  std::atomic<uint64_t> unquarantines_{0};      // health quarantines lifted

  TimerQueue timers_;  // market-driven revocations

  // Exports the counters above plus cost gauges; declared last so it unhooks
  // before the state it reads is torn down.
  ScopedCollector metrics_collector_;
};

}  // namespace flint

#endif  // SRC_CORE_NODE_MANAGER_H_
