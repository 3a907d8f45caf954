#include "src/core/node_manager.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/common/stats.h"
#include "src/obs/trace.h"

// flint-lint: allow-file(det-wallclock) the engine->sim time mapping and lease accounting are wall-clock by definition

namespace flint {

NodeManager::NodeManager(FlintContext* ctx, Marketplace* marketplace, FaultToleranceManager* ft,
                         NodeManagerConfig config)
    : ctx_(ctx),
      marketplace_(marketplace),
      ft_(ft),
      config_(std::move(config)),
      selector_(marketplace, config_.selection),
      engine_start_(WallClock::now()) {
  ctx_->AddObserver(this);
  metrics_collector_ = ScopedCollector(
      &MetricsRegistry::Global(), [this](std::vector<MetricSample>& out) {
        auto counter = [&out](const char* name, uint64_t v) {
          out.push_back({name, MetricType::kCounter, static_cast<double>(v)});
        };
        counter("flint_node_acquisitions", acquisitions_.load(std::memory_order_relaxed));
        counter("flint_node_on_demand_fallbacks",
                od_fallbacks_.load(std::memory_order_relaxed));
        counter("flint_node_replacements", replacements_.load(std::memory_order_relaxed));
        counter("flint_node_warnings", warnings_seen_.load(std::memory_order_relaxed));
        counter("flint_node_revocations", revocations_seen_.load(std::memory_order_relaxed));
        counter("flint_node_quarantines", quarantines_.load(std::memory_order_relaxed));
        counter("flint_node_unquarantines", unquarantines_.load(std::memory_order_relaxed));
        counter("flint_select_degenerate_evaluations", selector_.DegenerateEvaluations());
        const std::vector<std::shared_ptr<NodeState>> live = ctx_->LiveNodeStates();
        if (!live.empty()) {
          double min_score = 1.0;
          int quarantined_now = 0;
          for (const auto& node : live) {
            min_score = std::min(min_score, node->health_score.load(std::memory_order_relaxed));
            if (node->quarantined.load(std::memory_order_acquire)) {
              ++quarantined_now;
            }
          }
          out.push_back({"flint_node_health_min", MetricType::kGauge, min_score});
          out.push_back({"flint_node_quarantined_now", MetricType::kGauge,
                         static_cast<double>(quarantined_now)});
        }
        bool started = false;
        {
          ReaderMutexLock lock(&mutex_);
          started = started_;
        }
        if (started) {
          out.push_back({"flint_node_total_cost", MetricType::kGauge, TotalCost()});
          out.push_back({"flint_node_on_demand_equivalent_cost", MetricType::kGauge,
                         OnDemandEquivalentCost()});
        }
      });
}

NodeManager::~NodeManager() {
  ctx_->RemoveObserver(this);
  {
    // Lift the live quarantines now: decay only runs on samples this manager
    // folds, so nothing else would. This manager is the only writer of
    // quarantine marks; revoked nodes keep theirs.
    MutexLock lock(&mutex_);
    for (const auto& node : ctx_->LiveNodeStates()) {
      if (node->quarantined.load(std::memory_order_acquire)) {
        LiftQuarantineLocked(
            *node, std::max(node->health_score.load(std::memory_order_relaxed),
                            config_.health.recover_threshold));
      }
    }
  }
  // Pending market revocations fire.
  timers_.Drain();
}

SimTime NodeManager::Now() const {
  const double elapsed_s = WallDuration(WallClock::now() - engine_start_.load()).count();
  return config_.sim_start + ctx_->cluster().time_config().FromEngineSeconds(elapsed_s);
}

Result<std::vector<MarketId>> NodeManager::InitialMarkets() {
  const SimTime now = Now();
  std::vector<MarketId> per_node(static_cast<size_t>(config_.cluster_size), kOnDemandMarket);
  switch (config_.policy) {
    case SelectionPolicyKind::kFlintBatch: {
      FLINT_ASSIGN_OR_RETURN(MarketEvaluation ev, selector_.SelectBatch(now, config_.job));
      std::fill(per_node.begin(), per_node.end(), ev.id);
      return per_node;
    }
    case SelectionPolicyKind::kFlintInteractive: {
      FLINT_ASSIGN_OR_RETURN(MixEvaluation mix, selector_.SelectInteractive(now, config_.job));
      for (size_t i = 0; i < per_node.size(); ++i) {
        per_node[i] = mix.markets[i % mix.markets.size()];
      }
      return per_node;
    }
    case SelectionPolicyKind::kSpotFleetCheapest: {
      FLINT_ASSIGN_OR_RETURN(MarketEvaluation ev, selector_.SelectCheapest(now, config_.job));
      std::fill(per_node.begin(), per_node.end(), ev.id);
      return per_node;
    }
    case SelectionPolicyKind::kSpotFleetLeastVolatile: {
      FLINT_ASSIGN_OR_RETURN(MarketEvaluation ev,
                             selector_.SelectLeastVolatile(now, config_.job));
      std::fill(per_node.begin(), per_node.end(), ev.id);
      return per_node;
    }
    case SelectionPolicyKind::kOnDemand:
      return per_node;
  }
  return Internal("unknown policy");
}

Status NodeManager::Start() {
  {
    MutexLock lock(&mutex_);
    if (started_) {
      return FailedPrecondition("node manager already started");
    }
    started_ = true;
    engine_start_.store(WallClock::now());
  }
  FLINT_ASSIGN_OR_RETURN(std::vector<MarketId> markets, InitialMarkets());
  const SimTime now = Now();
  for (MarketId market : markets) {
    Result<Lease> lease = marketplace_->Acquire(market, selector_.BidFor(market), now);
    if (!lease.ok()) {
      // Spot request refused (price moved): fall back to on-demand.
      od_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      lease = marketplace_->Acquire(kOnDemandMarket, marketplace_->on_demand_price(), now);
    }
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    const NodeId id = ctx_->cluster().AddNode(lease->market, config_.node_memory_bytes,
                                              config_.executor_threads);
    Tracer::Global().RecordInstant("node_acquired", "market",
                                   {{"node", static_cast<double>(id)},
                                    {"market", static_cast<double>(lease->market)},
                                    {"bid", lease->bid}});
    {
      MutexLock lock(&mutex_);
      leases_[id] = LeaseRecord{*lease, true, 0.0};
    }
    if (config_.market_driven_revocations && std::isfinite(lease->revocation)) {
      ScheduleMarketRevocation(id, lease->revocation);
    }
  }
  UpdateFtMttf();
  return Status::Ok();
}

void NodeManager::ScheduleMarketRevocation(NodeId node, SimTime revocation_time) {
  const TimeConfig& tc = ctx_->cluster().time_config();
  const SimTime warn_at = revocation_time - tc.revocation_warning;
  const double delay_s = std::max(0.0, tc.ToEngineSeconds(warn_at - Now()));
  timers_.ScheduleAfter(WallDuration(delay_s), [this, node] {
    ctx_->cluster().Revoke({node}, /*with_warning=*/true);
  });
}

void NodeManager::UpdateFtMttf() {
  if (ft_ == nullptr) {
    return;
  }
  // Aggregate MTTF of the distinct markets currently in use (Eq. 3).
  std::vector<double> mttfs;
  {
    MutexLock lock(&mutex_);
    std::unordered_set<MarketId> seen;
    for (const auto& [id, rec] : leases_) {
      if (!rec.open || !seen.insert(rec.lease.market).second) {
        continue;
      }
      mttfs.push_back(marketplace_
                          ->WindowStats(rec.lease.market, Now(), config_.selection.history_window,
                                        rec.lease.bid)
                          .mttf_hours);
    }
  }
  // leases_ iterates in hash order; AggregateMttf folds doubles, so sort the
  // samples to keep τ (and everything checkpointing derives from it)
  // bit-identical across runs.
  std::sort(mttfs.begin(), mttfs.end());
  ft_->SetMttf(AggregateMttf(mttfs));
}

void NodeManager::OnNodeWarning(const NodeInfo& node) {
  // Immediate market re-selection on the 2-minute warning (Sec 4): request
  // the replacement before the node is even gone.
  warnings_seen_.fetch_add(1, std::memory_order_relaxed);
  MarketId revoked_market = node.market;
  {
    MutexLock lock(&mutex_);
    if (!warned_.insert(node.node_id).second) {
      return;  // replacement already requested for this node
    }
    auto it = leases_.find(node.node_id);
    if (it != leases_.end()) {
      revoked_market = it->second.lease.market;
    }
    if (revoked_market != kOnDemandMarket) {
      recently_revoked_[revoked_market] = Now();
    }
  }
  ProvisionReplacement(revoked_market);
}

void NodeManager::PruneRevokedLocked(SimTime now) {
  for (auto it = recently_revoked_.begin(); it != recently_revoked_.end();) {
    if (now - it->second > config_.revocation_exclusion_cooldown) {
      it = recently_revoked_.erase(it);
    } else {
      ++it;
    }
  }
}

void NodeManager::ProvisionReplacement(MarketId revoked_market) {
  replacements_.fetch_add(1, std::memory_order_relaxed);
  const SimTime now = Now();
  std::unordered_set<MarketId> exclude;
  {
    MutexLock lock(&mutex_);
    PruneRevokedLocked(now);
    for (const auto& [market, since] : recently_revoked_) {
      exclude.insert(market);
    }
  }
  if (revoked_market != kOnDemandMarket) {
    exclude.insert(revoked_market);
  }
  Result<MarketEvaluation> choice =
      selector_.SelectReplacement(config_.policy, now, config_.job, exclude);
  MarketId market = choice.ok() ? choice->id : kOnDemandMarket;
  Result<Lease> lease = marketplace_->Acquire(market, selector_.BidFor(market), now);
  if (!lease.ok()) {
    od_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    lease = marketplace_->Acquire(kOnDemandMarket, marketplace_->on_demand_price(), now);
  }
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  const NodeId id = ctx_->cluster().AddNodeAfterDelay(lease->market, config_.node_memory_bytes,
                                                      config_.executor_threads);
  Tracer::Global().RecordInstant("node_acquired", "market",
                                 {{"node", static_cast<double>(id)},
                                  {"market", static_cast<double>(lease->market)},
                                  {"bid", lease->bid},
                                  {"replacement", 1.0}});
  {
    MutexLock lock(&mutex_);
    leases_[id] = LeaseRecord{*lease, true, 0.0};
    if (revoked_market != kOnDemandMarket) {
      // When this node joins, only the market it restores is re-admitted.
      replacement_for_[id] = revoked_market;
    }
  }
  if (config_.market_driven_revocations && std::isfinite(lease->revocation)) {
    ScheduleMarketRevocation(id, lease->revocation);
  }
  UpdateFtMttf();
}

double NodeManager::CloseLeaseCost(LeaseRecord& rec, SimTime end) {
  rec.open = false;
  rec.end = end;
  return marketplace_->Cost(rec.lease, end);
}

void NodeManager::OnNodeRevoked(const NodeInfo& node) {
  revocations_seen_.fetch_add(1, std::memory_order_relaxed);
  bool need_replacement = false;
  {
    MutexLock lock(&mutex_);
    auto it = leases_.find(node.node_id);
    if (it != leases_.end() && it->second.open) {
      closed_cost_ += CloseLeaseCost(it->second, Now());
    }
    // Revocation without a warning (e.g. scripted hard kill): the warning
    // path never requested a replacement, so do it now.
    need_replacement = warned_.insert(node.node_id).second;
  }
  if (need_replacement) {
    ProvisionReplacement(node.market);
  }
}

void NodeManager::OnNodeAdded(const NodeInfo& node) {
  // A replacement joining restores exactly the market it was provisioned
  // for — a storm elsewhere must not re-admit every excluded market at once.
  MutexLock lock(&mutex_);
  auto it = replacement_for_.find(node.node_id);
  if (it != replacement_for_.end()) {
    recently_revoked_.erase(it->second);
    replacement_for_.erase(it);
  }
  PruneRevokedLocked(Now());
}

void NodeManager::OnTaskHealthSample(NodeId node, bool healthy, double stage_p50_seconds) {
  AddHealthSample(node, healthy, stage_p50_seconds);
}

void NodeManager::OnLinkSample(NodeId node, double throughput_ratio, bool slow) {
  // A link-slow fetch indicts the producing node the same way a deadline
  // miss does: its NIC, not its CPU, is the bottleneck, but scheduling onto
  // it hurts just the same. A pull within its budget is a healthy verdict.
  // Charge the observed throughput against the node's market so selection
  // sees the degradation: a market full of sick links prices itself out.
  {
    MarketId market = kOnDemandMarket;
    bool known = false;
    {
      ReaderMutexLock lock(&mutex_);
      auto it = leases_.find(node);
      if (it != leases_.end()) {
        market = it->second.lease.market;
        known = true;
      }
    }
    if (known) {
      selector_.RecordObservedThroughput(market, std::clamp(throughput_ratio, 0.01, 1.0));
    }
  }
  if (AddHealthSample(node, /*healthy=*/!slow, /*stage_p50_seconds=*/0.0) && slow) {
    Tracer::Global().RecordInstant("link_quarantine", "net",
                                   {{"node", static_cast<double>(node)},
                                    {"score", HealthScore(node)}});
  }
}

bool NodeManager::AddHealthSample(NodeId node, bool healthy, double stage_p50_seconds) {
  const NodeHealthConfig& hc = config_.health;
  std::shared_ptr<NodeState> state = ctx_->GetNodeState(node);
  MutexLock lock(&mutex_);
  if (state == nullptr || state->revoked.load(std::memory_order_acquire)) {
    return false;  // unknown, or revoked: the record is frozen
  }
  // Recovery is counted in samples, so it replays with the run.
  DecayQuarantinedLocked();
  // Stepping toward the verdict keeps an all-healthy record at exactly 1.0.
  const double prev = state->health_score.load(std::memory_order_relaxed);
  const double score = prev + hc.ewma_alpha * ((healthy ? 1.0 : 0.0) - prev);
  state->health_score.store(score, std::memory_order_relaxed);
  const int samples = state->health_samples.fetch_add(1, std::memory_order_relaxed) + 1;
  if (state->quarantined.load(std::memory_order_acquire) || samples < hc.min_samples ||
      score >= hc.quarantine_threshold) {
    return false;
  }
  return ApplyQuarantineLocked(*state, score, stage_p50_seconds);
}

bool NodeManager::ApplyQuarantineLocked(NodeState& state, double score,
                                        double stage_p50_seconds) {
  const NodeId node = state.info.node_id;
  if (!ctx_->SetNodeQuarantined(node, true)) {
    // Refused: this is the last schedulable node. Lift the score to the
    // threshold so the next bad sample retries instead of hammering the
    // context on every completion.
    state.health_score.store(std::max(score, config_.health.quarantine_threshold),
                             std::memory_order_relaxed);
    return false;
  }
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  FLINT_ILOG() << "node " << node << " quarantined (health score " << score << ")";
  Tracer::Global().RecordInstant("node_quarantined", "cluster",
                                 {{"node", static_cast<double>(node)},
                                  {"score", score},
                                  {"stage_p50_s", stage_p50_seconds}});
  return true;
}

void NodeManager::LiftQuarantineLocked(NodeState& state, double score) {
  const NodeId node = state.info.node_id;
  state.health_score.store(score, std::memory_order_relaxed);
  // Require a fresh run of bad samples before re-quarantining.
  state.health_samples.store(0, std::memory_order_relaxed);
  ctx_->SetNodeQuarantined(node, false);
  unquarantines_.fetch_add(1, std::memory_order_relaxed);
  FLINT_ILOG() << "node " << node << " recovered from quarantine (health score " << score << ")";
  Tracer::Global().RecordInstant("node_unquarantined", "cluster",
                                 {{"node", static_cast<double>(node)}, {"score", score}});
}

void NodeManager::DecayQuarantinedLocked() {
  const NodeHealthConfig& hc = config_.health;
  for (const auto& node : ctx_->LiveNodeStates()) {
    if (!node->quarantined.load(std::memory_order_acquire)) {
      continue;
    }
    double score = node->health_score.load(std::memory_order_relaxed);
    score += hc.decay_rate * (1.0 - score);
    if (score >= hc.recover_threshold) {
      LiftQuarantineLocked(*node, score);
    } else {
      node->health_score.store(score, std::memory_order_relaxed);
    }
  }
}

double NodeManager::HealthScore(NodeId node) const {
  std::shared_ptr<NodeState> state = ctx_->GetNodeState(node);
  return state != nullptr ? state->health_score.load(std::memory_order_relaxed) : 1.0;
}

bool NodeManager::Quarantined(NodeId node) const {
  std::shared_ptr<NodeState> state = ctx_->GetNodeState(node);
  return state != nullptr && state->quarantined.load(std::memory_order_acquire);
}

double NodeManager::TotalCost() const {
  ReaderMutexLock lock(&mutex_);
  const SimTime now = Now();
  // Fold per-lease costs in node-id order: leases_ iterates in hash order
  // and float addition is not associative, so an unsorted sum's low bits
  // would differ run to run.
  std::vector<std::pair<NodeId, double>> open_costs;
  open_costs.reserve(leases_.size());
  for (const auto& [id, rec] : leases_) {
    if (rec.open) {
      open_costs.emplace_back(id, marketplace_->Cost(rec.lease, now));
    }
  }
  std::sort(open_costs.begin(), open_costs.end());
  double total = closed_cost_;
  for (const auto& [id, c] : open_costs) {
    total += c;
  }
  return total;
}

double NodeManager::OnDemandEquivalentCost() const {
  ReaderMutexLock lock(&mutex_);
  // On-demand bills whole hours per server, like the spot side. Same
  // sorted-fold as TotalCost for run-to-run bit-identical sums.
  const SimTime now = Now();
  std::vector<std::pair<NodeId, double>> costs;
  costs.reserve(leases_.size());
  for (const auto& [id, rec] : leases_) {
    const double hours = rec.open ? std::max(0.0, now - rec.lease.start)
                                  : std::max(0.0, rec.end - rec.lease.start);
    costs.emplace_back(id, std::ceil(hours - 1e-9) * marketplace_->on_demand_price());
  }
  std::sort(costs.begin(), costs.end());
  double cost = 0.0;
  for (const auto& [id, c] : costs) {
    cost += c;
  }
  return cost;
}

std::vector<MarketId> NodeManager::ExcludedMarkets() const {
  ReaderMutexLock lock(&mutex_);
  std::vector<MarketId> out;
  out.reserve(recently_revoked_.size());
  for (const auto& [market, since] : recently_revoked_) {
    out.push_back(market);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<MarketId> NodeManager::ActiveMarkets() const {
  ReaderMutexLock lock(&mutex_);
  std::unordered_set<MarketId> seen;
  std::vector<MarketId> out;
  for (const auto& [id, rec] : leases_) {
    if (rec.open && seen.insert(rec.lease.market).second) {
      out.push_back(rec.lease.market);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace flint
