// batch-pagerank: repeated PageRank jobs, each on a fresh 4-node
// FlintCluster running Flint checkpointing over short-MTTF markets. Jobs
// alternate between fault-free (the checkpoint tax alone) and one hard
// revocation fired by a FaultPlan at a seeded scheduler round (checkpoint
// tax plus recovery); the node manager's restoration policy replaces the
// lost node.

#include <cstdio>

#include "perfbench/src/bench.h"
#include "src/common/rng.h"
#include "src/inject/fault_injector.h"
#include "src/trace/market_catalog.h"
#include "src/workloads/pagerank.h"

namespace perfbench {
namespace {

using flint::FlintCluster;

constexpr int kTopN = 10;
// Every job passes through more scheduler rounds than this (about 22 at
// full size, 8 tiny); the revocation fires at a seeded round in
// [1, LastRound].
int LastRound(const Options& options) { return options.tiny ? 5 : 20; }

// Extreme-volatility markets (MTTF of a few model hours) from a fixed seed:
// every seed runs the same market, and tau falls inside one job, so
// checkpoint writes sit on the job's critical path.
std::vector<flint::MarketDesc> ShortMttfMarkets() {
  std::vector<flint::MarketDesc> markets;
  for (int m = 0; m < 6; ++m) {
    flint::MarketDesc d;
    d.name = "extreme-" + std::to_string(m);
    d.on_demand_price = 0.35;
    d.trace = flint::GenerateSyntheticTrace(flint::ParamsForVolatility(
        flint::MarketVolatility::kExtreme, d.on_demand_price, 100 + static_cast<uint64_t>(m)));
    markets.push_back(std::move(d));
  }
  return markets;
}

flint::FlintOptions ClusterOptions(const std::vector<flint::MarketDesc>& markets) {
  flint::FlintOptions o;
  o.markets = markets;
  o.seed = 7;
  o.nodes.cluster_size = kNodes;
  o.nodes.executor_threads = kExecutorThreads;
  o.nodes.node_memory_bytes = 256 * flint::kMiB;
  o.nodes.policy = flint::SelectionPolicyKind::kFlintBatch;
  o.checkpoint.policy = flint::CheckpointPolicyKind::kFlint;
  // 1.5 s per model hour: the 2-minute warning and acquisition delay last
  // 50 ms, and a few-hour MTTF puts tau at about a second.
  o.time.seconds_per_model_hour = 1.5;
  return o;
}

flint::PageRankParams JobParams(const Options& options) {
  flint::PageRankParams p;
  p.num_vertices = options.tiny ? 2000 : 20000;
  p.edges_per_vertex = options.tiny ? 4 : 10;
  p.partitions = options.tiny ? 4 : 16;
  p.iterations = options.tiny ? 3 : 5;
  p.seed = options.seed;
  return p;
}

std::string Fingerprint(const flint::PageRankResult& r) {
  std::string out = Hex(r.rank_sum) + "|";
  for (const auto& [vertex, rank] : r.top) {
    out += std::to_string(vertex) + ":" + Hex(rank) + ",";
  }
  return out;
}

// One hard revocation of the lowest-id node at scheduler round `round`,
// with no scripted replacement: the node manager restores the cluster.
flint::FaultPlan OneRevocation(int round, uint64_t seed) {
  flint::FaultEvent e;
  e.at = flint::EnginePoint::kSchedulerRound;
  e.after_hits = round;
  e.action = flint::FaultActionKind::kRevokeCount;
  e.count = 1;
  e.with_warning = false;
  flint::FaultPlan plan;
  plan.events.push_back(e);
  plan.seed = seed;
  return plan;
}

}  // namespace

void RunBatchPageRank(RunContext& run) {
  std::vector<flint::MarketDesc> markets;
  {
    auto span = run.spans.Span("markets", 0);
    markets = ShortMttfMarkets();
  }
  const flint::PageRankParams params = JobParams(run.options);

  // Reference answer from a fault-free cluster.
  std::string reference;
  {
    auto span = run.spans.Span("reference", 0);
    FlintCluster cluster(ClusterOptions(markets));
    const flint::Status st = cluster.Start();
    flint::Result<flint::PageRankResult> r =
        st.ok() ? flint::RunPageRank(cluster.ctx(), params, kTopN)
                : flint::Result<flint::PageRankResult>(st);
    run.report.Check(r.ok(), "reference job: " + r.status().ToString());
    if (!r.ok()) {
      return;
    }
    reference = Fingerprint(*r);
  }
  if (run.options.corrupt_reference) {
    reference += "x";
  }

  flint::Rng rng(run.options.seed * 0x9e3779b97f4a7c15ULL + 3);
  flint::FaultInjector::Stats injected;
  OpLoop loop(run.options, /*min_ops=*/100);
  for (size_t op = 0; loop.Continue(op); ++op) {
    const bool revoke = op % 2 == 1;
    const int round =
        1 + static_cast<int>(rng.UniformInt(static_cast<uint64_t>(LastRound(run.options))));
    auto job_span = run.spans.Span(revoke ? "job_revoked" : "job_clean", op);

    const Clock::time_point s0 = Clock::now();
    std::unique_ptr<FlintCluster> cluster;
    {
      auto span = run.spans.Span("cluster_start", op);
      cluster = std::make_unique<FlintCluster>(ClusterOptions(markets));
      const flint::Status st = cluster->Start();
      run.report.Check(st.ok(), "cluster start: " + st.ToString());
      if (!st.ok()) {
        break;
      }
    }
    run.setup_seconds.push_back(SecondsSince(s0));

    LayerObserver observer;
    double seconds = 0.0;
    flint::Result<flint::PageRankResult> result = flint::Internal("not run");
    {
      ObserverRegistration registration(cluster.get(), &observer);
      std::unique_ptr<flint::FaultInjector> injector;
      if (revoke) {
        injector = std::make_unique<flint::FaultInjector>(
            &cluster->cluster(), OneRevocation(round, run.options.seed), &cluster->dfs());
        cluster->ctx().SetProbe(injector.get());
      }
      const EngineSample before = SampleEngine(*cluster, observer);
      const uint64_t shuffle_bytes_before = cluster->ctx().shuffles().TotalBytes();
      const Clock::time_point j0 = Clock::now();
      {
        auto span = run.spans.Span("pagerank", op);
        result = flint::RunPageRank(cluster->ctx(), params, kTopN);
      }
      seconds = SecondsSince(j0);
      cluster->ctx().SetProbe(nullptr);
      run.layers.Add(before, SampleEngine(*cluster, observer, &before));
      run.layers.AddShuffleBytesRetained(shuffle_bytes_before,
                                         cluster->ctx().shuffles().TotalBytes());
      run.layers.Gauges(*cluster);
      if (injector) {
        const flint::FaultInjector::Stats s = injector->GetStats();
        injected.events_fired += s.events_fired;
        injected.nodes_revoked += s.nodes_revoked;
        run.report.Check(s.events_fired == 1, "revocation did not fire at round " +
                                                  std::to_string(round));
      }
    }
    {
      auto span = run.spans.Span("teardown", op);
      cluster.reset();
    }
    if (!result.ok()) {
      run.report.Check(false, "pagerank: " + result.status().ToString());
      continue;
    }
    run.report.Check(Fingerprint(*result) == reference, "pagerank answer differs from reference");
    run.report.Op(revoke ? OpClass::kMedium : OpClass::kShort, seconds, 1.0);
  }
  run.loop_cpu_seconds = loop.CpuSeconds();
  std::printf("fault injector: events_fired=%llu nodes_revoked=%llu\n",
              static_cast<unsigned long long>(injected.events_fired),
              static_cast<unsigned long long>(injected.nodes_revoked));
}

}  // namespace perfbench
