// tpch-interactive and tpch-revocation: cached TPC-H tables on a 4-node
// FlintCluster, then a seeded closed-loop sequence of Q1/Q3/Q6/Q10/Q12/Q18.
// The revocation workload runs Flint checkpointing and, before each query,
// revokes one market's nodes with warning and waits for the node manager's
// replacements; the interactive one runs no checkpointing and no faults.
// Both use the same cluster, tables and query order, so the difference
// between them is the recovery path.

#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "perfbench/src/bench.h"
#include "src/common/rng.h"
#include "src/workloads/tpch.h"

namespace perfbench {
namespace {

using flint::FlintCluster;
using flint::TpchDatabase;

enum class Query { kQ1, kQ3, kQ6, kQ10, kQ12, kQ18 };
constexpr Query kQueries[] = {Query::kQ1, Query::kQ3, Query::kQ6,
                              Query::kQ10, Query::kQ12, Query::kQ18};
constexpr size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

// Market traces are fixed across seeds so every seed starts from the same
// cluster layout: this seed gives the interactive policy a four-market mix.
constexpr uint64_t kMarketSeed = 1;

const char* QueryName(Query q) {
  switch (q) {
    case Query::kQ1: return "Q1";
    case Query::kQ3: return "Q3";
    case Query::kQ6: return "Q6";
    case Query::kQ10: return "Q10";
    case Query::kQ12: return "Q12";
    case Query::kQ18: return "Q18";
  }
  return "?";
}

OpClass ClassOf(Query q) {
  return q == Query::kQ6 ? OpClass::kShort : q == Query::kQ3 ? OpClass::kMedium : OpClass::kOther;
}

// Exact text of a query answer; two answers match only if bit-identical.
template <typename T, typename F>
flint::Result<std::string> Rows(const flint::Result<std::vector<T>>& rows, F&& fields) {
  if (!rows.ok()) {
    return rows.status();
  }
  std::string out;
  for (const T& r : *rows) {
    out += fields(r);
    out += ';';
  }
  return out;
}

std::string Num(int64_t v) { return std::to_string(v) + ","; }
std::string Num(double v) { return Hex(v) + ","; }

flint::Result<std::string> RunQuery(const TpchDatabase& db, Query q) {
  switch (q) {
    case Query::kQ1:
      return Rows(db.RunQ1(), [](const flint::Q1Row& r) {
        return Num(int64_t{r.return_flag}) + Num(int64_t{r.line_status}) + Num(r.sum_qty) +
               Num(r.sum_base_price) + Num(r.sum_disc_price) + Num(r.sum_charge) + Num(r.count);
      });
    case Query::kQ3:
      return Rows(db.RunQ3(), [](const flint::Q3Row& r) {
        return Num(int64_t{r.order_key}) + Num(r.revenue) + Num(int64_t{r.order_date}) +
               Num(int64_t{r.ship_priority});
      });
    case Query::kQ6: {
      flint::Result<double> v = db.RunQ6();
      if (!v.ok()) {
        return v.status();
      }
      return Hex(*v);
    }
    case Query::kQ10:
      return Rows(db.RunQ10(), [](const flint::Q10Row& r) {
        return Num(int64_t{r.cust_key}) + Num(r.revenue) + Num(r.returned_lines);
      });
    case Query::kQ12:
      return Rows(db.RunQ12(), [](const flint::Q12Row& r) {
        return Num(int64_t{r.ship_priority}) + Num(r.high_line_count) + Num(r.low_line_count);
      });
    case Query::kQ18:
      return Rows(db.RunQ18(), [](const flint::Q18Row& r) {
        return Num(int64_t{r.order_key}) + Num(int64_t{r.cust_key}) + Num(r.total_price) +
               Num(r.sum_quantity);
      });
  }
  return flint::Internal("unknown query");
}

flint::FlintOptions ClusterOptions(bool with_revocations) {
  flint::FlintOptions o;
  o.seed = kMarketSeed;
  o.nodes.cluster_size = kNodes;
  o.nodes.executor_threads = kExecutorThreads;
  o.nodes.node_memory_bytes = 256 * flint::kMiB;
  o.nodes.policy = flint::SelectionPolicyKind::kFlintInteractive;
  o.checkpoint.policy =
      with_revocations ? flint::CheckpointPolicyKind::kFlint : flint::CheckpointPolicyKind::kNone;
  // GCE-style 30 s warning and acquisition delay (50 ms of engine time at
  // the default 6 s per model hour) keep one revoke-and-query round short.
  o.time.revocation_warning = flint::Minutes(0.5);
  o.time.acquisition_delay = flint::Minutes(0.5);
  // Restores share the cluster network with everything else (as in the
  // Fig 9 bench), so reading lost partitions back is a visible cost.
  o.dfs.read_bandwidth_bytes_per_s = 48.0 * flint::kMiB;
  return o;
}

flint::TpchParams DbParams(const Options& options) {
  flint::TpchParams p;
  p.num_orders = options.tiny ? 4000 : 100000;
  p.num_customers = p.num_orders / 40;
  p.max_lines_per_order = 5;
  p.partitions = options.tiny ? 4 : 16;
  p.seed = options.seed;
  return p;
}

bool TablesCheckpointed(const TpchDatabase& db) {
  auto saved = [](const flint::RddPtr& rdd) {
    return rdd->checkpoint_state() == flint::CheckpointState::kSaved;
  };
  return saved(db.lineitem().raw()) && saved(db.orders().raw()) && saved(db.customer().raw());
}

struct Setup {
  std::unique_ptr<FlintCluster> cluster;
  std::optional<TpchDatabase> db;
};

// One set-up: cluster start, table load, two warm-up passes over every
// query and, with checkpointing, the wait until all three tables are in the
// DFS. The first set-up's first pass produces the reference answers.
Setup SetUp(RunContext& run, bool with_revocations, std::vector<std::string>& reference) {
  Setup s;
  auto span = run.spans.Span("setup", 0);
  const Clock::time_point t0 = Clock::now();
  {
    auto start = run.spans.Span("cluster_start", 0);
    s.cluster = std::make_unique<FlintCluster>(ClusterOptions(with_revocations));
    const flint::Status st = s.cluster->Start();
    run.report.Check(st.ok(), "cluster start: " + st.ToString());
    if (!st.ok()) {
      return s;
    }
  }
  {
    auto load = run.spans.Span("load", 0);
    const Clock::time_point l0 = Clock::now();
    flint::Result<TpchDatabase> db = TpchDatabase::Load(s.cluster->ctx(), DbParams(run.options));
    run.extras.load_seconds += SecondsSince(l0);
    run.report.Check(db.ok(), "load: " + db.status().ToString());
    if (!db.ok()) {
      return s;
    }
    s.db.emplace(std::move(*db));
  }
  {
    auto warm = run.spans.Span("warmup", 0);
    const bool record = reference.empty();
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < kNumQueries; ++i) {
        flint::Result<std::string> answer = RunQuery(*s.db, kQueries[i]);
        if (!answer.ok()) {
          run.report.Check(false, std::string("warm-up ") + QueryName(kQueries[i]) + ": " +
                                      answer.status().ToString());
          continue;
        }
        if (record && pass == 0) {
          reference.push_back(*answer);
        } else {
          run.report.Check(*answer == reference[i],
                           std::string("warm-up ") + QueryName(kQueries[i]) + " differs");
        }
      }
    }
  }
  if (with_revocations) {
    auto wait = run.spans.Span("checkpoint_wait", 0);
    const Clock::time_point w0 = Clock::now();
    while (!TablesCheckpointed(*s.db) && SecondsSince(w0) < 60.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    run.report.Check(TablesCheckpointed(*s.db), "tables not checkpointed within 60 s");
  }
  run.setup_seconds.push_back(SecondsSince(t0));
  ++run.extras.setups;
  return s;
}

// Walks `order`, a seeded permutation of the market ids, round-robin from
// `*next` and returns the first market that holds live nodes, advancing
// `*next` past it; kOnDemandMarket if no node sits in a spot market. Every
// market the cluster occupies is revoked in turn, so the restoration
// policy, which refills from the first admissible market of its candidate
// list, soon has the whole cluster in one market (see perfbench/README.md).
flint::MarketId NextVictimMarket(FlintCluster& cluster, const std::vector<flint::MarketId>& order,
                                 size_t* next) {
  std::set<flint::MarketId> live;
  for (const flint::NodeInfo& n : cluster.cluster().LiveNodes()) {
    live.insert(n.market);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t at = (*next + i) % order.size();
    if (live.count(order[at]) != 0) {
      *next = at + 1;
      return order[at];
    }
  }
  return flint::kOnDemandMarket;
}

template <typename T>
void SeededShuffle(std::vector<T>& v, flint::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<size_t>(rng.UniformInt(i))]);
  }
}

}  // namespace

void RunTpch(RunContext& run, bool with_revocations) {
  constexpr int kSetups = 3;
  std::vector<std::string> reference;
  Setup s;
  for (int k = 0; k < kSetups; ++k) {
    // Tear the previous cluster down (tables first) before timing the next.
    s.db.reset();
    s.cluster.reset();
    s = SetUp(run, with_revocations, reference);
    if (!s.db) {
      return;
    }
  }
  if (reference.size() != kNumQueries) {
    return;
  }
  if (run.options.corrupt_reference) {
    for (std::string& answer : reference) {
      answer += "x";
    }
  }

  FlintCluster& cluster = *s.cluster;
  LayerObserver observer;
  ObserverRegistration registration(&cluster, &observer);
  flint::Rng rng(run.options.seed * 0x9e3779b97f4a7c15ULL + (with_revocations ? 2 : 1));
  // Victims: the seed orders the markets once; rounds walk that order.
  std::vector<flint::MarketId> victim_order(cluster.marketplace().num_markets());
  std::iota(victim_order.begin(), victim_order.end(), 0);
  SeededShuffle(victim_order, rng);
  size_t next_victim = 0;
  std::vector<size_t> order(kNumQueries);  // indices into kQueries
  const uint64_t shuffle_bytes_before = cluster.ctx().shuffles().TotalBytes();
  OpLoop loop(run.options, /*min_ops=*/100);
  for (size_t op = 0; loop.Continue(op); ++op) {
    if (op % kNumQueries == 0) {
      // Each block of six runs every query once, in a seeded order.
      std::iota(order.begin(), order.end(), 0);
      SeededShuffle(order, rng);
    }
    const size_t qi = order[op % kNumQueries];
    const Query q = kQueries[qi];
    auto round = run.spans.Span("round", op);
    const EngineSample before = SampleEngine(cluster, observer);
    if (with_revocations) {
      auto revoke = run.spans.Span("revoke_to_replacement", op);
      const flint::MarketId victim = NextVictimMarket(cluster, victim_order, &next_victim);
      if (victim == flint::kOnDemandMarket) {
        run.report.Check(false, "no spot market left to revoke");
        break;
      }
      const Clock::time_point r0 = Clock::now();
      cluster.cluster().RevokeMarket(victim, /*with_warning=*/true);
      cluster.cluster().DrainEvents();  // warning, revocation, replacements
      const Clock::time_point added = observer.last_node_added();
      if (added > r0) {
        run.layers.AddReplacementSeconds(std::chrono::duration<double>(added - r0).count());
      }
    }
    flint::Result<std::string> answer = flint::Internal("not run");
    const Clock::time_point q0 = Clock::now();
    {
      auto query = run.spans.Span(QueryName(q), op);
      answer = RunQuery(*s.db, q);
    }
    const double seconds = SecondsSince(q0);
    run.layers.Add(before, SampleEngine(cluster, observer, &before));
    if (!answer.ok()) {
      run.report.Check(false, std::string(QueryName(q)) + ": " + answer.status().ToString());
      continue;
    }
    run.report.Check(*answer == reference[qi],
                     std::string(QueryName(q)) + " differs from reference");
    run.report.Op(ClassOf(q), seconds, 1.0);
  }
  run.loop_cpu_seconds = loop.CpuSeconds();
  run.layers.AddShuffleBytesRetained(shuffle_bytes_before, cluster.ctx().shuffles().TotalBytes());
  run.layers.Gauges(cluster);
}

}  // namespace perfbench
