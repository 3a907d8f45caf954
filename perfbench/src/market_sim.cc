// market-sim: trace-driven cost simulation (Fig 11a) of the Flint-Batch and
// Flint-Interactive strategies on one thread. The market traces are fixed;
// the seed picks the trial offsets of each simulated chunk and the times at
// which the driver calls the selection policies directly.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfbench/src/bench.h"
#include "src/common/rng.h"
#include "src/select/selection.h"
#include "src/sim/trace_sim.h"
#include "src/trace/market_catalog.h"

namespace perfbench {
namespace {

constexpr uint64_t kMarketSeed = 11;
// Written by perfbench/record_unit_costs.py; relative to the repository root.
constexpr const char* kUnitCostTable = "perfbench/reference/market_sim_unit_costs.txt";
constexpr size_t kNumMarkets = 16;

struct Chunk {
  flint::StrategyConfig config;
  std::string answer;  // exact text of the chunk's StrategyResult
};

std::string Fingerprint(const flint::StrategyResult& r) {
  return Hex(r.mean_factor) + "," + Hex(r.factor_stddev) + "," + Hex(r.mean_cost) + "," +
         Hex(r.normalized_unit_cost) + "," + Hex(r.mean_revocation_events) + "," +
         Hex(r.mean_markets_used);
}

std::string Picks(const flint::Result<flint::MarketEvaluation>& batch,
                  const flint::Result<flint::MixEvaluation>& mix) {
  std::string out = batch.ok() ? std::to_string(batch->id) : batch.status().ToString();
  out += "|";
  if (mix.ok()) {
    for (flint::MarketId id : mix->markets) {
      out += std::to_string(id) + ",";
    }
  } else {
    out += mix.status().ToString();
  }
  return out;
}

// Recorded unit costs: one "seed batch interactive" line per seed, values
// in %a hex. Returns false when the seed is not in the table.
bool RecordedUnitCosts(const std::string& path, uint64_t seed, std::string* batch,
                       std::string* interactive) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    uint64_t s = 0;
    std::string b;
    std::string i;
    if (fields >> s >> b >> i && s == seed) {
      *batch = b;
      *interactive = i;
      return true;
    }
  }
  return false;
}

}  // namespace

void RunMarketSim(RunContext& run) {
  const Options& options = run.options;
  constexpr int kSetups = 15;
  std::unique_ptr<flint::Marketplace> marketplace;
  for (int k = 0; k < kSetups; ++k) {
    marketplace.reset();
    auto span = run.spans.Span("setup", 0);
    const Clock::time_point t0 = Clock::now();
    marketplace = std::make_unique<flint::Marketplace>(
        flint::RegionMarkets(kNumMarkets, kMarketSeed), 0.35, kMarketSeed);
    run.setup_seconds.push_back(SecondsSince(t0));
    ++run.extras.setups;
  }

  flint::TraceSimulator sim(marketplace.get());
  const flint::CanonicalJob job;
  flint::JobProfile profile;
  profile.delta_hours = job.delta_hours();
  profile.rd_hours = job.rd_hours;
  const flint::ServerSelector selector(marketplace.get(), flint::SelectionConfig{});

  // The seed fixes `chunk_seeds` chunks per strategy and as many pick times;
  // the measuring loop cycles through them, so every chunk and pick repeats
  // one computed in the reference pass.
  const size_t chunk_seeds = options.tiny ? 2 : 32;
  const int trials = options.tiny ? 1 : 8;
  constexpr flint::SelectionPolicyKind kPolicies[] = {
      flint::SelectionPolicyKind::kFlintBatch, flint::SelectionPolicyKind::kFlintInteractive};
  std::vector<Chunk> chunks[2];  // per entry of kPolicies
  double unit_cost[2] = {0.0, 0.0};
  flint::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 4);
  std::vector<flint::SimTime> pick_times(chunk_seeds);
  std::vector<std::string> pick_answers(chunk_seeds);
  const double window = flint::SelectionConfig{}.history_window;
  const double trace_hours = 24.0 * 180.0;
  {
    auto span = run.spans.Span("reference", 0);
    for (size_t i = 0; i < chunk_seeds; ++i) {
      const uint64_t seed = rng.NextU64();
      for (int s = 0; s < 2; ++s) {
        Chunk c;
        c.config.policy = kPolicies[s];
        c.config.trials = trials;
        c.config.seed = seed;
        const flint::StrategyResult r = sim.Run(job, c.config);
        c.answer = Fingerprint(r);
        unit_cost[s] += r.normalized_unit_cost / static_cast<double>(chunk_seeds);
        chunks[s].push_back(std::move(c));
      }
      pick_times[i] = window + rng.NextDouble() * (trace_hours - 2.0 * window);
      pick_answers[i] = Picks(selector.SelectBatch(pick_times[i], profile),
                              selector.SelectInteractive(pick_times[i], profile));
    }
  }
  const double unit_cost_batch = unit_cost[0];
  const double unit_cost_interactive = unit_cost[1];
  run.extras.unit_cost_batch = unit_cost_batch;
  run.extras.unit_cost_interactive = unit_cost_interactive;
  if (options.print_unit_costs) {
    std::printf("%llu %s %s\n", static_cast<unsigned long long>(options.seed),
                Hex(unit_cost_batch).c_str(), Hex(unit_cost_interactive).c_str());
    return;
  }
  std::string recorded_batch;
  std::string recorded_interactive;
  // The table holds full-size unit costs; tiny runs simulate other chunks.
  if (!options.tiny && RecordedUnitCosts(kUnitCostTable, options.seed,
                                         &recorded_batch, &recorded_interactive)) {
    std::printf("unit costs: checked against the recorded values for seed %llu\n",
                static_cast<unsigned long long>(options.seed));
    run.report.Check(Hex(unit_cost_batch) == recorded_batch,
                     "Flint-Batch unit cost " + Hex(unit_cost_batch) + " != recorded " +
                         recorded_batch);
    run.report.Check(Hex(unit_cost_interactive) == recorded_interactive,
                     "Flint-Interactive unit cost " + Hex(unit_cost_interactive) +
                         " != recorded " + recorded_interactive);
  } else {
    std::printf("unit costs: seed %llu checked run to run only (tiny, or not recorded)\n",
                static_cast<unsigned long long>(options.seed));
  }
  if (options.corrupt_reference) {
    for (Chunk& c : chunks[0]) {
      c.answer += "x";
    }
  }

  // One operation is one TraceSimulator::Run chunk; chunks alternate
  // between the two strategies, and each pair is followed by one timed call
  // to each selection policy.
  OpLoop loop(options, /*min_ops=*/100);
  for (size_t op = 0; loop.Continue(op); ++op) {
    const size_t i = (op / 2) % chunk_seeds;
    const bool is_batch = op % 2 == 0;
    const Chunk& c = chunks[is_batch ? 0 : 1][i];
    auto chunk_span = run.spans.Span(is_batch ? "sim_batch" : "sim_interactive", op);
    const Clock::time_point t0 = Clock::now();
    const flint::StrategyResult r = sim.Run(job, c.config);
    const double seconds = SecondsSince(t0);
    if (is_batch) {
      run.extras.sim_batch_seconds += seconds;
      ++run.extras.sim_batch_runs;
    } else {
      run.extras.sim_interactive_seconds += seconds;
      ++run.extras.sim_interactive_runs;
    }
    run.report.Check(Fingerprint(r) == c.answer,
                     std::string(is_batch ? "Flint-Batch" : "Flint-Interactive") +
                         " chunk differs from reference");
    run.report.Op(is_batch ? OpClass::kShort : OpClass::kMedium, seconds, trials);
    if (is_batch) {
      continue;
    }
    flint::Result<flint::MarketEvaluation> batch_pick = flint::Internal("not run");
    flint::Result<flint::MixEvaluation> mix_pick = flint::Internal("not run");
    {
      auto span = run.spans.Span("select_batch", op);
      const Clock::time_point p0 = Clock::now();
      batch_pick = selector.SelectBatch(pick_times[i], profile);
      run.extras.batch_pick_seconds += SecondsSince(p0);
    }
    {
      auto span = run.spans.Span("select_interactive", op);
      const Clock::time_point p0 = Clock::now();
      mix_pick = selector.SelectInteractive(pick_times[i], profile);
      run.extras.interactive_pick_seconds += SecondsSince(p0);
    }
    ++run.extras.picks;
    run.report.Check(Picks(batch_pick, mix_pick) == pick_answers[i],
                     "market selection differs from reference");
  }
  run.loop_cpu_seconds = loop.CpuSeconds();
}

}  // namespace perfbench
