// End-to-end benchmark driver for Flint. Runs one workload as a closed loop
// with one client, checks every answer against a reference, and prints a
// human-readable report followed by one JSON line holding every metric.
//
//   flint_perfbench --workload tpch-interactive|tpch-revocation|batch-pagerank|market-sim
//                   [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--ops N]
//                   [--corrupt-reference] [--print-unit-costs]
//
// Run it from the repository root: market-sim reads its recorded unit costs
// from perfbench/reference/, and traced runs write spans under .bench_out/.
// perfbench/run.py builds this binary and turns its output into the
// benchmark's result line; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/common/log.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

constexpr const char* kSpanDir = ".bench_out";

int Usage(const char* why) {
  std::fprintf(stderr,
               "flint_perfbench: %s\nusage: flint_perfbench --workload "
               "tpch-interactive|tpch-revocation|batch-pagerank|market-sim [--seed N] "
               "[--seconds S] [--trace 0|1] [--tiny] [--ops N] [--corrupt-reference] "
               "[--print-unit-costs]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    char* end = nullptr;
    if (arg == "--tiny") {
      o->tiny = true;
    } else if (arg == "--corrupt-reference") {
      o->corrupt_reference = true;
    } else if (arg == "--print-unit-costs") {
      o->print_unit_costs = true;
    } else if (!value(&v)) {
      return false;
    } else if (arg == "--workload") {
      o->workload = v;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(v, &end);
    } else if (arg == "--ops") {
      o->ops = static_cast<int>(std::strtol(v, &end, 10));
    } else if (arg == "--trace") {
      o->trace = std::string(v) == "1";
      if (std::string(v) != "0" && !o->trace) {
        return false;
      }
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      return false;  // trailing junk or no digits in a numeric flag
    }
  }
  return !o->workload.empty() && o->seconds > 0.0 && o->ops >= 0;
}

// Span name -> layer whose self time it counts toward.
const char* LayerOf(const std::string& span) {
  if (span == "setup" || span == "load" || span == "warmup" || span == "checkpoint_wait" ||
      span == "markets" || span == "reference") {
    return "setup";
  }
  if (span == "cluster_start" || span == "teardown") return "cluster";
  if (span == "round" || span == "job_clean" || span == "job_revoked") return "driver";
  if (span == "revoke_to_replacement") return "revoke";
  if (span == "pagerank") return "job";
  if (span == "sim_batch" || span == "sim_interactive") return "sim";
  if (span == "select_batch" || span == "select_interactive") return "select";
  return "query";  // Q1 .. Q18
}

// Workload-specific names for the generic end-to-end metrics, as the paper
// and the workload descriptions call them.
void PrintNamedMetrics(const Options& o, const Report& r, const LayerExtras& x) {
  auto value = [&r](const std::string& name) {
    for (const Report::Entry& e : r.metrics()) {
      if (e.name == name) {
        return e.value;
      }
    }
    return 0.0;
  };
  auto line = [](const char* name, double v, const char* unit) {
    std::printf("  %-28s %14.6f %s\n", name, v, unit);
  };
  std::printf("%s metrics:\n", o.workload.c_str());
  line("setup_s", value("setup_s"), "s");
  if (o.workload == "tpch-interactive" || o.workload == "tpch-revocation") {
    line("queries_per_s", value("ops_per_s"), "1/s");
    line("short_query_p50_s (Q6)", value("short_op_p50_s"), "s");
    line("medium_query_p50_s (Q3)", value("medium_op_p50_s"), "s");
    line("query_p90_s", value("op_p90_s"), "s");
  } else if (o.workload == "batch-pagerank") {
    line("job_s (one revocation)", value("medium_op_p50_s"), "s");
    line("clean_job_s (no revocation)", value("short_op_p50_s"), "s");
    line("jobs_per_s", value("ops_per_s"), "1/s");
    line("job_p90_s", value("op_p90_s"), "s");
  } else {
    line("sim_trials_per_s", value("ops_per_s"), "1/s");
    line("batch_chunk_p50_s", value("short_op_p50_s"), "s");
    line("interactive_chunk_p50_s", value("medium_op_p50_s"), "s");
    line("chunk_p90_s", value("op_p90_s"), "s");
    line("unit_cost_norm.batch", x.unit_cost_batch, "ratio");
    line("unit_cost_norm.interactive", x.unit_cost_interactive, "ratio");
  }
  line("error_rate",
       r.attempted() > 0 ? static_cast<double>(r.failed()) / static_cast<double>(r.attempted())
                         : 1.0,
       "ratio");
  line("peak_rss_mib", value("peak_rss_mib"), "MiB");
  const size_t n = r.ops();
  const size_t beyond_p90 =
      n == 0 ? 0 : n - 1 - static_cast<size_t>(0.9 * static_cast<double>(n - 1));
  std::printf("  samples: %zu operations; %zu beyond the p90\n", n, beyond_p90);
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    return Usage("bad or missing arguments");
  }
  const std::string& w = options.workload;
  if (w != "tpch-interactive" && w != "tpch-revocation" && w != "batch-pagerank" &&
      w != "market-sim") {
    return Usage("unknown workload");
  }
  flint::SetLogLevel(flint::LogLevel::kError);

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("host: nproc=%u build=%s compiler=%s cluster=%d nodes x %d executor threads\n",
              nproc, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, kNodes, kExecutorThreads);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d%s\n", w.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? " tiny" : "");

  Report report;
  SpanRecorder spans(options.trace);
  LayerTotals layers;
  LayerExtras extras;
  RunContext run{options, report, spans, layers, extras, {}};
  if (w == "tpch-interactive" || w == "tpch-revocation") {
    RunTpch(run, w == "tpch-revocation");
  } else if (w == "batch-pagerank") {
    RunBatchPageRank(run);
  } else {
    RunMarketSim(run);
  }
  if (options.print_unit_costs) {
    return report.failed() == 0 ? 0 : 1;
  }

  const double ops = static_cast<double>(report.ops());
  auto per_op = [ops](double v) { return ops > 0.0 ? v / ops : 0.0; };
  auto per = [](double v, uint64_t n) { return n > 0 ? v / static_cast<double>(n) : 0.0; };
  // End-to-end.
  report.Metric("setup_s", Quantile(run.setup_seconds, 0.5), "s");
  report.Metric("peak_rss_mib", report.peak_rss_mib(), "MiB");
  report.LatencyMetrics();
  // Per layer.
  layers.Emit(report, ops);
  report.Metric("workloads.load_s", per(extras.load_seconds, extras.setups), "s");
  report.Metric("select.batch_pick_s", per(extras.batch_pick_seconds, extras.picks), "s");
  report.Metric("select.interactive_pick_s", per(extras.interactive_pick_seconds, extras.picks),
                "s");
  report.Metric("sim.strategy_s.batch", per(extras.sim_batch_seconds, extras.sim_batch_runs), "s");
  report.Metric("sim.strategy_s.interactive",
                per(extras.sim_interactive_seconds, extras.sim_interactive_runs), "s");
  report.Metric("sim.unit_cost_norm.batch", extras.unit_cost_batch, "ratio");
  report.Metric("sim.unit_cost_norm.interactive", extras.unit_cost_interactive, "ratio");
  report.Metric("process.cpu_s", per_op(run.loop_cpu_seconds), "s");
  std::map<std::string, double> self_by_layer;
  for (const char* layer : {"setup", "cluster", "driver", "query", "revoke", "job", "sim",
                            "select"}) {
    self_by_layer[layer] = 0.0;
  }
  const std::map<std::string, double> self = spans.SelfSeconds();
  for (const auto& [name, seconds] : self) {
    self_by_layer[LayerOf(name)] += seconds;
  }
  for (const auto& [layer, seconds] : self_by_layer) {
    report.Metric("self_s." + layer, per_op(seconds), "s");
  }

  PrintNamedMetrics(options, report, extras);
  if (spans.enabled()) {
    std::printf("span self time (s, whole run):\n");
    for (const auto& [name, seconds] : self) {
      std::printf("  %-24s %-8s %12.6f\n", name.c_str(), LayerOf(name), seconds);
    }
    std::error_code ec;
    std::filesystem::create_directories(kSpanDir, ec);
    const std::string path =
        std::string(kSpanDir) + "/" + w + "-seed" + std::to_string(options.seed) + ".trace.json";
    if (spans.WriteChromeTrace(path)) {
      std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    } else {
      std::printf("spans: could not write %s\n", path.c_str());
    }
  }
  for (const std::string& e : report.errors()) {
    std::printf("error: %s\n", e.c_str());
  }

  const bool correct = report.attempted() > 0 && report.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"ops\": %zu, "
              "\"op_seconds\": %.9g, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), report.ops(),
              report.op_seconds_total());
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Report::Entry& e = report.metrics()[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                e.name.c_str(), e.value, e.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
