#include "perfbench/src/bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench {

// --- Report ---

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Check(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (errors_.size() < 20) {
      errors_.push_back(why);
    }
  }
}

void Report::Op(OpClass cls, double seconds, double work_units) {
  op_seconds_.push_back(seconds);
  op_class_.push_back(cls);
  work_units_ += work_units;
  if (op_seconds_.size() == kRssOps) {
    peak_rss_mib_ = PeakRssMib();
  }
}

double Report::peak_rss_mib() const {
  return op_seconds_.size() >= kRssOps ? peak_rss_mib_ : PeakRssMib();
}

double Report::op_seconds_total() const {
  double total = 0.0;
  for (double s : op_seconds_) {
    total += s;
  }
  return total;
}

void Report::LatencyMetrics() {
  std::vector<double> short_ops;
  std::vector<double> medium_ops;
  for (size_t i = 0; i < op_seconds_.size(); ++i) {
    if (op_class_[i] == OpClass::kShort) {
      short_ops.push_back(op_seconds_[i]);
    } else if (op_class_[i] == OpClass::kMedium) {
      medium_ops.push_back(op_seconds_[i]);
    }
  }
  const double total = op_seconds_total();
  Metric("ops_per_s", total > 0.0 ? work_units_ / total : 0.0, "1/s");
  Metric("short_op_p50_s", Quantile(short_ops, 0.5), "s");
  Metric("medium_op_p50_s", Quantile(medium_ops, 0.5), "s");
  Metric("op_p90_s", Quantile(op_seconds_, 0.9), "s");
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- SpanRecorder ---

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) {
    spans_.reserve(1 << 14);
  }
}

SpanRecorder::Scope SpanRecorder::Span(const char* name, uint64_t op) {
  if (!enabled_) {
    return Scope(nullptr, -1);
  }
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, SecondsSince(origin_), 0.0, parent, op});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) {
    return;
  }
  recorder_->spans_[static_cast<size_t>(index_)].end = SecondsSince(recorder_->origin_);
  recorder_->open_.pop_back();
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  // Spans nest strictly (one driver thread), so children never overlap and
  // a span's self time is its length minus its children's lengths.
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Record& s : spans_) {
    if (s.parent >= 0) {
      child_seconds[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += (spans_[i].end - spans_[i].start) - child_seconds[i];
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

// --- LayerObserver ---

void LayerObserver::OnCheckpointWritten(const flint::RddPtr&, int, uint64_t,
                                        double write_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  checkpoint_write_seconds_ += write_seconds;
}

void LayerObserver::OnNodeAdded(const flint::NodeInfo&) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_node_added_ = Clock::now();
}

void LayerObserver::OnNodeRevoked(const flint::NodeInfo&) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++revocations_;
}

double LayerObserver::checkpoint_write_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checkpoint_write_seconds_;
}

uint64_t LayerObserver::revocations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return revocations_;
}

Clock::time_point LayerObserver::last_node_added() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_node_added_;
}

ObserverRegistration::ObserverRegistration(flint::FlintCluster* cluster, LayerObserver* observer)
    : cluster_(cluster), observer_(observer) {
  cluster_->ctx().AddObserver(observer_);
}

ObserverRegistration::~ObserverRegistration() {
  cluster_->ctx().DrainExecutors();
  cluster_->ctx().RemoveObserver(observer_);
}

// --- engine sampling ---

EngineSample SampleEngine(flint::FlintCluster& cluster, const LayerObserver& observer,
                          const EngineSample* previous) {
  const flint::EngineCounters& c = cluster.ctx().counters();
  EngineSample s;
  s.tasks = c.tasks_run.load();
  s.task_retries = c.task_retries.load();
  s.speculated = c.tasks_speculated.load();
  s.speculative_wins = c.speculative_wins.load();
  s.recomputed = c.partitions_recomputed.load();
  s.checkpoint_writes = c.checkpoint_writes.load();
  s.checkpoint_bytes = c.checkpoint_bytes.load();
  s.restores = c.checkpoint_reads.load();
  s.restore_fallbacks = c.restores_fallen_back.load();
  s.net_fetch_bytes = c.net_fetch_bytes.load();
  s.compute_nanos = c.compute_nanos.load();
  s.queue_wait_nanos = c.task_queue_wait_nanos.load();
  s.acquisition_wait_nanos = c.acquisition_wait_nanos.load();
  s.net_fetch_wait_nanos = c.net_fetch_wait_nanos.load();
  s.dfs_bytes_written = cluster.dfs().BytesWritten();
  s.dfs_bytes_read = cluster.dfs().BytesRead();
  s.checkpoint_write_seconds = observer.checkpoint_write_seconds();
  s.revocations = observer.revocations();
  for (const auto& node : cluster.ctx().LiveNodeStates()) {
    s.cache[node->info.node_id] = node->blocks->GetCacheCounters();
  }
  if (previous != nullptr) {
    for (const auto& [id, counters] : previous->cache) {
      if (s.cache.count(id) == 0) {
        if (auto node = cluster.ctx().GetNodeState(id)) {
          s.cache[id] = node->blocks->GetCacheCounters();
        }
      }
    }
  }
  return s;
}

// --- LayerTotals ---

void LayerTotals::Add(const EngineSample& before, const EngineSample& after) {
  auto add = [](auto& sum, auto b, auto a) { sum += a >= b ? a - b : 0; };
  add(sum_.tasks, before.tasks, after.tasks);
  add(sum_.task_retries, before.task_retries, after.task_retries);
  add(sum_.speculated, before.speculated, after.speculated);
  add(sum_.speculative_wins, before.speculative_wins, after.speculative_wins);
  add(sum_.recomputed, before.recomputed, after.recomputed);
  add(sum_.checkpoint_writes, before.checkpoint_writes, after.checkpoint_writes);
  add(sum_.checkpoint_bytes, before.checkpoint_bytes, after.checkpoint_bytes);
  add(sum_.restores, before.restores, after.restores);
  add(sum_.restore_fallbacks, before.restore_fallbacks, after.restore_fallbacks);
  add(sum_.net_fetch_bytes, before.net_fetch_bytes, after.net_fetch_bytes);
  add(sum_.compute_nanos, before.compute_nanos, after.compute_nanos);
  add(sum_.queue_wait_nanos, before.queue_wait_nanos, after.queue_wait_nanos);
  add(sum_.acquisition_wait_nanos, before.acquisition_wait_nanos, after.acquisition_wait_nanos);
  add(sum_.net_fetch_wait_nanos, before.net_fetch_wait_nanos, after.net_fetch_wait_nanos);
  add(sum_.dfs_bytes_written, before.dfs_bytes_written, after.dfs_bytes_written);
  add(sum_.dfs_bytes_read, before.dfs_bytes_read, after.dfs_bytes_read);
  add(sum_.revocations, before.revocations, after.revocations);
  sum_.checkpoint_write_seconds +=
      std::max(0.0, after.checkpoint_write_seconds - before.checkpoint_write_seconds);
  for (const auto& [node, now] : after.cache) {
    auto it = before.cache.find(node);
    const flint::BlockManager::CacheCounters base =
        it == before.cache.end() ? flint::BlockManager::CacheCounters{} : it->second;
    add(cache_hits_, base.hits + base.spill_hits, now.hits + now.spill_hits);
    add(cache_misses_, base.misses, now.misses);
    add(evictions_, base.evictions, now.evictions);
  }
}

void LayerTotals::Gauges(flint::FlintCluster& cluster) {
  delta_seconds_ = cluster.ft().CurrentDeltaSeconds();
  tau_seconds_ = cluster.ft().CurrentTauSeconds();
  markets_active_ = static_cast<double>(cluster.nodes().ActiveMarkets().size());
}

void LayerTotals::Emit(Report& report, double ops) const {
  const double n = ops > 0.0 ? ops : 1.0;
  auto per_op = [n](double v) { return v / n; };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double lookups = static_cast<double>(cache_hits_ + cache_misses_);
  report.Metric("engine.tasks", per_op(static_cast<double>(sum_.tasks)), "count");
  report.Metric("engine.compute_s", per_op(sum_.compute_nanos * 1e-9), "s");
  report.Metric("engine.queue_wait_s", per_op(sum_.queue_wait_nanos * 1e-9), "s");
  report.Metric("engine.cache_hit_ratio", ratio(static_cast<double>(cache_hits_), lookups),
                "ratio");
  report.Metric("engine.cache_lookups", per_op(lookups), "count");
  report.Metric("engine.block_evictions", per_op(static_cast<double>(evictions_)), "count");
  report.Metric("engine.net_fetch_bytes", per_op(static_cast<double>(sum_.net_fetch_bytes)),
                "bytes");
  report.Metric("engine.shuffle_bytes_retained",
                per_op(static_cast<double>(shuffle_bytes_retained_)), "bytes");
  report.Metric("engine.net_fetch_s", per_op(sum_.net_fetch_wait_nanos * 1e-9), "s");
  report.Metric("engine.recomputed_partitions", per_op(static_cast<double>(sum_.recomputed)),
                "count");
  report.Metric("engine.acquisition_wait_s", per_op(sum_.acquisition_wait_nanos * 1e-9), "s");
  report.Metric("engine.task_retries", per_op(static_cast<double>(sum_.task_retries)), "count");
  report.Metric("engine.speculative_win_ratio",
                ratio(static_cast<double>(sum_.speculative_wins),
                      static_cast<double>(sum_.speculated)),
                "ratio");
  report.Metric("engine.speculated", per_op(static_cast<double>(sum_.speculated)), "count");
  report.Metric("checkpoint.writes", per_op(static_cast<double>(sum_.checkpoint_writes)),
                "count");
  report.Metric("checkpoint.bytes", per_op(static_cast<double>(sum_.checkpoint_bytes)), "bytes");
  report.Metric("checkpoint.write_s", per_op(sum_.checkpoint_write_seconds), "s");
  report.Metric("checkpoint.restores", per_op(static_cast<double>(sum_.restores)), "count");
  report.Metric("checkpoint.restore_fallbacks",
                per_op(static_cast<double>(sum_.restore_fallbacks)), "count");
  report.Metric("checkpoint.delta_s", delta_seconds_, "s");
  report.Metric("checkpoint.tau_s", tau_seconds_, "s");
  report.Metric("dfs.bytes_written", per_op(static_cast<double>(sum_.dfs_bytes_written)),
                "bytes");
  report.Metric("dfs.bytes_read", per_op(static_cast<double>(sum_.dfs_bytes_read)), "bytes");
  report.Metric("cluster.revocations", per_op(static_cast<double>(sum_.revocations)), "count");
  report.Metric("cluster.replacement_s", per_op(replacement_seconds_), "s");
  report.Metric("core.markets_active", markets_active_, "count");
}

// --- OpLoop ---

OpLoop::OpLoop(const Options& options, size_t min_ops)
    : options_(options),
      min_ops_(min_ops),
      start_(Clock::now()),
      cpu_start_(ProcessCpuSeconds()) {}

double OpLoop::CpuSeconds() const { return ProcessCpuSeconds() - cpu_start_; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool OpLoop::Continue(size_t done) const {
  if (options_.ops > 0) {
    return done < static_cast<size_t>(options_.ops);
  }
  const double elapsed = SecondsSince(start_);
  // Hard cap keeps a slow host inside the per-run time limit.
  if (elapsed >= std::min(3.0 * options_.seconds, 120.0)) {
    return false;
  }
  return elapsed < options_.seconds || done < min_ops_;
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace perfbench
