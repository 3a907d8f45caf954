#include "src/engine/task_context.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/log.h"
#include "src/engine/fusion.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

// flint-lint: allow-file(det-wallclock) compute timing feeds metrics and the health scorer, never partition contents

namespace flint {

namespace {

// True if `rdd` is a streaming operator over exactly one narrow parent, i.e.
// it can sit in a fused chain (as its head or as an intermediate).
bool StreamingOperator(const RddPtr& rdd) {
  return rdd->fusion_ops() != nullptr && rdd->deps().size() == 1 &&
         rdd->deps()[0].type == DepType::kNarrowOneToOne && rdd->deps()[0].parent != nullptr;
}

// True if `rdd` can be elided as an intermediate of a fused chain: a
// streaming operator whose output nothing else needs — not cached, not
// checkpoint-marked, and no other live consumer. (A cached/marked/shared
// intermediate must be materialized on its own so the cache, the checkpoint
// writer, or the other consumer sees it.) These are the fusion barriers, and
// the only route to the unfused paths.
bool FusableIntermediate(const RddPtr& rdd) {
  return StreamingOperator(rdd) && !rdd->should_cache() &&
         rdd->checkpoint_state() == CheckpointState::kNone && rdd->consumer_count() <= 1;
}

}  // namespace

Result<PartitionPtr> TaskContext::GetPartition(const RddPtr& rdd, int partition) {
  if (Cancelled()) {
    return Unavailable("node revoked");
  }
  if (partition < 0 || partition >= rdd->num_partitions()) {
    return InvalidArgument("partition " + std::to_string(partition) + " out of range for rdd " +
                           rdd->name());
  }
  EngineCounters& counters = ctx_->counters();

  // 1. Cluster cache.
  const BlockKey key{rdd->id(), partition};
  if (PartitionPtr cached = ctx_->LookupBlock(key, node_id()); cached != nullptr) {
    counters.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }
  counters.cache_misses.fetch_add(1, std::memory_order_relaxed);

  // 2. Saved checkpoint in the DFS. The restore is verified (manifest +
  // per-partition checksum); a missing or corrupt checkpoint demotes the RDD
  // back to kNone inside RestoreFromCheckpoint and we fall through to
  // lineage recomputation below.
  if (rdd->checkpoint_state() == CheckpointState::kSaved) {
    auto restored = ctx_->RestoreFromCheckpoint(rdd, partition);
    if (restored.ok()) {
      PartitionPtr data = std::move(restored).value();
      if (rdd->should_cache()) {
        ctx_->StoreBlock(key, node_id(), data);
      }
      return data;
    }
  }

  // 3. Recompute from lineage (fused when the chain allows it).
  const auto t0 = WallClock::now();
  Result<PartitionPtr> computed = ComputeFromLineage(rdd, partition);
  if (!computed.ok()) {
    return computed.status();
  }
  const double seconds = WallDuration(WallClock::now() - t0).count();
  if (Cancelled()) {
    return Unavailable("node revoked during compute");
  }
  ctx_->NotifyPartitionComputed(rdd, partition, seconds);

  PartitionPtr data = std::move(computed).value();
  if (rdd->should_cache()) {
    ctx_->StoreBlock(key, node_id(), data);
  }
  if (rdd->checkpoint_state() == CheckpointState::kMarked &&
      !ctx_->dfs().Exists(rdd->CheckpointPath(partition))) {
    // Partition-level checkpoint write at task completion (paper Sec 4). The
    // paper spawns an asynchronous checkpoint task; since those tasks
    // "consume CPU and I/O resources that proportionally degrade the
    // performance of other tasks", we charge the DFS transfer inline, which
    // models the same resource consumption deterministically.
    (void)ctx_->WriteCheckpointData(rdd, partition, data);
  }
  return data;
}

Result<size_t> TaskContext::StreamChain(
    const RddPtr& head, int partition,
    const std::function<FusionSink&(const PartitionData& input)>& terminal_for) {
  // chain[0] = head; extend downward through transparent intermediates until
  // a barrier: a source, shuffle consumer, cached/marked RDD, or one with
  // another live consumer.
  std::vector<RddPtr> chain{head};
  RddPtr barrier = head->deps()[0].parent;
  while (FusableIntermediate(barrier)) {
    chain.push_back(barrier);
    barrier = barrier->deps()[0].parent;
  }

  // Materialize the barrier input through the regular path (cluster cache,
  // checkpoint restore, recursive lineage — possibly another fused chain
  // below the barrier).
  FLINT_ASSIGN_OR_RETURN(PartitionPtr input, GetPartition(barrier, partition));

  // Sinks compose top-down: the head's adapter feeds the terminal, each
  // deeper operator's adapter feeds the one above, and the bottom operator
  // drives the barrier rows through the whole stack (and issues the single
  // Flush sweep).
  FusionSink* down = &terminal_for(*input);
  std::vector<std::unique_ptr<FusionSink>> adapters;
  adapters.reserve(chain.size() - 1);
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    adapters.push_back(chain[i]->fusion_ops()->adapt(partition, *down));
    down = adapters.back().get();
  }
  chain.back()->fusion_ops()->drive(partition, *input, *down);
  return chain.size();
}

Result<PartitionPtr> TaskContext::ComputeFromLineage(const RddPtr& rdd, int partition) {
  // The chain head itself must be a streaming operator over one narrow
  // parent; its own cache/checkpoint/consumer state is irrelevant (the head's
  // output IS materialized — GetPartition handles storing it). With no
  // elidable intermediate below it there is nothing to fuse.
  if (!StreamingOperator(rdd) || !FusableIntermediate(rdd->deps()[0].parent)) {
    return rdd->Compute(partition, *this);
  }
  FusionTerminal terminal = rdd->fusion_ops()->make_terminal();
  FLINT_ASSIGN_OR_RETURN(
      const size_t length,
      StreamChain(rdd, partition, [&terminal](const PartitionData&) -> FusionSink& {
        return *terminal.sink;
      }));
  EngineCounters& counters = ctx_->counters();
  counters.fused_chains.fetch_add(1, std::memory_order_relaxed);
  counters.fused_operators_elided.fetch_add(length - 1, std::memory_order_relaxed);
  return terminal.finish();
}

Result<std::vector<PartitionPtr>> TaskContext::ComputeShuffleBuckets(const RddPtr& map_rdd,
                                                                     int partition,
                                                                     const ShuffleInfo& info) {
  if (Cancelled()) {
    return Unavailable("node revoked");
  }
  if (info.make_bucket_sink == nullptr || info.drive_rows == nullptr) {
    return Internal("shuffle " + std::to_string(info.shuffle_id) + " has no bucket sink");
  }
  EngineCounters& counters = ctx_->counters();

  // Fused path: the map RDD qualifies as an elidable streaming intermediate
  // (same predicate as narrow-chain fusion — its sole consumer is the
  // shuffle, and neither the cache nor the checkpoint writer needs its
  // output), so the chain above it drives records straight into the bucket
  // sink and the map-side partition is never built.
  if (FusableIntermediate(map_rdd)) {
    BucketTerminal terminal;
    WallTime t0;
    FLINT_ASSIGN_OR_RETURN(
        const size_t length,
        StreamChain(map_rdd, partition, [&](const PartitionData& input) -> FusionSink& {
          t0 = WallClock::now();
          terminal = info.make_bucket_sink(info.num_reduce_partitions, input.NumRecords());
          return *terminal.sink;
        }));
    const double seconds = WallDuration(WallClock::now() - t0).count();
    if (Cancelled()) {
      return Unavailable("node revoked during compute");
    }
    // The map RDD still "computed" this partition as far as the rest of the
    // engine is concerned (recompute counters, FT-manager checkpoint
    // signals); only the materialization was elided.
    ctx_->NotifyPartitionComputed(map_rdd, partition, seconds);
    counters.shuffle_fused_bucket_chains.fetch_add(1, std::memory_order_relaxed);
    counters.shuffle_rows_bucketed_fused.fetch_add(terminal.rows_in(),
                                                   std::memory_order_relaxed);
    counters.fused_operators_elided.fetch_add(length - 1, std::memory_order_relaxed);
    return terminal.finish();
  }

  // Unfused fallback: materialize (cache -> checkpoint -> lineage) and
  // stream the rows through the same bucket sink.
  FLINT_ASSIGN_OR_RETURN(PartitionPtr input, GetPartition(map_rdd, partition));
  BucketTerminal terminal =
      info.make_bucket_sink(info.num_reduce_partitions, input->NumRecords());
  info.drive_rows(*input, *terminal.sink);
  if (Cancelled()) {
    return Unavailable("node revoked during compute");
  }
  counters.shuffle_rows_bucketed_unfused.fetch_add(terminal.rows_in(),
                                                   std::memory_order_relaxed);
  return terminal.finish();
}

namespace {

Histogram* FetchSecondsHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "flint_net_fetch_seconds", Histogram::DefaultLatencyBounds());
  return h;
}

}  // namespace

Status TaskContext::ChargeLinkTransfer(NodeId producer, uint64_t bytes, double slow_factor,
                                       int shuffle_id, int reduce_part) {
  const EngineConfig& cfg = ctx_->config();
  EngineCounters& counters = ctx_->counters();
  const double capacity = cfg.default_link_bandwidth_bytes_per_s;
  const double factor = std::max(1.0, slow_factor);
  const double effective = capacity > 0.0 ? capacity / factor : 0.0;
  counters.net_fetches.fetch_add(1, std::memory_order_relaxed);
  counters.net_fetch_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const double transfer_s =
      (cfg.model_latency && effective > 0.0) ? static_cast<double>(bytes) / effective : 0.0;
  // The pull's own budget: spec_multiplier x its transfer time at the
  // producer's nominal capacity (an unmodelled pull has none and is never
  // slow).
  const double budget_s =
      transfer_s > 0.0
          ? cfg.speculation.spec_multiplier * static_cast<double>(bytes) / capacity
          : 0.0;
  const bool slow = cfg.speculation.enabled && transfer_s > budget_s;
  // A slow pull still waits out its budget (the consumer cannot know the
  // transfer is doomed until then), then abandons it.
  const double wait_s = slow ? budget_s : transfer_s;
  if (wait_s > 0.0) {
    const auto t0 = WallClock::now();
    while (true) {
      if (Cancelled()) {
        return Unavailable("cancelled during shuffle fetch");
      }
      const double elapsed = WallDuration(WallClock::now() - t0).count();
      if (elapsed >= wait_s) {
        break;
      }
      std::this_thread::sleep_for(WallDuration(std::min(0.001, wait_s - elapsed)));
    }
    counters.net_fetch_wait_nanos.fetch_add(static_cast<int64_t>(wait_s * 1e9),
                                            std::memory_order_relaxed);
  }
  FetchSecondsHistogram()->Observe(wait_s);
  const double ratio = capacity > 0.0 ? std::clamp(effective / capacity, 0.0, 1.0) : 0.0;
  if (!slow) {
    // Degraded but within budget: a healthy verdict, reported with the
    // observed ratio so market costing sees the slow link. Full-speed pulls
    // stay silent — flooding observers with ratio-1.0 samples would just
    // dilute real signal.
    if (ratio < 0.999) {
      ctx_->NotifyLinkSample(producer, ratio, /*slow=*/false);
    }
    return Status::Ok();
  }
  // Classified link-slow: this producer's NIC, not its CPU, is the problem.
  // An unhealthy verdict, so a network-sick node quarantines too.
  counters.net_fetches_slow.fetch_add(1, std::memory_order_relaxed);
  Tracer::Global().RecordInstant("shuffle_fetch_slow", "net",
                                 {{"producer", static_cast<double>(producer)},
                                  {"consumer", static_cast<double>(node_id())},
                                  {"shuffle", static_cast<double>(shuffle_id)},
                                  {"reduce_part", static_cast<double>(reduce_part)},
                                  {"bytes", static_cast<double>(bytes)},
                                  {"timeout_s", budget_s},
                                  {"transfer_s", transfer_s}});
  ctx_->NotifyLinkSample(producer, ratio, /*slow=*/true);
  return DeadlineExceeded("shuffle " + std::to_string(shuffle_id) + " fetch from node " +
                          std::to_string(producer) + " outlasted its " +
                          std::to_string(budget_s) + "s budget");
}

Result<std::vector<PartitionPtr>> TaskContext::FetchShuffle(int shuffle_id, int reduce_part) {
  if (Cancelled()) {
    return Unavailable("node revoked");
  }
  auto fetched = ctx_->shuffles().FetchDetailed(shuffle_id, reduce_part);
  if (!fetched.ok()) {
    if (fetched.status().code() == StatusCode::kDataLoss) {
      failed_shuffle_ = shuffle_id;
    }
    return fetched.status();
  }
  std::vector<PartitionPtr> buckets;
  buckets.reserve(fetched->size());
  for (auto& fb : *fetched) {
    const uint64_t bytes = fb.bucket != nullptr ? fb.bucket->SizeBytes() : 0;
    // Local buckets never cross the network; only remote pulls are charged
    // against the producer's link (and visible to the fetch probe).
    if (fb.node >= 0 && fb.node != node_id()) {
      ShuffleFetchInfo finfo;
      finfo.node = node_id();
      finfo.producer = fb.node;
      finfo.shuffle_id = shuffle_id;
      finfo.reduce_part = reduce_part;
      finfo.bytes = bytes;
      const FetchFaultDirective directive = ctx_->FireFetchProbe(finfo);
      Status pull = directive.fail.ok()
                        ? ChargeLinkTransfer(fb.node, bytes, directive.slow_factor, shuffle_id,
                                             reduce_part)
                        : directive.fail;
      if (!pull.ok()) {
        if (Cancelled()) {
          return Unavailable("cancelled during shuffle fetch");  // this attempt is dead anyway
        }
        // A retry would wait out the budget again: drop the slow producer's
        // outputs so the scheduler's FetchFailed recovery recomputes them
        // on a healthy node instead of refetching into the same black hole.
        const size_t dropped = ctx_->shuffles().DropNodeOutputs(shuffle_id, fb.node);
        ctx_->counters().net_fetch_recomputes.fetch_add(1, std::memory_order_relaxed);
        failed_shuffle_ = shuffle_id;
        return DataLoss("shuffle " + std::to_string(shuffle_id) + " fetch from node " +
                        std::to_string(fb.node) + " failed; dropped " +
                        std::to_string(dropped) + " output(s) for recompute: " +
                        pull.ToString());
      }
    }
    buckets.push_back(std::move(fb.bucket));
  }
  return buckets;
}

}  // namespace flint
