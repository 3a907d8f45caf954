// TaskContext: the per-task handle through which RDD computations fetch their
// inputs. It implements the full materialization order Spark uses: cluster
// cache, then saved checkpoint, then recursive recomputation from lineage.

#ifndef SRC_ENGINE_TASK_CONTEXT_H_
#define SRC_ENGINE_TASK_CONTEXT_H_

#include <atomic>
#include <functional>
#include <memory>

#include "src/common/status.h"
#include "src/engine/context.h"
#include "src/engine/rdd.h"

namespace flint {

// Attempt-scoped cancellation flag. The scheduler hands one to every task
// attempt it launches; cancelling the token (losing speculative duplicate,
// watchdog abort) asks the attempt to stop at its next Cancelled() poll.
using CancelToken = std::shared_ptr<std::atomic<bool>>;

inline CancelToken MakeCancelToken() { return std::make_shared<std::atomic<bool>>(false); }

class TaskContext {
 public:
  TaskContext(FlintContext* ctx, std::shared_ptr<NodeState> node,
              CancelToken cancel = nullptr)
      : ctx_(ctx), node_(std::move(node)), cancel_(std::move(cancel)) {}

  // Materializes (rdd, partition): cache -> checkpoint -> recursive compute.
  // On success the partition is cached if the RDD requests caching, and an
  // asynchronous checkpoint write is enqueued if the RDD is marked.
  Result<PartitionPtr> GetPartition(const RddPtr& rdd, int partition);

  // Gathers all map-output buckets of `shuffle_id` for `reduce_part`,
  // charging each remote bucket's transfer time against the PRODUCING node's
  // link (bytes / (capacity / injected slow_factor)) when latency modelling
  // is on. While speculation is enabled, a pull whose modelled transfer
  // would outlast its own budget (spec_multiplier x bytes / the producer's
  // nominal capacity) is abandoned at the budget and classified link-slow
  // (an unhealthy verdict for the producer); the slow producer's outputs
  // are then dropped and kDataLoss returned so the scheduler recomputes
  // them on a healthy node. On kDataLoss, failed_shuffle() reports which
  // shuffle must be re-run.
  Result<std::vector<PartitionPtr>> FetchShuffle(int shuffle_id, int reduce_part);

  // Runs the map side of one shuffle task: produces the reduce-side buckets
  // of (map_rdd, partition) through `info`'s bucket sink. When the map RDD
  // is a streaming operator nothing else needs (uncached, unmarked, sole
  // consumer is the shuffle), the narrow chain above it streams directly
  // into the sink and the map-side partition is never materialized;
  // otherwise the partition materializes through
  // GetPartition and its rows are driven through the same sink. Both paths
  // push identical rows in identical order, so the buckets are
  // bit-identical by construction.
  Result<std::vector<PartitionPtr>> ComputeShuffleBuckets(const RddPtr& map_rdd, int partition,
                                                          const ShuffleInfo& info);

  // True once this task's node has been revoked or its attempt cancelled
  // (speculative loser, watchdog abort); computations poll this at partition
  // boundaries and abort with kUnavailable.
  bool Cancelled() const {
    return node_->revoked.load(std::memory_order_acquire) ||
           (cancel_ != nullptr && cancel_->load(std::memory_order_acquire));
  }

  FlintContext& context() { return *ctx_; }
  NodeId node_id() const { return node_->info.node_id; }
  const std::shared_ptr<NodeState>& node() const { return node_; }
  int failed_shuffle() const { return failed_shuffle_; }

 private:
  FlintContext* ctx_;
  std::shared_ptr<NodeState> node_;
  CancelToken cancel_;
  int failed_shuffle_ = -1;

  // Charges one remote bucket transfer against `producer`'s link. Returns
  // kDeadlineExceeded when the modelled transfer outlasts the pull's budget
  // (after waiting the budget out), kUnavailable when cancelled
  // mid-transfer, OK otherwise.
  Status ChargeLinkTransfer(NodeId producer, uint64_t bytes, double slow_factor, int shuffle_id,
                            int reduce_part);

  // Step 3 of GetPartition: recompute (rdd, partition) from lineage. When
  // `rdd` heads a chain of streaming one-to-one operators whose intermediates
  // are uncached, unmarked, and single-consumer, the whole chain runs as one
  // fused task streaming records through composed sinks (fusion.h); otherwise
  // falls back to rdd->Compute. Fusion breaks at cache, checkpoint, shuffle,
  // and multi-consumer boundaries, where the regular materialization order
  // (cache -> checkpoint -> recursion) takes over for the barrier input.
  Result<PartitionPtr> ComputeFromLineage(const RddPtr& rdd, int partition);

  // Streams `partition` of the fused chain headed by `head` (a streaming
  // operator) into a terminal sink: walks down through elidable
  // intermediates to the barrier, materializes the barrier through
  // GetPartition, asks `terminal_for` for the sink consuming the head's
  // output (given the barrier input, so it can pre-size), composes the
  // operators' adapters top-down onto it, and drives the barrier rows
  // through the stack. Shared by narrow-chain fusion (ComputeFromLineage)
  // and fused map-side bucketing (ComputeShuffleBuckets). Returns the
  // number of operators in the chain.
  Result<size_t> StreamChain(
      const RddPtr& head, int partition,
      const std::function<FusionSink&(const PartitionData& input)>& terminal_for);
};

}  // namespace flint

#endif  // SRC_ENGINE_TASK_CONTEXT_H_
