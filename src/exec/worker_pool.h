#ifndef RDA_EXEC_WORKER_POOL_H_
#define RDA_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/obs.h"

namespace rda::exec {

// Parallelism knob for the recovery paths (crash recovery, media rebuild,
// parity scrub, archive restore) and for the disk undo of a runtime
// abort. Threaded from DatabaseOptions down to every recovery algorithm
// and to the TransactionManager; 1 (the default) keeps every path on the
// plain serial loop — bit-for-bit identical to a build without the pool.
struct RecoveryOptions {
  uint32_t recovery_threads = 1;
};

// A fixed-width pool of workers driving deterministic ParallelFor loops.
//
// Sharding: ParallelFor(count, fn) splits [0, count) into at most width()
// contiguous chunks — chunk c covers [count*c/W, count*(c+1)/W) — and runs
// each chunk's indexes in ascending order. The partition depends only on
// (count, width), never on timing, so which worker owns which indexes is
// reproducible run to run; only the interleaving BETWEEN chunks varies.
//
// Caller participation: the calling thread executes chunks alongside the
// width()-1 background threads and, in its claiming loop, will finish every
// unclaimed chunk itself. A ParallelFor therefore always completes even if
// all background workers are busy with other jobs — the pool cannot
// deadlock on its own queue (tasks never wait on other tasks).
//
// Error aggregation: a failing index stops its own chunk at that index and
// cancels the remaining indexes of other chunks (best effort, checked
// between indexes). The Status returned is the error of the lowest-numbered
// failing chunk — with a single failing index this is deterministically
// that index's error; with several, cancellation may let an earlier chunk
// skip past its own failure, so any one of the observed errors surfaces.
// kAborted statuses (the cancellation class — e.g. a throttle observing an
// external cancel flag) aggregate separately and NEVER outrank a real
// error: when a chunk error and a cancel race, the caller sees the error.
// At width 1 (or count <= 1) the loop runs inline and stops at the first
// error, exactly like the serial code it replaces.
class WorkerPool {
 public:
  using ShardFn = std::function<Status(uint64_t)>;

  // `width` = total workers including the caller; the pool spawns width-1
  // background threads (0 is clamped to 1: caller-only, always inline).
  explicit WorkerPool(uint32_t width);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs fn(i) for every i in [0, count). Blocks until all chunks finished
  // (or were cancelled after an error). Thread-safe: concurrent
  // ParallelFor calls from different threads share the worker set.
  Status ParallelFor(uint64_t count, const ShardFn& fn);

  uint32_t width() const { return width_; }

  // Hooks the pool into the observability hub (`exec.parallel_fors` /
  // `exec.chunks` counters and exec.parallel_for spans). Null detaches.
  void AttachObs(obs::ObsHub* hub);

 private:
  struct Job;

  void WorkerMain();
  // Claims and runs chunks of `job` until none remain.
  void RunChunks(const std::shared_ptr<Job>& job);

  const uint32_t width_;
  std::mutex mu_;  // Guards queue_ + shutdown_.
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;

  // Observability (null = disabled).
  obs::Counter* parallel_fors_counter_ = nullptr;
  obs::Counter* chunks_counter_ = nullptr;
  obs::SpanCollector* spans_ = nullptr;
};

// Runs fn over [0, count) through `pool`, or — when pool is null or has
// width 1 — inline, in order, stopping at the first error: the exact serial
// loop every recovery path ran before the pool existed. All recovery call
// sites go through this helper so recovery_threads=1 (null pool) is
// guaranteed to stay byte-identical to the pre-pool behavior.
Status RunSharded(WorkerPool* pool, uint64_t count,
                  const WorkerPool::ShardFn& fn);

// Buckets work items by key (a parity group, say) for RunSharded: one
// bucket per key, the buckets in ascending key order, each bucket's items
// in insertion order. Without a pool wider than 1 every item lands in one
// bucket in insertion order, so running the buckets is exactly the serial
// loop over all items.
template <typename Bucket>
class KeyedShards {
 public:
  explicit KeyedShards(const WorkerPool* pool)
      : parallel_(pool != nullptr && pool->width() > 1) {}

  Bucket& At(uint64_t key) { return buckets_[parallel_ ? key : 0]; }

  // The buckets, in ascending key order; index i is RunSharded's shard i.
  std::vector<Bucket*> Shards() {
    std::vector<Bucket*> shards;
    shards.reserve(buckets_.size());
    for (auto& [key, bucket] : buckets_) {
      shards.push_back(&bucket);
    }
    return shards;
  }

 private:
  const bool parallel_;
  std::map<uint64_t, Bucket> buckets_;
};

}  // namespace rda::exec

#endif  // RDA_EXEC_WORKER_POOL_H_
