#ifndef DISC_COMMON_THREAD_POOL_H_
#define DISC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace disc {

// A fixed-size pool of worker threads for data-parallel index-space loops.
//
// The pool exists for DISC's COLLECT fan-out: a batch of independent
// eps-range probes dispatched across lanes, with per-lane accumulators
// merged by the caller afterwards. It is intentionally minimal — no task
// queue, no futures — because every use in this codebase is a blocking
// parallel-for over a dense index range.
//
// Concurrency contract:
//  * ParallelFor may be called from ONE external thread at a time (the pool
//    is not reentrant and not usable from inside its own body).
//  * The body runs as fn(lane, index). `lane` < lanes() and is stable for
//    the duration of one index, so it can address per-lane scratch without
//    synchronization. The calling thread participates as the last lane.
//  * Index-to-lane assignment is load-balanced and therefore NOT
//    deterministic; bodies must write only to per-index or per-lane slots,
//    never to shared state, if the caller needs reproducible results.
//  * The first exception thrown by a body is rethrown on the calling thread
//    after the loop drains; remaining indices may be skipped.
class ThreadPool {
 public:
  // Spawns `workers` threads. Zero workers is valid: ParallelFor then runs
  // entirely on the calling thread with no synchronization at all (as it
  // does for a batch of one on any pool).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of concurrent lanes: workers + the calling thread.
  std::size_t lanes() const { return workers_.size() + 1; }

  // Runs fn(lane, i) for every i in [0, n). Blocks until every index has
  // been executed (or abandoned after an exception). `chunk` is the number
  // of consecutive indices a lane claims per fetch_add: 0 picks the default
  // (8 chunks per lane, good for cheap mildly-skewed bodies such as range
  // probes); pass 1 when per-index costs are wildly uneven — e.g. the
  // engine's one-slide-per-session rounds, where one index may be a heavy
  // slide and its neighbor a trivial one — so no expensive index queues
  // behind another inside one claimed chunk.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& fn,
                   std::size_t chunk = 0) EXCLUDES(mutex_);

 private:
  void WorkerLoop(std::size_t lane) EXCLUDES(mutex_);
  // Claims chunks of the current batch until the range is exhausted.
  void DrainBatch(std::size_t lane) EXCLUDES(mutex_);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // Bumped once per ParallelFor batch.
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  bool shutdown_ GUARDED_BY(mutex_) = false;

  // Descriptor of the in-flight batch. NOT GUARDED_BY(mutex_): the fields
  // are written under mutex_ before the generation_ bump publishes them,
  // and workers read them lock-free only after observing the bump (the
  // mutex release/acquire pair around the bump is the fence). Lock-based
  // analysis cannot express that protocol; changing the publication order
  // here is a data race even though no annotation fires.
  std::size_t batch_n_ = 0;
  std::size_t batch_chunk_ = 1;
  const std::function<void(std::size_t, std::size_t)>* batch_fn_ = nullptr;
  std::atomic<std::size_t> batch_next_{0};
  // Workers still draining the current batch; ParallelFor returns at zero.
  std::size_t workers_active_ GUARDED_BY(mutex_) = 0;
  // First exception thrown by a batch body, rethrown by ParallelFor.
  std::exception_ptr batch_error_ GUARDED_BY(mutex_);
};

// Convenience wrapper: tolerates a null pool (plain sequential loop), which
// lets call sites keep one code path for the 1-thread and N-thread configs.
inline void ParallelFor(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t chunk = 0) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  pool->ParallelFor(n, fn, chunk);
}

}  // namespace disc

#endif  // DISC_COMMON_THREAD_POOL_H_
