#include "common/thread_pool.h"

#include <algorithm>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace disc {

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::DrainBatch(std::size_t lane) {
  obs::TraceSpan span("pool.drain", obs::TraceLevel::kDetail);
  span.AddArg("lane", lane);
  std::size_t items = 0;
  try {
    for (;;) {
      const std::size_t begin = batch_next_.fetch_add(batch_chunk_);
      if (begin >= batch_n_) {
        span.AddArg("items", items);
        return;
      }
      const std::size_t end = std::min(batch_n_, begin + batch_chunk_);
      // A fired throw lands in the catch below exactly like a throwing
      // body: batch_error_ records it, the cursor parks, ParallelFor
      // rethrows on the calling thread.
      DISC_FAILPOINT("threadpool.dispatch");
      for (std::size_t i = begin; i < end; ++i) (*batch_fn_)(lane, i);
      items += end - begin;
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!batch_error_) batch_error_ = std::current_exception();
    // Park the shared cursor at the end so every lane stops claiming work.
    batch_next_.store(batch_n_);
  }
}

void ThreadPool::ParallelFor(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t chunk) {
  if (n == 0) return;
  // A batch of one gains nothing from a dispatch: it runs on the calling
  // thread as lane 0, like every batch of a pool without workers.
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_n_ = n;
    // Small chunks balance skewed per-index costs (a probe in a dense region
    // costs far more than one in a sparse region); 8 chunks per lane keeps
    // the fetch_add traffic negligible. Callers with wildly uneven bodies
    // override with chunk = 1.
    batch_chunk_ =
        chunk != 0 ? chunk : std::max<std::size_t>(1, n / (lanes() * 8));
    batch_fn_ = &fn;
    batch_next_.store(0);
    batch_error_ = nullptr;
    workers_active_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  DrainBatch(lanes() - 1);  // The calling thread is the last lane.
  std::unique_lock<std::mutex> lock(mutex_);
  // Explicit wait loop (not the predicate overload): thread-safety analysis
  // checks a predicate lambda as a free function and would flag the
  // workers_active_ read as unguarded.
  while (workers_active_ != 0) done_cv_.wait(lock);
  batch_fn_ = nullptr;
  if (batch_error_) {
    std::exception_ptr error = batch_error_;
    batch_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::WorkerLoop(std::size_t lane) {
  // Trace tid 0 belongs to the thread that owns the clusterer; workers are
  // lane + 1 so trace files name lanes deterministically across runs.
  obs::SetThreadTraceTid(static_cast<std::uint32_t>(lane) + 1);
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!shutdown_ && generation_ == seen) start_cv_.wait(lock);
      if (shutdown_) return;
      seen = generation_;
    }
    DrainBatch(lane);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --workers_active_;
    }
    done_cv_.notify_one();
  }
}

}  // namespace disc
