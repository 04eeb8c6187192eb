#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"

namespace metalora {

namespace {
// Set while a worker executes a task (or a replica lane runs), so nested
// ParallelFor calls run inline instead of re-entering the queue.
thread_local bool tls_in_worker_task = false;

// Monotonic process-wide instrumentation (see the header accessors).
std::atomic<int64_t> g_parallel_for_calls{0};
std::atomic<int64_t> g_tasks_scheduled{0};
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  ML_CHECK_GE(num_threads, 0);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::InWorkerThread() { return tls_in_worker_task; }

int64_t ThreadPool::TotalParallelForCalls() {
  return g_parallel_for_calls.load(std::memory_order_relaxed);
}

int64_t ThreadPool::TotalTasksScheduled() {
  return g_tasks_scheduled.load(std::memory_order_relaxed);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    tls_in_worker_task = true;
    task();
    tls_in_worker_task = false;
  }
}

void ThreadPool::Schedule(std::function<void()> task) {
  ML_CHECK(task != nullptr);
  if (num_threads() == 0) {
    task();
    return;
  }
  g_tasks_scheduled.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  ML_CHECK_LE(begin, end);
  ML_CHECK_GT(grain, 0);
  const int64_t n = end - begin;
  if (n == 0) return;
  g_parallel_for_calls.fetch_add(1, std::memory_order_relaxed);
  const int nthreads = num_threads();
  if (nthreads == 0 || n <= grain || tls_in_worker_task) {
    fn(begin, end);
    return;
  }
  const int64_t max_chunks = (n + grain - 1) / grain;
  const int64_t num_chunks = std::min<int64_t>(max_chunks, nthreads + 1);
  const int64_t chunk = (n + num_chunks - 1) / num_chunks;

  // The latch is heap-shared with every task: even if the caller wakes and
  // returns the instant the count hits zero, the last worker still holds a
  // live object while it finishes CountDown().
  g_tasks_scheduled.fetch_add(num_chunks - 1, std::memory_order_relaxed);
  auto latch = std::make_shared<Latch>(num_chunks - 1);
  for (int64_t c = 1; c < num_chunks; ++c) {
    const int64_t lo = begin + c * chunk;
    const int64_t hi = std::min(end, lo + chunk);
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push([&fn, latch, lo, hi] {
      fn(lo, hi);
      latch->CountDown();
    });
    cv_.notify_one();
  }
  // The calling thread takes the first chunk.
  fn(begin, std::min(end, begin + chunk));
  latch->Wait();
}

void ThreadPool::ForkJoinReplicas(int n, const std::function<void(int)>& fn) {
  ML_CHECK_GT(n, 0);
  ML_CHECK(fn != nullptr);
  // Zero workers or nested fork: one thread runs every lane, in lane order.
  // The guard is still set so lane bodies see the same inline-kernel
  // environment as the threaded schedule.
  if (num_threads() == 0 || tls_in_worker_task) {
    const bool prev = tls_in_worker_task;
    tls_in_worker_task = true;
    for (int lane = 0; lane < n; ++lane) fn(lane);
    tls_in_worker_task = prev;
    return;
  }
  g_tasks_scheduled.fetch_add(n - 1, std::memory_order_relaxed);
  auto latch = std::make_shared<Latch>(n - 1);
  for (int lane = 1; lane < n; ++lane) {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push([&fn, latch, lane] {
      fn(lane);
      latch->CountDown();
    });
    cv_.notify_one();
  }
  // Lane 0 belongs to the caller. Mark it like a worker task so its kernels
  // run inline — otherwise lane 0's ParallelFor would queue chunks behind
  // the very lane tasks occupying the workers.
  tls_in_worker_task = true;
  fn(0);
  tls_in_worker_task = false;
  latch->Wait();
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool* pool = [] {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    return new ThreadPool(std::max(0, hw - 1));
  }();
  return *pool;
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  GlobalThreadPool().ParallelFor(begin, end, grain, fn);
}

}  // namespace metalora
