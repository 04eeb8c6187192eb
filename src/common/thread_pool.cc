#include "common/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"

namespace metalora {

namespace {
// The worker-inline guard: set while a worker executes a task and while a
// caller runs its own ParallelFor chunk, so nested ParallelFor calls run
// inline instead of re-entering the queue.
thread_local bool tls_in_worker_task = false;

// Monotonic process-wide instrumentation (see the header accessors).
std::atomic<int64_t> g_parallel_for_calls{0};
std::atomic<int64_t> g_tasks_scheduled{0};

// Every live pool, for the fork handlers. Heap-held and never destroyed,
// so the handlers stay valid during static destruction.
std::mutex g_pools_mu;
std::vector<ThreadPool*>& LivePools() {
  static auto* pools = new std::vector<ThreadPool*>;
  return *pools;
}

// Holding the registry lock across fork() means the child never inherits
// it mid-update from another thread.
void LockPoolsForFork() { g_pools_mu.lock(); }
void UnlockPoolsAfterFork() { g_pools_mu.unlock(); }
std::once_flag g_atfork_once;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  ML_CHECK_GE(num_threads, 0);
  std::call_once(g_atfork_once, [] {
    ML_CHECK_EQ(pthread_atfork(LockPoolsForFork, UnlockPoolsAfterFork,
                               ThreadPool::AfterForkInChild),
                0);
  });
  {
    std::lock_guard<std::mutex> lock(g_pools_mu);
    LivePools().push_back(this);
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(g_pools_mu);
    std::vector<ThreadPool*>& pools = LivePools();
    pools.erase(std::find(pools.begin(), pools.end(), this));
  }
  {
    std::lock_guard<std::mutex> lock(queue_->mu);
    queue_->stop = true;
  }
  queue_->cv.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::AfterForkInChild() {
  // Only the forking thread exists in the child. Its inherited workers can
  // be neither joined nor destroyed (a joinable std::thread's destructor
  // terminates), and their queue can be neither locked nor destroyed (its
  // mutex may be held by a worker, and destroying a condition variable
  // waits for waiters that are gone). Both are parked, reachable, for the
  // child's lifetime, and each pool starts over with an empty queue and
  // no workers, so it runs its work inline. Tasks still queued belonged to
  // parent threads; nothing in the child waits for them.
  struct Parked {
    std::vector<std::thread> workers;
    std::unique_ptr<TaskQueue> queue;
  };
  static auto* parked = new std::vector<Parked>;
  for (ThreadPool* pool : LivePools()) {
    parked->push_back({std::move(pool->workers_), std::move(pool->queue_)});
    pool->workers_.clear();
    pool->queue_ = std::make_unique<TaskQueue>();
  }
  UnlockPoolsAfterFork();
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
      TaskQueue& q = *queue_;
      std::unique_lock<std::mutex> lock(q.mu);
      q.cv.wait(lock, [&q] { return q.stop || !q.tasks.empty(); });
      if (q.stop && q.tasks.empty()) return;
      task = std::move(q.tasks.front());
      q.tasks.pop();
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
    std::lock_guard<std::mutex> lock(queue_->mu);
    queue_->tasks.push(std::move(task));
  }
  queue_->cv.notify_one();
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             const std::function<void(int64_t, int64_t)>& fn) {
  ML_CHECK_LE(begin, end);
  const int64_t n = end - begin;
  if (n == 0) return;
  g_parallel_for_calls.fetch_add(1, std::memory_order_relaxed);
  const bool nested = tls_in_worker_task;
  // Equal chunks, one per worker plus the caller's; the last may be short
  // but none is empty.
  const int64_t max_chunks =
      nested ? 1 : std::min<int64_t>(n, num_threads() + 1);
  const int64_t chunk = (n + max_chunks - 1) / max_chunks;
  const int64_t num_chunks = (n + chunk - 1) / chunk;

  // The latch is heap-shared with every task: even if the caller wakes and
  // returns the instant the count hits zero, the last worker still holds a
  // live object while it finishes CountDown().
  std::shared_ptr<Latch> latch;
  if (num_chunks > 1) {
    latch = std::make_shared<Latch>(num_chunks - 1);
    g_tasks_scheduled.fetch_add(num_chunks - 1, std::memory_order_relaxed);
    for (int64_t c = 1; c < num_chunks; ++c) {
      const int64_t lo = begin + c * chunk;
      const int64_t hi = std::min(end, lo + chunk);
      std::lock_guard<std::mutex> lock(queue_->mu);
      queue_->tasks.push([&fn, latch, lo, hi] {
        fn(lo, hi);
        latch->CountDown();
      });
      queue_->cv.notify_one();
    }
  }
  // The calling thread takes the first chunk, marked like a worker task.
  tls_in_worker_task = true;
  fn(begin, begin + chunk);
  tls_in_worker_task = nested;
  if (latch != nullptr) latch->Wait();
}

void ThreadPool::ForkJoinReplicas(int n, const std::function<void(int)>& fn) {
  ML_CHECK_GT(n, 0);
  ParallelFor(0, n, [&fn](int64_t lo, int64_t hi) {
    for (int64_t lane = lo; lane < hi; ++lane) fn(static_cast<int>(lane));
  });
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool* pool = [] {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    return new ThreadPool(std::max(0, hw - 1));
  }();
  return *pool;
}

}  // namespace metalora
