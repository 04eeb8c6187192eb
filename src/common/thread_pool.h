// A small fixed-size thread pool with one fork/join: ParallelFor.
//
// The library has one parallel axis: the eval blocks of
// autograd::ParallelApplyNoGrad and the trainer's replica lanes
// (ForkJoinReplicas), both built on ParallelFor. Every GEMM, GEMV and conv
// kernel runs on its caller's thread. Every ParallelFor chunk, the
// caller's included, runs with the worker-inline guard set, so anything
// inside a chunk runs serially: a nested ParallelFor runs inline on the
// chunk's thread. That keeps per-chunk work deterministic, and it keeps a
// fork from a worker from waiting on chunks queued behind the very tasks
// occupying every worker (deadlock).
//
// Pools are fork-aware: a child process forked after a pool started has
// none of its worker threads, so a pthread_atfork child handler drops
// every pool in the child to zero workers and the child's ParallelFor runs
// inline instead of waiting forever on a queue nobody drains.
#ifndef METALORA_COMMON_THREAD_POOL_H_
#define METALORA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace metalora {

/// A count-down completion latch. The counter decrement happens under the
/// latch mutex, so a waiter that observes zero holds the same lock the last
/// CountDown() notified under — there is no window where the waiter can
/// return (and destroy the latch) between a worker's decrement and its
/// notify. Share via std::shared_ptr when workers may outlive the waiting
/// stack frame.
class Latch {
 public:
  explicit Latch(int64_t count) : count_(count) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  /// Decrements the counter; the final decrement wakes all waiters.
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ == 0) cv_.notify_all();
  }

  /// Blocks until the counter reaches zero.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

  /// Non-blocking completion check.
  bool Done() {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t count_;
};

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers; 0 means run everything
  /// inline on the calling thread.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. With zero workers the task runs inline before the
  /// call returns; otherwise it runs on some worker at an arbitrary later
  /// time — pair with a Latch to wait for completion.
  void Schedule(std::function<void()> task);

  /// Runs fn(lo, hi) over contiguous chunks covering [begin, end) — at
  /// most one per worker plus one for the caller, which runs the first —
  /// and blocks until all of them finish. Every chunk runs with the
  /// worker-inline guard set; the caller's own value is restored on
  /// return. On a zero-worker pool, and when called from inside a chunk or
  /// pool task, fn(begin, end) runs inline as the only chunk.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// Replica-group fork/join: runs fn(0), fn(1), ..., fn(n-1) — one
  /// invocation per replica lane — as a ParallelFor over lanes, and blocks
  /// until all of them finish. Lane 0 runs on the calling thread. Each
  /// lane is one single-threaded stream whose kernels run inline, which is
  /// what the data-parallel trainer's bit-identity contract needs; a chunk
  /// of several lanes runs them in lane order on one thread.
  ///
  /// Lanes must not block on each other (they only meet at the join) and
  /// must touch pairwise-disjoint mutable state. With zero workers, or when
  /// already inside a chunk or pool task, lanes run sequentially 0..n-1 on
  /// the caller — the same per-lane instruction streams, so results are
  /// identical to the threaded schedule.
  void ForkJoinReplicas(int n, const std::function<void(int)>& fn);

  /// True while the calling thread is executing a task scheduled on *any*
  /// ThreadPool or its own ParallelFor chunk (the worker-inline guard).
  static bool InWorkerThread();

  /// Process-wide count of ParallelFor invocations across every pool,
  /// including calls that ran inline (one element, zero workers, nested)
  /// and ForkJoinReplicas calls. Lets tests assert that a path never
  /// reaches the pool, independently of the machine's core count.
  static int64_t TotalParallelForCalls();

  /// Process-wide count of tasks handed to workers across every pool:
  /// Schedule() calls plus the chunk tasks ParallelFor enqueues. Inline
  /// executions (zero-worker pools, inline ParallelFor) are not counted.
  static int64_t TotalTasksScheduled();

 private:
  void WorkerLoop();

  /// pthread_atfork child handler: drops every live pool to zero workers.
  static void AfterForkInChild();

  /// What workers wait on. Held by pointer so a forked child can park the
  /// inherited queue (see AfterForkInChild) and start from a fresh one.
  struct TaskQueue {
    std::mutex mu;
    std::condition_variable cv;
    std::queue<std::function<void()>> tasks;
    bool stop = false;
  };

  std::unique_ptr<TaskQueue> queue_ = std::make_unique<TaskQueue>();
  std::vector<std::thread> workers_;
};

/// Process-wide pool for eval blocks and replica lanes. First call creates
/// it with hardware_concurrency() - 1 workers (0 on single-core machines).
ThreadPool& GlobalThreadPool();

}  // namespace metalora

#endif  // METALORA_COMMON_THREAD_POOL_H_
