// A small fixed-size thread pool plus a ParallelFor helper.
//
// Kernels call ParallelFor with a grain size; on single-core machines (or
// when the pool has no workers) the loop runs inline with zero overhead.
// Code already running inside a pool task also runs ParallelFor inline:
// a blocked fork from a worker could otherwise wait on chunks that sit in
// the queue behind the very tasks occupying every worker (deadlock), and
// inline nesting keeps per-task work deterministic for the eval blocks
// (autograd::ParallelApplyNoGrad) and the trainer's replica lanes
// (ForkJoinReplicas) built on Schedule().
//
// Pools are fork-aware: a child process forked after a pool started has
// none of its worker threads, so a pthread_atfork child handler drops
// every pool in the child to zero workers and the child's kernels run
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

  /// Runs fn(begin..end) partitioned into contiguous chunks across the pool,
  /// blocking until all chunks finish. `grain` is the minimum chunk size;
  /// small ranges, zero-worker pools, and calls made from inside a pool task
  /// run inline.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// Replica-group fork/join: runs fn(0), fn(1), ..., fn(n-1) — one
  /// invocation per replica lane — and blocks until all of them finish.
  /// Lanes 1..n-1 are scheduled onto the pool; lane 0 runs on the calling
  /// thread. Every lane (including lane 0) executes with the worker-inline
  /// guard set, so kernels called inside a lane (ParallelFor,
  /// ParallelApplyNoGrad) run inline on that lane's thread instead of
  /// fanning back onto the pool — each lane is one deterministic
  /// single-threaded stream, which is what the data-parallel trainer's
  /// bit-identity contract needs.
  ///
  /// Lanes must not block on each other (they only meet at the join) and
  /// must touch pairwise-disjoint mutable state. With zero workers, or when
  /// already inside a pool task, lanes run sequentially 0..n-1 on the
  /// caller — the same per-lane instruction streams, so results are
  /// identical to the threaded schedule.
  void ForkJoinReplicas(int n, const std::function<void(int)>& fn);

  /// True while the calling thread is executing a task scheduled on *any*
  /// ThreadPool (workers mark themselves for the duration of each task).
  static bool InWorkerThread();

  /// Process-wide count of ParallelFor invocations across every pool,
  /// including calls that ran inline (small ranges, zero workers, nested).
  /// Lets tests assert that a kernel routes through ParallelFor without
  /// depending on the machine's core count.
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

/// Process-wide pool used by tensor kernels. First call creates it with
/// hardware_concurrency() - 1 workers (0 on single-core machines).
ThreadPool& GlobalThreadPool();

/// Convenience wrapper over GlobalThreadPool().ParallelFor.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

}  // namespace metalora

#endif  // METALORA_COMMON_THREAD_POOL_H_
