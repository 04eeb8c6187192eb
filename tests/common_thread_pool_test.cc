// ThreadPool correctness, with emphasis on completion-signalling: the
// original ParallelFor synchronized on a stack-local mutex/cv pair that the
// caller could destroy between a worker's counter decrement and its notify
// (use-after-scope). The stress tests here hammer that window; run them
// under TSan (see the tsan CI job) to make the regression loud.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

namespace metalora {
namespace {

TEST(LatchTest, CountsDownToZero) {
  Latch latch(3);
  EXPECT_FALSE(latch.Done());
  latch.CountDown();
  latch.CountDown();
  EXPECT_FALSE(latch.Done());
  latch.CountDown();
  EXPECT_TRUE(latch.Done());
  latch.Wait();  // already zero: returns immediately
}

TEST(LatchTest, WaitBlocksUntilLastCountDown) {
  Latch latch(1);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    latch.Wait();
    released.store(true);
  });
  EXPECT_FALSE(released.load());
  latch.CountDown();
  waiter.join();
  EXPECT_TRUE(released.load());
}

TEST(ThreadPoolTest, ScheduleRunsEveryTask) {
  ThreadPool pool(3);
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  auto latch = std::make_shared<Latch>(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Schedule([&ran, latch] {
      ran.fetch_add(1);
      latch->CountDown();
    });
  }
  latch->Wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsScheduleInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  bool ran = false;
  pool.Schedule([&] {
    ran = true;
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  // Inline execution: complete before Schedule returns, no latch needed.
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsParallelForInline) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(16, 0);
  pool.ParallelFor(0, 16, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, kN, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1);
}

// Regression stress for the completion race: thousands of short ParallelFor
// calls whose caller returns (and would have destroyed the old stack-local
// mutex/cv) the instant the counter hits zero, while the last worker may
// still be inside the notify. With the shared-latch fix TSan stays quiet
// and nothing crashes.
TEST(ThreadPoolTest, ParallelForCompletionStress) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  for (int iter = 0; iter < 4000; ++iter) {
    pool.ParallelFor(0, 8, [&](int64_t lo, int64_t hi) {
      total.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 4000 * 8);
}

// Concurrent callers from several external threads, each issuing short
// ParallelFor calls against one shared pool — the pattern of several
// threads each running eval blocks through ParallelApplyNoGrad.
TEST(ThreadPoolTest, ParallelForConcurrentCallersStress) {
  ThreadPool pool(4);
  constexpr int kCallers = 3;
  constexpr int kIters = 500;
  std::atomic<int64_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int iter = 0; iter < kIters; ++iter) {
        pool.ParallelFor(0, 16, [&](int64_t lo, int64_t hi) {
          total.fetch_add(hi - lo, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), int64_t{kCallers} * kIters * 16);
}

TEST(ThreadPoolTest, InWorkerThreadMarksTaskExecution) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(2);
  std::atomic<bool> marked{false};
  auto latch = std::make_shared<Latch>(1);
  pool.Schedule([&marked, latch] {
    marked.store(ThreadPool::InWorkerThread());
    latch->CountDown();
  });
  latch->Wait();
  EXPECT_TRUE(marked.load());
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

// A ParallelFor issued from inside a pool task must run inline on that
// worker: if it forked, its chunks would queue behind the tasks already
// occupying every worker and the fork could deadlock. This test would hang
// without the inline guard (1 worker, task forks from inside it).
TEST(ThreadPoolTest, NestedParallelForRunsInlineOnWorker) {
  ThreadPool pool(1);
  std::atomic<int64_t> sum{0};
  auto latch = std::make_shared<Latch>(1);
  pool.Schedule([&sum, &pool, latch] {
    const std::thread::id worker = std::this_thread::get_id();
    pool.ParallelFor(0, 32, [&](int64_t lo, int64_t hi) {
      EXPECT_EQ(std::this_thread::get_id(), worker);
      sum.fetch_add(hi - lo);
    });
    latch->CountDown();
  });
  latch->Wait();
  EXPECT_EQ(sum.load(), 32);
}

TEST(ForkJoinReplicasTest, RunsEveryLaneExactlyOnce) {
  ThreadPool pool(3);
  constexpr int kLanes = 8;  // more lanes than workers: excess lanes queue
  std::vector<std::atomic<int>> ran(kLanes);
  for (auto& r : ran) r.store(0);
  pool.ForkJoinReplicas(kLanes, [&](int lane) {
    ASSERT_GE(lane, 0);
    ASSERT_LT(lane, kLanes);
    ran[static_cast<size_t>(lane)].fetch_add(1);
  });
  for (int lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(ran[static_cast<size_t>(lane)].load(), 1) << "lane " << lane;
  }
}

TEST(ForkJoinReplicasTest, ZeroWorkerPoolRunsLanesInOrder) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  pool.ForkJoinReplicas(4, [&](int lane) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(lane);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ForkJoinReplicasTest, LanesRunWithWorkerInlineGuardSet) {
  // Every lane — scheduled or caller-run — must see the inline-kernel
  // environment: nested ParallelFor stays on the lane's own thread.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> guard_ok(3);
  for (auto& g : guard_ok) g.store(0);
  pool.ForkJoinReplicas(3, [&](int lane) {
    guard_ok[static_cast<size_t>(lane)].store(
        ThreadPool::InWorkerThread() ? 1 : 0);
    const std::thread::id self = std::this_thread::get_id();
    pool.ParallelFor(0, 64, [&](int64_t, int64_t) {
      EXPECT_EQ(std::this_thread::get_id(), self);
    });
  });
  for (int lane = 0; lane < 3; ++lane) {
    EXPECT_EQ(guard_ok[static_cast<size_t>(lane)].load(), 1)
        << "lane " << lane << " ran without the worker-inline guard";
  }
  // The guard is restored after the join on the calling thread.
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ForkJoinReplicasTest, NestedForkRunsSerially) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ForkJoinReplicas(2, [&](int) {
    const std::thread::id self = std::this_thread::get_id();
    // A fork from inside a lane must not re-enter the queue (the outer
    // lanes may occupy every worker): it runs its lanes inline.
    pool.ForkJoinReplicas(3, [&](int) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 6);
}

TEST(ForkJoinReplicasTest, SingleLaneRunsOnCaller) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  int ran = 0;
  pool.ForkJoinReplicas(1, [&](int lane) {
    EXPECT_EQ(lane, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(ForkJoinReplicasTest, ConcurrentWritesToDisjointSlotsStress) {
  // TSan coverage for the trainer's usage pattern: each lane bumps its own
  // arena-like slot many times while the others do the same.
  ThreadPool pool(3);
  constexpr int kLanes = 4, kIters = 200;
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<int64_t> slot(kLanes, 0);
    pool.ForkJoinReplicas(kLanes, [&](int lane) {
      for (int i = 0; i < kIters; ++i) ++slot[static_cast<size_t>(lane)];
    });
    for (int lane = 0; lane < kLanes; ++lane) {
      ASSERT_EQ(slot[static_cast<size_t>(lane)], kIters);
    }
  }
}

// A child forked after pools have started inherits none of their worker
// threads. The atfork child handler drops every pool to zero workers, so
// the child's ParallelFor runs inline and returns instead of waiting on
// chunks nobody will run, and deleting an inherited pool does not try to
// stop workers it does not have. A hang would show as the child's alarm
// killing it. The parent's pools keep their workers.
TEST(ThreadPoolForkTest, ForkedChildRunsParallelForInline) {
  ThreadPool pool(2);
  auto* doomed = new ThreadPool(2);
  std::atomic<int64_t> warm{0};
  pool.ParallelFor(0, 64, [&](int64_t lo, int64_t hi) { warm += hi - lo; });
  doomed->ParallelFor(0, 64, [&](int64_t lo, int64_t hi) { warm += hi - lo; });
  GlobalThreadPool().ParallelFor(
      0, 64, [&](int64_t lo, int64_t hi) { warm += hi - lo; });
  ASSERT_EQ(warm.load(), 192);
  std::fflush(nullptr);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    alarm(60);
    bool ok = pool.num_threads() == 0 && doomed->num_threads() == 0 &&
              GlobalThreadPool().num_threads() == 0;
    int64_t sum = 0;
    pool.ParallelFor(0, 1000, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) sum += i;
    });
    GlobalThreadPool().ParallelFor(0, 1000, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) sum += i;
    });
    delete doomed;
    ok = ok && sum == 2 * 499500;
    _exit(ok ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status)
                                                         : 0);
  EXPECT_EQ(WEXITSTATUS(status), 0);

  EXPECT_EQ(pool.num_threads(), 2);
  std::atomic<int64_t> after{0};
  pool.ParallelFor(0, 64, [&](int64_t lo, int64_t hi) { after += hi - lo; });
  EXPECT_EQ(after.load(), 64);
  delete doomed;
}

}  // namespace
}  // namespace metalora
