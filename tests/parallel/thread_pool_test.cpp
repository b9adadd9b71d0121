#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/cancellation.hpp"

namespace owlcl {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.waitIdle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.waitIdle();
  SUCCEED();
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] {
    for (int i = 0; i < 10; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  });
  pool.waitIdle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 50; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), (wave + 1) * 50);
  }
}

TEST(ThreadPool, SingleWorkerIsSequential) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) pool.submit([&order, i] { order.push_back(i); });
  pool.waitIdle();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.waitIdle();
  }  // destructor joins
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, RecursiveForkTreeCompletes) {
  // Each task forks two children onto its own deque until depth 10: deep
  // owner-path nesting with thieves taking subtrees.
  ThreadPool pool(4);
  std::atomic<int> tasks{0};
  std::atomic<int> leaves{0};
  std::function<void(int)> fork = [&](int depth) {
    tasks.fetch_add(1, std::memory_order_relaxed);
    if (depth == 10) {
      leaves.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    pool.submit([&fork, depth] { fork(depth + 1); });
    pool.submit([&fork, depth] { fork(depth + 1); });
  };
  pool.submit([&fork] { fork(0); });
  pool.waitIdle();
  EXPECT_EQ(leaves.load(), 1 << 10);
  EXPECT_EQ(tasks.load(), (1 << 11) - 1);
}

TEST(ThreadPool, SingleWorkerNeverSteals) {
  // With no other worker there is no victim: external and nested submits
  // all run on the one worker's own inbox and deque.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i)
    pool.submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  pool.waitIdle();
  EXPECT_EQ(count.load(), 40);
  EXPECT_EQ(pool.stealCount(), 0u);
}

// Every worker has parked by the time the task arrives, so it runs only
// if submit's wake-one signal reaches a sleeper. Polled with a deadline so
// a lost wakeup fails the test instead of hanging waitIdle.
TEST(ThreadPool, SubmitWakesAParkedWorker) {
  ThreadPool pool(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1, std::memory_order_release); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(count.load(), 1) << "no parked worker woke for the submit";
  pool.waitIdle();
}

// --- fault containment -------------------------------------------------------

TEST(ThreadPool, ThrowingTaskDoesNotKillWorker) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task blew up"); });
  EXPECT_THROW(pool.waitIdle(), std::runtime_error);
  // The worker survived: later tasks still run and waitIdle is clean.
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.waitIdle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, TasksAfterThrowingTaskStillRun) {
  // The throwing task must not abandon tasks queued behind it.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.submit([] { throw std::runtime_error("first"); });
  for (int i = 0; i < 10; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_THROW(pool.waitIdle(), std::runtime_error);
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, OnlyFirstExceptionIsRethrownAndCleared) {
  ThreadPool pool(2);
  for (int i = 0; i < 5; ++i)
    pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.waitIdle(), std::runtime_error);
  pool.waitIdle();  // already surfaced: second wait must not rethrow
  SUCCEED();
}

TEST(ThreadPool, ThrowingTaskKeepsWorkerFifo) {
  // A failure in the middle of a one-worker pool's queue must neither
  // drop nor reorder the tasks queued behind it.
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    pool.submit([&order, i] {
      order.push_back(i);
      if (i == 3) throw std::runtime_error("queued task blew up");
    });
  EXPECT_THROW(pool.waitIdle(), std::runtime_error);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  pool.submit([&order] { order.push_back(10); });
  pool.waitIdle();  // exception already surfaced
  EXPECT_EQ(order.size(), 11u);
}

TEST(ThreadPool, ExceptionMessageIsPreserved) {
  ThreadPool pool(1);
  pool.submit([] { throw std::runtime_error("specific failure detail"); });
  try {
    pool.waitIdle();
    FAIL() << "waitIdle should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "specific failure detail");
  }
}

// --- work stealing -----------------------------------------------------------

// One producer, w−1 thieves: the producer task pushes a storm of
// stealable tasks onto its worker's own deque (the lock-free owner path)
// and then stays busy until every one of them has run. Its worker never
// returns to its scheduling loop, so each task can only run via a steal.
// An idle worker may also steal the producer itself from the inbox it was
// injected into, so the steal count is n or n + 1.
TEST(ThreadPool, StealsDrainABlockedProducersDeque) {
  ThreadPool pool(4);
  const int n = 500;
  std::atomic<int> count{0};
  pool.submit([&pool, &count] {
    for (int i = 0; i < n; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    while (count.load(std::memory_order_acquire) < n) std::this_thread::yield();
  });
  pool.waitIdle();
  EXPECT_EQ(count.load(), n);
  EXPECT_GE(pool.stealCount(), static_cast<std::uint64_t>(n));
  EXPECT_LE(pool.stealCount(), static_cast<std::uint64_t>(n) + 1);
}

TEST(ThreadPool, ExceptionInStolenTaskIsContained) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  const int n = 100;
  // Same blocked-producer trick: every submitted task (including the
  // throwing one) is executed by a thief.
  pool.submit([&pool, &count] {
    for (int i = 0; i < n; ++i) {
      if (i == 10)
        pool.submit([&count] {
          count.fetch_add(1, std::memory_order_relaxed);
          throw std::runtime_error("stolen task blew up");
        });
      else
        pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    while (count.load(std::memory_order_acquire) < n) std::this_thread::yield();
  });
  EXPECT_THROW(pool.waitIdle(), std::runtime_error);
  // No task was lost to the failure, and the thieves all survived.
  EXPECT_EQ(count.load(), n);
  EXPECT_GE(pool.stealCount(), static_cast<std::uint64_t>(n));
  EXPECT_LE(pool.stealCount(), static_cast<std::uint64_t>(n) + 1);
  pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.waitIdle();
  EXPECT_EQ(count.load(), n + 1);
}

// Cooperative cancellation mid-storm: tasks poll the token and fast-fail.
// Stolen or not, every task still *runs* (waitIdle drains the pool), but
// the ones after the cancel skip their work.
TEST(ThreadPool, CancellationFastFailsStolenTasks) {
  ThreadPool pool(4);
  CancellationToken cancel;
  std::atomic<int> executed{0};
  std::atomic<int> worked{0};
  const int n = 400;
  pool.submit([&] {
    for (int i = 0; i < n; ++i)
      pool.submit([&] {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (cancel.cancelled()) return;  // fast-fail: no work after cancel
        if (worked.fetch_add(1, std::memory_order_relaxed) + 1 == 50)
          cancel.cancel();
      });
    while (executed.load(std::memory_order_acquire) < n)
      std::this_thread::yield();
  });
  pool.waitIdle();
  EXPECT_EQ(executed.load(), n);       // nothing abandoned...
  EXPECT_LT(worked.load(), n);         // ...but the tail did no work
  EXPECT_GE(worked.load(), 50);
  EXPECT_TRUE(cancel.cancelled());
}

TEST(ThreadPool, ExternalSubmitsSpreadAndComplete) {
  // submit() from outside the pool takes the inbox path; make sure a storm
  // of external submissions lands, spreads, and drains.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 2000; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.waitIdle();
  EXPECT_EQ(count.load(), 2000);
}

}  // namespace
}  // namespace owlcl
