#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <future>
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

TEST(ThreadPool, SubmitToTargetsSpecificWorker) {
  ThreadPool pool(3);
  // Tasks submitted to one worker run sequentially in FIFO order.
  std::vector<int> order;
  for (int i = 0; i < 100; ++i)
    pool.submitTo(1, [&order, i] { order.push_back(i); });
  pool.waitIdle();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, PinnedTasksRunOnTheirWorkerThread) {
  ThreadPool pool(3);
  // Each worker's vector is only touched by tasks pinned to that worker,
  // which run sequentially on it.
  std::vector<std::vector<std::thread::id>> ran(pool.size());
  for (int i = 0; i < 60; ++i) {
    const std::size_t w = static_cast<std::size_t>(i) % pool.size();
    pool.submitTo(w, [&ran, w] { ran[w].push_back(std::this_thread::get_id()); });
  }
  pool.waitIdle();
  for (std::size_t w = 0; w < pool.size(); ++w) {
    ASSERT_EQ(ran[w].size(), 20u);
    for (const std::thread::id& id : ran[w]) EXPECT_EQ(id, ran[w].front());
  }
  EXPECT_NE(ran[0].front(), ran[1].front());
  EXPECT_NE(ran[1].front(), ran[2].front());
  EXPECT_NE(ran[0].front(), ran[2].front());
}

TEST(ThreadPool, PinnedTasksAreNeverStolen) {
  ThreadPool pool(3);
  // Block worker 0, then queue pinned work behind the blocker. Workers 1
  // and 2 are idle the whole time but must leave worker 0's queue alone.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  pool.submitTo(0, [gate, &started] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();
  std::atomic<int> pinnedRan{0};
  for (int i = 0; i < 50; ++i)
    pool.submitTo(0, [&pinnedRan] {
      pinnedRan.fetch_add(1, std::memory_order_relaxed);
    });
  // Round trips through the idle workers give them every chance to steal.
  std::array<std::promise<void>, 2> done;
  for (std::size_t w : {1u, 2u}) {
    std::promise<void>& d = done[w - 1];
    pool.submitTo(w, [&d] { d.set_value(); });
    d.get_future().wait();
  }
  EXPECT_EQ(pinnedRan.load(), 0);
  EXPECT_EQ(pool.queueDepth(0), 51u);

  release.set_value();
  pool.waitIdle();
  EXPECT_EQ(pinnedRan.load(), 50);
  EXPECT_EQ(pool.stealCount(), 0u);
}

TEST(ThreadPool, TasksMaySubmitPinnedTasks) {
  ThreadPool pool(3);
  std::array<std::atomic<int>, 3> perWorker{};
  pool.submit([&pool, &perWorker] {
    for (std::size_t i = 0; i < 30; ++i) {
      const std::size_t w = i % pool.size();
      pool.submitTo(w, [&perWorker, w] {
        perWorker[w].fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  pool.waitIdle();
  for (const auto& n : perWorker) EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, RoundRobinAcrossWorkersCompletes) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 400; ++i)
    pool.submitTo(static_cast<std::size_t>(i) % pool.size(),
                  [&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.waitIdle();
  EXPECT_EQ(count.load(), 400);
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

TEST(ThreadPool, ThrowingPinnedTaskKeepsWorkerFifo) {
  // A failure in the middle of one worker's pinned queue must neither
  // drop nor reorder the tasks queued behind it.
  ThreadPool pool(2);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    pool.submitTo(1, [&order, i] {
      order.push_back(i);
      if (i == 3) throw std::runtime_error("pinned task blew up");
    });
  EXPECT_THROW(pool.waitIdle(), std::runtime_error);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  pool.submitTo(1, [&order] { order.push_back(10); });
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

TEST(ThreadPool, QueueDepthCountsQueuedAndRunning) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.queueDepth(0), 0u);
  EXPECT_EQ(pool.queueDepth(1), 0u);

  // Block worker 0, then stack two more tasks behind the blocker:
  // depth(0) == 1 running + 2 queued.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  pool.submitTo(0, [gate, &started] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();
  pool.submitTo(0, [gate] { gate.wait(); });
  pool.submitTo(0, [gate] { gate.wait(); });
  EXPECT_EQ(pool.queueDepth(0), 3u);
  EXPECT_EQ(pool.queueDepth(1), 0u);

  release.set_value();
  pool.waitIdle();
  EXPECT_EQ(pool.queueDepth(0), 0u);
}

// --- work stealing -----------------------------------------------------------

// One producer, w−1 thieves: worker 0 pushes a storm of stealable tasks
// onto its own deque (the lock-free owner path) and then stays busy until
// every one of them has run. Worker 0 never returns to its scheduling
// loop, so each task can only run via a steal.
TEST(ThreadPool, StealsDrainABlockedProducersDeque) {
  ThreadPool pool(4);
  const int n = 500;
  std::atomic<int> count{0};
  pool.submitTo(0, [&pool, &count] {
    for (int i = 0; i < n; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    while (count.load(std::memory_order_acquire) < n) std::this_thread::yield();
  });
  pool.waitIdle();
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(pool.stealCount(), static_cast<std::uint64_t>(n));
}

TEST(ThreadPool, ExceptionInStolenTaskIsContained) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  const int n = 100;
  // Same producer-pinning trick: every submitted task (including the
  // throwing ones) is executed by a thief.
  pool.submitTo(0, [&pool, &count] {
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
  pool.submitTo(0, [&] {
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
