#include "core/real_executor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <future>

namespace owlcl {
namespace {

TEST(RealExecutor, RunsTasksAndAccumulatesBusy) {
  ThreadPool pool(2);
  RealExecutor exec(pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    exec.dispatch(exec.pickWorker(SchedulingPolicy::kRoundRobin), [&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      return std::uint64_t{1000};
    });
  }
  exec.barrier();
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(exec.busyNs(), 10'000u);
  EXPECT_GT(exec.elapsedNs(), 0u);
}

TEST(RealExecutor, StealPolicyUsesAnyWorker) {
  ThreadPool pool(3);
  RealExecutor exec(pool);
  EXPECT_EQ(exec.pickWorker(SchedulingPolicy::kSteal), Executor::kAnyWorker);
  std::atomic<int> ran{0};
  exec.dispatch(Executor::kAnyWorker, [&ran] {
    ran.fetch_add(1, std::memory_order_relaxed);
    return std::uint64_t{5};
  });
  exec.barrier();
  EXPECT_EQ(ran.load(), 1);
}

TEST(RealExecutor, RoundRobinCyclesThroughWorkers) {
  ThreadPool pool(3);
  RealExecutor exec(pool);
  const std::size_t a = exec.pickWorker(SchedulingPolicy::kRoundRobin);
  const std::size_t b = exec.pickWorker(SchedulingPolicy::kRoundRobin);
  const std::size_t c = exec.pickWorker(SchedulingPolicy::kRoundRobin);
  const std::size_t a2 = exec.pickWorker(SchedulingPolicy::kRoundRobin);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(exec.workers(), 3u);
}

TEST(RealExecutor, LeastLoadedAvoidsBusyWorkers) {
  ThreadPool pool(3);
  RealExecutor exec(pool);

  // Pin workers 0 and 2 on blocking tasks (plus queue extra depth behind
  // worker 0); only worker 1 is idle, so kLeastLoaded must pick it no
  // matter where its rotating scan starts.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::array<std::promise<void>, 2> started;
  pool.submitTo(0, [gate, &started] {
    started[0].set_value();
    gate.wait();
  });
  pool.submitTo(2, [gate, &started] {
    started[1].set_value();
    gate.wait();
  });
  for (auto& s : started) s.get_future().wait();
  pool.submitTo(0, [gate] { gate.wait(); });

  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(exec.pickWorker(SchedulingPolicy::kLeastLoaded), 1u);

  release.set_value();
  pool.waitIdle();
}

TEST(RealExecutor, LeastLoadedSpreadsOverIdlePool) {
  // All-idle pool: the rotating tie-break must not send every group to
  // worker 0 (the silent round-robin degradation this policy had before).
  ThreadPool pool(4);
  RealExecutor exec(pool);
  std::array<int, 4> hits{};
  for (int i = 0; i < 8; ++i)
    ++hits[exec.pickWorker(SchedulingPolicy::kLeastLoaded)];
  int distinct = 0;
  for (int h : hits) distinct += h > 0 ? 1 : 0;
  EXPECT_GT(distinct, 1);
}

TEST(RealExecutor, BarrierIsReusable) {
  ThreadPool pool(2);
  RealExecutor exec(pool);
  std::atomic<int> ran{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 5; ++i)
      exec.dispatch(Executor::kAnyWorker, [&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        return std::uint64_t{1};
      });
    exec.barrier();
    EXPECT_EQ(ran.load(), (wave + 1) * 5);
  }
}

}  // namespace
}  // namespace owlcl
