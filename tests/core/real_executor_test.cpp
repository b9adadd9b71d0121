#include "core/real_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace owlcl {
namespace {

TEST(RealExecutor, RunsTasksAndAccumulatesBusy) {
  ThreadPool pool(2);
  RealExecutor exec(pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    exec.dispatch([&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      return std::uint64_t{1000};
    });
  }
  exec.barrier();
  EXPECT_EQ(exec.workers(), 2u);
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(exec.busyNs(), 10'000u);
  EXPECT_GT(exec.elapsedNs(), 0u);
}

TEST(RealExecutor, BarrierIsReusable) {
  ThreadPool pool(2);
  RealExecutor exec(pool);
  std::atomic<int> ran{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 5; ++i)
      exec.dispatch([&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        return std::uint64_t{1};
      });
    exec.barrier();
    EXPECT_EQ(ran.load(), (wave + 1) * 5);
  }
}

// A task blocked on a later one must not hold it back: with placement
// left to the pool, the idle worker takes the later task. The wait has a
// deadline so a serialised dispatch fails the test instead of hanging it.
TEST(RealExecutor, BlockedTaskDoesNotHoldBackLaterTasks) {
  ThreadPool pool(2);
  RealExecutor exec(pool);
  std::atomic<bool> laterRan{false};
  std::atomic<bool> sawLater{false};
  exec.dispatch([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!laterRan.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    sawLater.store(laterRan.load(std::memory_order_acquire));
    return std::uint64_t{1};
  });
  exec.dispatch([&laterRan] {
    laterRan.store(true, std::memory_order_release);
    return std::uint64_t{1};
  });
  exec.barrier();
  EXPECT_TRUE(sawLater.load()) << "the later task waited behind the blocked one";
  EXPECT_EQ(exec.busyNs(), 2u);
}

TEST(RealExecutor, BarrierRethrowsTaskFailureAndStaysUsable) {
  ThreadPool pool(2);
  RealExecutor exec(pool);
  exec.dispatch([]() -> std::uint64_t { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 3; ++i) exec.dispatch([] { return std::uint64_t{5}; });
  EXPECT_THROW(exec.barrier(), std::runtime_error);
  // The failed task reported no cost; its siblings all did.
  EXPECT_EQ(exec.busyNs(), 15u);
  exec.dispatch([] { return std::uint64_t{5}; });
  exec.barrier();  // the failure was already surfaced
  EXPECT_EQ(exec.busyNs(), 20u);
}

}  // namespace
}  // namespace owlcl
