// RealExecutor — Executor over an owlcl::ThreadPool (actual std::threads
// on actual cores). Used by the library API and the integration tests;
// the figure benches use the virtual-time executor instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/executor.hpp"
#include "parallel/cancellation.hpp"
#include "parallel/thread_pool.hpp"
#include "util/stopwatch.hpp"

namespace owlcl {

class RealExecutor : public Executor {
 public:
  explicit RealExecutor(ThreadPool& pool) : pool_(pool) {}

  std::size_t workers() const override { return pool_.size(); }

  std::size_t pickWorker(SchedulingPolicy policy) override {
    switch (policy) {
      case SchedulingPolicy::kSteal:
        // Stealing: hand the task to the pool unpinned — it lands on a
        // deque/inbox and migrates to whichever worker runs dry first.
        return kAnyWorker;
      case SchedulingPolicy::kRoundRobin:
        return rr_++ % pool_.size();
      case SchedulingPolicy::kLeastLoaded: {
        // "getAvailableThread": the worker with the fewest queued +
        // in-flight tasks. The rotating scan start breaks ties away from
        // worker 0 so an all-idle pool still spreads the groups.
        const std::size_t w = pool_.size();
        const std::size_t start = rr_++ % w;
        std::size_t best = start;
        std::size_t bestDepth = pool_.queueDepth(start);
        for (std::size_t off = 1; off < w && bestDepth > 0; ++off) {
          const std::size_t i = (start + off) % w;
          const std::size_t depth = pool_.queueDepth(i);
          if (depth < bestDepth) {
            best = i;
            bestDepth = depth;
          }
        }
        return best;
      }
    }
    return kAnyWorker;
  }

  void dispatch(std::size_t worker, Task task) override {
    auto wrapped = [this, task = std::move(task)] {
      busy_.fetch_add(task(), std::memory_order_relaxed);
    };
    if (worker == kAnyWorker)
      pool_.submit(std::move(wrapped));
    else
      pool_.submitTo(worker, std::move(wrapped));
  }

  void barrier() override { pool_.waitIdle(); }

  std::uint64_t elapsedNs() const override {
    return static_cast<std::uint64_t>(clock_.elapsedNs());
  }

  std::uint64_t busyNs() const override {
    return busy_.load(std::memory_order_relaxed);
  }

  /// Wall-clock watchdog: cancels cancellation() `budgetNs` from now.
  /// Re-arming replaces the previous watchdog.
  void armWatchdog(std::uint64_t budgetNs) override {
    watchdog_.reset();  // disarm (joins) before re-arming
    watchdog_ = std::make_unique<WallClockWatchdog>(cancellation(), budgetNs);
  }

 private:
  ThreadPool& pool_;
  Stopwatch clock_;
  std::atomic<std::uint64_t> busy_{0};
  std::size_t rr_ = 0;
  std::unique_ptr<WallClockWatchdog> watchdog_;
};

}  // namespace owlcl
