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

  void dispatch(Task task) override {
    pool_.submit([this, task = std::move(task)] {
      busy_.fetch_add(task(), std::memory_order_relaxed);
    });
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
  std::unique_ptr<WallClockWatchdog> watchdog_;
};

}  // namespace owlcl
