// VirtualExecutor — the deterministic virtual-time SMP substitute for the
// paper's 60-core HP DL580 (DESIGN.md §2, hardware substitution).
//
// Tasks run inline on the calling thread, in dispatch order, but their
// reported costs advance per-worker virtual clocks:
//
//   serial clock   — the dispatcher pays `dispatchNs` per group it creates
//                    (partitioning + enqueue are serial in the paper's
//                    architecture). This is the Amdahl term that makes
//                    small partitions unprofitable at high worker counts —
//                    the Fig. 9(a) degradation beyond ~32 workers.
//   worker clocks  — a task starts at max(worker clock, serial clock when
//                    it was dispatched) and runs for `perTaskNs + cost`.
//   barrier        — advances the serial clock to the max worker clock
//                    plus `barrierNs` (the cycle synchronisation cost).
//
// elapsedNs() is the simulated wall time; busyNs() is Σ task costs —
// exactly the paper's "runtime" / "elapsed time" speedup inputs.
//
// Determinism: same tasks + same dispatch order + same costs ⇒ identical
// clocks, independent of the host machine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "util/assert.hpp"

namespace owlcl {

struct OverheadModel {
  std::uint64_t dispatchNs = 5'000;  // serial cost per dispatched group
  std::uint64_t perTaskNs = 2'000;   // worker-side task startup cost
  /// Per-cycle synchronisation: fixed + linear + quadratic in the worker
  /// count. The superlinear term models the all-to-all coherence traffic
  /// and partition management the paper observes as degradation "when the
  /// partition size becomes too small" (Section V-A) — it is what makes
  /// small ontologies peak at moderate worker counts in Fig. 9(a) while
  /// large ones keep scaling to 140.
  std::uint64_t barrierNs = 100'000;
  std::uint64_t barrierPerWorkerNs = 20'000;
  std::uint64_t barrierQuadNs = 400'000;  // ×w² per barrier

  std::uint64_t barrierCost(std::size_t w) const {
    return barrierNs + barrierPerWorkerNs * w +
           barrierQuadNs * static_cast<std::uint64_t>(w) * w;
  }
};

class VirtualExecutor : public Executor {
 public:
  explicit VirtualExecutor(std::size_t workers, OverheadModel model = {})
      : clocks_(workers, 0), model_(model) {
    OWLCL_ASSERT(workers > 0);
  }

  std::size_t workers() const override { return clocks_.size(); }

  void dispatch(Task task) override {
    serial_ += model_.dispatchNs;
    // The earliest-free worker (lowest index on ties) takes the task — the
    // quiescent fixed point a work-stealing pool converges to, made
    // deterministic.
    const auto worker = std::min_element(clocks_.begin(), clocks_.end());
    checkWatchdog();  // a task dispatched past the budget sees a fired token
    const std::uint64_t cost = task();  // runs inline, deterministically
    const std::uint64_t start = std::max(*worker, serial_);
    *worker = start + model_.perTaskNs + cost;
    busy_ += cost;
    checkWatchdog();
  }

  void barrier() override {
    std::uint64_t maxClock = serial_;
    for (std::uint64_t c : clocks_) maxClock = std::max(maxClock, c);
    serial_ = maxClock + model_.barrierCost(clocks_.size());
    // Workers resume after the barrier.
    for (auto& c : clocks_) c = serial_;
    checkWatchdog();
  }

  std::uint64_t elapsedNs() const override {
    std::uint64_t maxClock = serial_;
    for (std::uint64_t c : clocks_) maxClock = std::max(maxClock, c);
    return maxClock;
  }

  std::uint64_t busyNs() const override { return busy_; }

  /// Virtual-time watchdog: once simulated elapsed time passes the budget
  /// (measured from now), the cancellation token fires — deterministically,
  /// at dispatch/barrier granularity, with no watchdog thread.
  void armWatchdog(std::uint64_t budgetNs) override {
    watchdogDeadline_ = elapsedNs() + budgetNs;
  }

 private:
  void checkWatchdog() {
    if (watchdogDeadline_ != kNoDeadline && elapsedNs() > watchdogDeadline_)
      cancellation().cancel();
  }

  static constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

  std::vector<std::uint64_t> clocks_;
  OverheadModel model_;
  std::uint64_t serial_ = 0;
  std::uint64_t busy_ = 0;
  std::uint64_t watchdogDeadline_ = kNoDeadline;
};

}  // namespace owlcl
