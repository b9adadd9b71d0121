// Executor — how the classifier's tasks reach "cores".
//
// The paper ran on a 60-core SMP server; this build box may have a single
// core. The classifier is written against this small interface so the same
// phase logic runs either on real std::threads (RealExecutor, below) or on
// the deterministic virtual-time SMP simulator (simsched::VirtualExecutor),
// which is what regenerates the paper's speedup figures (DESIGN.md §2,
// hardware substitution).
//
// Contract: dispatch() hands one task to the executor, which places it —
// work-stealing on real threads, the earliest-free simulated worker in
// virtual time; the task returns its own cost in (virtual or measured)
// nanoseconds. barrier() waits for
// all dispatched tasks — the synchronisation point between classification
// cycles. busyNs() is the paper's "runtime" (sum of runtimes of all
// threads); elapsedNs() is the paper's "elapsed time"; speedup is their
// ratio (Section V-A).
#pragma once

#include <cstdint>
#include <functional>

#include "parallel/cancellation.hpp"

namespace owlcl {

class Executor {
 public:
  using Task = std::function<std::uint64_t()>;  // returns cost in ns

  virtual ~Executor() = default;

  virtual std::size_t workers() const = 0;

  virtual void dispatch(Task task) = 0;

  /// Waits until every dispatched task has completed.
  virtual void barrier() = 0;

  /// Total elapsed time since construction (wall or virtual).
  virtual std::uint64_t elapsedNs() const = 0;

  /// Σ task costs across all workers ("runtime" in the paper's metric).
  virtual std::uint64_t busyNs() const = 0;

  // --- cooperative cancellation ---------------------------------------------
  // Long-running task bodies poll cancellation().cancelled() and return
  // early once it fires; the dispatcher then degrades gracefully instead
  // of waiting forever on a hung run (see parallel/cancellation.hpp).

  CancellationToken& cancellation() { return cancel_; }
  const CancellationToken& cancellation() const { return cancel_; }

  /// Arms a watchdog that cancels cancellation() once `budgetNs` of this
  /// executor's time (wall or virtual) elapses past the current instant.
  /// Default: no watchdog support (budget ignored).
  virtual void armWatchdog(std::uint64_t budgetNs) { (void)budgetNs; }

 private:
  CancellationToken cancel_;
};

}  // namespace owlcl
