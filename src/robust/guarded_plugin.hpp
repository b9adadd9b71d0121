// GuardedPlugin — the fault-tolerance decorator at the reasoner plug-in
// boundary (ROADMAP: production-scale service; PAPER §I: HermiT-as-a-
// plug-in is an external failure surface).
//
// Wraps any ReasonerPlugin and turns its calls into *guarded* calls:
//
//   * per-call deadline — a verdict that costs more than `deadlineNs`
//     (by the plug-in's own reported cost, or by measured wall time) is
//     discarded and classified as FailureKind::kTimeout. Discarding the
//     late verdict keeps retry scheduling deterministic under the virtual
//     cost model: whether a call "timed out" depends only on its cost,
//     never on host load.
//   * exception containment — escaped exceptions become classified
//     failures (std::bad_alloc → kResource, anything else → kError);
//     nothing a plug-in throws can unwind through a classifier worker.
//   * cooperative cancellation — once the run's CancellationToken fires
//     (watchdog or explicit cancel), further calls fail fast with
//     kTimeout without entering the plug-in at all, so a degrading run
//     drains quickly.
//
// The classifier talks to the decorator through the tri-state try*()
// entry points. The legacy bool predicates remain available but throw
// PluginFailureError on a guarded failure — callers that cannot handle
// tri-state must not be handed failing plug-ins silently.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "core/plugin.hpp"
#include "parallel/cancellation.hpp"

namespace owlcl {

struct GuardConfig {
  /// Per-call budget in ns; 0 = unlimited. Applied to both the plug-in's
  /// reported cost (virtual time) and the measured wall time.
  std::uint64_t deadlineNs = 0;
};

/// Aggregate failure statistics of one GuardedPlugin (snapshot).
struct GuardStats {
  std::uint64_t calls = 0;
  std::uint64_t timeouts = 0;        // deadline exceeded (verdict discarded)
  std::uint64_t errors = 0;          // exceptions / internal errors
  std::uint64_t resourceFailures = 0;
  std::uint64_t cancelledCalls = 0;  // failed fast on a fired token
  std::uint64_t failures() const {
    return timeouts + errors + resourceFailures + cancelledCalls;
  }
};

/// Thrown by the bool predicates when a guarded call fails.
class PluginFailureError : public std::runtime_error {
 public:
  PluginFailureError(FailureKind kind, const char* what)
      : std::runtime_error(what), kind_(kind) {}
  FailureKind kind() const { return kind_; }

 private:
  FailureKind kind_;
};

class GuardedPlugin : public ReasonerPlugin {
 public:
  /// `inner` must outlive the decorator. `token` (optional) enables
  /// fail-fast once cancelled; typically &executor.cancellation().
  explicit GuardedPlugin(ReasonerPlugin& inner, GuardConfig config = {},
                         const CancellationToken* token = nullptr)
      : inner_(inner), config_(config), token_(token) {}

  bool isSatisfiable(ConceptId c, std::uint64_t* costNs = nullptr) override;
  bool isSubsumedBy(ConceptId sub, ConceptId sup,
                    std::uint64_t* costNs = nullptr) override;

  TestVerdict trySatisfiable(ConceptId c,
                             std::uint64_t* costNs = nullptr) override;
  TestVerdict trySubsumedBy(ConceptId sub, ConceptId sup,
                            std::uint64_t* costNs = nullptr) override;

  std::uint64_t testCount() const override { return inner_.testCount(); }
  ReasonerStats reasonerStats() const override {
    return inner_.reasonerStats();
  }
  std::vector<ReasonerStats> perWorkerReasonerStats() const override {
    return inner_.perWorkerReasonerStats();
  }
  /// Forwarded: a swept pair settles without a verdict to time out or
  /// contain, the sweep polls the run token itself, and the pairs it
  /// leaves open still come through try*().
  RowRefuter* rowRefuter() override { return inner_.rowRefuter(); }

  GuardStats stats() const;
  std::uint64_t deadlineNs() const { return config_.deadlineNs; }

 private:
  template <typename Call>
  TestVerdict guard(const Call& call, std::uint64_t* costNs);

  ReasonerPlugin& inner_;
  GuardConfig config_;
  const CancellationToken* token_;

  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> resource_{0};
  std::atomic<std::uint64_t> cancelled_{0};
};

}  // namespace owlcl
