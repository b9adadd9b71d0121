// ReasonerPlugin — the paper's plug-in boundary (Section I: "we use OWL
// reasoners as plug-ins for deciding satisfiability and subsumption.
// Currently we use HermiT but it could be replaced by any other OWL
// reasoner").
//
// The parallel classifier calls only these two predicates (sat?() and
// subs?() of Algorithms 2/3/5). Implementations must be thread-safe:
// workers invoke them concurrently. The optional costNs out-parameter
// reports the cost of the individual test — wall time for real reasoners,
// model cost for the mock reasoner driving the virtual-time scheduler.
//
// Fault surface: a plug-in is an *external* decision procedure that can
// time out, exhaust memory, or throw. The classifier therefore talks to
// plug-ins through the tri-state try*() entry points (kTrue / kFalse /
// kFailed) and never assumes a call yields a verdict. Legacy plug-ins
// only implement the bool predicates; the default try*() wrappers turn
// any escaped exception into a classified failure. robust/
// guarded_plugin.hpp layers per-call deadlines and failure statistics on
// top of this boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <vector>

#include "owl/ids.hpp"

namespace owlcl {

/// Tri-state verdict of a guarded sat?/subs? call.
enum class TestOutcome : std::uint8_t { kFalse = 0, kTrue = 1, kFailed = 2 };

/// Why a call failed (meaningful only with TestOutcome::kFailed).
enum class FailureKind : std::uint8_t {
  kNone = 0,
  kTimeout,   // exceeded its per-call deadline
  kError,     // threw an exception / internal error
  kResource,  // exhausted a resource (memory, tableau limits)
};

struct TestVerdict {
  TestOutcome outcome;
  FailureKind failure = FailureKind::kNone;

  bool ok() const { return outcome != TestOutcome::kFailed; }
  bool value() const { return outcome == TestOutcome::kTrue; }

  static TestVerdict of(bool b) {
    return {b ? TestOutcome::kTrue : TestOutcome::kFalse, FailureKind::kNone};
  }
  static TestVerdict failed(FailureKind kind) {
    return {TestOutcome::kFailed, kind};
  }
};

/// Engine-level statistics a plug-in may expose (all zero for plug-ins —
/// mocks, remote reasoners — that have no engine internals to report).
/// satCalls/cacheHits/clashes describe the decision procedure itself;
/// crossCacheHits counts verdicts reused from a cross-worker shared cache
/// and mergeRefuted counts subsumption tests refuted by pseudo-model
/// merging without running the engine at all.
/// The cache* fields surface the shared sat-cache's write-side health:
/// cacheInserts counts slots won, cacheRejectedFull counts inserts dropped
/// because the bounded probe window was saturated, and cacheRejectedLong
/// counts labels too long to store inline. Rising rejection counts mean
/// the cache is degrading to the private-cache baseline.
struct ReasonerStats {
  std::uint64_t satCalls = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t clashes = 0;
  std::uint64_t crossCacheHits = 0;
  std::uint64_t mergeRefuted = 0;
  std::uint64_t cacheInserts = 0;
  std::uint64_t cacheRejectedFull = 0;
  std::uint64_t cacheRejectedLong = 0;
};

class BitKernels;

/// Batched non-subsumption refutation (DESIGN.md §11, "Batched merge
/// sweep"): the optional pair of hooks a plug-in exposes through
/// ReasonerPlugin::rowRefuter(). The classifier calls prepare() on every
/// live concept, waits at a barrier, then calls refuteRow() once per open
/// row and settles the refuted pairs with word operations instead of one
/// subs?() call each. Both hooks are thread-safe.
class RowRefuter {
 public:
  /// Builds c's refutation inputs. Never throws: a failed build leaves c
  /// out of every row mask, so its pairs take the per-pair path.
  virtual void prepare(ConceptId c) noexcept = 0;

  /// Writes into `refuted` every y of `candidates` (a word snapshot of
  /// P_x, bit y = concept y) for which "y ⊑ x" is refuted, never x
  /// itself; returns how many. Every prepare() of the sweep must have
  /// returned before the first call.
  virtual std::size_t refuteRow(ConceptId x, const std::uint64_t* candidates,
                                std::uint64_t* refuted, std::size_t nWords,
                                const BitKernels& kernels) = 0;

 protected:
  ~RowRefuter() = default;
};

class ReasonerPlugin {
 public:
  virtual ~ReasonerPlugin() = default;

  /// sat?(c): is the named concept satisfiable w.r.t. the TBox?
  virtual bool isSatisfiable(ConceptId c, std::uint64_t* costNs = nullptr) = 0;

  /// subs?(sup, sub): does the TBox entail sub ⊑ sup?
  virtual bool isSubsumedBy(ConceptId sub, ConceptId sup,
                            std::uint64_t* costNs = nullptr) = 0;

  /// Failure-aware sat?(): never throws; an escaped exception becomes a
  /// classified kFailed verdict (bad_alloc → kResource, else kError).
  virtual TestVerdict trySatisfiable(ConceptId c,
                                     std::uint64_t* costNs = nullptr) {
    try {
      return TestVerdict::of(isSatisfiable(c, costNs));
    } catch (const std::bad_alloc&) {
      return TestVerdict::failed(FailureKind::kResource);
    } catch (...) {
      return TestVerdict::failed(FailureKind::kError);
    }
  }

  /// Failure-aware subs?(); same contract as trySatisfiable().
  virtual TestVerdict trySubsumedBy(ConceptId sub, ConceptId sup,
                                    std::uint64_t* costNs = nullptr) {
    try {
      return TestVerdict::of(isSubsumedBy(sub, sup, costNs));
    } catch (const std::bad_alloc&) {
      return TestVerdict::failed(FailureKind::kResource);
    } catch (...) {
      return TestVerdict::failed(FailureKind::kError);
    }
  }

  /// Total number of sat + subsumption tests served (approximate under
  /// concurrency; used for statistics only).
  virtual std::uint64_t testCount() const = 0;

  /// Aggregated engine statistics (quiescent reads only — call between
  /// executor barriers). Decorator plug-ins must forward to the inner
  /// reasoner so the numbers survive guarding/fault-injection layers.
  virtual ReasonerStats reasonerStats() const { return {}; }

  /// Per-worker engine statistics, one entry per internal workspace (order
  /// unspecified). Empty for plug-ins without per-thread engine state.
  virtual std::vector<ReasonerStats> perWorkerReasonerStats() const {
    return {};
  }

  /// The batched refutation hooks, or nullptr (the default) when this
  /// plug-in cannot refute a row at once — the classifier then runs no
  /// sweep. Decorators choose whether to forward it: GuardedPlugin does,
  /// FaultInjector does not, so injected-fault drills keep exercising
  /// per-pair failures.
  virtual RowRefuter* rowRefuter() { return nullptr; }
};

}  // namespace owlcl
