// ParallelClassifier — the paper's contribution (Sections III + IV):
// three-phase parallel TBox classification over the shared atomic PkStore,
// with a pluggable reasoner and a pluggable execution substrate.
//
//   Phase 1  random division (Algorithms 1+2): the shuffled concept list is
//            split into w equal groups, one per worker; each worker tests
//            the concept pairs inside its group. Repeated for
//            config.randomCycles cycles with fresh shuffles.
//   Phase 2  group division (Algorithms 1+3): for every X with P_X ≠ ∅ a
//            group G_X = P_X is dispatched until R_O = ∪ P_X is empty.
//            Every task is unpinned: the executor places it (DESIGN.md §8).
//   Phase 3  divide-and-conquer taxonomy construction (Algorithm 4):
//            per-concept partial hierarchies H_X in parallel, merged
//            top-down into the final Taxonomy.
//
// Section IV's pruneNonPossible (Algorithm 5) runs inside every symmetric
// pair test: a strict outcome B ⊑ A (with A ⋢ B) removes every Y ∈ K_B
// from P_A/K_A and removes A from P_Y — subsumptions inferred without
// invoking the reasoner. The unsound symmetric variants the paper refutes
// with counter-examples (Figs. 6–8) are deliberately NOT performed; tests
// encode those counter-examples.
//
// Fault tolerance: the plug-in is called through the tri-state try*()
// boundary (core/plugin.hpp) and is allowed to fail. A failed test keeps
// its pair *possible*, is recorded in the PkStore retry ledger, and is
// requeued with capped exponential backoff across division rounds; after
// maxRetries failures the pair is moved to the unresolved set and
// withdrawn, so classify() always terminates with a *sound* (possibly
// partial) taxonomy — every edge it asserts was either derived from a
// successful test or pruned by Algorithm 5 — plus an unresolvedPairs /
// unresolvedConcepts report. A fired executor cancellation token
// (watchdog) short-circuits remaining work the same way.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/checkpoint_hook.hpp"
#include "core/executor.hpp"
#include "core/pk_store.hpp"
#include "core/plugin.hpp"
#include "owl/tbox.hpp"
#include "parallel/sharded_counter.hpp"
#include "taxonomy/taxonomy.hpp"

namespace owlcl {

/// Hybrid EL/tableau routing policy (DESIGN.md §13).
enum class ElRouting : std::uint8_t {
  kOff = 0,  ///< tableau-only (the paper's architecture, unchanged)
  kAuto,     ///< route when EL-safe axioms outnumber the non-EL residual
  kOn,       ///< always run the routing phase
};

struct ClassifierConfig {
  /// Number of random-division cycles before the group-division phase
  /// (the paper's Fig. 11 load-balancing experiment varies this).
  std::size_t randomCycles = 2;
  /// Shuffle seed — classification work assignment is fully deterministic
  /// given (seed, workers).
  std::uint64_t seed = 42;
  /// Section IV symmetric testing: resolve both directions of a pair with
  /// one claim. When false, Algorithms 2/3 run verbatim (one direction per
  /// claim, no pruning).
  bool symmetricTests = true;
  /// Extension (ROADMAP item 3): hybrid EL/tableau routing. Before phase
  /// 1, the maximal EL sub-ontology (owl/el_fragment.hpp) is saturated by
  /// the EL reasoner, as one pool task while the store is built; the derived
  /// subsumption closure is bulk-seeded into K, definite non-subsumptions
  /// and satisfiability verdicts are recorded for *pure* concepts (whose
  /// ⊥-module is all-EL), and the division phases then only test pairs
  /// with at least one non-EL concept. Byte-identical taxonomy to kOff.
  ElRouting routeEl = ElRouting::kOff;
  /// Delta-rerun extension (DESIGN.md §14): run the routing phase on a
  /// *resumed* store image too. Crash-recovery resumes must keep this off
  /// (routed verdicts were journaled; replay restores them), but a delta
  /// rerun starts from a synthetic checkpoint whose cone rows were never
  /// routed — routing them here is the EL fast path for cone reruns. The
  /// seeding primitives are idempotent on partially-settled stores, so
  /// this is sound either way; the flag only exists to keep recovery
  /// resumes byte-for-byte on their original journaled path.
  bool routeElOnResume = false;
  /// Compute backend for the P/K bit-matrix kernels and the routing and
  /// merge-sweep mask passes (parallel/bit_kernels.hpp). Null binds
  /// activeBitKernels(), the CPUID choice; an explicit backend exists for
  /// the differential suites and bench_ablation_bitkernels, which pin one
  /// to compare taxonomies.
  const BitKernels* bitKernels = nullptr;

  // --- fault tolerance -------------------------------------------------------
  /// Failed plug-in calls per test key before the pair/concept is given up
  /// as unresolved (maxRetries retries after the initial attempt).
  std::size_t maxRetries = 3;
  /// Cap, in division rounds, for the exponential retry backoff.
  std::size_t backoffCapRounds = 8;
  /// Whole-run watchdog budget in executor time (wall for RealExecutor,
  /// virtual for VirtualExecutor); 0 = no watchdog. When it fires, the
  /// run degrades: remaining pairs become unresolved.
  std::uint64_t watchdogBudgetNs = 0;

  // --- crash safety ----------------------------------------------------------
  /// Optional checkpoint sink (robust/checkpoint.hpp): settled verdicts
  /// are journaled as they happen and the full state is offered for a
  /// snapshot at every epoch barrier. Must outlive the classifier run.
  CheckpointHook* checkpoint = nullptr;
};

/// Verdict of a (possibly mid-run) subsumption query "is sub ⊑ sup?".
enum class PairVerdict : std::uint8_t {
  kUnknown = 0,  // not yet settled — wait for an epoch or fall back
  kSubsumed,
  kNotSubsumed,
  kUnresolved,  // given up within the fault budget — fall back to a direct test
};

/// Verdict of a (possibly mid-run) satisfiability query.
enum class SatVerdict : std::uint8_t {
  kUnknown = 0,
  kSatisfiable,
  kUnsatisfiable,
  kUnresolved,
};

struct CycleStats {
  enum class Phase : std::uint8_t {
    kRandomDivision,
    kGroupDivision,
    kHierarchy,
    kRouting,  // EL-fragment saturation + seeding, before phase 1
  };
  Phase phase;
  std::size_t index;              // cycle number within its phase
  std::size_t possibleBefore;     // |R_O| before the cycle
  std::size_t possibleAfter;      // |R_O| after the cycle
  std::uint64_t elapsedNs;        // barrier-to-barrier elapsed
  std::uint64_t reasonerTests;    // sat? + subs? calls during the cycle
};

struct ClassificationResult {
  Taxonomy taxonomy{0};
  std::vector<CycleStats> cycles;
  std::size_t initialPossible = 0;  // the paper's InitialPossible
  std::uint64_t elapsedNs = 0;      // total elapsed (paper: "elapsed time")
  std::uint64_t busyNs = 0;         // Σ worker runtimes (paper: "runtime")
  std::uint64_t satTests = 0;
  std::uint64_t subsumptionTests = 0;
  std::uint64_t prunedWithoutTest = 0;  // pairs resolved by Algorithm 5

  // --- hybrid EL/tableau routing report (DESIGN.md §13) ----------------------
  /// Pure-EL concepts the router owns outright (⊥-module all-EL); 0 when
  /// routing did not run.
  std::uint64_t routedConcepts = 0;
  /// K edges bulk-seeded from the EL saturation closure (claims won).
  std::uint64_t saturationSeeded = 0;
  /// Reasoner calls the routing phase made unnecessary: ordered pair
  /// claims won by the positive + negative seeding sweeps, plus sat?()
  /// verdicts taken straight from the saturation fixpoint.
  std::uint64_t testsAvoidedByRouting = 0;

  /// Ordered pairs the batched merge sweep refuted before phase 1, a row
  /// at a time (DESIGN.md §11); also counted in mergeRefuted.
  std::uint64_t sweepRefuted = 0;

  /// Reasoner calls actually performed this run.
  std::uint64_t testsPerformed() const { return satTests + subsumptionTests; }
  /// Tests resolved without a reasoner call (Algorithm 5 pruning,
  /// EL-fragment routing, the merge sweep).
  std::uint64_t testsAvoided() const {
    return prunedWithoutTest + testsAvoidedByRouting + sweepRefuted;
  }

  // --- reasoner-engine report (plug-ins exposing engine internals) -----------
  std::uint64_t reasonerSatCalls = 0;   // engine label evaluations
  std::uint64_t reasonerCacheHits = 0;  // private memo hits
  std::uint64_t reasonerClashes = 0;
  std::uint64_t crossCacheHits = 0;  // shared sat-cache verdicts reused
  std::uint64_t mergeRefuted = 0;    // subs tests refuted by model merging
  std::uint64_t cacheInserts = 0;        // shared sat-cache slots won
  std::uint64_t cacheRejectedFull = 0;   // inserts shed: probe window full
  std::uint64_t cacheRejectedLong = 0;   // inserts shed: label too long

  // --- fault-tolerance report ------------------------------------------------
  std::uint64_t failedTests = 0;   // plug-in calls that returned kFailed
  std::uint64_t retriedTests = 0;  // calls that were retries of failed keys
  /// Ordered tests subs?(sup, sub) that exhausted retries (or were cut off
  /// by cancellation): "is sub ⊑ sup" is UNKNOWN in this result. Sorted.
  std::vector<std::pair<ConceptId, ConceptId>> unresolvedPairs;
  /// Concepts whose sat?() never got a verdict; placed in the taxonomy as
  /// if satisfiable, with only their successfully derived edges. Sorted.
  std::vector<ConceptId> unresolvedConcepts;
  /// The executor's cancellation token fired (watchdog / explicit cancel).
  bool cancelled = false;
  /// requestStop() paused the run at an epoch barrier with work remaining:
  /// nothing was drained to unresolved and NO taxonomy was built — the
  /// state is exactly what captureCheckpoint() should flush for a later
  /// resume (the serving layer's graceful-drain path).
  bool paused = false;

  /// True iff every pair was resolved: the taxonomy is the complete
  /// classification, not a degraded partial one.
  bool complete() const {
    return !paused && unresolvedPairs.empty() && unresolvedConcepts.empty();
  }

  /// The paper's speedup metric: runtime / elapsed time (Section V-A).
  double speedup() const {
    return elapsedNs == 0 ? 0.0
                          : static_cast<double>(busyNs) /
                                static_cast<double>(elapsedNs);
  }
};

class ParallelClassifier {
 public:
  /// `tbox` must be frozen; `plugin` must be thread-safe and answer w.r.t.
  /// the same TBox. Both must outlive the classifier.
  ParallelClassifier(const TBox& tbox, ReasonerPlugin& plugin,
                     ClassifierConfig config = {});

  /// Runs the full three-phase classification on `exec`.
  ClassificationResult classify(Executor& exec);

  /// Resumes a run from recovered checkpoint state (robust/checkpoint.hpp
  /// recover()): restores the PkStore image, advances the shuffle RNG past
  /// the completed random cycles (same seed ⇒ identical cursors), and
  /// continues from the recorded phase position. Work already settled is
  /// never re-tested (the tested matrix carries the claims); everything
  /// else proceeds exactly as an uninterrupted run would, so the final
  /// taxonomy is identical to one computed without the crash.
  ClassificationResult resumeClassify(Executor& exec,
                                      const ClassifierCheckpoint& from);

  /// Quiescent-only: true iff the store's maintained O(1) possible-set
  /// counters agree with a ground-truth recount. Bench/CI smoke hooks call
  /// this after classify() to pin the bulk-kernel counter invariant.
  bool countersConsistent() const { return store_.countersConsistent(); }

  // --- serving-path hooks ----------------------------------------------------
  // All of these are safe to call from query threads concurrently with a
  // classify()/resumeClassify() running on another thread. A pair is
  // *settled* once its P bit is clear; writers publish K before clearing P,
  // so a query that observes the clear also observes the verdict (or — for
  // Algorithm 5 indirect prunes — a K witness chain, recovered here by an
  // upward reachability walk).

  /// Settled-pair subsumption query "is sub ⊑ sup?". kUnknown while the
  /// pair is still possible (or the store is not yet published).
  PairVerdict queryPair(ConceptId sup, ConceptId sub) const;

  /// Satisfiability status of `c` as far as the run has decided it.
  SatVerdict querySat(ConceptId c) const;

  /// Blocks until the pair settles, the run exits, or `deadline` — woken at
  /// every epoch barrier (pairs settling mid-cycle are observed at the next
  /// barrier). Returns the verdict as of wake-up (kUnknown on deadline).
  PairVerdict waitForPair(ConceptId sup, ConceptId sub,
                          std::chrono::steady_clock::time_point deadline) const;

  /// Blocks until sat?(c) is decided, the run exits, or `deadline` — same
  /// epoch-barrier wake discipline as waitForPair.
  SatVerdict waitForSat(ConceptId c,
                        std::chrono::steady_clock::time_point deadline) const;

  /// Blocks until the run exits (true) or `deadline` passes (false).
  bool waitForCompletion(std::chrono::steady_clock::time_point deadline) const;

  /// True once classify()/resumeClassify() has published the store: after
  /// initialisation and EL routing (a cancelled routing publishes too),
  /// before phase 1. Those steps write the store with plain word loops on
  /// the classifying thread, so queries before this point answer kUnknown
  /// without reading it (DESIGN.md §13, "Quiescent seeding and the
  /// publication point").
  bool started() const { return started_.load(std::memory_order_acquire); }
  /// True once the run() call has returned (completed, cancelled or paused).
  bool finished() const { return finished_.load(std::memory_order_acquire); }
  /// Barrier clock (division rounds completed so far).
  std::size_t currentEpoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  /// Approximate |R_O| for status reports (exact at barriers).
  std::size_t remainingPossible() const { return store_.remainingPossible(); }
  std::size_t conceptCount() const { return store_.conceptCount(); }

  /// Quiescent pause: asks the run to stop at the next epoch barrier
  /// WITHOUT draining possible pairs to unresolved (unlike cancellation),
  /// so captureCheckpoint() + a later resumeClassify() continues exactly
  /// where this run stopped. The serving layer's graceful-drain path.
  void requestStop() { stopRequested_.store(true, std::memory_order_relaxed); }
  bool stopRequested() const {
    return stopRequested_.load(std::memory_order_relaxed);
  }

  /// Quiescent-only (run() has returned, or never started): the full state
  /// image plus the progress cursor of the last completed barrier — what a
  /// graceful shutdown flushes as the final snapshot.
  ClassifierCheckpoint captureCheckpoint() const;

 private:
  ClassificationResult run(Executor& exec, const ClassifierCheckpoint* from);

  // Checkpoint plumbing (no-ops when config_.checkpoint is null).
  void settle(SettledKind kind, ConceptId x, ConceptId y);
  void notifyBarrier(std::uint64_t completedCycles,
                     std::uint64_t completedRounds);
  // Bumps the division-round clock and wakes epoch waiters (waitForPair /
  // waitForCompletion re-check their pair after every barrier).
  void advanceEpoch();
  void signalProgress() const;
  // Pair/test primitives shared by both division phases.
  enum class SatResult : std::uint8_t { kSat, kUnsat, kDeferred };
  SatResult ensureSat(ConceptId c, std::uint64_t& cost);
  void testPairSymmetric(ConceptId a, ConceptId b, std::uint64_t& cost);
  void testOrdered(ConceptId x, ConceptId y, std::uint64_t& cost);
  void pruneAfterStrict(ConceptId super, ConceptId sub);

  // Failure handling: runs the already-claimed ordered test subs?(x, y)
  // and records its outcome; on failure updates the retry ledger and
  // either releases the claim (retry later) or gives the pair up.
  TestOutcome runClaimedSubsTest(ConceptId x, ConceptId y, std::uint64_t& cost);
  void noteSubsFailure(ConceptId x, ConceptId y);
  void noteSatFailure(ConceptId c);
  void giveUpOnConcept(ConceptId c);
  void drainPossibleToUnresolved();

  // EL routing (DESIGN.md §13), split around the store build:
  // startElRouting partitions the TBox and, when the run routes,
  // dispatches the saturation as one task (null otherwise);
  // seedElFragment joins it and seeds the built store from its closure.
  struct ElRoute;
  std::unique_ptr<ElRoute> startElRouting(Executor& exec);
  void seedElFragment(Executor& exec, ElRoute& route,
                      ClassificationResult& result);
  /// Batched merge sweep before phase 1; false when it did not run.
  bool sweepMergeRefutable(Executor& exec);
  void runRandomCycle(Executor& exec, std::size_t cycleIndex,
                      std::vector<ConceptId>& order,
                      ClassificationResult& result);
  void runGroupRound(Executor& exec, std::size_t roundIndex,
                     ClassificationResult& result);
  void buildHierarchy(Executor& exec, ClassificationResult& result);

  const TBox& tbox_;
  ReasonerPlugin& plugin_;
  ClassifierConfig config_;
  PkStore store_;

  // Hot-path statistics, sharded over cache-line-padded per-thread slots
  // (every worker bumps these on every pair test; a single atomic would
  // bounce its line across all cores). Exact at executor barriers.
  ShardedCounter satTests_;
  ShardedCounter subsTests_;
  ShardedCounter pruned_;
  ShardedCounter failedTests_;
  ShardedCounter retriedTests_;
  /// Routing-phase report (written on the classifying thread before the
  /// store is published): pure-EL concept count, K claims won by the
  /// closure pass, and total reasoner calls made unnecessary.
  std::uint64_t routedConcepts_ = 0;
  std::uint64_t routeSeeded_ = 0;
  std::uint64_t routeAvoided_ = 0;
  /// Pairs settled by the merge sweep's row tasks (claims won).
  ShardedCounter sweepRefuted_;
  /// Division-round clock for the retry backoff: incremented after every
  /// random cycle and group round (barrier-separated from the tasks that
  /// read it).
  std::atomic<std::size_t> epoch_{0};

  // Serving-path state: lifecycle flags, the progress cursor of the last
  // completed barrier (for captureCheckpoint), and the epoch-wait channel.
  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};
  std::atomic<bool> stopRequested_{false};
  std::atomic<std::uint64_t> progressCycles_{0};
  std::atomic<std::uint64_t> progressRounds_{0};
  mutable std::mutex epochMu_;
  mutable std::condition_variable epochCv_;
};

}  // namespace owlcl
