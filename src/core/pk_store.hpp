// PkStore — the paper's shared-memory global data structure (Section III):
// for every named concept X the set P_X of *possible* subsumees, the set
// K_X of *known* subsumees, the tested-pair matrix behind tested(), and
// the per-concept satisfiability status. While workers run, all state is
// updated with single-word atomic RMWs so they never lock; at quiescent
// points (before the classifier publishes the store, and after its last
// barrier) plain word loops over quiescentRow() views do the bulk work.
//
// Encoding: row X of P/K is indexed by candidate subsumee Y.
//   P.test(X, Y)  — "Y might be subsumed by X, not yet resolved"
//   K.test(X, Y)  — "O ⊨ Y ⊑ X was derived"
//   tested(X, Y)  — "the ordered test subs?(X, Y) has been claimed"
//
// Fault tolerance (robust layer): plug-in calls can fail instead of
// returning a verdict, so the store also keeps a *retry ledger*: per
// ordered pair (and per concept, keyed on the diagonal) a failure count
// and the earliest division round at which a retry may run (capped
// exponential backoff), plus the `unresolved` set of pairs/concepts that
// exhausted their retries and were withdrawn from P so classification
// terminates with a sound partial taxonomy. Ledger operations lock a
// mutex, but every fast-path query short-circuits on an atomic failure
// counter — the ledger costs nothing until the first failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "owl/ids.hpp"
#include "parallel/atomic_bitmatrix.hpp"
#include "util/bitset.hpp"

namespace owlcl {

enum class SatStatus : std::uint8_t { kUnknown = 0, kSat = 1, kUnsat = 2 };

/// One retry-ledger entry in serialized form (key = ⟨X,Y⟩ packed as
/// (X << 32) | Y; sat?() failures use the diagonal key ⟨C,C⟩).
struct RetryImageEntry {
  std::uint64_t key = 0;
  std::uint32_t attempts = 0;
  std::uint64_t retryAtRound = 0;
};

/// Value-type snapshot of the full PkStore state, taken and restored only
/// at quiescent points (executor barriers). This is what checkpoint
/// snapshots serialize; all fields are plain data so the robust layer can
/// also apply journal records to an image before restoring it.
struct PkStoreImage {
  std::uint64_t conceptCount = 0;
  std::vector<std::uint64_t> pWords;       // P matrix, row-major
  std::vector<std::uint64_t> kWords;       // K matrix
  std::vector<std::uint64_t> testedWords;  // tested/claim matrix
  std::vector<std::uint8_t> sat;           // SatStatus per concept
  std::vector<RetryImageEntry> retries;
  std::vector<std::pair<ConceptId, ConceptId>> unresolvedPairs;
  std::vector<ConceptId> unresolvedConcepts;
  std::uint64_t totalFailures = 0;
  /// Σ|P_X| at capture time, from a ground-truth recount — recovery
  /// cross-checks the restored counters against this.
  std::uint64_t possibleCount = 0;
};

class PkStore {
 public:
  /// A null `kernels` binds activeBitKernels(). An explicit backend pins
  /// all three matrices to it; that exists for the differential suites and
  /// bench_ablation_bitkernels, which compare portable with vectorized.
  /// The matrices are allocated but not written: call initPossibleAll()
  /// or restoreImage() before any other matrix access. The counters (and
  /// so remainingPossible(), which reads 0), the sat statuses and the
  /// retry ledger are ready at once.
  explicit PkStore(std::size_t conceptCount,
                   const BitKernels* kernels = nullptr);

  std::size_t conceptCount() const { return n_; }

  /// The compute backend all three matrices run on.
  const BitKernels& bitKernels() const { return p_.kernels(); }

  // --- initialisation ------------------------------------------------------
  /// P_X := N_O \ {X} for every X, K empty, and only the diagonal tested
  /// (paper Section III). Writes every word of the three matrices once.
  /// Quiescent-only: plain stores, then one recount.
  void initPossibleAll();

  // --- satisfiability cache --------------------------------------------------
  SatStatus satStatus(ConceptId c) const {
    return static_cast<SatStatus>(sat_[c].load(std::memory_order_acquire));
  }
  /// Publishes a sat?() result (idempotent; concurrent double-set benign —
  /// both writers publish the same truth).
  void setSatStatus(ConceptId c, bool satisfiable) {
    sat_[c].store(static_cast<std::uint8_t>(satisfiable ? SatStatus::kSat
                                                        : SatStatus::kUnsat),
                  std::memory_order_release);
  }

  /// Situation 1 / Algorithm 2 unsat handling: P_X := ∅, K_X := ∅ and X is
  /// removed from every other P row (X subsumes nothing and is a *known*,
  /// not possible, subsumee of everything).
  void eraseUnsatConcept(ConceptId x);

  // --- tested() ------------------------------------------------------------
  /// Claims the ordered test subs?(X, Y). True iff this caller won the
  /// claim (the paper's ¬tested(X,Y) guard, made atomic).
  bool claimTest(ConceptId x, ConceptId y) { return tested_.testAndSet(x, y); }
  bool tested(ConceptId x, ConceptId y) const { return tested_.test(x, y); }
  /// Returns a claimed-but-failed test to the pool: the pair becomes
  /// claimable again (by this or another worker, once its backoff allows).
  void releaseClaim(ConceptId x, ConceptId y) { tested_.testAndClear(x, y); }

  /// Claims the sat?(C) computation so concurrent workers run at most one
  /// sat test per concept (and the retry ledger sees a deterministic
  /// attempt sequence). Released only on a retryable failure; a decided
  /// status makes the claim irrelevant.
  bool claimSat(ConceptId c) { return satClaim_[c].exchange(1, std::memory_order_acq_rel) == 0; }
  void releaseSat(ConceptId c) { satClaim_[c].store(0, std::memory_order_release); }

  // --- recording test outcomes ----------------------------------------------
  /// O ⊨ y ⊑ x: insert y into K_x, delete y from P_x.
  void recordSubsumption(ConceptId x, ConceptId y) {
    k_.testAndSet(x, y);
    p_.testAndClear(x, y);
  }
  /// O ⊭ y ⊑ x: delete y from P_x.
  void recordNonSubsumption(ConceptId x, ConceptId y) { p_.testAndClear(x, y); }

  /// Removes y from P_x *and* K_x (Situation 2.3.1 indirect-subsumee
  /// pruning: y stays reachable through the intermediate concept's K).
  void pruneIndirect(ConceptId x, ConceptId y) {
    p_.testAndClear(x, y);
    k_.testAndClear(x, y);
  }

  // --- word-granularity bulk transitions -------------------------------------
  // The mask is `nWords` row-major words over candidate subsumees Y; dead
  // bits past conceptCount() must be zero. Each call is O(n/64) atomic
  // word RMWs on the target row — the per-element loops these replace
  // issued three RMWs per set bit.

  /// Bulk Situation 2.3.1: claims tested(x, y), then removes y from P_x
  /// and K_x, for every y in `mask` — one fetch_or/fetch_and per word.
  /// Returns the number of claims this call won (pairs resolved without a
  /// reasoner test), mirroring the scalar claimTest + pruneIndirect pair.
  std::size_t pruneIndirectRow(ConceptId x, const std::uint64_t* mask,
                               std::size_t nWords) {
    const std::size_t claimed = tested_.orRow(x, mask, nWords);
    p_.andNotRow(x, mask, nWords);
    k_.andNotRow(x, mask, nWords);
    return claimed;
  }

  /// Bulk recordNonSubsumption: claims tested(x, y) and deletes y from
  /// P_x for every y in `mask`. The merge sweep's concurrent row tasks
  /// settle refuted rows with it (DESIGN.md §11). Returns the number of
  /// claims won (tests avoided).
  std::size_t seedNonSubRow(ConceptId x, const std::uint64_t* mask,
                            std::size_t nWords) {
    const std::size_t claimed = tested_.orRow(x, mask, nWords);
    p_.andNotRow(x, mask, nWords);
    return claimed;
  }

  // --- queries ---------------------------------------------------------------
  bool possible(ConceptId x, ConceptId y) const { return p_.test(x, y); }
  bool known(ConceptId x, ConceptId y) const { return k_.test(x, y); }

  // P is constructed in counted mode, so these two are O(1) / O(shards):
  // the maintained per-row and sharded global set-bit counters answer
  // without scanning matrix words (exact at executor barriers, which is
  // where the classifier reads them — see AtomicBitMatrix).
  std::size_t possibleCount(ConceptId x) const { return p_.countRow(x); }

  /// |R_O| = Σ_X |P_X| (Definition 1; snapshot).
  std::size_t remainingPossible() const { return p_.countAll(); }

  /// The live concepts: X with P_X ≠ ∅ or X ∈ P_Y for some Y. One OR
  /// pass over the rows whose counter is non-zero. P only shrinks, so a
  /// concept found dead stays dead; read it at a barrier.
  DynamicBitset liveConcepts() const;

  /// P_X restricted to candidate subsumees in [yBegin, yEnd), into a
  /// reusable caller buffer (cleared first). The chunked group-round
  /// dispatch reads only its own slice of the row, into a thread-local
  /// scratch vector, so it allocates nothing in steady state.
  void possibleInRange(ConceptId x, std::size_t yBegin, std::size_t yEnd,
                       std::vector<ConceptId>& out) const {
    p_.rowIndicesInto(x, yBegin, yEnd, out);
  }
  /// Allocation-free iteration over P_X (per-word snapshot: `fn` may
  /// withdraw the very pairs being visited).
  template <class Fn>
  void forEachPossible(ConceptId x, Fn&& fn) const {
    p_.forEachSetBit(x, [&fn](std::size_t y) { fn(static_cast<ConceptId>(y)); });
  }
  /// Allocation-free column pass: all X with y ∈ P_X.
  template <class Fn>
  void forEachPossibleInColumn(ConceptId y, Fn&& fn) const {
    p_.forEachSetBitInCol(y,
                          [&fn](std::size_t x) { fn(static_cast<ConceptId>(x)); });
  }
  /// Allocation-free column pass over K: all X with y ∈ K_X (the derived
  /// subsumers of y). The serving-path mid-run subsumption query walks
  /// this upward to recover prune-indirect verdicts by reachability.
  template <class Fn>
  void forEachKnownInColumn(ConceptId y, Fn&& fn) const {
    k_.forEachSetBitInCol(y,
                          [&fn](std::size_t x) { fn(static_cast<ConceptId>(x)); });
  }
  /// Word-atomic snapshot of K_X into a reusable buffer — the raw material
  /// for the word-level Algorithm 5 mask (pruneAfterStrict builds its
  /// 2.3.1 mask from this without allocating).
  void knownRowWordsInto(ConceptId x, std::vector<std::uint64_t>& out) const {
    k_.rowWordsInto(x, out);
  }
  /// Word-atomic snapshot of P_X — the candidate set the merge sweep
  /// hands to the plug-in's row refuter.
  void possibleRowWordsInto(ConceptId x,
                            std::vector<std::uint64_t>& out) const {
    p_.rowWordsInto(x, out);
  }

  // --- quiescent plain-word access --------------------------------------------
  // Same contract as captureImage/restoreImage: no concurrent mutators,
  // and no concurrent readers of a row being written. The classifier seeds
  // rows through these before it publishes the store (started()) and
  // reads K in place after its last barrier; the next dispatch publishes
  // the plain writes to the workers.

  /// Plain views of row X of P, K and tested, rowWords() words each.
  struct RowWords {
    std::uint64_t* p;
    std::uint64_t* k;
    std::uint64_t* tested;
  };
  RowWords quiescentRow(ConceptId x) {
    return {p_.quiescentRow(x), k_.quiescentRow(x), tested_.quiescentRow(x)};
  }
  const std::uint64_t* knownRowQuiescent(ConceptId x) const {
    return k_.quiescentRow(x);
  }
  /// Words carrying columns per row, (conceptCount()+63)/64 — the same
  /// count as a DynamicBitset over the concepts.
  std::size_t rowWords() const { return p_.usedWordsPerRow(); }
  /// Rebuilds P's O(1) counters after writes through quiescentRow().
  void recountPossible() { p_.recount(); }

  // --- retry ledger (failed plug-in calls) -----------------------------------
  // Keys are ordered pairs ⟨X,Y⟩ for subs?(X,Y); sat?(C) failures use the
  // diagonal key ⟨C,C⟩ (never a real pair test).

  /// Records one failed attempt of test ⟨X,Y⟩ observed during division
  /// round `round`, schedules the retry with capped exponential backoff
  /// (min(2^(attempts-1), backoffCapRounds) rounds later), and returns the
  /// total attempt count for the key.
  std::size_t recordFailure(ConceptId x, ConceptId y, std::size_t round,
                            std::size_t backoffCapRounds);

  /// False while ⟨X,Y⟩ is backing off (its scheduled retry round is after
  /// `round`). Fast-path true when no failure was ever recorded.
  bool retryEligible(ConceptId x, ConceptId y, std::size_t round) const;

  /// Failed attempts recorded for ⟨X,Y⟩ (0 if none).
  std::size_t failureAttempts(ConceptId x, ConceptId y) const;

  /// True once any failure has been recorded (single atomic load).
  bool hasFailures() const {
    return totalFailures_.load(std::memory_order_relaxed) != 0;
  }
  std::uint64_t totalFailures() const {
    return totalFailures_.load(std::memory_order_relaxed);
  }

  /// Gives up on test ⟨X,Y⟩: claims it (idempotent), withdraws it from
  /// P_X, and — iff this call performed the withdrawal — records it in the
  /// unresolved set. Safe to call for already-resolved pairs (no-op).
  /// Returns true iff this call performed the withdrawal.
  bool markUnresolved(ConceptId x, ConceptId y);

  /// Bulk markUnresolved over all of P_X: claims, withdraws and records
  /// every pair still possible in row X with a few word ops per word, and
  /// returns how many it withdrew; the Ys are also appended, ascending, to
  /// `withdrawn` when it is given. Quiescent-only (no concurrent mutators;
  /// concurrent readers are fine) — a cancelled run's drain, where nearly
  /// all of P may still be set.
  std::size_t withdrawPossibleRow(ConceptId x,
                                  std::vector<ConceptId>* withdrawn = nullptr);

  /// Gives up on sat?(C) (concept-level degradation; the caller also
  /// withdraws every pending pair involving C). Idempotent; returns true
  /// iff this call recorded the concept.
  bool markConceptUnresolved(ConceptId c);

  /// Snapshot of the unresolved sets (unordered; callers sort for reports).
  std::vector<std::pair<ConceptId, ConceptId>> unresolvedPairs() const;
  std::vector<ConceptId> unresolvedConcepts() const;
  bool conceptUnresolved(ConceptId c) const;
  /// True iff ⟨X,Y⟩ was withdrawn into the unresolved set. Fast-path false
  /// when nothing was ever withdrawn (single atomic load); otherwise a
  /// bit-matrix probe under the ledger mutex. Serving queries use this to
  /// distinguish "settled non-subsumption" from "given up".
  bool pairUnresolved(ConceptId x, ConceptId y) const;

  // --- checkpointing ---------------------------------------------------------
  // Quiescent-only (no concurrent mutators): the classifier calls these
  // between executor barriers, recovery calls them before workers start.

  /// Full state image: matrices, sat statuses, retry ledger, unresolved
  /// sets, plus a ground-truth |R_O| recount for integrity checks.
  PkStoreImage captureImage() const;

  /// Replaces the entire store state with `img` (conceptCount must match)
  /// and rebuilds the O(1) counters by recounting. It writes every matrix
  /// word, so it also initialises a fresh store. Sat claims are reset:
  /// released for undecided concepts (a resumed run may retry them) and
  /// held for concepts that were given up on (nobody retries those).
  void restoreImage(const PkStoreImage& img);

  /// True iff the maintained P counters agree with a full recount —
  /// recovery refuses a snapshot whose restored counters do not verify.
  bool countersConsistent() const { return p_.countersMatchRecount(); }

  /// FATAL counter audit: like countersConsistent(), but on mismatch
  /// prints the first divergent row (maintained vs recount; row ==
  /// conceptCount() means the sharded global total) tagged with `context`
  /// and aborts. Runs automatically at the end of every restoreImage()
  /// (rollbacks and --resume snapshot loads), so a corrupted image can
  /// never silently seed a run.
  void auditCounters(const char* context) const;

 private:
  struct RetryEntry {
    std::uint32_t attempts = 0;
    std::size_t retryAtRound = 0;
  };
  static std::uint64_t pairKey(ConceptId x, ConceptId y) {
    return (static_cast<std::uint64_t>(x) << 32) | y;
  }

  std::size_t n_;
  AtomicBitMatrix p_;
  AtomicBitMatrix k_;
  AtomicBitMatrix tested_;
  std::vector<std::atomic<std::uint8_t>> sat_;
  std::vector<std::atomic<std::uint8_t>> satClaim_;

  std::atomic<std::uint64_t> totalFailures_{0};
  /// Set once anything was withdrawn as unresolved (pair or concept) —
  /// the pairUnresolved fast path. Distinct from hasFailures(): a
  /// cancelled run drains P without recording failures.
  std::atomic<bool> anyUnresolved_{false};
  mutable std::mutex ledgerMu_;
  std::unordered_map<std::uint64_t, RetryEntry> retries_;
  std::vector<std::pair<ConceptId, ConceptId>> unresolvedPairs_;
  /// unresolvedPairs_ as bits, for pairUnresolved; allocated on the first
  /// withdrawal, as most runs never give up on a pair. Callers of
  /// unresolvedBits() hold ledgerMu_.
  std::unique_ptr<AtomicBitMatrix> unresolvedBits_;
  AtomicBitMatrix& unresolvedBits();
  std::vector<ConceptId> unresolvedConcepts_;
  std::vector<bool> conceptUnresolvedFlag_;
};

}  // namespace owlcl
