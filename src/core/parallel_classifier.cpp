#include "core/parallel_classifier.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "elcore/el_reasoner.hpp"
#include "owl/el_fragment.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace owlcl {

namespace {
// Large groups are split into chunks of roughly this many pair tests so
// idle workers can steal partial groups. Small enough to balance, large
// enough that per-chunk dispatch cost stays noise.
constexpr std::size_t kStealChunkPairs = 512;
// Concepts per task in the merge sweep's and the hierarchy build's
// parallel steps (one task per concept would cost as much as the work).
constexpr std::size_t kConceptChunk = 32;

// Dispatches work(begin, end) over [0, count) in chunks of kConceptChunk,
// then waits at a barrier. work returns the chunk's cost.
template <class Work>
void runChunked(Executor& exec, std::size_t count, const Work& work) {
  for (std::size_t b = 0; b < count; b += kConceptChunk) {
    const std::size_t e = std::min(count, b + kConceptChunk);
    exec.dispatch([&work, b, e] { return work(b, e); });
  }
  exec.barrier();
}

// Settles every row whose K routing wrote through plain views, before the
// store is published: for each x in `rows` ∪ `nonSub`,
//   S = K_x ∪ (nonSub \ {x} if x ∈ nonSub),  tested_x |= S,  P_x &= ~S,
// one fused plain word loop per row, then one P-counter recount. Because
// K ⊆ tested and K ∩ P = ∅ at quiescence, this equals applying only the
// newly written K bits (bulk recordSubsumption) plus nonSub (bulk
// recordNonSubsumption). Returns the claims won, {from K, in total},
// counted against the old tested row.
struct SeedClaims {
  std::uint64_t known = 0;
  std::uint64_t total = 0;
};

SeedClaims settleSeededRows(PkStore& store, const DynamicBitset& rows,
                            DynamicBitset& nonSub) {
  const std::size_t n = store.conceptCount();
  const std::size_t words = store.rowWords();
  const BitKernels& bk = store.bitKernels();
  std::vector<std::uint64_t> freshK(words);
  std::vector<std::uint64_t> fresh(words);
  SeedClaims claims;
  for (ConceptId x = 0; x < n; ++x) {
    const bool neg = nonSub.test(x);
    if (!neg && !rows.test(x)) continue;
    if (neg) nonSub.reset(x);
    const PkStore::RowWords row = store.quiescentRow(x);
    const std::uint64_t* extra = neg ? nonSub.words() : nullptr;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t k = row.k[w];
      const std::uint64_t sw = extra != nullptr ? k | extra[w] : k;
      const std::uint64_t t = row.tested[w];
      freshK[w] = k & ~t;
      fresh[w] = sw & ~t;
      row.tested[w] = t | sw;
      row.p[w] &= ~sw;
    }
    if (neg) nonSub.set(x);
    claims.known += bk.popcountWords(freshK.data(), words);
    claims.total += bk.popcountWords(fresh.data(), words);
  }
  store.recountPossible();
  return claims;
}

}  // namespace

ParallelClassifier::ParallelClassifier(const TBox& tbox, ReasonerPlugin& plugin,
                                       ClassifierConfig config)
    : tbox_(tbox),
      plugin_(plugin),
      config_(config),
      store_(tbox.conceptCount(), config.bitKernels) {
  OWLCL_ASSERT_MSG(tbox.frozen(), "freeze the TBox before classification");
}

void ParallelClassifier::settle(SettledKind kind, ConceptId x, ConceptId y) {
  if (config_.checkpoint != nullptr)
    config_.checkpoint->recordSettled(kind, x, y,
                                      epoch_.load(std::memory_order_relaxed));
}

void ParallelClassifier::notifyBarrier(std::uint64_t completedCycles,
                                       std::uint64_t completedRounds) {
  // Progress cursor for captureCheckpoint(): always tracked, even without
  // a checkpoint hook attached.
  progressCycles_.store(completedCycles, std::memory_order_relaxed);
  progressRounds_.store(completedRounds, std::memory_order_relaxed);
  if (config_.checkpoint == nullptr) return;
  const ClassifierProgress progress{completedCycles, completedRounds,
                                    epoch_.load(std::memory_order_relaxed)};
  config_.checkpoint->epochBarrier(progress, [this, progress] {
    ClassifierCheckpoint c;
    c.progress = progress;
    c.store = store_.captureImage();
    return c;
  });
}

void ParallelClassifier::advanceEpoch() {
  epoch_.fetch_add(1, std::memory_order_relaxed);
  signalProgress();
}

void ParallelClassifier::signalProgress() const {
  // Empty critical section: pairs the notify with waiters whose predicate
  // reads the atomics, so a wake between predicate check and wait is
  // impossible.
  { std::lock_guard<std::mutex> lock(epochMu_); }
  epochCv_.notify_all();
}

ParallelClassifier::SatResult ParallelClassifier::ensureSat(
    ConceptId c, std::uint64_t& cost) {
  const SatStatus st = store_.satStatus(c);
  if (st == SatStatus::kSat) return SatResult::kSat;
  if (st == SatStatus::kUnsat) return SatResult::kUnsat;

  // Unknown: at most one worker computes it; a failed attempt backs off.
  if (!store_.retryEligible(c, c, epoch_.load(std::memory_order_relaxed)))
    return SatResult::kDeferred;
  if (!store_.claimSat(c)) {
    // Another worker holds (or held) the computation; use whatever status
    // it published, else defer this pair to a later round.
    switch (store_.satStatus(c)) {
      case SatStatus::kSat:
        return SatResult::kSat;
      case SatStatus::kUnsat:
        return SatResult::kUnsat;
      case SatStatus::kUnknown:
        return SatResult::kDeferred;
    }
  }

  std::uint64_t ns = 0;
  if (store_.hasFailures() && store_.failureAttempts(c, c) > 0)
    retriedTests_.add();
  const TestVerdict v = plugin_.trySatisfiable(c, &ns);
  cost += ns;
  satTests_.add();
  if (!v.ok()) {
    noteSatFailure(c);
    return SatResult::kDeferred;
  }
  store_.setSatStatus(c, v.value());
  if (!v.value()) store_.eraseUnsatConcept(c);
  settle(v.value() ? SettledKind::kSatTrue : SettledKind::kSatFalse, c, c);
  return v.value() ? SatResult::kSat : SatResult::kUnsat;
}

TestOutcome ParallelClassifier::runClaimedSubsTest(ConceptId x, ConceptId y,
                                                   std::uint64_t& cost) {
  std::uint64_t ns = 0;
  if (store_.hasFailures() && store_.failureAttempts(x, y) > 0)
    retriedTests_.add();
  const TestVerdict v = plugin_.trySubsumedBy(y, x, &ns);  // subs?(x,y): y ⊑ x?
  cost += ns;
  subsTests_.add();
  if (!v.ok()) {
    noteSubsFailure(x, y);
    return TestOutcome::kFailed;
  }
  if (v.value()) {
    store_.recordSubsumption(x, y);
    settle(SettledKind::kSubsumption, x, y);
  } else {
    store_.recordNonSubsumption(x, y);
    settle(SettledKind::kNonSubsumption, x, y);
  }
  return v.outcome;
}

void ParallelClassifier::noteSubsFailure(ConceptId x, ConceptId y) {
  failedTests_.add();
  const std::size_t attempts =
      store_.recordFailure(x, y, epoch_.load(std::memory_order_relaxed),
                           config_.backoffCapRounds);
  if (attempts > config_.maxRetries) {
    // Retries exhausted: withdraw the pair (we still hold its claim) so
    // classification terminates; the verdict stays unknown.
    if (store_.markUnresolved(x, y)) settle(SettledKind::kUnresolvedPair, x, y);
  } else {
    store_.releaseClaim(x, y);  // pair stays possible → requeued later
  }
}

void ParallelClassifier::noteSatFailure(ConceptId c) {
  failedTests_.add();
  const std::size_t attempts =
      store_.recordFailure(c, c, epoch_.load(std::memory_order_relaxed),
                           config_.backoffCapRounds);
  if (attempts > config_.maxRetries)
    giveUpOnConcept(c);  // keeps the sat claim: nobody retries
  else
    store_.releaseSat(c);
}

void ParallelClassifier::giveUpOnConcept(ConceptId c) {
  // sat?(c) is undecidable within the fault budget. Degrade: treat c as
  // satisfiable-with-unknown-status (sound — only successfully derived
  // edges are ever asserted; if c were actually unsatisfiable, every
  // subsumption involving it is entailed anyway) and withdraw every
  // pending pair involving c so the run terminates.
  if (store_.markConceptUnresolved(c))
    settle(SettledKind::kUnresolvedConcept, c, c);
  store_.forEachPossible(c, [this, c](ConceptId y) {
    if (store_.markUnresolved(c, y)) settle(SettledKind::kUnresolvedPair, c, y);
  });
  // Column pass over row words (skipping rows whose O(1) possible-count is
  // already zero) instead of n individual possible(x, c) probes.
  store_.forEachPossibleInColumn(c, [this, c](ConceptId x) {
    if (x != c && store_.markUnresolved(x, c))
      settle(SettledKind::kUnresolvedPair, x, c);
  });
}

void ParallelClassifier::drainPossibleToUnresolved() {
  // Cancellation cut the run short: whatever is still possible will never
  // be tested. Runs between barriers — no worker holds claims here.
  const std::size_t n = store_.conceptCount();
  std::vector<ConceptId> withdrawn;  // only collected for the journal
  std::vector<ConceptId>* journaled =
      config_.checkpoint != nullptr ? &withdrawn : nullptr;
  for (ConceptId x = 0; x < n; ++x) {
    withdrawn.clear();
    store_.withdrawPossibleRow(x, journaled);
    for (ConceptId y : withdrawn) settle(SettledKind::kUnresolvedPair, x, y);
  }
  for (ConceptId c = 0; c < n; ++c)
    if (store_.satStatus(c) == SatStatus::kUnknown &&
        store_.markConceptUnresolved(c))
      settle(SettledKind::kUnresolvedConcept, c, c);
}

void ParallelClassifier::pruneAfterStrict(ConceptId super, ConceptId sub) {
  // Algorithm 5, Situations 2.3.1 + 2.3.2, for O ⊨ sub ⊑ super with
  // super ⋢ sub. Snapshot K_sub as raw words; concurrent growth of K_sub
  // is handled by whichever worker records those later subsumptions (it
  // reruns pruning). Thread-local scratch keeps this allocation-free
  // after each thread's first strict outcome.
  thread_local std::vector<std::uint64_t> ksub;
  thread_local std::vector<std::uint64_t> mask231;
  store_.knownRowWordsInto(sub, ksub);
  mask231.assign(ksub.size(), 0);
  bool anyIndirect = false;
  constexpr std::size_t kWordBits = 64;
  for (std::size_t w = 0; w < ksub.size(); ++w) {
    std::uint64_t v = ksub[w];
    while (v != 0) {
      const std::uint64_t bit = v & (~v + 1);
      v &= v - 1;
      const ConceptId y = static_cast<ConceptId>(
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(bit)));
      if (y == super || y == sub) continue;
      // 2.3.2: super ⊑ y would force super ≡ sub ≡ y, contradicting
      // strictness — record the non-subsumption without a reasoner call.
      // (Sound even when y ≡ sub.) Inherently per-element: each y owns a
      // *different* row (y, super), so there is no common row to batch —
      // see DESIGN.md §10 on why 2.3.2 stays scalar.
      const bool clearedBackward = store_.claimTest(y, super);
      store_.recordNonSubsumption(y, super);
      settle(SettledKind::kNonSubsumption, y, super);
      if (clearedBackward) pruned_.add();
      // 2.3.1: y ⊑ sub ⊑ super, so y is an *indirect* subsumee of super —
      // collect it into a word mask and drop the whole batch from
      // P_super/K_super below with O(n/64) atomic RMWs.
      //
      // Equivalence guard: if y ≡ sub (sub ∈ K_y), y sits at sub's own
      // level and is a *direct* subsumee — skip. This also closes a
      // concurrency hole: two workers strict-testing (super, sub) and
      // (super, y) with sub ≡ y could otherwise prune each other's
      // K_super records (mutual destruction). The guard is race-free:
      // each worker's prune candidate comes from a K snapshot taken after
      // the equivalence's first direction was recorded, so at least one
      // worker observes the second direction and skips (the acq_rel bit
      // operations order the reads).
      if (!store_.known(y, sub)) {
        mask231[w] |= bit;
        anyIndirect = true;
      }
    }
  }
  if (!anyIndirect) return;
  // All of row super's 2.3.1 transitions in one word sweep: claim tested,
  // clear P, clear K. The claimed-bit count preserves the scalar path's
  // pruned_ accounting exactly (only freshly claimed pairs count).
  const std::size_t claimed =
      store_.pruneIndirectRow(super, mask231.data(), mask231.size());
  if (claimed != 0) pruned_.add(claimed);
  if (config_.checkpoint != nullptr) {
    for (std::size_t w = 0; w < mask231.size(); ++w) {
      std::uint64_t v = mask231[w];
      while (v != 0) {
        const ConceptId y = static_cast<ConceptId>(
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(v)));
        v &= v - 1;
        settle(SettledKind::kPruneIndirect, super, y);
      }
    }
  }
}

void ParallelClassifier::testPairSymmetric(ConceptId a, ConceptId b,
                                           std::uint64_t& cost) {
  // Quick reject: both directions already resolved.
  if (!store_.possible(a, b) && !store_.possible(b, a)) return;
  // Unsat erases the pair; a deferred (failed/backing-off) sat test keeps
  // it possible for a later round.
  if (ensureSat(a, cost) != SatResult::kSat) return;
  if (ensureSat(b, cost) != SatResult::kSat) return;

  // Claim each direction; a lost claim is being handled by another worker,
  // and a direction in retry backoff must not be re-attempted yet.
  const std::size_t round = epoch_.load(std::memory_order_relaxed);
  const bool claimAb =
      store_.retryEligible(a, b, round) && store_.claimTest(a, b);
  const bool claimBa =
      store_.retryEligible(b, a, round) && store_.claimTest(b, a);
  if (!claimAb && !claimBa) return;

  bool bUnderA = false, aUnderB = false;
  bool knowBUnderA = false, knowAUnderB = false;
  if (claimAb) {  // subs?(a,b): b ⊑ a?
    const TestOutcome o = runClaimedSubsTest(a, b, cost);
    if (o != TestOutcome::kFailed) {
      knowBUnderA = true;
      bUnderA = o == TestOutcome::kTrue;
    }
  }
  if (claimBa) {  // subs?(b,a): a ⊑ b?
    const TestOutcome o = runClaimedSubsTest(b, a, cost);
    if (o != TestOutcome::kFailed) {
      knowAUnderB = true;
      aUnderB = o == TestOutcome::kTrue;
    }
  }

  // Algorithm 5 pruning needs a *strict* outcome, i.e. both directions
  // known from this claim (Situation 2.3; 2.2 equivalence and 2.4 mutual
  // non-subsumption leave P/K as recorded above). A failed direction
  // yields no outcome, so no pruning happens on partial knowledge.
  if (!knowBUnderA || !knowAUnderB) return;
  if (bUnderA && !aUnderB)
    pruneAfterStrict(/*super=*/a, /*sub=*/b);
  else if (aUnderB && !bUnderA)
    pruneAfterStrict(/*super=*/b, /*sub=*/a);
}

void ParallelClassifier::testOrdered(ConceptId x, ConceptId y,
                                     std::uint64_t& cost) {
  // Algorithm 2/3 verbatim: test subs?(x, y) — is y ⊑ x — only.
  if (!store_.possible(x, y)) return;
  if (ensureSat(x, cost) != SatResult::kSat) return;
  if (ensureSat(y, cost) != SatResult::kSat) return;
  if (!store_.retryEligible(x, y, epoch_.load(std::memory_order_relaxed)))
    return;
  if (!store_.claimTest(x, y)) return;
  runClaimedSubsTest(x, y, cost);
}

void ParallelClassifier::routeElFragment(Executor& exec,
                                         ClassificationResult& result) {
  // Hybrid EL/tableau routing (DESIGN.md §13). Runs on the classifying
  // thread between the genesis barrier and phase 1, before the store is
  // published: no query and no worker can see it, so it seeds with plain
  // word loops and dispatches nothing. Soundness:
  //  * the EL sub-ontology E is a subset of O, so every saturation-derived
  //    subsumption / unsatisfiability is entailed by O (monotonicity);
  //  * for *pure* concepts (⊥-module all-EL, mod ⊆ E ⊆ O) the module
  //    robustness of ⊥-locality makes E deductively conservative, so a
  //    NON-derived pure×pure subsumption is a definite non-subsumption
  //    and a saturation-satisfiable pure concept is satisfiable in O.
  // Byte parity with a tableau-only run: seeded K edges are full-closure
  // edges and the taxonomy builder computes direct children by
  // reachability with transitive reduction.
  // The resume path never re-routes — a crash mid-seed replays the
  // journaled records and tableau-tests whatever was not yet seeded.
  const std::uint64_t t0 = exec.elapsedNs();
  const std::size_t possibleBefore = store_.remainingPossible();
  const std::uint64_t testsBefore = satTests_.value() + subsTests_.value();

  const ElPartition part = partitionElFragment(tbox_);
  if (part.elAxioms == 0) return;  // nothing to route
  if (config_.routeEl == ElRouting::kAuto && !part.majorityEl()) return;

  // Saturate the maximal EL sub-ontology, timed by the kRouting cycle
  // entry. A fired token (watchdog, budget, SIGTERM)
  // cuts the saturation short: nothing is seeded, and the run's drain
  // withdraws the untested pairs into the unresolved report.
  ElReasoner el(tbox_, part.axiomEl);
  if (!el.classify(&exec.cancellation())) {
    result.cycles.push_back({CycleStats::Phase::kRouting, 0, possibleBefore,
                             possibleBefore, exec.elapsedNs() - t0, 0});
    return;
  }

  const std::size_t n = store_.conceptCount();
  std::uint64_t avoided = 0;

  // Unsatisfiable concepts — sound for any concept, pure or tainted.
  // Mirrors ensureSat's unsat path (status, erase, journal) so the
  // taxonomy assigns them to ⊥ exactly as a tableau-only run would.
  for (ConceptId c = 0; c < n; ++c) {
    if (el.isSatisfiable(c)) continue;
    if (store_.satStatus(c) != SatStatus::kUnknown) continue;
    store_.setSatStatus(c, false);
    store_.eraseUnsatConcept(c);
    settle(SettledKind::kSatFalse, c, c);
    ++avoided;
  }

  // Negative-verdict gate. The theory above says pure negatives are sound
  // even with a non-EL residual; one cheap tableau sat test on a pure
  // concept cross-checks it (belt and braces against detector bugs): if
  // the tableau disagrees with saturation-satisfiable, fall back to
  // positive-only seeding. The call goes through ensureSat, so it is a
  // test the tableau-only run would have performed anyway.
  bool allowNegative = part.pureCount > 0;
  if (allowNegative && part.nonElAxioms > 0) {
    ConceptId guard = kInvalidConcept;
    for (ConceptId c = 0; c < n && guard == kInvalidConcept; ++c)
      if (part.pureConcepts.test(c) && el.isSatisfiable(c)) guard = c;
    if (guard != kInvalidConcept) {
      std::uint64_t cost = 0;
      allowNegative = ensureSat(guard, cost) == SatResult::kSat;
    }
  }

  // Satisfiability of pure concepts comes straight from the fixpoint;
  // ensureSat short-circuits on the published status, so these concepts
  // never reach the tableau.
  DynamicBitset pureSat(n);
  std::vector<ConceptId> satSettled;  // journal order
  if (allowNegative) {
    for (ConceptId c = 0; c < n; ++c) {
      if (!part.pureConcepts.test(c) || !el.isSatisfiable(c)) continue;
      pureSat.set(c);
      if (store_.satStatus(c) != SatStatus::kUnknown) continue;
      store_.setSatStatus(c, true);
      satSettled.push_back(c);
      ++avoided;
    }
  }

  // Positive closure straight into K through the plain row views.
  // forEachSubsumption emits only satisfiable subs (the unsat ones are
  // settled above) and never the diagonal.
  const bool journal = config_.checkpoint != nullptr;
  DynamicBitset closureRows(n);
  std::vector<std::uint64_t> closurePairs;  // (sup << 32) | sub, journal only
  el.forEachSubsumption([&](ConceptId sup, ConceptId sub) {
    store_.quiescentRow(sup).k[sub / 64] |= std::uint64_t{1} << (sub % 64);
    closureRows.set(sup);
    if (journal)
      closurePairs.push_back((static_cast<std::uint64_t>(sup) << 32) | sub);
  });

  // One fused pass settles both: the closure rows, and — the definite
  // non-subsumptions — pure × pure pairs, both satisfiable, not in the
  // closure, so the division phases only ever see pairs with a non-EL
  // side.
  const SeedClaims claims = settleSeededRows(store_, closureRows, pureSat);
  avoided += claims.total;

  if (journal) {
    std::sort(closurePairs.begin(), closurePairs.end());
    for (const std::uint64_t pair : closurePairs)
      settle(SettledKind::kSubsumption, static_cast<ConceptId>(pair >> 32),
             static_cast<ConceptId>(pair & 0xffffffffu));
    for (const ConceptId c : satSettled) settle(SettledKind::kSatTrue, c, c);
    const std::size_t words = store_.rowWords();
    pureSat.forEachSetBit([&](std::size_t xi) {
      const auto x = static_cast<ConceptId>(xi);
      const std::uint64_t* k = store_.knownRowQuiescent(x);
      for (std::size_t w = 0; w < words; ++w)
        for (std::uint64_t v = pureSat.words()[w] & ~k[w]; v != 0; v &= v - 1) {
          const auto y = static_cast<ConceptId>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(v)));
          if (y != x) settle(SettledKind::kNonSubsumption, x, y);
        }
    });
  }

  routedConcepts_ = allowNegative ? part.pureCount : 0;
  routeSeeded_ = claims.known;
  routeAvoided_ = avoided;

  result.cycles.push_back(
      {CycleStats::Phase::kRouting, 0, possibleBefore,
       store_.remainingPossible(), exec.elapsedNs() - t0,
       satTests_.value() + subsTests_.value() - testsBefore});
}

bool ParallelClassifier::sweepMergeRefutable(Executor& exec) {
  // Batched merge sweep (DESIGN.md §11): every pair the plug-in can refute
  // by model merging settles with one mask per P row, applied with the
  // atomic bulk negative kernel (workers run the rows concurrently), so
  // the division phases only see the pairs no mask refutes. Without the
  // hooks this costs nothing.
  RowRefuter* refuter = plugin_.rowRefuter();
  const CancellationToken& cancel = exec.cancellation();
  if (refuter == nullptr || cancel.cancelled()) return false;

  // Both steps run `work` over their concepts in chunks and end at a
  // barrier. The token is checked before every concept.
  std::vector<ConceptId> ids;
  const auto sweepStep = [&exec, &cancel, &ids](const auto& work) {
    runChunked(exec, ids.size(),
               [&ids, &work, &cancel](std::size_t b, std::size_t e) {
                 Stopwatch sw;
                 for (std::size_t i = b; i < e && !cancel.cancelled(); ++i)
                   work(ids[i]);
                 return static_cast<std::uint64_t>(sw.elapsedNs());
               });
  };

  // Step 1: sat verdict and refutation inputs of every live concept —
  // routed ones too: their verdict came from the saturation, but their
  // {c} model is what lets the masks refute them as candidates.
  store_.liveConcepts().forEachSetBit(
      [&ids](std::size_t c) { ids.push_back(static_cast<ConceptId>(c)); });
  sweepStep([this, refuter](ConceptId c) {
    std::uint64_t cost = 0;
    if (ensureSat(c, cost) == SatResult::kSat) refuter->prepare(c);
  });
  if (cancel.cancelled()) return true;

  // Step 2: behind the barrier the inputs are complete and immutable; each
  // open row is one refuteRow() over a P_x snapshot plus one bulk settle.
  ids.clear();
  for (ConceptId x = 0; x < store_.conceptCount(); ++x)
    if (store_.possibleCount(x) != 0 && store_.satStatus(x) == SatStatus::kSat)
      ids.push_back(x);
  const BitKernels& bk = store_.bitKernels();
  sweepStep([this, refuter, &bk](ConceptId x) {
    thread_local std::vector<std::uint64_t> candidates;
    thread_local std::vector<std::uint64_t> refuted;
    store_.possibleRowWordsInto(x, candidates);
    refuted.resize(candidates.size());
    if (refuter->refuteRow(x, candidates.data(), refuted.data(),
                           refuted.size(), bk) == 0)
      return;
    sweepRefuted_.add(store_.seedNonSubRow(x, refuted.data(), refuted.size()));
    if (config_.checkpoint == nullptr) return;
    for (std::size_t w = 0; w < refuted.size(); ++w)
      for (std::uint64_t v = refuted[w]; v != 0; v &= v - 1)
        settle(SettledKind::kNonSubsumption, x,
               static_cast<ConceptId>(
                   w * 64 + static_cast<std::size_t>(std::countr_zero(v))));
  });
  return true;
}

void ParallelClassifier::runRandomCycle(Executor& exec, std::size_t cycleIndex,
                                        std::vector<ConceptId>& order,
                                        ClassificationResult& result) {
  const std::size_t n = order.size();
  const std::size_t w = exec.workers();
  const std::size_t possibleBefore = store_.remainingPossible();
  const std::uint64_t testsBefore = satTests_.value() + subsTests_.value();
  const std::uint64_t t0 = exec.elapsedNs();

  // randomDivision: w contiguous slices of the shuffled order, one per
  // worker (group count == worker count, Section III-A1). Each slice keeps
  // only the live concepts (P row or P column non-empty): every pair with
  // a dead member would be quick-rejected, and P only shrinks, so the set
  // of pairs tested is unchanged. A routed EL corpus leaves no live
  // concept, and its cycles dispatch nothing.
  const DynamicBitset live = store_.liveConcepts();
  const CancellationToken& cancel = exec.cancellation();
  const std::size_t base = n / w;
  const std::size_t extra = n % w;
  std::size_t begin = 0;
  for (std::size_t g = 0; g < w && begin < n; ++g) {
    const std::size_t end = begin + base + (g < extra ? 1 : 0);
    auto slice = std::make_shared<std::vector<ConceptId>>();
    for (; begin < end; ++begin)
      if (live.test(order[begin])) slice->push_back(order[begin]);
    const std::size_t size = slice->size();
    if (size < 2) continue;  // a group needs at least one pair

    // One chunk covers the pairs whose *leading* index falls in
    // [iBegin, iEnd) — i.e. pairs (i, j) with iBegin ≤ i < iEnd < j ≤ size.
    auto runChunk = [this, slice, &cancel](std::size_t iBegin,
                                           std::size_t iEnd) -> std::uint64_t {
      std::uint64_t cost = 0;
      const std::vector<ConceptId>& s = *slice;
      for (std::size_t i = iBegin; i < iEnd; ++i) {
        if (cancel.cancelled()) break;  // cooperative: stop picking pairs
        for (std::size_t j = i + 1; j < s.size(); ++j) {
          if (config_.symmetricTests)
            testPairSymmetric(s[i], s[j], cost);
          else
            testOrdered(s[i], s[j], cost);
        }
      }
      return cost;
    };

    // Split the group's triangular pair set into chunks of
    // ~kStealChunkPairs tests by leading-index range, so an idle worker
    // can steal part of a heavy group instead of waiting at the barrier.
    std::size_t iBegin = 0;
    while (iBegin + 1 < size) {
      std::size_t pairs = 0;
      std::size_t iEnd = iBegin;
      while (iEnd + 1 < size && pairs < kStealChunkPairs) {
        pairs += size - 1 - iEnd;  // pairs led by index iEnd
        ++iEnd;
      }
      exec.dispatch(
          [runChunk, iBegin, iEnd] { return runChunk(iBegin, iEnd); });
      iBegin = iEnd;
    }
  }
  exec.barrier();

  result.cycles.push_back(
      {CycleStats::Phase::kRandomDivision, cycleIndex, possibleBefore,
       store_.remainingPossible(), exec.elapsedNs() - t0,
       satTests_.value() + subsTests_.value() - testsBefore});
}

void ParallelClassifier::runGroupRound(Executor& exec, std::size_t roundIndex,
                                       ClassificationResult& result) {
  const std::size_t n = store_.conceptCount();
  const std::size_t possibleBefore = store_.remainingPossible();
  const std::uint64_t testsBefore = satTests_.value() + subsTests_.value();
  const std::uint64_t t0 = exec.elapsedNs();

  // groupDivision: one group G_X per concept with P_X ≠ ∅. The group
  // content (P_X) is snapshotted when the task starts, so pruning
  // performed by earlier groups already shrinks later ones — the paper's
  // "changes performed to P and K before new divisions are created for an
  // idle thread".
  //
  // A large G_X is split into *column-range* chunks (each task snapshots
  // P_X ∩ [yBegin, yEnd) when it runs): a fixed partition of the
  // candidate space, so every possible pair is still attempted exactly
  // once per round regardless of how chunks interleave, while idle
  // workers steal slices of heavy groups. The chunk count comes from the
  // O(1) per-row counter — no scan.
  const CancellationToken& cancel = exec.cancellation();
  for (ConceptId x = 0; x < n; ++x) {
    const std::size_t cnt = store_.possibleCount(x);
    if (cnt == 0) continue;

    auto runChunk = [this, x, &cancel](std::size_t yBegin,
                                       std::size_t yEnd) -> std::uint64_t {
      std::uint64_t cost = 0;
      if (cancel.cancelled()) return cost;
      if (ensureSat(x, cost) != SatResult::kSat) return cost;
      // Snapshot P_X ∩ [yBegin, yEnd) into a per-worker scratch buffer, so
      // a chunk dispatch allocates nothing in steady state.
      thread_local std::vector<ConceptId> ybuf;
      store_.possibleInRange(x, yBegin, yEnd, ybuf);
      for (ConceptId y : ybuf) {
        if (cancel.cancelled()) break;  // cooperative: stop picking pairs
        if (config_.symmetricTests)
          testPairSymmetric(x, y, cost);
        else
          testOrdered(x, y, cost);
      }
      return cost;
    };

    const std::size_t chunks =
        std::min((cnt + kStealChunkPairs - 1) / kStealChunkPairs, n);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t yBegin = n * c / chunks;
      const std::size_t yEnd = n * (c + 1) / chunks;
      exec.dispatch(
          [runChunk, yBegin, yEnd] { return runChunk(yBegin, yEnd); });
    }
  }
  exec.barrier();

  result.cycles.push_back(
      {CycleStats::Phase::kGroupDivision, roundIndex, possibleBefore,
       store_.remainingPossible(), exec.elapsedNs() - t0,
       satTests_.value() + subsTests_.value() - testsBefore});
}

void ParallelClassifier::buildHierarchy(Executor& exec,
                                        ClassificationResult& result) {
  const std::size_t n = store_.conceptCount();
  const std::size_t words = store_.rowWords();
  const std::uint64_t t0 = exec.elapsedNs();

  // Divide (Algorithm 4, parallel). Behind the last barrier K is
  // immutable, so every step reads its rows in place.
  const auto forEachKnown = [this, words](ConceptId x, auto&& fn) {
    const std::uint64_t* k = store_.knownRowQuiescent(x);
    for (std::size_t w = 0; w < words; ++w)
      for (std::uint64_t v = k[w]; v != 0; v &= v - 1)
        fn(static_cast<ConceptId>(w * 64 + static_cast<std::size_t>(
                                               std::countr_zero(v))));
  };

  // Union-find over mutual known-subsumption (setEquivalentConcept).
  std::vector<ConceptId> rep(n);
  for (ConceptId x = 0; x < n; ++x) rep[x] = x;
  auto find = [&rep](ConceptId x) {
    while (rep[x] != x) {
      rep[x] = rep[rep[x]];
      x = rep[x];
    }
    return x;
  };
  for (ConceptId x = 0; x < n; ++x) {
    forEachKnown(x, [&](ConceptId y) {
      if (y <= x || !store_.known(y, x)) return;
      const ConceptId rx = find(x);
      const ConceptId ry = find(y);
      if (rx != ry) rep[std::max(rx, ry)] = std::min(rx, ry);
    });
  }
  // Flatten before the parallel steps: tasks below read rep[] lock-free.
  for (ConceptId x = 0; x < n; ++x) rep[x] = find(x);

  // One class per representative r, its members ascending (members[r][0]
  // == r); unsatisfiable concepts go to ⊥ instead.
  std::vector<std::vector<ConceptId>> members(n);
  for (ConceptId x = 0; x < n; ++x)
    if (store_.satStatus(x) != SatStatus::kUnsat) members[rep[x]].push_back(x);
  std::vector<ConceptId> classes;
  for (ConceptId r = 0; r < n; ++r)
    if (!members[r].empty() && members[r][0] == r) classes.push_back(r);

  // Per-thread marks over the classes, all clear between uses: each task
  // clears exactly the marks it set.
  const auto marks = [n]() -> std::vector<std::uint8_t>& {
    thread_local std::vector<std::uint8_t> m;
    if (m.size() < n) m.resize(n, 0);
    return m;
  };
  // Deterministic bookkeeping tick per class (the virtual executor's cost).
  constexpr std::uint64_t kClassTickNs = 1000;

  // Class-level K adjacency, sorted: adj[r] = representatives of classes
  // with a member in some member row of class r. Algorithm 5 pruning may
  // have dropped *single-step* K entries whose indirectness is only
  // witnessed through an intermediate class, so direct children must be
  // computed by *reachability* over this adjacency, not by one-step row
  // subtraction (the pruning invariant guarantees every true subsumee
  // stays reachable through a chain of witnesses).
  std::vector<std::vector<ConceptId>> adj(n);
  runChunked(exec, classes.size(), [&](std::size_t b, std::size_t e) {
    std::vector<std::uint8_t>& seen = marks();
    for (std::size_t i = b; i < e; ++i) {
      const ConceptId r = classes[i];
      std::vector<ConceptId>& out = adj[r];
      for (ConceptId m : members[r])
        forEachKnown(m, [&](ConceptId y) {
          const ConceptId ry = rep[y];
          if (ry == r || seen[ry]) return;
          seen[ry] = 1;
          out.push_back(ry);
        });
      for (ConceptId c : out) seen[c] = 0;
      std::sort(out.begin(), out.end());
    }
    return kClassTickNs * (e - b);
  });

  // buildPartialHierarchy (divide): the direct children of r are its
  // candidate classes minus those reachable from another candidate
  // (transitive reduction by a reachability walk). Sorted, as adj is.
  std::vector<std::vector<ConceptId>> children(n);
  runChunked(exec, classes.size(), [&](std::size_t b, std::size_t e) {
    std::vector<std::uint8_t>& reached = marks();
    thread_local std::vector<ConceptId> walk;
    for (std::size_t i = b; i < e; ++i) {
      const ConceptId r = classes[i];
      const std::vector<ConceptId>& cand = adj[r];
      walk.clear();
      const auto reach = [&](ConceptId c) {
        if (reached[c]) return;
        reached[c] = 1;
        walk.push_back(c);
      };
      // Walk from every candidate's children; anything reached is an
      // indirect subsumee of r.
      if (cand.size() > 1) {
        for (ConceptId c : cand)
          for (ConceptId cc : adj[c]) reach(cc);
        for (std::size_t j = 0; j < walk.size(); ++j)
          for (ConceptId cc : adj[walk[j]]) reach(cc);
      }
      for (ConceptId c : cand)
        if (!reached[c]) children[r].push_back(c);
      for (ConceptId c : walk) reached[c] = 0;
    }
    return kClassTickNs * (e - b);
  });

  // Conquer (sequential): merge the partial hierarchies into the taxonomy.
  Taxonomy tax(n);
  std::vector<Taxonomy::NodeId> nodeOfRep(n, Taxonomy::kNoNode);
  for (ConceptId r : classes) nodeOfRep[r] = tax.addNode(members[r]);
  for (ConceptId x = 0; x < n; ++x)
    if (store_.satStatus(x) == SatStatus::kUnsat) tax.assignToBottom(x);
  for (ConceptId r : classes) {
    for (ConceptId childRep : children[r]) {
      const Taxonomy::NodeId child = nodeOfRep[childRep];
      if (child != Taxonomy::kNoNode && child != nodeOfRep[r])
        tax.addEdge(nodeOfRep[r], child);
    }
  }
  tax.finalize();
  result.taxonomy = std::move(tax);

  result.cycles.push_back({CycleStats::Phase::kHierarchy, 0, 0, 0,
                           exec.elapsedNs() - t0, 0});
}

ClassificationResult ParallelClassifier::classify(Executor& exec) {
  return run(exec, nullptr);
}

ClassificationResult ParallelClassifier::resumeClassify(
    Executor& exec, const ClassifierCheckpoint& from) {
  return run(exec, &from);
}

ClassificationResult ParallelClassifier::run(Executor& exec,
                                             const ClassifierCheckpoint* from) {
  ClassificationResult result;
  const std::size_t n = store_.conceptCount();
  result.initialPossible = n * (n - 1);

  std::size_t startCycle = 0;
  std::size_t round = 0;
  if (from == nullptr) {
    store_.initPossibleAll();
    // Genesis barrier *before* seeding: with checkpointing enabled the
    // initialized state is snapshotted before any journal record exists,
    // so recovery always has a snapshot to anchor on — a crash mid-seeding
    // replays the seed records on top of this epoch-0 image (and the
    // resume path below never re-seeds; unseeded pairs are simply tested,
    // yielding the identical taxonomy).
    notifyBarrier(0, 0);
  } else {
    store_.restoreImage(from->store);
    epoch_.store(from->progress.epoch, std::memory_order_relaxed);
    startCycle = std::min<std::size_t>(from->progress.completedCycles,
                                       config_.randomCycles);
    round = from->progress.completedRounds;
    // Re-anchor: the recovered state (snapshot + replayed journal tail)
    // becomes the newest snapshot, and the journal is already truncated to
    // its last valid record — post-resume appends extend a clean prefix.
    notifyBarrier(startCycle, round);
  }
  // Armed before routing so the budget bounds the EL saturation too.
  if (config_.watchdogBudgetNs != 0) exec.armWatchdog(config_.watchdogBudgetNs);
  const CancellationToken& cancel = exec.cancellation();
  // Delta reruns (DESIGN.md §14) resume from a synthetic checkpoint whose
  // reopened cone rows never saw a routing phase; route them too so the
  // EL fragment settles at saturation speed. Crash-recovery resumes keep
  // routeElOnResume off — their routed verdicts are in the replayed journal.
  const bool freshRows = from == nullptr || config_.routeElOnResume;
  if (config_.routeEl != ElRouting::kOff && freshRows)
    routeElFragment(exec, result);
  // Publication point (DESIGN.md §13): initialisation and routing wrote the
  // store with plain word loops while no query or worker could see it.
  // Queries answer kUnknown until here; the release store orders every
  // seeded word before the first verdict a query reads, and the dispatches
  // below publish them to the workers. A cancelled routing publishes too.
  started_.store(true, std::memory_order_release);
  signalProgress();

  // The merge sweep runs on routing's resume condition, for the same
  // reason. It has no phase of its own: its time and tests are folded
  // into the first phase-1 entry below.
  const std::uint64_t sweepT0 = exec.elapsedNs();
  const std::uint64_t sweepTests0 = satTests_.value() + subsTests_.value();
  const std::size_t sweepBefore = store_.remainingPossible();
  const bool swept = freshRows && sweepMergeRefutable(exec);
  const CycleStats sweep{CycleStats::Phase::kRandomDivision, startCycle,
                         sweepBefore, store_.remainingPossible(),
                         exec.elapsedNs() - sweepT0,
                         satTests_.value() + subsTests_.value() - sweepTests0};
  const std::size_t phaseOneEntry = result.cycles.size();

  // Convergence slack for fault tolerance: a test key may fail up to
  // maxRetries+1 times, each followed by at most backoffCapRounds idle
  // rounds, and a pair can serialise up to four such keys (two sat tests,
  // two subsumption directions) before it is resolved or withdrawn.
  const std::size_t faultSlack =
      4 * (config_.maxRetries + 1) * (config_.backoffCapRounds + 1) + 4;

  // Phase 1: random division cycles. On resume the completed cycles are
  // skipped but their shuffles are replayed, so the RNG cursor — and with
  // it every later shuffle — matches the uninterrupted run exactly.
  std::vector<ConceptId> order(n);
  for (ConceptId c = 0; c < n; ++c) order[c] = c;
  Xoshiro256 rng(config_.seed);
  for (std::size_t cycle = 0; cycle < config_.randomCycles; ++cycle) {
    shuffle(order, rng);
    if (cycle < startCycle) continue;  // already covered by the checkpoint
    if (stopRequested_.load(std::memory_order_relaxed)) break;
    runRandomCycle(exec, cycle, order, result);
    advanceEpoch();  // backoff round clock; wakes epoch waiters
    notifyBarrier(cycle + 1, round);
  }
  if (swept) {
    if (result.cycles.size() == phaseOneEntry) {  // no cycle ran after it
      result.cycles.push_back(sweep);
    } else {
      CycleStats& first = result.cycles[phaseOneEntry];
      first.possibleBefore = sweep.possibleBefore;
      first.elapsedNs += sweep.elapsedNs;
      first.reasonerTests += sweep.reasonerTests;
    }
  }

  // Phase 2: group division until R_O = ∅. One round resolves every
  // remaining bit (each P_X is exhaustively attempted); the loop guards
  // against claim races leaving stragglers, and keeps spinning while
  // failed tests back off — every key either eventually succeeds or
  // exhausts its retries and is withdrawn, so the loop terminates.
  while (store_.remainingPossible() > 0 && !cancel.cancelled() &&
         !stopRequested_.load(std::memory_order_relaxed)) {
    runGroupRound(exec, round, result);
    advanceEpoch();
    OWLCL_ASSERT_MSG(++round <= n + 1 + faultSlack,
                     "group division failed to converge");
    notifyBarrier(config_.randomCycles, round);
  }

  // Satisfiability completion: unsat-erasure and Algorithm 5 pruning can
  // resolve every pair involving a concept without ever running sat?() on
  // it (e.g. a two-concept ontology where the partner is found
  // unsatisfiable first). The taxonomy needs a definite status for every
  // concept, so test the stragglers in parallel — repeating rounds while
  // failed sat tests back off, skipping concepts already given up on.
  std::size_t satPass = 0;
  while (!cancel.cancelled() && !stopRequested_.load(std::memory_order_relaxed)) {
    bool anyPending = false;
    for (ConceptId x = 0; x < n; ++x) {
      if (store_.satStatus(x) != SatStatus::kUnknown) continue;
      if (store_.conceptUnresolved(x)) continue;  // degraded: given up
      anyPending = true;
      exec.dispatch([this, x]() -> std::uint64_t {
        std::uint64_t cost = 0;
        ensureSat(x, cost);
        return cost;
      });
    }
    if (!anyPending) break;
    exec.barrier();
    advanceEpoch();
    OWLCL_ASSERT_MSG(++satPass <= faultSlack,
                     "sat completion failed to converge");
    notifyBarrier(config_.randomCycles, ++round);
  }

  // Graceful degradation: a fired watchdog (or external cancel) leaves
  // pairs possible and sat statuses unknown; withdraw them into the
  // unresolved report so the partial taxonomy below is still sound.
  result.cancelled = cancel.cancelled();
  if (result.cancelled) drainPossibleToUnresolved();

  // Quiescent pause (requestStop): if the stop cut the run short, leave
  // everything in place — no draining, no taxonomy — so captureCheckpoint()
  // flushes a state a resumed run continues from exactly. A stop that
  // landed after the last pair resolved is a normal completion.
  if (!result.cancelled && stopRequested_.load(std::memory_order_relaxed)) {
    bool openWork = store_.remainingPossible() > 0;
    for (ConceptId c = 0; !openWork && c < n; ++c)
      openWork = store_.satStatus(c) == SatStatus::kUnknown &&
                 !store_.conceptUnresolved(c);
    result.paused = openWork;
  }

  // Phase 3: taxonomy construction.
  if (!result.paused) buildHierarchy(exec, result);

  result.elapsedNs = exec.elapsedNs();
  result.busyNs = exec.busyNs();
  result.satTests = satTests_.value();
  result.subsumptionTests = subsTests_.value();
  result.prunedWithoutTest = pruned_.value();
  result.routedConcepts = routedConcepts_;
  result.saturationSeeded = routeSeeded_;
  result.testsAvoidedByRouting = routeAvoided_;
  result.sweepRefuted = sweepRefuted_.value();
  result.failedTests = failedTests_.value();
  result.retriedTests = retriedTests_.value();
  // Engine-level numbers (zero for plug-ins without engine internals).
  // Workers are joined by the phase barriers above, so the read is exact.
  const ReasonerStats rs = plugin_.reasonerStats();
  result.reasonerSatCalls = rs.satCalls;
  result.reasonerCacheHits = rs.cacheHits;
  result.reasonerClashes = rs.clashes;
  result.crossCacheHits = rs.crossCacheHits;
  result.mergeRefuted = rs.mergeRefuted;
  result.cacheInserts = rs.cacheInserts;
  result.cacheRejectedFull = rs.cacheRejectedFull;
  result.cacheRejectedLong = rs.cacheRejectedLong;
  result.unresolvedPairs = store_.unresolvedPairs();
  // The drain appends row by row, so a cancelled run's list is usually
  // sorted already.
  if (!std::is_sorted(result.unresolvedPairs.begin(),
                      result.unresolvedPairs.end()))
    std::sort(result.unresolvedPairs.begin(), result.unresolvedPairs.end());
  result.unresolvedConcepts = store_.unresolvedConcepts();
  std::sort(result.unresolvedConcepts.begin(), result.unresolvedConcepts.end());
  finished_.store(true, std::memory_order_release);
  signalProgress();
  return result;
}

ClassifierCheckpoint ParallelClassifier::captureCheckpoint() const {
  ClassifierCheckpoint c;
  c.progress =
      ClassifierProgress{progressCycles_.load(std::memory_order_relaxed),
                         progressRounds_.load(std::memory_order_relaxed),
                         epoch_.load(std::memory_order_relaxed)};
  c.store = store_.captureImage();
  return c;
}

SatVerdict ParallelClassifier::querySat(ConceptId c) const {
  if (!started_.load(std::memory_order_acquire) || c >= store_.conceptCount())
    return SatVerdict::kUnknown;
  switch (store_.satStatus(c)) {
    case SatStatus::kSat:
      return SatVerdict::kSatisfiable;
    case SatStatus::kUnsat:
      return SatVerdict::kUnsatisfiable;
    case SatStatus::kUnknown:
      break;
  }
  return store_.conceptUnresolved(c) ? SatVerdict::kUnresolved
                                     : SatVerdict::kUnknown;
}

PairVerdict ParallelClassifier::queryPair(ConceptId sup, ConceptId sub) const {
  if (!started_.load(std::memory_order_acquire)) return PairVerdict::kUnknown;
  const std::size_t n = store_.conceptCount();
  if (sup >= n || sub >= n) return PairVerdict::kUnknown;
  if (sup == sub) return PairVerdict::kSubsumed;
  // An unsatisfiable sub is subsumed by everything (it sits at ⊥).
  if (store_.satStatus(sub) == SatStatus::kUnsat) return PairVerdict::kSubsumed;

  // Read order matters: P before K. Every writer publishes the K edge (or
  // its witnesses) before clearing the P bit, so a query that still sees
  // the pair possible answers kUnknown, and one that sees it settled is
  // guaranteed to observe the verdict.
  if (store_.possible(sup, sub)) return PairVerdict::kUnknown;
  if (store_.known(sup, sub)) return PairVerdict::kSubsumed;
  if (store_.pairUnresolved(sup, sub)) return PairVerdict::kUnresolved;
  if (store_.satStatus(sup) == SatStatus::kUnsat)
    // Unsat-erasure is what cleared this P bit: sub ⊑ sup would require sub
    // unsatisfiable too (handled above); an undecided sub stays open.
    return store_.satStatus(sub) == SatStatus::kSat ? PairVerdict::kNotSubsumed
                                                    : PairVerdict::kUnknown;

  // Settled with no direct K edge: either a tested non-subsumption or an
  // Algorithm 5 indirect prune. Pruning removed K(sup, sub) but — by the
  // 2.3.1 invariant — sub stays reachable from sup through witness chains
  // (y ⊑ mid ⊑ sup with both K edges live or themselves witnessed), so an
  // upward walk over sub's known subsumers recovers the verdict.
  thread_local std::vector<char> visited;
  thread_local std::vector<ConceptId> touched;
  thread_local std::vector<ConceptId> stack;
  if (visited.size() < n) visited.resize(n, 0);
  touched.clear();
  stack.clear();
  visited[sub] = 1;
  touched.push_back(sub);
  stack.push_back(sub);
  bool hit = false;
  while (!stack.empty() && !hit) {
    const ConceptId cur = stack.back();
    stack.pop_back();
    store_.forEachKnownInColumn(cur, [&](ConceptId up) {
      if (hit || up >= n) return;
      if (up == sup) {
        hit = true;
        return;
      }
      if (!visited[up]) {
        visited[up] = 1;
        touched.push_back(up);
        stack.push_back(up);
      }
    });
  }
  for (ConceptId t : touched) visited[t] = 0;
  return hit ? PairVerdict::kSubsumed : PairVerdict::kNotSubsumed;
}

PairVerdict ParallelClassifier::waitForPair(
    ConceptId sup, ConceptId sub,
    std::chrono::steady_clock::time_point deadline) const {
  for (;;) {
    const PairVerdict v = queryPair(sup, sub);
    if (v != PairVerdict::kUnknown || finished()) return v;
    std::unique_lock<std::mutex> lock(epochMu_);
    const std::size_t seen = epoch_.load(std::memory_order_relaxed);
    const bool progressed = epochCv_.wait_until(lock, deadline, [this, seen] {
      return epoch_.load(std::memory_order_relaxed) != seen ||
             finished_.load(std::memory_order_acquire);
    });
    if (!progressed) {
      lock.unlock();
      return queryPair(sup, sub);  // deadline hit: report what we have
    }
  }
}

SatVerdict ParallelClassifier::waitForSat(
    ConceptId c, std::chrono::steady_clock::time_point deadline) const {
  for (;;) {
    const SatVerdict v = querySat(c);
    if (v != SatVerdict::kUnknown || finished()) return v;
    std::unique_lock<std::mutex> lock(epochMu_);
    const std::size_t seen = epoch_.load(std::memory_order_relaxed);
    const bool progressed = epochCv_.wait_until(lock, deadline, [this, seen] {
      return epoch_.load(std::memory_order_relaxed) != seen ||
             finished_.load(std::memory_order_acquire);
    });
    if (!progressed) {
      lock.unlock();
      return querySat(c);
    }
  }
}

bool ParallelClassifier::waitForCompletion(
    std::chrono::steady_clock::time_point deadline) const {
  std::unique_lock<std::mutex> lock(epochMu_);
  return epochCv_.wait_until(lock, deadline, [this] {
    return finished_.load(std::memory_order_acquire);
  });
}

}  // namespace owlcl
