#include "core/pk_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace owlcl {
namespace {

TEST(PkStore, InitPossibleAllFillsOffDiagonal) {
  PkStore s(4);
  s.initPossibleAll();
  EXPECT_EQ(s.remainingPossible(), 4u * 3u);
  for (ConceptId x = 0; x < 4; ++x) {
    EXPECT_FALSE(s.possible(x, x));
    EXPECT_TRUE(s.tested(x, x)) << "diagonal pre-claimed";
  }
}

TEST(PkStore, RecordSubsumptionMovesPossibleToKnown) {
  PkStore s(3);
  s.initPossibleAll();
  s.recordSubsumption(0, 1);  // 1 ⊑ 0
  EXPECT_TRUE(s.known(0, 1));
  EXPECT_FALSE(s.possible(0, 1));
  EXPECT_TRUE(s.possible(1, 0)) << "reverse direction unaffected";
  EXPECT_EQ(s.remainingPossible(), 5u);
}

TEST(PkStore, RecordNonSubsumptionOnlyClearsPossible) {
  PkStore s(3);
  s.initPossibleAll();
  s.recordNonSubsumption(0, 1);
  EXPECT_FALSE(s.known(0, 1));
  EXPECT_FALSE(s.possible(0, 1));
}

TEST(PkStore, ClaimTestIsExclusive) {
  PkStore s(3);
  s.initPossibleAll();
  EXPECT_TRUE(s.claimTest(0, 1));
  EXPECT_FALSE(s.claimTest(0, 1));
  EXPECT_TRUE(s.claimTest(1, 0)) << "directions are independent claims";
}

TEST(PkStore, SatStatusRoundTrips) {
  PkStore s(2);
  EXPECT_EQ(s.satStatus(0), SatStatus::kUnknown);
  s.setSatStatus(0, true);
  EXPECT_EQ(s.satStatus(0), SatStatus::kSat);
  s.setSatStatus(1, false);
  EXPECT_EQ(s.satStatus(1), SatStatus::kUnsat);
}

TEST(PkStore, EraseUnsatConceptClearsEverything) {
  PkStore s(4);
  s.initPossibleAll();
  s.recordSubsumption(1, 2);  // some prior state
  s.recordSubsumption(0, 2);  // 2 ⊑ 0 recorded before 2 found unsat
  s.eraseUnsatConcept(2);
  EXPECT_EQ(s.possibleCount(2), 0u);
  std::vector<std::uint64_t> k2;
  s.knownRowWordsInto(2, k2);
  for (const std::uint64_t w : k2) EXPECT_EQ(w, 0u);
  for (ConceptId x = 0; x < 4; ++x) {
    if (x == 2) continue;
    EXPECT_FALSE(s.possible(x, 2));
    EXPECT_FALSE(s.known(x, 2)) << "stale subsumption into unsat dropped";
    EXPECT_TRUE(s.tested(x, 2));
    EXPECT_TRUE(s.tested(2, x));
  }
  // Unrelated pair untouched.
  EXPECT_TRUE(s.possible(0, 1));
}

TEST(PkStore, PruneIndirectClearsBothSets) {
  PkStore s(3);
  s.initPossibleAll();
  s.recordSubsumption(0, 2);
  s.pruneIndirect(0, 2);
  EXPECT_FALSE(s.possible(0, 2));
  EXPECT_FALSE(s.known(0, 2));
}

TEST(PkStore, RowSnapshotsMatchState) {
  PkStore s(5);
  s.initPossibleAll();
  s.recordSubsumption(0, 1);
  s.recordSubsumption(0, 3);
  s.recordNonSubsumption(0, 2);
  std::vector<ConceptId> possible;
  s.forEachPossible(0, [&possible](ConceptId y) { possible.push_back(y); });
  EXPECT_EQ(possible, (std::vector<ConceptId>{4}));
  EXPECT_EQ(s.possibleCount(0), 1u);
  std::vector<std::uint64_t> known;
  s.knownRowWordsInto(0, known);
  EXPECT_EQ(known[0], (std::uint64_t{1} << 1) | (std::uint64_t{1} << 3));
  const PkStore::RowWords row = s.quiescentRow(0);
  EXPECT_EQ(row.k[0], known[0]);
  EXPECT_EQ(row.p[0], std::uint64_t{1} << 4);
}

TEST(PkStore, PossibleInRangeReadsOnlyItsSlice) {
  PkStore s(130);  // three words per row, the last one partial
  s.initPossibleAll();
  for (ConceptId y : {1u, 64u, 100u}) s.recordNonSubsumption(5, y);
  std::vector<ConceptId> slice{999};  // stale content is cleared
  s.possibleInRange(5, 60, 70, slice);
  EXPECT_EQ(slice, (std::vector<ConceptId>{60, 61, 62, 63, 65, 66, 67, 68, 69}));
  s.possibleInRange(5, 0, 7, slice);
  EXPECT_EQ(slice, (std::vector<ConceptId>{0, 2, 3, 4, 6}));  // 5 is diagonal
  s.possibleInRange(5, 128, 130, slice);
  EXPECT_EQ(slice, (std::vector<ConceptId>{128, 129}));
  s.possibleInRange(5, 70, 70, slice);
  EXPECT_TRUE(slice.empty());
}

// --- retry ledger ------------------------------------------------------------

TEST(PkStore, RetryLedgerStartsEmpty) {
  PkStore s(4);
  EXPECT_FALSE(s.hasFailures());
  EXPECT_EQ(s.totalFailures(), 0u);
  EXPECT_EQ(s.failureAttempts(0, 1), 0u);
  EXPECT_TRUE(s.retryEligible(0, 1, /*round=*/0));
  EXPECT_TRUE(s.unresolvedPairs().empty());
  EXPECT_TRUE(s.unresolvedConcepts().empty());
}

TEST(PkStore, RecordFailureSchedulesExponentialBackoff) {
  PkStore s(4);
  // First failure at round 0: retry at round 1 (2^0).
  EXPECT_EQ(s.recordFailure(0, 1, /*round=*/0, /*cap=*/8), 1u);
  EXPECT_FALSE(s.retryEligible(0, 1, 0));
  EXPECT_TRUE(s.retryEligible(0, 1, 1));
  // Second failure at round 1: retry at round 3 (1 + 2^1).
  EXPECT_EQ(s.recordFailure(0, 1, 1, 8), 2u);
  EXPECT_FALSE(s.retryEligible(0, 1, 2));
  EXPECT_TRUE(s.retryEligible(0, 1, 3));
  // Fourth failure at round 10: delay 2^3 = 8 hits the cap of 8.
  s.recordFailure(0, 1, 3, 8);
  EXPECT_EQ(s.recordFailure(0, 1, 10, 8), 4u);
  EXPECT_FALSE(s.retryEligible(0, 1, 17));
  EXPECT_TRUE(s.retryEligible(0, 1, 18));
  EXPECT_EQ(s.failureAttempts(0, 1), 4u);
  EXPECT_EQ(s.totalFailures(), 4u);
}

TEST(PkStore, BackoffCapBoundsTheDelay) {
  PkStore s(4);
  for (int i = 0; i < 30; ++i) s.recordFailure(1, 2, /*round=*/100, /*cap=*/4);
  // 2^29 would overflow any round budget; the cap keeps it at 4.
  EXPECT_FALSE(s.retryEligible(1, 2, 103));
  EXPECT_TRUE(s.retryEligible(1, 2, 104));
}

TEST(PkStore, LedgerKeysAreOrderedPairs) {
  PkStore s(4);
  s.recordFailure(0, 1, 0, 8);
  EXPECT_EQ(s.failureAttempts(0, 1), 1u);
  EXPECT_EQ(s.failureAttempts(1, 0), 0u) << "reverse direction independent";
  EXPECT_TRUE(s.retryEligible(1, 0, 0));
}

TEST(PkStore, MarkUnresolvedWithdrawsPairExactlyOnce) {
  PkStore s(4);
  s.initPossibleAll();
  EXPECT_TRUE(s.possible(0, 1));
  s.markUnresolved(0, 1);
  EXPECT_FALSE(s.possible(0, 1));
  EXPECT_TRUE(s.tested(0, 1)) << "withdrawn pair is claimed forever";
  s.markUnresolved(0, 1);  // idempotent: second call must not re-record
  EXPECT_EQ(s.unresolvedPairs().size(), 1u);
  EXPECT_EQ(s.unresolvedPairs()[0], (std::pair<ConceptId, ConceptId>{0, 1}));
}

TEST(PkStore, MarkUnresolvedOnResolvedPairIsNoOp) {
  PkStore s(4);
  s.initPossibleAll();
  s.recordNonSubsumption(0, 1);  // resolved: P bit already cleared
  s.markUnresolved(0, 1);
  EXPECT_TRUE(s.unresolvedPairs().empty());
}

TEST(PkStore, MarkConceptUnresolvedIsIdempotent) {
  PkStore s(4);
  EXPECT_FALSE(s.conceptUnresolved(2));
  s.markConceptUnresolved(2);
  s.markConceptUnresolved(2);
  EXPECT_TRUE(s.conceptUnresolved(2));
  EXPECT_EQ(s.unresolvedConcepts(), (std::vector<ConceptId>{2}));
}

TEST(PkStore, SatClaimIsExclusiveUntilReleased) {
  PkStore s(4);
  EXPECT_TRUE(s.claimSat(1));
  EXPECT_FALSE(s.claimSat(1)) << "second claimant must lose";
  s.releaseSat(1);
  EXPECT_TRUE(s.claimSat(1)) << "released claim is claimable again";
  EXPECT_TRUE(s.claimSat(2)) << "claims are per-concept";
}

TEST(PkStore, ReleaseClaimMakesTestClaimableAgain) {
  PkStore s(4);
  s.initPossibleAll();
  EXPECT_TRUE(s.claimTest(0, 1));
  EXPECT_FALSE(s.claimTest(0, 1));
  s.releaseClaim(0, 1);
  EXPECT_TRUE(s.claimTest(0, 1));
}

TEST(PkStore, CaptureRestoreImageRoundTrip) {
  // A store with every kind of state populated: matrices, sat statuses,
  // retry ledger, unresolved sets.
  const std::size_t n = 70;
  PkStore a(n);
  a.initPossibleAll();
  a.setSatStatus(0, true);
  a.setSatStatus(1, false);
  a.eraseUnsatConcept(1);
  a.recordSubsumption(2, 3);
  a.recordNonSubsumption(3, 2);
  a.claimTest(10, 11);
  a.recordFailure(4, 5, /*round=*/2, /*cap=*/8);
  a.recordFailure(4, 5, /*round=*/3, /*cap=*/8);
  a.recordFailure(6, 6, /*round=*/1, /*cap=*/8);
  a.markUnresolved(4, 5);
  a.markConceptUnresolved(6);
  const PkStoreImage img = a.captureImage();
  EXPECT_EQ(img.conceptCount, n);
  EXPECT_EQ(img.possibleCount, a.remainingPossible());

  PkStore b(n);
  b.initPossibleAll();   // divergent state the restore must fully replace
  b.recordSubsumption(50, 51);
  b.restoreImage(img);

  EXPECT_TRUE(b.countersConsistent());
  EXPECT_EQ(b.remainingPossible(), a.remainingPossible());
  for (ConceptId x = 0; x < n; ++x) {
    EXPECT_EQ(b.satStatus(x), a.satStatus(x)) << "concept " << x;
    for (ConceptId y = 0; y < n; ++y) {
      ASSERT_EQ(b.possible(x, y), a.possible(x, y)) << x << "," << y;
      ASSERT_EQ(b.known(x, y), a.known(x, y)) << x << "," << y;
      ASSERT_EQ(b.tested(x, y), a.tested(x, y)) << x << "," << y;
    }
  }
  EXPECT_EQ(b.totalFailures(), a.totalFailures());
  EXPECT_EQ(b.failureAttempts(4, 5), 2u);
  EXPECT_EQ(b.failureAttempts(6, 6), 1u);
  EXPECT_FALSE(b.retryEligible(4, 5, 0)) << "backoff schedule restored";
  EXPECT_EQ(b.unresolvedPairs(), a.unresolvedPairs());
  EXPECT_EQ(b.unresolvedConcepts(), a.unresolvedConcepts());
  EXPECT_TRUE(b.conceptUnresolved(6));
  // Sat-claim restore semantics: given-up concepts stay claimed (nobody
  // retries them), everything else is claimable again.
  EXPECT_FALSE(b.claimSat(6));
  EXPECT_TRUE(b.claimSat(7));
}

TEST(PkStore, MarkUnresolvedReportsWhetherThisCallRecorded) {
  PkStore s(4);
  s.initPossibleAll();
  EXPECT_TRUE(s.markUnresolved(0, 1)) << "first call performs the withdrawal";
  EXPECT_FALSE(s.markUnresolved(0, 1)) << "second call must report no-op";
  EXPECT_TRUE(s.markConceptUnresolved(2));
  EXPECT_FALSE(s.markConceptUnresolved(2));
}

// --- word-granularity bulk transitions --------------------------------------

TEST(PkStore, PruneIndirectRowMatchesScalarSequence) {
  const std::size_t n = 70;  // partial tail word
  PkStore bulk(n), scalar(n);
  bulk.initPossibleAll();
  scalar.initPossibleAll();
  // Pre-resolve a few pairs so some mask bits are already tested/cleared.
  for (ConceptId y : {3u, 40u, 66u}) {
    bulk.claimTest(5, y);
    bulk.recordSubsumption(5, y);
    scalar.claimTest(5, y);
    scalar.recordSubsumption(5, y);
  }
  std::vector<std::uint64_t> mask((n + 63) / 64, 0);
  std::size_t scalarClaims = 0;
  for (ConceptId y : {2u, 3u, 40u, 65u, 69u}) {
    mask[y / 64] |= std::uint64_t{1} << (y % 64);
    if (scalar.claimTest(5, y)) ++scalarClaims;
    scalar.pruneIndirect(5, y);
  }
  const std::size_t bulkClaims = bulk.pruneIndirectRow(5, mask.data(),
                                                       mask.size());
  EXPECT_EQ(bulkClaims, scalarClaims);
  EXPECT_TRUE(bulk.countersConsistent());
  for (ConceptId y = 0; y < n; ++y) {
    ASSERT_EQ(bulk.possible(5, y), scalar.possible(5, y)) << y;
    ASSERT_EQ(bulk.known(5, y), scalar.known(5, y)) << y;
    ASSERT_EQ(bulk.tested(5, y), scalar.tested(5, y)) << y;
  }
}

TEST(PkStore, SeedNonSubRowMatchesScalarSequence) {
  const std::size_t n = 70;
  PkStore bulk(n), scalar(n);
  bulk.initPossibleAll();
  scalar.initPossibleAll();
  // One pair already settled: the bulk call must not claim (or count) it
  // again.
  bulk.claimTest(7, 12);
  bulk.recordSubsumption(7, 12);
  scalar.claimTest(7, 12);
  scalar.recordSubsumption(7, 12);
  std::vector<std::uint64_t> mask((n + 63) / 64, 0);
  std::size_t scalarClaims = 0;
  for (ConceptId y : {1u, 12u, 63u, 64u, 69u}) {
    mask[y / 64] |= std::uint64_t{1} << (y % 64);
    if (scalar.claimTest(7, y)) ++scalarClaims;
    scalar.recordNonSubsumption(7, y);
  }
  const std::size_t bulkClaims =
      bulk.seedNonSubRow(7, mask.data(), mask.size());
  EXPECT_EQ(bulkClaims, scalarClaims);
  EXPECT_EQ(bulkClaims, 4u);  // (7,12) was already claimed
  EXPECT_TRUE(bulk.countersConsistent());
  EXPECT_TRUE(bulk.known(7, 12)) << "a non-subsumption mask never clears K";
  for (ConceptId y = 0; y < n; ++y) {
    ASSERT_EQ(bulk.possible(7, y), scalar.possible(7, y)) << y;
    ASSERT_EQ(bulk.known(7, y), scalar.known(7, y)) << y;
    ASSERT_EQ(bulk.tested(7, y), scalar.tested(7, y)) << y;
  }
}

}  // namespace
}  // namespace owlcl
