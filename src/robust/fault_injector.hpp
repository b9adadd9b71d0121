// FaultInjector — deterministic, seed-driven fault injection at the
// reasoner plug-in boundary. Drives the robustness test suite, the
// degradation benches, and the CLI's --inject-faults flag.
//
// Every guarded call is identified by its *key* (the ordered concept
// pair of a subs? test; the diagonal ⟨c,c⟩ for a sat? test — the
// classifier never tests the diagonal as a pair, so keys cannot collide)
// and its per-key *attempt index* (0 for the first call on that key, 1
// for the first retry, ...). Whether and how a call faults is a pure
// function of (seed, key, attempt):
//
//   * rate-driven faults — each attempt rolls an independent uniform
//     from hash(seed, key, attempt) against errorRate / resourceRate /
//     timeoutRate; later attempts re-roll, so retries eventually get
//     through (the transient-failure model).
//   * scheduled faults — a deterministic targetPairRate fraction of keys
//     is marked "bad"; bad keys fail their first failFirstAttempts
//     attempts and then succeed. With failFirstAttempts > maxRetries
//     this is the retry-exhaustion model (the pair becomes unresolved).
//
// Fault forms: thrown std::runtime_error (→ FailureKind::kError), thrown
// std::bad_alloc (→ kResource), or an injected delay — delayNs is added
// to the call's reported cost (tripping a GuardedPlugin deadline
// deterministically in virtual time) and sleepNs is slept for real (to
// exercise wall-clock deadlines and the executor watchdog).
//
// Determinism: the classifier claims each ordered test before calling
// the plug-in and retries sequentially across rounds, so each (key,
// attempt) is evaluated exactly once per run — the fault schedule is
// reproducible even under real threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/plugin.hpp"

namespace owlcl {

struct FaultPlan {
  std::uint64_t seed = 1;

  // Rate-driven transient faults, rolled independently per attempt.
  double errorRate = 0.0;     // throw std::runtime_error
  double resourceRate = 0.0;  // throw std::bad_alloc
  double timeoutRate = 0.0;   // injected delay (see delayNs / sleepNs)

  /// Virtual delay added to the reported cost of a timeout fault. Pick it
  /// larger than the GuardedPlugin deadline to make the fault observable.
  std::uint64_t delayNs = 0;
  /// Real wall sleep performed on a timeout fault (watchdog tests).
  std::uint64_t sleepNs = 0;

  // Scheduled deterministic faults: `targetPairRate` of keys fail their
  // first `failFirstAttempts` attempts (kind chosen by hash among the
  // enabled forms), then succeed.
  double targetPairRate = 0.0;
  std::size_t failFirstAttempts = 0;

  bool enabled() const {
    return errorRate > 0 || resourceRate > 0 || timeoutRate > 0 ||
           (targetPairRate > 0 && failFirstAttempts > 0);
  }
};

// --- process-death fault points (checkpoint subsystem) -----------------------
// Where the checkpoint/journal layer is allowed to die. Unlike the
// reasoner faults above, these kill the *process* (immediate _exit with
// the SIGKILL-style status 137, no destructors, no buffered flushes) —
// the recovery path must cope with whatever the filesystem kept.

enum class CrashPoint : std::uint8_t {
  kNone = 0,
  /// Crash mid-append on the Nth journal record: only the first half of
  /// the record reaches the file (a torn write recovery must truncate).
  kTornWrite,
  /// Crash immediately after the Nth journal append is durable: the
  /// journal is ahead of every snapshot (recovery must replay the tail).
  kCrashAfterJournal,
  /// Crash after the snapshot temp file is written but before the atomic
  /// rename: the previous snapshot must remain the recovery anchor.
  kCrashBeforeSnapshotRename,
  /// Crash right after the Nth epoch barrier finished its checkpoint
  /// work: clean snapshot on disk, nothing volatile lost.
  kCrashAtBarrier,

  // --- delta transaction stages (DESIGN.md §14) ------------------------------
  /// Crash mid-append on the Nth delta-WAL record: only the first half
  /// reaches deltas.wal (recovery must truncate the torn op and treat the
  /// transaction as never begun / still open).
  kDeltaTornWrite,
  /// Crash after the Nth journaled verdict of a delta cone rerun: the
  /// rerun's own checkpoint area holds partial progress, but no commit
  /// record exists — recovery must land on the pre-delta taxonomy.
  kCrashMidRerun,
  /// Crash after the rerun completed but before the commit record is
  /// appended to deltas.wal: same recovery outcome as mid-rerun.
  kCrashPreCommit,
  /// Crash during rollback, before the abort record is appended: the
  /// pre-delta state is still anchored; recovery replays the abort.
  kCrashMidRollback,
};

/// Canonical CLI spellings of the crash points, shared by the flag parser
/// and the drills. Unknown names must be rejected loudly — parseCrashPoint
/// returns kNone and the caller fails the parse.
const char* crashPointName(CrashPoint p);
CrashPoint parseCrashPoint(const std::string& name);

struct CrashPlan {
  CrashPoint point = CrashPoint::kNone;
  /// Which occurrence triggers: the Nth journal append (kTornWrite /
  /// kCrashAfterJournal) or the Nth epoch barrier (kCrashAtBarrier),
  /// counted from 0. Ignored for kCrashBeforeSnapshotRename (first
  /// snapshot write after `after` barriers triggers).
  std::uint64_t after = 0;

  bool enabled() const { return point != CrashPoint::kNone; }
};

/// Deterministic process-death injector consulted by RecordLog,
/// CheckpointManager and DeltaJournalSink. The predicates answer "is this
/// the occurrence the plan targets"; the caller performs any partial write
/// first and then calls crash().
class CrashInjector {
 public:
  explicit CrashInjector(CrashPlan plan) : plan_(plan) {}

  /// Append-ordinal points of a RecordLog (kTornWrite / kCrashAfterJournal
  /// on journal.wal, kDeltaTornWrite on deltas.wal).
  bool firesAtAppend(CrashPoint point, std::uint64_t appendOrdinal) const {
    return point != CrashPoint::kNone && plan_.point == point &&
           appendOrdinal == plan_.after;
  }
  bool crashBeforeRenameNow(std::uint64_t barrierOrdinal) const {
    return plan_.point == CrashPoint::kCrashBeforeSnapshotRename &&
           barrierOrdinal >= plan_.after;
  }
  bool crashAtBarrierNow(std::uint64_t barrierOrdinal) const {
    return plan_.point == CrashPoint::kCrashAtBarrier &&
           barrierOrdinal == plan_.after;
  }

  // Delta transaction stages (the ordinal counts journaled rerun
  // verdicts).
  bool crashMidRerunNow(std::uint64_t verdictOrdinal) const {
    return plan_.point == CrashPoint::kCrashMidRerun &&
           verdictOrdinal == plan_.after;
  }
  bool crashPreCommitNow() const {
    return plan_.point == CrashPoint::kCrashPreCommit;
  }
  bool crashMidRollbackNow() const {
    return plan_.point == CrashPoint::kCrashMidRollback;
  }

  /// SIGKILL-equivalent death: no unwinding, no exit handlers, no stream
  /// flushes. Exit status 137 mirrors a real `kill -9`.
  [[noreturn]] static void crash();

 private:
  CrashPlan plan_;
};

// --- serving-path fault points (src/serve) -----------------------------------
// Deterministic faults injected into the long-lived server's query path —
// the chaos-drill knobs behind `owlcl serve --inject-serve-faults=...`.
// Query ordinals count admitted queries in processing order.

struct ServeFaultPlan {
  /// Every Nth admitted query (1-based; 0 = off) throws std::runtime_error
  /// inside the query worker — the server must contain it, answer an
  /// explicit error, and keep serving.
  std::uint64_t queryFaultEvery = 0;
  /// Wall sleep added before each response delivery (a slow client /
  /// saturated downstream): drives queue buildup and overload shedding.
  std::uint64_t slowClientNs = 0;
  /// SIGKILL-equivalent process death (CrashInjector::crash()) right after
  /// the Nth query (1-based; 0 = off) is answered — the serve kill-and-
  /// resume drill (classification keeps journaling while queries land).
  std::uint64_t crashAfterQueries = 0;

  bool enabled() const {
    return queryFaultEvery > 0 || slowClientNs > 0 || crashAfterQueries > 0;
  }
};

struct FaultInjectorStats {
  std::uint64_t calls = 0;
  std::uint64_t injectedErrors = 0;
  std::uint64_t injectedResourceFaults = 0;
  std::uint64_t injectedDelays = 0;
  std::uint64_t injected() const {
    return injectedErrors + injectedResourceFaults + injectedDelays;
  }
};

class FaultInjector : public ReasonerPlugin {
 public:
  /// `inner` must outlive the injector.
  FaultInjector(ReasonerPlugin& inner, FaultPlan plan)
      : inner_(inner), plan_(plan) {}

  bool isSatisfiable(ConceptId c, std::uint64_t* costNs = nullptr) override;
  bool isSubsumedBy(ConceptId sub, ConceptId sup,
                    std::uint64_t* costNs = nullptr) override;

  std::uint64_t testCount() const override { return inner_.testCount(); }
  ReasonerStats reasonerStats() const override {
    return inner_.reasonerStats();
  }
  std::vector<ReasonerStats> perWorkerReasonerStats() const override {
    return inner_.perWorkerReasonerStats();
  }

  FaultInjectorStats stats() const;

  /// Attempts observed so far on the ordered key ⟨x,y⟩ (sat? keys are
  /// ⟨c,c⟩). Test/diagnostic accessor.
  std::uint32_t attempts(ConceptId x, ConceptId y) const;

  /// True iff ⟨x,y⟩ is in the deterministically scheduled bad-key set.
  bool targeted(ConceptId x, ConceptId y) const;

 private:
  enum class Fault : std::uint8_t { kNone, kError, kResource, kDelay };

  Fault decide(std::uint64_t key, std::uint32_t attempt) const;
  std::uint32_t nextAttempt(std::uint64_t key);
  bool call(std::uint64_t key, ConceptId a, ConceptId b, bool isSat,
            std::uint64_t* costNs);

  ReasonerPlugin& inner_;
  FaultPlan plan_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint32_t> attempts_;  // by key

  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> injectedErrors_{0};
  std::atomic<std::uint64_t> injectedResource_{0};
  std::atomic<std::uint64_t> injectedDelays_{0};
};

}  // namespace owlcl
