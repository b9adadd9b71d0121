// CheckpointManager — the crash-consistency subsystem (DESIGN.md §9).
// Implements core's CheckpointHook with two cooperating artifacts in one
// checkpoint directory:
//
//   journal.wal       — write-ahead result journal (robust/journal.hpp):
//                       every settled verdict, appended before the run
//                       moves on.
//   ckpt-<seq>.snap   — quiescent snapshots of the full classification
//                       state, written at epoch barriers (cadence
//                       `everyRounds`), atomically: temp file → fdatasync
//                       → rename → directory fsync. The newest
//                       kKeepSnapshots are retained so a corrupt newest
//                       snapshot falls back to its predecessor.
//
// Recovery (`recover()`): load the newest snapshot that validates (magic,
// format version, ontology hash, seed, CRC32, and a popcount cross-check
// of the stored |R_O| against the P words), falling back to older ones;
// replay every valid journal record on top of the image (records are
// idempotent store transitions, so replaying an already-snapshotted
// prefix is harmless); reopen the journal for append, truncating any torn
// tail. The resulting ClassifierCheckpoint feeds
// ParallelClassifier::resumeClassify(), which re-anchors a fresh snapshot
// before any new work runs.
//
// Snapshot file layout (little-endian, CRC32 over all preceding bytes at
// the end): magic "OWLSNAP1" | u32 version | u32 flags | u64 ontologyHash
// | u64 seed | u64 epoch | u64 completedCycles | u64 completedRounds |
// u64 conceptCount | P/K/tested word arrays (u64 count + words each) |
// sat bytes | retry entries (u64 key, u32 attempts, u64 round) |
// unresolved pairs (u32,u32) | unresolved concepts (u32) |
// u64 totalFailures | u64 possibleCount | u32 crc.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint_hook.hpp"
#include "robust/journal.hpp"

namespace owlcl {

class CrashInjector;
class TBox;

struct CheckpointConfig {
  /// Directory holding journal.wal and ckpt-*.snap (created if missing).
  std::string dir;
  /// Snapshot every N epoch barriers (1 = every barrier). The genesis and
  /// resume re-anchor barriers always snapshot regardless of cadence.
  std::uint64_t everyRounds = 1;
  FsyncPolicy fsyncPolicy = FsyncPolicy::kEveryBarrier;
};

/// Snapshots retained (newest first): the second is the fallback anchor in
/// case the newest file is corrupt.
inline constexpr std::size_t kKeepSnapshots = 2;

/// Stable content hash of a TBox (FNV-1a over its canonical functional-
/// syntax document) — snapshots and journals refuse to load against a
/// different ontology.
std::uint64_t ontologyContentHash(const TBox& tbox);

/// Serializes a quiescent checkpoint to the snapshot wire format
/// (including the trailing CRC32). Exposed for the codec tests.
std::vector<unsigned char> encodeSnapshot(const ClassifierCheckpoint& ckpt,
                                          std::uint64_t ontologyHash,
                                          std::uint64_t seed);

/// Strict inverse of encodeSnapshot: every integrity check (size, magic,
/// version, hash, seed, CRC, array-size consistency, popcount vs stored
/// possibleCount) must pass or the function returns false with *error set.
bool decodeSnapshot(const std::vector<unsigned char>& bytes,
                    std::uint64_t ontologyHash, std::uint64_t seed,
                    ClassifierCheckpoint* out, std::string* error);

/// Atomic snapshot write: <path>.tmp → fdatasync → rename(<path>) →
/// fsync(dir). `crash`/`barrierOrdinal` drive the kCrashBeforeSnapshotRename
/// injection point (may be null / 0).
bool writeSnapshotFile(const std::string& path,
                       const ClassifierCheckpoint& ckpt,
                       std::uint64_t ontologyHash, std::uint64_t seed,
                       std::string* error, CrashInjector* crash = nullptr,
                       std::uint64_t barrierOrdinal = 0);

/// Reads and decodes one snapshot file (false on any I/O or validation
/// failure).
bool readSnapshotFile(const std::string& path, std::uint64_t ontologyHash,
                      std::uint64_t seed, ClassifierCheckpoint* out,
                      std::string* error);

/// Re-applies one journaled verdict to a quiescent state image — exactly
/// the PkStore transition the live run performed (idempotent; see
/// SettledKind). Exposed for the replay tests.
void applyRecordToImage(const JournalRecord& rec, PkStoreImage* img);

class CheckpointManager : public CheckpointHook {
 public:
  CheckpointManager(CheckpointConfig config, std::uint64_t ontologyHash,
                    std::uint64_t seed);

  /// Process-death injection for the crash drills (may be null; affects
  /// the journal and the snapshot writer).
  void setCrashInjector(CrashInjector* crash);

  /// Starts a fresh run: creates the directory, deletes stale snapshots,
  /// and truncates the journal.
  bool beginFresh(std::string* error);

  /// Recovers the newest consistent state: newest valid snapshot (with
  /// fallback to older ones), journal tail replayed on top, journal
  /// reopened for append. False (with *error) if no snapshot validates or
  /// the journal header mismatches.
  bool recover(ClassifierCheckpoint* out, std::string* error);

  // CheckpointHook:
  void recordSettled(SettledKind kind, ConceptId x, ConceptId y,
                     std::uint64_t epoch) override;
  void epochBarrier(
      const ClassifierProgress& progress,
      const std::function<ClassifierCheckpoint()>& capture) override;

  /// Graceful-shutdown flush: fsyncs the journal and force-writes one
  /// snapshot of `ckpt` regardless of the barrier cadence — the serving
  /// layer's drain path and the CLI's SIGTERM handler call this so a later
  /// --resume continues from the exact stop point. False (with *error) on
  /// write failure; the journal still holds every settled verdict.
  bool snapshotFinal(const ClassifierCheckpoint& ckpt, std::string* error);

  /// Diagnostics for reports and tests.
  std::uint64_t snapshotsWritten() const { return snapshotsWritten_; }
  std::uint64_t journalAppends() const { return journal_.appendCount(); }
  /// Journal appends that did not reach the disk (full disk, I/O error).
  std::uint64_t failedJournalAppends() const {
    return journal_.failedAppends();
  }
  /// The most recent failed snapshot write or journal sync ("" if none).
  const std::string& lastError() const { return lastError_; }

  /// Marks this manager as driving a delta cone rerun (DESIGN.md §14):
  /// every journaled verdict from now on also consults the injector's
  /// kCrashMidRerun point, counting verdicts from 0 per call. The delta
  /// layer flags the rerun-area manager with this so the mid-rerun drill
  /// dies inside the cone re-classification, never the main run.
  void markDeltaRerun() {
    deltaRerun_ = true;
    rerunVerdicts_.store(0, std::memory_order_relaxed);
  }

 private:
  std::string journalPath() const;
  std::string snapshotPath(std::uint64_t seq) const;
  /// ckpt-*.snap sequence numbers present in the directory, ascending.
  std::vector<std::uint64_t> listSnapshotSeqs() const;
  void pruneSnapshots();

  CheckpointConfig config_;
  std::uint64_t ontologyHash_;
  std::uint64_t seed_;
  ResultJournal journal_;
  CrashInjector* crash_ = nullptr;
  std::uint64_t nextSeq_ = 0;       // next snapshot file sequence number
  std::uint64_t barriers_ = 0;      // epoch barriers observed (crash ordinal)
  std::uint64_t snapshotsWritten_ = 0;
  std::string lastError_;
  bool deltaRerun_ = false;  // consult kCrashMidRerun on journaled verdicts
  std::atomic<std::uint64_t> rerunVerdicts_{0};
};

}  // namespace owlcl
