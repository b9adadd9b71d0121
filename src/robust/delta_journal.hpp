// Delta write-ahead log + transaction sink (DESIGN.md §14).
//
// Every delta transaction is journaled to `deltas.wal` in the checkpoint
// directory BEFORE the reclassifier acts on it, so a crash at any stage
// recovers to exactly the pre-delta or the post-delta ontology — never a
// hybrid:
//
//   deltas.wal     — begin / add / retract / commit / abort records, one
//                    per staged operation, CRC32-protected, torn-tail
//                    tolerant. Commit and abort records are force-synced:
//                    a transaction is committed iff its commit record is
//                    durable.
//   delta-rerun/   — a private checkpoint area (CheckpointManager) for the
//                    cone rerun of the transaction in flight, keyed by the
//                    POST-delta ontology hash. A crash mid-rerun leaves
//                    partial progress here that recovery simply ignores
//                    (no commit record → the transaction never happened).
//   <main area>    — journal.wal + ckpt-*.snap of the committed
//                    generation. opCommit() re-anchors it at the
//                    post-delta state only AFTER the commit record is
//                    durable; the window between those two steps is
//                    covered by the final rerun snapshot in delta-rerun/.
//
// File layout of deltas.wal (little-endian):
//   header : magic "OWLDLTA1" | u32 version | u64 baseHash |
//            u32 crc(first 20 bytes)                      — 24 bytes
//   record : u8 kind | u8×3 zero | u32 txid | u32 len | payload |
//            u32 crc(preceding 12+len bytes)
// Payload: the canonical statement text (kAdd/kRetract), the u64
// post-commit ontology hash (kCommit), empty otherwise. `baseHash` is the
// GENERATION-0 ontology hash — replay re-derives every later hash. The
// header, framing, torn-tail truncation, fsync and the kDeltaTornWrite
// crash point are RecordLog's (robust/record_log.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "robust/checkpoint.hpp"
#include "robust/record_log.hpp"

namespace owlcl {

enum class DeltaOpKind : std::uint8_t {
  kBegin = 1,
  kAdd = 2,
  kRetract = 3,
  kCommit = 4,
  kAbort = 5,
};

struct DeltaRecord {
  DeltaOpKind kind = DeltaOpKind::kBegin;
  std::uint32_t txid = 0;
  std::string stmt;            // kAdd / kRetract: canonical statement text
  std::uint64_t newHash = 0;   // kCommit: post-delta ontology hash
};

class DeltaJournal {
 public:
  static constexpr std::size_t kHeaderBytes = 24;

  DeltaJournal();

  /// Opens `path` for appending. A missing/empty file gets a fresh header;
  /// an existing one must match (version, baseHash) and is truncated back
  /// to its last valid record. `truncate` recreates from scratch.
  bool open(const std::string& path, std::uint64_t baseHash, bool truncate,
            std::string* error) {
    return log_.open(path, {baseHash}, FsyncPolicy::kEveryRecord, truncate,
                     error);
  }
  bool isOpen() const { return log_.isOpen(); }
  void close() { log_.close(); }

  /// Appends one record and makes it durable (every delta record is
  /// force-synced — they are human-scale rare and each one gates a state
  /// transition). False if the write or the sync failed. Consults the
  /// kDeltaTornWrite crash point.
  bool append(const DeltaRecord& rec, std::string* error);

  std::uint64_t appendCount() const { return log_.appendCount(); }
  void setCrashInjector(CrashInjector* crash) { log_.setCrashInjector(crash); }

  /// Reads every valid record, stopping at the first torn/corrupt one. A
  /// missing file yields zero records and returns true.
  static bool replay(const std::string& path, std::uint64_t baseHash,
                     std::vector<DeltaRecord>* out, std::string* error);

 private:
  RecordLog log_;
};

/// One transaction reconstructed from the log.
struct DeltaTxn {
  std::uint32_t txid = 0;
  std::vector<StagedOp> ops;
  std::uint64_t newHash = 0;  // committed transactions only
};

struct DeltaLogFold {
  std::vector<DeltaTxn> committed;  // in commit order
  /// Begun but neither committed nor aborted (the process died mid-
  /// transaction). Recovery treats it as rolled back.
  std::optional<DeltaTxn> openTxn;
  std::uint32_t maxTxid = 0;
};
DeltaLogFold foldDeltaLog(const std::vector<DeltaRecord>& records);

/// Replays `walPath` over the generation-0 statement list: applies each
/// committed transaction in order, regenerating the canonical list after
/// every one (exactly as the live commit path does), and cross-checks the
/// rebuilt ontology hash against each commit record. False with *error on
/// I/O failure, header mismatch, inapplicable ops, or a hash mismatch.
struct DeltaRecovery {
  std::vector<std::string> statements;  // post-committed canonical list
  std::size_t committedTxns = 0;
  bool hadOpenTxn = false;
  std::uint32_t nextTxnId = 1;
  std::uint64_t finalHash = 0;  // hash of `statements`' ontology
};
bool recoverDeltaState(const std::string& walPath, std::uint64_t baseHash,
                       const std::vector<std::string>& baseStatements,
                       DeltaRecovery* out, std::string* error);

/// DeltaTxnSink over deltas.wal + the checkpoint areas described above.
class DeltaJournalSink : public DeltaTxnSink {
 public:
  /// `config.dir` is the main checkpoint directory; the rerun area lives
  /// in its `delta-rerun/` subdirectory with the same cadence/policy.
  DeltaJournalSink(CheckpointConfig config, std::uint64_t seed);

  /// Adopts the main-area manager (already recovered or begun fresh by the
  /// caller) and opens deltas.wal. On reopen, a transaction left open by a
  /// crash gets its abort record appended here — recovery is then free to
  /// re-apply it from the caller's delta script. False on I/O failure.
  bool open(std::uint64_t baseHash, std::unique_ptr<CheckpointManager> mainMgr,
            bool truncateWal, std::string* error);

  void setCrashInjector(CrashInjector* crash);

  // DeltaTxnSink:
  bool opBegin(std::uint32_t txid, std::string* error) override;
  bool opStage(std::uint32_t txid, bool isAdd, const std::string& stmt,
               std::string* error) override;
  CheckpointHook* beginRerun(const TBox& newTbox, std::uint64_t seed,
                             std::string* error) override;
  bool opCommit(std::uint32_t txid, const TBox& newTbox,
                const ClassifierCheckpoint& post, std::string* error) override;
  bool opAbort(std::uint32_t txid, std::string* error) override;

  /// Graceful-shutdown flush through the CURRENT main manager (which
  /// commits may have replaced since the CLI created the original one).
  bool flushFinal(const ClassifierCheckpoint& ckpt, std::string* error);

  CheckpointManager* mainManager() { return mainMgr_.get(); }
  std::uint64_t walAppends() const { return wal_.appendCount(); }

  static std::string walPath(const std::string& dir) {
    return dir + "/deltas.wal";
  }
  static std::string rerunDir(const std::string& dir) {
    return dir + "/delta-rerun";
  }

 private:
  CheckpointConfig config_;
  std::uint64_t seed_;
  DeltaJournal wal_;
  std::unique_ptr<CheckpointManager> mainMgr_;
  std::unique_ptr<CheckpointManager> rerunMgr_;
  CrashInjector* crash_ = nullptr;
};

}  // namespace owlcl
