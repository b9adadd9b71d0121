#include "robust/delta_journal.hpp"

#include "robust/fault_injector.hpp"

namespace owlcl {

namespace {

constexpr std::size_t kRecordHeadBytes = 12;  // kind + pad + txid + len

std::size_t bodyLength(const unsigned char* head) {
  if (head[0] < static_cast<unsigned char>(DeltaOpKind::kBegin) ||
      head[0] > static_cast<unsigned char>(DeltaOpKind::kAbort))
    return 0;
  const std::size_t len = getU32(head + 8);
  // A commit payload is exactly the u64 post-commit hash; any other
  // length counts as torn.
  if (head[0] == static_cast<unsigned char>(DeltaOpKind::kCommit) && len != 8)
    return 0;
  return kRecordHeadBytes + len;
}

constexpr RecordLogFormat kFormat{
    "delta WAL",
    {'O', 'W', 'L', 'D', 'L', 'T', 'A', '1'},
    /*version=*/1,
    {"ontology", nullptr},
    kRecordHeadBytes,
    bodyLength,
    CrashPoint::kDeltaTornWrite,
    CrashPoint::kNone,
};

}  // namespace

DeltaJournal::DeltaJournal() : log_(kFormat) {}

bool DeltaJournal::append(const DeltaRecord& rec, std::string* error) {
  std::vector<unsigned char> payload;
  if (rec.kind == DeltaOpKind::kAdd || rec.kind == DeltaOpKind::kRetract)
    payload.assign(rec.stmt.begin(), rec.stmt.end());
  else if (rec.kind == DeltaOpKind::kCommit)
    putU64(&payload, rec.newHash);
  std::vector<unsigned char> body = {static_cast<unsigned char>(rec.kind), 0,
                                     0, 0};
  body.reserve(kRecordHeadBytes + payload.size() + 4);
  putU32(&body, rec.txid);
  putU32(&body, static_cast<std::uint32_t>(payload.size()));
  body.insert(body.end(), payload.begin(), payload.end());
  return log_.append(std::move(body), error);
}

bool DeltaJournal::replay(const std::string& path, std::uint64_t baseHash,
                          std::vector<DeltaRecord>* out, std::string* error) {
  out->clear();
  return RecordLog::replay(
      kFormat, path, {baseHash},
      [out](const unsigned char* body, std::size_t len) {
        DeltaRecord rec;
        rec.kind = static_cast<DeltaOpKind>(body[0]);
        rec.txid = getU32(body + 4);
        const unsigned char* payload = body + kRecordHeadBytes;
        if (rec.kind == DeltaOpKind::kAdd || rec.kind == DeltaOpKind::kRetract)
          rec.stmt.assign(reinterpret_cast<const char*>(payload),
                          len - kRecordHeadBytes);
        else if (rec.kind == DeltaOpKind::kCommit)
          rec.newHash = getU64(payload);
        out->push_back(std::move(rec));
      },
      error);
}

DeltaLogFold foldDeltaLog(const std::vector<DeltaRecord>& records) {
  DeltaLogFold fold;
  std::optional<DeltaTxn> open;
  for (const DeltaRecord& rec : records) {
    if (rec.txid > fold.maxTxid) fold.maxTxid = rec.txid;
    switch (rec.kind) {
      case DeltaOpKind::kBegin:
        // A dangling earlier transaction (no commit/abort record) is
        // superseded: it can only exist in a log written by a crashed
        // process whose reopen appended the abort, so seeing a new begin
        // without one means the abort was lost to a torn tail — same
        // outcome, the transaction never committed.
        open = DeltaTxn{rec.txid, {}, 0};
        break;
      case DeltaOpKind::kAdd:
      case DeltaOpKind::kRetract:
        if (open && open->txid == rec.txid)
          open->ops.push_back(
              StagedOp{rec.kind == DeltaOpKind::kAdd, rec.stmt});
        break;
      case DeltaOpKind::kCommit:
        if (open && open->txid == rec.txid) {
          open->newHash = rec.newHash;
          fold.committed.push_back(std::move(*open));
          open.reset();
        }
        break;
      case DeltaOpKind::kAbort:
        if (open && open->txid == rec.txid) open.reset();
        break;
    }
  }
  fold.openTxn = std::move(open);
  return fold;
}

bool recoverDeltaState(const std::string& walPath, std::uint64_t baseHash,
                       const std::vector<std::string>& baseStatements,
                       DeltaRecovery* out, std::string* error) {
  std::vector<DeltaRecord> records;
  if (!DeltaJournal::replay(walPath, baseHash, &records, error)) return false;
  const DeltaLogFold fold = foldDeltaLog(records);

  out->statements = baseStatements;
  out->committedTxns = 0;
  out->hadOpenTxn = fold.openTxn.has_value();
  out->nextTxnId = fold.maxTxid + 1;
  out->finalHash = baseHash;

  for (const DeltaTxn& txn : fold.committed) {
    std::vector<std::string> stmts = out->statements;
    std::string why;
    if (!applyStagedOps(stmts, txn.ops, &why)) {
      if (error != nullptr)
        *error = "delta WAL transaction " + std::to_string(txn.txid) +
                 " does not replay: " + why;
      return false;
    }
    TBox tbox;
    if (!buildTBoxFromStatements(stmts, tbox, &why)) {
      if (error != nullptr)
        *error = "delta WAL transaction " + std::to_string(txn.txid) +
                 " rebuilds an unparseable ontology: " + why;
      return false;
    }
    const std::uint64_t hash = ontologyContentHash(tbox);
    if (hash != txn.newHash) {
      if (error != nullptr)
        *error = "delta WAL transaction " + std::to_string(txn.txid) +
                 " replays to a different ontology than it committed";
      return false;
    }
    // Regenerate exactly as the live commit path does, so later
    // transactions see the identical canonical list.
    out->statements = statementsFromTBox(tbox);
    out->finalHash = hash;
    ++out->committedTxns;
  }
  return true;
}

DeltaJournalSink::DeltaJournalSink(CheckpointConfig config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {}

void DeltaJournalSink::setCrashInjector(CrashInjector* crash) {
  crash_ = crash;
  wal_.setCrashInjector(crash);
  if (mainMgr_ != nullptr) mainMgr_->setCrashInjector(crash);
  if (rerunMgr_ != nullptr) rerunMgr_->setCrashInjector(crash);
}

bool DeltaJournalSink::open(std::uint64_t baseHash,
                            std::unique_ptr<CheckpointManager> mainMgr,
                            bool truncateWal, std::string* error) {
  mainMgr_ = std::move(mainMgr);
  if (!wal_.open(walPath(config_.dir), baseHash, truncateWal, error))
    return false;
  wal_.setCrashInjector(crash_);
  if (!truncateWal) {
    // A transaction left open by a crash is rolled back here, durably:
    // the caller may then re-apply it from its delta script.
    std::vector<DeltaRecord> records;
    if (!DeltaJournal::replay(walPath(config_.dir), baseHash, &records, error))
      return false;
    const DeltaLogFold fold = foldDeltaLog(records);
    if (fold.openTxn.has_value()) {
      DeltaRecord abort;
      abort.kind = DeltaOpKind::kAbort;
      abort.txid = fold.openTxn->txid;
      if (!wal_.append(abort, error)) return false;
    }
  }
  return true;
}

bool DeltaJournalSink::opBegin(std::uint32_t txid, std::string* error) {
  DeltaRecord rec;
  rec.kind = DeltaOpKind::kBegin;
  rec.txid = txid;
  return wal_.append(rec, error);
}

bool DeltaJournalSink::opStage(std::uint32_t txid, bool isAdd,
                               const std::string& stmt, std::string* error) {
  DeltaRecord rec;
  rec.kind = isAdd ? DeltaOpKind::kAdd : DeltaOpKind::kRetract;
  rec.txid = txid;
  rec.stmt = stmt;
  return wal_.append(rec, error);
}

CheckpointHook* DeltaJournalSink::beginRerun(const TBox& newTbox,
                                             std::uint64_t seed,
                                             std::string* error) {
  CheckpointConfig rc = config_;
  rc.dir = rerunDir(config_.dir);
  auto mgr = std::make_unique<CheckpointManager>(
      rc, ontologyContentHash(newTbox), seed);
  mgr->setCrashInjector(crash_);
  if (!mgr->beginFresh(error)) return nullptr;
  // The mid-rerun crash point counts THIS area's journaled verdicts, so
  // the drill dies inside the cone rerun, never the main run.
  mgr->markDeltaRerun();
  rerunMgr_ = std::move(mgr);
  return rerunMgr_.get();
}

bool DeltaJournalSink::opCommit(std::uint32_t txid, const TBox& newTbox,
                                const ClassifierCheckpoint& post,
                                std::string* error) {
  const std::uint64_t newHash = ontologyContentHash(newTbox);
  // 1. The rerun area gets its final snapshot FIRST: once the commit
  //    record below is durable, recovery must find the post-delta state
  //    somewhere, and the main area has not been re-anchored yet.
  if (rerunMgr_ != nullptr && !rerunMgr_->snapshotFinal(post, error))
    return false;
  // 2. The pre-commit drill dies here: rerun finished and snapshotted, no
  //    commit record — recovery lands on the pre-delta taxonomy.
  if (crash_ != nullptr && crash_->crashPreCommitNow()) CrashInjector::crash();
  // 3. The commit record. Durable == committed.
  DeltaRecord rec;
  rec.kind = DeltaOpKind::kCommit;
  rec.txid = txid;
  rec.newHash = newHash;
  if (!wal_.append(rec, error)) return false;
  // 4. Re-anchor the main area at the post-delta generation. A crash
  //    anywhere in here is covered by the rerun area's final snapshot.
  auto mgr = std::make_unique<CheckpointManager>(config_, newHash, seed_);
  mgr->setCrashInjector(crash_);
  if (!mgr->beginFresh(error)) return false;
  if (!mgr->snapshotFinal(post, error)) return false;
  mainMgr_ = std::move(mgr);
  // Stale rerun files are harmless (hash-keyed); the next beginRerun
  // recreates the area from scratch.
  rerunMgr_.reset();
  return true;
}

bool DeltaJournalSink::opAbort(std::uint32_t txid, std::string* error) {
  // The mid-rollback drill dies BEFORE the abort record: recovery sees an
  // open transaction, appends the abort itself, and the pre-delta anchors
  // are still in place.
  if (crash_ != nullptr && crash_->crashMidRollbackNow())
    CrashInjector::crash();
  DeltaRecord rec;
  rec.kind = DeltaOpKind::kAbort;
  rec.txid = txid;
  if (!wal_.append(rec, error)) return false;
  rerunMgr_.reset();
  return true;
}

bool DeltaJournalSink::flushFinal(const ClassifierCheckpoint& ckpt,
                                  std::string* error) {
  if (mainMgr_ == nullptr) {
    if (error != nullptr) *error = "no main checkpoint manager adopted";
    return false;
  }
  return mainMgr_->snapshotFinal(ckpt, error);
}

}  // namespace owlcl
