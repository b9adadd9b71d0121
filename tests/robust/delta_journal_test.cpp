// Delta WAL layer: record codec round-trips, torn-tail tolerance, header
// validation, log folding into transactions, and full recoverDeltaState
// replay with per-transaction hash cross-checks.
#include "robust/delta_journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "owl/parser.hpp"
#include "robust/checkpoint.hpp"

namespace owlcl {
namespace {

namespace fs = std::filesystem;

std::string tempDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

DeltaRecord rec(DeltaOpKind kind, std::uint32_t txid, std::string stmt = "",
                std::uint64_t newHash = 0) {
  DeltaRecord r;
  r.kind = kind;
  r.txid = txid;
  r.stmt = std::move(stmt);
  r.newHash = newHash;
  return r;
}

TEST(DeltaJournal, AppendReplayRoundTrip) {
  const std::string path = tempDir("dwal-roundtrip") + "/deltas.wal";
  DeltaJournal j;
  std::string err;
  ASSERT_TRUE(j.open(path, /*baseHash=*/0xFEED, /*truncate=*/true, &err))
      << err;
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kBegin, 1), &err)) << err;
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kAdd, 1, "SubClassOf(A B)"), &err));
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kRetract, 1, "SubClassOf(B C)"), &err));
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kCommit, 1, "", 0xABCD1234), &err));
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kBegin, 2), &err));
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kAbort, 2), &err));
  EXPECT_EQ(j.appendCount(), 6u);
  j.close();

  std::vector<DeltaRecord> out;
  ASSERT_TRUE(DeltaJournal::replay(path, 0xFEED, &out, &err)) << err;
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].kind, DeltaOpKind::kBegin);
  EXPECT_EQ(out[0].txid, 1u);
  EXPECT_EQ(out[1].kind, DeltaOpKind::kAdd);
  EXPECT_EQ(out[1].stmt, "SubClassOf(A B)");
  EXPECT_EQ(out[2].kind, DeltaOpKind::kRetract);
  EXPECT_EQ(out[2].stmt, "SubClassOf(B C)");
  EXPECT_EQ(out[3].kind, DeltaOpKind::kCommit);
  EXPECT_EQ(out[3].newHash, 0xABCD1234u);
  EXPECT_EQ(out[5].kind, DeltaOpKind::kAbort);
  EXPECT_EQ(out[5].txid, 2u);
}

TEST(DeltaJournal, MissingFileYieldsZeroRecords) {
  const std::string path = tempDir("dwal-missing") + "/deltas.wal";
  std::vector<DeltaRecord> out{rec(DeltaOpKind::kBegin, 9)};
  std::string err;
  ASSERT_TRUE(DeltaJournal::replay(path, 1, &out, &err)) << err;
  EXPECT_TRUE(out.empty());
}

TEST(DeltaJournal, BaseHashMismatchRefusesToOpenAndReplay) {
  const std::string path = tempDir("dwal-hash") + "/deltas.wal";
  DeltaJournal j;
  std::string err;
  ASSERT_TRUE(j.open(path, 0x1111, /*truncate=*/true, &err)) << err;
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kBegin, 1), &err));
  j.close();

  std::vector<DeltaRecord> out;
  EXPECT_FALSE(DeltaJournal::replay(path, 0x2222, &out, &err));
  DeltaJournal j2;
  EXPECT_FALSE(j2.open(path, 0x2222, /*truncate=*/false, &err));
  // Same hash reopens fine and appends after the existing tail.
  DeltaJournal j3;
  ASSERT_TRUE(j3.open(path, 0x1111, /*truncate=*/false, &err)) << err;
  ASSERT_TRUE(j3.append(rec(DeltaOpKind::kAbort, 1), &err));
  j3.close();
  ASSERT_TRUE(DeltaJournal::replay(path, 0x1111, &out, &err)) << err;
  EXPECT_EQ(out.size(), 2u);
}

TEST(DeltaJournal, TornTailIsIgnoredOnReplayAndTruncatedOnReopen) {
  const std::string path = tempDir("dwal-torn") + "/deltas.wal";
  DeltaJournal j;
  std::string err;
  ASSERT_TRUE(j.open(path, 7, /*truncate=*/true, &err)) << err;
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kBegin, 1), &err));
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kAdd, 1, "SubClassOf(A B)"), &err));
  j.close();
  const auto validSize = fs::file_size(path);

  {  // Simulate a torn append: half a record of garbage at the tail.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x02\x00\x00\x00garbage", 11);
  }
  std::vector<DeltaRecord> recs;
  ASSERT_TRUE(DeltaJournal::replay(path, 7, &recs, &err)) << err;
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[1].stmt, "SubClassOf(A B)");

  // Reopen truncates the torn tail; the next append lands cleanly.
  DeltaJournal j2;
  ASSERT_TRUE(j2.open(path, 7, /*truncate=*/false, &err)) << err;
  EXPECT_EQ(fs::file_size(path), validSize);
  ASSERT_TRUE(j2.append(rec(DeltaOpKind::kCommit, 1, "", 99), &err));
  j2.close();
  ASSERT_TRUE(DeltaJournal::replay(path, 7, &recs, &err)) << err;
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[2].kind, DeltaOpKind::kCommit);
}

TEST(DeltaJournal, SingleBitFlipStopsReplayAtThatRecord) {
  const std::string path = tempDir("dwal-flip") + "/deltas.wal";
  const std::string stmt = "SubClassOf(A B)";
  DeltaJournal j;
  std::string err;
  ASSERT_TRUE(j.open(path, 5, /*truncate=*/true, &err)) << err;
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kBegin, 1), &err));
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(j.append(rec(DeltaOpKind::kAdd, 1, stmt), &err));
  j.close();

  std::vector<unsigned char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Records: begin = 12 + 4 bytes, each add = 12 + |stmt| + 4 bytes. Flip
  // one payload bit inside record #2 (0-based) — records 0 and 1 stay valid.
  const std::size_t addBytes = 12 + stmt.size() + 4;
  bytes[DeltaJournal::kHeaderBytes + 16 + addBytes + 12 + 3] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::vector<DeltaRecord> recs;
  ASSERT_TRUE(DeltaJournal::replay(path, 5, &recs, &err)) << err;
  EXPECT_EQ(recs.size(), 2u);
}

TEST(DeltaJournal, FoldSplitsCommittedOpenAndAborted) {
  std::vector<DeltaRecord> log{
      rec(DeltaOpKind::kBegin, 1),
      rec(DeltaOpKind::kAdd, 1, "SubClassOf(A B)"),
      rec(DeltaOpKind::kCommit, 1, "", 0x11),
      rec(DeltaOpKind::kBegin, 2),
      rec(DeltaOpKind::kRetract, 2, "SubClassOf(A B)"),
      rec(DeltaOpKind::kAbort, 2),
      rec(DeltaOpKind::kBegin, 3),
      rec(DeltaOpKind::kAdd, 3, "SubClassOf(C D)"),
  };
  const DeltaLogFold fold = foldDeltaLog(log);
  ASSERT_EQ(fold.committed.size(), 1u);
  EXPECT_EQ(fold.committed[0].txid, 1u);
  ASSERT_EQ(fold.committed[0].ops.size(), 1u);
  EXPECT_TRUE(fold.committed[0].ops[0].isAdd);
  EXPECT_EQ(fold.committed[0].newHash, 0x11u);
  ASSERT_TRUE(fold.openTxn.has_value());
  EXPECT_EQ(fold.openTxn->txid, 3u);
  ASSERT_EQ(fold.openTxn->ops.size(), 1u);
  EXPECT_EQ(fold.openTxn->ops[0].stmt, "SubClassOf(C D)");
  EXPECT_EQ(fold.maxTxid, 3u);
}

// Builds the base ontology used by the recovery tests (TBox is pinned —
// neither copyable nor movable — so the caller owns the instance).
void buildBaseTBox(TBox& t) {
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(C))
      SubClassOf(B A)
    ))",
                        t);
}

TEST(DeltaRecovery, ReplaysCommittedTxnsAndChecksHashes) {
  const std::string dir = tempDir("dwal-recover");
  const std::string path = dir + "/deltas.wal";
  TBox base;
  buildBaseTBox(base);
  const std::uint64_t baseHash = ontologyContentHash(base);
  const std::vector<std::string> baseStmts = statementsFromTBox(base);

  // What the live commit path would produce for txn 1: add C ⊑ A.
  std::vector<std::string> stmts = baseStmts;
  std::string err;
  ASSERT_TRUE(applyStagedOps(stmts, {{true, "SubClassOf(C A)"}}, &err)) << err;
  TBox post;
  ASSERT_TRUE(buildTBoxFromStatements(stmts, post, &err)) << err;
  const std::uint64_t postHash = ontologyContentHash(post);

  DeltaJournal j;
  ASSERT_TRUE(j.open(path, baseHash, /*truncate=*/true, &err)) << err;
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kBegin, 1), &err));
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kAdd, 1, "SubClassOf(C A)"), &err));
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kCommit, 1, "", postHash), &err));
  // An open transaction after the commit: recovery rolls it back.
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kBegin, 2), &err));
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kAdd, 2, "SubClassOf(A C)"), &err));
  j.close();

  DeltaRecovery out;
  ASSERT_TRUE(recoverDeltaState(path, baseHash, baseStmts, &out, &err)) << err;
  EXPECT_EQ(out.committedTxns, 1u);
  EXPECT_TRUE(out.hadOpenTxn);
  EXPECT_EQ(out.nextTxnId, 3u);
  EXPECT_EQ(out.finalHash, postHash);
  // The recovered list regenerates through a TBox round-trip, exactly as
  // the live commit path does — so compare canonically, not verbatim.
  TBox recovered;
  ASSERT_TRUE(buildTBoxFromStatements(out.statements, recovered, &err)) << err;
  EXPECT_EQ(ontologyContentHash(recovered), postHash);
}

TEST(DeltaRecovery, HashMismatchInCommitRecordFailsRecovery) {
  const std::string path = tempDir("dwal-badhash") + "/deltas.wal";
  TBox base;
  buildBaseTBox(base);
  const std::uint64_t baseHash = ontologyContentHash(base);
  std::string err;
  DeltaJournal j;
  ASSERT_TRUE(j.open(path, baseHash, /*truncate=*/true, &err)) << err;
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kBegin, 1), &err));
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kAdd, 1, "SubClassOf(C A)"), &err));
  ASSERT_TRUE(j.append(rec(DeltaOpKind::kCommit, 1, "", /*wrong=*/0xBAD), &err));
  j.close();

  DeltaRecovery out;
  EXPECT_FALSE(
      recoverDeltaState(path, baseHash, statementsFromTBox(base), &out, &err));
  EXPECT_NE(err.find("different ontology"), std::string::npos) << err;
}

TEST(DeltaRecovery, MissingWalIsBaseState) {
  const std::string path = tempDir("dwal-none") + "/deltas.wal";
  TBox base;
  buildBaseTBox(base);
  DeltaRecovery out;
  std::string err;
  ASSERT_TRUE(recoverDeltaState(path, ontologyContentHash(base),
                                statementsFromTBox(base), &out, &err))
      << err;
  EXPECT_EQ(out.committedTxns, 0u);
  EXPECT_FALSE(out.hadOpenTxn);
  EXPECT_EQ(out.nextTxnId, 1u);
}

}  // namespace
}  // namespace owlcl
