// On-disk format pins: the exact bytes of journal.wal, deltas.wal and a
// ckpt-*.snap image for fixed inputs, as hex. All three formats are at
// version 1; an existing checkpoint directory must keep resuming, so any
// change to these bytes is a format change and needs a version bump.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "robust/checkpoint.hpp"
#include "robust/delta_journal.hpp"
#include "robust/journal.hpp"

namespace owlcl {
namespace {

namespace fs = std::filesystem;

std::string tempDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<unsigned char> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
}

std::string hex(const std::vector<unsigned char>& bytes) {
  std::string out;
  char buf[3];
  for (const unsigned char b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

TEST(OnDiskFormat, ResultJournalBytesAreVersion1) {
  const std::string path = tempDir("golden-jrnl") + "/journal.wal";
  ResultJournal j;
  std::string err;
  ASSERT_TRUE(j.open(path, /*hash=*/0x0123456789ABCDEFULL, /*seed=*/42,
                     FsyncPolicy::kNever, /*truncate=*/true, &err))
      << err;
  j.append(SettledKind::kSubsumption, 3, 4, 1);
  j.append(SettledKind::kSatFalse, 9, 9, 2);
  j.append(SettledKind::kUnresolvedConcept, 0x10203, 0, 0xFFFFFFFFu);
  j.close();

  EXPECT_EQ(hex(readAll(path)),
            // header: magic | version | ontologyHash | seed | crc
            "4f574c4a524e4c3101000000efcdab89674523012a00000000000000c9780282"
            // records: kind | pad | x | y | epoch | crc
            "01000000030000000400000001000000ab61bb09"
            "05000000090000000900000002000000727f0dbe"
            "070000000302010000000000ffffffffcc93c90f");
}

TEST(OnDiskFormat, DeltaJournalBytesAreVersion1) {
  const std::string path = tempDir("golden-dwal") + "/deltas.wal";
  DeltaJournal j;
  std::string err;
  ASSERT_TRUE(j.open(path, /*baseHash=*/0xFEEDFACECAFEBEEFULL,
                     /*truncate=*/true, &err))
      << err;
  DeltaRecord r;
  r.txid = 1;
  r.kind = DeltaOpKind::kBegin;
  ASSERT_TRUE(j.append(r, &err)) << err;
  r.kind = DeltaOpKind::kAdd;
  r.stmt = "SubClassOf(A B)";
  ASSERT_TRUE(j.append(r, &err)) << err;
  r.kind = DeltaOpKind::kRetract;
  r.stmt = "SubClassOf(B C)";
  ASSERT_TRUE(j.append(r, &err)) << err;
  r.kind = DeltaOpKind::kCommit;
  r.stmt.clear();
  r.newHash = 0x1122334455667788ULL;
  ASSERT_TRUE(j.append(r, &err)) << err;
  r.txid = 2;
  r.kind = DeltaOpKind::kBegin;
  ASSERT_TRUE(j.append(r, &err)) << err;
  r.kind = DeltaOpKind::kAbort;
  ASSERT_TRUE(j.append(r, &err)) << err;
  j.close();

  EXPECT_EQ(hex(readAll(path)),
            // header: magic | version | baseHash | crc
            "4f574c444c54413101000000efbefecacefaedfe09202af3"
            // records: kind | pad | txid | len | payload | crc
            "0100000001000000000000009e8ada2c"
            "02000000010000000f000000537562436c6173734f662841204229ce02a94e"
            "03000000010000000f000000537562436c6173734f66284220432920878b2b"
            "0400000001000000080000008877665544332211fcb94a91"
            "0100000002000000000000007d8d55a2"
            "05000000020000000000000002b653a1");
}

TEST(OnDiskFormat, SnapshotBytesAreVersion1) {
  ClassifierCheckpoint ckpt;
  ckpt.progress = {/*completedCycles=*/2, /*completedRounds=*/5, /*epoch=*/7};
  PkStoreImage& img = ckpt.store;
  img.conceptCount = 3;
  img.pWords = {0x6, 0x0, 0x3};
  img.kWords = {0x0, 0x1, 0x0};
  img.testedWords = {0x0, 0x5, 0x4};
  img.sat = {1, 2, 0};
  img.retries = {RetryImageEntry{0x0000000200000001ULL, 2, 9}};
  img.unresolvedPairs = {{2, 1}};
  img.unresolvedConcepts = {2};
  img.totalFailures = 3;
  img.possibleCount = 4;

  const std::vector<unsigned char> bytes =
      encodeSnapshot(ckpt, /*ontologyHash=*/0xA5A5, /*seed=*/11);
  EXPECT_EQ(hex(bytes),
            // magic | version | flags
            "4f574c534e4150310100000000000000"
            // ontologyHash | seed
            "a5a50000000000000b00000000000000"
            // epoch | cycles | rounds | conceptCount
            "0700000000000000020000000000000005000000000000000300000000000000"
            // P, K, tested: count | words
            "0300000000000000060000000000000000000000000000000300000000000000"
            "0300000000000000000000000000000001000000000000000000000000000000"
            "0300000000000000000000000000000005000000000000000400000000000000"
            // sat: count | bytes
            "0300000000000000010200"
            // retries: count | key | attempts | round
            "01000000000000000100000002000000020000000900000000000000"
            // unresolved pairs, concepts: count | ids
            "01000000000000000200000001000000"
            "010000000000000002000000"
            // totalFailures | possibleCount
            "03000000000000000400000000000000"
            // crc
            "6bfa30f8");

  // The file writer stores exactly the encoded image.
  const std::string path = tempDir("golden-snap") + "/ckpt-000000000000.snap";
  std::string err;
  ASSERT_TRUE(writeSnapshotFile(path, ckpt, 0xA5A5, 11, &err)) << err;
  EXPECT_EQ(readAll(path), bytes);
  ClassifierCheckpoint back;
  ASSERT_TRUE(readSnapshotFile(path, 0xA5A5, 11, &back, &err)) << err;
  EXPECT_EQ(back.store.pWords, img.pWords);
}

}  // namespace
}  // namespace owlcl
