#include "parallel/atomic_bitmatrix.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <thread>
#include <utility>
#include <vector>

namespace owlcl {
namespace {

using Word = AtomicBitMatrix::Word;

/// Sets every column of row r except `skip` with one bulk orRow.
std::size_t setAll(AtomicBitMatrix& m, std::size_t r,
                   std::size_t skip = static_cast<std::size_t>(-1)) {
  std::vector<Word> mask(m.usedWordsPerRow(), ~Word{0});
  if (m.cols() % 64 != 0) mask.back() = (Word{1} << (m.cols() % 64)) - 1;
  if (skip < m.cols()) mask[skip / 64] &= ~(Word{1} << (skip % 64));
  return m.orRow(r, mask.data(), mask.size());
}

TEST(AtomicBitMatrix, StartsZeroed) {
  AtomicBitMatrix m(10, 70);
  EXPECT_EQ(m.rows(), 10u);
  EXPECT_EQ(m.cols(), 70u);
  EXPECT_EQ(m.countAll(), 0u);
  EXPECT_TRUE(m.rowEmpty(0));
}

TEST(AtomicBitMatrix, TestAndSetClaimSemantics) {
  AtomicBitMatrix m(2, 128);
  EXPECT_TRUE(m.testAndSet(0, 5));
  EXPECT_FALSE(m.testAndSet(0, 5));  // already set: claim lost
  EXPECT_TRUE(m.test(0, 5));
  EXPECT_FALSE(m.test(1, 5));
}

TEST(AtomicBitMatrix, TestAndClear) {
  AtomicBitMatrix m(1, 64);
  m.testAndSet(0, 63);
  EXPECT_TRUE(m.testAndClear(0, 63));
  EXPECT_FALSE(m.testAndClear(0, 63));  // already clear
  EXPECT_FALSE(m.test(0, 63));
}

TEST(AtomicBitMatrix, OrRowSetsExactlyValidColumns) {
  AtomicBitMatrix m(3, 70);
  EXPECT_EQ(setAll(m, 1), 70u);
  EXPECT_EQ(m.countRow(1), 70u);
  EXPECT_EQ(m.countRow(0), 0u);
  EXPECT_EQ(m.countAll(), 70u);
}

TEST(AtomicBitMatrix, OrRowLeavesUnmaskedColumns) {
  AtomicBitMatrix m(1, 100);
  EXPECT_EQ(setAll(m, 0, 42), 99u);
  EXPECT_EQ(m.countRow(0), 99u);
  EXPECT_FALSE(m.test(0, 42));
  EXPECT_TRUE(m.test(0, 41));
}

TEST(AtomicBitMatrix, ClearRow) {
  AtomicBitMatrix m(2, 100);
  setAll(m, 0);
  setAll(m, 1);
  m.clearRow(0);
  EXPECT_TRUE(m.rowEmpty(0));
  EXPECT_EQ(m.countRow(1), 100u);
}

TEST(AtomicBitMatrix, RowIndicesMatchesRowWords) {
  AtomicBitMatrix m(1, 200);
  for (std::size_t c = 0; c < 200; c += 13) m.testAndSet(0, c);
  const auto idx = m.rowIndices(0);
  std::vector<Word> words;
  m.rowWordsInto(0, words);
  std::size_t set = 0;
  for (const Word w : words) set += static_cast<std::size_t>(std::popcount(w));
  ASSERT_EQ(idx.size(), set);
  for (std::uint32_t c : idx) EXPECT_TRUE((words[c / 64] >> (c % 64)) & 1u);
}

TEST(AtomicBitMatrix, ResetRedimensions) {
  AtomicBitMatrix m(2, 64);
  setAll(m, 0);
  m.reset(4, 32);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 32u);
  EXPECT_EQ(m.countAll(), 0u);
}

// Concurrency: each of the T threads claims disjoint winners via
// testAndSet; exactly one winner per bit.
TEST(AtomicBitMatrix, ConcurrentClaimsAreExclusive) {
  const std::size_t cols = 4096;
  AtomicBitMatrix m(1, cols);
  const int T = 8;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  threads.reserve(T);
  for (int t = 0; t < T; ++t) {
    threads.emplace_back([&m, &wins, cols] {
      int local = 0;
      for (std::size_t c = 0; c < cols; ++c)
        if (m.testAndSet(0, c)) ++local;
      wins.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), static_cast<int>(cols));
  EXPECT_EQ(m.countRow(0), cols);
}

TEST(AtomicBitMatrix, RowWordsIntoCopiesTailWordsExactly) {
  // 70 columns: the second word is partial, and the row is padded to a
  // whole storage block — the copy carries no bit past cols().
  AtomicBitMatrix m(2, 70);
  setAll(m, 0);
  std::vector<Word> words;
  m.rowWordsInto(0, words);
  ASSERT_EQ(words.size(), m.wordsPerRow());
  EXPECT_EQ(words[0], ~Word{0});
  EXPECT_EQ(words[1], Word{0x3F});  // columns 64..69
  for (std::size_t w = 2; w < words.size(); ++w) EXPECT_EQ(words[w], 0u);

  AtomicBitMatrix s(1, 130);
  for (std::size_t c : {0u, 63u, 64u, 65u, 127u, 128u, 129u}) s.testAndSet(0, c);
  s.rowWordsInto(0, words);
  EXPECT_EQ(words[0], (Word{1} << 63) | 1u);
  EXPECT_EQ(words[1], (Word{1} << 63) | 3u);
  EXPECT_EQ(words[2], Word{3});  // columns 128, 129
}

TEST(AtomicBitMatrix, RowIndicesRangeRestrictsToColumns) {
  AtomicBitMatrix m(1, 300);
  for (std::size_t c = 0; c < 300; c += 7) m.testAndSet(0, c);
  const auto all = m.rowIndices(0);
  const auto lo = m.rowIndicesRange(0, 0, 150);
  const auto hi = m.rowIndicesRange(0, 150, 300);
  ASSERT_EQ(lo.size() + hi.size(), all.size());
  std::vector<std::uint32_t> merged = lo;
  merged.insert(merged.end(), hi.begin(), hi.end());
  EXPECT_EQ(merged, all);
  for (std::uint32_t c : lo) EXPECT_LT(c, 150u);
  for (std::uint32_t c : hi) EXPECT_GE(c, 150u);
  // Word-interior boundaries too.
  const auto mid = m.rowIndicesRange(0, 65, 67);
  for (std::uint32_t c : mid) {
    EXPECT_GE(c, 65u);
    EXPECT_LT(c, 67u);
  }
  EXPECT_TRUE(m.rowIndicesRange(0, 100, 100).empty());
}

TEST(AtomicBitMatrix, ColIndicesFindsExactlyTheRowsWithTheBit) {
  AtomicBitMatrix m(20, 100, /*counted=*/true);
  for (std::size_t r = 0; r < 20; r += 3) m.testAndSet(r, 70);
  m.testAndSet(1, 5);  // row with bits, but not in column 70
  const auto rows = m.colIndices(70);
  std::vector<std::uint32_t> expect;
  for (std::size_t r = 0; r < 20; r += 3)
    expect.push_back(static_cast<std::uint32_t>(r));
  EXPECT_EQ(rows, expect);
  // Clearing a row must make the fast-skip drop it.
  m.clearRow(0);
  const auto rows2 = m.colIndices(70);
  EXPECT_EQ(rows2.size(), expect.size() - 1);
}

// --- O(1) counter maintenance ------------------------------------------------

TEST(AtomicBitMatrix, CountedModeTracksSingleThreadedMutations) {
  AtomicBitMatrix m(4, 130, /*counted=*/true);
  EXPECT_TRUE(m.counted());
  EXPECT_EQ(m.countAll(), 0u);
  m.testAndSet(0, 5);
  m.testAndSet(0, 5);  // lost claim: no double count
  m.testAndSet(0, 129);
  EXPECT_EQ(m.countRow(0), 2u);
  EXPECT_EQ(m.recountRow(0), 2u);
  m.testAndClear(0, 5);
  m.testAndClear(0, 5);  // already clear: no double decrement
  EXPECT_EQ(m.countRow(0), 1u);
  setAll(m, 1);
  EXPECT_EQ(m.countRow(1), 130u);
  EXPECT_EQ(setAll(m, 1), 0u);  // refill over existing bits: delta, not sum
  EXPECT_EQ(m.countRow(1), 130u);
  const Word bit7 = Word{1} << 7;
  EXPECT_EQ(m.andNotRow(1, &bit7, 1), 1u);
  EXPECT_EQ(m.countRow(1), 129u);
  m.clearRow(1);
  EXPECT_EQ(m.countRow(1), 0u);
  EXPECT_TRUE(m.rowEmpty(1));
  EXPECT_FALSE(m.rowEmpty(0));
  EXPECT_EQ(m.countAll(), m.recountAll());
  m.reset(4, 130, /*counted=*/true);
  EXPECT_EQ(m.countAll(), 0u);
}

// The acceptance property: after a randomized concurrent set/clear storm
// quiesces, the maintained counters equal a full recount — per row and
// globally.
TEST(AtomicBitMatrix, CountersMatchRecountAfterConcurrentStorm) {
  const std::size_t rows = 70;  // spans several global shards (64)
  const std::size_t cols = 257;
  AtomicBitMatrix m(rows, cols, /*counted=*/true);
  const int T = 8;
  std::vector<std::thread> threads;
  threads.reserve(T);
  for (int t = 0; t < T; ++t) {
    threads.emplace_back([&m, t, rows, cols] {
      // Deterministic per-thread LCG; threads deliberately collide on the
      // same (row, col) pairs so set/clear race on shared words.
      std::uint64_t s = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(t + 1);
      for (int i = 0; i < 20000; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t r = (s >> 33) % rows;
        const std::size_t c = (s >> 13) % cols;
        if ((s >> 7) & 1)
          m.testAndSet(r, c);
        else
          m.testAndClear(r, c);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::size_t total = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(m.countRow(r), m.recountRow(r)) << "row " << r;
    total += m.recountRow(r);
  }
  EXPECT_EQ(m.countAll(), total);
  EXPECT_EQ(m.countAll(), m.recountAll());
}

// Storm variant with bulk row ops mixed in: orRow/clearRow maintain the
// counters by popcount/exchange deltas and must agree with a recount too. Each
// thread owns a disjoint row stripe (bulk ops are row-owner operations in
// the classifier), while single-bit ops still collide within the stripe.
TEST(AtomicBitMatrix, CountersMatchRecountAfterBulkOpStorm) {
  const std::size_t rows = 64;
  const std::size_t cols = 100;
  AtomicBitMatrix m(rows, cols, /*counted=*/true);
  const std::size_t T = 8;
  std::vector<std::thread> threads;
  threads.reserve(T);
  for (std::size_t t = 0; t < T; ++t) {
    threads.emplace_back([&m, t, rows, cols, T] {
      std::uint64_t s = 0xD1B54A32D192ED03ull * (t + 1);
      for (int i = 0; i < 5000; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t r = (rows / T) * t + ((s >> 33) % (rows / T));
        const std::size_t c = (s >> 13) % cols;
        switch ((s >> 7) & 3) {
          case 0: m.testAndSet(r, c); break;
          case 1: m.testAndClear(r, c); break;
          case 2: setAll(m, r, c); break;
          default: m.clearRow(r); break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t r = 0; r < rows; ++r)
    EXPECT_EQ(m.countRow(r), m.recountRow(r)) << "row " << r;
  EXPECT_EQ(m.countAll(), m.recountAll());
}

// Concurrency: concurrent set/clear of disjoint bits in the same word do
// not clobber each other.
TEST(AtomicBitMatrix, ConcurrentMixedOpsOnSharedWords) {
  AtomicBitMatrix m(1, 64);
  // Even bits pre-set; odd threads clear evens while even threads set odds.
  for (std::size_t c = 0; c < 64; c += 2) m.testAndSet(0, c);
  std::thread setter([&m] {
    for (std::size_t c = 1; c < 64; c += 2) m.testAndSet(0, c);
  });
  std::thread clearer([&m] {
    for (std::size_t c = 0; c < 64; c += 2) m.testAndClear(0, c);
  });
  setter.join();
  clearer.join();
  for (std::size_t c = 0; c < 64; ++c) EXPECT_EQ(m.test(0, c), c % 2 == 1);
}

// Serialization (checkpointing): snapshotWords/loadWords round-trip and
// rebuild the counted-mode bookkeeping exactly.
TEST(AtomicBitMatrix, SnapshotLoadRoundTripRebuildsCounters) {
  AtomicBitMatrix a(11, 70, /*counted=*/true);
  for (std::size_t r = 0; r < 11; ++r)
    for (std::size_t c = r; c < 70; c += r + 3) a.testAndSet(r, c);
  const std::vector<AtomicBitMatrix::Word> words = a.snapshotWords();

  AtomicBitMatrix b(11, 70, /*counted=*/true);
  b.testAndSet(5, 5);  // stale content that the load must replace
  b.loadWords(words);
  EXPECT_TRUE(b.countersMatchRecount());
  EXPECT_EQ(b.countAll(), a.countAll());
  for (std::size_t r = 0; r < 11; ++r) {
    EXPECT_EQ(b.countRow(r), a.countRow(r)) << "row " << r;
    for (std::size_t c = 0; c < 70; ++c)
      ASSERT_EQ(b.test(r, c), a.test(r, c)) << r << "," << c;
  }
}

TEST(AtomicBitMatrix, LoadWordsMasksCorruptTailBits) {
  // 70 columns → 6 dead bits in each row's last word. A corrupt snapshot
  // with those bits set must not inflate the restored counts.
  AtomicBitMatrix a(2, 70, /*counted=*/true);
  std::vector<AtomicBitMatrix::Word> words = a.snapshotWords();
  words[1] = ~AtomicBitMatrix::Word{0};  // row 0, word 1: bits 64..127
  a.loadWords(words);
  EXPECT_EQ(a.countRow(0), 6u);  // only columns 64..69 are real
  EXPECT_TRUE(a.countersMatchRecount());
}

TEST(AtomicBitMatrix, ResetOfDirtyMatrixReadsAllZero) {
  // reset() relies on the fresh block vector's value-initialisation alone:
  // no word or counter of the old content may survive it, at the old size
  // or a different one.
  AtomicBitMatrix m(9, 130, /*counted=*/true);
  for (std::size_t r = 0; r < 9; ++r) setAll(m, r, r);
  ASSERT_GT(m.countAll(), 0u);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{9, 130}, {4, 70}, {12, 200}}) {
    m.reset(rows, cols, /*counted=*/true);
    EXPECT_EQ(m.countAll(), 0u);
    EXPECT_EQ(m.recountAll(), 0u);
    EXPECT_TRUE(m.countersMatchRecount());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(m.countRow(r), 0u) << rows << "x" << cols << " row " << r;
      const AtomicBitMatrix::Word* words = m.quiescentRow(r);
      for (std::size_t w = 0; w < m.wordsPerRow(); ++w)
        ASSERT_EQ(words[w], 0u) << rows << "x" << cols << " row " << r;
    }
    setAll(m, rows - 1);  // dirty it again for the next reset
  }
}

TEST(AtomicBitMatrix, QuiescentRowWritesCountAfterRecount) {
  AtomicBitMatrix m(3, 70, /*counted=*/true);
  m.testAndSet(0, 1);
  AtomicBitMatrix::Word* row = m.quiescentRow(2);
  row[0] = 0xF0;
  row[1] = 0x3;  // columns 64, 65
  m.recount();
  EXPECT_TRUE(m.countersMatchRecount());
  EXPECT_EQ(m.countRow(0), 1u);
  EXPECT_EQ(m.countRow(2), 6u);
  EXPECT_EQ(m.countAll(), 7u);
  EXPECT_TRUE(m.test(2, 65));
  EXPECT_FALSE(m.test(2, 66));
}

}  // namespace
}  // namespace owlcl
