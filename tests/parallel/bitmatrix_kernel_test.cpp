// Differential and concurrency tests for the word-granularity bulk
// kernels (orRow / andNotRow) against the scalar testAndSet/testAndClear
// reference, plus the allocation-free iteration helpers they replaced
// vector-returning scans with. The counted-mode storm tests are in the
// TSan CI matrix: bulk and scalar counter deltas must agree no matter how
// the RMWs interleave.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "parallel/atomic_bitmatrix.hpp"
#include "parallel/bit_kernels.hpp"

namespace owlcl {
namespace {

using Word = AtomicBitMatrix::Word;

/// Portable plus the CPUID-chosen backend when that differs. The
/// differential and storm tests below iterate all of them against the
/// portable reference, so a vectorized backend can only land with
/// bit-identical observable behavior.
std::vector<const BitKernels*> runnableBackends() {
  std::vector<const BitKernels*> out = {&portableBitKernels()};
  if (&activeBitKernels() != out.front()) out.push_back(&activeBitKernels());
  return out;
}

std::uint64_t nextRand(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s;
}

/// Mask with every one of `cols` columns set (dead tail bits zero).
std::vector<Word> allColumns(std::size_t cols) {
  std::vector<Word> mask((cols + 63) / 64, ~Word{0});
  if (cols % 64 != 0) mask.back() = (Word{1} << (cols % 64)) - 1;
  return mask;
}

/// Random mask over `cols` columns with dead tail bits kept zero.
std::vector<Word> randomMask(std::uint64_t& s, std::size_t cols,
                             std::size_t density256) {
  const std::size_t nWords = (cols + 63) / 64;
  std::vector<Word> mask(nWords, 0);
  for (std::size_t c = 0; c < cols; ++c)
    if ((nextRand(s) >> 24) % 256 < density256)
      mask[c / 64] |= Word{1} << (c % 64);
  return mask;
}

// Differential: orRow/andNotRow must leave the matrix in exactly the
// state a scalar testAndSet/testAndClear loop produces, return exactly
// the number of bits the scalar loop would have flipped, and keep the
// counted-mode counters matching a recount — across many random masks,
// shapes (including partial tail words), and pre-states.
TEST(BitMatrixKernels, BulkMatchesScalarReference) {
  for (const BitKernels* backend : runnableBackends()) {
  SCOPED_TRACE(backend->name());
  std::uint64_t s = 0x1234567890ABCDEFull;
  const std::size_t shapes[][2] = {{1, 64}, {3, 70}, {2, 128}, {5, 257}};
  for (const auto& shape : shapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    for (int trial = 0; trial < 50; ++trial) {
      // The matrix under test runs the backend's kernels; the reference
      // matrix is pinned to portable and mutated only bit-by-bit.
      AtomicBitMatrix bulk(rows, cols, /*counted=*/true, backend);
      AtomicBitMatrix scalar(rows, cols, /*counted=*/true,
                             &portableBitKernels());
      // Random pre-state, identical in both matrices.
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
          if (nextRand(s) & 1) {
            bulk.testAndSet(r, c);
            scalar.testAndSet(r, c);
          }
      const std::size_t r = (nextRand(s) >> 33) % rows;
      const std::vector<Word> mask = randomMask(s, cols, 64 + trial * 3);
      const bool doSet = nextRand(s) & 1;

      std::size_t scalarFlips = 0;
      for (std::size_t c = 0; c < cols; ++c) {
        if (((mask[c / 64] >> (c % 64)) & 1) == 0) continue;
        if (doSet ? scalar.testAndSet(r, c) : scalar.testAndClear(r, c))
          ++scalarFlips;
      }
      const std::size_t bulkFlips = doSet
                                        ? bulk.orRow(r, mask.data(), mask.size())
                                        : bulk.andNotRow(r, mask.data(),
                                                         mask.size());
      EXPECT_EQ(bulkFlips, scalarFlips)
          << (doSet ? "orRow" : "andNotRow") << " " << rows << "x" << cols;
      for (std::size_t rr = 0; rr < rows; ++rr)
        for (std::size_t c = 0; c < cols; ++c)
          ASSERT_EQ(bulk.test(rr, c), scalar.test(rr, c))
              << rr << "," << c << (doSet ? " orRow" : " andNotRow");
      EXPECT_TRUE(bulk.countersMatchRecount());
      EXPECT_EQ(bulk.countRow(r), scalar.countRow(r));
      EXPECT_EQ(bulk.countAll(), scalar.countAll());
    }
  }
  }
}

TEST(BitMatrixKernels, OrRowReportsOnlyNewBits) {
  AtomicBitMatrix m(1, 130, /*counted=*/true);
  std::vector<Word> mask((130 + 63) / 64, 0);
  mask[0] = 0xFF;
  mask[2] = 0x3;  // columns 128, 129 — valid tail bits
  EXPECT_EQ(m.orRow(0, mask.data(), mask.size()), 10u);
  EXPECT_EQ(m.orRow(0, mask.data(), mask.size()), 0u);  // idempotent
  EXPECT_EQ(m.countRow(0), 10u);
  EXPECT_TRUE(m.countersMatchRecount());
}

TEST(BitMatrixKernels, AndNotRowReportsOnlyClearedBits) {
  AtomicBitMatrix m(1, 100, /*counted=*/true);
  const std::vector<Word> all = allColumns(100);
  m.orRow(0, all.data(), all.size());
  std::vector<Word> mask((100 + 63) / 64, 0);
  mask[0] = 0xF0F0;
  EXPECT_EQ(m.andNotRow(0, mask.data(), mask.size()), 8u);
  EXPECT_EQ(m.andNotRow(0, mask.data(), mask.size()), 0u);  // idempotent
  EXPECT_EQ(m.countRow(0), 92u);
  EXPECT_TRUE(m.countersMatchRecount());
}

TEST(BitMatrixKernels, ShortMaskTouchesOnlyCoveredWords) {
  // nWords shorter than the row: missing words are treated as zero.
  AtomicBitMatrix m(1, 256, /*counted=*/true);
  const std::vector<Word> all = allColumns(256);
  m.orRow(0, all.data(), all.size());
  std::vector<Word> mask(1, ~Word{0});
  EXPECT_EQ(m.andNotRow(0, mask.data(), mask.size()), 64u);
  EXPECT_EQ(m.countRow(0), 192u);
  for (std::size_t c = 64; c < 256; ++c) EXPECT_TRUE(m.test(0, c));
  EXPECT_TRUE(m.countersMatchRecount());
}

// The acceptance property for the kernel PR: a concurrent mix of bulk and
// scalar mutations — threads racing orRow/andNotRow against
// testAndSet/testAndClear on the SAME rows — must quiesce with the
// maintained counters equal to a ground-truth recount. Runs under TSan in
// CI (parallel_test is in the TSan job's target list).
TEST(BitMatrixKernels, CountersMatchRecountUnderConcurrentBulkScalarMix) {
  for (const BitKernels* backend : runnableBackends()) {
    SCOPED_TRACE(backend->name());
    const std::size_t rows = 32;
    const std::size_t cols = 257;  // partial tail word
    AtomicBitMatrix m(rows, cols, /*counted=*/true, backend);
    const int T = 8;
    std::vector<std::thread> threads;
    threads.reserve(T);
    for (int t = 0; t < T; ++t) {
      threads.emplace_back([&m, t, rows, cols] {
        std::uint64_t s =
            0xA0761D6478BD642Full * static_cast<std::uint64_t>(t + 1);
        for (int i = 0; i < 4000; ++i) {
          const std::size_t r = (nextRand(s) >> 33) % rows;
          switch ((nextRand(s) >> 13) & 3) {
            case 0:
              m.testAndSet(r, (nextRand(s) >> 20) % cols);
              break;
            case 1:
              m.testAndClear(r, (nextRand(s) >> 20) % cols);
              break;
            case 2: {
              const std::vector<Word> mask = randomMask(s, cols, 32);
              m.orRow(r, mask.data(), mask.size());
              break;
            }
            default: {
              const std::vector<Word> mask = randomMask(s, cols, 32);
              m.andNotRow(r, mask.data(), mask.size());
              break;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (std::size_t r = 0; r < rows; ++r)
      EXPECT_EQ(m.countRow(r), m.recountRow(r)) << "row " << r;
    EXPECT_EQ(m.countAll(), m.recountAll());
  }
}

// Concurrent claims split across bulk and scalar claimants: every bit is
// won exactly once, whether by an orRow word or a testAndSet.
TEST(BitMatrixKernels, BulkAndScalarClaimsAreExclusive) {
  for (const BitKernels* backend : runnableBackends()) {
    SCOPED_TRACE(backend->name());
    const std::size_t cols = 4096;
    AtomicBitMatrix m(1, cols, /*counted=*/true, backend);
    const int T = 8;
    std::atomic<std::size_t> wins{0};
    std::vector<std::thread> threads;
    threads.reserve(T);
    for (int t = 0; t < T; ++t) {
      threads.emplace_back([&m, &wins, t, cols] {
        std::size_t local = 0;
        if (t % 2 == 0) {
          for (std::size_t c = 0; c < cols; ++c)
            if (m.testAndSet(0, c)) ++local;
        } else {
          // Claim the row in word-sized strides.
          std::vector<Word> mask(cols / 64, 0);
          for (std::size_t w = 0; w < mask.size(); ++w) {
            mask[w] = ~Word{0};
            local += m.orRow(0, mask.data(), w + 1);
            mask[w] = 0;
          }
        }
        wins.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(wins.load(), cols);
    EXPECT_EQ(m.countRow(0), cols);
    EXPECT_TRUE(m.countersMatchRecount());
  }
}

// --- allocation-free iteration helpers ---------------------------------------

TEST(BitMatrixKernels, ForEachSetBitMatchesRowIndices) {
  std::uint64_t s = 0xFEEDFACECAFEBEEFull;
  AtomicBitMatrix m(3, 300);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 300; ++c)
      if (nextRand(s) & 1) m.testAndSet(r, c);
  for (std::size_t r = 0; r < 3; ++r) {
    std::vector<std::uint32_t> seen;
    m.forEachSetBit(r, [&seen](std::size_t c) {
      seen.push_back(static_cast<std::uint32_t>(c));
    });
    EXPECT_EQ(seen, m.rowIndices(r));
  }
}

TEST(BitMatrixKernels, ForEachSetBitToleratesClearingDuringIteration) {
  // Per-word snapshot semantics: fn may clear bits of the row being
  // iterated (the give-up path withdraws the very pairs it visits).
  AtomicBitMatrix m(1, 200);
  for (std::size_t c = 0; c < 200; c += 3) m.testAndSet(0, c);
  std::size_t visited = 0;
  m.forEachSetBit(0, [&m, &visited](std::size_t c) {
    ++visited;
    m.testAndClear(0, static_cast<std::size_t>(c));
  });
  EXPECT_EQ(visited, 67u);
  EXPECT_TRUE(m.rowEmpty(0));
}

TEST(BitMatrixKernels, ForEachSetBitInColMatchesColIndices) {
  AtomicBitMatrix m(20, 100, /*counted=*/true);
  for (std::size_t r = 0; r < 20; r += 3) m.testAndSet(r, 70);
  m.testAndSet(1, 5);
  std::vector<std::uint32_t> seen;
  m.forEachSetBitInCol(70, [&seen](std::size_t r) {
    seen.push_back(static_cast<std::uint32_t>(r));
  });
  EXPECT_EQ(seen, m.colIndices(70));
  // Zero-count rows are skipped without touching matrix words.
  m.clearRow(0);
  seen.clear();
  m.forEachSetBitInCol(70, [&seen](std::size_t r) {
    seen.push_back(static_cast<std::uint32_t>(r));
  });
  EXPECT_EQ(seen.size(), m.colIndices(70).size());
}

TEST(BitMatrixKernels, RowWordsIntoSnapshotsWholeWords) {
  AtomicBitMatrix m(2, 130);
  for (std::size_t c : {0u, 63u, 64u, 129u}) m.testAndSet(1, c);
  std::vector<Word> buf(99, 0xDEAD);  // stale content must be replaced
  m.rowWordsInto(1, buf);
  ASSERT_EQ(buf.size(), m.wordsPerRow());
  EXPECT_EQ(buf[0], (Word{1} | (Word{1} << 63)));
  EXPECT_EQ(buf[1], Word{1});
  EXPECT_EQ(buf[2], Word{2});
}

TEST(BitMatrixKernels, RowIndicesIntoReusesBuffer) {
  AtomicBitMatrix m(1, 300);
  for (std::size_t c = 0; c < 300; c += 7) m.testAndSet(0, c);
  std::vector<std::uint32_t> buf{9999};  // cleared before filling
  m.rowIndicesInto(0, 0, 300, buf);
  EXPECT_EQ(buf, m.rowIndices(0));
  m.rowIndicesInto(0, 65, 67, buf);
  for (std::uint32_t c : buf) {
    EXPECT_GE(c, 65u);
    EXPECT_LT(c, 67u);
  }
  m.rowIndicesInto(0, 100, 100, buf);
  EXPECT_TRUE(buf.empty());
}

}  // namespace
}  // namespace owlcl
