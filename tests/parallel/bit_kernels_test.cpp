// Unit tests for the BitKernels CPUID selection plus direct kernel-level
// differentials: the selected backend must agree bit for bit with the
// portable reference on randomized buffers, including the
// private-buffer mask kernels (orInto/andNotInto), popcounts, quiescent
// copies, and the nonzero-word scan / column probe bridges.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "parallel/bit_kernels.hpp"

namespace owlcl {
namespace {

using Word = BitKernels::Word;

std::uint64_t nextRand(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s;
}

std::vector<Word> randomWords(std::uint64_t& s, std::size_t n) {
  std::vector<Word> v(n);
  for (Word& w : v) w = nextRand(s) & nextRand(s);  // ~25% density
  return v;
}

std::vector<const BitKernels*> runnableBackends() {
  std::vector<const BitKernels*> out = {&portableBitKernels()};
  if (&activeBitKernels() != out.front()) out.push_back(&activeBitKernels());
  return out;
}

// --- selection -----------------------------------------------------------------

TEST(BitKernelsSelection, ActiveIsAvx2ExactlyWhenBuildAndCpuHaveIt) {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
#else
  const bool avx2 = false;
#endif
  EXPECT_STREQ(activeBitKernels().name(), avx2 ? "avx2" : "portable");
  if (!avx2) {
    EXPECT_EQ(&activeBitKernels(), &portableBitKernels());
  }
  EXPECT_STREQ(portableBitKernels().name(), "portable");
  // Fixed on first use: every call hands out the same object.
  EXPECT_EQ(&activeBitKernels(), &activeBitKernels());
}

TEST(BitKernelsSelection, CpuFeatureStringIsStable) {
  // Feeds --stats and the bench meta blocks; must be deterministic.
  const std::string a = cpuFeatureString();
  EXPECT_EQ(a, cpuFeatureString());
#if defined(__x86_64__)
  EXPECT_FALSE(a.empty());
#endif
}

// --- direct kernel differentials vs portable ---------------------------------

TEST(BitKernelsDifferential, OrRowAndNotRowMatchPortableOnRawRows) {
  const BitKernels& ref = portableBitKernels();
  for (const BitKernels* bk : runnableBackends()) {
    SCOPED_TRACE(bk->name());
    std::uint64_t s = 0xC0FFEE0DDF00Dull;
    for (std::size_t n : {1u, 3u, 7u, 8u, 12u, 33u}) {
      for (int trial = 0; trial < 40; ++trial) {
        const std::vector<Word> init = randomWords(s, n);
        const std::vector<Word> mask = randomWords(s, n);
        std::vector<std::atomic<Word>> a(n), b(n);
        for (std::size_t w = 0; w < n; ++w) {
          a[w].store(init[w]);
          b[w].store(init[w]);
        }
        const std::int64_t dRef = (trial & 1)
                                      ? ref.orRow(a.data(), mask.data(), n)
                                      : ref.andNotRow(a.data(), mask.data(), n);
        const std::int64_t dBk = (trial & 1)
                                     ? bk->orRow(b.data(), mask.data(), n)
                                     : bk->andNotRow(b.data(), mask.data(), n);
        EXPECT_EQ(dRef, dBk) << "n=" << n << " trial=" << trial;
        for (std::size_t w = 0; w < n; ++w)
          ASSERT_EQ(a[w].load(), b[w].load()) << "n=" << n << " word " << w;
      }
    }
  }
}

TEST(BitKernelsDifferential, PrivateBufferKernelsMatchPortable) {
  const BitKernels& ref = portableBitKernels();
  for (const BitKernels* bk : runnableBackends()) {
    SCOPED_TRACE(bk->name());
    std::uint64_t s = 0xBADC0DEDull;
    for (std::size_t n : {1u, 4u, 5u, 16u, 31u}) {
      for (int trial = 0; trial < 40; ++trial) {
        const std::vector<Word> src = randomWords(s, n);
        const std::vector<Word> other = randomWords(s, n);
        std::vector<Word> dRef = randomWords(s, n);
        std::vector<Word> dBk = dRef;

        EXPECT_EQ(ref.popcountWords(dRef.data(), n),
                  bk->popcountWords(dBk.data(), n));

        const bool grewRef = ref.orInto(dRef.data(), src.data(), n);
        const bool grewBk = bk->orInto(dBk.data(), src.data(), n);
        EXPECT_EQ(grewRef, grewBk) << "n=" << n;
        EXPECT_EQ(dRef, dBk) << "orInto n=" << n;
        // Re-applying the same union never grows.
        EXPECT_FALSE(bk->orInto(dBk.data(), src.data(), n));

        std::vector<Word> outRef(n, 0xABAB), outBk(n, 0xCDCD);
        ref.andNotInto(outRef.data(), dRef.data(), other.data(), n);
        bk->andNotInto(outBk.data(), dBk.data(), other.data(), n);
        EXPECT_EQ(outRef, outBk) << "andNotInto n=" << n;
      }
    }
  }
}

TEST(BitKernelsDifferential, SnapshotRecountAndQuiescentMovesMatchPortable) {
  const BitKernels& ref = portableBitKernels();
  for (const BitKernels* bk : runnableBackends()) {
    SCOPED_TRACE(bk->name());
    std::uint64_t s = 0x5EEDF00Dull;
    for (std::size_t n : {1u, 8u, 13u, 40u}) {
      const std::vector<Word> init = randomWords(s, n);
      std::vector<std::atomic<Word>> row(n);
      for (std::size_t w = 0; w < n; ++w) row[w].store(init[w]);

      std::vector<Word> snapRef(n, 1), snapBk(n, 2);
      ref.snapshotRow(row.data(), snapRef.data(), n);
      bk->snapshotRow(row.data(), snapBk.data(), n);
      EXPECT_EQ(snapRef, snapBk);
      EXPECT_EQ(snapRef, init);

      EXPECT_EQ(ref.recountWords(row.data(), n), bk->recountWords(row.data(), n));

      std::vector<Word> copyBk(n, 3);
      bk->copyWordsQuiescent(row.data(), copyBk.data(), n);
      EXPECT_EQ(copyBk, init);

      std::vector<std::atomic<Word>> dst(n);
      for (std::size_t w = 0; w < n; ++w) dst[w].store(0xFFFF);
      bk->storeWordsQuiescent(dst.data(), init.data(), n);
      for (std::size_t w = 0; w < n; ++w) ASSERT_EQ(dst[w].load(), init[w]);
    }
  }
}

TEST(BitKernelsDifferential, ScanNonZeroWordsVisitsExactlyNonzeroWords) {
  for (const BitKernels* bk : runnableBackends()) {
    SCOPED_TRACE(bk->name());
    std::uint64_t s = 0xACE1ull;
    for (std::size_t n : {1u, 9u, 24u}) {
      std::vector<Word> init = randomWords(s, n);
      init[n / 2] = 0;  // guarantee at least one zero word
      std::vector<std::atomic<Word>> row(n);
      for (std::size_t w = 0; w < n; ++w) row[w].store(init[w]);

      struct Hit {
        std::size_t w;
        Word v;
      };
      std::vector<Hit> hits;
      bk->scanNonZeroWords(row.data(), n, &hits,
                           [](void* ctx, std::size_t w, Word v) {
                             static_cast<std::vector<Hit>*>(ctx)->push_back(
                                 {w, v});
                           });
      std::size_t expected = 0;
      for (std::size_t w = 0; w < n; ++w)
        if (init[w] != 0) ++expected;
      ASSERT_EQ(hits.size(), expected);
      for (const Hit& h : hits) EXPECT_EQ(h.v, init[h.w]);
      for (std::size_t i = 1; i < hits.size(); ++i)
        EXPECT_LT(hits[i - 1].w, hits[i].w) << "scan must be in word order";
    }
  }
}

TEST(BitKernelsDifferential, ProbeColumnHonorsMaskStrideAndCounterSkip) {
  for (const BitKernels* bk : runnableBackends()) {
    SCOPED_TRACE(bk->name());
    const std::size_t rows = 11, stride = 4;
    std::vector<std::atomic<Word>> words(rows * stride);
    for (auto& w : words) w.store(0);
    const Word mask = Word{1} << 17;
    // Rows 2, 5, 9 carry the probed bit; row 5's lagged counter says empty.
    for (std::size_t r : {2u, 5u, 9u}) words[r * stride].store(mask | 0x1);
    std::vector<std::atomic<std::int64_t>> counts(rows * 2);
    for (std::size_t r = 0; r < rows; ++r) counts[r * 2].store(r == 5 ? 0 : 3);

    std::vector<std::size_t> seen;
    bk->probeColumn(words.data(), stride, rows, mask, counts.data(),
                    /*countStride=*/2, &seen, [](void* ctx, std::size_t r) {
                      static_cast<std::vector<std::size_t>*>(ctx)->push_back(r);
                    });
    EXPECT_EQ(seen, (std::vector<std::size_t>{2, 9}));

    seen.clear();
    bk->probeColumn(words.data(), stride, rows, mask, /*counts=*/nullptr, 0,
                    &seen, [](void* ctx, std::size_t r) {
                      static_cast<std::vector<std::size_t>*>(ctx)->push_back(r);
                    });
    EXPECT_EQ(seen, (std::vector<std::size_t>{2, 5, 9}));
  }
}

}  // namespace
}  // namespace owlcl
