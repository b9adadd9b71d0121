#include "parallel/bit_kernels.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define OWLCL_BK_X86 1
#if defined(__GNUC__) || defined(__clang__)
#define OWLCL_HAVE_AVX2_BACKEND 1
#include <immintrin.h>
#endif
#endif

// Racing vector loads (the RMW skip pre-checks and the nonzero-word scans)
// are compiled out under ThreadSanitizer: TSan models a plain SIMD load of
// a concurrently-RMWed word as a data race, so those paths fall back to
// scalar atomic loads and the storm tests stay clean without suppressions.
#if defined(__SANITIZE_THREAD__)
#define OWLCL_BK_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OWLCL_BK_TSAN 1
#endif
#endif
#ifndef OWLCL_BK_TSAN
#define OWLCL_BK_TSAN 0
#endif

namespace owlcl {

using Word = BitKernels::Word;

static_assert(sizeof(std::atomic<Word>) == sizeof(Word),
              "BitKernels reinterprets atomic words as raw storage");
static_assert(std::atomic<Word>::is_always_lock_free,
              "BitKernels requires lock-free 64-bit atomics");

// --- base-class (portable) implementations ----------------------------------
// These are the reference semantics every backend is differential-tested
// against; the portable backend adds nothing beyond the two pure RMW loops.

void BitKernels::snapshotRow(const std::atomic<Word>* src, Word* dst,
                             std::size_t n) const {
  for (std::size_t w = 0; w < n; ++w)
    dst[w] = src[w].load(std::memory_order_acquire);
}

void BitKernels::scanNonZeroWords(const std::atomic<Word>* words,
                                  std::size_t n, void* ctx,
                                  void (*sink)(void*, std::size_t,
                                               Word)) const {
  for (std::size_t w = 0; w < n; ++w) {
    const Word v = words[w].load(std::memory_order_acquire);
    if (v != 0) sink(ctx, w, v);
  }
}

void BitKernels::probeColumn(const std::atomic<Word>* base,
                             std::size_t strideWords, std::size_t rows,
                             Word mask, const std::atomic<std::int64_t>* counts,
                             std::size_t countStride, void* ctx,
                             void (*sink)(void*, std::size_t)) const {
  for (std::size_t r = 0; r < rows; ++r) {
    if (counts != nullptr &&
        counts[r * countStride].load(std::memory_order_relaxed) <= 0)
      continue;
    if (base[r * strideWords].load(std::memory_order_acquire) & mask)
      sink(ctx, r);
  }
}

std::uint64_t BitKernels::recountWords(const std::atomic<Word>* words,
                                       std::size_t n) const {
  std::uint64_t c = 0;
  for (std::size_t w = 0; w < n; ++w)
    c += static_cast<std::uint64_t>(
        std::popcount(words[w].load(std::memory_order_acquire)));
  return c;
}

void BitKernels::copyWordsQuiescent(const std::atomic<Word>* src, Word* dst,
                                    std::size_t n) const {
  for (std::size_t w = 0; w < n; ++w)
    dst[w] = src[w].load(std::memory_order_acquire);
}

void BitKernels::storeWordsQuiescent(std::atomic<Word>* dst, const Word* src,
                                     std::size_t n) const {
  for (std::size_t w = 0; w < n; ++w)
    dst[w].store(src[w], std::memory_order_relaxed);
}

std::uint64_t BitKernels::popcountWords(const Word* words,
                                        std::size_t n) const {
  std::uint64_t c = 0;
  for (std::size_t w = 0; w < n; ++w)
    c += static_cast<std::uint64_t>(std::popcount(words[w]));
  return c;
}

bool BitKernels::orInto(Word* dst, const Word* src, std::size_t n) const {
  Word changed = 0;
  for (std::size_t w = 0; w < n; ++w) {
    const Word before = dst[w];
    dst[w] = before | src[w];
    changed |= dst[w] ^ before;
  }
  return changed != 0;
}

void BitKernels::andNotInto(Word* dst, const Word* a, const Word* b,
                            std::size_t n) const {
  for (std::size_t w = 0; w < n; ++w) dst[w] = a[w] & ~b[w];
}

namespace {

// --- portable backend -------------------------------------------------------
// Byte-for-byte the loops AtomicBitMatrix::orRow/andNotRow shipped with:
// one unconditional RMW per nonzero mask word, delta from the pre-image.

class PortableBitKernels final : public BitKernels {
 public:
  const char* name() const override { return "portable"; }

  std::int64_t orRow(std::atomic<Word>* row, const Word* mask,
                     std::size_t nWords) const override {
    std::int64_t added = 0;
    for (std::size_t w = 0; w < nWords; ++w) {
      const Word m = mask[w];
      if (m == 0) continue;
      const Word old = row[w].fetch_or(m, std::memory_order_acq_rel);
      added += std::popcount(m & ~old);
    }
    return added;
  }

  std::int64_t andNotRow(std::atomic<Word>* row, const Word* mask,
                         std::size_t nWords) const override {
    std::int64_t removed = 0;
    for (std::size_t w = 0; w < nWords; ++w) {
      const Word m = mask[w];
      if (m == 0) continue;
      const Word old = row[w].fetch_and(~m, std::memory_order_acq_rel);
      removed += std::popcount(m & old);
    }
    return removed;
  }
};

#if OWLCL_HAVE_AVX2_BACKEND

// --- AVX2 backend -----------------------------------------------------------
// 256-bit loads + _mm256_or/andnot + pshufb-LUT popcount. The RMW on every
// word that actually changes stays a scalar fetch_or/fetch_and (the counted
// -mode invariant needs the per-word pre-image); the vector win is skipping
// the words that need no RMW at all — in the routing/prune phases
// most mask applications are partly or wholly idempotent — plus vectorized
// popcounts, quiescent copies, and the private-buffer mask kernels.

inline const Word* rawWords(const std::atomic<Word>* p) {
  return reinterpret_cast<const Word*>(p);
}
inline Word* rawWords(std::atomic<Word>* p) {
  return reinterpret_cast<Word*>(p);
}

// 4×u64 per-lane popcount (Mula's pshufb nibble LUT + sad_epu8).
__attribute__((target("avx2"))) inline __m256i popcount256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline std::uint64_t hsum256(__m256i v) {
  alignas(32) Word lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx2"))) std::int64_t avx2OrRow(std::atomic<Word>* row,
                                                       const Word* mask,
                                                       std::size_t n) {
  std::int64_t added = 0;
  std::size_t w = 0;
#if !OWLCL_BK_TSAN
  for (; w + 4 <= n; w += 4) {
    const __m256i mv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + w));
    if (_mm256_testz_si256(mv, mv)) continue;
    const __m256i rv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(rawWords(row + w)));
    // Words where the mask adds nothing linearize as a no-op OR at the
    // load; only the rest get the authoritative fetch_or.
    const __m256i need = _mm256_andnot_si256(rv, mv);
    if (_mm256_testz_si256(need, need)) continue;
    alignas(32) Word needw[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(needw), need);
    for (int i = 0; i < 4; ++i) {
      if (needw[i] == 0) continue;
      const Word m = mask[w + static_cast<std::size_t>(i)];
      const Word old = row[w + static_cast<std::size_t>(i)].fetch_or(
          m, std::memory_order_acq_rel);
      added += std::popcount(m & ~old);
    }
  }
#endif
  for (; w < n; ++w) {
    const Word m = mask[w];
    if (m == 0) continue;
#if OWLCL_BK_TSAN
    if ((m & ~row[w].load(std::memory_order_acquire)) == 0) continue;
#endif
    const Word old = row[w].fetch_or(m, std::memory_order_acq_rel);
    added += std::popcount(m & ~old);
  }
  return added;
}

__attribute__((target("avx2"))) std::int64_t avx2AndNotRow(
    std::atomic<Word>* row, const Word* mask, std::size_t n) {
  std::int64_t removed = 0;
  std::size_t w = 0;
#if !OWLCL_BK_TSAN
  for (; w + 4 <= n; w += 4) {
    const __m256i mv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + w));
    if (_mm256_testz_si256(mv, mv)) continue;
    const __m256i rv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(rawWords(row + w)));
    const __m256i need = _mm256_and_si256(rv, mv);
    if (_mm256_testz_si256(need, need)) continue;
    alignas(32) Word needw[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(needw), need);
    for (int i = 0; i < 4; ++i) {
      if (needw[i] == 0) continue;
      const Word m = mask[w + static_cast<std::size_t>(i)];
      const Word old = row[w + static_cast<std::size_t>(i)].fetch_and(
          ~m, std::memory_order_acq_rel);
      removed += std::popcount(m & old);
    }
  }
#endif
  for (; w < n; ++w) {
    const Word m = mask[w];
    if (m == 0) continue;
#if OWLCL_BK_TSAN
    if ((m & row[w].load(std::memory_order_acquire)) == 0) continue;
#endif
    const Word old = row[w].fetch_and(~m, std::memory_order_acq_rel);
    removed += std::popcount(m & old);
  }
  return removed;
}

__attribute__((target("avx2"))) void avx2Scan(const std::atomic<Word>* words,
                                              std::size_t n, void* ctx,
                                              void (*sink)(void*, std::size_t,
                                                           Word)) {
  std::size_t w = 0;
#if !OWLCL_BK_TSAN
  for (; w + 4 <= n; w += 4) {
    const __m256i rv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(rawWords(words + w)));
    if (_mm256_testz_si256(rv, rv)) continue;
    alignas(32) Word lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), rv);
    for (int i = 0; i < 4; ++i)
      if (lanes[i] != 0) sink(ctx, w + static_cast<std::size_t>(i), lanes[i]);
  }
#endif
  for (; w < n; ++w) {
    const Word v = words[w].load(std::memory_order_acquire);
    if (v != 0) sink(ctx, w, v);
  }
}

__attribute__((target("avx2"))) std::uint64_t avx2Recount(
    const std::atomic<Word>* words, std::size_t n) {
  std::uint64_t c = 0;
  std::size_t w = 0;
#if !OWLCL_BK_TSAN
  __m256i acc = _mm256_setzero_si256();
  for (; w + 4 <= n; w += 4) {
    const __m256i rv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(rawWords(words + w)));
    acc = _mm256_add_epi64(acc, popcount256(rv));
  }
  c += hsum256(acc);
#endif
  for (; w < n; ++w)
    c += static_cast<std::uint64_t>(
        std::popcount(words[w].load(std::memory_order_acquire)));
  return c;
}

__attribute__((target("avx2"))) std::uint64_t avx2Popcount(const Word* words,
                                                           std::size_t n) {
  std::uint64_t c = 0;
  std::size_t w = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; w + 4 <= n; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    acc = _mm256_add_epi64(acc, popcount256(v));
  }
  c += hsum256(acc);
  for (; w < n; ++w)
    c += static_cast<std::uint64_t>(std::popcount(words[w]));
  return c;
}

__attribute__((target("avx2"))) void avx2Copy(const std::atomic<Word>* src,
                                              Word* dst, std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(rawWords(src + w)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), v);
  }
  for (; w < n; ++w) dst[w] = src[w].load(std::memory_order_relaxed);
}

__attribute__((target("avx2"))) void avx2Store(std::atomic<Word>* dst,
                                               const Word* src,
                                               std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rawWords(dst + w)), v);
  }
  for (; w < n; ++w) dst[w].store(src[w], std::memory_order_relaxed);
}

__attribute__((target("avx2"))) bool avx2OrInto(Word* dst, const Word* src,
                                                std::size_t n) {
  std::size_t w = 0;
  __m256i grew = _mm256_setzero_si256();
  for (; w + 4 <= n; w += 4) {
    const __m256i dv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i sv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    grew = _mm256_or_si256(grew, _mm256_andnot_si256(dv, sv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(dv, sv));
  }
  Word changed = _mm256_testz_si256(grew, grew) ? 0 : 1;
  for (; w < n; ++w) {
    const Word before = dst[w];
    dst[w] = before | src[w];
    changed |= dst[w] ^ before;
  }
  return changed != 0;
}

__attribute__((target("avx2"))) void avx2AndNotInto(Word* dst, const Word* a,
                                                    const Word* b,
                                                    std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_andnot_si256(bv, av));
  }
  for (; w < n; ++w) dst[w] = a[w] & ~b[w];
}

class Avx2BitKernels final : public BitKernels {
 public:
  const char* name() const override { return "avx2"; }

  std::int64_t orRow(std::atomic<Word>* row, const Word* mask,
                     std::size_t nWords) const override {
    return avx2OrRow(row, mask, nWords);
  }
  std::int64_t andNotRow(std::atomic<Word>* row, const Word* mask,
                         std::size_t nWords) const override {
    return avx2AndNotRow(row, mask, nWords);
  }
  // snapshotRow/probeColumn: inherited scalar-atomic loops on purpose —
  // they race with scalar setters by contract (see header).
  void scanNonZeroWords(const std::atomic<Word>* words, std::size_t n,
                        void* ctx,
                        void (*sink)(void*, std::size_t, Word)) const override {
    avx2Scan(words, n, ctx, sink);
  }
  std::uint64_t recountWords(const std::atomic<Word>* words,
                             std::size_t n) const override {
    return avx2Recount(words, n);
  }
  void copyWordsQuiescent(const std::atomic<Word>* src, Word* dst,
                          std::size_t n) const override {
    avx2Copy(src, dst, n);
  }
  void storeWordsQuiescent(std::atomic<Word>* dst, const Word* src,
                           std::size_t n) const override {
    avx2Store(dst, src, n);
  }
  std::uint64_t popcountWords(const Word* words, std::size_t n) const override {
    return avx2Popcount(words, n);
  }
  bool orInto(Word* dst, const Word* src, std::size_t n) const override {
    return avx2OrInto(dst, src, n);
  }
  void andNotInto(Word* dst, const Word* a, const Word* b,
                  std::size_t n) const override {
    avx2AndNotInto(dst, a, b, n);
  }
};

#endif  // OWLCL_HAVE_AVX2_BACKEND

}  // namespace

// --- backends ---------------------------------------------------------------

const BitKernels& portableBitKernels() {
  static const PortableBitKernels k;
  return k;
}

const BitKernels& activeBitKernels() {
#if OWLCL_HAVE_AVX2_BACKEND
  static const Avx2BitKernels avx2;
  static const BitKernels& active =
      __builtin_cpu_supports("avx2") != 0 ? avx2 : portableBitKernels();
  return active;
#else
  return portableBitKernels();
#endif
}

std::string cpuFeatureString() {
#if defined(OWLCL_BK_X86) && (defined(__GNUC__) || defined(__clang__))
  static const char* const kFeats[] = {"popcnt", "sse4.2",  "avx",      "avx2",
                                       "bmi",    "bmi2",    "avx512f",  "avx512bw"};
  std::string out;
  for (const char* f : kFeats) {
    bool has = false;
    if (std::strcmp(f, "popcnt") == 0) has = __builtin_cpu_supports("popcnt");
    else if (std::strcmp(f, "sse4.2") == 0) has = __builtin_cpu_supports("sse4.2");
    else if (std::strcmp(f, "avx") == 0) has = __builtin_cpu_supports("avx");
    else if (std::strcmp(f, "avx2") == 0) has = __builtin_cpu_supports("avx2");
    else if (std::strcmp(f, "bmi") == 0) has = __builtin_cpu_supports("bmi");
    else if (std::strcmp(f, "bmi2") == 0) has = __builtin_cpu_supports("bmi2");
    else if (std::strcmp(f, "avx512f") == 0) has = __builtin_cpu_supports("avx512f");
    else if (std::strcmp(f, "avx512bw") == 0) has = __builtin_cpu_supports("avx512bw");
    if (has) {
      if (!out.empty()) out += ' ';
      out += f;
    }
  }
  return out.empty() ? "none" : out;
#else
  return "generic";
#endif
}

}  // namespace owlcl
