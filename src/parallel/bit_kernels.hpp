// BitKernels — pluggable compute backend for the P/K bit-matrix hot path.
//
// Every bulk word-parallel operation the classifier issues against the
// shared AtomicBitMatrix (orRow/andNotRow, set-bit scans, row snapshots,
// popcount recounts) and every sequential mask kernel the routing/prune/
// verify phases run on private DynamicBitset buffers funnels through
// this narrow interface (ROADMAP item 4, the Etaler-style backend split).
// The portable implementation reproduces the original hand-written loops
// bit for bit. The AVX2 backend is compiled in on x86 GCC/Clang builds;
// CPUID picks it at first use when the machine runs it (activeBitKernels).
// Nothing else selects a backend: the differential suites and
// bench_ablation_bitkernels pass one explicitly to compare the two.
//
// Concurrency contract (the counted-mode invariant, DESIGN.md §15):
//
//  * orRow/andNotRow operate on rows that concurrent workers mutate with
//    scalar testAndSet/testAndClear. Every word whose bits actually change
//    MUST go through a single atomic fetch_or/fetch_and whose *pre-image*
//    decides the popcount delta — that RMW is what pairs each bit flip with
//    exactly one counter update. A backend may SKIP a word when a prior
//    load shows the mask adds (clears) nothing: that linearizes the word's
//    OR (ANDNOT) at the load, where it is a no-op, so skipping performs
//    zero flips and contributes zero delta — indistinguishable from an RMW
//    issued at that instant. What a backend must never do is replace the
//    RMW on a *changing* word with a plain vector store: a racing scalar
//    setter's bit would be lost and its counter update orphaned.
//
//  * snapshotRow races with scalar setters by contract (pruneAfterStrict
//    reads K mid-phase) and therefore stays a per-word atomic acquire loop
//    in every backend. Only the explicitly quiescent copies
//    (copyWordsQuiescent/storeWordsQuiescent, used by checkpoint
//    snapshot/load between executor barriers) may use plain vector moves.
//
//  * Vector loads of possibly-racing words (the skip pre-checks and the
//    nonzero-word scans) are compiled only in non-TSan builds; under
//    ThreadSanitizer every racing access falls back to scalar atomic loads
//    so the differential storms run TSan-clean without suppressions.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace owlcl {

class BitKernels {
 public:
  using Word = std::uint64_t;

  virtual ~BitKernels() = default;

  /// Stable backend name ("portable" or "avx2").
  virtual const char* name() const = 0;

  // --- shared-row kernels (words may race with scalar setters) -------------

  /// row[w] |= mask[w] for w in [0, nWords); one atomic fetch_or per word
  /// that gains bits. Returns the number of bits newly set *by this call*
  /// (the counted-mode delta). Zero mask words are skipped.
  virtual std::int64_t orRow(std::atomic<Word>* row, const Word* mask,
                             std::size_t nWords) const = 0;

  /// row[w] &= ~mask[w]; one atomic fetch_and per word that loses bits.
  /// Returns the number of bits newly cleared by this call.
  virtual std::int64_t andNotRow(std::atomic<Word>* row, const Word* mask,
                                 std::size_t nWords) const = 0;

  /// Per-word atomic acquire snapshot. Safe against concurrent scalar
  /// setters; intentionally NOT vectorized in any backend (see header).
  virtual void snapshotRow(const std::atomic<Word>* src, Word* dst,
                           std::size_t n) const;

  /// Invokes sink(ctx, w, value) for every word with a nonzero value,
  /// where value is a single coherent load of word w (acquire or stronger
  /// snapshot). Bit decoding stays with the caller. Concurrent-safe:
  /// per-word snapshot semantics like forEachSetBit.
  virtual void scanNonZeroWords(const std::atomic<Word>* words, std::size_t n,
                                void* ctx,
                                void (*sink)(void*, std::size_t, Word)) const;

  /// Column probe: for r in [0, rows), invokes sink(ctx, r) when
  /// base[r * strideWords] & mask != 0. When `counts` is non-null, rows
  /// whose counter (counts[r * countStride], relaxed) reads <= 0 are
  /// skipped without touching matrix words (shrink-only sets: the lagged
  /// counter over-approximates, so zero is definitive). Strided and
  /// latency-bound, so no backend vectorizes it — gathers on racing cache
  /// lines win nothing.
  virtual void probeColumn(const std::atomic<Word>* base,
                           std::size_t strideWords, std::size_t rows,
                           Word mask, const std::atomic<std::int64_t>* counts,
                           std::size_t countStride, void* ctx,
                           void (*sink)(void*, std::size_t)) const;

  /// Popcount over possibly-racing matrix words (acquire per-word
  /// semantics; ground truth for the maintained counters at quiescence).
  virtual std::uint64_t recountWords(const std::atomic<Word>* words,
                                     std::size_t n) const;

  // --- quiescent-only bulk moves (checkpoint snapshot/load) -----------------
  // Callers guarantee no concurrent mutators (executor barriers on both
  // sides). Backends may use plain vector loads/stores.

  virtual void copyWordsQuiescent(const std::atomic<Word>* src, Word* dst,
                                  std::size_t n) const;
  virtual void storeWordsQuiescent(std::atomic<Word>* dst, const Word* src,
                                   std::size_t n) const;

  // --- private-buffer kernels (no concurrency; mask builders/fixpoints) -----

  /// Popcount over a plain buffer.
  virtual std::uint64_t popcountWords(const Word* words, std::size_t n) const;

  /// dst |= src; returns true iff any bit was added (the fixpoint drivers,
  /// e.g. verify's descendants fixpoint).
  virtual bool orInto(Word* dst, const Word* src, std::size_t n) const;

  /// dst = a & ~b (the merge-refutation and snapshot mask builder).
  virtual void andNotInto(Word* dst, const Word* a, const Word* b,
                          std::size_t n) const;
};

// --- backends ---------------------------------------------------------------

/// The always-available scalar-atomics reference backend.
const BitKernels& portableBitKernels();

/// Human-readable detected CPU feature list ("popcnt avx avx2 bmi2 ..."),
/// surfaced through --stats and the BENCH_*.json meta blocks.
std::string cpuFeatureString();

/// The backend every AtomicBitMatrix uses unless given an explicit one,
/// fixed by CPUID on first use: AVX2 when this build has that backend and
/// the CPU supports it, otherwise portable. Every call returns the same
/// object.
const BitKernels& activeBitKernels();

}  // namespace owlcl
