// AtomicBitMatrix — the paper's "shared atomic global data structure".
//
// An n_rows × n_cols bit matrix over std::atomic<uint64_t> words. The
// classifier keeps three of these, indexed by dense ConceptId:
//   P[X]      — possible subsumees of X
//   K[X]      — known subsumees of X
//   tested[X] — pairs ⟨X,Y⟩ whose subs?(X,Y) test has been claimed
//
// All mutating ops are single-word lock-free RMWs, so concurrent workers
// never block on the shared state (Section I: "atomic global data
// structures ... avoid possible race conditions for updates"). Where no
// worker or reader can run, quiescentRow() hands out plain word views
// instead, so bulk passes run as ordinary (vectorisable) loops.
//
// Memory ordering: testAndSet/clear use acq_rel so that a worker that
// *observes* a bit (e.g. tested[X][Y]) also observes the P/K updates the
// claiming worker published before setting it. Plain reads use acquire;
// counting/scans are snapshots (see rowWordsInto()) and are only used in
// single-threaded phase boundaries or for monitoring.
//
// Counted mode (reset(rows, cols, /*counted=*/true)) maintains O(1)
// set-bit bookkeeping: a cache-line-padded per-row counter plus a sharded
// global counter, updated by the *same thread* whose fetch_or/fetch_and
// actually flipped the bit (the RMW return value decides, so each bit
// transition pairs with exactly one counter update — double counting is
// impossible no matter how many workers race). countRow/countAll/rowEmpty
// then answer without scanning words. The counters are relaxed: a reader
// racing the writers may see a bit flip before its counter update (or the
// reverse), so mid-storm values are approximate — but every executor
// barrier joins the workers, which orders all updates before the read, so
// counts are EXACT at phase boundaries (the only place the classifier
// compares them). recountRow/recountAll always scan, for verification.
//
// Compute backend: every bulk word-parallel operation delegates to a
// BitKernels backend (parallel/bit_kernels.hpp — AVX2 when CPUID finds
// it, portable atomics otherwise). Rows are stored in 64-byte-
// aligned blocks and wordsPerRow() is padded to a whole block, so a
// 256-bit vector load never straddles a row boundary; the padding words
// map to no column and are permanently zero.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "parallel/bit_kernels.hpp"
#include "util/assert.hpp"

namespace owlcl {

class AtomicBitMatrix {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::size_t kGlobalShards = 64;  // power of two
  /// Words per 64-byte storage block; wordsPerRow() is a multiple of this.
  static constexpr std::size_t kBlockWords = 8;

  AtomicBitMatrix() = default;
  AtomicBitMatrix(std::size_t rows, std::size_t cols, bool counted = false,
                  const BitKernels* kernels = nullptr) {
    reset(rows, cols, counted, kernels);
  }

  /// Re-dimensions and zeroes the matrix. Not thread-safe. A null
  /// `kernels` keeps the matrix's current backend (or, on first reset,
  /// binds activeBitKernels()); an explicit one exists for the
  /// differential suites and bench_ablation_bitkernels. The fresh block vector is
  /// value-initialised, which already zeroes every word and counter.
  void reset(std::size_t rows, std::size_t cols, bool counted = false,
             const BitKernels* kernels = nullptr) {
    if (kernels != nullptr) kernels_ = kernels;
    if (kernels_ == nullptr) kernels_ = &activeBitKernels();
    rows_ = rows;
    cols_ = cols;
    counted_ = counted;
    usedWordsPerRow_ = (cols + kWordBits - 1) / kWordBits;
    wordsPerRow_ =
        (usedWordsPerRow_ + kBlockWords - 1) / kBlockWords * kBlockWords;
    wordCount_ = rows * wordsPerRow_;
    blocks_ = std::vector<Block>(wordCount_ / kBlockWords);
    words_ = blocks_.empty() ? nullptr : blocks_.front().w;
    OWLCL_DEBUG_ASSERT(words_ == nullptr ||
                       reinterpret_cast<std::uintptr_t>(words_) % 64 == 0);
    rowCounts_ = std::vector<PaddedCount>(counted ? rows : 0);
    globalShards_ = std::vector<PaddedCount>(counted ? kGlobalShards : 0);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool counted() const { return counted_; }

  /// The backend all bulk kernels of this matrix run on.
  const BitKernels& kernels() const { return *kernels_; }

  bool test(std::size_t r, std::size_t c) const {
    return (word(r, c).load(std::memory_order_acquire) >> bitIndex(c)) & 1u;
  }

  /// Sets bit (r,c); returns true iff this call changed it (claim won).
  bool testAndSet(std::size_t r, std::size_t c) {
    const Word mask = Word{1} << bitIndex(c);
    const Word old = word(r, c).fetch_or(mask, std::memory_order_acq_rel);
    const bool changed = (old & mask) == 0;
    if (changed && counted_) bump(r, 1);
    return changed;
  }

  /// Clears bit (r,c); returns true iff this call changed it.
  bool testAndClear(std::size_t r, std::size_t c) {
    const Word mask = Word{1} << bitIndex(c);
    const Word old = word(r, c).fetch_and(~mask, std::memory_order_acq_rel);
    const bool changed = (old & mask) != 0;
    if (changed && counted_) bump(r, -1);
    return changed;
  }

  // --- word-granularity bulk kernels ----------------------------------------
  // One atomic RMW per 64-bit word that changes, instead of one per bit:
  // the concurrent hot paths (Algorithm 5 pruning, the merge sweep, the
  // cancelled-run drain) apply a whole mask row at once. Counted-mode
  // deltas come from the popcount of each word's own before/after
  // transition, so the exactly-one-counter-update-per-bit-flip invariant
  // is identical to the single-bit ops and bulk/scalar mixes stay
  // consistent (tested under TSan, on portable and the active backend).
  // Orderings are acq_rel like testAndSet/testAndClear: a worker that
  // observes a bulk-set bit also observes every write the setting worker
  // published before the RMW.
  //
  // `mask` holds `nWords` row-major words; nWords may be shorter than the
  // row (missing words are treated as zero). Bits in mask words past
  // cols() must be zero — a set dead bit would corrupt the counters.

  /// row |= mask. Returns the number of bits this call newly set.
  std::size_t orRow(std::size_t r, const Word* mask, std::size_t nWords) {
    OWLCL_DEBUG_ASSERT(r < rows_ && nWords <= wordsPerRow_);
#if !defined(NDEBUG)
    for (std::size_t w = 0; w < nWords; ++w)
      OWLCL_DEBUG_ASSERT((mask[w] & ~validMaskForWord(w)) == 0);
#endif
    const std::int64_t added = kernels_->orRow(rowPtr(r), mask, nWords);
    if (counted_ && added != 0) bump(r, added);
    return static_cast<std::size_t>(added);
  }

  /// row &= ~mask. Returns the number of bits this call newly cleared.
  std::size_t andNotRow(std::size_t r, const Word* mask, std::size_t nWords) {
    OWLCL_DEBUG_ASSERT(r < rows_ && nWords <= wordsPerRow_);
    const std::int64_t removed = kernels_->andNotRow(rowPtr(r), mask, nWords);
    if (counted_ && removed != 0) bump(r, -removed);
    return static_cast<std::size_t>(removed);
  }

  /// Allocation-free set-bit iteration over row r. Each word is loaded
  /// once (acquire) and its bits decoded from that local copy, so `fn` may
  /// clear bits of the row being iterated without invalidating the walk
  /// (per-word snapshot semantics, same as rowIndices).
  template <class Fn>
  void forEachSetBit(std::size_t r, Fn&& fn) const {
    OWLCL_DEBUG_ASSERT(r < rows_);
    struct Ctx {
      Fn* fn;
    } ctx{&fn};
    kernels_->scanNonZeroWords(
        rowPtr(r), wordsPerRow_, &ctx, [](void* c, std::size_t w, Word v) {
          const std::size_t base = w * kWordBits;
          while (v != 0) {
            (*static_cast<Ctx*>(c)->fn)(
                base + static_cast<std::size_t>(std::countr_zero(v)));
            v &= v - 1;
          }
        });
  }

  /// Row indices with bit (r,c) set, like colIndices but without the
  /// return-vector allocation: one word probe per row, counted-mode rows
  /// with a zero counter skipped (safe for shrink-only sets — the lagged
  /// counter over-approximates, so zero is definitive).
  template <class Fn>
  void forEachSetBitInCol(std::size_t c, Fn&& fn) const {
    OWLCL_DEBUG_ASSERT(c < cols_);
    if (rows_ == 0) return;
    struct Ctx {
      Fn* fn;
    } ctx{&fn};
    kernels_->probeColumn(words_ + c / kWordBits, wordsPerRow_, rows_,
                          Word{1} << bitIndex(c), countsPtr(), kCountStride,
                          &ctx, [](void* cx, std::size_t r) {
                            (*static_cast<Ctx*>(cx)->fn)(r);
                          });
  }

  /// Word-atomic snapshot of row r into a caller-owned buffer (resized to
  /// wordsPerRow()). Hot loops reuse a thread-local buffer across calls.
  void rowWordsInto(std::size_t r, std::vector<Word>& out) const {
    OWLCL_DEBUG_ASSERT(r < rows_);
    out.resize(wordsPerRow_);
    kernels_->snapshotRow(rowPtr(r), out.data(), wordsPerRow_);
  }

  std::size_t wordsPerRow() const { return wordsPerRow_; }
  /// Words actually carrying columns: (cols+63)/64, before block padding.
  std::size_t usedWordsPerRow() const { return usedWordsPerRow_; }

  /// Clears the whole row (callers use this at phase boundaries or under
  /// the row's logical ownership).
  void clearRow(std::size_t r) {
    std::int64_t removed = 0;
    for (std::size_t w = 0; w < wordsPerRow_; ++w) {
      const Word old = rowPtr(r)[w].exchange(0, std::memory_order_acq_rel);
      removed += std::popcount(old);
    }
    if (counted_ && removed != 0) bump(r, -removed);
  }

  /// Set-bit count of row r. O(1) in counted mode, otherwise a word scan.
  /// Snapshot semantics either way: exact at quiescence.
  std::size_t countRow(std::size_t r) const {
    if (counted_) {
      OWLCL_DEBUG_ASSERT(r < rows_);
      return clampCount(rowCounts_[r].v.load(std::memory_order_relaxed));
    }
    return recountRow(r);
  }

  bool rowEmpty(std::size_t r) const {
    if (counted_) return countRow(r) == 0;
    for (std::size_t w = 0; w < wordsPerRow_; ++w)
      if (rowPtr(r)[w].load(std::memory_order_acquire) != 0) return false;
    return true;
  }

  /// Total set-bit count. O(shards) in counted mode, otherwise a full scan.
  std::size_t countAll() const {
    if (counted_) {
      std::int64_t sum = 0;
      for (const PaddedCount& s : globalShards_)
        sum += s.v.load(std::memory_order_relaxed);
      return clampCount(sum);
    }
    return recountAll();
  }

  /// Always scans the words of row r — the ground truth the maintained
  /// counter must agree with at quiescence (tested as such).
  std::size_t recountRow(std::size_t r) const {
    return static_cast<std::size_t>(
        kernels_->recountWords(rowPtr(r), wordsPerRow_));
  }

  /// Always scans every word (ground truth for countAll()).
  std::size_t recountAll() const {
    return static_cast<std::size_t>(kernels_->recountWords(words_, wordCount_));
  }

  /// Column indices of set bits in row r (snapshot).
  std::vector<std::uint32_t> rowIndices(std::size_t r) const {
    return rowIndicesRange(r, 0, cols_);
  }

  /// Column indices of set bits in row r restricted to [colBegin, colEnd).
  /// Scans only the words overlapping the range — the chunked group-round
  /// dispatch uses this so each chunk touches its own slice of the row.
  std::vector<std::uint32_t> rowIndicesRange(std::size_t r,
                                             std::size_t colBegin,
                                             std::size_t colEnd) const {
    std::vector<std::uint32_t> out;
    rowIndicesInto(r, colBegin, colEnd, out);
    return out;
  }

  /// rowIndicesRange into a caller-owned buffer (cleared first): the hot
  /// dispatch loops reuse a thread-local buffer so reading a row slice
  /// allocates nothing in steady state.
  void rowIndicesInto(std::size_t r, std::size_t colBegin, std::size_t colEnd,
                      std::vector<std::uint32_t>& out) const {
    OWLCL_DEBUG_ASSERT(colBegin <= colEnd && colEnd <= cols_);
    out.clear();
    if (colBegin >= colEnd) return;
    const std::size_t wBegin = colBegin / kWordBits;
    const std::size_t wEnd = (colEnd + kWordBits - 1) / kWordBits;
    for (std::size_t w = wBegin; w < wEnd; ++w) {
      Word v = rowPtr(r)[w].load(std::memory_order_acquire);
      const std::size_t base = w * kWordBits;
      if (base < colBegin) v &= ~Word{0} << (colBegin - base);
      if (base + kWordBits > colEnd) {
        const std::size_t valid = colEnd - base;
        v &= valid == 0 ? 0 : (~Word{0} >> (kWordBits - valid));
      }
      while (v != 0) {
        const int b = std::countr_zero(v);
        out.push_back(static_cast<std::uint32_t>(base +
                                                 static_cast<std::size_t>(b)));
        v &= v - 1;
      }
    }
  }

  // --- serialization (checkpointing) ----------------------------------------
  // Quiescent-only: callers must guarantee no concurrent mutators (the
  // classifier uses these between executor barriers / before a run).

  /// All matrix words in the compact row-major layout ((cols+63)/64 words
  /// per row — the in-memory block padding is stripped, so the snapshot
  /// format is independent of the storage alignment). The raw material of
  /// a snapshot file.
  std::vector<Word> snapshotWords() const {
    std::vector<Word> out(rows_ * usedWordsPerRow_);
    for (std::size_t r = 0; r < rows_; ++r)
      kernels_->copyWordsQuiescent(rowPtr(r), out.data() + r * usedWordsPerRow_,
                                   usedWordsPerRow_);
    return out;
  }

  /// Replaces the matrix content with previously snapshotted words
  /// (compact layout, see snapshotWords) and rebuilds the counted-mode
  /// bookkeeping by recounting (the restored counters are exact by
  /// construction). Tail bits beyond `cols` are masked off defensively —
  /// a corrupt snapshot must not inflate counts. Row-padding words are
  /// zero invariantly (no kernel can set a dead bit) and are not touched.
  void loadWords(const std::vector<Word>& in) {
    OWLCL_ASSERT_MSG(in.size() == rows_ * usedWordsPerRow_,
                     "word-count mismatch restoring AtomicBitMatrix");
    const std::size_t tailBits = cols_ % kWordBits;
    const Word tailMask =
        tailBits == 0 ? ~Word{0} : (~Word{0} >> (kWordBits - tailBits));
    for (std::size_t r = 0; r < rows_; ++r) {
      kernels_->storeWordsQuiescent(rowPtr(r), in.data() + r * usedWordsPerRow_,
                                    usedWordsPerRow_);
      if (usedWordsPerRow_ != 0) {
        std::atomic<Word>& tail = rowPtr(r)[usedWordsPerRow_ - 1];
        tail.store(tail.load(std::memory_order_relaxed) & tailMask,
                   std::memory_order_relaxed);
      }
    }
    recount();
  }

  /// Plain-word view of row r: wordsPerRow() words, of which the padding
  /// past usedWordsPerRow() must stay zero. Same contract as loadWords —
  /// no concurrent mutators, and no concurrent reader of a row being
  /// written; a later dispatch or barrier publishes the writes to the
  /// workers. Writes through the view bypass
  /// the counted-mode bookkeeping, so a writer calls recount() before
  /// the next counted read. The seeding passes and the hierarchy build
  /// use it to run plain (vectorisable) word loops instead of one locked
  /// RMW per word.
  Word* quiescentRow(std::size_t r) {
    OWLCL_DEBUG_ASSERT(r < rows_);
    return reinterpret_cast<Word*>(rowPtr(r));
  }
  const Word* quiescentRow(std::size_t r) const {
    OWLCL_DEBUG_ASSERT(r < rows_);
    return reinterpret_cast<const Word*>(rowPtr(r));
  }

  /// Quiescent-only: rebuilds the counted-mode bookkeeping from the words
  /// (exact by construction). No-op in uncounted mode.
  void recount() {
    if (!counted_) return;
    std::int64_t shards[kGlobalShards] = {};
    for (std::size_t r = 0; r < rows_; ++r) {
      const auto cnt = static_cast<std::int64_t>(recountRow(r));
      rowCounts_[r].v.store(cnt, std::memory_order_relaxed);
      shards[r & (kGlobalShards - 1)] += cnt;
    }
    for (std::size_t i = 0; i < kGlobalShards; ++i)
      globalShards_[i].v.store(shards[i], std::memory_order_relaxed);
  }

  /// Quiescent verification that the maintained counters agree with a full
  /// recount (recovery runs this before trusting a restored matrix).
  bool countersMatchRecount() const {
    if (!counted_) return true;
    std::size_t total = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::size_t actual = recountRow(r);
      if (countRow(r) != actual) return false;
      total += actual;
    }
    return countAll() == total;
  }

  /// First counter/recount mismatch, for FATAL diagnostics. Row mismatches
  /// report {row, maintained, recount}; a global-shard-sum mismatch with
  /// all rows clean reports row == rows() (the shard sum vs the true
  /// total). Returns false when everything agrees (or in uncounted mode).
  struct CounterMismatch {
    std::size_t row = 0;
    std::size_t maintained = 0;
    std::size_t recount = 0;
  };
  bool firstCounterMismatch(CounterMismatch* out) const {
    if (!counted_) return false;
    std::size_t total = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::size_t actual = recountRow(r);
      if (countRow(r) != actual) {
        out->row = r;
        out->maintained = countRow(r);
        out->recount = actual;
        return true;
      }
      total += actual;
    }
    if (countAll() != total) {
      out->row = rows_;
      out->maintained = countAll();
      out->recount = total;
      return true;
    }
    return false;
  }

  /// Row indices r with bit (r,c) set (snapshot). One word probe per row;
  /// in counted mode rows whose counter reads zero are skipped without
  /// touching the matrix at all (safe for sets that only shrink: the lagged
  /// counter over-approximates, so a zero is definitive).
  std::vector<std::uint32_t> colIndices(std::size_t c) const {
    OWLCL_DEBUG_ASSERT(c < cols_);
    std::vector<std::uint32_t> out;
    if (rows_ == 0) return out;
    kernels_->probeColumn(words_ + c / kWordBits, wordsPerRow_, rows_,
                          Word{1} << bitIndex(c), countsPtr(), kCountStride,
                          &out, [](void* cx, std::size_t r) {
                            static_cast<std::vector<std::uint32_t>*>(cx)
                                ->push_back(static_cast<std::uint32_t>(r));
                          });
    return out;
  }

 private:
  // 64-byte-aligned storage block: rows start on a block boundary and are
  // padded to whole blocks, so vector kernels never straddle two rows.
  struct alignas(64) Block {
    std::atomic<Word> w[kBlockWords];
  };
  static_assert(sizeof(Block) == 64);
  // quiescentRow() views the atomic words as plain ones: a lock-free,
  // standard-layout atomic holds exactly its value, at its own address
  // (the AVX2 quiescent copies in bit_kernels.cpp rely on the same).
  static_assert(sizeof(std::atomic<Word>) == sizeof(Word) &&
                std::atomic<Word>::is_always_lock_free &&
                std::is_standard_layout_v<std::atomic<Word>>);

  // Padded so concurrent updates to different rows / shards never share a
  // cache line with each other or with the matrix words.
  struct alignas(64) PaddedCount {
    std::atomic<std::int64_t> v{0};
  };
  /// probeColumn strides over PaddedCount in units of its first member.
  static constexpr std::size_t kCountStride =
      sizeof(PaddedCount) / sizeof(std::atomic<std::int64_t>);

  const std::atomic<std::int64_t>* countsPtr() const {
    return (counted_ && !rowCounts_.empty()) ? &rowCounts_.front().v : nullptr;
  }

  std::atomic<Word>* rowPtr(std::size_t r) {
    return words_ + r * wordsPerRow_;
  }
  const std::atomic<Word>* rowPtr(std::size_t r) const {
    return words_ + r * wordsPerRow_;
  }

  void bump(std::size_t r, std::int64_t delta) {
    rowCounts_[r].v.fetch_add(delta, std::memory_order_relaxed);
    globalShards_[r & (kGlobalShards - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  // Counters are signed: a reader racing a set on thread A and a clear of
  // the same bit on thread B may observe B's decrement before A's
  // increment. Clamp transient negatives; at quiescence the sum is exact.
  static std::size_t clampCount(std::int64_t v) {
    return v > 0 ? static_cast<std::size_t>(v) : 0;
  }

  /// Mask of the bits of word w that map to real columns: all-ones for
  /// full words, partial for the tail word, zero for the padding words
  /// past it.
  Word validMaskForWord(std::size_t w) const {
    const std::size_t base = w * kWordBits;
    if (base + kWordBits <= cols_) return ~Word{0};
    const std::size_t valid = cols_ > base ? cols_ - base : 0;
    return valid == 0 ? 0 : (~Word{0} >> (kWordBits - valid));
  }

  std::atomic<Word>& word(std::size_t r, std::size_t c) {
    OWLCL_DEBUG_ASSERT(r < rows_ && c < cols_);
    return rowPtr(r)[c / kWordBits];
  }
  const std::atomic<Word>& word(std::size_t r, std::size_t c) const {
    OWLCL_DEBUG_ASSERT(r < rows_ && c < cols_);
    return rowPtr(r)[c / kWordBits];
  }
  static std::size_t bitIndex(std::size_t c) { return c % kWordBits; }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t wordsPerRow_ = 0;      // padded to a multiple of kBlockWords
  std::size_t usedWordsPerRow_ = 0;  // (cols+63)/64, the compact layout
  std::size_t wordCount_ = 0;    // rows_ * wordsPerRow_
  bool counted_ = false;
  const BitKernels* kernels_ = nullptr;
  std::vector<Block> blocks_;          // 64-byte-aligned backing store
  std::atomic<Word>* words_ = nullptr; // = blocks_.front().w
  std::vector<PaddedCount> rowCounts_;     // per-row set-bit count
  std::vector<PaddedCount> globalShards_;  // global count, sharded by row
};

}  // namespace owlcl
