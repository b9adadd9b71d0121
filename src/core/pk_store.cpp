#include "core/pk_store.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace owlcl {

PkStore::PkStore(std::size_t conceptCount, const BitKernels* kernels)
    : n_(conceptCount),
      sat_(conceptCount),
      satClaim_(conceptCount),
      conceptUnresolvedFlag_(conceptCount, false) {
  // The matrix words stay unwritten (and their pages untouched) until
  // initPossibleAll() or restoreImage(), which write every word once.
  // Addresses and the zeroed P counters are fixed from here on, so
  // remainingPossible() may be read concurrently with either of them.
  p_.allocate(conceptCount, conceptCount, /*counted=*/true, kernels);
  k_.allocate(conceptCount, conceptCount, /*counted=*/false, kernels);
  tested_.allocate(conceptCount, conceptCount, /*counted=*/false, kernels);
  for (auto& s : sat_)
    s.store(static_cast<std::uint8_t>(SatStatus::kUnknown),
            std::memory_order_relaxed);
  for (auto& c : satClaim_) c.store(0, std::memory_order_relaxed);
}

void PkStore::initPossibleAll() {
  using Word = AtomicBitMatrix::Word;
  const std::size_t words = rowWords();
  const std::size_t padded = p_.wordsPerRow();
  const std::size_t tailBits = n_ % AtomicBitMatrix::kWordBits;
  const Word tail = tailBits == 0 ? ~Word{0} : ~Word{0} >> (64 - tailBits);
  for (std::size_t x = 0; x < n_; ++x) {
    const RowWords row = quiescentRow(static_cast<ConceptId>(x));
    std::fill_n(row.p, words, ~Word{0});
    row.p[words - 1] = tail;
    // Block padding reads zero for the vector kernels; K starts empty.
    std::fill(row.p + words, row.p + padded, Word{0});
    std::fill_n(row.k, padded, Word{0});
    std::fill_n(row.tested, padded, Word{0});
    const Word self = Word{1} << (x % 64);
    row.p[x / 64] &= ~self;
    // X ⊑ X is trivially known; mark the diagonal tested so no worker
    // wastes a reasoner call on it.
    row.tested[x / 64] = self;
  }
  recountPossible();
}

DynamicBitset PkStore::liveConcepts() const {
  DynamicBitset live(n_);
  std::vector<std::uint64_t> row;
  for (std::size_t x = 0; x < n_; ++x) {
    if (p_.rowEmpty(x)) continue;
    live.set(x);
    p_.rowWordsInto(x, row);
    bitKernels().orInto(live.mutableWords(), row.data(), live.wordCountUsed());
  }
  return live;
}

void PkStore::eraseUnsatConcept(ConceptId x) {
  p_.clearRow(x);
  k_.clearRow(x);
  for (std::size_t other = 0; other < n_; ++other) {
    if (other == x) continue;
    p_.testAndClear(other, x);
    // A test subs?(other, x) may already have recorded the trivial
    // subsumption before x was discovered unsatisfiable; drop it — the
    // taxonomy places unsatisfiable concepts at ⊥, not under subsumers.
    k_.testAndClear(other, x);
    // Claim both directions: no pair test involving x is useful any more.
    tested_.testAndSet(other, x);
    tested_.testAndSet(x, other);
  }
}

std::size_t PkStore::recordFailure(ConceptId x, ConceptId y, std::size_t round,
                                   std::size_t backoffCapRounds) {
  totalFailures_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ledgerMu_);
  RetryEntry& e = retries_[pairKey(x, y)];
  ++e.attempts;
  const std::size_t exponent =
      std::min<std::size_t>(e.attempts - 1, 62);  // 2^62 caps the shift itself
  const std::size_t delay =
      std::min<std::size_t>(std::size_t{1} << exponent,
                            std::max<std::size_t>(backoffCapRounds, 1));
  e.retryAtRound = round + delay;
  return e.attempts;
}

bool PkStore::retryEligible(ConceptId x, ConceptId y, std::size_t round) const {
  if (!hasFailures()) return true;
  std::lock_guard<std::mutex> lock(ledgerMu_);
  const auto it = retries_.find(pairKey(x, y));
  return it == retries_.end() || round >= it->second.retryAtRound;
}

std::size_t PkStore::failureAttempts(ConceptId x, ConceptId y) const {
  if (!hasFailures()) return 0;
  std::lock_guard<std::mutex> lock(ledgerMu_);
  const auto it = retries_.find(pairKey(x, y));
  return it == retries_.end() ? 0 : it->second.attempts;
}

bool PkStore::markUnresolved(ConceptId x, ConceptId y) {
  // Claim the test so nobody retries it; the claim may already be held
  // (by this worker's failed attempt) — that is fine. The P bit decides
  // exactly-once recording: only the call that withdraws the pair logs it.
  tested_.testAndSet(x, y);
  // Provisional bit *before* the withdrawal: a concurrent query that
  // observes the P clear below must already find the bit, or it would
  // misread the withdrawal as a settled non-subsumption. If the clear is
  // then lost (the pair got a real verdict first) the stale bit stays —
  // harmless: queries degrade that pair to kUnresolved and the serving
  // layer falls back to a direct test.
  {
    std::lock_guard<std::mutex> lock(ledgerMu_);
    unresolvedBits().testAndSet(x, y);
  }
  anyUnresolved_.store(true, std::memory_order_release);
  if (!p_.testAndClear(x, y)) return false;
  std::lock_guard<std::mutex> lock(ledgerMu_);
  unresolvedPairs_.emplace_back(x, y);
  return true;
}

std::size_t PkStore::withdrawPossibleRow(ConceptId x,
                                         std::vector<ConceptId>* withdrawn) {
  if (p_.rowEmpty(x)) return 0;
  std::vector<AtomicBitMatrix::Word> row;
  p_.rowWordsInto(x, row);
  const std::size_t words = p_.usedWordsPerRow();
  // Same order as markUnresolved: claim and mark, then withdraw.
  tested_.orRow(x, row.data(), words);
  std::lock_guard<std::mutex> lock(ledgerMu_);
  unresolvedBits().orRow(x, row.data(), words);
  anyUnresolved_.store(true, std::memory_order_release);
  const std::size_t count = p_.andNotRow(x, row.data(), words);
  for (std::size_t w = 0; w < words; ++w)
    for (AtomicBitMatrix::Word v = row[w]; v != 0; v &= v - 1) {
      const auto y = static_cast<ConceptId>(w * AtomicBitMatrix::kWordBits +
                                            std::countr_zero(v));
      unresolvedPairs_.emplace_back(x, y);
      if (withdrawn != nullptr) withdrawn->push_back(y);
    }
  return count;
}

AtomicBitMatrix& PkStore::unresolvedBits() {
  if (unresolvedBits_ == nullptr)
    unresolvedBits_ = std::make_unique<AtomicBitMatrix>(
        n_, n_, /*counted=*/false, &p_.kernels());
  return *unresolvedBits_;
}

bool PkStore::pairUnresolved(ConceptId x, ConceptId y) const {
  if (!anyUnresolved_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(ledgerMu_);
  return (unresolvedBits_ != nullptr && unresolvedBits_->test(x, y)) ||
         conceptUnresolvedFlag_[x] || conceptUnresolvedFlag_[y];
}

bool PkStore::markConceptUnresolved(ConceptId c) {
  anyUnresolved_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(ledgerMu_);
  if (conceptUnresolvedFlag_[c]) return false;
  conceptUnresolvedFlag_[c] = true;
  unresolvedConcepts_.push_back(c);
  return true;
}

std::vector<std::pair<ConceptId, ConceptId>> PkStore::unresolvedPairs() const {
  std::lock_guard<std::mutex> lock(ledgerMu_);
  return unresolvedPairs_;
}

std::vector<ConceptId> PkStore::unresolvedConcepts() const {
  std::lock_guard<std::mutex> lock(ledgerMu_);
  return unresolvedConcepts_;
}

bool PkStore::conceptUnresolved(ConceptId c) const {
  std::lock_guard<std::mutex> lock(ledgerMu_);
  return conceptUnresolvedFlag_[c];
}

PkStoreImage PkStore::captureImage() const {
  PkStoreImage img;
  img.conceptCount = n_;
  img.pWords = p_.snapshotWords();
  img.kWords = k_.snapshotWords();
  img.testedWords = tested_.snapshotWords();
  img.sat.resize(n_);
  for (std::size_t c = 0; c < n_; ++c)
    img.sat[c] = sat_[c].load(std::memory_order_acquire);
  img.totalFailures = totalFailures_.load(std::memory_order_relaxed);
  img.possibleCount = p_.recountAll();  // ground truth, not the counters
  std::lock_guard<std::mutex> lock(ledgerMu_);
  img.retries.reserve(retries_.size());
  for (const auto& [key, entry] : retries_)
    img.retries.push_back({key, entry.attempts, entry.retryAtRound});
  // Deterministic snapshot bytes: the ledger map iterates in hash order.
  std::sort(img.retries.begin(), img.retries.end(),
            [](const RetryImageEntry& a, const RetryImageEntry& b) {
              return a.key < b.key;
            });
  img.unresolvedPairs = unresolvedPairs_;
  img.unresolvedConcepts = unresolvedConcepts_;
  return img;
}

void PkStore::restoreImage(const PkStoreImage& img) {
  OWLCL_ASSERT_MSG(img.conceptCount == n_,
                   "checkpoint concept count does not match this ontology");
  p_.loadWords(img.pWords);
  // Every image restore — rollback or --resume snapshot load — is audited
  // before anything runs on it: loadWords just rebuilt the counters from
  // the words, so a mismatch here means the maintenance machinery itself
  // (or the image) is corrupt, and continuing would classify over garbage.
  auditCounters("restoreImage");
  if (p_.recountAll() != img.possibleCount) {
    std::fprintf(stderr,
                 "FATAL: PkStore counter audit failed (restoreImage): "
                 "restored |R_O| %zu != image ground-truth possibleCount "
                 "%llu\n",
                 p_.recountAll(),
                 static_cast<unsigned long long>(img.possibleCount));
    std::abort();
  }
  k_.loadWords(img.kWords);
  tested_.loadWords(img.testedWords);
  OWLCL_ASSERT_MSG(img.sat.size() == n_, "checkpoint sat vector size mismatch");
  for (std::size_t c = 0; c < n_; ++c)
    sat_[c].store(img.sat[c], std::memory_order_relaxed);
  totalFailures_.store(img.totalFailures, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ledgerMu_);
  retries_.clear();
  for (const RetryImageEntry& e : img.retries)
    retries_[e.key] = RetryEntry{e.attempts, e.retryAtRound};
  unresolvedPairs_ = img.unresolvedPairs;
  unresolvedBits_.reset();
  for (const auto& [ux, uy] : unresolvedPairs_)
    unresolvedBits().testAndSet(ux, uy);
  unresolvedConcepts_ = img.unresolvedConcepts;
  anyUnresolved_.store(!unresolvedPairs_.empty() || !unresolvedConcepts_.empty(),
                       std::memory_order_release);
  conceptUnresolvedFlag_.assign(n_, false);
  for (ConceptId c : unresolvedConcepts_)
    if (c < n_) conceptUnresolvedFlag_[c] = true;
  for (std::size_t c = 0; c < n_; ++c)
    satClaim_[c].store(conceptUnresolvedFlag_[c] ? 1 : 0,
                       std::memory_order_relaxed);
}

void PkStore::auditCounters(const char* context) const {
  AtomicBitMatrix::CounterMismatch m;
  if (!p_.firstCounterMismatch(&m)) {
    // Cross-check the possible-set total against the image ground truth
    // only when the counters themselves verify — the mismatch above is the
    // actionable diagnostic. Nothing more to do here.
    return;
  }
  if (m.row < n_)
    std::fprintf(stderr,
                 "FATAL: PkStore counter audit failed (%s): P row %zu "
                 "maintained count %zu != recount %zu\n",
                 context, m.row, m.maintained, m.recount);
  else
    std::fprintf(stderr,
                 "FATAL: PkStore counter audit failed (%s): sharded global "
                 "total %zu != per-row recount sum %zu (all %zu rows agree "
                 "individually)\n",
                 context, m.maintained, m.recount, n_);
  std::abort();
}

}  // namespace owlcl
