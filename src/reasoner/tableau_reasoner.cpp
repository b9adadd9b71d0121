#include "reasoner/tableau_reasoner.hpp"

#include <algorithm>

#include "util/stopwatch.hpp"

namespace owlcl {

namespace {
std::atomic<std::uint64_t> nextReasonerId{1};
}  // namespace

TableauReasoner::TableauReasoner(TBox& tbox, TableauReasonerConfig config)
    : kb_(buildKb(tbox)),
      config_(config),
      id_(nextReasonerId.fetch_add(1, std::memory_order_relaxed)) {
  if (config_.sharedCache)
    sharedCache_ = std::make_unique<ConcurrentSatCache>(
        std::min<std::size_t>(
            std::max<std::size_t>(kb_.atomExpr.size() * 64, 4096), 1ULL << 20));
  if (config_.mergeModels)
    models_ = std::make_unique<SharedModelStore>(kb_.atomExpr.size());
}

Tableau& TableauReasoner::workspace() {
  // One-entry thread-local cache keyed by reasoner id: a worker serving
  // one reasoner takes no lock per call. A miss (first touch, or the
  // thread last served another reasoner) goes through the registry.
  struct Slot {
    std::uint64_t owner = 0;
    Tableau* ws = nullptr;
  };
  thread_local Slot slot;
  if (slot.owner == id_) return *slot.ws;
  std::lock_guard<std::mutex> lock(wsMu_);
  std::unique_ptr<Tableau>& ws = workspaces_[std::this_thread::get_id()];
  if (!ws) {
    ws = std::make_unique<Tableau>(kb_);
    if (sharedCache_) ws->attachSharedCache(sharedCache_.get());
  }
  slot = {id_, ws.get()};
  return *ws;
}

const PseudoModel* TableauReasoner::modelFor(ConceptId c, bool negated,
                                             Tableau& t) {
  if (const PseudoModel* m = models_->find(c, negated)) return m;
  if (!models_->claim(c, negated)) return nullptr;  // built elsewhere/absent
  PseudoModel pm;
  bool sat = false;
  try {
    sat = t.isSatisfiable({negated ? kb_.negAtomExpr[c] : kb_.atomExpr[c]},
                          &pm);
  } catch (...) {
    models_->abandon(c, negated);  // never leave a slot stuck in building
    throw;
  }
  if (sat && pm.valid) {
    models_->publish(c, negated, std::move(pm));
    return models_->find(c, negated);
  }
  models_->abandon(c, negated);
  return nullptr;
}

void TableauReasoner::prepare(ConceptId c) noexcept {
  try {
    Tableau& t = workspace();
    modelFor(c, false, t);
    modelFor(c, true, t);
  } catch (...) {
    // modelFor abandoned the slot it was building: c stays out of the
    // columns, or its row unswept, and its pairs take the per-pair path.
  }
  columnsStale_.store(true, std::memory_order_relaxed);
}

std::shared_ptr<const MergeColumns> TableauReasoner::columns() {
  std::lock_guard<std::mutex> lock(columnsMu_);
  if (columnsStale_.exchange(false, std::memory_order_relaxed))
    columns_ = std::make_shared<const MergeColumns>(*models_,
                                                    kb_.atomExpr.size());
  return columns_;
}

std::size_t TableauReasoner::refuteRow(ConceptId x,
                                       const std::uint64_t* candidates,
                                       std::uint64_t* refuted,
                                       std::size_t nWords,
                                       const BitKernels& kernels) {
  const PseudoModel* negX = models_->find(x, true);
  if (negX == nullptr) {
    std::fill(refuted, refuted + nWords, 0);
    return 0;
  }
  const std::size_t n =
      columns()->refute(*negX, candidates, refuted, nWords, kernels);
  // x itself never merges: x ∈ pos(model(x)) and x ∈ neg(model(¬x)).
  OWLCL_DEBUG_ASSERT(x / 64 >= nWords ||
                     ((refuted[x / 64] >> (x % 64)) & 1) == 0);
  mergeRefuted_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

bool TableauReasoner::isSatisfiable(ConceptId c, std::uint64_t* costNs) {
  tests_.fetch_add(1, std::memory_order_relaxed);
  Tableau& t = workspace();
  Stopwatch sw;
  bool result;
  // With model merging on, the first sat test of a concept doubles as the
  // pseudo-model build for {c} (the classifier ensures sat before any
  // subsumption test touches a concept, so models are usually warm).
  if (models_ && models_->find(c, false) == nullptr &&
      models_->claim(c, false)) {
    PseudoModel pm;
    try {
      result = t.isSatisfiable({kb_.atomExpr[c]}, &pm);
    } catch (...) {
      models_->abandon(c, false);
      throw;
    }
    if (result && pm.valid)
      models_->publish(c, false, std::move(pm));
    else
      models_->abandon(c, false);
  } else {
    result = t.isSatisfiable({kb_.atomExpr[c]});
  }
  if (costNs != nullptr) *costNs = static_cast<std::uint64_t>(sw.elapsedNs());
  return result;
}

bool TableauReasoner::isSubsumedBy(ConceptId sub, ConceptId sup,
                                   std::uint64_t* costNs) {
  tests_.fetch_add(1, std::memory_order_relaxed);
  Tableau& t = workspace();
  Stopwatch sw;
  if (models_) {
    // Model-merging fast path: if the models of {sub} and {¬sup} merge,
    // their union is a model of {sub, ¬sup} — sound non-subsumption with
    // no tableau run. A missing model or failed merge just falls through.
    // The classifier's sweep settles these pairs a row at a time; this
    // branch serves callers that do not get the RowRefuter hooks.
    const PseudoModel* msub = modelFor(sub, false, t);
    const PseudoModel* mneg = msub != nullptr ? modelFor(sup, true, t) : nullptr;
    if (msub != nullptr && mneg != nullptr &&
        pseudoModelsMergable(*msub, *mneg)) {
      mergeRefuted_.fetch_add(1, std::memory_order_relaxed);
      if (costNs != nullptr)
        *costNs = static_cast<std::uint64_t>(sw.elapsedNs());
      return false;
    }
  }
  // sub ⊑ sup  ⟺  sub ⊓ ¬sup unsatisfiable.
  const bool result =
      !t.isSatisfiable({kb_.atomExpr[sub], kb_.negAtomExpr[sup]});
  if (costNs != nullptr) *costNs = static_cast<std::uint64_t>(sw.elapsedNs());
  return result;
}

TableauStats TableauReasoner::aggregatedStats() const {
  TableauStats agg;
  std::lock_guard<std::mutex> lock(wsMu_);
  for (const auto& [id, ws] : workspaces_) {
    const TableauStats& s = ws->stats();
    agg.satCalls += s.satCalls;
    agg.cacheHits += s.cacheHits;
    agg.blockedHits += s.blockedHits;
    agg.expansions += s.expansions;
    agg.branches += s.branches;
    agg.clashes += s.clashes;
    agg.crossCacheHits += s.crossCacheHits;
  }
  return agg;
}

ReasonerStats TableauReasoner::reasonerStats() const {
  const TableauStats agg = aggregatedStats();
  ReasonerStats rs;
  rs.satCalls = agg.satCalls;
  rs.cacheHits = agg.cacheHits;
  rs.clashes = agg.clashes;
  rs.crossCacheHits = agg.crossCacheHits;
  rs.mergeRefuted = mergeRefuted_.load(std::memory_order_relaxed);
  const ConcurrentSatCache::Stats cs = sharedCacheStats();
  rs.cacheInserts = cs.inserts;
  rs.cacheRejectedFull = cs.rejectedFull;
  rs.cacheRejectedLong = cs.rejectedLong;
  return rs;
}

std::vector<ReasonerStats> TableauReasoner::perWorkerReasonerStats() const {
  std::vector<ReasonerStats> out;
  std::lock_guard<std::mutex> lock(wsMu_);
  out.reserve(workspaces_.size());
  for (const auto& [id, ws] : workspaces_) {
    const TableauStats& s = ws->stats();
    ReasonerStats rs;
    rs.satCalls = s.satCalls;
    rs.cacheHits = s.cacheHits;
    rs.clashes = s.clashes;
    rs.crossCacheHits = s.crossCacheHits;
    out.push_back(rs);  // mergeRefuted is reasoner-global, not per-worker
  }
  return out;
}

}  // namespace owlcl
