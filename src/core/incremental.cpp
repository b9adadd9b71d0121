#include "core/incremental.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "owl/parser.hpp"
#include "owl/printer.hpp"
#include "util/assert.hpp"

namespace owlcl {

// --- canonical statement lists ----------------------------------------------

std::vector<std::string> statementsFromTBox(const TBox& tbox) {
  std::vector<std::string> stmts;
  stmts.reserve(tbox.conceptCount() + tbox.roles().size() +
                tbox.toldAxioms().size());
  for (ConceptId c = 0; c < tbox.conceptCount(); ++c)
    stmts.push_back("Declaration(Class(" + fsEntityName(tbox.conceptName(c)) +
                    "))");
  for (RoleId r = 0; r < tbox.roles().size(); ++r)
    stmts.push_back("Declaration(ObjectProperty(" +
                    fsEntityName(tbox.roles().name(r)) + "))");
  for (const ToldAxiom& ax : tbox.toldAxioms())
    stmts.push_back(toFunctionalSyntax(tbox, ax));
  return stmts;
}

std::string renderStatements(const std::vector<std::string>& stmts) {
  std::string doc = "Ontology(<http://owlcl/generated>\n";
  for (const std::string& s : stmts) {
    doc += "  ";
    doc += s;
    doc += '\n';
  }
  doc += ")\n";
  return doc;
}

bool buildTBoxFromStatements(const std::vector<std::string>& stmts, TBox& out,
                             std::string* error) {
  try {
    parseFunctionalSyntax(renderStatements(stmts), out);
  } catch (const ParseError& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

bool canonicalizeStatement(const std::string& stmt, std::string* canonical,
                           std::string* error) {
  TBox scratch;
  if (!buildTBoxFromStatements({stmt}, scratch, error)) return false;
  const auto& told = scratch.toldAxioms();
  if (told.size() == 1) {
    *canonical = toFunctionalSyntax(scratch, told[0]);
    return true;
  }
  if (told.empty()) {
    // A pure declaration: the statement referenced exactly one new name.
    if (scratch.conceptCount() == 1 && scratch.roles().size() == 0) {
      *canonical =
          "Declaration(Class(" + fsEntityName(scratch.conceptName(0)) + "))";
      return true;
    }
    if (scratch.conceptCount() == 0 && scratch.roles().size() == 1) {
      *canonical = "Declaration(ObjectProperty(" +
                   fsEntityName(scratch.roles().name(0)) + "))";
      return true;
    }
    if (error != nullptr)
      *error = "statement carries no axiom and no single declaration";
    return false;
  }
  if (error != nullptr)
    *error = "statement expands to more than one axiom; stage them separately";
  return false;
}

namespace {

bool isDeclaration(const std::string& stmt) {
  return stmt.rfind("Declaration(", 0) == 0;
}

}  // namespace

bool applyStagedOps(std::vector<std::string>& stmts,
                    const std::vector<StagedOp>& ops, std::string* error) {
  for (const StagedOp& op : ops) {
    if (op.isAdd) {
      stmts.push_back(op.stmt);
      continue;
    }
    if (isDeclaration(op.stmt)) {
      // Declarations pin concept/role ids for the lifetime of the
      // ontology; retracting one would shift every later id and
      // invalidate all journaled verdicts.
      if (error != nullptr)
        *error = "cannot retract a declaration: " + op.stmt;
      return false;
    }
    const auto it = std::find(stmts.begin(), stmts.end(), op.stmt);
    if (it == stmts.end()) {
      if (error != nullptr)
        *error = "retract does not match any asserted axiom: " + op.stmt;
      return false;
    }
    stmts.erase(it);
  }
  return true;
}

// --- affected-concept cone ---------------------------------------------------

namespace {

/// Union-find over symbol ids (concepts, then roles offset past them).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

void collectSignature(const ExprFactory& ex, ExprId e, std::size_t roleOffset,
                      std::vector<std::size_t>* sig) {
  const ExprNode& n = ex.node(e);
  if (n.kind == ExprKind::kAtom) {
    sig->push_back(n.atom);
    return;
  }
  if (n.role != kInvalidRole) sig->push_back(roleOffset + n.role);
  for (const ExprId ch : ex.children(e))
    collectSignature(ex, ch, roleOffset, sig);
}

/// ⊥-locality of a subclass-axiom LHS: interpreting every symbol of the
/// expression as ⊥ makes the expression ⊥ (the axiom trivially true), so
/// the axiom's effects stay within its signature component. Conservative:
/// anything not recognisably local counts as ungrounded.
bool groundedExpr(const ExprFactory& ex, ExprId e) {
  const ExprNode& n = ex.node(e);
  switch (n.kind) {
    case ExprKind::kBottom:
    case ExprKind::kAtom:
      return true;
    case ExprKind::kExists:
      return groundedExpr(ex, ex.children(e)[0]);
    case ExprKind::kAtLeast:
      return n.number >= 1 && groundedExpr(ex, ex.children(e)[0]);
    case ExprKind::kAnd: {
      for (const ExprId ch : ex.children(e))
        if (groundedExpr(ex, ch)) return true;
      return false;
    }
    case ExprKind::kOr: {
      for (const ExprId ch : ex.children(e))
        if (!groundedExpr(ex, ch)) return false;
      return true;
    }
    case ExprKind::kTop:
    case ExprKind::kNot:
    case ExprKind::kForall:
    case ExprKind::kAtMost:
      return false;
  }
  return false;
}

struct AxiomInfo {
  std::vector<std::size_t> sig;
  bool grounded = true;
  std::string text;
};

AxiomInfo axiomInfo(const TBox& tbox, const ToldAxiom& ax,
                    std::size_t roleOffset) {
  AxiomInfo info;
  info.text = toFunctionalSyntax(tbox, ax);
  const ExprFactory& ex = tbox.exprs();
  for (const ExprId e : ax.classArgs)
    collectSignature(ex, e, roleOffset, &info.sig);
  if (ax.role1 != kInvalidRole) info.sig.push_back(roleOffset + ax.role1);
  if (ax.role2 != kInvalidRole) info.sig.push_back(roleOffset + ax.role2);
  std::sort(info.sig.begin(), info.sig.end());
  info.sig.erase(std::unique(info.sig.begin(), info.sig.end()),
                 info.sig.end());
  switch (ax.kind) {
    case AxiomKind::kSubClassOf:
      info.grounded = groundedExpr(ex, ax.classArgs[0]);
      break;
    case AxiomKind::kEquivalentClasses:
    case AxiomKind::kDisjointClasses:
      for (const ExprId e : ax.classArgs)
        info.grounded = info.grounded && groundedExpr(ex, e);
      break;
    case AxiomKind::kSubObjectPropertyOf:
    case AxiomKind::kTransitiveObjectProperty:
    case AxiomKind::kAnnotation:
      info.grounded = true;
      break;
  }
  return info;
}

}  // namespace

ConeResult computeAffectedCone(const TBox& oldTbox, const TBox& newTbox) {
  const std::size_t nConcepts = newTbox.conceptCount();
  const std::size_t roleOffset = nConcepts;
  const std::size_t nSymbols = nConcepts + newTbox.roles().size();
  UnionFind uf(nSymbols);

  // Annotations are logically inert: they join neither the union-find nor
  // the changed set, so an annotation-only delta has an empty cone.
  std::vector<AxiomInfo> axioms;
  std::unordered_map<std::string, long long> balance;  // new minus old
  for (const ToldAxiom& ax : oldTbox.toldAxioms()) {
    if (ax.kind == AxiomKind::kAnnotation) continue;
    axioms.push_back(axiomInfo(oldTbox, ax, roleOffset));
    --balance[axioms.back().text];
  }
  for (const ToldAxiom& ax : newTbox.toldAxioms()) {
    if (ax.kind == AxiomKind::kAnnotation) continue;
    axioms.push_back(axiomInfo(newTbox, ax, roleOffset));
    ++balance[axioms.back().text];
  }
  for (const AxiomInfo& a : axioms)
    for (std::size_t i = 1; i < a.sig.size(); ++i)
      uf.unite(a.sig[0], a.sig[i]);

  ConeResult result;
  std::unordered_set<std::size_t> changedRoots;
  for (const AxiomInfo& a : axioms) {
    const auto it = balance.find(a.text);
    if (it == balance.end() || it->second == 0) continue;
    if (a.sig.empty() || !a.grounded) result.fullCone = true;
    for (const std::size_t s : a.sig) changedRoots.insert(uf.find(s));
  }
  for (const auto& [text, bal] : balance)
    if (bal != 0)
      result.changedAxioms += static_cast<std::size_t>(bal < 0 ? -bal : bal);

  if (!result.fullCone) {
    // An ungrounded axiom anywhere in a changed component defeats the
    // containment argument for that component — and transitively for the
    // whole ontology (its ⊤-level effects reach every concept).
    for (const AxiomInfo& a : axioms) {
      if (a.grounded) continue;
      for (const std::size_t s : a.sig)
        if (changedRoots.count(uf.find(s)) != 0) {
          result.fullCone = true;
          break;
        }
      if (result.fullCone) break;
    }
  }

  if (result.fullCone) {
    result.cone.resize(nConcepts);
    for (ConceptId c = 0; c < nConcepts; ++c) result.cone[c] = c;
    return result;
  }
  for (ConceptId c = 0; c < nConcepts; ++c) {
    if (c >= oldTbox.conceptCount() || changedRoots.count(uf.find(c)) != 0)
      result.cone.push_back(c);
  }
  return result;
}

// --- reopened store image ----------------------------------------------------

namespace {

inline void setBit(std::vector<std::uint64_t>& words, std::size_t stride,
                   std::size_t row, std::size_t col) {
  words[row * stride + (col >> 6)] |= std::uint64_t{1} << (col & 63);
}
inline void clearBit(std::vector<std::uint64_t>& words, std::size_t stride,
                     std::size_t row, std::size_t col) {
  words[row * stride + (col >> 6)] &= ~(std::uint64_t{1} << (col & 63));
}

}  // namespace

ClassifierCheckpoint reopenConeImage(const ClassifierCheckpoint& pre,
                                     std::size_t newConceptCount,
                                     const std::vector<ConceptId>& cone,
                                     std::uint64_t completedCycles) {
  const PkStoreImage& old = pre.store;
  const std::size_t nOld = old.conceptCount;
  const std::size_t nNew = newConceptCount;
  OWLCL_ASSERT_MSG(nNew >= nOld, "concept ids must only grow across deltas");
  OWLCL_ASSERT_MSG(old.unresolvedPairs.empty() && old.unresolvedConcepts.empty(),
                   "delta base checkpoint must be a complete run");
  const std::size_t wOld = (nOld + 63) / 64;
  const std::size_t wNew = (nNew + 63) / 64;

  std::vector<char> inCone(nNew, 0);
  for (const ConceptId c : cone) inCone[c] = 1;
  for (std::size_t c = nOld; c < nNew; ++c)
    OWLCL_ASSERT_MSG(inCone[c], "every new concept must be in the cone");

  // Non-cone concepts that are unsatisfiable stay fully closed: ensureSat
  // answers their cached kUnsat without erasing, so any reopened P bit
  // touching them would never drain and phase 2 would spin forever.
  std::vector<char> closed(nNew, 0);
  for (std::size_t c = 0; c < nOld; ++c)
    if (!inCone[c] &&
        old.sat[c] == static_cast<std::uint8_t>(SatStatus::kUnsat))
      closed[c] = 1;

  ClassifierCheckpoint out;
  PkStoreImage& img = out.store;
  img.conceptCount = nNew;
  img.pWords.assign(nNew * wNew, 0);
  img.kWords.assign(nNew * wNew, 0);
  img.testedWords.assign(nNew * wNew, 0);
  img.sat.assign(nNew, static_cast<std::uint8_t>(SatStatus::kUnknown));
  img.totalFailures = 0;

  for (std::size_t x = 0; x < nNew; ++x) {
    if (inCone[x]) {
      // Fully reopened row: everything is possible again except the
      // diagonal and the closed (non-cone unsatisfiable) concepts.
      for (std::size_t y = 0; y < nNew; ++y) {
        if (y == x || closed[y]) {
          setBit(img.testedWords, wNew, x, y);
        } else {
          setBit(img.pWords, wNew, x, y);
        }
      }
      continue;
    }
    // Carried-over row (x < nOld by construction).
    if (closed[x]) {
      // Known-unsat outside the cone: keep the whole row closed exactly as
      // the unsat erasure left it.
      for (std::size_t y = 0; y < nNew; ++y) setBit(img.testedWords, wNew, x, y);
      img.sat[x] = old.sat[x];
      continue;
    }
    std::copy(old.pWords.begin() + x * wOld,
              old.pWords.begin() + x * wOld + wOld,
              img.pWords.begin() + x * wNew);
    std::copy(old.kWords.begin() + x * wOld,
              old.kWords.begin() + x * wOld + wOld,
              img.kWords.begin() + x * wNew);
    std::copy(old.testedWords.begin() + x * wOld,
              old.testedWords.begin() + x * wOld + wOld,
              img.testedWords.begin() + x * wNew);
    img.sat[x] = old.sat[x];
    // Reopen the cone columns: any cone concept may gain or lose this
    // subsumer, so the pair must be retested (K cleared, P set).
    for (const ConceptId y : cone) {
      if (y == x) continue;
      clearBit(img.kWords, wNew, x, y);
      clearBit(img.testedWords, wNew, x, y);
      setBit(img.pWords, wNew, x, y);
    }
  }

  std::uint64_t possible = 0;
  for (const std::uint64_t w : img.pWords)
    possible += static_cast<std::uint64_t>(__builtin_popcountll(w));
  img.possibleCount = possible;

  // Resume enters group division directly (the random-division shuffles
  // are replayed to advance the RNG cursor, not re-run).
  out.progress.completedCycles = completedCycles;
  out.progress.completedRounds = 0;
  out.progress.epoch = 0;
  return out;
}

// --- DeltaReclassifier -------------------------------------------------------

DeltaReclassifier::DeltaReclassifier(Executor& exec, PluginFactory factory,
                                     ClassifierConfig config)
    : exec_(exec), factory_(std::move(factory)), config_(config) {
  // The delta layer drives its own checkpointing through the sink; a
  // caller-provided hook would journal rerun verdicts into the pre-delta
  // area and corrupt it.
  config_.checkpoint = nullptr;
}

void DeltaReclassifier::adoptInitial(
    std::shared_ptr<const TBox> tbox, std::shared_ptr<ReasonerPlugin> plugin,
    std::shared_ptr<ParallelClassifier> classifier,
    std::shared_ptr<const ClassificationResult> result) {
  std::lock_guard<std::mutex> lock(genMu_);
  gen_ = DeltaGeneration{std::move(tbox),       std::move(plugin),
                         std::move(classifier), std::move(result),
                         /*snapshot=*/nullptr,  /*deltaEpoch=*/0};
  statements_ = statementsFromTBox(*gen_.tbox);
}

void DeltaReclassifier::publishInitialResult(
    std::shared_ptr<const ClassificationResult> r,
    std::shared_ptr<const TaxonomySnapshot> snapshot) {
  std::lock_guard<std::mutex> lock(genMu_);
  if (gen_.result == nullptr) {
    gen_.result = std::move(r);
    gen_.snapshot = std::move(snapshot);
  }
}

bool DeltaReclassifier::beginTxn(std::string* error) {
  std::lock_guard<std::mutex> lock(txnMu_);
  if (txnOpen_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "a delta transaction is already open";
    return false;
  }
  const std::uint32_t txid = nextTxnId_++;
  if (sink_ != nullptr && !sink_->opBegin(txid, error)) return false;
  curTxnId_ = txid;
  ops_.clear();
  txnOpen_.store(true, std::memory_order_relaxed);
  return true;
}

bool DeltaReclassifier::stageAdd(const std::string& stmt, std::string* error) {
  std::lock_guard<std::mutex> lock(txnMu_);
  if (!txnOpen_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "no delta transaction is open";
    return false;
  }
  std::string canonical;
  // A malformed statement is an error, not a rollback: nothing reached the
  // journal, the transaction stays open for a corrected retry.
  if (!canonicalizeStatement(stmt, &canonical, error)) return false;
  if (sink_ != nullptr &&
      !sink_->opStage(curTxnId_, /*isAdd=*/true, canonical, error))
    return false;
  ops_.push_back(StagedOp{true, std::move(canonical)});
  return true;
}

bool DeltaReclassifier::stageRetract(const std::string& stmt,
                                     std::string* error) {
  std::lock_guard<std::mutex> lock(txnMu_);
  if (!txnOpen_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "no delta transaction is open";
    return false;
  }
  std::string canonical;
  if (!canonicalizeStatement(stmt, &canonical, error)) return false;
  if (sink_ != nullptr &&
      !sink_->opStage(curTxnId_, /*isAdd=*/false, canonical, error))
    return false;
  ops_.push_back(StagedOp{false, std::move(canonical)});
  return true;
}

bool DeltaReclassifier::txnOpen() const {
  return txnOpen_.load(std::memory_order_relaxed);
}

std::uint32_t DeltaReclassifier::txnId() const {
  std::lock_guard<std::mutex> lock(txnMu_);
  return curTxnId_;
}

std::size_t DeltaReclassifier::stagedOps() const {
  std::lock_guard<std::mutex> lock(txnMu_);
  return ops_.size();
}

bool DeltaReclassifier::rollbackLocked(std::uint32_t txid,
                                       const std::string& why,
                                       std::string* error) {
  // The pre-delta generation was never mutated; rollback only needs the
  // abort journaled and the transaction state cleared. Audit the surviving
  // store anyway — a rollback that leaves inconsistent counters behind
  // would corrupt every later query.
  std::string sinkErr;
  const bool sinkOk = sink_ == nullptr || sink_->opAbort(txid, &sinkErr);
  ops_.clear();
  txnOpen_.store(false, std::memory_order_relaxed);
  DeltaGeneration gen;
  {
    std::lock_guard<std::mutex> lock(genMu_);
    gen = gen_;
  }
  if (gen.classifier != nullptr && gen.classifier->started() &&
      !gen.classifier->countersConsistent()) {
    if (error != nullptr)
      *error = why + " (and the surviving pre-delta store failed its "
                     "counter audit)";
    return false;
  }
  if (error != nullptr) {
    *error = why;
    if (!sinkOk) *error += "; abort journaling also failed: " + sinkErr;
  }
  return false;
}

bool DeltaReclassifier::abortTxn(std::string* error) {
  std::lock_guard<std::mutex> lock(txnMu_);
  if (!txnOpen_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "no delta transaction is open";
    return false;
  }
  const std::uint32_t txid = curTxnId_;
  ops_.clear();
  txnOpen_.store(false, std::memory_order_relaxed);
  if (sink_ != nullptr && !sink_->opAbort(txid, error)) return false;
  return true;
}

bool DeltaReclassifier::commitTxn(DeltaCommitInfo* info, std::string* error) {
  std::lock_guard<std::mutex> lock(txnMu_);
  if (!txnOpen_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "no delta transaction is open";
    return false;
  }
  const std::uint32_t txid = curTxnId_;

  DeltaGeneration pre;
  std::vector<std::string> stmts;
  {
    std::lock_guard<std::mutex> glock(genMu_);
    pre = gen_;
    stmts = statements_;
  }
  if (pre.classifier == nullptr || !pre.classifier->finished() ||
      pre.result == nullptr) {
    if (error != nullptr)
      *error = "base classification is still running; commit once it "
               "finishes";
    return false;
  }
  if (!pre.result->complete())
    return rollbackLocked(
        txid, "base classification is incomplete (unresolved pairs); deltas "
              "need a complete baseline", error);

  std::string why;
  if (!applyStagedOps(stmts, ops_, &why))
    return rollbackLocked(txid, why, error);

  auto newTbox = std::make_shared<TBox>();
  if (!buildTBoxFromStatements(stmts, *newTbox, &why))
    return rollbackLocked(txid, "delta produced an unparseable ontology: " + why,
                          error);
  // Id stability: every pre-delta concept and role must keep its id, or
  // the carried-over P/K/tested rows would describe the wrong concepts.
  if (newTbox->conceptCount() < pre.tbox->conceptCount() ||
      newTbox->roles().size() < pre.tbox->roles().size())
    return rollbackLocked(txid, "delta dropped declarations", error);
  for (ConceptId c = 0; c < pre.tbox->conceptCount(); ++c)
    if (newTbox->findConcept(pre.tbox->conceptName(c)) != c)
      return rollbackLocked(txid, "delta shifted concept ids", error);
  for (RoleId r = 0; r < pre.tbox->roles().size(); ++r)
    if (newTbox->roles().find(pre.tbox->roles().name(r)) != r)
      return rollbackLocked(txid, "delta shifted role ids", error);
  newTbox->freeze();

  const ConeResult cone = computeAffectedCone(*pre.tbox, *newTbox);
  const ClassifierCheckpoint reopened =
      reopenConeImage(pre.classifier->captureCheckpoint(),
                      newTbox->conceptCount(), cone.cone, config_.randomCycles);

  std::shared_ptr<ReasonerPlugin> plugin;
  try {
    plugin = factory_(*newTbox);
  } catch (const std::exception& e) {
    return rollbackLocked(txid,
                          std::string("plug-in construction failed: ") +
                              e.what(), error);
  }
  if (plugin == nullptr)
    return rollbackLocked(txid, "plug-in factory returned null", error);

  ClassifierConfig cfg = config_;
  // The cone rows were never routed; re-routing them on resume is the EL
  // fast path for the rerun (idempotent on the carried-over rows).
  cfg.routeElOnResume = true;
  if (sink_ != nullptr) {
    cfg.checkpoint = sink_->beginRerun(*newTbox, cfg.seed, &why);
    if (cfg.checkpoint == nullptr)
      return rollbackLocked(txid, "cannot open rerun checkpoint area: " + why,
                            error);
  }

  auto classifier =
      std::make_shared<ParallelClassifier>(*newTbox, *plugin, cfg);
  active_.store(classifier.get(), std::memory_order_release);
  ClassificationResult rerun = classifier->resumeClassify(exec_, reopened);
  active_.store(nullptr, std::memory_order_release);

  if (!rerun.complete()) {
    std::string reason = "cone rerun did not complete";
    if (rerun.cancelled) reason += " (cancelled)";
    if (rerun.paused) reason += " (stopped)";
    if (!rerun.unresolvedPairs.empty() || !rerun.unresolvedConcepts.empty())
      reason += " (" + std::to_string(rerun.unresolvedPairs.size()) +
                " unresolved pairs, " +
                std::to_string(rerun.unresolvedConcepts.size()) +
                " unresolved concepts)";
    return rollbackLocked(txid, reason, error);
  }

  const ClassifierCheckpoint post = classifier->captureCheckpoint();
  if (sink_ != nullptr && !sink_->opCommit(txid, *newTbox, post, &why))
    return rollbackLocked(txid, "commit journaling failed: " + why, error);

  auto result = std::make_shared<ClassificationResult>(std::move(rerun));
  // Compile the new generation's query snapshot HERE, on the committing
  // worker, before the generation swap — query threads only ever see a
  // finished snapshot appear with the new view (DESIGN.md §16). The rerun
  // completed, so the taxonomy is whole.
  std::shared_ptr<const TaxonomySnapshot> snapshot =
      TaxonomySnapshot::build(result->taxonomy, *newTbox, result->complete(),
                              pre.deltaEpoch + 1);
  DeltaCommitInfo out;
  out.txid = txid;
  out.coneSize = cone.cone.size();
  out.fullCone = cone.fullCone;
  out.conceptCount = newTbox->conceptCount();
  out.satTests = result->satTests;
  out.subsumptionTests = result->subsumptionTests;
  {
    std::lock_guard<std::mutex> glock(genMu_);
    gen_ = DeltaGeneration{newTbox, plugin, classifier, result,
                           std::move(snapshot), pre.deltaEpoch + 1};
    // Regenerate rather than keep `stmts`: the canonical list declares the
    // new names in id order, so recovery's per-transaction regeneration
    // lands on the identical list.
    statements_ = statementsFromTBox(*newTbox);
    out.deltaEpoch = gen_.deltaEpoch;
  }
  ops_.clear();
  txnOpen_.store(false, std::memory_order_relaxed);
  if (info != nullptr) *info = out;
  return true;
}

void DeltaReclassifier::requestStopActive() {
  ParallelClassifier* c = active_.load(std::memory_order_acquire);
  if (c != nullptr) c->requestStop();
}

DeltaGeneration DeltaReclassifier::generation() const {
  std::lock_guard<std::mutex> lock(genMu_);
  return gen_;
}

std::uint64_t DeltaReclassifier::deltaEpoch() const {
  std::lock_guard<std::mutex> lock(genMu_);
  return gen_.deltaEpoch;
}

std::vector<std::string> DeltaReclassifier::statements() const {
  std::lock_guard<std::mutex> lock(genMu_);
  return statements_;
}

}  // namespace owlcl
