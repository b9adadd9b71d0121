// Incremental reclassification (DESIGN.md §14).
//
// DeltaReclassifier — transactional axiom add/retract on top of a
// *completed* parallel classification: the delta is journaled through a
// DeltaTxnSink before anything mutates, the affected-concept cone is
// computed by union-find over told-axiom signatures, the quiescent
// PkStore image is reopened for the cone only, and the three-phase
// pipeline reruns on the cone. Commit swaps in the new generation
// atomically; any failure (rerun incomplete, cancellation, injected
// fault, sink I/O error) rolls back to the pre-delta generation, which
// was never touched — rollback is byte-trivial by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/plugin.hpp"
#include "owl/tbox.hpp"
#include "taxonomy/snapshot.hpp"
#include "taxonomy/taxonomy.hpp"

namespace owlcl {

// --- transactional delta reclassification (DESIGN.md §14) --------------------

// The ontology's canonical *statement list*: one functional-syntax
// statement per line — Declaration(Class(...)) for every concept in id
// order, Declaration(ObjectProperty(...)) for every role in id order,
// then one canonical told-axiom rendering per asserted axiom in told
// order. Reparsing the list reproduces the exact same concept/role ids
// (declarations pin them), which is what makes deltas replayable: adds
// append at the end (new names get ids past the old count), retracts
// remove an axiom statement without ever shifting a declaration.

/// Canonical statement list of a TBox (need not be frozen).
std::vector<std::string> statementsFromTBox(const TBox& tbox);

/// Renders a statement list as a parseable functional-syntax document.
std::string renderStatements(const std::vector<std::string>& stmts);

/// Parses a statement list into `out` (which must be fresh). Does not
/// freeze. False with *error on a parse failure.
bool buildTBoxFromStatements(const std::vector<std::string>& stmts, TBox& out,
                             std::string* error);

/// Canonicalises one user-supplied statement: parses it standalone and
/// re-renders it in the canonical form used by the statement list, so two
/// spellings of the same axiom always compare equal. Accepts exactly one
/// axiom OR one declaration per statement; anything else (parse error,
/// multiple axioms) fails with *error.
bool canonicalizeStatement(const std::string& stmt, std::string* canonical,
                           std::string* error);

/// One staged delta operation. `stmt` is canonical (canonicalizeStatement).
struct StagedOp {
  bool isAdd = true;
  std::string stmt;
};

/// Applies staged ops to a statement list in order: adds append at the
/// end; retracts remove the first exactly-matching axiom statement. False
/// with *error if a retract finds no match or targets a declaration.
bool applyStagedOps(std::vector<std::string>& stmts,
                    const std::vector<StagedOp>& ops, std::string* error);

/// Affected-concept cone of a delta, from union-find over told-axiom
/// signatures. Precondition: every concept/role name of `oldTbox` maps to
/// the SAME id in `newTbox` (the statement-list discipline guarantees it;
/// DeltaReclassifier verifies before calling).
struct ConeResult {
  /// Concepts whose verdicts may change (new-id space, sorted): members of
  /// every signature component touched by a changed axiom, plus all
  /// concepts new in `newTbox`. When `fullCone` is set, every concept.
  std::vector<ConceptId> cone;
  /// A changed axiom (or an axiom sharing a component with one) is not
  /// grounded (⊥-local), so its effects cannot be confined to its
  /// component — the whole ontology is the cone.
  bool fullCone = false;
  /// Told axioms in the symmetric difference (by canonical text).
  std::size_t changedAxioms = 0;
};
ConeResult computeAffectedCone(const TBox& oldTbox, const TBox& newTbox);

/// Builds the synthetic checkpoint a delta rerun resumes from: cone rows
/// and cone columns of the completed pre-delta image are reopened
/// (P set, K/tested cleared, sat reset for cone concepts); everything
/// else is carried over verbatim. Invariant: no reopened P bit involves a
/// non-cone concept whose carried-over status is unsatisfiable — such
/// rows/columns stay fully closed (ensureSat() returns the cached kUnsat
/// without re-erasing, so an open bit there would never drain).
/// `pre` must come from a COMPLETE run (no unresolved pairs/concepts).
/// Progress is set past all random cycles so resume enters group division
/// directly; retry ledger and unresolved sets start empty.
ClassifierCheckpoint reopenConeImage(const ClassifierCheckpoint& pre,
                                     std::size_t newConceptCount,
                                     const std::vector<ConceptId>& cone,
                                     std::uint64_t completedCycles);

/// Durability boundary of a delta transaction (implemented by
/// robust/delta_journal.hpp; core stays file-format-free). Every
/// mutation-side call journals BEFORE the reclassifier acts on it.
class DeltaTxnSink {
 public:
  virtual ~DeltaTxnSink() = default;

  /// Transaction opened. Journal a begin record (durable before return).
  virtual bool opBegin(std::uint32_t txid, std::string* error) = 0;
  /// One staged add/retract (canonical text). Journal before staging.
  virtual bool opStage(std::uint32_t txid, bool isAdd, const std::string& stmt,
                       std::string* error) = 0;
  /// The cone rerun for `newTbox` is about to start: return the checkpoint
  /// hook that will journal/snapshot it (a fresh rerun area keyed by the
  /// post-delta ontology hash), or null with *error. The hook stays owned
  /// by the sink and must stay valid until opCommit/opAbort.
  virtual CheckpointHook* beginRerun(const TBox& newTbox, std::uint64_t seed,
                                     std::string* error) = 0;
  /// Rerun complete: make the transaction durable (commit record), then
  /// re-anchor the main checkpoint area at the post-delta state `post`.
  virtual bool opCommit(std::uint32_t txid, const TBox& newTbox,
                        const ClassifierCheckpoint& post,
                        std::string* error) = 0;
  /// Transaction rolled back (explicit abort, failed rerun, or failed
  /// commit). Journal an abort record; pre-delta anchors stay untouched.
  virtual bool opAbort(std::uint32_t txid, std::string* error) = 0;
};

/// Builds the reasoner plug-in chain for a (re)classified TBox. The
/// returned pointer owns whatever decorator stack the caller wants
/// (backend → fault injector → guard); it must answer w.r.t. `tbox` and
/// stay thread-safe.
using PluginFactory =
    std::function<std::shared_ptr<ReasonerPlugin>(const TBox&)>;

/// One committed classification generation. All parts are shared so query
/// paths can pin a generation across a concurrent commit.
struct DeltaGeneration {
  std::shared_ptr<const TBox> tbox;
  std::shared_ptr<ReasonerPlugin> plugin;
  std::shared_ptr<ParallelClassifier> classifier;
  std::shared_ptr<const ClassificationResult> result;
  /// Read-optimized query index compiled from this generation's finished
  /// taxonomy (DESIGN.md §16); null while the generation's result is
  /// degraded or pending.
  std::shared_ptr<const TaxonomySnapshot> snapshot;
  std::uint64_t deltaEpoch = 0;  // committed delta transactions so far
};

/// Commit report (deterministic; serve answers are built from this).
struct DeltaCommitInfo {
  std::uint32_t txid = 0;
  std::size_t coneSize = 0;
  bool fullCone = false;
  std::size_t conceptCount = 0;
  std::uint64_t deltaEpoch = 0;
  std::uint64_t satTests = 0;
  std::uint64_t subsumptionTests = 0;
};

/// Transactional add/retract on top of a completed classification. All
/// transaction calls are serialized internally; requestStopActive() is the
/// only member safe to call concurrently with a running commit.
class DeltaReclassifier {
 public:
  /// `exec` drives cone reruns and must outlive the reclassifier. The
  /// factory builds the plug-in chain for each committed generation.
  DeltaReclassifier(Executor& exec, PluginFactory factory,
                    ClassifierConfig config);

  /// Adopts the already-classified generation 0. `result` may be null if
  /// classification is still running — publishInitialResult() then
  /// delivers it; commits fail until it does. Non-owning adoption is
  /// expressed by shared_ptrs with no-op deleters.
  void adoptInitial(std::shared_ptr<const TBox> tbox,
                    std::shared_ptr<ReasonerPlugin> plugin,
                    std::shared_ptr<ParallelClassifier> classifier,
                    std::shared_ptr<const ClassificationResult> result);
  void publishInitialResult(
      std::shared_ptr<const ClassificationResult> r,
      std::shared_ptr<const TaxonomySnapshot> snapshot = nullptr);

  /// Optional durability sink (null = in-memory transactions).
  void setSink(DeltaTxnSink* sink) { sink_ = sink; }
  /// First transaction id to assign (recovery passes max-seen + 1).
  void setNextTxnId(std::uint32_t id) { nextTxnId_ = id; }

  // --- transaction API -------------------------------------------------------
  bool beginTxn(std::string* error);
  bool stageAdd(const std::string& stmt, std::string* error);
  bool stageRetract(const std::string& stmt, std::string* error);
  bool txnOpen() const;
  std::uint32_t txnId() const;
  std::size_t stagedOps() const;
  bool abortTxn(std::string* error);
  /// Reruns the cone and swaps in the new generation; on ANY failure the
  /// transaction is rolled back (abort journaled, pre-delta generation
  /// untouched) and false is returned with *error.
  bool commitTxn(DeltaCommitInfo* info, std::string* error);

  /// Pauses a commit rerun in flight (it will fail !complete() and roll
  /// back). Safe from any thread; no-op when no rerun is active.
  void requestStopActive();

  /// Current committed generation (brief lock; never blocks on a commit's
  /// rerun — the swap itself is O(1)).
  DeltaGeneration generation() const;
  std::uint64_t deltaEpoch() const;
  /// Canonical statement list of the current generation (testing/debug).
  std::vector<std::string> statements() const;

 private:
  bool rollbackLocked(std::uint32_t txid, const std::string& why,
                      std::string* error);

  Executor& exec_;
  PluginFactory factory_;
  ClassifierConfig config_;
  DeltaTxnSink* sink_ = nullptr;

  mutable std::mutex txnMu_;   // serializes the transaction API
  mutable std::mutex genMu_;   // guards gen_/statements_ (brief holds only)
  DeltaGeneration gen_;
  std::vector<std::string> statements_;
  std::atomic<bool> txnOpen_{false};  // lock-free txnOpen() for status paths
  std::uint32_t curTxnId_ = 0;
  std::uint32_t nextTxnId_ = 1;
  std::vector<StagedOp> ops_;
  std::atomic<ParallelClassifier*> active_{nullptr};
};

}  // namespace owlcl
