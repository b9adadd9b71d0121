// TableauReasoner — the drop-in replacement for the paper's HermiT
// plug-in. Implements ReasonerPlugin on top of the Tableau engine with
// one engine workspace per calling thread (each workspace keeps its own
// sat/unsat caches, so classification workers never contend on reasoner
// state; the shared ReasonerKb is immutable).
//
// Two optional cross-worker layers sit on top of the private workspaces
// (DESIGN.md §11):
//   - a shared lock-free sat-verdict cache attached to every workspace,
//     so a label evaluated by one worker short-circuits all others;
//   - a shared pseudo-model store driving the model-merging fast path,
//     which refutes most negative subsumption tests without any tableau
//     run at all — a row at a time through the RowRefuter hooks when the
//     classifier sweeps (MergeColumns), else one pair per subs?() call.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/plugin.hpp"
#include "parallel/concurrent_cache.hpp"
#include "reasoner/pseudo_model.hpp"
#include "reasoner/tableau.hpp"

namespace owlcl {

struct TableauReasonerConfig {
  /// Share one lock-free verdict cache across all worker workspaces,
  /// sized from the ontology (64 slots per named concept, clamped to
  /// [4096, 2^20]).
  bool sharedCache = false;
  /// Pseudo-model merging fast path for subsumption tests.
  bool mergeModels = false;
};

class TableauReasoner : public ReasonerPlugin, private RowRefuter {
 public:
  /// Preprocesses (and freezes) `tbox`. The TBox must outlive the reasoner.
  explicit TableauReasoner(TBox& tbox, TableauReasonerConfig config = {});

  bool isSatisfiable(ConceptId c, std::uint64_t* costNs = nullptr) override;
  bool isSubsumedBy(ConceptId sub, ConceptId sup,
                    std::uint64_t* costNs = nullptr) override;
  std::uint64_t testCount() const override {
    return tests_.load(std::memory_order_relaxed);
  }
  ReasonerStats reasonerStats() const override;
  std::vector<ReasonerStats> perWorkerReasonerStats() const override;
  /// The merge sweep's hooks; present exactly when mergeModels is on.
  RowRefuter* rowRefuter() override { return models_ ? this : nullptr; }

  const ReasonerKb& kb() const { return kb_; }
  const TableauReasonerConfig& config() const { return config_; }

  /// Aggregated engine statistics across all thread workspaces.
  TableauStats aggregatedStats() const;

  /// Shared-cache statistics (zero-initialised when the cache is off).
  ConcurrentSatCache::Stats sharedCacheStats() const {
    return sharedCache_ ? sharedCache_->stats() : ConcurrentSatCache::Stats{};
  }
  /// The shared pseudo-model store; null when mergeModels is off.
  const SharedModelStore* modelStore() const { return models_.get(); }
  /// Subsumption tests refuted by pseudo-model merging alone, per pair or
  /// by the row sweep.
  std::uint64_t mergeRefutedCount() const {
    return mergeRefuted_.load(std::memory_order_relaxed);
  }

 private:
  Tableau& workspace();
  /// Ready pseudo-model for {c} (negated=false) or {¬c} (negated=true),
  /// building it with `t` if this thread wins the claim; nullptr when the
  /// slot is absent or being built elsewhere.
  const PseudoModel* modelFor(ConceptId c, bool negated, Tableau& t);

  // RowRefuter: prepare() builds the {c} and {¬c} models; refuteRow()
  // applies model(¬x) to the columns over every positive model.
  void prepare(ConceptId c) noexcept override;
  std::size_t refuteRow(ConceptId x, const std::uint64_t* candidates,
                        std::uint64_t* refuted, std::size_t nWords,
                        const BitKernels& kernels) override;
  /// The columns over the current positive models, rebuilt on first use
  /// after a prepare() (i.e. once per sweep, behind its barrier).
  std::shared_ptr<const MergeColumns> columns();

  ReasonerKb kb_;
  TableauReasonerConfig config_;
  std::unique_ptr<ConcurrentSatCache> sharedCache_;
  std::unique_ptr<SharedModelStore> models_;
  std::atomic<std::uint64_t> tests_{0};
  std::atomic<std::uint64_t> mergeRefuted_{0};
  std::mutex columnsMu_;
  std::shared_ptr<const MergeColumns> columns_;
  std::atomic<bool> columnsStale_{true};
  /// Process-unique key of this reasoner's thread-local workspace slot;
  /// never reused, unlike `this`.
  const std::uint64_t id_;
  /// Guards first-touch registration and the stats walks only.
  mutable std::mutex wsMu_;
  std::unordered_map<std::thread::id, std::unique_ptr<Tableau>> workspaces_;
};

}  // namespace owlcl
