// QueryEngine — answers protocol requests against a (possibly still
// running) classification, with per-query deadlines and budget
// propagation (DESIGN.md §12).
//
// Degradation ladder for a subs/sat query (each rung bounded by the
// query's remaining budget):
//
//   1. settled   — the pair/concept is already decided in the shared
//                  PkStore (K + reachability / sat status): answer at
//                  memory speed.
//   2. epoch wait — block on the classifier's epoch barrier up to HALF
//                  the remaining budget; most in-flight pairs settle
//                  within a round or two.
//   3. direct    — spend the rest of the budget on a dedicated
//                  GuardedPlugin tableau call (also the only rung for
//                  pairs the run gave up on as unresolved).
//   4. deadline  — explicit {"ok":false,"error":"deadline"}; the client
//                  is never left hanging.
//
// descendants needs the finished taxonomy: it waits for completion up to
// the budget, then answers "pending" — a partial subsumee list would be
// silently wrong.
//
// Delta generations (DESIGN.md §14): every query snapshots ONE immutable
// EngineView at entry, so a commit that swaps in a new generation can
// never mix ontologies mid-answer. The view's `owner` shared_ptr pins the
// whole generation (TBox + classifier + plugin + result) until the last
// in-flight query drops it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/parallel_classifier.hpp"
#include "owl/tbox.hpp"
#include "serve/protocol.hpp"
#include "taxonomy/snapshot.hpp"

namespace owlcl {

struct QueryEngineConfig {
  /// Budget for queries that do not carry their own deadline_ms.
  std::uint64_t defaultDeadlineMs = 1000;
  /// Upper clamp on client-supplied deadlines (a rogue client must not
  /// pin a query thread for an hour).
  std::uint64_t maxDeadlineMs = 60'000;
};

/// One immutable snapshot of "what queries answer against". Queries load
/// it once at entry; commits publish a fresh one. `owner` keeps whatever
/// object graph backs the raw pointers alive (a DeltaGeneration, or
/// nothing for the server's ctor-bound generation 0).
struct EngineView {
  const TBox* tbox = nullptr;
  ParallelClassifier* classifier = nullptr;
  ReasonerPlugin* fallback = nullptr;
  const ClassificationResult* result = nullptr;
  std::uint64_t deltaEpoch = 0;
  /// Compiled read-optimized index over this generation's finished
  /// taxonomy (DESIGN.md §16); null until the run completes, on degraded
  /// runs, or with ServerConfig::querySnapshots off. When present, subs/sat/
  /// descendants answer from it at memory speed instead of walking.
  std::shared_ptr<const TaxonomySnapshot> snapshot;
  std::shared_ptr<const void> owner;
};

/// Read-path counters (answers by path, interval-hit vs bitset-probe
/// split, batch amortization), surfaced through --stats and the
/// BENCH_serve.json snapshot block.
struct QueryEngineStats {
  std::uint64_t snapshotAnswers = 0;  ///< answered from the compiled index
  std::uint64_t walkAnswers = 0;      ///< answered through the legacy ladder
  std::uint64_t intervalHits = 0;     ///< subs decided by the interval check
  std::uint64_t bitsetProbes = 0;     ///< subs needing the extra-ancestor probe
  std::uint64_t batchLines = 0;       ///< batch requests answered
  std::uint64_t batchedQueries = 0;   ///< elements inside those batches
};

class QueryEngine {
 public:
  /// `fallback` is the plug-in chain used for direct (rung 3) calls; it
  /// must be thread-safe. All references must outlive the engine (they
  /// form generation 0's view, which carries no owner).
  QueryEngine(const TBox& tbox, ParallelClassifier& classifier,
              ReasonerPlugin& fallback, QueryEngineConfig config);

  /// Publishes the finished run's result (taxonomy for descendants) into
  /// the CURRENT view, along with its compiled query snapshot (null for
  /// degraded runs or snapshot-off serving). Called once by the server
  /// when the classification thread exits.
  void setResult(const ClassificationResult* result,
                 std::shared_ptr<const TaxonomySnapshot> snapshot = nullptr);

  /// Swaps in a new generation's view (after a committed delta). Queries
  /// already past their snapshot finish against the old generation.
  void publishView(EngineView view);

  /// The view new queries would answer against right now.
  std::shared_ptr<const EngineView> currentView() const;

  /// Answers one subs/sat/descendants/batch request (status is handled by
  /// the server, which owns the counters). Never throws.
  std::string answer(const Request& req);

  /// Read-path counters since construction (monotone; relaxed reads).
  QueryEngineStats stats() const;

 private:
  std::chrono::steady_clock::time_point deadlineFor(const Request& req) const;
  std::string answerSubs(const Request& req, const EngineView& view,
                         std::chrono::steady_clock::time_point deadline);
  std::string answerSat(const Request& req, const EngineView& view,
                        std::chrono::steady_clock::time_point deadline);
  std::string answerDescendants(const Request& req, const EngineView& view,
                                std::chrono::steady_clock::time_point deadline);
  std::string answerBatch(const Request& req, const EngineView& view,
                          std::chrono::steady_clock::time_point deadline);
  /// Remaining budget from now to `deadline` in ns (0 if past).
  static std::uint64_t remainingNs(
      std::chrono::steady_clock::time_point deadline);

  QueryEngineConfig config_;
  mutable std::mutex viewMu_;
  std::shared_ptr<const EngineView> view_;
  // Counters are per-engine atomics (not per-snapshot) so the immutable
  // snapshot stays genuinely read-only and shareable across generations.
  std::atomic<std::uint64_t> snapshotAnswers_{0};
  std::atomic<std::uint64_t> walkAnswers_{0};
  std::atomic<std::uint64_t> intervalHits_{0};
  std::atomic<std::uint64_t> bitsetProbes_{0};
  std::atomic<std::uint64_t> batchLines_{0};
  std::atomic<std::uint64_t> batchedQueries_{0};
};

}  // namespace owlcl
