#include "serve/query_engine.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "robust/guarded_plugin.hpp"
#include "taxonomy/taxonomy.hpp"

namespace owlcl {

namespace {

std::string verdictResponse(const Request& req, const char* opName, bool value,
                            const char* method) {
  JsonWriter w;
  if (req.hasId) w.field("id", req.id);
  w.field("ok", true);
  w.field("op", opName);
  w.field("result", value);
  w.field("method", method);
  return std::move(w).str();
}

}  // namespace

QueryEngine::QueryEngine(const TBox& tbox, ParallelClassifier& classifier,
                         ReasonerPlugin& fallback, QueryEngineConfig config)
    : config_(config) {
  auto view = std::make_shared<EngineView>();
  view->tbox = &tbox;
  view->classifier = &classifier;
  view->fallback = &fallback;
  view_ = std::move(view);
}

void QueryEngine::setResult(const ClassificationResult* result,
                            std::shared_ptr<const TaxonomySnapshot> snapshot) {
  // Copy-on-write: in-flight queries hold the old view; the result and
  // snapshot pointers only ever appear on a fresh one.
  std::lock_guard<std::mutex> lock(viewMu_);
  auto next = std::make_shared<EngineView>(*view_);
  next->result = result;
  next->snapshot = std::move(snapshot);
  view_ = std::move(next);
}

QueryEngineStats QueryEngine::stats() const {
  QueryEngineStats s;
  s.snapshotAnswers = snapshotAnswers_.load(std::memory_order_relaxed);
  s.walkAnswers = walkAnswers_.load(std::memory_order_relaxed);
  s.intervalHits = intervalHits_.load(std::memory_order_relaxed);
  s.bitsetProbes = bitsetProbes_.load(std::memory_order_relaxed);
  s.batchLines = batchLines_.load(std::memory_order_relaxed);
  s.batchedQueries = batchedQueries_.load(std::memory_order_relaxed);
  return s;
}

void QueryEngine::publishView(EngineView view) {
  auto next = std::make_shared<EngineView>(std::move(view));
  std::lock_guard<std::mutex> lock(viewMu_);
  view_ = std::move(next);
}

std::shared_ptr<const EngineView> QueryEngine::currentView() const {
  std::lock_guard<std::mutex> lock(viewMu_);
  return view_;
}

std::chrono::steady_clock::time_point QueryEngine::deadlineFor(
    const Request& req) const {
  std::uint64_t ms =
      req.deadlineMs == 0 ? config_.defaultDeadlineMs : req.deadlineMs;
  if (config_.maxDeadlineMs > 0) ms = std::min(ms, config_.maxDeadlineMs);
  // Saturate instead of overflowing the clock's int64 count: an unclamped
  // deadline_ms in the far future means "no deadline".
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - now);
  if (ms >= static_cast<std::uint64_t>(headroom.count()))
    return Clock::time_point::max();
  return now + std::chrono::milliseconds(ms);
}

std::uint64_t QueryEngine::remainingNs(
    std::chrono::steady_clock::time_point deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now)
          .count());
}

std::string QueryEngine::answer(const Request& req) {
  const auto deadline = deadlineFor(req);
  // One snapshot per query: a concurrent commit swaps view_ but cannot
  // change what THIS query answers against.
  const std::shared_ptr<const EngineView> view = currentView();
  switch (req.op) {
    case RequestOp::kSubs:
      return answerSubs(req, *view, deadline);
    case RequestOp::kSat:
      return answerSat(req, *view, deadline);
    case RequestOp::kDescendants:
      return answerDescendants(req, *view, deadline);
    case RequestOp::kBatch:
      return answerBatch(req, *view, deadline);
    default:
      break;  // status + delta verbs are server-level; unreachable
               // through Server::processLine
  }
  return errorResponse(req, "internal", "unroutable op");
}

std::string QueryEngine::answerSubs(
    const Request& req, const EngineView& view,
    std::chrono::steady_clock::time_point deadline) {
  const TBox& tbox = *view.tbox;
  ParallelClassifier& classifier = *view.classifier;
  const ConceptId sup = tbox.findConcept(req.sup);
  const ConceptId sub = tbox.findConcept(req.sub);
  if (sup == kInvalidConcept)
    return errorResponse(req, "unknown-concept", req.sup);
  if (sub == kInvalidConcept)
    return errorResponse(req, "unknown-concept", req.sub);

  // Rung 0: compiled snapshot — one interval compare, at most one bitset
  // word probe. Only present for complete runs, whose settled verdicts it
  // reproduces exactly, so the response (method "settled") is byte-equal
  // to the walk path's.
  if (const TaxonomySnapshot* snap = view.snapshot.get();
      snap != nullptr && snap->placed(sup) && snap->placed(sub)) {
    bool probed = false;
    const bool value = snap->subsumes(sup, sub, &probed);
    snapshotAnswers_.fetch_add(1, std::memory_order_relaxed);
    (probed ? bitsetProbes_ : intervalHits_)
        .fetch_add(1, std::memory_order_relaxed);
    return verdictResponse(req, "subs", value, "settled");
  }
  walkAnswers_.fetch_add(1, std::memory_order_relaxed);

  // Rung 1: already settled in the shared store — memory-speed answer.
  PairVerdict v = classifier.queryPair(sup, sub);
  if (v == PairVerdict::kUnknown && !classifier.finished()) {
    // Rung 2: block on the pair's epoch for HALF the remaining budget —
    // the other half is reserved for the direct fallback call, so a pair
    // that never settles still gets a real attempt at a verdict.
    const auto now = std::chrono::steady_clock::now();
    const auto waitDeadline = now + (deadline - now) / 2;
    v = classifier.waitForPair(sup, sub, waitDeadline);
  }
  if (v == PairVerdict::kSubsumed || v == PairVerdict::kNotSubsumed)
    return verdictResponse(req, "subs", v == PairVerdict::kSubsumed,
                           "settled");

  // Rung 3: direct guarded tableau call with whatever budget remains —
  // also the only rung for pairs the run withdrew as unresolved.
  const std::uint64_t budget = remainingNs(deadline);
  if (budget == 0) return errorResponse(req, "deadline");
  GuardConfig gc;
  gc.deadlineNs = budget;
  GuardedPlugin guard(*view.fallback, gc);
  const TestVerdict tv = guard.trySubsumedBy(sub, sup);
  if (tv.ok()) return verdictResponse(req, "subs", tv.value(), "direct");
  return errorResponse(
      req, tv.failure == FailureKind::kTimeout ? "deadline" : "failed");
}

std::string QueryEngine::answerSat(
    const Request& req, const EngineView& view,
    std::chrono::steady_clock::time_point deadline) {
  const TBox& tbox = *view.tbox;
  ParallelClassifier& classifier = *view.classifier;
  const ConceptId c = tbox.findConcept(req.conceptName);
  if (c == kInvalidConcept)
    return errorResponse(req, "unknown-concept", req.conceptName);

  if (const TaxonomySnapshot* snap = view.snapshot.get();
      snap != nullptr && snap->placed(c)) {
    snapshotAnswers_.fetch_add(1, std::memory_order_relaxed);
    return verdictResponse(req, "sat", snap->satisfiable(c), "settled");
  }
  walkAnswers_.fetch_add(1, std::memory_order_relaxed);

  SatVerdict v = classifier.querySat(c);
  if (v == SatVerdict::kUnknown && !classifier.finished()) {
    const auto now = std::chrono::steady_clock::now();
    v = classifier.waitForSat(c, now + (deadline - now) / 2);
  }
  if (v == SatVerdict::kSatisfiable || v == SatVerdict::kUnsatisfiable)
    return verdictResponse(req, "sat", v == SatVerdict::kSatisfiable,
                           "settled");

  const std::uint64_t budget = remainingNs(deadline);
  if (budget == 0) return errorResponse(req, "deadline");
  GuardConfig gc;
  gc.deadlineNs = budget;
  GuardedPlugin guard(*view.fallback, gc);
  const TestVerdict tv = guard.trySatisfiable(c);
  if (tv.ok()) return verdictResponse(req, "sat", tv.value(), "direct");
  return errorResponse(
      req, tv.failure == FailureKind::kTimeout ? "deadline" : "failed");
}

std::string QueryEngine::answerDescendants(
    const Request& req, const EngineView& view,
    std::chrono::steady_clock::time_point deadline) {
  const TBox& tbox = *view.tbox;
  ParallelClassifier& classifier = *view.classifier;
  const ConceptId c = tbox.findConcept(req.conceptName);
  if (c == kInvalidConcept)
    return errorResponse(req, "unknown-concept", req.conceptName);

  // Snapshot path: the subsumee array was escaped, sorted and serialized
  // at compile time — the answer is field writes plus one raw copy.
  if (const TaxonomySnapshot* snap = view.snapshot.get();
      snap != nullptr && snap->placed(c)) {
    snapshotAnswers_.fetch_add(1, std::memory_order_relaxed);
    JsonWriter w;
    if (req.hasId) w.field("id", req.id);
    w.field("ok", true);
    w.field("op", "descendants");
    w.field("concept", req.conceptName);
    w.field("count",
            static_cast<std::uint64_t>(snap->descendantCount(c)));
    w.raw("concepts", snap->descendantsJson(c));
    w.field("complete", snap->complete());
    return std::move(w).str();
  }
  walkAnswers_.fetch_add(1, std::memory_order_relaxed);

  // Needs the finished taxonomy — a mid-run subsumee list would silently
  // omit pairs that have not settled yet. Wait out the budget, then tell
  // the client to retry. The result pointer is published by the server
  // right after the run exits; bridge that tiny gap by re-snapshotting.
  const ClassificationResult* r = view.result;
  while (r == nullptr) {
    if (!classifier.waitForCompletion(deadline)) break;
    // setResult publishes onto a NEW view; ours is frozen. Re-read the
    // current one — same generation, now carrying the result pointer.
    const auto fresh = currentView();
    r = fresh->classifier == &classifier ? fresh->result : nullptr;
    if (fresh->classifier != &classifier) break;  // generation changed
    if (r == nullptr) std::this_thread::yield();
    if (std::chrono::steady_clock::now() >= deadline) break;
  }
  if (r == nullptr || r->paused)
    return errorResponse(req, "pending", "classification in progress");

  const Taxonomy& tax = r->taxonomy;
  const Taxonomy::NodeId start = tax.nodeOf(c);
  if (start == Taxonomy::kNoNode)
    return errorResponse(req, "pending", "concept not placed");

  // BFS down the DAG; members of every reached node are descendants
  // (unsatisfiable concepts sit at ⊥ and are therefore included).
  std::vector<char> seen(tax.nodeCount(), 0);
  std::vector<Taxonomy::NodeId> stack{start};
  seen[start] = 1;
  std::vector<std::string> names;
  while (!stack.empty()) {
    const Taxonomy::NodeId cur = stack.back();
    stack.pop_back();
    if (cur != start)
      for (const ConceptId m : tax.node(cur).members)
        names.push_back(tbox.conceptName(m));
    for (const Taxonomy::NodeId child : tax.node(cur).children)
      if (!seen[child]) {
        seen[child] = 1;
        stack.push_back(child);
      }
  }
  std::sort(names.begin(), names.end());

  std::string array = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) array.push_back(',');
    array.push_back('"');
    array += jsonEscape(names[i]);
    array.push_back('"');
  }
  array.push_back(']');

  JsonWriter w;
  if (req.hasId) w.field("id", req.id);
  w.field("ok", true);
  w.field("op", "descendants");
  w.field("concept", req.conceptName);
  w.field("count", static_cast<std::uint64_t>(names.size()));
  w.raw("concepts", array);
  // A degraded (unresolved-pairs) run may be missing edges; say so.
  w.field("complete", r->complete());
  return std::move(w).str();
}

std::string QueryEngine::answerBatch(
    const Request& req, const EngineView& view,
    std::chrono::steady_clock::time_point deadline) {
  // All elements answer against the ONE view the batch pinned at entry —
  // a generation swap mid-batch can never mix ontologies across elements.
  // Elements share the batch deadline unless they carry their own.
  batchLines_.fetch_add(1, std::memory_order_relaxed);
  batchedQueries_.fetch_add(req.batchCount, std::memory_order_relaxed);
  std::string results;
  results.push_back('[');
  for (std::uint32_t i = 0; i < req.batchCount; ++i) {
    const Request& e = req.batch[i];
    const auto edl = e.deadlineMs != 0 ? deadlineFor(e) : deadline;
    if (i != 0) results.push_back(',');
    switch (e.op) {
      case RequestOp::kSubs:
        results += answerSubs(e, view, edl);
        break;
      case RequestOp::kSat:
        results += answerSat(e, view, edl);
        break;
      case RequestOp::kDescendants:
        results += answerDescendants(e, view, edl);
        break;
      default:  // parser only admits the three read ops
        results += errorResponse(e, "internal", "unroutable op");
    }
  }
  results.push_back(']');

  JsonWriter w;
  if (req.hasId) w.field("id", req.id);
  w.field("ok", true);
  w.field("op", "batch");
  w.field("count", static_cast<std::uint64_t>(req.batchCount));
  w.raw("results", results);
  return std::move(w).str();
}

}  // namespace owlcl
