// Routing seeds the P/K store with plain word loops before the classifier
// publishes it (DESIGN.md §13, "Quiescent seeding and the publication
// point"). These tests pin the two sides of that contract: queries racing
// the run see nothing before started() and only ground-truth verdicts
// after it (core_test runs under TSan, which checks the publication
// itself), and the fused seeding pass reports exactly the routing
// counters that applying the closure and the pure non-subsumptions pair
// by pair would.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "elcore/el_reasoner.hpp"
#include "gen/generator.hpp"
#include "owl/el_fragment.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "taxonomy/verify.hpp"

namespace owlcl {
namespace {

// Fully EL, with equivalences and unsatisfiable concepts: every concept
// is pure and routing settles every pair.
GenConfig fullyRouted() {
  GenConfig cfg;
  cfg.name = "fully-routed";
  cfg.concepts = 300;
  cfg.subClassEdges = 450;
  cfg.existentialAxioms = 120;
  cfg.equivalentAxioms = 6;
  cfg.disjointAxioms = 3;
  cfg.unsatConcepts = 4;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  return cfg;
}

// EL backbone with a leaf-confined ∀ residual: most concepts are pure,
// the rest leave pairs for the tableau phases.
GenConfig mixedLeaves() {
  GenConfig cfg;
  cfg.name = "mixed-leaves";
  cfg.concepts = 200;
  cfg.subClassEdges = 260;
  cfg.roles = 6;
  cfg.existentialAxioms = 90;
  cfg.universalAxioms = 4;
  cfg.equivalentAxioms = 4;
  cfg.disjointAxioms = 2;
  cfg.unsatConcepts = 3;
  cfg.nonElOnLeaves = true;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.attachmentBias = 0.8;
  cfg.seed = 23;
  return cfg;
}

// --- queries racing the run -------------------------------------------------

struct ReaderLog {
  std::size_t preStart = 0;
  std::vector<std::string> errors;
};

// Queries random pairs until it has seen the run finished 200 times.
// A query that returned while started() was still false must be kUnknown;
// every definite verdict must agree with the generator's ground truth.
void readUntilFinished(const ParallelClassifier& c, const GroundTruth& truth,
                       std::uint64_t seed, std::atomic<std::size_t>& warm,
                       ReaderLog& log) {
  std::mt19937_64 rng(seed);
  const std::size_t n = c.conceptCount();
  std::size_t afterFinish = 0;
  while (afterFinish < 200) {
    const bool finished = c.finished();
    const auto sup = static_cast<ConceptId>(rng() % n);
    const auto sub = static_cast<ConceptId>(rng() % n);
    const PairVerdict pv = c.queryPair(sup, sub);
    const SatVerdict sv = c.querySat(sub);
    if (!c.started()) {
      if (pv != PairVerdict::kUnknown || sv != SatVerdict::kUnknown)
        log.errors.push_back("definite verdict before started()");
      ++log.preStart;
      warm.fetch_add(1, std::memory_order_relaxed);
    }
    if ((pv == PairVerdict::kSubsumed || pv == PairVerdict::kNotSubsumed) &&
        (pv == PairVerdict::kSubsumed) != truth.subsumes(sup, sub))
      log.errors.push_back("pair " + std::to_string(sup) + " ⊒ " +
                           std::to_string(sub) + " disagrees with truth");
    if ((sv == SatVerdict::kSatisfiable || sv == SatVerdict::kUnsatisfiable) &&
        (sv == SatVerdict::kSatisfiable) != truth.satisfiable(sub))
      log.errors.push_back("sat " + std::to_string(sub) +
                           " disagrees with truth");
    if (finished) ++afterFinish;
  }
}

/// Classifies with two reader threads querying from before classify()
/// until after it; returns the result and checks the readers' logs.
ClassificationResult classifyUnderReaders(ParallelClassifier& classifier,
                                          RealExecutor& exec,
                                          const GroundTruth& truth) {
  std::atomic<std::size_t> warm[2] = {0, 0};
  ReaderLog logs[2];
  std::vector<std::thread> readers;
  for (std::size_t i = 0; i < 2; ++i)
    readers.emplace_back([&, i] {
      readUntilFinished(classifier, truth, 17 + i, warm[i], logs[i]);
    });
  // Both readers have queried the unpublished store before the run starts.
  for (const std::atomic<std::size_t>& w : warm)
    while (w.load(std::memory_order_relaxed) < 50) std::this_thread::yield();
  const ClassificationResult r = classifier.classify(exec);
  for (std::thread& t : readers) t.join();
  for (const ReaderLog& log : logs) {
    EXPECT_GT(log.preStart, 0u);
    EXPECT_TRUE(log.errors.empty()) << log.errors.front();
  }
  return r;
}

TEST(RoutingPublication, MidRunQueriesAgreeWithGroundTruth) {
  for (const GenConfig& cfg : {fullyRouted(), mixedLeaves()}) {
    const GeneratedOntology g = generateOntology(cfg);
    TableauReasoner reasoner(*g.tbox);
    ClassifierConfig config;
    config.routeEl = ElRouting::kOn;
    ThreadPool pool(2);
    RealExecutor exec(pool);
    ParallelClassifier classifier(*g.tbox, reasoner, config);
    const ClassificationResult r =
        classifyUnderReaders(classifier, exec, g.truth);
    ASSERT_TRUE(r.complete()) << cfg.name;
    EXPECT_GT(r.routedConcepts, 0u) << cfg.name;
    EXPECT_TRUE(classifier.countersConsistent()) << cfg.name;
    const TaxonomyIssues exact = verifyAgainstOracle(
        r.taxonomy, [&g](ConceptId sup, ConceptId sub) {
          return g.truth.subsumes(sup, sub);
        });
    EXPECT_TRUE(exact.ok()) << cfg.name << ": " << exact.summary();
  }
}

/// RealExecutor whose watchdog has fired by the time the EL saturation
/// polls its token for the first time: routing is always cut short. The
/// token fires when the saturation task is dispatched, because the run
/// arms its watchdog only after building the store, and a fast saturation
/// can finish before that.
class SpentWatchdogExecutor : public RealExecutor {
 public:
  using RealExecutor::RealExecutor;
  void dispatch(Task task) override {
    cancellation().cancel();
    RealExecutor::dispatch(std::move(task));
  }
};

TEST(RoutingPublication, WatchdogDuringSaturationStillPublishesAndDrains) {
  const GeneratedOntology g = generateOntology(mixedLeaves());
  TableauReasoner reasoner(*g.tbox);
  ClassifierConfig config;
  config.routeEl = ElRouting::kOn;
  config.watchdogBudgetNs = 1;
  ThreadPool pool(2);
  SpentWatchdogExecutor exec(pool);
  ParallelClassifier classifier(*g.tbox, reasoner, config);
  const ClassificationResult r =
      classifyUnderReaders(classifier, exec, g.truth);

  EXPECT_TRUE(classifier.started());
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.complete());
  ASSERT_FALSE(r.cycles.empty());
  EXPECT_EQ(r.cycles.front().phase, CycleStats::Phase::kRouting);
  EXPECT_EQ(r.saturationSeeded, 0u);
  EXPECT_EQ(r.routedConcepts, 0u);
  EXPECT_FALSE(r.unresolvedPairs.empty());
  EXPECT_TRUE(classifier.countersConsistent());
  const TaxonomyIssues structure = verifyStructure(r.taxonomy);
  EXPECT_TRUE(structure.ok()) << structure.summary();
  const TaxonomyIssues sound = verifySoundAgainstOracle(
      r.taxonomy, [&g](ConceptId sup, ConceptId sub) {
        return g.truth.subsumes(sup, sub);
      });
  EXPECT_TRUE(sound.ok()) << sound.summary();
}

// --- routing counters -------------------------------------------------------

struct RoutingCounters {
  std::uint64_t routedConcepts = 0;
  std::uint64_t saturationSeeded = 0;
  std::uint64_t testsAvoided = 0;
  /// closure[sup] = the satisfiable subsumees routing seeds into K_sup.
  std::vector<DynamicBitset> closure;
};

/// The routing counters of a fresh run, derived pair by pair from the
/// saturation closure and the pure set instead of from the store:
///  * seeded: closure pairs with a satisfiable subsumee;
///  * avoided: seeded, plus one per EL-unsatisfiable concept, one per
///    pure satisfiable concept except the tableau's guard, and one per
///    ordered pure × pure pair of satisfiable concepts outside the closure.
/// Assumes the guard's tableau test confirms the saturation, as it must.
RoutingCounters expectedCounters(const TBox& tbox) {
  const std::size_t n = tbox.conceptCount();
  const ElPartition part = partitionElFragment(tbox);
  ElReasoner el(tbox, part.axiomEl);
  EXPECT_TRUE(el.classify());

  RoutingCounters out;
  out.closure.assign(n, DynamicBitset(n));
  el.forEachSubsumption([&](ConceptId sup, ConceptId sub) {
    if (el.isSatisfiable(sub)) out.closure[sup].set(sub);
  });

  DynamicBitset pureSat(n);
  std::uint64_t unsat = 0;
  for (ConceptId c = 0; c < n; ++c) {
    if (!el.isSatisfiable(c))
      ++unsat;
    else if (part.pureCount > 0 && part.pureConcepts.test(c))
      pureSat.set(c);
  }

  out.routedConcepts = part.pureCount;
  for (ConceptId sup = 0; sup < n; ++sup)
    out.saturationSeeded += out.closure[sup].count();
  const bool guard = part.nonElAxioms > 0 && !pureSat.none();
  std::uint64_t negatives = 0;
  pureSat.forEachSetBit([&](std::size_t x) {
    pureSat.forEachSetBit([&](std::size_t y) {
      if (y != x && !out.closure[x].test(y)) ++negatives;
    });
  });
  out.testsAvoided = unsat + out.saturationSeeded + pureSat.count() -
                     (guard ? 1 : 0) + negatives;
  return out;
}

/// Transitive closure of the told atomic subclass axioms (equivalences
/// arrive expanded into inclusion rings by TBox::freeze()), without the
/// diagonal: told[sup] = every concept told to be under sup.
std::vector<DynamicBitset> toldClosure(const TBox& tbox) {
  const std::size_t n = tbox.conceptCount();
  const ExprFactory& f = tbox.exprs();
  std::vector<std::vector<ConceptId>> subsOf(n);
  for (const SubClassAxiom& ax : tbox.inclusions())
    if (f.kind(ax.lhs) == ExprKind::kAtom && f.kind(ax.rhs) == ExprKind::kAtom)
      subsOf[f.node(ax.rhs).atom].push_back(f.node(ax.lhs).atom);
  std::vector<DynamicBitset> told(n, DynamicBitset(n));
  for (ConceptId x = 0; x < n; ++x) {
    std::vector<ConceptId> stack = subsOf[x];
    while (!stack.empty()) {
      const ConceptId y = stack.back();
      stack.pop_back();
      if (told[x].test(y)) continue;
      told[x].set(y);
      for (ConceptId z : subsOf[y]) stack.push_back(z);
    }
    told[x].reset(x);
  }
  return told;
}

TEST(RoutingPublication, FusedSeedingPassReportsPairByPairCounters) {
  for (const GenConfig& cfg : {fullyRouted(), mixedLeaves()}) {
    const GeneratedOntology g = generateOntology(cfg);
    const RoutingCounters want = expectedCounters(*g.tbox);
    TableauReasoner reasoner(*g.tbox);
    ClassifierConfig config;
    config.routeEl = ElRouting::kOn;
    ThreadPool pool(2);
    RealExecutor exec(pool);
    ParallelClassifier classifier(*g.tbox, reasoner, config);
    const ClassificationResult r = classifier.classify(exec);
    ASSERT_TRUE(r.complete()) << cfg.name;
    EXPECT_GT(want.routedConcepts, 0u) << cfg.name;
    EXPECT_EQ(r.routedConcepts, want.routedConcepts) << cfg.name;
    EXPECT_EQ(r.saturationSeeded, want.saturationSeeded) << cfg.name;
    EXPECT_EQ(r.testsAvoidedByRouting, want.testsAvoided) << cfg.name;
    EXPECT_TRUE(classifier.countersConsistent()) << cfg.name;

    // Routing covers the told closure: every told pair is in the
    // taxonomy, and routing settled it before phase 1 — seeded into K
    // from the saturation closure, or its subsumee was found unsat.
    const std::vector<DynamicBitset> told = toldClosure(*g.tbox);
    std::size_t toldPairs = 0;
    for (ConceptId sup = 0; sup < told.size(); ++sup)
      told[sup].forEachSetBit([&](std::size_t y) {
        const auto sub = static_cast<ConceptId>(y);
        ++toldPairs;
        EXPECT_TRUE(r.taxonomy.subsumes(sup, sub))
            << cfg.name << ": " << g.tbox->conceptName(sub) << " ⊑ "
            << g.tbox->conceptName(sup);
        EXPECT_TRUE(want.closure[sup].test(sub) || !g.truth.satisfiable(sub))
            << cfg.name << ": told " << g.tbox->conceptName(sub) << " ⊑ "
            << g.tbox->conceptName(sup) << " not seeded by routing";
      });
    EXPECT_GT(toldPairs, 0u) << cfg.name;
  }
}

}  // namespace
}  // namespace owlcl
