// Differential suite for hybrid EL/tableau routing (DESIGN.md §13): on
// generated mixed EL/non-EL ontologies, --route-el=on must produce a
// BYTE-IDENTICAL taxonomy to tableau-only classification — routing is an
// avoidance layer, never a verdict changer. Runs under TSan via the
// core_test binary: routing seeds the shared P/K store that the worker
// threads of the tableau phases then read and write.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "elcore/el_reasoner.hpp"
#include "gen/generator.hpp"
#include "owl/el_fragment.hpp"
#include "owl/parser.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "taxonomy/verify.hpp"
#include "util/strings.hpp"

namespace owlcl {
namespace {

struct ClassifyRun {
  std::string taxonomy;
  ClassificationResult result;
  bool countersOk = false;
};

ClassifyRun classifyOnce(TBox& tbox, ElRouting routeEl,
                        std::size_t workers = 4, std::size_t randomCycles = 1) {
  TableauReasoner reasoner(tbox);
  ClassifierConfig cfg;
  cfg.randomCycles = randomCycles;
  cfg.routeEl = routeEl;
  ThreadPool pool(workers);
  RealExecutor exec(pool);
  ParallelClassifier classifier(tbox, reasoner, cfg);
  ClassifyRun run;
  run.result = classifier.classify(exec);
  run.countersOk = classifier.countersConsistent();
  std::ostringstream tree;
  run.result.taxonomy.print(tree, tbox);
  run.taxonomy = tree.str();
  return run;
}

/// off vs on over one generated ontology: byte-identical taxonomies,
/// consistent P/K counters in both modes.
void expectParity(const GenConfig& cfg) {
  const GeneratedOntology g = generateOntology(cfg);
  const ClassifyRun off = classifyOnce(*g.tbox, ElRouting::kOff);
  const ClassifyRun on = classifyOnce(*g.tbox, ElRouting::kOn);
  ASSERT_EQ(off.taxonomy, on.taxonomy)
      << cfg.name << ": --route-el=on changed the taxonomy";
  EXPECT_TRUE(off.countersOk);
  EXPECT_TRUE(on.countersOk);
}

GenConfig elHeavy() {
  // Mirrors the bench_ablation_routing corpus: EL backbone with ∃
  // decorations, equivalences, disjointness and unsat concepts, plus a
  // leaf-confined ∀ residual so most concepts are pure.
  GenConfig cfg;
  cfg.name = "diff-el-heavy";
  cfg.concepts = 160;
  cfg.subClassEdges = 200;
  cfg.roles = 6;
  cfg.existentialAxioms = 80;
  cfg.universalAxioms = 2;
  cfg.equivalentAxioms = 4;
  cfg.disjointAxioms = 2;
  cfg.unsatConcepts = 3;
  cfg.nonElOnLeaves = true;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.attachmentBias = 0.8;
  cfg.seed = 19;
  return cfg;
}

TEST(RoutingDifferential, ElHeavyParityAndTenfoldTestReduction) {
  const GenConfig cfg = elHeavy();
  const GeneratedOntology g = generateOntology(cfg);
  const ClassifyRun off = classifyOnce(*g.tbox, ElRouting::kOff);
  const ClassifyRun on = classifyOnce(*g.tbox, ElRouting::kOn);
  ASSERT_EQ(off.taxonomy, on.taxonomy);
  EXPECT_TRUE(on.countersOk);

  // The ISSUE acceptance bar: on an EL-heavy corpus routing cuts the
  // tableau tests by at least 10x, and the stats report the claim.
  EXPECT_GT(on.result.routedConcepts, 0u);
  EXPECT_GT(on.result.saturationSeeded, 0u);
  EXPECT_GT(on.result.testsAvoidedByRouting, 0u);
  EXPECT_GE(off.result.testsPerformed(),
            10 * std::max<std::uint64_t>(on.result.testsPerformed(), 1))
      << "routing reduced tests only " << off.result.testsPerformed() << " -> "
      << on.result.testsPerformed();
}

TEST(RoutingDifferential, BalancedMixedOntology) {
  GenConfig cfg;
  cfg.name = "diff-balanced";
  cfg.concepts = 90;
  cfg.subClassEdges = 120;
  cfg.roles = 6;
  cfg.existentialAxioms = 30;
  cfg.universalAxioms = 25;  // heavy residual, subjects anywhere
  cfg.equivalentAxioms = 3;
  cfg.disjointAxioms = 2;
  cfg.unsatConcepts = 2;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.seed = 7;
  expectParity(cfg);
}

TEST(RoutingDifferential, FullyElOntology) {
  GenConfig cfg;
  cfg.name = "diff-fully-el";
  cfg.concepts = 100;
  cfg.subClassEdges = 140;
  cfg.existentialAxioms = 50;
  cfg.equivalentAxioms = 6;
  cfg.disjointAxioms = 3;
  cfg.unsatConcepts = 4;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.seed = 3;
  {
    const GeneratedOntology g = generateOntology(cfg);
    ASSERT_TRUE(isElTBox(*g.tbox));
    // Everything is pure: routing settles every pair and the tableau
    // performs almost nothing (only the hierarchy phase runs).
    const ClassifyRun on = classifyOnce(*g.tbox, ElRouting::kOn);
    const ElPartition part = partitionElFragment(*g.tbox);
    EXPECT_EQ(part.nonElAxioms, 0u);
    EXPECT_EQ(on.result.routedConcepts, g.tbox->conceptCount());
    EXPECT_EQ(on.result.testsPerformed(), 0u);
  }
  expectParity(cfg);
}

TEST(RoutingDifferential, GloballyTaintedFallsBackToPositiveOnly) {
  // A ⊤-triggered non-EL axiom taints every module: routing may seed
  // positive closure edges but must take no negative shortcuts, and the
  // taxonomy still matches byte-for-byte.
  TBox tbox;
  parseFunctionalSyntax(R"(
    Ontology(
      SubClassOf(owl:Thing ObjectMaxCardinality(3 g owl:Thing))
      SubClassOf(B A)
      SubClassOf(C A)
      SubClassOf(E B)
      SubClassOf(D C)
      SubClassOf(D ObjectSomeValuesFrom(r E))
      DisjointClasses(B C)
    ))",
                        tbox);
  tbox.freeze();
  const ElPartition part = partitionElFragment(tbox);
  ASSERT_TRUE(part.globallyTainted);
  const ClassifyRun off = classifyOnce(tbox, ElRouting::kOff);
  const ClassifyRun on = classifyOnce(tbox, ElRouting::kOn);
  ASSERT_EQ(off.taxonomy, on.taxonomy);
  EXPECT_EQ(on.result.routedConcepts, 0u);
  EXPECT_TRUE(on.countersOk);
}

TEST(RoutingDifferential, AutoRoutesOnlyMajorityElInputs) {
  // auto == on for an EL-heavy ontology, == off when the residual wins.
  const GeneratedOntology heavy = generateOntology(elHeavy());
  const ClassifyRun heavyAuto = classifyOnce(*heavy.tbox, ElRouting::kAuto);
  EXPECT_GT(heavyAuto.result.routedConcepts, 0u);

  TBox lop;
  parseFunctionalSyntax(R"(
    Ontology(
      SubClassOf(A ObjectAllValuesFrom(r B))
      SubClassOf(C ObjectAllValuesFrom(r D))
      SubClassOf(E F)
    ))",
                        lop);
  lop.freeze();
  const ClassifyRun lopAuto = classifyOnce(lop, ElRouting::kAuto);
  EXPECT_EQ(lopAuto.result.routedConcepts, 0u);
  EXPECT_EQ(lopAuto.result.saturationSeeded, 0u);
}

TEST(RoutingDifferential, WorkerCountSweepKeepsParity) {
  // Routed seeds meet the tableau phases on the classifier's own pool;
  // parity must hold at every worker count (and under TSan this sweeps
  // the racy interleavings).
  const GeneratedOntology g = generateOntology(elHeavy());
  const ClassifyRun base = classifyOnce(*g.tbox, ElRouting::kOff, 1);
  for (std::size_t workers : {1u, 2u, 8u}) {
    const ClassifyRun on = classifyOnce(*g.tbox, ElRouting::kOn, workers);
    ASSERT_EQ(base.taxonomy, on.taxonomy) << "workers=" << workers;
  }
}

TEST(RoutingDifferential, LeafResidualParityAcrossWorkerCounts) {
  // Phase 1 drops concepts routing settled from its slices; the pairs it
  // still tests, and so the taxonomy, must not change. Two random cycles,
  // so the second one filters on what the first left possible.
  GenConfig cfg = elHeavy();
  cfg.name = "diff-leaf-residual";
  cfg.concepts = 240;
  cfg.subClassEdges = 320;
  cfg.universalAxioms = 6;
  cfg.seed = 41;
  const GeneratedOntology g = generateOntology(cfg);
  const ClassifyRun off = classifyOnce(*g.tbox, ElRouting::kOff, 1, 2);
  for (std::size_t workers : {1u, 2u, 4u}) {
    const ClassifyRun on =
        classifyOnce(*g.tbox, ElRouting::kOn, workers, 2);
    ASSERT_EQ(off.taxonomy, on.taxonomy) << "workers=" << workers;
    EXPECT_GT(on.result.routedConcepts, 0u);
    EXPECT_TRUE(on.countersOk);
  }
}

/// RealExecutor that records how many tasks each barrier interval held.
class DispatchCountingExecutor : public RealExecutor {
 public:
  using RealExecutor::RealExecutor;
  void dispatch(Task task) override {
    ++pending_;
    RealExecutor::dispatch(std::move(task));
  }
  void barrier() override {
    RealExecutor::barrier();
    perBarrier.push_back(pending_);
    pending_ = 0;
  }
  std::vector<std::size_t> perBarrier;

 private:
  std::size_t pending_ = 0;
};

TEST(RoutingDifferential, FullyRoutedCorpusSkipsPhaseOne) {
  // Routing settles every pair of a fully-EL corpus, so no concept is
  // live when phase 1 starts: its cycles see an empty P, run no test and
  // dispatch no task. A TBox of declarations only is fully EL too, though
  // it has no axiom for the saturation to apply, and auto mode routes it.
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
  const GeneratedOntology g = generateOntology(cfg);

  TBox declarations;
  std::string doc = "Ontology(";
  for (int i = 0; i < 120; ++i) doc += strprintf(" Declaration(Class(D%d))", i);
  doc += ")";
  parseFunctionalSyntax(doc, declarations);
  declarations.freeze();

  struct Input {
    const char* name;
    TBox* tbox;
    const GroundTruth* truth;  // null: the kOff taxonomy is the reference
  };
  for (const Input& in : {Input{"generated", g.tbox.get(), &g.truth},
                          Input{"declarations-only", &declarations, nullptr}}) {
    ASSERT_TRUE(isElTBox(*in.tbox)) << in.name;
    const std::string offTaxonomy =
        classifyOnce(*in.tbox, ElRouting::kOff).taxonomy;
    for (const ElRouting mode : {ElRouting::kOn, ElRouting::kAuto}) {
      SCOPED_TRACE(strprintf("%s, route-el=%s", in.name,
                             mode == ElRouting::kOn ? "on" : "auto"));
      TableauReasoner reasoner(*in.tbox);
      ClassifierConfig config;
      config.routeEl = mode;
      ASSERT_EQ(config.randomCycles, 2u);
      ThreadPool pool(4);
      DispatchCountingExecutor exec(pool);
      ParallelClassifier classifier(*in.tbox, reasoner, config);
      const ClassificationResult r = classifier.classify(exec);
      ASSERT_TRUE(r.complete());
      EXPECT_EQ(r.testsPerformed(), 0u);
      EXPECT_EQ(reasoner.testCount(), 0u) << "the plug-in was called";

      std::size_t randomCycles = 0;
      for (const CycleStats& c : r.cycles) {
        if (c.phase != CycleStats::Phase::kRandomDivision) continue;
        ++randomCycles;
        EXPECT_EQ(c.possibleBefore, 0u) << "cycle " << c.index;
        EXPECT_EQ(c.reasonerTests, 0u) << "cycle " << c.index;
      }
      EXPECT_EQ(randomCycles, config.randomCycles);
      // Routing's one barrier joins the only task it dispatches, the
      // saturation; the barriers after it close the random cycles.
      ASSERT_GE(exec.perBarrier.size(), config.randomCycles + 1);
      EXPECT_EQ(exec.perBarrier[0], 1u) << "routing dispatches one task";
      for (std::size_t i = 0; i < config.randomCycles; ++i)
        EXPECT_EQ(exec.perBarrier[i + 1], 0u)
            << "cycle " << i << " dispatched tasks";

      std::ostringstream tree;
      r.taxonomy.print(tree, *in.tbox);
      EXPECT_EQ(tree.str(), offTaxonomy);
      if (in.truth != nullptr) {
        const TaxonomyIssues semantic = verifyAgainstOracle(
            r.taxonomy, [&in](ConceptId sup, ConceptId sub) {
              return in.truth->subsumes(sup, sub);
            });
        EXPECT_TRUE(semantic.ok()) << semantic.summary();
      }
    }
  }
}

// Table IV's EHDAA2 (ELH+: a transitive role under a role hierarchy) with
// routing on: the saturation must reach its fixpoint, settle every pair
// without a tableau test, and agree with the generator's ground truth.
class RoutedEhdaa2 : public ::testing::TestWithParam<
                         std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(RoutedEhdaa2, CompletesWithoutTableauTests) {
  const auto [seed, workers] = GetParam();
  const std::vector<PaperOntologyRow> suite = oreEl2015Suite();
  const auto row = std::find_if(suite.begin(), suite.end(), [](const auto& r) {
    return r.config.name == "EHDAA2";
  });
  ASSERT_NE(row, suite.end());
  GenConfig cfg = row->config;
  cfg.seed = seed;
  const GeneratedOntology g = generateOntology(cfg);
  ASSERT_TRUE(isElTBox(*g.tbox));

  const ClassifyRun on =
      classifyOnce(*g.tbox, ElRouting::kOn, workers, 2);
  ASSERT_TRUE(on.result.complete()) << "seed=" << seed;
  EXPECT_EQ(on.result.testsPerformed(), 0u);
  EXPECT_EQ(on.result.routedConcepts, g.tbox->conceptCount());
  EXPECT_TRUE(on.countersOk);
  const auto oracle = [&g](ConceptId sup, ConceptId sub) {
    return g.truth.subsumes(sup, sub);
  };
  const TaxonomyIssues sound = verifySoundAgainstOracle(on.result.taxonomy, oracle);
  EXPECT_TRUE(sound.ok()) << "seed=" << seed << ": " << sound.summary();
  const TaxonomyIssues exact = verifyAgainstOracle(on.result.taxonomy, oracle);
  EXPECT_TRUE(exact.ok()) << "seed=" << seed << ": " << exact.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutedEhdaa2,
                         ::testing::Combine(::testing::Values(102u, 1102u, 2102u),
                                            ::testing::Values(1u, 4u)));

// Fully-EL generated ontologies (the 120-concept config the sequential
// engine is checked on in generator_test) classified with routing on at
// every worker count: the routed taxonomy must equal the generator's
// ground truth on every pair, with consistent P/K counters.
class RoutedElSweep : public ::testing::TestWithParam<
                          std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(RoutedElSweep, MatchesGroundTruthOnGenerated) {
  const auto [seed, workers] = GetParam();
  GenConfig cfg;
  cfg.name = "routed-el";
  cfg.concepts = 120;
  cfg.subClassEdges = 200;
  cfg.existentialAxioms = 60;
  cfg.equivalentAxioms = 8;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.seed = seed;
  const GeneratedOntology g = generateOntology(cfg);
  ASSERT_TRUE(isElTBox(*g.tbox));

  const ClassifyRun on = classifyOnce(*g.tbox, ElRouting::kOn, workers);
  EXPECT_EQ(on.result.routedConcepts, g.tbox->conceptCount());
  EXPECT_TRUE(on.countersOk);
  const TaxonomyIssues structure = verifyStructure(on.result.taxonomy);
  EXPECT_TRUE(structure.ok()) << structure.summary();
  const TaxonomyIssues semantic = verifyAgainstOracle(
      on.result.taxonomy, [&g](ConceptId sup, ConceptId sub) {
        return g.truth.subsumes(sup, sub);
      });
  EXPECT_TRUE(semantic.ok())
      << "seed=" << seed << " workers=" << workers << ": "
      << semantic.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoutedElSweep,
    ::testing::Combine(::testing::Values(3u, 14u, 159u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

}  // namespace
}  // namespace owlcl
