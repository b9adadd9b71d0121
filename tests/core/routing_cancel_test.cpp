// Routing is cancellable: the EL saturation polls the run's token, so a
// whole-run watchdog stops a routed classify mid-saturation, and the run
// still degrades to a sound PARTIAL taxonomy. The corpus is a generated
// ELH+ ontology with a dense is-a backbone and many ∃-decorations: its
// saturation alone takes about 2.0 s (-O2, 4-vCPU x86 host), so a 300 ms
// budget, under a sixth of that, always lands inside the routing phase.
#include <gtest/gtest.h>

#include <chrono>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "taxonomy/verify.hpp"

namespace owlcl {
namespace {

// The cut saturation leaves ~9 M pairs for the PARTIAL drain, which
// sanitizer builds run several times slower; uncut, the saturation would
// run for minutes there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kReturnWithinS = 20.0;
#else
constexpr double kReturnWithinS = 5.0;
#endif

TEST(RoutingCancel, WatchdogStopsDenseElSaturationSoundly) {
  GenConfig c;
  c.name = "dense-elh+";
  c.concepts = 3000;
  c.subClassEdges = 40000;
  c.existentialAxioms = 40000;
  c.roleHierarchy = true;
  c.transitiveRoles = true;
  const GeneratedOntology g = generateOntology(c);

  TableauReasoner reasoner(*g.tbox);
  ClassifierConfig cfg;
  cfg.routeEl = ElRouting::kOn;
  cfg.watchdogBudgetNs = 300'000'000;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*g.tbox, reasoner, cfg);

  const auto start = std::chrono::steady_clock::now();
  const ClassificationResult r = classifier.classify(exec);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;

  EXPECT_TRUE(r.cancelled) << "watchdog should have fired";
  EXPECT_LT(took.count(), kReturnWithinS) << "routing ignored the watchdog";
  // Cut short before its fixpoint, the saturation seeds nothing.
  ASSERT_FALSE(r.cycles.empty());
  EXPECT_EQ(r.cycles.front().phase, CycleStats::Phase::kRouting);
  EXPECT_LT(r.cycles.front().elapsedNs, 5'000'000'000u);
  EXPECT_EQ(r.saturationSeeded, 0u);
  EXPECT_EQ(r.routedConcepts, 0u);
  EXPECT_FALSE(r.complete());

  EXPECT_TRUE(verifyStructure(r.taxonomy).ok())
      << verifyStructure(r.taxonomy).summary();
  const TaxonomyIssues sound = verifySoundAgainstOracle(
      r.taxonomy, [&g](ConceptId sup, ConceptId sub) {
        return g.truth.subsumes(sup, sub);
      });
  EXPECT_TRUE(sound.ok()) << sound.summary();
}

}  // namespace
}  // namespace owlcl
