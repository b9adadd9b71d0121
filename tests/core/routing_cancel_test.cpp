// Routing is cancellable: the EL saturation polls the run's token, so a
// whole-run watchdog stops a routed classify mid-saturation, and the run
// still degrades to a sound PARTIAL taxonomy. EHDAA2 (Table IV, ELH+: a
// transitive role under a role hierarchy) saturates for seconds, so a
// 300 ms budget always lands inside the routing phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "taxonomy/verify.hpp"

namespace owlcl {
namespace {

// The cut saturation leaves ~7.4 M pairs for the PARTIAL drain, which
// sanitizer builds run several times slower; uncut, the saturation would
// run for minutes there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kReturnWithinS = 20.0;
#else
constexpr double kReturnWithinS = 5.0;
#endif

TEST(RoutingCancel, WatchdogStopsEhdaa2SaturationSoundly) {
  const std::vector<PaperOntologyRow> suite = oreEl2015Suite();
  const auto row = std::find_if(suite.begin(), suite.end(), [](const auto& r) {
    return r.config.name == "EHDAA2";
  });
  ASSERT_NE(row, suite.end());
  const GeneratedOntology g = generateOntology(row->config);

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
