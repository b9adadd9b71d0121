#include "gen/generator.hpp"

#include <gtest/gtest.h>

#include "elcore/el_reasoner.hpp"
#include "gen/mock_reasoner.hpp"
#include "owl/metrics.hpp"
#include "reasoner/tableau_reasoner.hpp"

namespace owlcl {
namespace {

TEST(Generator, DeterministicForSameSeed) {
  GenConfig cfg;
  cfg.concepts = 50;
  cfg.subClassEdges = 70;
  cfg.seed = 7;
  const auto a = generateOntology(cfg);
  const auto b = generateOntology(cfg);
  ASSERT_EQ(a.tbox->conceptCount(), b.tbox->conceptCount());
  ASSERT_EQ(a.tbox->toldAxioms().size(), b.tbox->toldAxioms().size());
  for (std::size_t c = 0; c < a.tbox->conceptCount(); ++c)
    EXPECT_TRUE(a.truth.ancestors[c] == b.truth.ancestors[c]);
}

TEST(Generator, MetricsMatchConfig) {
  GenConfig cfg;
  cfg.name = "m";
  cfg.concepts = 200;
  cfg.subClassEdges = 320;
  cfg.existentialAxioms = 50;
  cfg.universalAxioms = 10;
  cfg.qcrAxioms = 20;
  cfg.equivalentAxioms = 8;
  cfg.disjointAxioms = 12;
  cfg.seed = 3;
  const auto g = generateOntology(cfg);
  const OntologyMetrics m = computeMetrics(*g.tbox);
  EXPECT_EQ(m.concepts, 200u);
  EXPECT_EQ(m.subClassOf, 320u + 50u + 10u + 20u);  // backbone + decorations
  EXPECT_EQ(m.somes, 50u);
  EXPECT_EQ(m.alls, 10u);
  EXPECT_EQ(m.qcrs, 20u);
  EXPECT_EQ(m.equivalent, 8u);
  EXPECT_EQ(m.disjoint, 12u);
}

TEST(Generator, ElRowIsEl) {
  const auto rows = oreEl2015Suite();
  ASSERT_EQ(rows.size(), 9u);
  GenConfig cfg = rows[2].config;  // WBbt (pure EL)
  cfg.concepts = 200;              // shrink for the unit test
  cfg.subClassEdges = 350;
  cfg.existentialAxioms = 100;
  const auto g = generateOntology(cfg);
  EXPECT_TRUE(isElTBox(*g.tbox));
  const OntologyMetrics m = computeMetrics(*g.tbox);
  EXPECT_EQ(m.expressivity, "EL");
}

TEST(Generator, SuiteMetricsMatchPaperRows) {
  // Full-size check on one row of each suite. Axiom-count parity is only
  // asserted for EL rows: the Table V ontologies carry many property/
  // annotation/datatype axioms outside our class-axiom fragment, so their
  // generated axiom column undershoots by design (see DESIGN.md).
  {
    const PaperOntologyRow row = oreEl2015Suite()[0];
    const auto g = generateOntology(row.config);
    const OntologyMetrics m = computeMetrics(*g.tbox);
    EXPECT_EQ(m.concepts, row.paperConcepts) << row.config.name;
    EXPECT_GE(m.subClassOf, row.paperSubClassOf) << row.config.name;
    const double ratio = static_cast<double>(m.axioms) /
                         static_cast<double>(row.paperAxioms);
    EXPECT_GT(ratio, 0.9) << row.config.name << " axioms=" << m.axioms;
    EXPECT_LT(ratio, 1.1) << row.config.name << " axioms=" << m.axioms;
  }
  {
    const PaperOntologyRow row = oreQcr2014Suite()[4];  // bridg, 967 QCRs
    const auto g = generateOntology(row.config);
    const OntologyMetrics m = computeMetrics(*g.tbox);
    EXPECT_EQ(m.concepts, row.paperConcepts) << row.config.name;
    EXPECT_EQ(m.qcrs, row.paperQcrs) << row.config.name;
    EXPECT_GE(m.subClassOf, row.paperSubClassOf) << row.config.name;
  }
}

TEST(Generator, GroundTruthIsTransitivelyClosed) {
  GenConfig cfg;
  cfg.concepts = 120;
  cfg.subClassEdges = 200;
  cfg.equivalentAxioms = 5;
  cfg.seed = 11;
  const auto g = generateOntology(cfg);
  const std::size_t n = g.tbox->conceptCount();
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t a : g.truth.ancestors[c].setBits()) {
      for (std::size_t aa : g.truth.ancestors[a].setBits()) {
        if (aa == c) continue;  // equivalence partners close into cycles
        EXPECT_TRUE(g.truth.ancestors[c].test(aa))
            << "ancestor closure broken at " << c << " -> " << a << " -> " << aa;
      }
    }
  }
}

// The decisive property: the generated axioms entail *exactly* the ground
// truth. Cross-check against the real tableau reasoner on several seeds.
class GeneratorTruthTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorTruthTest, TableauAgreesWithGroundTruth) {
  GenConfig cfg;
  cfg.concepts = 40;
  cfg.subClassEdges = 60;
  cfg.existentialAxioms = 15;
  cfg.universalAxioms = 6;
  cfg.qcrAxioms = 8;
  cfg.equivalentAxioms = 3;
  cfg.disjointAxioms = 5;
  cfg.unsatConcepts = 2;
  cfg.seed = GetParam();
  auto g = generateOntology(cfg);
  TableauReasoner reasoner(*g.tbox);

  const std::size_t n = g.tbox->conceptCount();
  for (ConceptId c = 0; c < n; ++c)
    ASSERT_EQ(reasoner.isSatisfiable(c), g.truth.satisfiable(c))
        << "sat mismatch at " << g.tbox->conceptName(c) << " seed " << GetParam();
  for (ConceptId x = 0; x < n; ++x) {
    for (ConceptId y = 0; y < n; ++y) {
      ASSERT_EQ(reasoner.isSubsumedBy(y, x), g.truth.subsumes(x, y))
          << g.tbox->conceptName(y) << " ⊑ " << g.tbox->conceptName(x)
          << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorTruthTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

// EL-only configs must also agree with the EL saturation reasoner, at two
// sizes: 60 concepts, and 120 with denser ∃-decoration.
struct ElCase {
  std::uint64_t seed;
  std::size_t concepts, subClassEdges, existentialAxioms, equivalentAxioms;
};

// Test names carry the seed alone; the seeds of the two sizes differ.
void PrintTo(const ElCase& c, std::ostream* os) { *os << c.seed; }

class GeneratorElTest : public ::testing::TestWithParam<ElCase> {};

TEST_P(GeneratorElTest, ElReasonerAgreesWithGroundTruth) {
  const ElCase& c = GetParam();
  GenConfig cfg;
  cfg.concepts = c.concepts;
  cfg.subClassEdges = c.subClassEdges;
  cfg.existentialAxioms = c.existentialAxioms;
  cfg.equivalentAxioms = c.equivalentAxioms;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.seed = c.seed;
  auto g = generateOntology(cfg);
  ASSERT_TRUE(isElTBox(*g.tbox));
  ElReasoner el(*g.tbox);
  el.classify();
  const std::size_t n = g.tbox->conceptCount();
  for (ConceptId x = 0; x < n; ++x)
    for (ConceptId y = 0; y < n; ++y)
      ASSERT_EQ(el.subsumes(x, y), g.truth.subsumes(x, y))
          << g.tbox->conceptName(y) << " ⊑ " << g.tbox->conceptName(x)
          << " seed " << c.seed << ", " << c.concepts << " concepts";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GeneratorElTest,
    ::testing::Values(ElCase{4, 60, 90, 25, 4}, ElCase{9, 60, 90, 25, 4},
                      ElCase{16, 60, 90, 25, 4}, ElCase{25, 60, 90, 25, 4},
                      ElCase{36, 60, 90, 25, 4}, ElCase{3, 120, 200, 60, 8},
                      ElCase{14, 120, 200, 60, 8},
                      ElCase{159, 120, 200, 60, 8}));

TEST(MockReasoner, AnswersFromGroundTruth) {
  GenConfig cfg;
  cfg.concepts = 30;
  cfg.subClassEdges = 45;
  cfg.unsatConcepts = 1;
  cfg.seed = 99;
  auto g = generateOntology(cfg);
  MockReasoner mock(g.truth);
  const std::size_t n = g.tbox->conceptCount();
  for (ConceptId x = 0; x < n; ++x) {
    EXPECT_EQ(mock.isSatisfiable(x), g.truth.satisfiable(x));
    for (ConceptId y = 0; y < n; ++y)
      EXPECT_EQ(mock.isSubsumedBy(y, x), g.truth.subsumes(x, y));
  }
  EXPECT_GT(mock.testCount(), 0u);
}

TEST(CostModel, DeterministicAndScaled) {
  CostModel cm;
  cm.baseNs = 1000;
  EXPECT_EQ(cm.subsCost(1, 2), cm.subsCost(1, 2));
  EXPECT_NE(cm.subsCost(1, 2), cm.subsCost(2, 1));  // jitter is per ordered pair
  cm.markHardConcepts(10, 2, 100, 5);
  std::size_t hard = 0;
  for (std::uint32_t h : cm.hardness)
    if (h == 100) ++hard;
  EXPECT_EQ(hard, 2u);
  // A hard concept's tests cost ~100×.
  CostModel plain;
  plain.baseNs = 1000;
  ConceptId hardId = 0;
  while (cm.hardness[hardId] == 1u) ++hardId;
  EXPECT_GT(cm.subsCost(hardId, 9), 50 * plain.subsCost(hardId, 9) / 1);
  EXPECT_GE(cm.satCost(hardId), 100u * 600u / 2u);
}

}  // namespace
}  // namespace owlcl
