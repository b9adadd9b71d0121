#include "core/sequential.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "owl/parser.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "taxonomy/verify.hpp"

namespace owlcl {
namespace {

struct Fixture {
  TBox tbox;
  std::unique_ptr<TableauReasoner> reasoner;

  explicit Fixture(const std::string& doc) {
    parseFunctionalSyntax(doc, tbox);
    reasoner = std::make_unique<TableauReasoner>(tbox);
  }
  ConceptId id(const char* name) const { return tbox.findConcept(name); }
};

const char* kZoo = R"(
  Ontology(
    SubClassOf(Cat Mammal)
    SubClassOf(Dog Mammal)
    SubClassOf(Mammal Animal)
    SubClassOf(Bird Animal)
    SubClassOf(Penguin Bird)
    EquivalentClasses(Canine Dog)
    DisjointClasses(Cat Dog)
    SubClassOf(Impossible ObjectIntersectionOf(Cat Dog))
  ))";

TEST(BruteForce, BuildsCorrectTaxonomy) {
  Fixture f(kZoo);
  BruteForceClassifier c(f.tbox, *f.reasoner);
  const SequentialResult r = c.classify();
  EXPECT_TRUE(r.taxonomy.subsumes(f.id("Animal"), f.id("Penguin")));
  EXPECT_TRUE(r.taxonomy.equivalent(f.id("Canine"), f.id("Dog")));
  EXPECT_EQ(r.taxonomy.nodeOf(f.id("Impossible")), Taxonomy::kBottomNode);
  EXPECT_FALSE(r.taxonomy.subsumes(f.id("Cat"), f.id("Dog")));
  // n sat tests + at most n(n-1) subsumption tests.
  const std::size_t n = f.tbox.conceptCount();
  EXPECT_EQ(r.satTests, n);
  EXPECT_LE(r.subsumptionTests, n * (n - 1));
}

TEST(EnhancedTraversal, MatchesBruteForce) {
  Fixture f1(kZoo);
  BruteForceClassifier brute(f1.tbox, *f1.reasoner);
  const auto oracle = brute.classify();

  Fixture f2(kZoo);
  EnhancedTraversalClassifier et(f2.tbox, *f2.reasoner);
  const auto r = et.classify();

  const std::size_t n = f1.tbox.conceptCount();
  for (ConceptId x = 0; x < n; ++x)
    for (ConceptId y = 0; y < n; ++y)
      EXPECT_EQ(r.taxonomy.subsumes(x, y), oracle.taxonomy.subsumes(x, y))
          << f1.tbox.conceptName(x) << " vs " << f1.tbox.conceptName(y);
}

TEST(EnhancedTraversal, FewerTestsThanBruteForceOnBushyTaxonomies) {
  // 8 roots × 7 leaves: top search only descends into the one subtree
  // that subsumes the inserted concept, skipping the other 7.
  std::string doc = "Ontology(";
  for (int r = 0; r < 8; ++r) {
    doc += "Declaration(Class(R" + std::to_string(r) + "))";
    for (int l = 0; l < 7; ++l)
      doc += "SubClassOf(L" + std::to_string(r) + "_" + std::to_string(l) +
             " R" + std::to_string(r) + ")";
  }
  doc += ")";

  Fixture f1(doc);
  BruteForceClassifier brute(f1.tbox, *f1.reasoner);
  const auto rb = brute.classify();
  Fixture f2(doc);
  EnhancedTraversalClassifier et(f2.tbox, *f2.reasoner);
  const auto re = et.classify();

  EXPECT_LT(re.subsumptionTests, rb.subsumptionTests / 2)
      << "top search should skip sibling subtrees";
  EXPECT_TRUE(re.taxonomy.subsumes(f2.id("R3"), f2.id("L3_4")));
  EXPECT_FALSE(re.taxonomy.subsumes(f2.id("R2"), f2.id("L3_4")));
  EXPECT_EQ(re.taxonomy.depth(), 2u);
}

TEST(EnhancedTraversal, HandlesEquivalencesAndDiamonds) {
  Fixture f(R"(
    Ontology(
      SubClassOf(B A)
      SubClassOf(C A)
      SubClassOf(D B)
      SubClassOf(D C)
      EquivalentClasses(D D2)
    ))");
  EnhancedTraversalClassifier et(f.tbox, *f.reasoner);
  const auto r = et.classify();
  EXPECT_TRUE(r.taxonomy.equivalent(f.id("D"), f.id("D2")));
  EXPECT_TRUE(r.taxonomy.subsumes(f.id("B"), f.id("D")));
  EXPECT_TRUE(r.taxonomy.subsumes(f.id("C"), f.id("D2")));
  // D's node has both B and C as parents.
  const auto& dNode = r.taxonomy.node(r.taxonomy.nodeOf(f.id("D")));
  EXPECT_EQ(dNode.parents.size(), 2u);
}

TEST(EnhancedTraversal, AllUnsatOntology) {
  Fixture f(R"(
    Ontology(
      DisjointClasses(P Q)
      SubClassOf(X P)
      SubClassOf(X Q)
      SubClassOf(Y X)
    ))");
  EnhancedTraversalClassifier et(f.tbox, *f.reasoner);
  const auto r = et.classify();
  EXPECT_EQ(r.taxonomy.nodeOf(f.id("X")), Taxonomy::kBottomNode);
  EXPECT_EQ(r.taxonomy.nodeOf(f.id("Y")), Taxonomy::kBottomNode);
  EXPECT_NE(r.taxonomy.nodeOf(f.id("P")), Taxonomy::kBottomNode);
}

// Top/bottom search on generated ontologies with equivalences,
// disjointness and an unsatisfiable concept, checked against the
// generator's ground truth. The parameter is the generator seed.
class EnhancedTraversalGenerated
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnhancedTraversalGenerated, MatchesOracleOnGeneratedOntology) {
  GenConfig cfg;
  cfg.name = "et";
  cfg.concepts = 40;
  cfg.subClassEdges = 60;
  cfg.equivalentAxioms = 4;
  cfg.disjointAxioms = 4;
  cfg.unsatConcepts = 1;
  cfg.seed = GetParam();
  auto g = generateOntology(cfg);
  MockReasoner mock(g.truth);

  EnhancedTraversalClassifier et(*g.tbox, mock);
  const Taxonomy tax = et.classify().taxonomy;

  const TaxonomyIssues semantic =
      verifyAgainstOracle(tax, [&g](ConceptId sup, ConceptId sub) {
        return g.truth.subsumes(sup, sub);
      });
  EXPECT_TRUE(semantic.ok()) << "generator seed " << GetParam() << "\n"
                             << semantic.summary();
  const TaxonomyIssues structure = verifyStructure(tax);
  EXPECT_TRUE(structure.ok()) << structure.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnhancedTraversalGenerated,
                         ::testing::Values(31337, 1, 2, 3, 4));

}  // namespace
}  // namespace owlcl
