// End-to-end tests of the parallel classifier over the real tableau
// reasoner, including the paper's running example (Examples 3.1–3.3) and
// the Section IV counter-examples (Figs. 6–8) that pin down which
// prunings are sound.
#include "core/parallel_classifier.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/real_executor.hpp"
#include "core/sequential.hpp"
#include "owl/parser.hpp"
#include "reasoner/tableau_reasoner.hpp"

namespace owlcl {
namespace {

struct Fixture {
  TBox tbox;
  std::unique_ptr<TableauReasoner> reasoner;

  explicit Fixture(const std::string& doc) {
    parseFunctionalSyntax(doc, tbox);
    reasoner = std::make_unique<TableauReasoner>(tbox);
  }

  ClassificationResult classify(std::size_t workers, ClassifierConfig cfg = {}) {
    ThreadPool pool(workers);
    RealExecutor exec(pool);
    ParallelClassifier classifier(tbox, *reasoner, cfg);
    return classifier.classify(exec);
  }

  ConceptId id(const char* name) const { return tbox.findConcept(name); }
};

// The paper's running example: taxonomy of Examples 3.2/3.3 + Fig. 4 —
// A on top with direct children B and C; E under B; D, F under C.
const char* kPaperExample = R"(
  Ontology(
    SubClassOf(B A)
    SubClassOf(C A)
    SubClassOf(E B)
    SubClassOf(D C)
    SubClassOf(F C)
  ))";

TEST(ParallelClassifier, PaperExampleTaxonomyShape) {
  Fixture f(kPaperExample);
  const ClassificationResult r = f.classify(3);
  const Taxonomy& tax = r.taxonomy;

  // Direct children of A are exactly {B, C} (Fig. 4).
  const auto& aNode = tax.node(tax.nodeOf(f.id("A")));
  ASSERT_EQ(aNode.children.size(), 2u);
  EXPECT_EQ(tax.node(aNode.children[0]).members[0], f.id("B"));
  EXPECT_EQ(tax.node(aNode.children[1]).members[0], f.id("C"));

  // E is a direct child of B; D and F direct children of C.
  const auto& bNode = tax.node(tax.nodeOf(f.id("B")));
  ASSERT_EQ(bNode.children.size(), 1u);
  EXPECT_EQ(tax.node(bNode.children[0]).members[0], f.id("E"));
  const auto& cNode = tax.node(tax.nodeOf(f.id("C")));
  ASSERT_EQ(cNode.children.size(), 2u);

  // Transitive queries.
  EXPECT_TRUE(tax.subsumes(f.id("A"), f.id("E")));
  EXPECT_TRUE(tax.subsumes(f.id("A"), f.id("F")));
  EXPECT_FALSE(tax.subsumes(f.id("B"), f.id("D")));

  // A is the only root.
  EXPECT_EQ(tax.node(Taxonomy::kTopNode).children.size(), 1u);
}

TEST(ParallelClassifier, ResultsIndependentOfWorkerCount) {
  for (std::size_t w : {1u, 2u, 4u, 7u}) {
    Fixture f(kPaperExample);
    const ClassificationResult r = f.classify(w);
    EXPECT_TRUE(r.taxonomy.subsumes(f.id("A"), f.id("E"))) << "w=" << w;
    EXPECT_FALSE(r.taxonomy.subsumes(f.id("C"), f.id("E"))) << "w=" << w;
    EXPECT_EQ(r.taxonomy.nodeCount(), 2u + 6u) << "w=" << w;
  }
}

TEST(ParallelClassifier, EquivalenceDetected) {
  Fixture f(R"(
    Ontology(
      EquivalentClasses(A B)
      SubClassOf(C A)
    ))");
  const ClassificationResult r = f.classify(2);
  EXPECT_TRUE(r.taxonomy.equivalent(f.id("A"), f.id("B")));
  EXPECT_TRUE(r.taxonomy.subsumes(f.id("B"), f.id("C")));
  EXPECT_EQ(r.taxonomy.nodeCount(), 2u + 2u);  // {A,B} and {C}
}

TEST(ParallelClassifier, UnsatisfiableGoesToBottom) {
  Fixture f(R"(
    Ontology(
      DisjointClasses(P Q)
      SubClassOf(X P)
      SubClassOf(X Q)
      SubClassOf(Y X)
    ))");
  const ClassificationResult r = f.classify(2);
  EXPECT_EQ(r.taxonomy.nodeOf(f.id("X")), Taxonomy::kBottomNode);
  EXPECT_EQ(r.taxonomy.nodeOf(f.id("Y")), Taxonomy::kBottomNode)
      << "subclass of unsatisfiable is unsatisfiable";
  EXPECT_NE(r.taxonomy.nodeOf(f.id("P")), Taxonomy::kBottomNode);
}

TEST(ParallelClassifier, TerminatesWithEmptyPossible) {
  Fixture f(kPaperExample);
  const ClassificationResult r = f.classify(3);
  EXPECT_EQ(r.initialPossible, 6u * 5u);
  ASSERT_FALSE(r.cycles.empty());
  // The last division cycle must end with R_O = ∅.
  for (auto it = r.cycles.rbegin(); it != r.cycles.rend(); ++it) {
    if (it->phase == CycleStats::Phase::kHierarchy) continue;
    EXPECT_EQ(it->possibleAfter, 0u);
    break;
  }
}

TEST(ParallelClassifier, PruningSavesTests) {
  // A deep chain maximises Situation 2.3.1/2.3.2 opportunities.
  std::string doc = "Ontology(";
  for (int i = 0; i < 20; ++i)
    doc += "SubClassOf(C" + std::to_string(i + 1) + " C" + std::to_string(i) + ")";
  doc += ")";

  Fixture f(doc);
  const auto r = f.classify(2);

  // Exact chain taxonomy: Ci ⊑ Cj iff i >= j...
  for (int i = 0; i <= 20; ++i)
    for (int j = 0; j <= 20; ++j) {
      const std::string sup = "C" + std::to_string(j);
      const std::string sub = "C" + std::to_string(i);
      EXPECT_EQ(r.taxonomy.subsumes(f.id(sup.c_str()), f.id(sub.c_str())),
                i >= j)
          << sub << " ⊑ " << sup;
    }
  // ...with pairs resolved by pruning instead of reasoner calls.
  EXPECT_GT(r.prunedWithoutTest, 0u);
}

TEST(ParallelClassifier, OrderedModeMatchesSymmetricMode) {
  ClassifierConfig ordered;
  ordered.symmetricTests = false;
  Fixture f1(kPaperExample);
  const auto r1 = f1.classify(3, ordered);
  Fixture f2(kPaperExample);
  const auto r2 = f2.classify(3);
  for (const char* sup : {"A", "B", "C", "D", "E", "F"})
    for (const char* sub : {"A", "B", "C", "D", "E", "F"})
      EXPECT_EQ(r1.taxonomy.subsumes(f1.id(sup), f1.id(sub)),
                r2.taxonomy.subsumes(f2.id(sup), f2.id(sub)))
          << sup << " vs " << sub;
}

// Told equivalence rings (P ⊑ Q, Q ⊑ P, ... after freeze() expansion) put
// each member into the others' EL closure. Routing must seed every
// direction of the ring but never the diagonal, and the taxonomy must
// merge the ring into one node exactly as the unrouted run does.
TEST(ParallelClassifier, RoutingHandlesEquivalenceCycles) {
  const char* doc = R"(
    Ontology(
      EquivalentClasses(P Q R)
      SubClassOf(S P)
      SubClassOf(P T)
    ))";
  ClassifierConfig routed;
  routed.routeEl = ElRouting::kOn;
  Fixture f1(doc);
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(f1.tbox, *f1.reasoner, routed);
  const ClassificationResult r1 = classifier.classify(exec);
  Fixture f2(doc);
  const auto r2 = f2.classify(2);

  EXPECT_GT(r1.saturationSeeded, 0u);
  EXPECT_TRUE(classifier.countersConsistent());
  const PkStoreImage img = classifier.captureCheckpoint().store;
  const std::size_t n = f1.tbox.conceptCount();
  const std::size_t words = (n + 63) / 64;
  for (ConceptId x = 0; x < n; ++x)
    EXPECT_EQ((img.kWords[x * words + x / 64] >> (x % 64)) & 1u, 0u)
        << "diagonal seeded for " << f1.tbox.conceptName(x);
  EXPECT_TRUE(r1.taxonomy.equivalent(f1.id("P"), f1.id("Q")));
  EXPECT_TRUE(r1.taxonomy.equivalent(f1.id("P"), f1.id("R")));
  // Closure through the ring: S ⊑ P ≡ Q and P ⊑ T transitively.
  EXPECT_TRUE(r1.taxonomy.subsumes(f1.id("Q"), f1.id("S")));
  EXPECT_TRUE(r1.taxonomy.subsumes(f1.id("T"), f1.id("S")));
  for (ConceptId x = 0; x < n; ++x)
    for (ConceptId y = 0; y < n; ++y)
      EXPECT_EQ(r1.taxonomy.subsumes(x, y), r2.taxonomy.subsumes(x, y))
          << f1.tbox.conceptName(x) << " vs " << f1.tbox.conceptName(y);
}

// --- Section IV counter-examples -------------------------------------------
// Fig. 6(a): A ⋣ B mutually... the unsound pruning "delete all X ∈ K_A
// from P_B" would lose C ⊑ B here. The classifier must still find it.
TEST(ParallelClassifier, CounterExampleFig6aSubsumptionKept) {
  // C ⊑ A (so C ∈ K_A) and *also* C ⊑ B, with A, B incomparable.
  Fixture f(R"(
    Ontology(
      SubClassOf(C A)
      SubClassOf(C B)
    ))");
  const ClassificationResult r = f.classify(2);
  EXPECT_TRUE(r.taxonomy.subsumes(f.id("A"), f.id("C")));
  EXPECT_TRUE(r.taxonomy.subsumes(f.id("B"), f.id("C")));
  EXPECT_FALSE(r.taxonomy.subsumes(f.id("A"), f.id("B")));
  EXPECT_FALSE(r.taxonomy.subsumes(f.id("B"), f.id("A")));
}

// Fig. 8(a): F ∈ K_A, and B ⊑ F although A, B are incomparable. The
// unsound pruning "for all X ∈ K_A delete B from P_X" would lose B ⊑ F.
TEST(ParallelClassifier, CounterExampleFig8aSubsumptionKept) {
  Fixture f(R"(
    Ontology(
      SubClassOf(F A)
      SubClassOf(B F)
    ))");
  const ClassificationResult r = f.classify(2);
  EXPECT_TRUE(r.taxonomy.subsumes(f.id("F"), f.id("B")));
  EXPECT_TRUE(r.taxonomy.subsumes(f.id("A"), f.id("B")));  // via F
  EXPECT_FALSE(r.taxonomy.subsumes(f.id("B"), f.id("A")));
}

// Situation 2.3 sanity: the sound pruning direction must never lose an
// equivalence hidden below a strict subsumption.
TEST(ParallelClassifier, PruningKeepsEquivalenceBelowStrictEdge) {
  Fixture f(R"(
    Ontology(
      SubClassOf(B A)
      EquivalentClasses(E B2)
      SubClassOf(E B)
      SubClassOf(B2 B)
    ))");
  const ClassificationResult r = f.classify(2);
  EXPECT_TRUE(r.taxonomy.equivalent(f.id("E"), f.id("B2")));
  EXPECT_TRUE(r.taxonomy.subsumes(f.id("A"), f.id("E")));
}

TEST(ParallelClassifier, AgreesWithBruteForce) {
  const char* doc = R"(
    Ontology(
      SubClassOf(Cat Mammal)
      SubClassOf(Dog Mammal)
      SubClassOf(Mammal Animal)
      SubClassOf(Bird Animal)
      EquivalentClasses(Canine Dog)
      DisjointClasses(Cat Dog)
      SubClassOf(Puppy Dog)
      SubClassOf(WeirdPet ObjectIntersectionOf(Cat Dog))
    ))";
  Fixture f1(doc);
  const auto parallel = f1.classify(3);
  Fixture f2(doc);
  BruteForceClassifier brute(f2.tbox, *f2.reasoner);
  const auto oracle = brute.classify();
  const std::size_t n = f1.tbox.conceptCount();
  for (ConceptId x = 0; x < n; ++x)
    for (ConceptId y = 0; y < n; ++y)
      EXPECT_EQ(parallel.taxonomy.subsumes(x, y), oracle.taxonomy.subsumes(x, y))
          << f1.tbox.conceptName(x) << " vs " << f1.tbox.conceptName(y);
  EXPECT_EQ(parallel.taxonomy.nodeOf(f1.id("WeirdPet")), Taxonomy::kBottomNode);
}

TEST(ParallelClassifier, SpeedupMetricComputed) {
  Fixture f(kPaperExample);
  const ClassificationResult r = f.classify(2);
  EXPECT_GT(r.busyNs, 0u);
  EXPECT_GT(r.elapsedNs, 0u);
  EXPECT_GT(r.speedup(), 0.0);
  EXPECT_GT(r.satTests, 0u);
  EXPECT_GT(r.subsumptionTests, 0u);
}

}  // namespace
}  // namespace owlcl
