#include "elcore/el_reasoner.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "owl/el_fragment.hpp"
#include "owl/parser.hpp"
#include "parallel/cancellation.hpp"

namespace owlcl {
namespace {

struct Fixture {
  TBox tbox;
  std::unique_ptr<ElReasoner> el;

  explicit Fixture(const char* doc) {
    parseFunctionalSyntax(doc, tbox);
    tbox.freeze();
    el = std::make_unique<ElReasoner>(tbox);
    el->classify();
  }

  bool subs(const char* sup, const char* sub) const {
    return el->subsumes(tbox.findConcept(sup), tbox.findConcept(sub));
  }
  bool sat(const char* c) const { return el->isSatisfiable(tbox.findConcept(c)); }
};

TEST(ElReasoner, ToldChain) {
  Fixture f(R"(
    Ontology(
      SubClassOf(A B)
      SubClassOf(B C)
    ))");
  EXPECT_TRUE(f.subs("B", "A"));
  EXPECT_TRUE(f.subs("C", "A"));
  EXPECT_TRUE(f.subs("C", "B"));
  EXPECT_FALSE(f.subs("A", "B"));
  EXPECT_FALSE(f.subs("A", "C"));
}

TEST(ElReasoner, ReflexiveSubsumption) {
  Fixture f("Ontology(SubClassOf(A B))");
  EXPECT_TRUE(f.subs("A", "A"));
  EXPECT_TRUE(f.subs("B", "B"));
}

TEST(ElReasoner, ConjunctionIntroductionAndDecomposition) {
  // A ⊑ B ⊓ C entails A ⊑ B and A ⊑ C; D ≡ B ⊓ C entails A ⊑ D.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectIntersectionOf(B C))
      EquivalentClasses(D ObjectIntersectionOf(B C))
    ))");
  EXPECT_TRUE(f.subs("B", "A"));
  EXPECT_TRUE(f.subs("C", "A"));
  EXPECT_TRUE(f.subs("D", "A"));
  EXPECT_TRUE(f.subs("B", "D"));
  EXPECT_FALSE(f.subs("D", "B"));
}

TEST(ElReasoner, ExistentialPropagation) {
  // A ⊑ ∃r.B, B ⊑ C, ∃r.C ⊑ D  ⟹  A ⊑ D.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(r B))
      SubClassOf(B C)
      SubClassOf(ObjectSomeValuesFrom(r C) D)
    ))");
  EXPECT_TRUE(f.subs("D", "A"));
  EXPECT_FALSE(f.subs("D", "B"));
}

TEST(ElReasoner, RoleHierarchyPropagation) {
  // A ⊑ ∃r.B, r ⊑ s, ∃s.B ⊑ C  ⟹  A ⊑ C.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(r B))
      SubObjectPropertyOf(r s)
      SubClassOf(ObjectSomeValuesFrom(s B) C)
    ))");
  EXPECT_TRUE(f.subs("C", "A"));
}

TEST(ElReasoner, TransitiveRoleComposition) {
  // A ⊑ ∃r.B, B ⊑ ∃r.C, Trans(r), ∃r.C ⊑ D  ⟹  A ⊑ D.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(r B))
      SubClassOf(B ObjectSomeValuesFrom(r C))
      TransitiveObjectProperty(r)
      SubClassOf(ObjectSomeValuesFrom(r C) D)
    ))");
  EXPECT_TRUE(f.subs("D", "A"));
}

TEST(ElReasoner, TransitivityThroughHierarchy) {
  // p ⊑ t, Trans(t), t ⊑ s: A -p-> B -p-> C composes in t, flows to s.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(p B))
      SubClassOf(B ObjectSomeValuesFrom(p C))
      SubObjectPropertyOf(p t)
      TransitiveObjectProperty(t)
      SubObjectPropertyOf(t s)
      SubClassOf(ObjectSomeValuesFrom(s C) D)
    ))");
  EXPECT_TRUE(f.subs("D", "A"));
}

TEST(ElReasoner, DisjointnessMakesUnsat) {
  Fixture f(R"(
    Ontology(
      DisjointClasses(B C)
      SubClassOf(A B)
      SubClassOf(A C)
    ))");
  EXPECT_FALSE(f.sat("A"));
  EXPECT_TRUE(f.sat("B"));
  EXPECT_TRUE(f.sat("C"));
  // Unsat concepts are subsumed by everything.
  EXPECT_TRUE(f.subs("B", "A"));
  EXPECT_TRUE(f.subs("C", "A"));
}

TEST(ElReasoner, UnsatPropagatesThroughExistentials) {
  // A ⊑ ∃r.X with X unsatisfiable ⟹ A unsatisfiable.
  Fixture f(R"(
    Ontology(
      DisjointClasses(P Q)
      SubClassOf(X P)
      SubClassOf(X Q)
      SubClassOf(A ObjectSomeValuesFrom(r X))
    ))");
  EXPECT_FALSE(f.sat("X"));
  EXPECT_FALSE(f.sat("A"));
}

TEST(ElReasoner, EquivalenceCycleDetected) {
  Fixture f(R"(
    Ontology(
      SubClassOf(A B)
      SubClassOf(B C)
      SubClassOf(C A)
    ))");
  EXPECT_TRUE(f.subs("A", "C"));
  EXPECT_TRUE(f.subs("C", "A"));
  EXPECT_TRUE(f.subs("B", "A"));
  EXPECT_TRUE(f.subs("A", "B"));
}

TEST(ElReasoner, SubsumersOfListsStrictSubsumers) {
  Fixture f(R"(
    Ontology(
      SubClassOf(A B)
      SubClassOf(B C)
      SubClassOf(D C)
    ))");
  const auto subsumers = f.el->subsumersOf(f.tbox.findConcept("A"));
  EXPECT_EQ(subsumers.size(), 2u);  // B and C, not A itself, not D
}

TEST(ElReasoner, NoSpuriousSubsumptions) {
  // ∃r.B and ∃s.B must not be conflated; nor B and C.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(r B))
      SubClassOf(ObjectSomeValuesFrom(s B) D)
      SubClassOf(ObjectSomeValuesFrom(r C) E)
    ))");
  EXPECT_FALSE(f.subs("D", "A"));
  EXPECT_FALSE(f.subs("E", "A"));
}

TEST(ElReasoner, SharedStructureNormalisesOnce) {
  // The same complex filler appears twice; hash-consing + the definition
  // cache must give the same fresh atom, so both axioms interact.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(r ObjectIntersectionOf(B C)))
      SubClassOf(ObjectSomeValuesFrom(r ObjectIntersectionOf(B C)) D)
    ))");
  EXPECT_TRUE(f.subs("D", "A"));
}

TEST(ElReasoner, IsElTBoxRejectsNonEl) {
  TBox t;
  parseFunctionalSyntax("Ontology(SubClassOf(A ObjectUnionOf(B C)))", t);
  EXPECT_FALSE(isElTBox(t));
  TBox t2;
  parseFunctionalSyntax("Ontology(SubClassOf(A ObjectSomeValuesFrom(r B)))", t2);
  EXPECT_TRUE(isElTBox(t2));
  TBox t3;
  parseFunctionalSyntax("Ontology(DisjointClasses(A B))", t3);
  EXPECT_TRUE(isElTBox(t3)) << "disjointness stays in EL via bottom";
}

TEST(ElReasoner, ForEachSubsumptionMatchesPairwiseSubsumes) {
  // Equivalence cycle, derived subsumption, and an unsat concept: the
  // enumeration must agree with subsumes() on every ordered named pair,
  // with no duplicates and no reflexive pairs.
  Fixture f(R"(
    Ontology(
      SubClassOf(A B)
      SubClassOf(B A)
      SubClassOf(A ObjectSomeValuesFrom(r C))
      SubClassOf(ObjectSomeValuesFrom(r C) D)
      DisjointClasses(D E)
      SubClassOf(Bad D)
      SubClassOf(Bad E)
    ))");
  const std::size_t n = f.tbox.conceptCount();
  std::vector<std::vector<bool>> emitted(n, std::vector<bool>(n, false));
  f.el->forEachSubsumption([&](ConceptId sup, ConceptId sub) {
    ASSERT_LT(sup, n);
    ASSERT_LT(sub, n);
    EXPECT_NE(sup, sub) << "reflexive pair emitted";
    EXPECT_FALSE(emitted[sub][sup]) << "duplicate pair emitted";
    emitted[sub][sup] = true;
  });
  for (ConceptId sup = 0; sup < n; ++sup)
    for (ConceptId sub = 0; sub < n; ++sub)
      EXPECT_EQ(emitted[sub][sup], sup != sub && f.el->subsumes(sup, sub))
          << f.tbox.conceptName(sub) << " ⊑ " << f.tbox.conceptName(sup);
  // Spot checks: the cycle shows both ways, the unsat concept under all.
  EXPECT_TRUE(emitted[f.tbox.findConcept("A")][f.tbox.findConcept("B")]);
  EXPECT_TRUE(emitted[f.tbox.findConcept("B")][f.tbox.findConcept("A")]);
  EXPECT_TRUE(emitted[f.tbox.findConcept("Bad")][f.tbox.findConcept("E")]);
}

TEST(ElReasoner, MaskedConstructorConsumesOnlySelectedAxioms) {
  // A mixed TBox where the mask removes the two non-EL axioms: the masked
  // reasoner must behave exactly like one over the EL subset alone.
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      SubClassOf(A B)
      SubClassOf(B ObjectAllValuesFrom(r C))
      SubClassOf(B C)
      SubClassOf(D ObjectUnionOf(A B))
      TransitiveObjectProperty(r)
    ))",
                        t);
  t.freeze();
  std::vector<std::uint8_t> mask;
  for (const ToldAxiom& ax : t.toldAxioms())
    mask.push_back(isElSafeAxiom(t, ax) ? 1 : 0);
  ASSERT_EQ(mask, (std::vector<std::uint8_t>{1, 0, 1, 0, 1}));

  ElReasoner el(t, mask);
  el.classify();
  EXPECT_TRUE(el.subsumes(t.findConcept("B"), t.findConcept("A")));
  EXPECT_TRUE(el.subsumes(t.findConcept("C"), t.findConcept("A")));
  EXPECT_TRUE(el.subsumes(t.findConcept("C"), t.findConcept("B")));
  // The masked-out union axiom contributed nothing: D stays unrelated.
  EXPECT_FALSE(el.subsumes(t.findConcept("A"), t.findConcept("D")));
  EXPECT_FALSE(el.subsumes(t.findConcept("B"), t.findConcept("D")));
  for (ConceptId c = 0; c < t.conceptCount(); ++c)
    EXPECT_TRUE(el.isSatisfiable(c));
}

TEST(ElReasoner, TransitiveSuperRoleDisjointnessAndDefinition) {
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(r B))
      SubClassOf(B ObjectSomeValuesFrom(r C))
      TransitiveObjectProperty(r)
      SubObjectPropertyOf(r s)
      SubClassOf(ObjectSomeValuesFrom(s C) D)
      DisjointClasses(D E)
      SubClassOf(F D)
      SubClassOf(F E)
      EquivalentClasses(G ObjectIntersectionOf(A D))
    ))");
  // A →r B →r C composes to A →r C, which lifts to A →s C: A ⊑ D.
  EXPECT_TRUE(f.subs("D", "A"));
  EXPECT_FALSE(f.subs("D", "C"));
  // F sits under the disjoint D and E.
  EXPECT_FALSE(f.sat("F"));
  EXPECT_TRUE(f.sat("D"));
  EXPECT_TRUE(f.sat("E"));
  // G ≡ A ⊓ D, and A ⊑ D closes the equivalence.
  EXPECT_TRUE(f.subs("A", "G"));
  EXPECT_TRUE(f.subs("D", "G"));
  EXPECT_TRUE(f.subs("G", "A"));
}

TEST(ElReasoner, CancelledClassifyReportsNoFixpointAndResumes) {
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(r B))
      SubClassOf(ObjectSomeValuesFrom(r B) C)
    ))",
                        t);
  t.freeze();
  ElReasoner el(t);
  CancellationToken cancel;
  cancel.cancel();
  EXPECT_FALSE(el.classify(&cancel));
  cancel.reset();
  EXPECT_TRUE(el.classify(&cancel));
  EXPECT_TRUE(el.subsumes(t.findConcept("C"), t.findConcept("A")));
  EXPECT_TRUE(el.classify(&cancel));  // idempotent once classified
}

TEST(ElReasoner, DeepChainScales) {
  // 200-deep told chain; everything subsumes the leaf.
  std::string doc = "Ontology(";
  for (int i = 0; i < 200; ++i)
    doc += "SubClassOf(C" + std::to_string(i) + " C" + std::to_string(i + 1) + ")";
  doc += ")";
  Fixture f(doc.c_str());
  EXPECT_TRUE(f.subs("C200", "C0"));
  EXPECT_TRUE(f.subs("C100", "C0"));
  EXPECT_FALSE(f.subs("C0", "C200"));
}

}  // namespace
}  // namespace owlcl
