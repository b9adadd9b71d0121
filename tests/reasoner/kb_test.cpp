#include "reasoner/kb.hpp"

#include <gtest/gtest.h>

#include "owl/parser.hpp"

namespace owlcl {
namespace {

ReasonerKb kbOf(const char* doc, TBox& t) {
  parseFunctionalSyntax(doc, t);
  return buildKb(t);
}

TEST(KbBuilder, FreezesFactoryAndTBox) {
  TBox t;
  const ReasonerKb kb = kbOf("Ontology(SubClassOf(A B))", t);
  EXPECT_TRUE(t.frozen());
  EXPECT_TRUE(t.exprs().frozen());
  EXPECT_EQ(kb.tbox, &t);
}

TEST(KbBuilder, AtomicLhsBecomesUnfoldRule) {
  TBox t;
  const ReasonerKb kb = kbOf("Ontology(SubClassOf(A B))", t);
  const ConceptId a = t.findConcept("A");
  ASSERT_EQ(kb.unfoldPos[a].size(), 1u);
  EXPECT_EQ(kb.unfoldPos[a][0], kb.atomExpr[t.findConcept("B")]);
  EXPECT_EQ(kb.stats.internalisedGcis, 0u);
}

TEST(KbBuilder, DefinitionGetsBothDirections) {
  TBox t;
  const ReasonerKb kb =
      kbOf("Ontology(EquivalentClasses(A ObjectSomeValuesFrom(r B)))", t);
  const ConceptId a = t.findConcept("A");
  EXPECT_EQ(kb.unfoldPos[a].size(), 1u);
  EXPECT_EQ(kb.unfoldNeg[a].size(), 1u);
  EXPECT_EQ(kb.stats.negUnfoldRules, 1u);
  EXPECT_EQ(kb.stats.internalisedGcis, 0u);
}

TEST(KbBuilder, CyclicDefinitionDemotedToGci) {
  TBox t;
  const ReasonerKb kb =
      kbOf("Ontology(EquivalentClasses(A ObjectSomeValuesFrom(r A)))", t);
  // The A ⊑ ∃r.A direction stays as an unfold rule; ∃r.A ⊑ A becomes a GCI.
  const ConceptId a = t.findConcept("A");
  EXPECT_GE(kb.unfoldPos[a].size(), 1u);
  EXPECT_EQ(kb.unfoldNeg[a].size(), 0u);
  EXPECT_EQ(kb.stats.internalisedGcis, 1u);
}

TEST(KbBuilder, SecondDefinitionBlocksAbsorption) {
  TBox t;
  const ReasonerKb kb = kbOf(R"(
    Ontology(
      EquivalentClasses(A ObjectSomeValuesFrom(r B))
      EquivalentClasses(A ObjectSomeValuesFrom(r C))
    ))",
                             t);
  // A is constrained twice, so it is not purely defined: neither axiom is
  // absorbed definitionally; both C ⊑ A directions become GCIs.
  EXPECT_EQ(kb.stats.negUnfoldRules, 0u);
  EXPECT_EQ(kb.stats.internalisedGcis, 2u);
}

TEST(KbBuilder, DefinedAtomWithExtraAxiomNotAbsorbed) {
  // D ≡ D2 plus D ⊑ B: absorbing the definition would lose D2 ⊑ B (the
  // incompleteness the unfoldability restriction exists to prevent).
  TBox t;
  const ReasonerKb kb = kbOf(R"(
    Ontology(
      EquivalentClasses(D ObjectSomeValuesFrom(r X))
      SubClassOf(D B)
    ))",
                             t);
  EXPECT_EQ(kb.stats.negUnfoldRules, 0u);
  EXPECT_EQ(kb.stats.internalisedGcis, 1u);  // ∃r.X ⊑ D internalised
}

TEST(KbBuilder, BinaryAbsorption) {
  TBox t;
  const ReasonerKb kb =
      kbOf("Ontology(SubClassOf(ObjectIntersectionOf(P Q) D))", t);
  EXPECT_EQ(kb.stats.binaryAbsorbed, 1u);
  EXPECT_EQ(kb.stats.internalisedGcis, 0u);
}

TEST(KbBuilder, NonAbsorbableGciInternalised) {
  TBox t;
  const ReasonerKb kb = kbOf("Ontology(SubClassOf(ObjectSomeValuesFrom(r B) C))", t);
  EXPECT_EQ(kb.stats.internalisedGcis, 1u);
  ASSERT_EQ(kb.globalConstraints.size(), 1u);
  // ¬∃r.B ⊔ C = ∀r.¬B ⊔ C.
  EXPECT_EQ(t.exprs().kind(kb.globalConstraints[0]), ExprKind::kOr);
}

TEST(KbBuilder, ClosureHasComplementsForEverything) {
  TBox t;
  const ReasonerKb kb = kbOf(R"(
    Ontology(
      SubClassOf(A ObjectIntersectionOf(B ObjectSomeValuesFrom(r C)))
      SubClassOf(B ObjectMaxCardinality(2 r C))
    ))",
                             t);
  // compOf is dense over the frozen factory: closure members map to their
  // complement, everything else to kInvalidExpr.
  ASSERT_EQ(kb.compOf.size(), t.exprs().size());
  std::size_t members = 0;
  for (ExprId e = 0; e < kb.compOf.size(); ++e) {
    const ExprId comp = kb.compOf[e];
    if (comp == kInvalidExpr) continue;
    ++members;
    ASSERT_LT(comp, kb.compOf.size());
    EXPECT_EQ(kb.compOf[comp], e) << "complement of a closure member must "
                                     "itself have a known complement";
    EXPECT_EQ(kb.complement(e), comp);
  }
  EXPECT_GT(kb.stats.closureSize, 0u);
  EXPECT_EQ(members, kb.stats.closureSize);
}

TEST(KbBuilder, ForallPlusVariantsPreInterned) {
  TBox t;
  const ReasonerKb kb = kbOf(R"(
    Ontology(
      SubObjectPropertyOf(p t)
      TransitiveObjectProperty(t)
      SubObjectPropertyOf(t s)
      SubClassOf(A ObjectAllValuesFrom(s B))
    ))",
                             t);
  // ∀s.B must have spawned ∀t.B in the closure (t transitive, t ⊑* s).
  const RoleId tr = t.roles().find("t");
  const ExprId b = kb.atomExpr[t.findConcept("B")];
  // forall() on a frozen factory would abort if this were not interned.
  const ExprId ft = const_cast<ExprFactory&>(t.exprs()).forall(tr, b);
  EXPECT_NE(kb.compOf[ft], kInvalidExpr);
}

TEST(KbBuilder, QcrOnTransitiveRoleThrows) {
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      TransitiveObjectProperty(r)
      SubClassOf(A ObjectMaxCardinality(1 r B))
    ))",
                        t);
  EXPECT_THROW(buildKb(t), std::runtime_error);
}

TEST(KbBuilder, QcrOnRoleWithTransitiveSubRoleThrows) {
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      SubObjectPropertyOf(p r)
      TransitiveObjectProperty(p)
      SubClassOf(A ObjectMinCardinality(2 r B))
    ))",
                        t);
  EXPECT_THROW(buildKb(t), std::runtime_error);
}

TEST(KbBuilder, DisjointnessAbsorbedIntoUnfolding) {
  TBox t;
  const ReasonerKb kb = kbOf("Ontology(DisjointClasses(A B))", t);
  // A ⊑ ¬B lands in unfoldPos[A]; no GCI needed.
  EXPECT_EQ(kb.stats.internalisedGcis, 0u);
  EXPECT_EQ(kb.unfoldPos[t.findConcept("A")].size(), 1u);
}

}  // namespace
}  // namespace owlcl
