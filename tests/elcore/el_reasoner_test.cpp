#include "elcore/el_reasoner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "owl/el_fragment.hpp"
#include "owl/parser.hpp"
#include "parallel/cancellation.hpp"
#include "util/bitset.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "util/rng.hpp"

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

TEST(ElReasoner, TransitiveSubRoleChainReachesSuperRoleExistential) {
  // A ⊑ ∃t.B, B ⊑ ∃t.C, ∃s.C ⊑ D, t ⊑ s, Trans(t)  ⟹  A ⊑ D.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(t B))
      SubClassOf(B ObjectSomeValuesFrom(t C))
      SubClassOf(ObjectSomeValuesFrom(s C) D)
      SubObjectPropertyOf(t s)
      TransitiveObjectProperty(t)
    ))");
  EXPECT_TRUE(f.subs("D", "A"));
  EXPECT_TRUE(f.subs("D", "B"));  // one t-step lifts to s directly
  EXPECT_FALSE(f.subs("D", "C"));
}

TEST(ElReasoner, NonTransitiveChainDoesNotCompose) {
  // The same chain without Trans(t): A reaches C in two t-steps only.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(t B))
      SubClassOf(B ObjectSomeValuesFrom(t C))
      SubClassOf(ObjectSomeValuesFrom(s C) D)
      SubObjectPropertyOf(t s)
    ))");
  EXPECT_FALSE(f.subs("D", "A"));
  EXPECT_TRUE(f.subs("D", "B"));
}

TEST(ElReasoner, PlainSubRoleLinkJoinsTransitiveSuperRoleChain) {
  // p ⊑ t, Trans(t): A -p-> B -t-> C is a t-chain, so ∃t.C ⊑ D gives
  // A ⊑ D; p itself is not transitive, so ∃p.C ⊑ E stays off A.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(p B))
      SubClassOf(B ObjectSomeValuesFrom(t C))
      SubObjectPropertyOf(p t)
      TransitiveObjectProperty(t)
      SubClassOf(ObjectSomeValuesFrom(t C) D)
      SubClassOf(ObjectSomeValuesFrom(p C) E)
    ))");
  EXPECT_TRUE(f.subs("D", "A"));
  EXPECT_TRUE(f.subs("D", "B"));
  EXPECT_FALSE(f.subs("E", "A"));
  EXPECT_FALSE(f.subs("E", "B"));
}

TEST(ElReasoner, ExistentialDefinitionIsUsedInBothDirections) {
  // C ≡ ∃r.B: A ⊑ ∃r.B2 with B2 ⊑ B puts A under C (C on the right), and
  // D ⊑ C with B ⊑ E, ∃r.E ⊑ G puts D under G (C on the left).
  Fixture f(R"(
    Ontology(
      EquivalentClasses(C ObjectSomeValuesFrom(r B))
      SubClassOf(A ObjectSomeValuesFrom(r B2))
      SubClassOf(B2 B)
      SubClassOf(D C)
      SubClassOf(B E)
      SubClassOf(ObjectSomeValuesFrom(r E) G)
    ))");
  EXPECT_TRUE(f.subs("C", "A"));
  EXPECT_TRUE(f.subs("G", "D"));
  EXPECT_TRUE(f.subs("G", "C"));
  EXPECT_TRUE(f.subs("G", "A"));
  EXPECT_FALSE(f.subs("C", "B"));
  EXPECT_FALSE(f.subs("D", "C"));
}

TEST(ElReasoner, BottomPropagatesBackAlongTransitiveChain) {
  // A -t-> B -t-> C with C under two disjoint concepts: C, B and A are
  // all unsatisfiable; an unrelated t-successor stays satisfiable.
  Fixture f(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(t B))
      SubClassOf(B ObjectSomeValuesFrom(t C))
      TransitiveObjectProperty(t)
      SubClassOf(C P)
      SubClassOf(C Q)
      DisjointClasses(P Q)
      SubClassOf(X ObjectSomeValuesFrom(t P))
    ))");
  EXPECT_FALSE(f.sat("C"));
  EXPECT_FALSE(f.sat("B"));
  EXPECT_FALSE(f.sat("A"));
  EXPECT_TRUE(f.sat("P"));
  EXPECT_TRUE(f.sat("X"));
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

/// Checks forEachSubsumption against subsumes() on every ordered named
/// pair: a satisfiable sub emits exactly its strict named subsumers, each
/// once and in ascending (sub, sup) order; an unsatisfiable sub emits
/// nothing. Returns the number of pairs emitted.
std::size_t expectClosureMatchesSubsumes(const TBox& tbox, const ElReasoner& el) {
  const std::size_t n = tbox.conceptCount();
  std::vector<DynamicBitset> emitted(n, DynamicBitset(n));
  std::size_t pairs = 0, outOfOrder = 0, duplicates = 0, reflexive = 0,
              unsatSubs = 0;
  std::uint64_t last = 0;
  el.forEachSubsumption([&](ConceptId sup, ConceptId sub) {
    ASSERT_LT(sup, n);
    ASSERT_LT(sub, n);
    const std::uint64_t key = (static_cast<std::uint64_t>(sub) << 32) | sup;
    if (pairs > 0 && key <= last) ++outOfOrder;
    last = key;
    if (sup == sub) ++reflexive;
    if (emitted[sub].test(sup)) ++duplicates;
    if (!el.isSatisfiable(sub)) ++unsatSubs;
    emitted[sub].set(sup);
    ++pairs;
  });
  EXPECT_EQ(reflexive, 0u) << "reflexive pairs emitted";
  EXPECT_EQ(duplicates, 0u) << "pairs emitted twice";
  EXPECT_EQ(outOfOrder, 0u) << "pairs out of (sub, sup) order";
  EXPECT_EQ(unsatSubs, 0u) << "pairs emitted for unsatisfiable subs";
  std::size_t mismatches = 0;
  for (ConceptId sub = 0; sub < n; ++sub)
    for (ConceptId sup = 0; sup < n; ++sup) {
      const bool want = sup != sub && el.isSatisfiable(sub) && el.subsumes(sup, sub);
      if (emitted[sub].test(sup) != want && mismatches++ == 0)
        ADD_FAILURE() << tbox.conceptName(sub) << " ⊑ " << tbox.conceptName(sup)
                      << (want ? " missing" : " emitted but not derived");
    }
  EXPECT_EQ(mismatches, 0u);
  return pairs;
}

TEST(ElReasoner, ForEachSubsumptionMatchesPairwiseSubsumes) {
  // Equivalence cycle, derived subsumption, and an unsat concept: the
  // enumeration must agree with subsumes() on every satisfiable sub, with
  // no duplicates and no reflexive pairs, and say nothing about Bad.
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
  expectClosureMatchesSubsumes(f.tbox, *f.el);
  const ConceptId bad = f.tbox.findConcept("Bad");
  ASSERT_FALSE(f.el->isSatisfiable(bad));
  EXPECT_TRUE(f.subs("A", "Bad")) << "subsumes() keeps the unsat row";
  std::vector<ConceptId> supsOf(f.tbox.conceptCount(), 0);
  f.el->forEachSubsumption([&](ConceptId, ConceptId sub) { ++supsOf[sub]; });
  // The cycle shows both ways; A and B each also reach D.
  EXPECT_EQ(supsOf[f.tbox.findConcept("A")], 2u);
  EXPECT_EQ(supsOf[f.tbox.findConcept("B")], 2u);
  EXPECT_EQ(supsOf[bad], 0u);
}

TEST(ElReasoner, ForEachSubsumptionOnMaskedAndResumedReasoners) {
  // The masked constructor: the ∀ and ⊔ axioms are invisible, the
  // disjointness still makes U unsatisfiable.
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      EquivalentClasses(A B)
      SubClassOf(B ObjectAllValuesFrom(r C))
      SubClassOf(B C)
      SubClassOf(D ObjectUnionOf(A B))
      SubClassOf(E ObjectSomeValuesFrom(r A))
      SubClassOf(ObjectSomeValuesFrom(r C) F)
      DisjointClasses(C F)
      SubClassOf(U C)
      SubClassOf(U F)
    ))",
                        t);
  t.freeze();
  std::vector<std::uint8_t> mask;
  for (const ToldAxiom& ax : t.toldAxioms())
    mask.push_back(isElSafeAxiom(t, ax) ? 1 : 0);
  ElReasoner masked(t, mask);
  ASSERT_TRUE(masked.classify());
  ASSERT_FALSE(masked.isSatisfiable(t.findConcept("U")));
  EXPECT_GT(expectClosureMatchesSubsumes(t, masked), 0u);

  // Cut short by the token, then resumed: the same closure.
  ElReasoner resumed(t, mask);
  CancellationToken cancel;
  cancel.cancel();
  ASSERT_FALSE(resumed.classify(&cancel));
  cancel.reset();
  ASSERT_TRUE(resumed.classify(&cancel));
  std::vector<std::uint64_t> a, b;
  masked.forEachSubsumption([&](ConceptId sup, ConceptId sub) {
    a.push_back((static_cast<std::uint64_t>(sub) << 32) | sup);
  });
  resumed.forEachSubsumption([&](ConceptId sup, ConceptId sub) {
    b.push_back((static_cast<std::uint64_t>(sub) << 32) | sup);
  });
  EXPECT_EQ(a, b);
  expectClosureMatchesSubsumes(t, resumed);
}

TEST(ElReasoner, ForEachSubsumptionSpansManySummaryWords) {
  // 4200 concepts put the named atoms past 4096, so S(x) has more words
  // than one summary word covers. A binary-heap hierarchy C_i ⊑ C_{i/2}
  // spreads each concept's few subsumers over far-apart words; every
  // 97th concept also sits under the last one, an equivalence cycle
  // closes the tail, and C_3 is unsatisfiable, which makes its subtree
  // unsatisfiable too.
  constexpr int kConcepts = 4200;
  std::string doc = "Ontology(";
  for (int i = 1; i < kConcepts; ++i) {
    doc += "SubClassOf(C" + std::to_string(i) + " C" + std::to_string(i / 2) + ")";
    if (i % 97 == 0)
      doc += "SubClassOf(C" + std::to_string(i) + " C" +
             std::to_string(kConcepts - 1) + ")";
  }
  doc += "EquivalentClasses(C" + std::to_string(kConcepts - 1) + " C" +
         std::to_string(kConcepts - 2) + ")";
  doc += "DisjointClasses(C1 X) SubClassOf(C3 X))";
  Fixture f(doc.c_str());
  ASSERT_FALSE(f.sat("C3"));
  ASSERT_FALSE(f.sat("C6"));
  ASSERT_TRUE(f.sat("C2"));
  EXPECT_GT(expectClosureMatchesSubsumes(f.tbox, *f.el), std::size_t{kConcepts});
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
  // A →r B →r C is an r-chain under the transitive r ⊑ s: A ⊑ D.
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

// Random small EL+⊥ TBoxes with existentials on both sides of ⊑, a role
// hierarchy p ⊑ t ⊑ s with transitive t, conjunctions, equivalences and
// disjointness: saturation must agree with the tableau on every named
// pair and every concept's satisfiability.
TEST(ElReasoner, AgreesWithTableauOnRandomElTBoxes) {
  constexpr int kConcepts = 7;
  const char* const roles[] = {"p", "t", "s"};
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Xoshiro256 rng(seed);
    auto named = [&rng] { return "C" + std::to_string(rng.below(kConcepts)); };
    auto some = [&](const std::string& filler) {
      return "ObjectSomeValuesFrom(" + std::string(roles[rng.below(3)]) + " " +
             filler + ")";
    };
    auto expr = [&]() -> std::string {
      switch (rng.below(4)) {
        case 0:
          return some(named());
        case 1:
          return "ObjectIntersectionOf(" + named() + " " + named() + ")";
        case 2:
          return some("ObjectIntersectionOf(" + named() + " " + named() + ")");
        default:
          return named();
      }
    };
    std::string doc =
        "Ontology(SubObjectPropertyOf(p t) SubObjectPropertyOf(t s) "
        "TransitiveObjectProperty(t)";
    for (int c = 0; c < kConcepts; ++c)
      doc += " Declaration(Class(C" + std::to_string(c) + "))";
    for (int i = 0; i < 9; ++i) {
      switch (rng.below(8)) {
        case 0:
          doc += " EquivalentClasses(" + named() + " " + expr() + ")";
          break;
        case 1:
          if (rng.below(3) == 0)
            doc += " DisjointClasses(" + named() + " " + named() + ")";
          break;
        case 2:
        case 3:
          doc += " SubClassOf(" + expr() + " " + named() + ")";
          break;
        default:
          doc += " SubClassOf(" + named() + " " + expr() + ")";
      }
    }
    doc += ")";

    TBox tbox;
    parseFunctionalSyntax(doc, tbox);
    tbox.freeze();
    ASSERT_TRUE(isElTBox(tbox)) << doc;
    ElReasoner el(tbox);
    ASSERT_TRUE(el.classify());
    TableauReasoner tableau(tbox);
    for (int a = 0; a < kConcepts; ++a) {
      const ConceptId ca = tbox.findConcept("C" + std::to_string(a));
      ASSERT_EQ(el.isSatisfiable(ca), tableau.isSatisfiable(ca))
          << "C" << a << " in " << doc;
      for (int b = 0; b < kConcepts; ++b) {
        const ConceptId cb = tbox.findConcept("C" + std::to_string(b));
        ASSERT_EQ(el.subsumes(cb, ca), tableau.isSubsumedBy(ca, cb))
            << "C" << a << " ⊑ C" << b << " in " << doc;
      }
    }
  }
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
