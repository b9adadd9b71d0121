// EL+ fragment detector and ⊥-module partitioner (DESIGN.md §13).
//
// The detector table below enumerates EVERY ExprKind with its expected
// EL-safety verdict, and the test fails if the enum grows past the table:
// a new node kind must be added here (and to isElSafeExpr, which rejects
// unknown kinds by construction) before it can ship. Fail closed is the
// routing soundness bar — an optimistic detector would feed the EL
// saturation axioms it is not complete for.
#include "owl/el_fragment.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "owl/parser.hpp"
#include "owl/tbox.hpp"
#include "util/rng.hpp"

namespace owlcl {
namespace {

TEST(ElSafeExpr, TableCoversEveryExprKind) {
  TBox t;
  ExprFactory& f = t.exprs();
  const ConceptId a = t.declareConcept("A");
  const ConceptId b = t.declareConcept("B");
  const RoleId r = t.declareRole("r");

  struct Row {
    ExprKind kind;
    ExprId expr;
    bool elSafe;
  };
  const Row table[] = {
      {ExprKind::kTop, f.top(), true},
      {ExprKind::kBottom, f.bottom(), true},
      {ExprKind::kAtom, f.atom(a), true},
      {ExprKind::kNot, f.negate(f.atom(a)), false},
      {ExprKind::kAnd, f.conj(f.atom(a), f.atom(b)), true},
      {ExprKind::kOr, f.disj(f.atom(a), f.atom(b)), false},
      {ExprKind::kExists, f.exists(r, f.atom(b)), true},
      {ExprKind::kForall, f.forall(r, f.atom(b)), false},
      {ExprKind::kAtLeast, f.atLeast(2, r, f.atom(b)), false},
      {ExprKind::kAtMost, f.atMost(4, r, f.atom(b)), false},
  };

  std::set<ExprKind> covered;
  for (const Row& row : table) {
    ASSERT_EQ(f.kind(row.expr), row.kind)
        << "constructor normalised away the kind this row meant to probe";
    EXPECT_EQ(isElSafeExpr(f, row.expr), row.elSafe)
        << "kind " << static_cast<int>(row.kind);
    covered.insert(row.kind);
  }
  // Exhaustiveness pin: every enum value up to the current last (kAtMost)
  // appears in the table. Growing ExprKind moves the last value past 9 and
  // fails the assertion below — extend isElSafeExpr AND this table.
  ASSERT_EQ(static_cast<int>(ExprKind::kAtMost), 9)
      << "ExprKind changed: teach isElSafeExpr the new kind (fail closed by "
         "default), then add it to this table";
  EXPECT_EQ(covered.size(), 10u);
}

TEST(ElSafeExpr, RejectsNonElNestedAnywhere) {
  TBox t;
  ExprFactory& f = t.exprs();
  const ExprId a = f.atom(t.declareConcept("A"));
  const ExprId b = f.atom(t.declareConcept("B"));
  const RoleId r = t.declareRole("r");

  EXPECT_TRUE(isElSafeExpr(f, f.exists(r, f.conj(a, b))));
  // ⊓ / ∃ are EL only if every child is: a ∀ or ¬ buried at any depth
  // poisons the whole expression.
  EXPECT_FALSE(isElSafeExpr(f, f.conj(a, f.forall(r, b))));
  EXPECT_FALSE(isElSafeExpr(f, f.exists(r, f.negate(b))));
  EXPECT_FALSE(isElSafeExpr(f, f.exists(r, f.conj(a, f.atMost(4, r, b)))));
}

TEST(ElSafeAxiom, ClassAxiomsCheckAllOperands) {
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      SubClassOf(A ObjectSomeValuesFrom(r B))
      SubClassOf(A ObjectAllValuesFrom(r B))
      EquivalentClasses(C ObjectIntersectionOf(A B))
      EquivalentClasses(D ObjectUnionOf(A B))
      DisjointClasses(A B)
      SubObjectPropertyOf(r s)
      TransitiveObjectProperty(r)
      AnnotationAssertion(rdfs:comment A "inert")
    ))",
                        t);
  const std::vector<ToldAxiom>& told = t.toldAxioms();
  const bool expected[] = {true, false, true, false, true, true, true, true};
  ASSERT_EQ(told.size(), 8u);
  for (std::size_t i = 0; i < told.size(); ++i)
    EXPECT_EQ(isElSafeAxiom(t, told[i]), expected[i]) << "axiom " << i;
}

struct PartitionFixture {
  TBox tbox;
  ElPartition part;

  explicit PartitionFixture(const char* doc) {
    parseFunctionalSyntax(doc, tbox);
    tbox.freeze();
    part = partitionElFragment(tbox);
  }
  bool pure(const char* name) const {
    return part.pureConcepts.test(tbox.findConcept(name));
  }
};

TEST(ElPartition, FullyElOntologyIsAllPure) {
  PartitionFixture f(R"(
    Ontology(
      SubClassOf(A B)
      SubClassOf(B C)
      SubClassOf(A ObjectSomeValuesFrom(r C))
      DisjointClasses(B D)
      SubObjectPropertyOf(r s)
      TransitiveObjectProperty(r)
    ))");
  EXPECT_EQ(f.part.elAxioms, 6u);
  EXPECT_EQ(f.part.nonElAxioms, 0u);
  EXPECT_FALSE(f.part.globallyTainted);
  EXPECT_EQ(f.part.pureCount, f.tbox.conceptCount());
  EXPECT_TRUE(f.part.majorityEl());
  for (std::uint8_t el : f.part.axiomEl) EXPECT_EQ(el, 1);
}

TEST(ElPartition, UniversalTaintsSubjectDescendantsAndReferrers) {
  // The ∀ axiom is in mod_⊥({A}); C ⊑ A and X ⊑ ∃s.A pull A's module
  // into theirs, so C and X are tainted too. The ∀ *filler* B, the
  // parent P and bystander Q keep all-EL modules and stay pure.
  PartitionFixture f(R"(
    Ontology(
      SubClassOf(A ObjectAllValuesFrom(r B))
      SubClassOf(C A)
      SubClassOf(A P)
      SubClassOf(X ObjectSomeValuesFrom(s A))
      SubClassOf(B Q)
    ))");
  EXPECT_FALSE(f.part.globallyTainted);
  EXPECT_EQ(f.part.elAxioms, 4u);
  EXPECT_EQ(f.part.nonElAxioms, 1u);
  EXPECT_FALSE(f.pure("A"));
  EXPECT_FALSE(f.pure("C"));
  EXPECT_FALSE(f.pure("X"));
  EXPECT_TRUE(f.pure("B"));
  EXPECT_TRUE(f.pure("P"));
  EXPECT_TRUE(f.pure("Q"));
  EXPECT_EQ(f.part.pureCount, 3u);
}

TEST(ElPartition, ComplementLhsTaintsGlobally) {
  // trig(¬A) = {always}: the non-EL axiom sits in every ⊥-module, so no
  // concept may take negative verdicts from the saturation.
  PartitionFixture f(R"(
    Ontology(
      SubClassOf(ObjectComplementOf(A) B)
      SubClassOf(C D)
    ))");
  EXPECT_TRUE(f.part.globallyTainted);
  EXPECT_EQ(f.part.pureCount, 0u);
  EXPECT_FALSE(f.pure("C"));
}

TEST(ElPartition, TopLhsNonElTaintsGlobally) {
  PartitionFixture f(R"(
    Ontology(
      SubClassOf(owl:Thing ObjectAllValuesFrom(r B))
      SubClassOf(C D)
    ))");
  EXPECT_TRUE(f.part.globallyTainted);
  EXPECT_EQ(f.part.pureCount, 0u);
}

TEST(ElPartition, MinCardinalityZeroNormalisesToTopAndStaysEl) {
  // The factory rewrites ≥0 r.B to ⊤ at construction, so the axiom
  // reaches the detector as the EL-safe ⊤ ⊑ X: nothing to taint.
  PartitionFixture f(R"(
    Ontology(
      SubClassOf(ObjectMinCardinality(0 r B) X)
      SubClassOf(C D)
    ))");
  EXPECT_EQ(f.part.nonElAxioms, 0u);
  EXPECT_FALSE(f.part.globallyTainted);
  EXPECT_EQ(f.part.pureCount, f.tbox.conceptCount());
}

TEST(ElPartition, MaxCardinalityLhsTaintsGlobally) {
  // ≤n r.B ⊥-evaluates to ⊤ when r ∉ Σ — it never vanishes, so the
  // non-EL axiom sits in every module.
  PartitionFixture f(R"(
    Ontology(
      SubClassOf(ObjectMaxCardinality(2 r B) X)
      SubClassOf(C D)
    ))");
  EXPECT_TRUE(f.part.globallyTainted);
  EXPECT_EQ(f.part.pureCount, 0u);
}

TEST(ElPartition, MaskAlignsWithToldAxiomsAndCountsExcludeAnnotations) {
  PartitionFixture f(R"(
    Ontology(
      SubClassOf(A B)
      SubClassOf(A ObjectAllValuesFrom(r C))
      AnnotationAssertion(rdfs:comment A "inert")
      DisjointClasses(B C)
    ))");
  const std::vector<ToldAxiom>& told = f.tbox.toldAxioms();
  ASSERT_EQ(f.part.axiomEl.size(), told.size());
  for (std::size_t i = 0; i < told.size(); ++i)
    EXPECT_EQ(f.part.axiomEl[i] != 0, isElSafeAxiom(f.tbox, told[i]))
        << "axiom " << i;
  // The annotation is EL-safe in the mask but counts in neither fragment.
  EXPECT_EQ(f.part.elAxioms, 2u);
  EXPECT_EQ(f.part.nonElAxioms, 1u);
  EXPECT_TRUE(f.part.majorityEl());
}

TEST(ElPartition, MajorityElFalseWhenResidualDominates) {
  PartitionFixture f(R"(
    Ontology(
      SubClassOf(A ObjectAllValuesFrom(r B))
      SubClassOf(C ObjectAllValuesFrom(r D))
      SubClassOf(E F)
    ))");
  EXPECT_EQ(f.part.elAxioms, 1u);
  EXPECT_EQ(f.part.nonElAxioms, 2u);
  EXPECT_FALSE(f.part.majorityEl());
  // Not globally tainted — the ∀ subjects have concept triggers — so the
  // bystanders stay pure even though auto-routing would decline.
  EXPECT_FALSE(f.part.globallyTainted);
  EXPECT_TRUE(f.pure("E"));
  EXPECT_TRUE(f.pure("F"));
}

// --- differential against a plain reference fixpoint -----------------------
//
// The reference recomputes the partition from the documented rules with
// std::set symbol sets and a "repeat until nothing changes" loop: no flat
// index, no worklist, no all-EL shortcut.

using SymSet = std::set<std::uint32_t>;

struct RefSymbols {
  std::uint32_t concepts;
  std::uint32_t roles;
  std::uint32_t always() const { return concepts + roles; }
  std::uint32_t role(RoleId r) const { return concepts + r; }
};

bool refElExpr(const ExprFactory& f, ExprId e) {
  switch (f.kind(e)) {
    case ExprKind::kTop:
    case ExprKind::kBottom:
    case ExprKind::kAtom:
      return true;
    case ExprKind::kAnd:
    case ExprKind::kExists: {
      bool el = true;
      for (ExprId c : f.children(e)) el = el && refElExpr(f, c);
      return el;
    }
    default:
      return false;
  }
}

/// Symbols whose absence makes e ⊥-evaluate to ⊥ (`always` = never).
SymSet refTrigger(const ExprFactory& f, const RefSymbols& sp, ExprId e) {
  const ExprNode& n = f.node(e);
  switch (n.kind) {
    case ExprKind::kTop:
      return {sp.always()};
    case ExprKind::kBottom:
      return {};
    case ExprKind::kAtom:
      return {n.atom};
    case ExprKind::kAnd: {
      // Any one conjunct's trigger: the first without `always`, else the
      // first; a conjunct with an empty trigger empties the conjunction.
      std::vector<SymSet> parts;
      for (ExprId c : f.children(e)) parts.push_back(refTrigger(f, sp, c));
      for (const SymSet& t : parts)
        if (t.empty()) return {};
      for (const SymSet& t : parts)
        if (!t.count(sp.always())) return t;
      return parts.front();
    }
    case ExprKind::kOr: {
      SymSet out;
      for (ExprId c : f.children(e)) {
        const SymSet t = refTrigger(f, sp, c);
        out.insert(t.begin(), t.end());
      }
      return out;
    }
    case ExprKind::kNot:
      if (f.kind(f.children(e)[0]) == ExprKind::kTop) return {};
      return {sp.always()};
    case ExprKind::kExists:
      return {sp.role(n.role)};
    case ExprKind::kAtLeast:
      if (n.number >= 1) return {sp.role(n.role)};
      return {sp.always()};
    case ExprKind::kForall:
    case ExprKind::kAtMost:
      return {sp.always()};
  }
  return {sp.always()};
}

void refSignature(const ExprFactory& f, const RefSymbols& sp, ExprId e,
                  SymSet& out) {
  const ExprNode& n = f.node(e);
  if (n.kind == ExprKind::kAtom) out.insert(n.atom);
  if (n.kind == ExprKind::kExists || n.kind == ExprKind::kForall ||
      n.kind == ExprKind::kAtLeast || n.kind == ExprKind::kAtMost)
    out.insert(sp.role(n.role));
  for (ExprId c : f.children(e)) refSignature(f, sp, c, out);
}

ElPartition referencePartition(const TBox& tbox) {
  const ExprFactory& f = tbox.exprs();
  const RefSymbols sp{static_cast<std::uint32_t>(tbox.conceptCount()),
                      static_cast<std::uint32_t>(tbox.roles().size())};
  ElPartition ref;
  std::vector<SymSet> trig, sig;
  for (const ToldAxiom& ax : tbox.toldAxioms()) {
    SymSet t, g;
    bool el = true;
    switch (ax.kind) {
      case AxiomKind::kSubClassOf:
        if (f.kind(ax.classArgs[1]) != ExprKind::kTop)
          t = refTrigger(f, sp, ax.classArgs[0]);
        [[fallthrough]];
      case AxiomKind::kEquivalentClasses:
      case AxiomKind::kDisjointClasses:
        for (ExprId c : ax.classArgs) {
          el = el && refElExpr(f, c);
          refSignature(f, sp, c, g);
          if (ax.kind != AxiomKind::kSubClassOf) {
            const SymSet tc = refTrigger(f, sp, c);
            t.insert(tc.begin(), tc.end());
          }
        }
        break;
      case AxiomKind::kSubObjectPropertyOf:
        t = {sp.role(ax.role1)};
        g = {sp.role(ax.role1), sp.role(ax.role2)};
        break;
      case AxiomKind::kTransitiveObjectProperty:
        t = g = {sp.role(ax.role1)};
        break;
      case AxiomKind::kAnnotation:
        break;
    }
    ref.axiomEl.push_back(el ? 1 : 0);
    if (ax.kind != AxiomKind::kAnnotation) ++(el ? ref.elAxioms : ref.nonElAxioms);
    trig.push_back(std::move(t));
    sig.push_back(std::move(g));
  }
  SymSet dangerous;
  for (bool grew = true; grew;) {
    grew = false;
    for (std::size_t i = 0; i < trig.size(); ++i) {
      bool fires = ref.axiomEl[i] == 0;
      for (std::uint32_t s : sig[i]) fires = fires || dangerous.count(s) > 0;
      if (!fires) continue;
      for (std::uint32_t s : trig[i]) grew = dangerous.insert(s).second || grew;
    }
  }
  ref.globallyTainted = dangerous.count(sp.always()) > 0;
  ref.pureConcepts = DynamicBitset(sp.concepts);
  for (std::uint32_t c = 0; c < sp.concepts; ++c)
    if (!ref.globallyTainted && !dangerous.count(c)) {
      ref.pureConcepts.set(c);
      ++ref.pureCount;
    }
  return ref;
}

void expectSamePartition(const ElPartition& got, const ElPartition& want,
                         const std::string& doc) {
  EXPECT_EQ(got.axiomEl, want.axiomEl) << doc;
  EXPECT_EQ(got.elAxioms, want.elAxioms) << doc;
  EXPECT_EQ(got.nonElAxioms, want.nonElAxioms) << doc;
  EXPECT_EQ(got.globallyTainted, want.globallyTainted) << doc;
  EXPECT_EQ(got.pureConcepts, want.pureConcepts) << doc;
  EXPECT_EQ(got.pureCount, want.pureCount) << doc;
}

/// Random functional-syntax TBoxes over C0..C5 and roles r, s, t: EL
/// axioms of every kind (with role axioms and annotations), plus, when
/// `residuals` > 0, that many non-EL axioms built from ∀, ≤, ¬ and ⊔,
/// some with a ⊤ left-hand side.
class TBoxGen {
 public:
  explicit TBoxGen(std::uint64_t seed) : rng_(seed) {}

  std::string make(int elAxioms, int residuals) {
    std::vector<std::string> axioms;
    for (int i = 0; i < elAxioms; ++i) axioms.push_back(elAxiom());
    for (int i = 0; i < residuals; ++i) axioms.push_back(residual());
    std::string doc = "Ontology(";
    for (int c = 0; c < 6; ++c) doc += " Declaration(Class(C" + std::to_string(c) + "))";
    // Shuffle so residuals do not always come last in toldAxioms().
    for (std::size_t i = axioms.size(); i > 1; --i)
      std::swap(axioms[i - 1], axioms[rng_.below(i)]);
    for (const std::string& a : axioms) doc += " " + a;
    return doc + ")";
  }

 private:
  std::string named() { return "C" + std::to_string(rng_.below(6)); }
  std::string role() { return std::string(1, "rst"[rng_.below(3)]); }

  std::string elExpr(int depth = 0) {
    switch (depth > 1 ? 0 : rng_.below(6)) {
      case 1:
        return "ObjectSomeValuesFrom(" + role() + " " + elExpr(depth + 1) + ")";
      case 2:
        return "ObjectIntersectionOf(" + elExpr(depth + 1) + " " +
               elExpr(depth + 1) + ")";
      case 3:
        return rng_.below(4) == 0 ? "owl:Thing" : named();
      default:
        return named();
    }
  }

  std::string nonElExpr(int depth = 0) {
    const std::string filler = depth > 0 ? named() : mixedExpr(depth + 1);
    switch (rng_.below(6)) {
      case 0:
        return "ObjectAllValuesFrom(" + role() + " " + filler + ")";
      case 1:
        return "ObjectMaxCardinality(" + std::to_string(1 + rng_.below(3)) + " " +
               role() + " " + filler + ")";
      case 2:
        return "ObjectComplementOf(" + filler + ")";
      case 3:
        return "ObjectUnionOf(" + named() + " " + filler + ")";
      case 4:  // buried under EL constructors
        return "ObjectSomeValuesFrom(" + role() + " " + nonElExpr(depth + 1) + ")";
      default:
        return "ObjectIntersectionOf(" + named() + " " + nonElExpr(depth + 1) + ")";
    }
  }

  std::string mixedExpr(int depth) {
    return rng_.below(2) == 0 ? elExpr(depth) : nonElExpr(depth);
  }

  std::string elAxiom() {
    switch (rng_.below(9)) {
      case 0:
        return "EquivalentClasses(" + named() + " " + elExpr() + ")";
      case 1:
        return "DisjointClasses(" + named() + " " + elExpr() + ")";
      case 2:
        return "SubObjectPropertyOf(" + role() + " " + role() + ")";
      case 3:
        return "TransitiveObjectProperty(" + role() + ")";
      case 4:
        return "AnnotationAssertion(rdfs:comment " + named() + " \"note\")";
      case 5:
        return "SubClassOf(" + elExpr() + " " + named() + ")";
      default:
        return "SubClassOf(" + named() + " " + elExpr() + ")";
    }
  }

  std::string residual() {
    switch (rng_.below(6)) {
      case 0:
        return "SubClassOf(owl:Thing " + nonElExpr() + ")";
      case 1:
        return "SubClassOf(" + nonElExpr() + " " + named() + ")";
      case 2:
        return "EquivalentClasses(" + named() + " " + nonElExpr() + ")";
      case 3:
        return "DisjointClasses(" + named() + " " + nonElExpr() + ")";
      default:
        return "SubClassOf(" + named() + " " + nonElExpr() + ")";
    }
  }

  Xoshiro256 rng_;
};

TEST(ElPartition, MatchesReferenceFixpointOnRandomMixedTBoxes) {
  std::size_t tainted = 0, someImpure = 0, somePure = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    TBoxGen gen(seed);
    const std::string doc = gen.make(6, 1 + static_cast<int>(seed % 3));
    TBox tbox;
    parseFunctionalSyntax(doc, tbox);
    tbox.freeze();
    const ElPartition got = partitionElFragment(tbox);
    const ElPartition want = referencePartition(tbox);
    expectSamePartition(got, want, doc);
    if (::testing::Test::HasFailure()) return;
    tainted += got.globallyTainted ? 1 : 0;
    someImpure += !got.globallyTainted && got.pureCount < tbox.conceptCount();
    somePure += got.pureCount > 0 ? 1 : 0;
  }
  // The corpus reaches all three outcomes.
  EXPECT_GT(tainted, 0u);
  EXPECT_GT(someImpure, 0u);
  EXPECT_GT(somePure, 0u);
}

TEST(ElPartition, AllElTBoxesReturnEveryConceptPure) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TBoxGen gen(seed);
    const std::string doc = gen.make(10, 0);
    TBox tbox;
    parseFunctionalSyntax(doc, tbox);
    tbox.freeze();
    const ElPartition got = partitionElFragment(tbox);
    EXPECT_EQ(got.nonElAxioms, 0u) << doc;
    EXPECT_FALSE(got.globallyTainted) << doc;
    EXPECT_EQ(got.pureCount, tbox.conceptCount()) << doc;
    EXPECT_EQ(got.pureConcepts.count(), tbox.conceptCount()) << doc;
    for (std::uint8_t el : got.axiomEl) EXPECT_EQ(el, 1) << doc;
    expectSamePartition(got, referencePartition(tbox), doc);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace owlcl
