#include "owl/parser.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "owl/printer.hpp"

namespace owlcl {
namespace {

TEST(Parser, MinimalOntology) {
  TBox t;
  parseFunctionalSyntax("Ontology(<http://x>)", t);
  EXPECT_EQ(t.conceptCount(), 0u);
}

TEST(Parser, DeclarationsAndSubClassOf) {
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(<http://x>
      Declaration(Class(A))
      Declaration(Class(B))
      SubClassOf(A B)
    ))",
                        t);
  EXPECT_EQ(t.conceptCount(), 2u);
  ASSERT_EQ(t.toldAxioms().size(), 1u);
  EXPECT_EQ(t.toldAxioms()[0].kind, AxiomKind::kSubClassOf);
}

TEST(Parser, PrefixExpansion) {
  TBox t;
  parseFunctionalSyntax(R"(
    Prefix(ex:=<http://example.org/>)
    Ontology(
      SubClassOf(ex:A ex:B)
    ))",
                        t);
  EXPECT_NE(t.findConcept("http://example.org/A"), kInvalidConcept);
  EXPECT_NE(t.findConcept("http://example.org/B"), kInvalidConcept);
}

TEST(Parser, FullIris) {
  TBox t;
  parseFunctionalSyntax("Ontology(SubClassOf(<http://x/A> <http://x/B>))", t);
  EXPECT_NE(t.findConcept("http://x/A"), kInvalidConcept);
}

TEST(Parser, ComplexClassExpressions) {
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      SubClassOf(A ObjectIntersectionOf(B ObjectSomeValuesFrom(r C)))
      SubClassOf(B ObjectUnionOf(C ObjectComplementOf(A)))
      SubClassOf(C ObjectAllValuesFrom(r owl:Thing))
      SubClassOf(D owl:Nothing)
    ))",
                        t);
  EXPECT_EQ(t.conceptCount(), 4u);
  EXPECT_EQ(t.roles().size(), 1u);
}

TEST(Parser, CardinalityForms) {
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      SubClassOf(A ObjectMinCardinality(2 r B))
      SubClassOf(A ObjectMaxCardinality(3 r B))
      SubClassOf(A ObjectExactCardinality(1 r))
    ))",
                        t);
  const auto& f = t.exprs();
  const ExprId minC = t.toldAxioms()[0].classArgs[1];
  EXPECT_EQ(f.kind(minC), ExprKind::kAtLeast);
  EXPECT_EQ(f.node(minC).number, 2u);
  const ExprId maxC = t.toldAxioms()[1].classArgs[1];
  EXPECT_EQ(f.kind(maxC), ExprKind::kAtMost);
  // ExactCardinality(1 r) = ≥1 r.⊤ ⊓ ≤1 r.⊤ = ∃r.⊤ ⊓ ≤1 r.⊤.
  const ExprId exact = t.toldAxioms()[2].classArgs[1];
  EXPECT_EQ(f.kind(exact), ExprKind::kAnd);
}

/// The ParseError parsing `text` raises; fails the test when none is.
ParseError parseErrorOf(const std::string& text) {
  TBox t;
  try {
    parseFunctionalSyntax(text, t);
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ParseError";
  return ParseError("none", 0, 0);
}

// 2^32 used to wrap to 0, turning A ⊑ ≤2^32 r.B ⊓ ∃r.B into an
// unsatisfiable A.
TEST(Parser, CardinalityAboveTheMaximumIsALocatedError) {
  const ParseError e = parseErrorOf(
      "Ontology(\n"
      "  SubClassOf(A ObjectMaxCardinality(4294967296 r B))\n"
      "  SubClassOf(A ObjectSomeValuesFrom(r B))\n"
      ")");
  EXPECT_EQ(e.line(), 2u);
  EXPECT_EQ(e.column(), 37u);
  EXPECT_NE(std::string(e.what()).find("cardinality 4294967296 exceeds the maximum"),
            std::string::npos)
      << e.what();
}

TEST(Parser, CardinalityPastSixtyFourBitsIsALocatedError) {
  const ParseError e = parseErrorOf(
      "Ontology(SubClassOf(A ObjectMinCardinality(12345678901234567890123 r B)))");
  EXPECT_EQ(e.line(), 1u);
  EXPECT_EQ(e.column(), 44u);
  EXPECT_NE(std::string(e.what()).find("cardinality 12345678901234567890123"),
            std::string::npos)
      << e.what();
  EXPECT_EQ(parseErrorOf("Ontology(SubClassOf(A ObjectMaxCardinality(2147483648 r B)))")
                .column(),
            44u);
}

TEST(Parser, LargestCardinalityIsAccepted) {
  TBox t;
  parseFunctionalSyntax(
      "Ontology(SubClassOf(A ObjectMaxCardinality(2147483647 r B)))", t);
  ExprFactory& f = t.exprs();
  const ExprId atMost = t.toldAxioms()[0].classArgs[1];
  ASSERT_EQ(f.kind(atMost), ExprKind::kAtMost);
  EXPECT_EQ(f.node(atMost).number, kMaxCardinality);
  // ¬(≤n r.B) = ≥(n+1) r.B still fits.
  const ExprId comp = f.complementOf(atMost);
  ASSERT_EQ(f.kind(comp), ExprKind::kAtLeast);
  EXPECT_EQ(f.node(comp).number, std::uint64_t{kMaxCardinality} + 1);
}

TEST(Parser, TwoPrefixedNamesInOneAxiom) {
  TBox t;
  parseFunctionalSyntax(R"(
    Prefix(ex:=<http://example.org/>)
    Prefix(o:=<http://other.org/onto#>)
    Ontology(
      SubClassOf(ex:A o:B)
      SubClassOf(ObjectSomeValuesFrom(ex:r ex:C) o:B)
    ))",
                        t);
  EXPECT_EQ(t.conceptCount(), 3u);
  const ConceptId a = t.findConcept("http://example.org/A");
  const ConceptId b = t.findConcept("http://other.org/onto#B");
  ASSERT_NE(a, kInvalidConcept);
  ASSERT_NE(b, kInvalidConcept);
  EXPECT_NE(t.findConcept("http://example.org/C"), kInvalidConcept);
  EXPECT_NE(t.roles().find("http://example.org/r"), kInvalidRole);
  const ExprFactory& f = t.exprs();
  EXPECT_EQ(f.node(t.toldAxioms()[0].classArgs[0]).atom, a);
  EXPECT_EQ(f.node(t.toldAxioms()[0].classArgs[1]).atom, b);
}

TEST(Parser, IriAndPrefixedFormsNameOneConcept) {
  TBox t;
  parseFunctionalSyntax(R"(
    Prefix(ex:=<http://example.org/>)
    Ontology(
      Declaration(Class(<http://example.org/A>))
      SubClassOf(ex:A <http://example.org/B>)
      SubClassOf(<http://example.org/A> ex:B)
    ))",
                        t);
  EXPECT_EQ(t.conceptCount(), 2u);
  ASSERT_EQ(t.toldAxioms().size(), 2u);
  EXPECT_EQ(t.toldAxioms()[0].classArgs, t.toldAxioms()[1].classArgs);
}

TEST(Parser, EquivalentAndDisjoint) {
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      EquivalentClasses(A B C)
      DisjointClasses(D E)
    ))",
                        t);
  ASSERT_EQ(t.toldAxioms().size(), 2u);
  EXPECT_EQ(t.toldAxioms()[0].classArgs.size(), 3u);
  EXPECT_EQ(t.toldAxioms()[1].kind, AxiomKind::kDisjointClasses);
}

TEST(Parser, RoleAxioms) {
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(ObjectProperty(r))
      SubObjectPropertyOf(r s)
      TransitiveObjectProperty(s)
    ))",
                        t);
  EXPECT_EQ(t.roles().size(), 2u);
  EXPECT_TRUE(t.roles().isTransitiveDeclared(t.roles().find("s")));
}

TEST(Parser, LineCommentsIgnored) {
  TBox t;
  parseFunctionalSyntax(R"(
    # header comment
    Ontology( # trailing
      SubClassOf(A B) # another
    ))",
                        t);
  EXPECT_EQ(t.conceptCount(), 2u);
}

TEST(Parser, ErrorsCarryLocation) {
  TBox t;
  try {
    parseFunctionalSyntax("Ontology(\n  BogusAxiom(A B)\n)", t);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(Parser, RejectsUnterminatedIri) {
  TBox t;
  EXPECT_THROW(parseFunctionalSyntax("Ontology(<http://x", t), ParseError);
}

TEST(Parser, RejectsTrailingContent) {
  TBox t;
  EXPECT_THROW(parseFunctionalSyntax("Ontology() junk", t), ParseError);
}

TEST(Parser, RoundTripsThroughPrinter) {
  TBox t;
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(A))
      Declaration(Class(B))
      Declaration(ObjectProperty(r))
      SubClassOf(A ObjectSomeValuesFrom(r B))
      EquivalentClasses(B ObjectIntersectionOf(A C))
      DisjointClasses(A C)
      SubObjectPropertyOf(r s)
      TransitiveObjectProperty(s)
    ))",
                        t);
  const std::string doc = toFunctionalSyntaxDocument(t);
  TBox t2;
  parseFunctionalSyntax(doc, t2);
  EXPECT_EQ(t2.conceptCount(), t.conceptCount());
  EXPECT_EQ(t2.roles().size(), t.roles().size());
  EXPECT_EQ(t2.toldAxioms().size(), t.toldAxioms().size());
  // And the re-print is a fixpoint.
  EXPECT_EQ(toFunctionalSyntaxDocument(t2), doc);
}

}  // namespace
}  // namespace owlcl
