// Transactional delta reclassification: canonical statement handling,
// affected-cone confinement, and end-to-end add/retract transactions whose
// committed taxonomy must be byte-identical to classifying the post-delta
// ontology from scratch — including retracts of told-seeded axioms,
// EL-purity-flipping deltas, empty deltas, rollback on injected factory
// faults, multi-worker delta storms and random SHQ deltas.
#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/el_plugin.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "elcore/el_reasoner.hpp"
#include "gen/generator.hpp"
#include "owl/parser.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "taxonomy/verify.hpp"
#include "util/strings.hpp"

namespace owlcl {
namespace {

// --- canonical statement units ----------------------------------------------

TEST(DeltaStatements, CanonicalizeNormalizesSpelling) {
  std::string a, b, err;
  ASSERT_TRUE(canonicalizeStatement("SubClassOf(A   B)", &a, &err)) << err;
  ASSERT_TRUE(canonicalizeStatement("SubClassOf( A\n B )", &b, &err)) << err;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "SubClassOf(A B)");

  std::string decl;
  ASSERT_TRUE(canonicalizeStatement("Declaration(Class(X))", &decl, &err));
  EXPECT_EQ(decl, "Declaration(Class(X))");

  // Full-IRI names round-trip through <> bracketing.
  std::string iri;
  ASSERT_TRUE(canonicalizeStatement(
      "SubClassOf(<http://ex.org/onto#A> <http://ex.org/onto#B>)", &iri, &err))
      << err;
  EXPECT_EQ(iri, "SubClassOf(<http://ex.org/onto#A> <http://ex.org/onto#B>)");

  std::string out;
  EXPECT_FALSE(canonicalizeStatement("SubClassOf(A", &out, &err));
  EXPECT_FALSE(canonicalizeStatement("", &out, &err));
}

TEST(DeltaStatements, ApplyStagedOpsAddsAppendRetractsRemoveFirstMatch) {
  std::vector<std::string> stmts{
      "Declaration(Class(A))",
      "Declaration(Class(B))",
      "SubClassOf(A B)",
  };
  std::string err;
  ASSERT_TRUE(applyStagedOps(stmts, {{true, "SubClassOf(B A)"}}, &err)) << err;
  EXPECT_EQ(stmts.back(), "SubClassOf(B A)");
  ASSERT_TRUE(applyStagedOps(stmts, {{false, "SubClassOf(A B)"}}, &err));
  EXPECT_EQ(stmts.size(), 3u);

  EXPECT_FALSE(applyStagedOps(stmts, {{false, "SubClassOf(A B)"}}, &err));
  EXPECT_NE(err.find("retract does not match"), std::string::npos);
  EXPECT_FALSE(applyStagedOps(stmts, {{false, "Declaration(Class(A))"}}, &err));
  EXPECT_NE(err.find("declaration"), std::string::npos);
}

TEST(DeltaStatements, StatementListRoundTripsIriNames) {
  TBox t;
  parseFunctionalSyntax(R"(
    Prefix(ex:=<http://ex.org/onto#>)
    Ontology(
      Declaration(Class(ex:A)) Declaration(Class(ex:B))
      Declaration(ObjectProperty(ex:r))
      SubClassOf(ObjectSomeValuesFrom(ex:r ex:A) ex:B)
    ))",
                        t);
  const std::vector<std::string> stmts = statementsFromTBox(t);
  TBox back;
  std::string err;
  ASSERT_TRUE(buildTBoxFromStatements(stmts, back, &err)) << err;
  EXPECT_EQ(back.conceptCount(), t.conceptCount());
  EXPECT_EQ(back.findConcept("http://ex.org/onto#A"), ConceptId{0});
  // Canonical text is a fixed point: regenerating gives the same list.
  EXPECT_EQ(statementsFromTBox(back), stmts);
}

// --- affected cone -----------------------------------------------------------

/// Cone of applying `ops` to the ontology `base`.
ConeResult coneOf(const char* base, const std::vector<StagedOp>& ops,
                  TBox& newT) {
  TBox oldT;
  parseFunctionalSyntax(base, oldT);
  std::vector<std::string> stmts = statementsFromTBox(oldT);
  std::string err;
  EXPECT_TRUE(applyStagedOps(stmts, ops, &err)) << err;
  EXPECT_TRUE(buildTBoxFromStatements(stmts, newT, &err)) << err;
  return computeAffectedCone(oldT, newT);
}

std::vector<std::string> coneNames(const ConeResult& cone, const TBox& t) {
  std::vector<std::string> names;
  for (const ConceptId c : cone.cone) names.push_back(t.conceptName(c));
  std::sort(names.begin(), names.end());
  return names;
}

TEST(DeltaCone, ConeConfinedToSignatureComponent) {
  TBox newT;
  const ConeResult cone = coneOf(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(C))
      Declaration(Class(X)) Declaration(Class(Y))
      SubClassOf(B A)
      SubClassOf(Y X)
    ))",
                                 {{true, "SubClassOf(C B)"}}, newT);
  EXPECT_FALSE(cone.fullCone);
  EXPECT_EQ(cone.changedAxioms, 1u);
  // Only C's ⊥-module gains the axiom: A and B keep their subsumers.
  EXPECT_EQ(coneNames(cone, newT), (std::vector<std::string>{"C"}));
  // The {X,Y} component shares no signature with the delta.
  const auto has = [&](const char* name) {
    const ConceptId id = newT.findConcept(name);
    return std::find(cone.cone.begin(), cone.cone.end(), id) !=
           cone.cone.end();
  };
  EXPECT_FALSE(has("X"));
  EXPECT_FALSE(has("Y"));
}

// A domain axiom (∃r.⊤ on the left) is ⊥-local: it enters only the
// modules that hold r, so it does not widen an unrelated delta's cone.
TEST(DeltaCone, DomainAxiomDoesNotForceFullCone) {
  TBox newT;
  const ConeResult cone = coneOf(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(C))
      Declaration(Class(Y)) Declaration(Class(Z))
      Declaration(ObjectProperty(r))
      SubClassOf(B A)
      SubClassOf(ObjectSomeValuesFrom(r owl:Thing) A)
      SubClassOf(Z Y)
    ))",
                                 {{true, "SubClassOf(C B)"}}, newT);
  EXPECT_FALSE(cone.fullCone);
  EXPECT_EQ(coneNames(cone, newT), (std::vector<std::string>{"C"}));
}

// Retracting an inner edge reaches the retracted edge's subsumee and
// everything below it in the OLD TBox, but not the edge's subsumer.
TEST(DeltaCone, InnerEdgeRetractReachesSubsumeesOnly) {
  TBox newT;
  const ConeResult cone = coneOf(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(C))
      SubClassOf(B A)
      SubClassOf(C B)
    ))",
                                 {{false, "SubClassOf(B A)"}}, newT);
  EXPECT_FALSE(cone.fullCone);
  EXPECT_EQ(cone.changedAxioms, 1u);
  EXPECT_EQ(coneNames(cone, newT), (std::vector<std::string>{"B", "C"}));
}

// A new role inclusion r ⊑ s reaches every concept whose module holds an
// ∃r: A (told ∃r) and F below it. B, the ∃r filler, E and the ∃s-users
// keep their subsumers.
TEST(DeltaCone, RoleInclusionReachesExistentialUsers) {
  TBox newT;
  const ConeResult cone = coneOf(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(E))
      Declaration(Class(F)) Declaration(Class(G)) Declaration(Class(X))
      Declaration(ObjectProperty(r)) Declaration(ObjectProperty(s))
      SubClassOf(A ObjectSomeValuesFrom(r B))
      SubClassOf(F A)
      SubClassOf(ObjectSomeValuesFrom(s B) E)
      SubClassOf(G ObjectSomeValuesFrom(s B))
      SubClassOf(X E)
    ))",
                                 {{true, "SubObjectPropertyOf(r s)"}}, newT);
  EXPECT_FALSE(cone.fullCone);
  EXPECT_EQ(coneNames(cone, newT), (std::vector<std::string>{"A", "F"}));
}

TEST(DeltaCone, UngroundedAxiomForcesFullCone) {
  TBox oldT;
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(X))
      SubClassOf(B A)
    ))",
                        oldT);
  std::vector<std::string> stmts = statementsFromTBox(oldT);
  std::string err;
  // ⊤ on the left is not ⊥-local: its effects reach every concept.
  ASSERT_TRUE(applyStagedOps(stmts, {{true, "SubClassOf(owl:Thing A)"}}, &err))
      << err;
  TBox newT;
  ASSERT_TRUE(buildTBoxFromStatements(stmts, newT, &err)) << err;
  const ConeResult cone = computeAffectedCone(oldT, newT);
  EXPECT_TRUE(cone.fullCone);
  EXPECT_EQ(cone.cone.size(), newT.conceptCount());
}

// --- end-to-end transactions -------------------------------------------------

template <typename T>
std::shared_ptr<T> noOwn(T* p) {
  return std::shared_ptr<T>(p, [](T*) {});
}

std::string taxString(const Taxonomy& tax, const TBox& tbox) {
  std::ostringstream ss;
  tax.print(ss, tbox);
  return ss.str();
}

/// Generation 0 plus the harness that drives it.
struct Rig {
  explicit Rig(std::size_t workers, ClassifierConfig config = {})
      : pool(workers), exec(pool), config(config) {}

  void classifyBase() {
    reasoner = std::make_unique<TableauReasoner>(tbox);
    classifier =
        std::make_unique<ParallelClassifier>(tbox, *reasoner, config);
    result = classifier->classify(exec);
    ASSERT_TRUE(result.complete());
  }

  /// DeltaReclassifier over generation 0 with a tableau factory.
  std::unique_ptr<DeltaReclassifier> makeDelta() {
    auto delta = std::make_unique<DeltaReclassifier>(
        exec,
        [](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
          return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
        },
        config);
    delta->adoptInitial(noOwn<const TBox>(&tbox),
                        noOwn<ReasonerPlugin>(reasoner.get()),
                        noOwn<ParallelClassifier>(classifier.get()),
                        noOwn<const ClassificationResult>(&result));
    return delta;
  }

  /// Classifies the delta's CURRENT statement list from scratch and
  /// returns the taxonomy rendering — the oracle every commit must match.
  std::string scratchTaxonomy(const std::vector<std::string>& stmts) {
    TBox t;
    std::string err;
    EXPECT_TRUE(buildTBoxFromStatements(stmts, t, &err)) << err;
    TableauReasoner r(t);
    ParallelClassifier c(t, r, config);
    const ClassificationResult res = c.classify(exec);
    EXPECT_TRUE(res.complete());
    return taxString(res.taxonomy, t);
  }

  std::string generationTaxonomy(DeltaReclassifier& delta) {
    const DeltaGeneration gen = delta.generation();
    return taxString(gen.result->taxonomy, *gen.tbox);
  }

  ThreadPool pool;
  RealExecutor exec;
  ClassifierConfig config;
  TBox tbox;
  std::unique_ptr<TableauReasoner> reasoner;
  std::unique_ptr<ParallelClassifier> classifier;
  ClassificationResult result;
};

constexpr const char* kSmallOntology = R"(
  Ontology(
    Declaration(Class(Person)) Declaration(Class(Student))
    Declaration(Class(Employee)) Declaration(Class(Course))
    Declaration(ObjectProperty(takes))
    SubClassOf(Student Person)
    SubClassOf(Employee Person)
    SubClassOf(ObjectSomeValuesFrom(takes Course) Student)
  ))";

TEST(DeltaReclassify, CommitMatchesFromScratch) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("Declaration(Class(PhdStudent))", &err)) << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(PhdStudent Student)", &err)) << err;
  ASSERT_TRUE(delta->stageRetract("SubClassOf(Employee Person)", &err)) << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
  EXPECT_EQ(info.deltaEpoch, 1u);
  EXPECT_EQ(info.conceptCount, rig.tbox.conceptCount() + 1);
  EXPECT_FALSE(delta->txnOpen());

  const DeltaGeneration gen = delta->generation();
  EXPECT_TRUE(gen.classifier->countersConsistent());
  EXPECT_TRUE(gen.result->taxonomy.subsumes(
      gen.tbox->findConcept("Student"), gen.tbox->findConcept("PhdStudent")));
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

// Every committed generation carries the query snapshot compiled from
// its own taxonomy, stamped with its delta epoch.
TEST(DeltaReclassify, EveryCommitCompilesItsSnapshot) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  std::string err;
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    const std::string name = "Extra" + std::to_string(epoch);
    ASSERT_TRUE(delta->beginTxn(&err)) << err;
    ASSERT_TRUE(delta->stageAdd("Declaration(Class(" + name + "))", &err))
        << err;
    ASSERT_TRUE(delta->stageAdd("SubClassOf(" + name + " Employee)", &err))
        << err;
    ASSERT_TRUE(delta->commitTxn(nullptr, &err)) << err;

    const DeltaGeneration gen = delta->generation();
    EXPECT_EQ(gen.deltaEpoch, epoch);
    ASSERT_NE(gen.snapshot, nullptr) << "epoch " << epoch;
    EXPECT_EQ(gen.snapshot->stats().generation, epoch);
    EXPECT_TRUE(gen.snapshot->complete());
    EXPECT_EQ(gen.snapshot->conceptCount(), gen.tbox->conceptCount());
    const ConceptId added = gen.tbox->findConcept(name);
    EXPECT_TRUE(gen.snapshot->subsumes(gen.tbox->findConcept("Person"), added))
        << name;
  }
}

TEST(DeltaReclassify, EmptyDeltaCommitsAsNoOp) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();
  const std::string before = rig.generationTaxonomy(*delta);

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
  EXPECT_EQ(info.coneSize, 0u);
  EXPECT_EQ(info.deltaEpoch, 1u);
  EXPECT_EQ(rig.generationTaxonomy(*delta), before);
  EXPECT_TRUE(delta->generation().classifier->countersConsistent());
}

// Builds a hierarchy one concept per transaction; every generation must
// match the from-scratch oracle, including the splice of B between A
// and C.
TEST(DeltaReclassify, StepwiseConceptAdditionsMatchFromScratch) {
  Rig rig(2);
  parseFunctionalSyntax("Ontology(Declaration(Class(C)))", rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  const std::vector<std::vector<std::string>> steps = {
      {"Declaration(Class(A))", "SubClassOf(C A)"},
      {"Declaration(Class(B))", "SubClassOf(C B)", "SubClassOf(B A)"},
      {"Declaration(Class(D))", "SubClassOf(D A)"},
  };
  std::string err;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    ASSERT_TRUE(delta->beginTxn(&err)) << err;
    for (const std::string& stmt : steps[i])
      ASSERT_TRUE(delta->stageAdd(stmt, &err)) << err;
    DeltaCommitInfo info;
    ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
    EXPECT_EQ(info.conceptCount, i + 2);
    EXPECT_TRUE(delta->generation().classifier->countersConsistent());
    ASSERT_EQ(rig.generationTaxonomy(*delta),
              rig.scratchTaxonomy(delta->statements()))
        << "step " << i;
  }

  const DeltaGeneration gen = delta->generation();
  const Taxonomy& tax = gen.result->taxonomy;
  const auto id = [&gen](const char* n) { return gen.tbox->findConcept(n); };
  EXPECT_TRUE(tax.subsumes(id("A"), id("C")));
  EXPECT_TRUE(tax.subsumes(id("B"), id("C")));
  EXPECT_TRUE(tax.subsumes(id("A"), id("B")));
  EXPECT_FALSE(tax.subsumes(id("B"), id("D")));
  const TaxonomyIssues issues = verifyStructure(tax);
  EXPECT_TRUE(issues.ok()) << issues.summary();
}

// Re-asserting an axiom that is already told changes nothing, and
// retracting one of the two copies leaves the other in force.
TEST(DeltaReclassify, DuplicateAddKeepsTaxonomy) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();
  const std::string before = rig.generationTaxonomy(*delta);

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(Student Person)", &err)) << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
  EXPECT_EQ(rig.generationTaxonomy(*delta), before);

  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageRetract("SubClassOf(Student Person)", &err)) << err;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
  EXPECT_EQ(info.deltaEpoch, 2u);
  EXPECT_EQ(rig.generationTaxonomy(*delta), before);
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

TEST(DeltaReclassify, AddedUnsatConceptGoesToBottom) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("DisjointClasses(Student Employee)", &err))
      << err;
  ASSERT_TRUE(delta->stageAdd("Declaration(Class(WorkingStudent))", &err))
      << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(WorkingStudent Student)", &err))
      << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(WorkingStudent Employee)", &err))
      << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;

  const DeltaGeneration gen = delta->generation();
  const Taxonomy& tax = gen.result->taxonomy;
  EXPECT_EQ(tax.nodeOf(gen.tbox->findConcept("WorkingStudent")),
            Taxonomy::kBottomNode);
  EXPECT_NE(tax.nodeOf(gen.tbox->findConcept("Student")),
            Taxonomy::kBottomNode);
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

TEST(DeltaReclassify, AddedEquivalenceJoinsClasses) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("Declaration(Class(Learner))", &err)) << err;
  ASSERT_TRUE(delta->stageAdd("EquivalentClasses(Learner Student)", &err))
      << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;

  const DeltaGeneration gen = delta->generation();
  const Taxonomy& tax = gen.result->taxonomy;
  const auto id = [&gen](const char* n) { return gen.tbox->findConcept(n); };
  EXPECT_TRUE(tax.equivalent(id("Learner"), id("Student")));
  EXPECT_TRUE(tax.subsumes(id("Person"), id("Learner")));
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

// ⊤ ⊑ Course is in every ⊥-module: the commit reruns every concept and
// each one gains the subsumer.
TEST(DeltaReclassify, GlobalAxiomRerunsEveryConcept) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(owl:Thing Course)", &err)) << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
  EXPECT_TRUE(info.fullCone);
  EXPECT_EQ(info.coneSize, info.conceptCount);

  const DeltaGeneration gen = delta->generation();
  EXPECT_TRUE(gen.result->taxonomy.subsumes(gen.tbox->findConcept("Course"),
                                            gen.tbox->findConcept("Person")));
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

TEST(DeltaReclassify, AbortLeavesGenerationUntouched) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();
  const std::string before = rig.generationTaxonomy(*delta);
  const std::vector<std::string> stmtsBefore = delta->statements();

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(Course Person)", &err)) << err;
  ASSERT_TRUE(delta->abortTxn(&err)) << err;
  EXPECT_FALSE(delta->txnOpen());
  EXPECT_EQ(delta->deltaEpoch(), 0u);
  EXPECT_EQ(delta->statements(), stmtsBefore);
  EXPECT_EQ(rig.generationTaxonomy(*delta), before);
  // The same generation objects are still adopted (no swap happened).
  EXPECT_EQ(delta->generation().classifier.get(), rig.classifier.get());
}

TEST(DeltaReclassify, BadRetractRollsBackAndTxnCanBeRetried) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();
  const std::string before = rig.generationTaxonomy(*delta);

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageRetract("SubClassOf(Course Student)", &err)) << err;
  DeltaCommitInfo info;
  EXPECT_FALSE(delta->commitTxn(&info, &err));
  EXPECT_NE(err.find("retract does not match"), std::string::npos) << err;
  EXPECT_FALSE(delta->txnOpen());  // rolled back, not left open
  EXPECT_EQ(delta->deltaEpoch(), 0u);
  EXPECT_EQ(rig.generationTaxonomy(*delta), before);
  EXPECT_TRUE(delta->generation().classifier->countersConsistent());

  // The reclassifier is not poisoned: a corrected transaction commits.
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(Course Person)", &err)) << err;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
  EXPECT_EQ(info.deltaEpoch, 1u);
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

TEST(DeltaReclassify, FactoryFaultRollsBackToPreDeltaGeneration) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();

  bool injectFault = true;
  DeltaReclassifier delta(
      rig.exec,
      [&injectFault](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
        if (injectFault) throw std::runtime_error("injected factory fault");
        return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
      },
      rig.config);
  delta.adoptInitial(noOwn<const TBox>(&rig.tbox),
                     noOwn<ReasonerPlugin>(rig.reasoner.get()),
                     noOwn<ParallelClassifier>(rig.classifier.get()),
                     noOwn<const ClassificationResult>(&rig.result));
  const std::string before = rig.generationTaxonomy(delta);

  std::string err;
  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageAdd("SubClassOf(Course Person)", &err)) << err;
  DeltaCommitInfo info;
  EXPECT_FALSE(delta.commitTxn(&info, &err));
  EXPECT_NE(err.find("injected factory fault"), std::string::npos) << err;
  EXPECT_EQ(delta.deltaEpoch(), 0u);
  EXPECT_EQ(rig.generationTaxonomy(delta), before);
  EXPECT_TRUE(delta.generation().classifier->countersConsistent());

  // Same staged delta, healthy factory: commits cleanly after the fault.
  injectFault = false;
  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageAdd("SubClassOf(Course Person)", &err)) << err;
  ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
  EXPECT_EQ(rig.generationTaxonomy(delta),
            rig.scratchTaxonomy(delta.statements()));
}

TEST(DeltaReclassify, RetractOfToldSeededAxiomMatchesFromScratch) {
  ClassifierConfig cfg;
  cfg.routeEl = ElRouting::kOn;  // the retracted edge is seeded into K
  Rig rig(2, cfg);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  EXPECT_GT(rig.result.saturationSeeded, 0u);
  auto delta = rig.makeDelta();

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageRetract("SubClassOf(Student Person)", &err)) << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;

  const DeltaGeneration gen = delta->generation();
  EXPECT_FALSE(gen.result->taxonomy.subsumes(
      gen.tbox->findConcept("Person"), gen.tbox->findConcept("Student")));
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
  const TaxonomyIssues issues = verifyStructure(gen.result->taxonomy);
  EXPECT_TRUE(issues.ok()) << issues.summary();
}

TEST(DeltaReclassify, ElPurityFlippingDeltaSwitchesBackend) {
  // EL-only base; the factory routes pure-EL generations to the EL
  // saturation backend and everything else to the tableau — the delta
  // adds a ¬ axiom (flips purity off), then retracts it (flips it back).
  Rig rig(2);
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(C))
      Declaration(ObjectProperty(r))
      SubClassOf(A B)
      SubClassOf(ObjectSomeValuesFrom(r A) C)
    ))",
                        rig.tbox);
  rig.classifyBase();

  int elBuilds = 0, tableauBuilds = 0;
  DeltaReclassifier delta(
      rig.exec,
      [&](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
        const_cast<TBox&>(t).freeze();  // idempotent; EL check needs it
        if (isElTBox(t)) {
          ++elBuilds;
          return std::make_shared<ElPlugin>(t);
        }
        ++tableauBuilds;
        return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
      },
      rig.config);
  delta.adoptInitial(noOwn<const TBox>(&rig.tbox),
                     noOwn<ReasonerPlugin>(rig.reasoner.get()),
                     noOwn<ParallelClassifier>(rig.classifier.get()),
                     noOwn<const ClassificationResult>(&rig.result));

  std::string err;
  DeltaCommitInfo info;
  const char* nonEl = "SubClassOf(ObjectComplementOf(A) C)";
  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageAdd(nonEl, &err)) << err;
  ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
  EXPECT_EQ(tableauBuilds, 1);
  EXPECT_EQ(rig.generationTaxonomy(delta),
            rig.scratchTaxonomy(delta.statements()));

  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageRetract(nonEl, &err)) << err;
  ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
  EXPECT_EQ(elBuilds, 1);
  EXPECT_EQ(delta.deltaEpoch(), 2u);
  EXPECT_EQ(rig.generationTaxonomy(delta),
            rig.scratchTaxonomy(delta.statements()));
}

// Random add/retract storm over a generated ontology; every commit must
// match the from-scratch oracle byte-for-byte. Runs with 4 workers so CI's
// TSan configuration exercises the concurrent rerun paths.
TEST(DeltaReclassify, DeltaStormMatchesFromScratchMultiWorker) {
  GenConfig gc;
  gc.name = "delta-storm";
  gc.concepts = 30;
  gc.subClassEdges = 45;
  gc.roles = 3;
  gc.existentialAxioms = 10;
  gc.equivalentAxioms = 2;
  gc.seed = 11;
  const GeneratedOntology g = generateOntology(gc);

  Rig rig(4);
  {
    std::string err;
    ASSERT_TRUE(buildTBoxFromStatements(statementsFromTBox(*g.tbox), rig.tbox,
                                        &err))
        << err;
  }
  rig.classifyBase();
  auto delta = rig.makeDelta();

  std::mt19937_64 rng(1234);
  std::string err;
  for (int txn = 0; txn < 4; ++txn) {
    ASSERT_TRUE(delta->beginTxn(&err)) << err;
    // Adds: fresh subclass edges between existing concepts + one new
    // concept per transaction. Retracts: a currently-asserted axiom.
    const std::vector<std::string> stmts = delta->statements();
    std::vector<std::string> axioms;
    for (const std::string& s : stmts)
      if (s.rfind("SubClassOf(", 0) == 0) axioms.push_back(s);
    ASSERT_FALSE(axioms.empty());
    const std::string victim = axioms[rng() % axioms.size()];
    ASSERT_TRUE(delta->stageRetract(victim, &err)) << err << " " << victim;

    const std::string fresh = "S" + std::to_string(txn);
    ASSERT_TRUE(delta->stageAdd("Declaration(Class(" + fresh + "))", &err));
    const ConceptId a = static_cast<ConceptId>(rng() % rig.tbox.conceptCount());
    ASSERT_TRUE(delta->stageAdd(
        "SubClassOf(" + fresh + " " + rig.tbox.conceptName(a) + ")", &err))
        << err;

    DeltaCommitInfo info;
    ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
    EXPECT_EQ(info.deltaEpoch, static_cast<std::uint64_t>(txn + 1));
    EXPECT_TRUE(delta->generation().classifier->countersConsistent());
    ASSERT_EQ(rig.generationTaxonomy(*delta),
              rig.scratchTaxonomy(delta->statements()))
        << "txn " << txn << " diverged from the from-scratch oracle";
  }
}

// --- random differential deltas ---------------------------------------------

/// Random SHQ statements over C0..C{n-1} and four roles. r0/r1 stay simple
/// (the only roles under ≥/≤, whose fillers are atoms); r2/r3 may be
/// transitive and only reach ∃/∀. Role inclusions point one way, so the
/// hierarchy stays acyclic.
class RandomStatements {
 public:
  RandomStatements(std::uint64_t seed, std::size_t concepts)
      : rng_(seed), concepts_(concepts) {}

  std::vector<std::string> ontology(std::size_t axioms) {
    std::vector<std::string> stmts;
    for (std::size_t i = 0; i < concepts_; ++i)
      stmts.push_back("Declaration(Class(" + atom(i) + "))");
    for (const char* r : {"r0", "r1", "r2", "r3"})
      stmts.push_back(std::string("Declaration(ObjectProperty(") + r + "))");
    for (std::size_t i = 0; i < axioms; ++i) stmts.push_back(axiom());
    return stmts;
  }

  std::string axiom() {
    switch (pick(12)) {
      case 0:
        return "SubClassOf(" + expr(2) + " " + randomAtom() + ")";
      case 1:
        return "EquivalentClasses(" + randomAtom() + " " + expr(2) + ")";
      case 2:
        return "DisjointClasses(" + randomAtom() + " " + randomAtom() + ")";
      case 3:
        return "SubClassOf(ObjectSomeValuesFrom(" + role(4) +
               " owl:Thing) " + randomAtom() + ")";
      case 4: {
        static const char* kInclusions[] = {"r0 r1", "r2 r3", "r0 r2",
                                            "r1 r3"};
        return std::string("SubObjectPropertyOf(") + kInclusions[pick(4)] +
               ")";
      }
      case 5:
        return std::string("TransitiveObjectProperty(") +
               (pick(2) == 0 ? "r2" : "r3") + ")";
      default:
        return "SubClassOf(" + randomAtom() + " " + expr(2) + ")";
    }
  }

  std::size_t pick(std::size_t n) { return rng_() % n; }
  std::string randomAtom() { return atom(pick(concepts_)); }
  static std::string atom(std::size_t i) { return strprintf("C%zu", i); }

 private:
  std::string role(std::size_t n) { return strprintf("r%zu", pick(n)); }

  std::string expr(int depth) {
    if (depth == 0) return randomAtom();
    const std::string n = std::to_string(1 + pick(2));
    switch (pick(9)) {
      case 0:
        return "ObjectIntersectionOf(" + expr(depth - 1) + " " +
               expr(depth - 1) + ")";
      case 1:
        return "ObjectUnionOf(" + expr(depth - 1) + " " + expr(depth - 1) +
               ")";
      case 2:
        return "ObjectComplementOf(" + expr(depth - 1) + ")";
      case 3:
        return "ObjectSomeValuesFrom(" + role(4) + " " + expr(depth - 1) +
               ")";
      case 4:
        return "ObjectAllValuesFrom(" + role(4) + " " + expr(depth - 1) + ")";
      case 5:
        return "ObjectMinCardinality(" + n + " " + role(2) + " " +
               randomAtom() + ")";
      case 6:
        return "ObjectMaxCardinality(" + n + " " + role(2) + " " +
               randomAtom() + ")";
      default:
        return randomAtom();
    }
  }

  std::mt19937_64 rng_;
  std::size_t concepts_;
};

// Random add/retract commits on small random SHQ TBoxes: every committed
// taxonomy must byte-equal the from-scratch one, and the cones must not
// all be full (the differential would then test nothing the full rerun
// does not).
TEST(DeltaReclassify, RandomDeltasMatchFromScratch) {
  std::size_t commits = 0, partialCones = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    RandomStatements gen(seed, 16);
    Rig rig(2);
    std::string err;
    ASSERT_TRUE(buildTBoxFromStatements(gen.ontology(14), rig.tbox, &err))
        << err;
    rig.classifyBase();
    auto delta = rig.makeDelta();

    for (int txn = 0; txn < 5; ++txn) {
      ASSERT_TRUE(delta->beginTxn(&err)) << err;
      // Retract candidates: axioms whose standalone canonical form is
      // their statement-list text. ⊓/⊔ operands are ordered by expression
      // id, so an axiom over several of them can render differently on
      // its own and would not match.
      std::vector<std::string> axioms;
      for (const std::string& s : delta->statements()) {
        std::string canonical;
        if (s.rfind("Declaration(", 0) != 0 &&
            canonicalizeStatement(s, &canonical, &err) && canonical == s)
          axioms.push_back(s);
      }
      if (!axioms.empty() && gen.pick(3) != 0) {
        ASSERT_TRUE(
            delta->stageRetract(axioms[gen.pick(axioms.size())], &err))
            << err;
      }
      if (txn == 2) {
        const std::string fresh =
            strprintf("N%u", static_cast<unsigned>(seed));
        ASSERT_TRUE(delta->stageAdd("Declaration(Class(" + fresh + "))", &err))
            << err;
        ASSERT_TRUE(delta->stageAdd(
            "SubClassOf(" + fresh + " " + gen.randomAtom() + ")", &err))
            << err;
      }
      ASSERT_TRUE(delta->stageAdd(gen.axiom(), &err)) << err;

      DeltaCommitInfo info;
      ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
      ++commits;
      if (!info.fullCone && info.coneSize < info.conceptCount) ++partialCones;
      ASSERT_TRUE(delta->generation().classifier->countersConsistent())
          << "seed " << seed << " txn " << txn;
      ASSERT_EQ(rig.generationTaxonomy(*delta),
                rig.scratchTaxonomy(delta->statements()))
          << "seed " << seed << " txn " << txn
          << " diverged from the from-scratch oracle";
    }
  }
  EXPECT_EQ(commits, 120u);
  EXPECT_GT(partialCones, commits / 4);
}

}  // namespace
}  // namespace owlcl
