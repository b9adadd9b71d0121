// Transactional delta reclassification: canonical statement handling,
// affected-cone confinement, and end-to-end add/retract transactions whose
// committed taxonomy must be byte-identical to classifying the post-delta
// ontology from scratch — including retracts of told-seeded axioms,
// EL-purity-flipping deltas, empty deltas, rollback on injected factory
// faults, and multi-worker delta storms.
#include "core/incremental.hpp"

#include <gtest/gtest.h>

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

TEST(DeltaCone, ConeConfinedToSignatureComponent) {
  TBox oldT;
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(C))
      Declaration(Class(X)) Declaration(Class(Y))
      SubClassOf(B A)
      SubClassOf(Y X)
    ))",
                        oldT);
  std::vector<std::string> stmts = statementsFromTBox(oldT);
  std::string err;
  ASSERT_TRUE(applyStagedOps(stmts, {{true, "SubClassOf(C B)"}}, &err)) << err;
  TBox newT;
  ASSERT_TRUE(buildTBoxFromStatements(stmts, newT, &err)) << err;

  const ConeResult cone = computeAffectedCone(oldT, newT);
  EXPECT_FALSE(cone.fullCone);
  EXPECT_EQ(cone.changedAxioms, 1u);
  const auto has = [&](const char* name) {
    const ConceptId id = newT.findConcept(name);
    return std::find(cone.cone.begin(), cone.cone.end(), id) !=
           cone.cone.end();
  };
  EXPECT_TRUE(has("A"));
  EXPECT_TRUE(has("B"));
  EXPECT_TRUE(has("C"));
  // The {X,Y} component shares no signature with the delta.
  EXPECT_FALSE(has("X"));
  EXPECT_FALSE(has("Y"));
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

}  // namespace
}  // namespace owlcl
