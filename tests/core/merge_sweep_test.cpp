// The batched merge sweep (DESIGN.md §11): with TableauReasoner's model
// merging on, the classifier settles every merge-refutable pair a row at
// a time before phase 1. The taxonomy must stay byte-identical to a run
// without merging, a kill right after the sweep must resume to the same
// taxonomy, failing model builds must fall back to the per-pair path, and
// a fired token must stop the sweep. Lives in core_test so CI runs the
// concurrent row tasks under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injector.hpp"
#include "robust/guarded_plugin.hpp"
#include "support/test_dir.hpp"

namespace owlcl {
namespace {

GenConfig shqConfig(std::uint64_t seed) {
  GenConfig cfg;
  cfg.name = "merge-sweep";
  cfg.concepts = 60;
  cfg.subClassEdges = 80;
  cfg.roles = 6;
  cfg.existentialAxioms = 18;
  cfg.universalAxioms = 8;
  cfg.qcrAxioms = 12;
  cfg.equivalentAxioms = 3;
  cfg.disjointAxioms = 3;
  cfg.unsatConcepts = 2;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.seed = seed;
  return cfg;
}

std::string render(const ClassificationResult& r, const TBox& tbox) {
  std::ostringstream out;
  r.taxonomy.print(out, tbox);
  return out.str();
}

TableauReasonerConfig merging(bool on) {
  TableauReasonerConfig tc;
  tc.sharedCache = on;
  tc.mergeModels = on;
  return tc;
}

/// Classifies a fresh copy of the generated ontology (every reasoner
/// freezes its own TBox) and renders the taxonomy.
std::string classifyRendered(const GenConfig& cfg, bool mergeModels,
                             ClassificationResult* out = nullptr) {
  const GeneratedOntology g = generateOntology(cfg);
  TableauReasoner reasoner(*g.tbox, merging(mergeModels));
  ThreadPool pool(4);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*g.tbox, reasoner);
  ClassificationResult r = classifier.classify(exec);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.mergeRefuted, reasoner.mergeRefutedCount());
  std::string tree = render(r, *g.tbox);
  if (out != nullptr) *out = std::move(r);
  return tree;
}

class MergeSweepParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeSweepParity, SweptTaxonomyByteIdenticalToUnmerged) {
  const GenConfig cfg = shqConfig(GetParam());
  const std::string plain = classifyRendered(cfg, false);
  ClassificationResult swept;
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(classifyRendered(cfg, true, &swept), plain);
  // The sweep did the refuting, and the counters carry it.
  EXPECT_GT(swept.sweepRefuted, 0u);
  EXPECT_GE(swept.mergeRefuted, swept.sweepRefuted);
  EXPECT_GE(swept.testsAvoided(), swept.sweepRefuted);
  // Its time and tests land in the first phase-1 entry; no new phase.
  for (const CycleStats& c : swept.cycles)
    EXPECT_NE(c.phase, CycleStats::Phase::kRouting);
  ASSERT_FALSE(swept.cycles.empty());
  EXPECT_EQ(swept.cycles.front().phase,
            CycleStats::Phase::kRandomDivision);
  EXPECT_EQ(swept.cycles.front().possibleBefore, swept.initialPossible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeSweepParity,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

/// Forwards to a CheckpointManager and asks the classifier to stop at the
/// first swept verdict: the sweep finishes, the run pauses before phase 1
/// without another barrier, and the directory holds what a kill right
/// after the sweep would leave — the genesis snapshot plus the journal.
class StopAfterSweep : public CheckpointHook {
 public:
  explicit StopAfterSweep(CheckpointManager& inner) : inner_(inner) {}
  void recordSettled(SettledKind kind, ConceptId x, ConceptId y,
                     std::uint64_t epoch) override {
    inner_.recordSettled(kind, x, y, epoch);
    if (kind == SettledKind::kNonSubsumption) classifier->requestStop();
  }
  void epochBarrier(
      const ClassifierProgress& progress,
      const std::function<ClassifierCheckpoint()>& capture) override {
    inner_.epochBarrier(progress, capture);
  }
  ParallelClassifier* classifier = nullptr;

 private:
  CheckpointManager& inner_;
};

TEST(MergeSweep, KillRightAfterSweepResumesToUninterruptedTaxonomy) {
  const GenConfig cfg = shqConfig(21);
  const std::string golden = classifyRendered(cfg, true);
  const std::string dir = freshTestDir("merge-sweep");
  CheckpointConfig conf;
  conf.dir = dir;
  ClassifierConfig cc;
  std::uint64_t swept = 0;

  {
    const GeneratedOntology g = generateOntology(cfg);
    TableauReasoner reasoner(*g.tbox, merging(true));
    CheckpointManager mgr(conf, ontologyContentHash(*g.tbox), cc.seed);
    std::string err;
    ASSERT_TRUE(mgr.beginFresh(&err)) << err;
    StopAfterSweep hook(mgr);
    ClassifierConfig hooked = cc;
    hooked.checkpoint = &hook;
    ThreadPool pool(4);
    RealExecutor exec(pool);
    ParallelClassifier classifier(*g.tbox, reasoner, hooked);
    hook.classifier = &classifier;
    const ClassificationResult cut = classifier.classify(exec);
    ASSERT_TRUE(cut.paused) << "the sweep should leave pairs for phase 1";
    swept = cut.sweepRefuted;
    ASSERT_GT(swept, 0u);
    for (const CycleStats& c : cut.cycles)
      EXPECT_EQ(c.phase, CycleStats::Phase::kRandomDivision);
  }  // no final snapshot: the process "dies" here

  const GeneratedOntology g = generateOntology(cfg);
  TableauReasoner reasoner(*g.tbox, merging(true));
  CheckpointManager mgr(conf, ontologyContentHash(*g.tbox), cc.seed);
  ClassifierCheckpoint from;
  std::string err;
  ASSERT_TRUE(mgr.recover(&from, &err)) << err;
  ClassifierConfig resumedCfg = cc;
  resumedCfg.checkpoint = &mgr;
  ThreadPool pool(4);
  RealExecutor exec(pool);
  ParallelClassifier resumed(*g.tbox, reasoner, resumedCfg);
  const ClassificationResult r = resumed.resumeClassify(exec, from);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.sweepRefuted, 0u) << "a crash-recovery resume never re-sweeps";
  // The swept verdicts came back from the journal: the resumed run tests
  // only what the sweep left open.
  EXPECT_LT(r.subsumptionTests, swept / 4);
  EXPECT_EQ(render(r, *g.tbox), golden);
}

/// A merging plug-in whose model builds fail for every third concept: its
/// prepare() builds nothing for them and their first plug-in call throws
/// (the sat test is what builds {c} at the engine). Those concepts stay
/// out of every mask, so their pairs take the guarded per-pair path.
class FailingModelBuilds : public ReasonerPlugin, private RowRefuter {
 public:
  FailingModelBuilds(TableauReasoner& inner, std::size_t concepts)
      : inner_(inner), thrown_(concepts) {}

  bool isSatisfiable(ConceptId c, std::uint64_t* costNs) override {
    failOnce(c);
    return inner_.isSatisfiable(c, costNs);
  }
  bool isSubsumedBy(ConceptId sub, ConceptId sup,
                    std::uint64_t* costNs) override {
    failOnce(sub);
    failOnce(sup);
    return inner_.isSubsumedBy(sub, sup, costNs);
  }
  std::uint64_t testCount() const override { return inner_.testCount(); }
  ReasonerStats reasonerStats() const override {
    return inner_.reasonerStats();
  }
  RowRefuter* rowRefuter() override { return this; }

  static bool failing(ConceptId c) { return c % 3 == 0; }

 private:
  void failOnce(ConceptId c) {
    if (failing(c) && !thrown_[c].exchange(true))
      throw std::runtime_error("model build failed");
  }
  void prepare(ConceptId c) noexcept override {
    if (!failing(c)) inner_.rowRefuter()->prepare(c);
  }
  std::size_t refuteRow(ConceptId x, const std::uint64_t* candidates,
                        std::uint64_t* refuted, std::size_t nWords,
                        const BitKernels& kernels) override {
    return inner_.rowRefuter()->refuteRow(x, candidates, refuted, nWords,
                                          kernels);
  }

  TableauReasoner& inner_;
  std::vector<std::atomic<bool>> thrown_;
};

TEST(MergeSweep, FailingModelBuildsStillClassifyCorrectly) {
  const GenConfig cfg = shqConfig(34);
  const std::string plain = classifyRendered(cfg, false);

  const GeneratedOntology g = generateOntology(cfg);
  TableauReasoner reasoner(*g.tbox, merging(true));
  FailingModelBuilds failing(reasoner, g.tbox->conceptCount());
  GuardedPlugin guarded(failing);
  ASSERT_EQ(guarded.rowRefuter(), failing.rowRefuter());
  ThreadPool pool(4);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*g.tbox, guarded);
  const ClassificationResult r = classifier.classify(exec);
  EXPECT_TRUE(r.complete());
  EXPECT_GT(r.failedTests, 0u);
  EXPECT_GT(r.sweepRefuted, 0u);
  EXPECT_EQ(render(r, *g.tbox), plain);
}

TEST(MergeSweep, FaultInjectorHidesTheHooks) {
  const GeneratedOntology g = generateOntology(shqConfig(1));
  TableauReasoner reasoner(*g.tbox, merging(true));
  ASSERT_NE(reasoner.rowRefuter(), nullptr);
  FaultInjector injector(reasoner, FaultPlan{});
  EXPECT_EQ(injector.rowRefuter(), nullptr);
  GuardedPlugin guarded(reasoner);
  EXPECT_EQ(guarded.rowRefuter(), reasoner.rowRefuter());
}

TEST(MergeSweep, FiredTokenSkipsTheSweep) {
  const GeneratedOntology g = generateOntology(shqConfig(3));
  TableauReasoner reasoner(*g.tbox, merging(true));
  ThreadPool pool(2);
  RealExecutor exec(pool);
  exec.cancellation().cancel();
  ParallelClassifier classifier(*g.tbox, reasoner);
  const ClassificationResult r = classifier.classify(exec);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.sweepRefuted, 0u);
  EXPECT_EQ(r.testsPerformed(), 0u);
  EXPECT_FALSE(r.complete());
}

}  // namespace
}  // namespace owlcl
