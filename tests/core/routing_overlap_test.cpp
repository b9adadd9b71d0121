// Routing saturates the EL fragment as one executor task while the
// classifying thread builds the P/K store (DESIGN.md §13, "Routing
// phase"). These tests pin what that overlap must not change: the
// checkpoint hook sees the same calls and the same genesis image whether
// the saturation runs on a pool worker or inline in virtual time, the
// taxonomy equals an unrouted run's, and a failure on either side of the
// overlap surfaces from classify() only after the task has been joined.
// core_test runs under TSan, which checks the overlap itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "simsched/virtual_executor.hpp"

namespace owlcl {
namespace {

// Fully EL, so routing settles every pair and every journal record comes
// from the seeding on the classifying thread, in a deterministic order.
GenConfig fullyRouted() {
  GenConfig cfg;
  cfg.name = "overlap-fully-routed";
  cfg.concepts = 260;
  cfg.subClassEdges = 400;
  cfg.existentialAxioms = 110;
  cfg.equivalentAxioms = 5;
  cfg.disjointAxioms = 3;
  cfg.unsatConcepts = 3;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.seed = 31;
  return cfg;
}

/// Records every hook call in order, and the image of the genesis
/// barrier (progress 0/0, before any record).
class RecordingHook : public CheckpointHook {
 public:
  void recordSettled(SettledKind kind, ConceptId x, ConceptId y,
                     std::uint64_t epoch) override {
    std::lock_guard<std::mutex> lock(mu_);
    calls.push_back(std::make_tuple(static_cast<int>(kind), x, y, epoch));
  }
  void epochBarrier(
      const ClassifierProgress& progress,
      const std::function<ClassifierCheckpoint()>& capture) override {
    std::lock_guard<std::mutex> lock(mu_);
    calls.push_back(std::make_tuple(-1, progress.completedCycles,
                                    progress.completedRounds, progress.epoch));
    if (calls.size() == 1) genesis = capture().store;
  }

  std::vector<std::tuple<int, std::uint64_t, std::uint64_t, std::uint64_t>>
      calls;
  PkStoreImage genesis;

 private:
  std::mutex mu_;
};

std::string treeOf(const ClassificationResult& r, const TBox& tbox) {
  std::ostringstream out;
  r.taxonomy.print(out, tbox);
  return out.str();
}

TEST(RoutingOverlap, PoolAndVirtualExecutorsSeeTheSameHookCalls) {
  const GeneratedOntology g = generateOntology(fullyRouted());
  std::string offTree;
  {
    TableauReasoner reasoner(*g.tbox);
    ThreadPool pool(2);
    RealExecutor exec(pool);
    ParallelClassifier classifier(*g.tbox, reasoner, ClassifierConfig{});
    offTree = treeOf(classifier.classify(exec), *g.tbox);
  }

  RecordingHook hooks[2];
  for (int i = 0; i < 2; ++i) {
    TableauReasoner reasoner(*g.tbox);
    ClassifierConfig config;
    config.routeEl = ElRouting::kOn;
    config.checkpoint = &hooks[i];
    ParallelClassifier classifier(*g.tbox, reasoner, config);
    ClassificationResult r;
    if (i == 0) {
      ThreadPool pool(2);
      RealExecutor exec(pool);
      r = classifier.classify(exec);
    } else {
      VirtualExecutor exec(2);
      r = classifier.classify(exec);
    }
    SCOPED_TRACE(i == 0 ? "pool" : "virtual");
    ASSERT_TRUE(r.complete());
    EXPECT_EQ(r.testsPerformed(), 0u);
    EXPECT_GT(r.saturationSeeded, 0u);
    EXPECT_EQ(treeOf(r, *g.tbox), offTree);
    ASSERT_FALSE(hooks[i].calls.empty());
    EXPECT_EQ(std::get<0>(hooks[i].calls.front()), -1)
        << "the genesis barrier precedes every record";
  }

  EXPECT_EQ(hooks[0].calls, hooks[1].calls);
  const PkStoreImage& a = hooks[0].genesis;
  const PkStoreImage& b = hooks[1].genesis;
  const std::size_t n = g.tbox->conceptCount();
  EXPECT_EQ(a.conceptCount, n);
  EXPECT_EQ(a.possibleCount, n * (n - 1)) << "genesis precedes seeding";
  EXPECT_EQ(a.pWords, b.pWords);
  EXPECT_EQ(a.kWords, b.kWords);
  EXPECT_EQ(a.testedWords, b.testedWords);
  EXPECT_EQ(a.sat, b.sat);
  EXPECT_EQ(a.possibleCount, b.possibleCount);
}

/// RealExecutor that wraps the first task dispatched, routing's
/// saturation: the task starts 50 ms late, so the classifying thread is
/// well ahead of it, records that it has run, and then throws if asked.
class SlowSaturationExecutor : public RealExecutor {
 public:
  SlowSaturationExecutor(ThreadPool& pool, bool throwAfterRun)
      : RealExecutor(pool), throwAfterRun_(throwAfterRun) {}
  void dispatch(Task task) override {
    if (dispatched_++ == 0)
      task = [this, inner = std::move(task)]() -> std::uint64_t {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const std::uint64_t ns = inner();
        saturated.store(true, std::memory_order_release);
        if (throwAfterRun_) throw std::runtime_error("saturation failed");
        return ns;
      };
    RealExecutor::dispatch(std::move(task));
  }
  std::atomic<bool> saturated{false};

 private:
  const bool throwAfterRun_;
  std::size_t dispatched_ = 0;
};

TEST(RoutingOverlap, ThrowingSaturationSurfacesFromClassify) {
  const GeneratedOntology g = generateOntology(fullyRouted());
  TableauReasoner reasoner(*g.tbox);
  ClassifierConfig config;
  config.routeEl = ElRouting::kOn;
  ThreadPool pool(2);
  SlowSaturationExecutor exec(pool, /*throwAfterRun=*/true);
  ParallelClassifier classifier(*g.tbox, reasoner, config);
  EXPECT_THROW(classifier.classify(exec), std::runtime_error);
  EXPECT_TRUE(exec.saturated.load(std::memory_order_acquire));
  EXPECT_FALSE(classifier.started()) << "a failed routing publishes nothing";
}

/// Fails the genesis barrier, which the classifying thread takes while
/// the saturation task is still running.
class ThrowingGenesisHook : public CheckpointHook {
 public:
  void recordSettled(SettledKind, ConceptId, ConceptId,
                     std::uint64_t) override {}
  void epochBarrier(const ClassifierProgress&,
                    const std::function<ClassifierCheckpoint()>&) override {
    throw std::runtime_error("genesis snapshot failed");
  }
};

TEST(RoutingOverlap, ThrowingStoreBuildJoinsTheSaturationFirst) {
  const GeneratedOntology g = generateOntology(fullyRouted());
  TableauReasoner reasoner(*g.tbox);
  ThrowingGenesisHook hook;
  ClassifierConfig config;
  config.routeEl = ElRouting::kOn;
  config.checkpoint = &hook;
  ThreadPool pool(2);
  SlowSaturationExecutor exec(pool, /*throwAfterRun=*/false);
  {
    ParallelClassifier classifier(*g.tbox, reasoner, config);
    EXPECT_THROW(classifier.classify(exec), std::runtime_error);
  }
  // The saturation writes into the run's routing state, so the exception
  // may leave classify() only once the task has finished.
  EXPECT_TRUE(exec.saturated.load(std::memory_order_acquire));
}

}  // namespace
}  // namespace owlcl
