// Property sweep: the classifier must produce the exact ground-truth
// taxonomy under EVERY configuration combination — worker counts, cycle
// counts, symmetric (pruning) vs ordered testing, EL routing (a store
// pre-seeded before phase 1), on both executors — over two hierarchy
// shapes: a multi-parent DAG and a forest of uniformly attached trees.
#include <gtest/gtest.h>

#include <tuple>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "simsched/virtual_executor.hpp"

namespace owlcl {
namespace {

enum class Shape { kDag, kForest };

struct Param {
  std::size_t workers;
  std::size_t randomCycles;
  Shape shape;
  bool symmetric;
  ElRouting routeEl;
  bool realThreads;
};

class ClassifierMatrix : public ::testing::TestWithParam<Param> {};

TEST_P(ClassifierMatrix, MatchesGroundTruth) {
  const Param p = GetParam();

  GenConfig cfg;
  cfg.name = "matrix";
  cfg.concepts = 70;
  // The DAG gives many concepts several parents; the forest (fewer edges
  // than concepts - 1) has several roots and uniformly attached chains.
  cfg.subClassEdges = p.shape == Shape::kDag ? 110 : 60;
  cfg.attachmentBias = p.shape == Shape::kDag ? 0.5 : 0.0;
  cfg.existentialAxioms = 20;
  cfg.equivalentAxioms = 6;
  cfg.disjointAxioms = 6;
  cfg.unsatConcepts = 2;
  cfg.seed = 1234;
  auto g = generateOntology(cfg);
  MockReasoner mock(g.truth);

  ClassifierConfig config;
  config.randomCycles = p.randomCycles;
  config.symmetricTests = p.symmetric;
  config.routeEl = p.routeEl;

  ParallelClassifier classifier(*g.tbox, mock, config);
  ClassificationResult r{};
  if (p.realThreads) {
    ThreadPool pool(p.workers);
    RealExecutor exec(pool);
    r = classifier.classify(exec);
  } else {
    VirtualExecutor exec(p.workers);
    r = classifier.classify(exec);
  }

  const std::size_t n = g.tbox->conceptCount();
  for (ConceptId x = 0; x < n; ++x)
    for (ConceptId y = 0; y < n; ++y)
      ASSERT_EQ(r.taxonomy.subsumes(x, y), g.truth.subsumes(x, y))
          << g.tbox->conceptName(y) << " ⊑ " << g.tbox->conceptName(x)
          << " [w=" << p.workers << " cycles=" << p.randomCycles
          << " forest=" << (p.shape == Shape::kForest)
          << " sym=" << p.symmetric
          << " route=" << (p.routeEl == ElRouting::kOn)
          << " real=" << p.realThreads << "]";
}

std::vector<Param> buildMatrix() {
  std::vector<Param> params;
  // Virtual executor: deterministic, so cover the full cross product of
  // the interesting booleans at two worker counts.
  for (std::size_t w : {1u, 5u}) {
    for (std::size_t cycles : {0u, 3u}) {
      for (Shape shape : {Shape::kForest, Shape::kDag}) {
        for (bool symmetric : {false, true}) {
          for (ElRouting routeEl : {ElRouting::kOff, ElRouting::kOn}) {
            params.push_back({w, cycles, shape, symmetric, routeEl, false});
          }
        }
      }
    }
  }
  // A third virtual worker count, with two random cycles.
  params.push_back({4, 2, Shape::kDag, true, ElRouting::kOff, false});
  // Real threads: the racy case (symmetric tests prune), several workers.
  for (std::size_t w : {2u, 4u, 8u}) {
    params.push_back({w, 2, Shape::kDag, true, ElRouting::kOff, true});
    params.push_back({w, 2, Shape::kDag, true, ElRouting::kOn, true});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ClassifierMatrix,
                         ::testing::ValuesIn(buildMatrix()));

}  // namespace
}  // namespace owlcl
