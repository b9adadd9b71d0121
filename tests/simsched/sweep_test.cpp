#include "simsched/sweep.hpp"

#include <gtest/gtest.h>

#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"

namespace owlcl {
namespace {

TEST(FigureWorkerCounts, CoversRangeAndEndsAtMax) {
  const auto w140 = figureWorkerCounts(140);
  ASSERT_FALSE(w140.empty());
  EXPECT_EQ(w140.front(), 1u);
  EXPECT_EQ(w140.back(), 140u);
  for (std::size_t i = 1; i < w140.size(); ++i) EXPECT_LT(w140[i - 1], w140[i]);

  const auto w80 = figureWorkerCounts(80);
  EXPECT_EQ(w80.back(), 80u);
  const auto w7 = figureWorkerCounts(7);
  EXPECT_EQ(w7.back(), 7u);  // appended non-grid max
}

// The --max-workers ceiling must admit the paper's largest figure (140
// workers, Fig. 9) and yield a grid that ends exactly at the ceiling.
TEST(FigureWorkerCounts, CeilingAdmitsThePaperFigures) {
  EXPECT_EQ(kMaxSweepWorkers, 256u);
  const auto w140 = figureWorkerCounts(140);
  EXPECT_LE(w140.back(), kMaxSweepWorkers);
  const auto top = figureWorkerCounts(kMaxSweepWorkers);
  EXPECT_EQ(top.back(), kMaxSweepWorkers);
  // Every grid point up to 140 stays; the ceiling is the only one added.
  ASSERT_EQ(top.size(), w140.size() + 1);
  for (std::size_t i = 0; i < w140.size(); ++i) EXPECT_EQ(top[i], w140[i]);
}

TEST(Sweep, RunsAllPointsDeterministically) {
  GenConfig cfg;
  cfg.name = "sweep";
  cfg.concepts = 60;
  cfg.subClassEdges = 90;
  cfg.seed = 5;
  auto g = generateOntology(cfg);
  MockReasoner mock(g.truth);

  const std::vector<std::size_t> workers = {1, 2, 4};
  const SweepResult r1 = runSpeedupSweep("s", *g.tbox, mock, workers);
  const SweepResult r2 = runSpeedupSweep("s", *g.tbox, mock, workers);
  ASSERT_EQ(r1.points.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r1.points[i].workers, workers[i]);
    EXPECT_EQ(r1.points[i].elapsedNs, r2.points[i].elapsedNs);
    EXPECT_EQ(r1.points[i].busyNs, r2.points[i].busyNs);
    EXPECT_GT(r1.points[i].reasonerTests, 0u);
  }
  // w=1 speedup ≈ 1 (busy can only trail elapsed by overhead).
  EXPECT_LE(r1.points[0].speedup, 1.0);
  EXPECT_GT(r1.points[0].speedup, 0.8);
}

TEST(Sweep, RenderedTableContainsAllRows) {
  GenConfig cfg;
  cfg.name = "render";
  cfg.concepts = 40;
  cfg.subClassEdges = 50;
  cfg.seed = 6;
  auto g = generateOntology(cfg);
  MockReasoner mock(g.truth);
  const SweepResult r = runSpeedupSweep("my-sweep", *g.tbox, mock, {1, 2});
  const std::string table = renderSweepTable(r);
  EXPECT_NE(table.find("my-sweep"), std::string::npos);
  EXPECT_NE(table.find("workers"), std::string::npos);
  // One header + name line + two data rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 4);
}

}  // namespace
}  // namespace owlcl
