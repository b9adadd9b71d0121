#include "simsched/virtual_executor.hpp"

#include <gtest/gtest.h>

namespace owlcl {
namespace {

OverheadModel zeroOverhead() {
  OverheadModel m;
  m.dispatchNs = 0;
  m.perTaskNs = 0;
  m.barrierNs = 0;
  m.barrierPerWorkerNs = 0;
  m.barrierQuadNs = 0;
  return m;
}

TEST(VirtualExecutor, SingleWorkerSerialisesCosts) {
  VirtualExecutor exec(1, zeroOverhead());
  for (int i = 0; i < 4; ++i) exec.dispatch([] { return 100u; });
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 400u);
  EXPECT_EQ(exec.busyNs(), 400u);
}

TEST(VirtualExecutor, PerfectParallelismHalvesElapsed) {
  VirtualExecutor exec(2, zeroOverhead());
  // Tie at 0: the first task takes worker 0, the second the idle worker 1.
  exec.dispatch([] { return 100u; });
  exec.dispatch([] { return 100u; });
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 100u);
  EXPECT_EQ(exec.busyNs(), 200u);
}

TEST(VirtualExecutor, MakespanIsMaxWorkerClock) {
  VirtualExecutor exec(2, zeroOverhead());
  exec.dispatch([] { return 300u; });
  exec.dispatch([] { return 100u; });  // the idle worker takes it
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 300u);
}

TEST(VirtualExecutor, DispatchOverheadIsSerial) {
  OverheadModel m = zeroOverhead();
  m.dispatchNs = 10;
  VirtualExecutor exec(4, m);
  // 4 groups of cost 100, one per worker (each next task finds an idle
  // worker): serial dispatch delays later workers' starts.
  for (int i = 0; i < 4; ++i) exec.dispatch([] { return 100u; });
  exec.barrier();
  // Worker 3 starts at serial=40 and runs 100 → elapsed 140.
  EXPECT_EQ(exec.elapsedNs(), 140u);
}

TEST(VirtualExecutor, BarrierAdvancesAllWorkers) {
  OverheadModel m = zeroOverhead();
  m.barrierNs = 5;
  VirtualExecutor exec(2, m);
  exec.dispatch([] { return 100u; });
  exec.barrier();  // now at 105
  exec.dispatch([] { return 10u; });
  exec.barrier();  // 105 + 10 + 5
  EXPECT_EQ(exec.elapsedNs(), 120u);
}

// Worker indices are not observable through Executor, so placement is
// checked by its effect on the clocks.
TEST(VirtualExecutor, TiesGoToLowestIndexSoIdleWorkersFillFirst) {
  // All clocks tie at 0: each task takes the lowest-index idle worker,
  // whose clock then moves past the others, so three tasks land on three
  // distinct workers and the fourth waits for the earliest to finish.
  VirtualExecutor exec(3, zeroOverhead());
  for (int i = 0; i < 3; ++i) exec.dispatch([] { return 100u; });
  EXPECT_EQ(exec.elapsedNs(), 100u) << "tied workers were not all used";
  exec.dispatch([] { return 100u; });
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 200u);
  EXPECT_EQ(exec.busyNs(), 400u);
}

TEST(VirtualExecutor, TaskGoesToEarliestFreeWorker) {
  VirtualExecutor exec(2, zeroOverhead());
  exec.dispatch([] { return 500u; });
  // Worker 0 is busy until 500: the next task must go to idle worker 1.
  exec.dispatch([] { return 100u; });
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 500u) << "second task overlapped with first";

  // A long task keeps every later pick away from its worker: the four
  // short tasks share the other two workers and finish by 1000.
  VirtualExecutor skew(3, zeroOverhead());
  skew.dispatch([] { return 1000u; });
  for (int i = 0; i < 4; ++i) skew.dispatch([] { return 100u; });
  EXPECT_EQ(skew.elapsedNs(), 1000u);
  skew.barrier();
  EXPECT_EQ(skew.elapsedNs(), 1000u);
  EXPECT_EQ(skew.busyNs(), 1400u);
}

// The serial dispatch clock delays starts but never steers placement: a
// task still goes to the worker whose clock is earliest.
TEST(VirtualExecutor, DispatchOverheadDoesNotMovePlacement) {
  OverheadModel m = zeroOverhead();
  m.dispatchNs = 10;
  VirtualExecutor exec(2, m);
  exec.dispatch([] { return 500u; });  // worker 0: 10..510
  exec.dispatch([] { return 100u; });  // worker 1: 20..120
  exec.dispatch([] { return 100u; });  // worker 1 again: 120..220
  exec.dispatch([] { return 100u; });  // worker 1 again: 220..320
  EXPECT_EQ(exec.elapsedNs(), 510u) << "a short task queued behind the long one";
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 510u);
  EXPECT_EQ(exec.busyNs(), 800u);
}

// A barrier realigns every worker clock, so the next tasks tie again and
// spread over all workers from the lowest index.
TEST(VirtualExecutor, BarrierRealignsClocksSoTasksSpreadAgain) {
  VirtualExecutor exec(2, zeroOverhead());
  exec.dispatch([] { return 300u; });
  exec.dispatch([] { return 100u; });
  exec.barrier();  // both workers resume at 300
  exec.dispatch([] { return 100u; });
  exec.dispatch([] { return 100u; });
  exec.barrier();
  // Without the realignment both would fit on worker 1 before 300.
  EXPECT_EQ(exec.elapsedNs(), 400u);
  EXPECT_EQ(exec.busyNs(), 600u);
}

TEST(VirtualExecutor, DeterministicAcrossRuns) {
  auto run = [] {
    VirtualExecutor exec(3);
    for (int i = 0; i < 50; ++i)
      exec.dispatch([i] { return static_cast<std::uint64_t>(37 * i + 11); });
    exec.barrier();
    return exec.elapsedNs();
  };
  EXPECT_EQ(run(), run());
}

TEST(VirtualExecutor, SpeedupImprovesThenSaturates) {
  // 64 equal tasks, serial dispatch overhead: speedup should rise with
  // workers then flatten/decline — the Fig. 9(a) shape in miniature.
  auto speedupAt = [](std::size_t w) {
    OverheadModel m;
    m.dispatchNs = 50'000;  // heavy dispatch to force early saturation
    m.perTaskNs = 0;
    m.barrierNs = 0;
    m.barrierPerWorkerNs = 0;
    m.barrierQuadNs = 0;
    VirtualExecutor exec(w, m);
    for (int i = 0; i < 64; ++i)
      exec.dispatch([] { return 1'000'000u; });
    exec.barrier();
    return static_cast<double>(exec.busyNs()) /
           static_cast<double>(exec.elapsedNs());
  };
  const double s1 = speedupAt(1);
  const double s8 = speedupAt(8);
  const double s64 = speedupAt(64);
  EXPECT_NEAR(s1, 1.0, 0.1);
  EXPECT_GT(s8, 4.0);
  EXPECT_LT(s64, 64.0 * 0.7) << "dispatch overhead must cap the speedup";
}

}  // namespace
}  // namespace owlcl
