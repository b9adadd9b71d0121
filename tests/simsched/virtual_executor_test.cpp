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
  for (int i = 0; i < 4; ++i) exec.dispatch(0, [] { return 100u; });
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 400u);
  EXPECT_EQ(exec.busyNs(), 400u);
}

TEST(VirtualExecutor, PerfectParallelismHalvesElapsed) {
  VirtualExecutor exec(2, zeroOverhead());
  exec.dispatch(0, [] { return 100u; });
  exec.dispatch(1, [] { return 100u; });
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 100u);
  EXPECT_EQ(exec.busyNs(), 200u);
}

TEST(VirtualExecutor, MakespanIsMaxWorkerClock) {
  VirtualExecutor exec(2, zeroOverhead());
  exec.dispatch(0, [] { return 300u; });
  exec.dispatch(1, [] { return 100u; });
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 300u);
}

TEST(VirtualExecutor, DispatchOverheadIsSerial) {
  OverheadModel m = zeroOverhead();
  m.dispatchNs = 10;
  VirtualExecutor exec(4, m);
  // 4 groups of cost 100: serial dispatch delays later workers' starts.
  for (std::size_t w = 0; w < 4; ++w) exec.dispatch(w, [] { return 100u; });
  exec.barrier();
  // Worker 3 starts at serial=40 and runs 100 → elapsed 140.
  EXPECT_EQ(exec.elapsedNs(), 140u);
}

TEST(VirtualExecutor, BarrierAdvancesAllWorkers) {
  OverheadModel m = zeroOverhead();
  m.barrierNs = 5;
  VirtualExecutor exec(2, m);
  exec.dispatch(0, [] { return 100u; });
  exec.barrier();  // now at 105
  exec.dispatch(1, [] { return 10u; });
  exec.barrier();  // 105 + 10 + 5
  EXPECT_EQ(exec.elapsedNs(), 120u);
}

TEST(VirtualExecutor, LeastLoadedPicksEarliestWorker) {
  VirtualExecutor exec(2, zeroOverhead());
  exec.dispatch(0, [] { return 500u; });
  // kAnyWorker / least-loaded must route to the idle worker 1.
  exec.dispatch(Executor::kAnyWorker, [] { return 100u; });
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 500u) << "second task overlapped with first";
}

TEST(VirtualExecutor, RoundRobinCycles) {
  VirtualExecutor exec(3, zeroOverhead());
  EXPECT_EQ(exec.pickWorker(SchedulingPolicy::kRoundRobin), 0u);
  EXPECT_EQ(exec.pickWorker(SchedulingPolicy::kRoundRobin), 1u);
  EXPECT_EQ(exec.pickWorker(SchedulingPolicy::kRoundRobin), 2u);
  EXPECT_EQ(exec.pickWorker(SchedulingPolicy::kRoundRobin), 0u);
}

TEST(VirtualExecutor, StealPlacesOnEarliestWorkerUnlikeRoundRobin) {
  // kSteal is simulated as its quiescent fixed point: the earliest-
  // finishing worker takes the next task, so a long task on worker 0
  // keeps every later pick away from it. Round-robin returns to it.
  VirtualExecutor exec(3, zeroOverhead());
  exec.dispatch(0, [] { return 1000u; });
  for (int i = 0; i < 4; ++i) {
    const std::size_t w = exec.pickWorker(SchedulingPolicy::kSteal);
    EXPECT_NE(w, 0u) << "pick " << i;
    exec.dispatch(w, [] { return 100u; });
  }
  exec.barrier();
  EXPECT_EQ(exec.elapsedNs(), 1000u);

  VirtualExecutor rr(3, zeroOverhead());
  rr.dispatch(0, [] { return 1000u; });
  bool hitZero = false;
  for (int i = 0; i < 4; ++i)
    hitZero |= rr.pickWorker(SchedulingPolicy::kRoundRobin) == 0u;
  EXPECT_TRUE(hitZero);
}

TEST(VirtualExecutor, DeterministicAcrossRuns) {
  auto run = [] {
    VirtualExecutor exec(3);
    for (int i = 0; i < 50; ++i) {
      const std::size_t w = exec.pickWorker(SchedulingPolicy::kLeastLoaded);
      exec.dispatch(w, [i] { return static_cast<std::uint64_t>(37 * i + 11); });
    }
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
      exec.dispatch(exec.pickWorker(SchedulingPolicy::kRoundRobin),
                    [] { return 1'000'000u; });
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
