// Argument parsing of the figure benches: parseCountArg (the strict
// "--flag=N" helper in bench_common.hpp) in-process, and the fig9/10/11
// binaries end to end. Every rejected input must exit 2 before any sweep
// starts — no case here runs a sweep.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"

#ifndef OWLCL_BENCH_FIG9_PATH
#error "OWLCL_BENCH_FIG9_PATH must be defined to the bench_fig9 binary path"
#endif

namespace owlcl::bench {
namespace {

/// Runs a shell command; returns the child's exit status (or -1).
int run(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

constexpr const char* kUsage = "usage: test";

constexpr std::size_t kNoMax = SIZE_MAX;

TEST(BenchArgs, AcceptsDecimalAtOrAboveMinimum) {
  EXPECT_EQ(parseCountArg("--max-workers", "1", 1, kMaxSweepWorkers, kUsage),
            1u);
  EXPECT_EQ(parseCountArg("--max-workers", "80", 1, kMaxSweepWorkers, kUsage),
            80u);
  EXPECT_EQ(parseCountArg("--max-workers", "007", 1, kMaxSweepWorkers, kUsage),
            7u);
  EXPECT_EQ(parseCountArg("--max-workers", "256", 1, kMaxSweepWorkers, kUsage),
            256u);
  EXPECT_EQ(parseCountArg("--cycles", "0", 0, kNoMax, kUsage), 0u);
}

// The old std::atol parse turned "0" into a worker count that tripped
// VirtualExecutor's workers > 0 assert (exit 134).
TEST(BenchArgsDeathTest, RejectsValueBelowMinimum) {
  EXPECT_EXIT(parseCountArg("--max-workers", "0", 1, kMaxSweepWorkers, kUsage),
              ::testing::ExitedWithCode(2), "expected an integer >= 1");
  EXPECT_EXIT(parseCountArg("--workers", "3", 4, kNoMax, kUsage),
              ::testing::ExitedWithCode(2), "got '3'");
}

// A sweep builds one virtual clock per worker, so an unbounded
// --max-workers ran into bad_alloc instead of exiting 2.
TEST(BenchArgsDeathTest, RejectsValueAboveMaximum) {
  EXPECT_EXIT(
      parseCountArg("--max-workers", "257", 1, kMaxSweepWorkers, kUsage),
      ::testing::ExitedWithCode(2), "<= 256, got '257'");
  EXPECT_EXIT(parseCountArg("--max-workers", "18446744073709551615", 1,
                            kMaxSweepWorkers, kUsage),
              ::testing::ExitedWithCode(2), "--max-workers");
}

TEST(BenchArgsDeathTest, RejectsNonDecimalValues) {
  for (const char* bad : {"abc", "", "-1", "+3", " 4", "0x10"}) {
    EXPECT_EXIT(parseCountArg("--cycles", bad, 0, kNoMax, kUsage),
                ::testing::ExitedWithCode(2), "usage: test")
        << "'" << bad << "'";
  }
}

TEST(BenchArgsDeathTest, RejectsTrailingJunkAndOverflow) {
  for (const char* bad : {"12x", "4 ", "1.5", "99999999999999999999999"}) {
    EXPECT_EXIT(parseCountArg("--max-workers", bad, 1, kMaxSweepWorkers,
                              kUsage),
                ::testing::ExitedWithCode(2), "--max-workers")
        << "'" << bad << "'";
  }
}

// Bad counts reach the binaries' own flags and exit 2 instead of aborting.
TEST(BenchCli, FigureBenchesRejectBadCounts) {
  const std::string fig9 = OWLCL_BENCH_FIG9_PATH;
  const std::string fig10 = OWLCL_BENCH_FIG10_PATH;
  const std::string fig11 = OWLCL_BENCH_FIG11_PATH;
  for (const std::string& cmd :
       {fig9 + " --max-workers=0", fig9 + " --max-workers=abc",
        fig9 + " --max-workers=257", fig10 + " --max-workers=0",
        fig10 + " --max-workers=-2", fig10 + " --max-workers=257",
        fig11 + " --workers=0", fig11 + " --workers=2x",
        fig11 + " --workers=257",
        fig11 + " --cycles=-1", fig11 + " --cycles="}) {
    EXPECT_EQ(run(cmd + " > /dev/null 2>&1"), 2) << cmd;
  }
}

// An unknown --group or argument used to be ignored silently (fig10
// --group=c printed nothing and exited 0).
TEST(BenchCli, UnknownGroupsAndArgumentsAreRejected) {
  const std::string fig9 = OWLCL_BENCH_FIG9_PATH;
  const std::string fig10 = OWLCL_BENCH_FIG10_PATH;
  const std::string fig11 = OWLCL_BENCH_FIG11_PATH;
  for (const std::string& cmd :
       {fig9 + " --group=d", fig9 + " --bogus", fig10 + " --group=c",
        fig10 + " --group=", fig10 + " extra", fig11 + " --group=a"}) {
    EXPECT_EQ(run(cmd + " > /dev/null 2>&1"), 2) << cmd;
  }
}

}  // namespace
}  // namespace owlcl::bench
