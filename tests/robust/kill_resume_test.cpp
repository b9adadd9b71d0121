// Kill-and-resume drills against the real CLI binary: the process is
// killed (SIGKILL-equivalent _exit(137)) at injected crash points in the
// checkpoint layer — mid-journal-append (torn write), after a durable
// append, before a snapshot rename, and right after a barrier — and the
// resumed run must produce a byte-identical taxonomy to an uninterrupted
// one. Exercises the whole stack: CLI flags, journal recovery, snapshot
// fallback, and deterministic resume.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "gen/generator.hpp"
#include "owl/printer.hpp"
#include "support/cli_run.hpp"
#include "support/test_dir.hpp"

#ifndef OWLCL_CLI_PATH
#error "OWLCL_CLI_PATH must be defined to the owlcl binary path"
#endif

namespace owlcl {
namespace {

namespace fs = std::filesystem;

class KillResumeTest : public ::testing::Test {
 protected:
  // A passing case leaves nothing behind; a failing one keeps its
  // directory for inspection.
  void TearDown() override {
    if (!HasFailure()) fs::remove_all(base_);
  }

  void SetUp() override {
    base_ = freshTestDir("kill-resume");

    // A generated ontology big enough that every crash point lands
    // mid-run (a few thousand journal records).
    GenConfig gc;
    gc.name = "drill";
    gc.concepts = 60;
    gc.subClassEdges = 90;
    gc.equivalentAxioms = 3;
    gc.seed = 5;
    const GeneratedOntology onto = generateOntology(gc);
    onto_ = base_ + "/drill.ofn";
    std::ofstream out(onto_);
    writeFunctionalSyntax(*onto_tbox(onto), out);
    out.close();  // flush before the subprocess reads the file
    ASSERT_TRUE(out.good());

    golden_ = base_ + "/golden.txt";
    const int rc = run(classifyCmd(base_ + "/ckpt-golden", "") + " > " +
                       golden_ + " 2>/dev/null");
    ASSERT_EQ(rc, 0);
    ASSERT_FALSE(slurp(golden_).empty());
  }

  static const TBox* onto_tbox(const GeneratedOntology& o) {
    return o.tbox.get();
  }

  std::string classifyCmd(const std::string& dir,
                          const std::string& extra) const {
    return std::string(OWLCL_CLI_PATH) + " classify " + onto_ +
           " --workers=3 --checkpoint-dir=" + dir + " --output=tree " + extra;
  }

  void drill(const std::string& name, const std::string& crashSpec) {
    const std::string dir = base_ + "/ckpt-" + name;
    const std::string out = base_ + "/" + name + ".txt";
    const int crashRc =
        run(classifyCmd(dir, "--inject-crash=" + crashSpec) +
            " > /dev/null 2>&1");
    ASSERT_EQ(crashRc, 137) << name << ": crash point never fired";
    const int resumeRc =
        run(classifyCmd(dir, "--resume") + " > " + out + " 2>/dev/null");
    ASSERT_EQ(resumeRc, 0) << name << ": resume failed";
    EXPECT_EQ(slurp(golden_), slurp(out))
        << name << ": resumed taxonomy differs from the uninterrupted run";
  }

  std::string base_;
  std::string onto_;
  std::string golden_;
};

TEST_F(KillResumeTest, TornJournalWrite) {
  drill("torn", "point=torn-write,after=200");
}

TEST_F(KillResumeTest, CrashAfterDurableJournalAppend) {
  drill("after-journal", "point=after-journal,after=500");
}

TEST_F(KillResumeTest, CrashBeforeSnapshotRename) {
  drill("before-rename", "point=before-rename,after=1");
}

TEST_F(KillResumeTest, CrashAtBarrier) {
  drill("at-barrier", "point=at-barrier,after=2");
}

// Routed drill: the drill ontology is fully EL, so --route-el=on settles
// every pair from the saturation closure, journaling the routed verdicts
// right after the genesis snapshot (DESIGN.md §13). A crash mid-seed must
// recover: resume never re-routes — journal replay restores the routed
// prefix and the tableau finishes whatever was not yet claimed.
TEST_F(KillResumeTest, RoutedRunMatchesGoldenAndSurvivesCrash) {
  // Uninterrupted routed run == unrouted golden.
  const std::string routedOut = base_ + "/routed.txt";
  ASSERT_EQ(run(classifyCmd(base_ + "/ckpt-routed", "--route-el=on") + " > " +
                routedOut + " 2>/dev/null"),
            0);
  EXPECT_EQ(slurp(golden_), slurp(routedOut))
      << "EL routing changed the taxonomy";

  // Crash while the journal is dominated by routed seed records.
  const std::string dir = base_ + "/ckpt-routed-crash";
  const std::string out = base_ + "/routed-crash.txt";
  const int crashRc = run(
      classifyCmd(dir,
                  "--route-el=on --inject-crash=point=after-journal,after=50") +
      " > /dev/null 2>&1");
  ASSERT_EQ(crashRc, 137) << "crash point never fired";
  ASSERT_EQ(run(classifyCmd(dir, "--route-el=on --resume") + " > " + out +
                " 2>/dev/null"),
            0);
  EXPECT_EQ(slurp(golden_), slurp(out))
      << "routed resume differs from the uninterrupted run";
}

TEST_F(KillResumeTest, ResumeAfterCompletedRunIsIdentityOp) {
  const std::string dir = base_ + "/ckpt-complete";
  ASSERT_EQ(run(classifyCmd(dir, "") + " > /dev/null 2>&1"), 0);
  const std::string out = base_ + "/complete-resume.txt";
  ASSERT_EQ(run(classifyCmd(dir, "--resume") + " > " + out + " 2>/dev/null"),
            0);
  EXPECT_EQ(slurp(golden_), slurp(out));
}

// Options the CLI does not know and malformed values exit 2 before any
// work starts, instead of running with a silently substituted value.
// Millisecond values past 2^62 ns would overflow the watchdog's
// steady-clock deadline and cancel the run before its first test.
TEST_F(KillResumeTest, UnknownOptionsAndMalformedValuesAreRejected) {
  for (const char* bad :
       {"--seed-told", "--scheduling=steal", "--no-pruning", "--output=xml",
        "--inject-faults=fail-first=-3", "--inject-faults=error=abc",
        "--inject-faults=error=1.5", "--workers=0", "--workers=257",
        "--query-threads=257", "--budget-ms=9223372036854",
        "--budget-ms=18446744073710", "--deadline-ms=18446744073710"}) {
    EXPECT_EQ(run(std::string(OWLCL_CLI_PATH) + " classify " + onto_ + " " +
                  bad + " > /dev/null 2>&1"),
              2)
        << bad;
  }
}

// Worker counts inside the thread ceiling are accepted and agree with the
// golden run's three workers.
TEST_F(KillResumeTest, WorkerCountsWithinCeilingAgree) {
  for (const char* workers : {"1", "8"}) {
    const std::string out = base_ + "/workers-" + workers + ".txt";
    ASSERT_EQ(run(classifyCmd(base_ + "/ckpt-workers-" + workers,
                              std::string("--workers=") + workers) +
                  " > " + out + " 2>/dev/null"),
              0)
        << workers;
    EXPECT_EQ(slurp(golden_), slurp(out)) << workers;
  }
}

// The three --output values the CLI accepts: tree is the golden, dot
// renders a graph, none prints nothing.
TEST_F(KillResumeTest, OutputModesRenderOrStaySilent) {
  const std::string cli = std::string(OWLCL_CLI_PATH) + " classify " + onto_;
  const std::string dot = base_ + "/out.dot";
  const std::string none = base_ + "/out.none";
  ASSERT_EQ(run(cli + " --output=dot > " + dot + " 2>/dev/null"), 0);
  EXPECT_EQ(slurp(dot).rfind("digraph", 0), 0u);
  ASSERT_EQ(run(cli + " --output=none > " + none + " 2>/dev/null"), 0);
  EXPECT_TRUE(slurp(none).empty());
}

// The strict --inject-faults parser still takes every key in range; the
// faults are retried away and the run matches the golden.
TEST_F(KillResumeTest, WellFormedFaultSpecIsAcceptedAndRecovers) {
  const std::string out = base_ + "/faults.txt";
  ASSERT_EQ(run(classifyCmd(base_ + "/ckpt-faults",
                            "--max-retries=8 --inject-faults=seed=7,"
                            "error=0.05,resource=0.05,timeout=0.05,"
                            "delay-ms=1,sleep-ms=0,target=0.1,fail-first=2") +
                " > " + out + " 2>/dev/null"),
            0);
  EXPECT_EQ(slurp(golden_), slurp(out));
}

TEST_F(KillResumeTest, ResumeWithoutCheckpointDirFailsCleanly) {
  EXPECT_EQ(run(std::string(OWLCL_CLI_PATH) + " classify " + onto_ +
                " --resume > /dev/null 2>&1"),
            2);
  // And resume against an empty directory reports a clear error.
  EXPECT_EQ(run(classifyCmd(base_ + "/ckpt-empty", "--resume") +
                " > /dev/null 2>&1"),
            1);
}

}  // namespace
}  // namespace owlcl
