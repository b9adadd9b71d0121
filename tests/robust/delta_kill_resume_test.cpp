// Delta-transaction kill drills against the real CLI binary: the process
// dies (_exit 137) at the four delta crash points — mid-WAL-append
// (delta-journal), mid cone rerun (mid-rerun), between the rerun and the
// durable commit record (pre-commit), and during rollback (mid-rollback).
// A `--resume` run must then land on exactly the pre-delta or the
// post-delta taxonomy, never a hybrid: resumed WITH the delta script it
// byte-matches the uninterrupted post-delta run (uncommitted transactions
// are replayed), resumed WITHOUT the script it byte-matches whatever was
// durably committed.
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

class DeltaKillResumeTest : public ::testing::Test {
 protected:
  // A passing case leaves nothing behind; a failing one keeps its
  // directory for inspection.
  void TearDown() override {
    if (!HasFailure()) fs::remove_all(base_);
  }

  void SetUp() override {
    base_ = freshTestDir("delta-kill");

    GenConfig gc;
    gc.name = "dk";
    gc.concepts = 40;
    gc.subClassEdges = 60;
    gc.roles = 3;
    gc.existentialAxioms = 12;
    gc.equivalentAxioms = 2;
    gc.seed = 9;
    const GeneratedOntology onto = generateOntology(gc);
    onto_ = base_ + "/dk.ofn";
    std::ofstream out(onto_);
    writeFunctionalSyntax(*onto.tbox, out);
    out.close();
    ASSERT_TRUE(out.good());

    // Two committing transactions touching real concepts, then a scripted
    // abort (whose rollback is the mid-rollback crash site).
    const std::string c0 = onto.tbox->conceptName(0);
    const std::string c3 = onto.tbox->conceptName(3);
    const std::string c7 = onto.tbox->conceptName(7);
    script_ = base_ + "/deltas.txt";
    std::ofstream s(script_);
    s << "begin\n"
      << "add Declaration(Class(DeltaNew0))\n"
      << "add SubClassOf(DeltaNew0 " << c0 << ")\n"
      << "commit\n"
      << "begin\n"
      << "add SubClassOf(" << c7 << " " << c3 << ")\n"
      << "commit\n"
      << "begin\n"
      << "add SubClassOf(" << c3 << " " << c7 << ")\n"
      << "abort\n";
    s.close();
    ASSERT_TRUE(s.good());

    // Golden taxonomies: generation 0 (no deltas) and post-delta.
    goldenBase_ = base_ + "/golden-base.txt";
    ASSERT_EQ(run(cmd(base_ + "/ckpt-gb", "") + " > " + goldenBase_ +
                  " 2>/dev/null"),
              0);
    goldenDelta_ = base_ + "/golden-delta.txt";
    ASSERT_EQ(run(cmd(base_ + "/ckpt-gd", "--apply-deltas=" + script_) +
                  " > " + goldenDelta_ + " 2>/dev/null"),
              0);
    ASSERT_FALSE(slurp(goldenBase_).empty());
    ASSERT_FALSE(slurp(goldenDelta_).empty());
    ASSERT_NE(slurp(goldenBase_), slurp(goldenDelta_));
  }

  std::string cmd(const std::string& dir, const std::string& extra) const {
    return std::string(OWLCL_CLI_PATH) + " classify " + onto_ +
           " --workers=3 --checkpoint-dir=" + dir + " --output=tree " +
           extra;
  }

  /// Crash at `crashSpec` during the delta replay, then resume twice: with
  /// the script (must byte-match the post-delta golden) and — from a COPY
  /// of the crashed directory — without it (must byte-match a committed
  /// prefix: pre-delta or post-delta, never a hybrid).
  void drill(const std::string& name, const std::string& crashSpec) {
    const std::string dir = base_ + "/ckpt-" + name;
    const int crashRc = run(cmd(dir, "--apply-deltas=" + script_ +
                                         " --inject-crash=" + crashSpec) +
                            " > /dev/null 2>&1");
    ASSERT_EQ(crashRc, 137) << name << ": crash point never fired";

    const std::string dirCopy = dir + "-noreplay";
    fs::copy(dir, dirCopy, fs::copy_options::recursive);

    const std::string out = base_ + "/" + name + ".txt";
    const int resumeRc = run(cmd(dir, "--apply-deltas=" + script_ +
                                          " --resume") +
                             " > " + out + " 2>/dev/null");
    ASSERT_EQ(resumeRc, 0) << name << ": resume failed";
    EXPECT_EQ(slurp(goldenDelta_), slurp(out))
        << name << ": resume-with-script is not the post-delta taxonomy";

    const std::string out2 = base_ + "/" + name + "-noreplay.txt";
    const int bareRc =
        run(cmd(dirCopy, "--resume") + " > " + out2 + " 2>/dev/null");
    ASSERT_EQ(bareRc, 0) << name << ": bare resume failed";
    const std::string bare = slurp(out2);
    EXPECT_TRUE(bare == slurp(goldenBase_) || bare == slurp(goldenDelta_) ||
                bare == committedPrefixGolden(dirCopy))
        << name << ": bare resume is a hybrid taxonomy:\n" << bare;
  }

  /// Golden for "only the transactions durably committed before the
  /// crash": replays the same prefix into a fresh directory.
  std::string committedPrefixGolden(const std::string& crashedDir) {
    // Transaction 1 commits DeltaNew0; if the crashed dir's WAL carries
    // its commit, the committed-prefix golden is txn-1-only.
    const std::string dir = crashedDir + "-prefix";
    fs::remove_all(dir);
    const std::string prefixScript = base_ + "/prefix.txt";
    {
      std::ifstream full(script_);
      std::ofstream p(prefixScript);
      std::string line;
      int commits = 0;
      while (std::getline(full, line) && commits < 1) {
        p << line << "\n";
        if (line == "commit") ++commits;
      }
    }
    const std::string out = dir + "-out.txt";
    if (run(cmd(dir, "--apply-deltas=" + prefixScript) + " > " + out +
            " 2>/dev/null") != 0)
      return "<prefix-golden-failed>";
    return slurp(out);
  }

  std::string base_, onto_, script_, goldenBase_, goldenDelta_;
};

TEST_F(DeltaKillResumeTest, TornDeltaWalAppend) {
  // 2nd WAL append = the first staged add of transaction 1.
  drill("delta-journal", "point=delta-journal,after=2");
}

TEST_F(DeltaKillResumeTest, CrashMidConeRerun) {
  drill("mid-rerun", "point=mid-rerun,after=2");
}

TEST_F(DeltaKillResumeTest, CrashBetweenRerunAndCommitRecord) {
  drill("pre-commit", "point=pre-commit,after=1");
}

TEST_F(DeltaKillResumeTest, CrashDuringRollback) {
  // Fires inside the scripted abort of transaction 3 — after both
  // commits are durable.
  drill("mid-rollback", "point=mid-rollback,after=1");
}

TEST_F(DeltaKillResumeTest, UnknownCrashPointIsRejectedLoudly) {
  const int rc = run(cmd(base_ + "/ckpt-bad",
                         "--inject-crash=point=no-such-stage") +
                     " > /dev/null 2> " + base_ + "/bad.err");
  EXPECT_NE(rc, 0);
  EXPECT_NE(slurp(base_ + "/bad.err").find("unknown --inject-crash point"),
            std::string::npos);
}

}  // namespace
}  // namespace owlcl
