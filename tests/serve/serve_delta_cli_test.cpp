// `owlcl serve` delta-verb drills against the real CLI binary: a batch
// session commits a transaction whose generation must survive into
// `serve --resume`; a batch session that ends with an OPEN transaction
// must abort it on shutdown and still flush a final checkpoint, so the
// resumed server replays the abort deterministically (pre-delta answers).
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

class ServeDeltaCliTest : public ::testing::Test {
 protected:
  // A passing case leaves nothing behind; a failing one keeps its
  // directory for inspection.
  void TearDown() override {
    if (!HasFailure()) fs::remove_all(base_);
  }

  void SetUp() override {
    base_ = freshTestDir("serve-delta-cli");

    GenConfig gc;
    gc.name = "sd";
    gc.concepts = 25;
    gc.subClassEdges = 35;
    gc.seed = 3;
    const GeneratedOntology onto = generateOntology(gc);
    onto_ = base_ + "/sd.ofn";
    std::ofstream out(onto_);
    writeFunctionalSyntax(*onto.tbox, out);
    out.close();
    ASSERT_TRUE(out.good());
    c0_ = onto.tbox->conceptName(0);
    c1_ = onto.tbox->conceptName(1);
  }

  std::string serveCmd(const std::string& dir, const std::string& queryFile,
                       const std::string& extra) const {
    return std::string(OWLCL_CLI_PATH) + " serve " + onto_ +
           " --workers=2 --checkpoint-dir=" + dir +
           " --query-file=" + queryFile + " " + extra;
  }

  std::string writeQueries(const char* name, const std::string& content) {
    const std::string path = base_ + "/" + name;
    std::ofstream q(path);
    q << content;
    return path;
  }

  std::string base_, onto_, c0_, c1_;
};

TEST_F(ServeDeltaCliTest, CommittedDeltaSurvivesIntoResumedServer) {
  const std::string dir = base_ + "/ckpt-commit";
  const std::string session1 = writeQueries(
      "commit-session.txt",
      "{\"op\":\"begin-delta\"}\n"
      "{\"op\":\"add-axiom\",\"axiom\":\"Declaration(Class(LiveNew))\"}\n"
      "{\"op\":\"add-axiom\",\"axiom\":\"SubClassOf(LiveNew " + c0_ +
          ")\"}\n"
      "{\"op\":\"commit\"}\n"
      "{\"op\":\"subs\",\"sub\":\"LiveNew\",\"sup\":\"" + c0_ +
          "\",\"deadline_ms\":60000}\n");
  const std::string out1 = base_ + "/commit1.txt";
  ASSERT_EQ(run(serveCmd(dir, session1, "") + " > " + out1 + " 2>/dev/null"),
            0);
  const std::string text1 = slurp(out1);
  EXPECT_NE(text1.find("\"op\":\"commit\",\"txn\":1"), std::string::npos)
      << text1;
  EXPECT_NE(text1.find("\"result\":true"), std::string::npos) << text1;

  // The committed generation — including the new concept — is what the
  // resumed server answers from.
  const std::string session2 = writeQueries(
      "resume-session.txt",
      "{\"op\":\"subs\",\"sub\":\"LiveNew\",\"sup\":\"" + c0_ +
          "\",\"deadline_ms\":60000}\n");
  const std::string out2 = base_ + "/commit2.txt";
  ASSERT_EQ(run(serveCmd(dir, session2, "--resume") + " > " + out2 +
                " 2>/dev/null"),
            0);
  EXPECT_NE(slurp(out2).find("\"result\":true"), std::string::npos)
      << slurp(out2);
}

TEST_F(ServeDeltaCliTest, OpenTransactionAbortsOnShutdownAndResumeIsPreDelta) {
  const std::string dir = base_ + "/ckpt-open";
  // The session ends (EOF → drain) with the transaction still open: the
  // shutdown path must abort it and flush the final checkpoint anyway.
  const std::string session1 = writeQueries(
      "open-session.txt",
      "{\"op\":\"begin-delta\"}\n"
      "{\"op\":\"add-axiom\",\"axiom\":\"Declaration(Class(Phantom))\"}\n"
      "{\"op\":\"add-axiom\",\"axiom\":\"SubClassOf(Phantom " + c0_ +
          ")\"}\n");
  const std::string err1 = base_ + "/open1.err";
  ASSERT_EQ(run(serveCmd(dir, session1, "") + " > /dev/null 2> " + err1), 0);
  const std::string diag = slurp(err1);
  EXPECT_NE(diag.find("open delta transaction aborted on shutdown"),
            std::string::npos)
      << diag;
  EXPECT_NE(diag.find("final checkpoint flushed"), std::string::npos) << diag;

  // Resume: the aborted transaction never happened — Phantom is unknown
  // and the server comes up instantly from the flushed checkpoint.
  const std::string session2 = writeQueries(
      "open-resume.txt",
      "{\"op\":\"sat\",\"concept\":\"Phantom\",\"deadline_ms\":60000}\n"
      "{\"op\":\"subs\",\"sub\":\"" + c1_ + "\",\"sup\":\"" + c0_ +
          "\",\"deadline_ms\":60000}\n");
  const std::string out2 = base_ + "/open2.txt";
  ASSERT_EQ(run(serveCmd(dir, session2, "--resume") + " > " + out2 +
                " 2>/dev/null"),
            0);
  const std::string text2 = slurp(out2);
  EXPECT_NE(text2.find("unknown-concept"), std::string::npos) << text2;
}

}  // namespace
}  // namespace owlcl
