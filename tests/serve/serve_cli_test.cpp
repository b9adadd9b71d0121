// Serve-mode drills against the real CLI binary: batch queries answered
// through a live background classification, kill -9-equivalent death
// mid-run (both at a checkpoint crash point and after the Nth served
// query), and `serve --resume` whose answers must byte-match an
// uninterrupted run. stdout carries only response lines (diagnostics go
// to stderr), so the comparison is a straight slurp.
#include <gtest/gtest.h>

#include <algorithm>
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

class ServeCliTest : public ::testing::Test {
 protected:
  // A passing case leaves nothing behind; a failing one keeps its
  // directory for inspection.
  void TearDown() override {
    if (!HasFailure()) fs::remove_all(base_);
  }

  void SetUp() override {
    base_ = freshTestDir("serve-drill");

    // Big enough that checkpoint crash points fire mid-classification.
    GenConfig gc;
    gc.name = "serve-drill";
    gc.concepts = 60;
    gc.subClassEdges = 90;
    gc.equivalentAxioms = 3;
    gc.seed = 5;
    const GeneratedOntology onto = generateOntology(gc);
    onto_ = base_ + "/drill.ofn";
    std::ofstream out(onto_);
    writeFunctionalSyntax(*onto.tbox, out);
    out.close();
    ASSERT_TRUE(out.good());

    // Deterministic query file: subs/sat only (no status — its counters
    // vary run to run) with generous deadlines so every answer settles
    // from the store, never the direct-fallback rung.
    queries_ = base_ + "/queries.txt";
    std::ofstream q(queries_);
    std::uint64_t id = 0;
    const std::size_t n = onto.tbox->conceptCount();
    for (std::size_t a = 0; a < n; a += 5)
      for (std::size_t b = 2; b < n; b += 9)
        q << "{\"op\":\"subs\",\"id\":" << id++ << ",\"sub\":\""
          << onto.tbox->conceptName(static_cast<ConceptId>(a))
          << "\",\"sup\":\""
          << onto.tbox->conceptName(static_cast<ConceptId>(b))
          << "\",\"deadline_ms\":60000}\n";
    for (std::size_t c = 0; c < n; c += 4)
      q << "{\"op\":\"sat\",\"id\":" << id++ << ",\"concept\":\""
        << onto.tbox->conceptName(static_cast<ConceptId>(c))
        << "\",\"deadline_ms\":60000}\n";
    q.close();
    ASSERT_TRUE(q.good());

    golden_ = base_ + "/golden.txt";
    ASSERT_EQ(run(serveCmd(base_ + "/ckpt-golden", "") + " > " + golden_ +
                  " 2>/dev/null"),
              0);
    ASSERT_FALSE(slurp(golden_).empty());
  }

  std::string serveCmd(const std::string& dir,
                       const std::string& extra) const {
    return std::string(OWLCL_CLI_PATH) + " serve " + onto_ +
           " --workers=3 --checkpoint-dir=" + dir +
           " --query-file=" + queries_ + " " + extra;
  }

  /// Crash via `crashExtra`, then resume plainly; answers must byte-match
  /// the uninterrupted golden run.
  void drill(const std::string& name, const std::string& crashExtra) {
    const std::string dir = base_ + "/ckpt-" + name;
    const std::string out = base_ + "/" + name + ".txt";
    ASSERT_EQ(run(serveCmd(dir, crashExtra) + " > /dev/null 2>&1"), 137)
        << name << ": crash point never fired";
    ASSERT_EQ(run(serveCmd(dir, "--resume") + " > " + out + " 2>/dev/null"), 0)
        << name << ": resume failed";
    EXPECT_EQ(slurp(golden_), slurp(out))
        << name << ": served answers differ from the uninterrupted run";
  }

  std::string base_;
  std::string onto_;
  std::string queries_;
  std::string golden_;
};

// Classification-layer crash point while the serving path is live.
TEST_F(ServeCliTest, KillAtBarrierAndResumeByteMatches) {
  drill("at-barrier", "--inject-crash=point=at-barrier,after=2");
}

TEST_F(ServeCliTest, KillMidJournalAndResumeByteMatches) {
  drill("after-journal", "--inject-crash=point=after-journal,after=300");
}

// Serving-layer crash point: die right after the 3rd answered query.
TEST_F(ServeCliTest, KillAfterServedQueriesAndResumeByteMatches) {
  drill("after-queries", "--inject-serve-faults=crash-after-queries=3");
}

// Injected worker faults produce explicit "internal" errors but never
// kill the server; a fault-free rerun over the same checkpoint dir
// (completed run → resume is an identity op) matches golden.
TEST_F(ServeCliTest, QueryFaultsAreContained) {
  const std::string dir = base_ + "/ckpt-faulty";
  const std::string out = base_ + "/faulty.txt";
  ASSERT_EQ(run(serveCmd(dir, "--inject-serve-faults=query-fault-every=7") +
                " > " + out + " 2>/dev/null"),
            0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("\"error\":\"internal\""), std::string::npos)
      << "fault injection never fired";
  const std::string out2 = base_ + "/faulty-rerun.txt";
  ASSERT_EQ(run(serveCmd(dir, "--resume") + " > " + out2 + " 2>/dev/null"), 0);
  EXPECT_EQ(slurp(golden_), slurp(out2));
}

// The query pool size is bounded like --workers, and within the bound it
// does not change a settled answer.
TEST_F(ServeCliTest, QueryThreadCountIsBoundedAndDoesNotChangeAnswers) {
  for (const char* bad : {"--query-threads=257", "--query-threads=0",
                          "--workers=257"}) {
    EXPECT_EQ(run(serveCmd(base_ + "/ckpt-bad", bad) + " > /dev/null 2>&1"), 2)
        << bad;
  }
  EXPECT_FALSE(fs::exists(base_ + "/ckpt-bad"))
      << "a rejected thread count must exit before any work starts";
  const std::string out = base_ + "/one-query-thread.txt";
  ASSERT_EQ(run(serveCmd(base_ + "/ckpt-one", "--query-threads=1") + " > " +
                out + " 2>/dev/null"),
            0);
  EXPECT_EQ(slurp(golden_), slurp(out));
}

// Malformed protocol lines answer with parse errors; the process exits 0.
TEST_F(ServeCliTest, MalformedQueryFileNeverCrashesTheServer) {
  const std::string bad = base_ + "/bad-queries.txt";
  {
    std::ofstream q(bad);
    q << "not json\n"
      << "{\"op\":\"subs\"\n"
      << "{}\n"
      << "{\"op\":\"sat\",\"concept\":\"NoSuchConcept\"}\n"
      << std::string(100000, 'x') << "\n"
      << "{\"op\":\"subs\",\"sub\":\"A\",\"sup\":\n";
  }
  const std::string out = base_ + "/bad.txt";
  ASSERT_EQ(run(std::string(OWLCL_CLI_PATH) + " serve " + onto_ +
                " --workers=2 --query-file=" + bad + " > " + out +
                " 2>/dev/null"),
            0);
  const std::string text = slurp(out);
  // One response line per input line, each an explicit error.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_NE(text.find("\"error\":\"parse\""), std::string::npos);
  EXPECT_NE(text.find("\"error\":\"unknown-concept\""), std::string::npos);
}

}  // namespace
}  // namespace owlcl
