// The owlcl flag table against the real binary: every subcommand rejects
// the flags it would ignore — at parse time, before the ontology is even
// opened — and the flags `owlcl` lists per subcommand are exactly the
// README's CLI reference table.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "parallel/bit_kernels.hpp"
#include "support/cli_run.hpp"
#include "support/test_dir.hpp"

#ifndef OWLCL_CLI_PATH
#error "OWLCL_CLI_PATH must be defined to the owlcl binary path"
#endif

namespace owlcl {
namespace {

namespace fs = std::filesystem;

const std::string kCli = OWLCL_CLI_PATH;
const std::string kOntology =
    std::string(OWLCL_EXAMPLE_DATA_DIR) + "/university.ofn";

// The ontology path does not exist, so a flag rejected only after loading
// would exit 1 (load error), not 2.
TEST(CliFlags, SubcommandsRejectFlagsTheyDoNotRead) {
  const std::string dir = freshTestDir("cli-flags");
  const std::string missing = dir + "/missing.ofn";
  const std::string ckpt = dir + "/ckpt";
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"classify", "--port=5"},
      {"classify", "--max-workers=3"},
      {"serve", "--apply-deltas=" + dir + "/deltas.txt"},
      {"serve", "--verify"},
      {"serve", "--output=dot"},
      {"serve", "--serve-deadline-ms=9223372036855"},
      {"sweep", "--workers=2"},
      {"sweep", "--checkpoint-dir=" + ckpt},
      {"sweep", "--route-el=on"},
      {"metrics", "--workers=2"},
      {"convert", "--workers=2"},
  };
  for (const auto& [command, flag] : cases)
    EXPECT_EQ(run(kCli + " " + command + " " + missing + " " + flag +
                  " > /dev/null 2>&1"),
              2)
        << command << " " << flag;
  EXPECT_FALSE(fs::exists(ckpt)) << "a rejected flag must not start work";
  // Bad values of flags it does read are rejected just as early.
  for (const auto& [command, bad] :
       {std::pair{"classify", "--route-el=foo"},
        std::pair{"classify", "--budget-ms=18446744073710"},
        std::pair{"sweep", "--max-workers=257"}})
    EXPECT_EQ(run(kCli + " " + command + " " + missing + " " + bad +
                  " > /dev/null 2>&1"),
              2)
        << command << " " << bad;
  // The retired configuration switches are unknown to every subcommand.
  for (const char* command : {"classify", "serve", "sweep", "metrics",
                              "convert"})
    for (const char* retired :
         {"--backend=el", "--bit-backend=portable", "--shared-cache",
          "--merge-models", "--query-snapshot=off"})
      EXPECT_EQ(run(kCli + " " + command + " " + missing + " " + retired +
                    " > /dev/null 2>&1"),
                2)
          << command << " " << retired;

  // Each subcommand still accepts a flag it does read.
  EXPECT_EQ(run(kCli + " classify " + kOntology +
                " --workers=2 --output=none > /dev/null 2>&1"),
            0);
  EXPECT_EQ(run(kCli + " serve " + kOntology +
                " --query-threads=1 --query-file=/dev/null > /dev/null 2>&1"),
            0);
  EXPECT_EQ(run(kCli + " sweep " + kOntology +
                " --max-workers=2 > /dev/null 2>&1"),
            0);
  EXPECT_EQ(run(kCli + " metrics " + kOntology + " > /dev/null 2>&1"), 0);
  fs::remove_all(dir);
}

// OWLCL_BIT_BACKEND is no longer read: the bit kernels are fixed by
// CPUID, so setting the retired variable changes nothing --stats reports
// and draws no warning.
TEST(CliFlags, BitBackendEnvironmentVariableIsIgnored) {
  const std::string dir = freshTestDir("cli-bit-env");
  const std::string want =
      std::string("bit kernels: ") + activeBitKernels().name() + " backend";
  for (const char* forced : {"portable", "no-such-backend"}) {
    const std::string stats = dir + "/stats-" + forced + ".txt";
    ASSERT_EQ(run(std::string("OWLCL_BIT_BACKEND=") + forced + " " + kCli +
                  " classify " + kOntology +
                  " --stats --output=none > /dev/null 2> " + stats),
              0)
        << forced;
    const std::string err = slurp(stats);
    EXPECT_NE(err.find(want), std::string::npos) << forced << ": " << err;
    EXPECT_EQ(err.find("OWLCL_BIT_BACKEND"), std::string::npos) << err;
  }
  fs::remove_all(dir);
}

// --stats adds one load line, the parse and reasoner prepare times the
// run setup takes; without --stats the line is absent.
TEST(CliFlags, StatsPrintsTheLoadLine) {
  const std::string dir = freshTestDir("cli-load-line");
  const std::string with = dir + "/with.txt";
  const std::string without = dir + "/without.txt";
  ASSERT_EQ(run(kCli + " classify " + kOntology +
                " --stats --output=none > /dev/null 2> " + with),
            0);
  ASSERT_EQ(run(kCli + " classify " + kOntology + " --output=none > /dev/null 2> " +
                without),
            0);
  const std::regex line(R"(\n  load: parse \d+\.\d ms, reasoner prepare \d+\.\d ms\n)");
  const std::string withErr = slurp(with);
  EXPECT_TRUE(std::regex_search(withErr, line)) << withErr;
  EXPECT_EQ(slurp(without).find("load:"), std::string::npos);
  fs::remove_all(dir);
}

// `--stats` puts the per-phase times from ClassificationResult::cycles
// right under the load line; only the format is checked, not the times.
TEST(CliFlags, StatsPrintsThePhasesLine) {
  const std::string dir = freshTestDir("cli-phases-line");
  const std::string with = dir + "/with.txt";
  const std::string without = dir + "/without.txt";
  const std::string anatomy =
      std::string(OWLCL_EXAMPLE_DATA_DIR) + "/anatomy.obo";
  ASSERT_EQ(run(kCli + " classify " + anatomy +
                " --route-el=on --stats --output=none > /dev/null 2> " + with),
            0);
  ASSERT_EQ(run(kCli + " classify " + anatomy +
                " --route-el=on --output=none > /dev/null 2> " + without),
            0);
  const std::regex lines(
      R"(\n  load: parse \d+\.\d ms, reasoner prepare \d+\.\d ms\n)"
      R"(  phases: route \d+\.\d ms, phase 1 \d+\.\d ms, phase 2 \d+\.\d ms, )"
      R"(hierarchy \d+\.\d ms\n)");
  const std::string withErr = slurp(with);
  EXPECT_TRUE(std::regex_search(withErr, lines)) << withErr;
  EXPECT_EQ(slurp(without).find("phases:"), std::string::npos);
  fs::remove_all(dir);
}

// --max-workers=256 is the ceiling, not past it: the sweep runs and its
// last row is the 256-worker point.
TEST(CliFlags, SweepRunsAtTheWorkerCeiling) {
  const std::string dir = freshTestDir("cli-sweep-ceiling");
  const std::string table = dir + "/sweep.txt";
  ASSERT_EQ(run(kCli + " sweep " + kOntology + " --max-workers=256 > " +
                table + " 2> /dev/null"),
            0);
  std::istringstream rows(slurp(table));
  std::string row, last;
  while (std::getline(rows, row))
    if (!row.empty()) last = row;
  std::istringstream fields(last);
  std::size_t workers = 0;
  EXPECT_TRUE(fields >> workers) << last;
  EXPECT_EQ(workers, 256u) << last;
  fs::remove_all(dir);
}

using FlagSets = std::map<std::string, std::set<std::string>>;

/// "--name=VALUE" or "--name" → "--name".
std::string flagName(const std::string& spelled) {
  return spelled.substr(0, spelled.find_first_of("= `"));
}

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(' ');
  return b == std::string::npos
             ? std::string()
             : s.substr(b, s.find_last_not_of(' ') - b + 1);
}

/// Splits a markdown table row on unescaped '|' into trimmed cells (the
/// first, before the leading '|', is empty).
std::vector<std::string> cells(const std::string& row) {
  std::vector<std::string> out(1);
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] == '|' && (i == 0 || row[i - 1] != '\\'))
      out.emplace_back();
    else
      out.back() += row[i];
  }
  for (std::string& cell : out) cell = trim(cell);
  return out;
}

TEST(CliFlags, UsageListsTheReadmeFlagTable) {
  const std::string dir = freshTestDir("cli-usage");
  ASSERT_EQ(run(kCli + " > /dev/null 2> " + dir + "/usage.txt"), 2);

  // Usage: a line starting with a subcommand name opens its section; each
  // "  --flag..." line below it is a flag that subcommand reads.
  const std::vector<std::string> commands = {"classify", "serve", "sweep",
                                             "metrics", "convert"};
  FlagSets usage;
  {
    std::istringstream in(slurp(dir + "/usage.txt"));
    std::string line, section;
    while (std::getline(in, line)) {
      const std::string first = line.substr(0, line.find(' '));
      for (const std::string& c : commands)
        if (first == c) section = c;
      if (line.rfind("  --", 0) == 0 && !section.empty())
        usage[section].insert(flagName(line.substr(2)));
    }
  }
  for (const std::string& c : commands) usage[c];  // metrics/convert: none

  // README: the "## CLI reference" table, one row per flag with a mark in
  // each subcommand column that reads it; metrics and convert read none.
  FlagSets readme;
  for (const std::string& c : commands) readme[c];
  {
    std::ifstream in(OWLCL_README_PATH);
    ASSERT_TRUE(in.good());
    std::string line;
    bool inReference = false;
    std::vector<std::string> columns;
    while (std::getline(in, line)) {
      if (line.rfind("## ", 0) == 0)
        inReference = line.rfind("## CLI reference", 0) == 0;
      if (!inReference || line.rfind("|", 0) != 0) continue;
      const std::vector<std::string> row = cells(line);
      if (columns.empty()) {  // header row: | flag | classify | ... |
        columns = row;
        continue;
      }
      if (row.size() < 2 || row[1].rfind("`--", 0) != 0) continue;
      const std::string name = flagName(row[1].substr(1));
      for (std::size_t i = 2; i < row.size() && i < columns.size(); ++i)
        if (readme.count(columns[i]) != 0 && row[i] == "✓")
          readme[columns[i]].insert(name);
    }
  }
  for (const std::string& c : commands)
    EXPECT_EQ(usage[c], readme[c]) << "flags of owlcl " << c;
  EXPECT_EQ(usage["classify"].size(), 17u);
  EXPECT_EQ(usage["serve"].size(), 22u);
  EXPECT_EQ(usage["sweep"].size(), 2u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace owlcl
