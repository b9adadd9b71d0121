// Regenerates Figure 9: speedup vs number of workers (1..140) for the
// nine EL ontologies of Table IV, grouped by size:
//   (a) small  — obo.PREVIOUS (1663), EHDAA2 (2726), WBbt (6785)
//   (b) medium — MIRO (4366), CLEMAPA (5946), actpathway (7911)
//   (c) large  — EHDA (8341), lanogaster (10925), EMAP (13735)
//
// Expected shapes (Section V-A): near-linear speedup while partitions are
// big; the smallest ontologies peak at moderate worker counts and then
// degrade ("partition size becomes too small, overhead affects the
// performance adversely"); large ontologies keep improving to 140.
//
// Usage: bench_fig9 [--group=a|b|c] [--max-workers=N]
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace owlcl;
  using namespace owlcl::bench;

  const char* usage = "usage: bench_fig9 [--group=a|b|c] [--max-workers=N]";
  std::string group;  // empty = all
  std::size_t maxWorkers = 140;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--group=", 8) == 0) {
      group = argv[i] + 8;
      if (group != "a" && group != "b" && group != "c") {
        std::fprintf(stderr, "unknown group: %s\n%s\n", group.c_str(), usage);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--max-workers=", 14) == 0) {
      maxWorkers = parseCountArg("--max-workers", argv[i] + 14, 1,
                                 kMaxSweepWorkers, usage);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n%s\n", argv[i], usage);
      return 2;
    }
  }

  const std::vector<std::size_t> workerCounts = figureWorkerCounts(maxWorkers);
  for (const char* g : {"a", "b", "c"}) {
    if (!group.empty() && group != g) continue;
    const std::string figure = std::string("9") + g;
    printHeader(("Figure 9(" + std::string(g) +
                 ") — speedup vs workers, ontologies grouped by size")
                    .c_str());
    for (const PaperOntologyRow& row : oreEl2015Suite()) {
      if (row.figureGroup != figure) continue;
      const SweepResult r = sweepRow(row, workerCounts);
      std::printf("%s", renderSweepTable(r).c_str());
      const SweepPoint peak = peakOf(r);
      std::printf("peak: speedup %.1f at %zu workers (n=%zu concepts)\n\n",
                  peak.speedup, peak.workers, row.paperConcepts);
    }
  }
  return 0;
}
