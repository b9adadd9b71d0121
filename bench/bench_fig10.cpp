// Regenerates Figure 10: speedup vs number of workers (1..80) for the
// five QCR ontologies of Table V, grouped by QCR count:
//   (a) QCRs ≈ 40  — ncitations (47), nskisimple (43), ddiv2 (48)
//   (b) QCR-heavy  — rnao (446), bridg (967)
//
// Expected shapes (Section V-B): group (a) keeps improving with threads;
// rnao (446 QCRs) also scales well, but bridg (967 QCRs) contains a few
// extremely hard subsumption tests that dominate the critical path, so
// its speedup peaks around 4 workers and stays ≈4 afterwards.
//
// Usage: bench_fig10 [--group=a|b] [--max-workers=N]
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace owlcl;
  using namespace owlcl::bench;

  const char* usage = "usage: bench_fig10 [--group=a|b] [--max-workers=N]";
  std::string group;  // empty = all
  std::size_t maxWorkers = 80;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--group=", 8) == 0) {
      group = argv[i] + 8;
      if (group != "a" && group != "b") {
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
  for (const char* g : {"a", "b"}) {
    if (!group.empty() && group != g) continue;
    const std::string figure = std::string("10") + g;
    printHeader(("Figure 10(" + std::string(g) +
                 ") — speedup vs workers, ontologies with QCRs")
                    .c_str());
    for (const PaperOntologyRow& row : oreQcr2014Suite()) {
      if (row.figureGroup != figure) continue;
      const SweepResult r = sweepRow(row, workerCounts);
      std::printf("%s", renderSweepTable(r).c_str());
      const SweepPoint peak = peakOf(r);
      std::printf("peak: speedup %.1f at %zu workers (n=%zu, q=%zu)\n\n",
                  peak.speedup, peak.workers, row.paperConcepts, row.paperQcrs);
    }
  }
  return 0;
}
