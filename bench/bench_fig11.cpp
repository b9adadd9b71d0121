// Regenerates Figure 11: load balancing between the random-division and
// group-division phases on ncitations_functional (2332 concepts, 10
// workers, 10 random cycles + group cycles).
//
// Per division cycle it prints the paper's two series:
//   Possible ratio (Definition 3):
//       (InitialPossible - RemainingPossible) / InitialPossible
//   Runtime ratio: accumulated cycle runtime / total division runtime
//
// Expected shape: the random cycles reduce the possible set by roughly
// 60% before the group phase finishes the rest, with the runtime ratio
// tracking the possible ratio closely.
//
// Usage: bench_fig11 [--cycles=N] [--workers=N]
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace owlcl;
  using namespace owlcl::bench;

  const char* usage = "usage: bench_fig11 [--cycles=N] [--workers=N]";
  std::size_t cycles = 10;
  std::size_t workers = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--cycles=", 9) == 0) {
      cycles = parseCountArg("--cycles", argv[i] + 9, 0, SIZE_MAX, usage);
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = parseCountArg("--workers", argv[i] + 10, 1,
                              kMaxSweepWorkers, usage);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n%s\n", argv[i], usage);
      return 2;
    }
  }

  const PaperOntologyRow row = oreQcr2014Suite()[0];  // ncitations_functional
  GeneratedOntology g = generateOntology(row.config);
  const OntologyMetrics m = computeMetrics(*g.tbox);
  MockReasoner mock(g.truth, costModelForRow(row, m.axioms));

  ClassifierConfig config;
  config.randomCycles = cycles;
  VirtualExecutor exec(workers);
  ParallelClassifier classifier(*g.tbox, mock, config);
  const ClassificationResult r = classifier.classify(exec);

  printHeader("Figure 11 — division cycle result of ncitations_functional");
  std::printf("concepts = %zu, threads = %zu, random cycles = %zu\n\n",
              row.paperConcepts, workers, cycles);
  std::printf("%-18s %6s %16s %16s %16s\n", "phase", "cycle", "possible-ratio%",
              "runtime-ratio%", "tests");

  // Total division runtime excludes the hierarchy phase (the paper's
  // cycles are division cycles only).
  std::uint64_t totalDivisionNs = 0;
  for (const CycleStats& cs : r.cycles)
    if (cs.phase != CycleStats::Phase::kHierarchy) totalDivisionNs += cs.elapsedNs;

  const double initial = static_cast<double>(r.initialPossible);
  std::uint64_t runtimeAcc = 0;
  for (const CycleStats& cs : r.cycles) {
    if (cs.phase == CycleStats::Phase::kHierarchy) continue;
    runtimeAcc += cs.elapsedNs;
    const double possibleRatio =
        100.0 * (initial - static_cast<double>(cs.possibleAfter)) / initial;
    const double runtimeRatio = 100.0 * static_cast<double>(runtimeAcc) /
                                static_cast<double>(totalDivisionNs);
    std::printf("%-18s %6zu %16.1f %16.1f %16llu\n",
                cs.phase == CycleStats::Phase::kRandomDivision ? "random-division"
                                                               : "group-division",
                cs.index + 1, possibleRatio, runtimeRatio,
                static_cast<unsigned long long>(cs.reasonerTests));
  }
  std::printf("\nreasoner tests: %llu sat + %llu subsumption, %llu pairs pruned "
              "without testing\n",
              static_cast<unsigned long long>(r.satTests),
              static_cast<unsigned long long>(r.subsumptionTests),
              static_cast<unsigned long long>(r.prunedWithoutTest));
  return 0;
}
