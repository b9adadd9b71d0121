// Shared helpers for the figure/table regeneration benches.
//
// Cost-model calibration (documented in EXPERIMENTS.md): an individual
// HermiT subsumption test costs roughly proportionally to ontology size,
// and more for higher expressivity, so
//   EL rows (Table IV):  base = 5 ns × axiomCount   (~20–140 µs/test)
//   QCR rows (Table V):  base = 15 ns × axiomCount  (SROIQ-ish tests)
// Absolute values only scale the virtual clock; the figure *shapes* come
// from the ratios between test cost, per-worker overhead and hardness
// skew.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "owl/metrics.hpp"
#include "simsched/sweep.hpp"

namespace owlcl::bench {

inline CostModel costModelForRow(const PaperOntologyRow& row,
                                 std::size_t axiomCount) {
  CostModel cm;
  const bool qcrRow = row.paperQcrs > 0;
  // SROIQ-class tests (Table V) are orders of magnitude slower per test
  // than EL ones — 200 ns/axiom vs 5 ns/axiom reproduces that gap.
  cm.baseNs = (qcrRow ? 200 : 5) * static_cast<std::uint64_t>(axiomCount);

  // Section V-B: "just a few subsumption tests may require a significant
  // amount of the total runtime" for QCR-heavy ontologies. bridg (967
  // QCRs on 320 concepts) gets exactly four extremely hard concepts; with
  // symmetric pair claiming a hard concept's whole row+column lands in one
  // group task, so the speedup plateaus at ≈ #hard-concepts = 4 — the
  // Fig. 10(b) observation ("best performance for four workers,
  // afterwards the speedup factor remains around 4").
  if (row.paperQcrs >= 900) {
    cm.markHardConcepts(row.config.concepts, 4, 2000, row.config.seed);
  } else if (row.paperQcrs >= 400) {
    cm.markHardConcepts(row.config.concepts, row.config.concepts / 10, 4,
                        row.config.seed);
  } else if (qcrRow) {
    cm.markHardConcepts(row.config.concepts, row.config.concepts / 20, 2,
                        row.config.seed);
  }
  return cm;
}

/// Runs the sweep for one paper row and prints the figure series.
inline SweepResult sweepRow(const PaperOntologyRow& row,
                            const std::vector<std::size_t>& workerCounts,
                            ClassifierConfig config = {}) {
  GeneratedOntology g = generateOntology(row.config);
  const OntologyMetrics m = computeMetrics(*g.tbox);
  CostModel cm = costModelForRow(row, m.axioms);
  MockReasoner mock(g.truth, std::move(cm));
  SweepResult result =
      runSpeedupSweep(row.config.name, *g.tbox, mock, workerCounts, config);
  return result;
}

/// Wall-clock statistics over repeated timed runs: min is the headline
/// number (least scheduling noise), mean rides along so CI trend tracking
/// can spot bimodal behaviour that a min alone hides.
struct RepeatStats {
  std::uint64_t wallNsMin = 0;
  std::uint64_t wallNsMean = 0;
};

/// Runs `fn` (which returns the run's wall ns) `warmups` discarded times —
/// page-in, allocator, branch-predictor warm-up — then `repeats` recorded
/// times, and reports min/mean of the recorded runs.
template <class Fn>
RepeatStats repeatWall(int warmups, int repeats, Fn&& fn) {
  for (int i = 0; i < warmups; ++i) (void)fn();
  RepeatStats st;
  std::uint64_t sum = 0;
  for (int i = 0; i < repeats; ++i) {
    const std::uint64_t ns = fn();
    sum += ns;
    if (st.wallNsMin == 0 || ns < st.wallNsMin) st.wallNsMin = ns;
  }
  if (repeats > 0) st.wallNsMean = sum / static_cast<std::uint64_t>(repeats);
  return st;
}

/// Strict value of a figure bench's "--flag=N" argument: the whole token
/// must be a decimal integer in min..max. Anything else ("abc", "-1", "",
/// trailing junk, overflow, a value past max) prints `usage` and exits 2
/// before any sweep starts.
inline std::size_t parseCountArg(const char* flag, const char* value,
                                 std::size_t min, std::size_t max,
                                 const char* usage) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(value, &end, 10);
  if (*value < '0' || *value > '9' || *end != '\0' || errno == ERANGE ||
      n < min || n > max) {
    std::fprintf(stderr,
                 "%s: expected an integer >= %zu and <= %zu, got '%s'\n%s\n",
                 flag, min, max, value, usage);
    std::exit(2);
  }
  return static_cast<std::size_t>(n);
}

inline void printHeader(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

/// Peak of a sweep (worker count with the highest speedup).
inline SweepPoint peakOf(const SweepResult& r) {
  SweepPoint best;
  for (const SweepPoint& p : r.points)
    if (p.speedup > best.speedup) best = p;
  return best;
}

}  // namespace owlcl::bench
