// Hybrid EL/tableau routing ablation: the real tableau backend classifying
// an EL-heavy generated ontology (mostly ∃/⊓ decorations, a thin ∀ residual)
// in two modes —
//
//   tableau-only        --route-el=off (the paper's architecture)
//   route-el            --route-el=on: saturate the EL sub-ontology first and
//                       seed P/K from its closure (DESIGN.md §13)
//
// The payload is testsPerformed: routing settles every pair of pure-EL
// concepts (both polarities) before phase 1, so the tableau only ever sees
// pairs touching the non-EL residual. Per-phase wall time (routing /
// random-division / group-division / hierarchy) comes from result.cycles.
//
// The routed taxonomy is rendered to a string and byte-compared against
// the tableau-only baseline — the bench doubles as the CI proof that
// routing never changes a verdict. The run FATALs (for the --quick CI
// smoke) unless routing fired (routedConcepts > 0, saturationSeeded > 0)
// and cut tableau tests by >= 10x on this corpus.
//
// Output: human-readable table on stdout, BENCH_routing.json (threads ×
// mode → wall, per-phase ns, test/seed counters) for CI trend tracking.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "util/stopwatch.hpp"

namespace owlcl {
namespace {

struct Mode {
  const char* name;
  ElRouting routeEl;
};

constexpr Mode kModes[] = {
    {"tableau-only", ElRouting::kOff},
    {"route-el", ElRouting::kOn},
};

struct RunResult {
  std::uint64_t wallNs = 0;
  std::uint64_t tests = 0;  // classifier-level sat + subs tests
  std::uint64_t satTests = 0;
  std::uint64_t subsumptionTests = 0;
  std::uint64_t pruned = 0;
  std::uint64_t routedConcepts = 0;
  std::uint64_t saturationSeeded = 0;
  std::uint64_t testsAvoidedByRouting = 0;
  // Per-phase barrier-to-barrier ns, aggregated from result.cycles.
  std::uint64_t routingNs = 0;
  std::uint64_t randomNs = 0;
  std::uint64_t groupNs = 0;
  std::uint64_t hierarchyNs = 0;
  std::string taxonomy;
};

GenConfig workload(bool quick) {
  // EL-heavy: a deep ∃-decorated backbone with equivalences, disjointness
  // and injected unsatisfiable concepts — all EL⁺⊥ — plus a thin ∀ residual
  // (universalAxioms) so the router has a genuine non-EL part to fence off.
  // The ∀ decorations taint only their subjects' ⊥-modules; everything else
  // classifies at saturation speed.
  GenConfig cfg;
  cfg.name = "ablation-routing";
  cfg.concepts = quick ? 160 : 280;
  cfg.subClassEdges = quick ? 200 : 370;
  cfg.roles = 6;
  cfg.existentialAxioms = quick ? 80 : 150;
  cfg.universalAxioms = 2;  // the non-EL residual, kept deliberately thin
  cfg.equivalentAxioms = 4;
  cfg.disjointAxioms = 2;
  cfg.unsatConcepts = 3;
  cfg.nonElOnLeaves = true;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.attachmentBias = 0.8;
  cfg.seed = 19;
  return cfg;
}

RunResult runOnce(const GenConfig& cfg, std::size_t threads,
                  const Mode& mode) {
  // Fresh ontology per run: buildKb() freezes the TBox and each reasoner
  // owns its preprocessing; generation is deterministic per config.
  const GeneratedOntology g = generateOntology(cfg);
  TableauReasoner reasoner(*g.tbox);

  ClassifierConfig config;
  config.randomCycles = 1;
  config.routeEl = mode.routeEl;
  ThreadPool pool(threads);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*g.tbox, reasoner, config);
  Stopwatch sw;
  const ClassificationResult r = classifier.classify(exec);

  RunResult out;
  out.wallNs = static_cast<std::uint64_t>(sw.elapsedNs());
  out.tests = r.testsPerformed();
  out.satTests = r.satTests;
  out.subsumptionTests = r.subsumptionTests;
  out.pruned = r.prunedWithoutTest;
  out.routedConcepts = r.routedConcepts;
  out.saturationSeeded = r.saturationSeeded;
  out.testsAvoidedByRouting = r.testsAvoidedByRouting;
  for (const CycleStats& c : r.cycles) {
    switch (c.phase) {
      case CycleStats::Phase::kRouting: out.routingNs += c.elapsedNs; break;
      case CycleStats::Phase::kRandomDivision: out.randomNs += c.elapsedNs; break;
      case CycleStats::Phase::kGroupDivision: out.groupNs += c.elapsedNs; break;
      case CycleStats::Phase::kHierarchy: out.hierarchyNs += c.elapsedNs; break;
    }
  }
  std::ostringstream tree;
  r.taxonomy.print(tree, *g.tbox);
  out.taxonomy = tree.str();
  return out;
}

}  // namespace
}  // namespace owlcl

int main(int argc, char** argv) {
  using namespace owlcl;

  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const GenConfig cfg = workload(quick);
  const std::vector<std::size_t> threadCounts =
      quick ? std::vector<std::size_t>{4} : std::vector<std::size_t>{1, 4, 8};

  std::printf(
      "routing ablation — %s (%zu concepts), tableau backend%s\n"
      "%8s %20s %10s %8s %8s %10s %10s %12s\n",
      cfg.name.c_str(), cfg.concepts, quick ? " [quick]" : "", "threads",
      "mode", "wall_ms", "tests", "routed", "sat_seed", "avoided",
      "routing_ms");

  struct Row {
    std::size_t threads;
    const char* mode;
    RunResult r;
  };
  std::vector<Row> rows;
  bool parityOk = true;
  for (std::size_t t : threadCounts) {
    std::string baseline;
    for (const Mode& mode : kModes) {
      RunResult r = runOnce(cfg, t, mode);
      std::printf("%8zu %20s %10.2f %8llu %8llu %10llu %10llu %12.2f\n", t,
                  mode.name, static_cast<double>(r.wallNs) / 1e6,
                  static_cast<unsigned long long>(r.tests),
                  static_cast<unsigned long long>(r.routedConcepts),
                  static_cast<unsigned long long>(r.saturationSeeded),
                  static_cast<unsigned long long>(r.testsAvoidedByRouting),
                  static_cast<double>(r.routingNs) / 1e6);
      if (baseline.empty()) {
        baseline = r.taxonomy;
      } else if (r.taxonomy != baseline) {
        std::fprintf(stderr,
                     "FATAL: taxonomy diverged from tableau-only baseline "
                     "(threads=%zu mode=%s)\n",
                     t, mode.name);
        parityOk = false;
      }
      rows.push_back({t, mode.name, std::move(r)});
    }
  }
  if (!parityOk) return 1;
  std::printf("taxonomy parity: both modes byte-identical per thread count\n");

  std::FILE* out = std::fopen("BENCH_routing.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_routing.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  writeBenchMeta(out);
  std::fprintf(out,
               "  \"bench\": \"ablation_routing\",\n  \"workload\": "
               "{\"name\": \"%s\", \"concepts\": %zu},\n  \"quick\": %s,\n"
               "  \"results\": [\n",
               cfg.name.c_str(), cfg.concepts, quick ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        out,
        "    {\"threads\": %zu, \"mode\": \"%s\", \"wall_ns\": %llu, "
        "\"tests\": %llu, \"sat_tests\": %llu, \"subsumption_tests\": %llu, "
        "\"pruned\": %llu, \"routed_concepts\": %llu, "
        "\"saturation_seeded\": %llu, \"tests_avoided_by_routing\": %llu, "
        "\"routing_ns\": %llu, \"random_division_ns\": %llu, "
        "\"group_division_ns\": %llu, \"hierarchy_ns\": %llu}%s\n",
        row.threads, row.mode, static_cast<unsigned long long>(row.r.wallNs),
        static_cast<unsigned long long>(row.r.tests),
        static_cast<unsigned long long>(row.r.satTests),
        static_cast<unsigned long long>(row.r.subsumptionTests),
        static_cast<unsigned long long>(row.r.pruned),
        static_cast<unsigned long long>(row.r.routedConcepts),
        static_cast<unsigned long long>(row.r.saturationSeeded),
        static_cast<unsigned long long>(row.r.testsAvoidedByRouting),
        static_cast<unsigned long long>(row.r.routingNs),
        static_cast<unsigned long long>(row.r.randomNs),
        static_cast<unsigned long long>(row.r.groupNs),
        static_cast<unsigned long long>(row.r.hierarchyNs),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_routing.json\n");

  // Acceptance asserts on the largest (multi-worker) thread count: routing
  // must demonstrably own the EL part, not just match verdicts.
  const auto find = [&rows](std::size_t t, const std::string& m) {
    for (const Row& row : rows)
      if (row.threads == t && m == row.mode) return row.r;
    return RunResult{};
  };
  const std::size_t tMax = threadCounts.back();
  const RunResult off = find(tMax, "tableau-only");
  const RunResult on = find(tMax, "route-el");
  std::printf(
      "%zu threads: tests tableau-only %llu -> route-el %llu "
      "(%llu concepts routed, %llu K-pairs seeded, %llu tests avoided)\n",
      tMax, static_cast<unsigned long long>(off.tests),
      static_cast<unsigned long long>(on.tests),
      static_cast<unsigned long long>(on.routedConcepts),
      static_cast<unsigned long long>(on.saturationSeeded),
      static_cast<unsigned long long>(on.testsAvoidedByRouting));
  if (on.routedConcepts == 0 || on.saturationSeeded == 0) {
    std::fprintf(stderr, "FATAL: routing never fired on an EL-heavy corpus\n");
    return 1;
  }
  if (off.tests < 10 * (on.tests > 0 ? on.tests : 1)) {
    std::fprintf(stderr,
                 "FATAL: routing cut tableau tests by less than 10x "
                 "(%llu -> %llu)\n",
                 static_cast<unsigned long long>(off.tests),
                 static_cast<unsigned long long>(on.tests));
    return 1;
  }
  return 0;
}
