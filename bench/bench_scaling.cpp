// Real-thread scaling bench: the work-stealing pool on a
// group-division-heavy workload (randomCycles=0 sends every pair test
// through runGroupRound's dispatch path, where scheduling cost matters
// most).
//
// Unlike the figure benches this one runs on REAL std::threads — it
// measures the scheduler itself (queue contention, wake-up latency, steal
// traffic), not the simulated SMP. Each reasoner call burns a small
// deterministic spin so tasks have genuine cost and per-task scheduling
// overhead is measurable against it; a few concepts are made much harder
// than the rest so group costs are skewed — the load shape stealing is
// built for.
//
// Every run is followed by a countersConsistent() check — the bench
// doubles as the CI smoke test that the bulk kernels' counter deltas
// (orRow/andNotRow popcount accounting) agree with a ground-truth
// recount after a full classification.
//
// Output: a human-readable table on stdout and machine-readable
// BENCH_scaling.json (threads → wall min/mean, per-phase ns,
// steals, tests performed/avoided) for CI trend tracking. `--quick`
// shrinks the matrix for the CI smoke job.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "bench_meta.hpp"
#include "core/parallel_classifier.hpp"
#include "core/plugin.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "parallel/thread_pool.hpp"
#include "util/stopwatch.hpp"

namespace owlcl {
namespace {

// Answers from GroundTruth after a deterministic busy spin. Hard concepts
// spin ~30× longer, skewing group costs like the paper's QCR-heavy rows.
class SpinReasoner : public ReasonerPlugin {
 public:
  SpinReasoner(const GroundTruth& truth, std::uint64_t baseIters)
      : truth_(truth), baseIters_(baseIters) {}

  bool isSatisfiable(ConceptId c, std::uint64_t* costNs) override {
    const std::uint64_t ns = burn(iters(c) / 2);
    if (costNs != nullptr) *costNs = ns;
    tests_.fetch_add(1, std::memory_order_relaxed);
    return truth_.satisfiable(c);
  }

  bool isSubsumedBy(ConceptId sub, ConceptId sup,
                    std::uint64_t* costNs) override {
    const std::uint64_t ns = burn(std::max(iters(sub), iters(sup)));
    if (costNs != nullptr) *costNs = ns;
    tests_.fetch_add(1, std::memory_order_relaxed);
    return truth_.subsumes(sup, sub);
  }

  std::uint64_t testCount() const override {
    return tests_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t iters(ConceptId c) const {
    return baseIters_ * (c % 17 == 0 ? 30 : 1);
  }

  std::uint64_t burn(std::uint64_t iters) {
    Stopwatch sw;
    std::uint64_t x = 0x9E3779B97F4A7C15ull + iters;
    for (std::uint64_t i = 0; i < iters; ++i)
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    sink_.store(x, std::memory_order_relaxed);  // defeat dead-code elim
    return static_cast<std::uint64_t>(sw.elapsedNs());
  }

  const GroundTruth& truth_;
  const std::uint64_t baseIters_;
  std::atomic<std::uint64_t> tests_{0};
  std::atomic<std::uint64_t> sink_{0};
};

struct RunResult {
  std::uint64_t wallNs = 0;
  std::uint64_t busyNs = 0;
  std::uint64_t steals = 0;
  std::uint64_t tests = 0;         // reasoner calls (sat + subsumption)
  std::uint64_t avoidedPrune = 0;  // pairs resolved by Algorithm 5
  std::uint64_t routingNs = 0;     // EL routing phase
  std::uint64_t randomNs = 0;      // phase 1 barrier-to-barrier total
  std::uint64_t groupNs = 0;       // phase 2
  std::uint64_t taxonomyNs = 0;    // phase 3
  // Engine-level numbers (all zero for SpinReasoner, which has no engine;
  // kept in the JSON schema so trend tooling matches bench_ablation_cache).
  std::uint64_t reasonerSatCalls = 0;
  std::uint64_t reasonerCacheHits = 0;
  std::uint64_t reasonerClashes = 0;
  std::uint64_t crossCacheHits = 0;
  std::uint64_t mergeRefuted = 0;
  std::uint64_t cacheInserts = 0;       // shared sat-cache slots won
  std::uint64_t cacheRejectedFull = 0;  // probe-window saturation sheds
  std::uint64_t cacheRejectedLong = 0;  // oversize-label sheds
};

RunResult runOnce(const GeneratedOntology& g, std::size_t threads) {
  // Small per-test spin (~1 µs easy / ~30 µs hard): enough real work that
  // tasks aren't empty, small enough that per-task scheduling overhead
  // (the thing under test) is a measurable fraction of the total.
  SpinReasoner reasoner(g.truth, /*baseIters=*/150);
  ClassifierConfig config;
  config.randomCycles = 0;  // group-division-heavy: only runGroupRound
  ThreadPool pool(threads);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*g.tbox, reasoner, config);
  Stopwatch sw;
  const ClassificationResult r = classifier.classify(exec);
  RunResult out;
  out.wallNs = static_cast<std::uint64_t>(sw.elapsedNs());
  if (!classifier.countersConsistent()) {
    std::fprintf(stderr,
                 "FATAL: possible-set counters diverged from recount "
                 "(threads=%zu)\n",
                 threads);
    std::abort();  // CI smoke: the counter invariant is the point
  }
  out.busyNs = r.busyNs;
  out.steals = pool.stealCount();
  out.tests = r.testsPerformed();
  out.avoidedPrune = r.prunedWithoutTest;
  out.reasonerSatCalls = r.reasonerSatCalls;
  out.reasonerCacheHits = r.reasonerCacheHits;
  out.reasonerClashes = r.reasonerClashes;
  out.crossCacheHits = r.crossCacheHits;
  out.mergeRefuted = r.mergeRefuted;
  out.cacheInserts = r.cacheInserts;
  out.cacheRejectedFull = r.cacheRejectedFull;
  out.cacheRejectedLong = r.cacheRejectedLong;
  for (const CycleStats& c : r.cycles) {
    switch (c.phase) {
      case CycleStats::Phase::kRouting:
        out.routingNs += c.elapsedNs;
        break;
      case CycleStats::Phase::kRandomDivision:
        out.randomNs += c.elapsedNs;
        break;
      case CycleStats::Phase::kGroupDivision:
        out.groupNs += c.elapsedNs;
        break;
      case CycleStats::Phase::kHierarchy:
        out.taxonomyNs += c.elapsedNs;
        break;
    }
  }
  return out;
}

struct Row {
  std::size_t threads;
  RunResult best;  // detail fields from the fastest recorded run
  bench::RepeatStats stats;
};

Row measure(const GeneratedOntology& g, std::size_t threads, int warmups,
            int repeats) {
  Row row{threads, {}, {}};
  row.stats = bench::repeatWall(warmups, repeats, [&] {
    const RunResult r = runOnce(g, threads);
    if (row.best.wallNs == 0 || r.wallNs < row.best.wallNs) row.best = r;
    return r.wallNs;
  });
  return row;
}

}  // namespace
}  // namespace owlcl

int main(int argc, char** argv) {
  using namespace owlcl;

  // --quick: CI smoke shape — one thread count, one repeat (the
  // countersConsistent() assert still runs; only the timing matrix
  // shrinks).
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  GenConfig cfg;
  cfg.name = "scaling-groupdiv";
  cfg.concepts = quick ? 120 : 220;
  cfg.subClassEdges = quick ? 160 : 300;
  cfg.attachmentBias = 1.2;  // bushy top: big, uneven groups
  cfg.seed = 7;
  const GeneratedOntology g = generateOntology(cfg);

  const std::vector<std::size_t> threadCounts =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 2, 4, 8};
  const int repeats = quick ? 1 : 3;
  const int warmups = quick ? 0 : 1;

  std::printf("scaling bench — %s (%zu concepts), group division only%s\n",
              cfg.name.c_str(), cfg.concepts, quick ? " [quick]" : "");
  std::printf("%8s %12s %12s %10s %10s %10s\n", "threads", "wall_ms_min",
              "wall_ms_mean", "steals", "tests", "avoid_prune");

  std::vector<Row> rows;
  for (std::size_t t : threadCounts) {
    Row row = measure(g, t, warmups, repeats);
    std::printf("%8zu %12.2f %12.2f %10llu %10llu %10llu\n", t,
                static_cast<double>(row.stats.wallNsMin) / 1e6,
                static_cast<double>(row.stats.wallNsMean) / 1e6,
                static_cast<unsigned long long>(row.best.steals),
                static_cast<unsigned long long>(row.best.tests),
                static_cast<unsigned long long>(row.best.avoidedPrune));
    rows.push_back(std::move(row));
  }

  std::FILE* out = std::fopen("BENCH_scaling.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_scaling.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  writeBenchMeta(out);
  std::fprintf(out,
               "  \"bench\": \"scaling\",\n  \"workload\": {\"name\": "
               "\"%s\", \"concepts\": %zu, \"random_cycles\": 0},\n"
               "  \"repeats\": %d,\n  \"quick\": %s,\n  \"results\": [\n",
               cfg.name.c_str(), cfg.concepts, repeats,
               quick ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        out,
        "    {\"threads\": %zu, \"mode\": \"steal\", "
        "\"wall_ns\": %llu, \"wall_ns_min\": %llu, \"wall_ns_mean\": %llu, "
        "\"busy_ns\": %llu, \"steals\": %llu, \"tests\": %llu, "
        "\"tests_avoided_prune\": %llu, "
        "\"phase_routing_ns\": %llu, \"phase_random_ns\": %llu, "
        "\"phase_group_ns\": %llu, "
        "\"phase_taxonomy_ns\": %llu, "
        "\"reasoner_sat_calls\": %llu, \"reasoner_cache_hits\": %llu, "
        "\"reasoner_clashes\": %llu, \"cross_cache_hits\": %llu, "
        "\"merge_refuted\": %llu, \"cache_inserts\": %llu, "
        "\"cache_rejected_full\": %llu, \"cache_rejected_long\": %llu}%s\n",
        row.threads,
        static_cast<unsigned long long>(row.stats.wallNsMin),
        static_cast<unsigned long long>(row.stats.wallNsMin),
        static_cast<unsigned long long>(row.stats.wallNsMean),
        static_cast<unsigned long long>(row.best.busyNs),
        static_cast<unsigned long long>(row.best.steals),
        static_cast<unsigned long long>(row.best.tests),
        static_cast<unsigned long long>(row.best.avoidedPrune),
        static_cast<unsigned long long>(row.best.routingNs),
        static_cast<unsigned long long>(row.best.randomNs),
        static_cast<unsigned long long>(row.best.groupNs),
        static_cast<unsigned long long>(row.best.taxonomyNs),
        static_cast<unsigned long long>(row.best.reasonerSatCalls),
        static_cast<unsigned long long>(row.best.reasonerCacheHits),
        static_cast<unsigned long long>(row.best.reasonerClashes),
        static_cast<unsigned long long>(row.best.crossCacheHits),
        static_cast<unsigned long long>(row.best.mergeRefuted),
        static_cast<unsigned long long>(row.best.cacheInserts),
        static_cast<unsigned long long>(row.best.cacheRejectedFull),
        static_cast<unsigned long long>(row.best.cacheRejectedLong),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_scaling.json\n");
  return 0;
}
