// BitKernels backend ablation (the pluggable-backend PR's perf gate):
//
//   kernel level   raw GB/s of portable and of the CPUID-chosen backend
//                  (activeBitKernels, when that differs) over the bulk kernels
//                  the classifier actually issues — orRow on a fresh row
//                  (RMW-bound: every word changes), orRow re-applied (the
//                  skip fast path: no word changes), andNotRow both ways,
//                  the popcount recount, and the private-buffer mask
//                  kernels (orInto / andNotInto / popcountWords) that the
//                  routing/merge-sweep/verify passes run.
//   end to end     full classification of a generated dense-hierarchy
//                  ontology, portable vs the active backend, with
//                  the taxonomies byte-compared (divergence is FATAL —
//                  this doubles as the CI parity smoke).
//
// The headline number is the portable->active-backend throughput ratio on
// the bulk kernels (geometric mean across kernels); the ISSUE acceptance
// expects >= 1.5x on AVX2 machines, and the measured ratio is recorded in
// BENCH_bitkernels.json either way. `--quick` shrinks buffers and the
// end-to-end corpus for the CI smoke.
#include <atomic>
#include <cmath>
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
#include "parallel/bit_kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "util/stopwatch.hpp"

namespace owlcl {
namespace {

using Word = BitKernels::Word;

std::uint64_t nextRand(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s;
}

std::vector<Word> randomWords(std::uint64_t& s, std::size_t n) {
  std::vector<Word> v(n);
  for (Word& w : v) w = nextRand(s);
  return v;
}

/// Best-of-reps wall time for fn() with per-rep untimed setup(), reported
/// as GB/s over `bytes` touched per rep.
template <class Setup, class Fn>
double bestGbPerSec(int reps, std::size_t bytes, Setup&& setup, Fn&& fn) {
  std::int64_t best = -1;
  for (int i = 0; i < reps; ++i) {
    setup();
    Stopwatch sw;
    fn();
    const std::int64_t ns = sw.elapsedNs();
    if (best < 0 || ns < best) best = ns;
  }
  if (best <= 0) best = 1;
  return static_cast<double>(bytes) / static_cast<double>(best);  // B/ns = GB/s
}

struct KernelRow {
  const char* kernel;
  std::string backend;
  double gbps;
};

/// Runs the kernel matrix for one backend. `nWords` is the row length; all
/// kernels stream nWords*8 bytes per rep.
void runKernelMatrix(const BitKernels& bk, std::size_t nWords, int reps,
                     std::vector<KernelRow>& out) {
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  const std::vector<Word> mask = randomWords(s, nWords);
  const std::vector<Word> other = randomWords(s, nWords);
  std::vector<std::atomic<Word>> row(nWords);
  std::vector<Word> priv(nWords), privB(nWords);
  const std::size_t bytes = nWords * sizeof(Word);
  volatile std::int64_t sinkI = 0;
  volatile std::uint64_t sinkU = 0;

  const auto add = [&](const char* kernel, double gbps) {
    out.push_back({kernel, bk.name(), gbps});
    std::printf("%24s %10s %10.2f GB/s\n", kernel, bk.name(), gbps);
  };

  add("orRow fresh", bestGbPerSec(
                         reps, bytes,
                         [&] {
                           for (auto& w : row) w.store(0, std::memory_order_relaxed);
                         },
                         [&] { sinkI = sinkI + bk.orRow(row.data(), mask.data(), nWords); }));
  // Row already holds the mask: every word is skippable (the fixpoint
  // steady state, where vectorized pre-checks pay off most).
  add("orRow reapply", bestGbPerSec(
                           reps, bytes, [] {},
                           [&] { sinkI = sinkI + bk.orRow(row.data(), mask.data(), nWords); }));
  add("andNotRow clear",
      bestGbPerSec(
          reps, bytes,
          [&] {
            for (std::size_t w = 0; w < nWords; ++w)
              row[w].store(~Word{0}, std::memory_order_relaxed);
          },
          [&] { sinkI = sinkI + bk.andNotRow(row.data(), mask.data(), nWords); }));
  add("andNotRow reapply",
      bestGbPerSec(
          reps, bytes, [] {},
          [&] { sinkI = sinkI + bk.andNotRow(row.data(), mask.data(), nWords); }));
  add("recountWords",
      bestGbPerSec(
          reps, bytes, [] {},
          [&] { sinkU = sinkU + bk.recountWords(row.data(), nWords); }));
  add("popcountWords",
      bestGbPerSec(
          reps, bytes, [] {},
          [&] { sinkU = sinkU + bk.popcountWords(mask.data(), nWords); }));
  add("orInto", bestGbPerSec(
                    reps, bytes,
                    [&] { std::memcpy(priv.data(), other.data(), bytes); },
                    [&] { sinkU = sinkU + bk.orInto(priv.data(), mask.data(), nWords); }));
  add("andNotInto",
      bestGbPerSec(
          reps, bytes, [] {},
          [&] { bk.andNotInto(privB.data(), mask.data(), other.data(), nWords); }));
  (void)sinkI;
  (void)sinkU;
}

GenConfig workload(bool quick) {
  // Dense hierarchy: lots of concepts and told edges so the P/K matrices
  // are big and the pruning word loops dominate — the corpus the bit
  // kernels were built for.
  GenConfig cfg;
  cfg.name = "ablation-bitkernels";
  cfg.concepts = quick ? 150 : 320;
  cfg.subClassEdges = quick ? 210 : 480;
  cfg.roles = 4;
  cfg.existentialAxioms = quick ? 40 : 90;
  cfg.equivalentAxioms = 3;
  cfg.disjointAxioms = 2;
  cfg.unsatConcepts = 2;
  cfg.attachmentBias = 0.7;
  cfg.seed = 23;
  return cfg;
}

struct EndToEnd {
  std::string backend;
  std::uint64_t wallNs = 0;
  std::uint64_t tests = 0;
  std::string taxonomy;
};

EndToEnd runEndToEnd(const GenConfig& cfg, const BitKernels* bk,
                     std::size_t threads) {
  const GeneratedOntology g = generateOntology(cfg);
  TableauReasoner reasoner(*g.tbox);
  ClassifierConfig config;
  config.randomCycles = 1;
  config.bitKernels = bk;
  ThreadPool pool(threads);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*g.tbox, reasoner, config);
  Stopwatch sw;
  const ClassificationResult r = classifier.classify(exec);
  EndToEnd out;
  out.backend = bk->name();
  out.wallNs = static_cast<std::uint64_t>(sw.elapsedNs());
  out.tests = r.testsPerformed();
  if (!classifier.countersConsistent()) {
    std::fprintf(stderr, "FATAL: counter invariant broken (backend=%s)\n",
                 bk->name());
    std::exit(1);
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

  std::vector<const BitKernels*> backends = {&portableBitKernels()};
  if (&activeBitKernels() != backends.front())
    backends.push_back(&activeBitKernels());

  const std::size_t nWords = quick ? (1u << 13) : (1u << 16);  // 64KB / 512KB
  const int reps = quick ? 15 : 40;
  std::printf("bitkernels ablation — %zu-word rows (%zu KB), best of %d%s\n",
              nWords, nWords * sizeof(Word) / 1024, reps,
              quick ? " [quick]" : "");

  std::vector<KernelRow> kernelRows;
  for (const BitKernels* bk : backends)
    runKernelMatrix(*bk, nWords, reps, kernelRows);

  // Bulk-kernel throughput ratio: geometric mean of per-kernel speedups of
  // the active backend over portable (1.0 when CPUID picked portable).
  // runKernelMatrix adds the same kernels in the same order per backend,
  // so row i of the active half pairs with row i of the portable half.
  double ratio = 1.0;
  const char* bestName = backends.back()->name();
  if (backends.size() > 1) {
    const std::size_t half = kernelRows.size() / 2;
    double logSum = 0.0;
    for (std::size_t i = 0; i < half; ++i)
      logSum += std::log(kernelRows[half + i].gbps / kernelRows[i].gbps);
    ratio = std::exp(logSum / static_cast<double>(half));
  }
  std::printf("bulk-kernel throughput %s/portable: %.2fx (geomean)\n",
              bestName, ratio);
  if (backends.size() > 1 && ratio < 1.5)
    std::printf("NOTE: ratio below the 1.5x acceptance expectation — "
                "recorded for trend tracking\n");

  // End to end: portable baseline, then the active backend, with
  // byte-compared taxonomies.
  const GenConfig cfg = workload(quick);
  const std::size_t threads = 4;
  std::printf("\nend-to-end — %s (%zu concepts), %zu threads\n",
              cfg.name.c_str(), cfg.concepts, threads);
  std::vector<EndToEnd> e2e;
  for (const BitKernels* bk : backends) {
    EndToEnd r = runEndToEnd(cfg, bk, threads);
    std::printf("%10s %10.2f ms  %8llu tests\n", r.backend.c_str(),
                static_cast<double>(r.wallNs) / 1e6,
                static_cast<unsigned long long>(r.tests));
    if (!e2e.empty() && r.taxonomy != e2e.front().taxonomy) {
      std::fprintf(stderr,
                   "FATAL: taxonomy diverged from portable baseline "
                   "(backend=%s)\n",
                   r.backend.c_str());
      return 1;
    }
    e2e.push_back(std::move(r));
  }
  std::printf("taxonomy parity: all backends byte-identical\n");

  std::FILE* out = std::fopen("BENCH_bitkernels.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_bitkernels.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  writeBenchMeta(out);
  std::fprintf(out,
               "  \"bench\": \"ablation_bitkernels\",\n  \"quick\": %s,\n"
               "  \"row_words\": %zu,\n  \"bulk_ratio_geomean\": %.4f,\n"
               "  \"best_backend\": \"%s\",\n  \"kernels\": [\n",
               quick ? "true" : "false", nWords, ratio, bestName);
  for (std::size_t i = 0; i < kernelRows.size(); ++i) {
    const KernelRow& r = kernelRows[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"backend\": \"%s\", "
                 "\"gb_per_s\": %.3f}%s\n",
                 r.kernel, r.backend.c_str(), r.gbps,
                 i + 1 < kernelRows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"end_to_end\": [\n");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    std::fprintf(out,
                 "    {\"backend\": \"%s\", \"wall_ns\": %llu, "
                 "\"tests\": %llu}%s\n",
                 e2e[i].backend.c_str(),
                 static_cast<unsigned long long>(e2e[i].wallNs),
                 static_cast<unsigned long long>(e2e[i].tests),
                 i + 1 < e2e.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_bitkernels.json\n");
  return 0;
}
