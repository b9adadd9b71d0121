// bench_serve — serving-path latency and overload bench for the
// `owlcl serve` core (src/serve, DESIGN.md §12).
//
// Phase 1 (latency): a Server classifies a generated ontology in the
// background while N closed-loop client threads fire random subs/sat
// queries at it; every answered verdict is checked against the
// generator's GroundTruth (mismatch = FATAL — the serving ladder must
// never change an answer, only its latency). p50/p99 are reported
// separately for queries issued DURING classification (epoch waits,
// direct fallbacks) and AFTER completion (settled, memory speed).
//
// Phase 2 (overload): a deliberately starved server (1 query thread,
// tiny admission queue, injected slow-client delay on every delivery)
// is hit open-loop by more clients than it can serve. The acceptance
// property is graceful shedding: every submitted query gets exactly one
// response (an answer or an explicit "overloaded"), the shed counter is
// non-zero, and nothing blocks or grows unboundedly.
//
// Phase 3 (snapshot reads): a server classifies a DAG-heavy ontology
// with an instant MockReasoner and answers from the compiled
// interval+bitset snapshot (DESIGN.md §16). A pre-generated mixed
// workload (~50% subs / 20% sat / 30% descendants) is driven at batch
// sizes 1, 16 and 256; every answer must byte-equal the response the
// generator's GroundTruth implies (subs and sat verdicts, the descendant
// set), and every inner batch result its one-at-a-time answer (FATAL on
// any divergence). Reports per-answer p50/p99 and queries/sec per batch
// size.
//
// Output: a human-readable summary on stdout and BENCH_serve.json
// (latency percentiles + shed rate + snapshot reads) for CI trend
// tracking. `--quick` shrinks the load for the CI smoke job.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_meta.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/server.hpp"
#include "taxonomy/snapshot.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace owlcl {
namespace {

/// Ground-truth oracle that burns real CPU per call so classification
/// takes measurable wall time and the during-classification rungs
/// (epoch wait, direct fallback) actually get exercised.
class SpinOracle : public ReasonerPlugin {
 public:
  SpinOracle(const GroundTruth& truth, std::uint64_t baseIters)
      : truth_(truth), baseIters_(baseIters) {}

  bool isSatisfiable(ConceptId c, std::uint64_t* costNs) override {
    const std::uint64_t ns = burn(iters(c) / 2);
    if (costNs != nullptr) *costNs = ns;
    return truth_.satisfiable(c);
  }
  bool isSubsumedBy(ConceptId sub, ConceptId sup,
                    std::uint64_t* costNs) override {
    const std::uint64_t ns = burn(std::max(iters(sub), iters(sup)));
    if (costNs != nullptr) *costNs = ns;
    return truth_.subsumes(sup, sub);
  }
  std::uint64_t testCount() const override {
    return tests_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t iters(ConceptId c) const {
    return baseIters_ * (c % 13 == 0 ? 10 : 1);
  }
  std::uint64_t burn(std::uint64_t iters) {
    Stopwatch sw;
    std::uint64_t x = 0x9E3779B97F4A7C15ull + iters;
    for (std::uint64_t i = 0; i < iters; ++i)
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    sink_.store(x, std::memory_order_relaxed);  // defeat dead-code elim
    tests_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<std::uint64_t>(sw.elapsedNs());
  }

  const GroundTruth& truth_;
  const std::uint64_t baseIters_;
  std::atomic<std::uint64_t> tests_{0};
  std::atomic<std::uint64_t> sink_{0};
};

/// One blocking request/response round trip through the server.
struct Waiter {
  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  bool done = false;
};

std::string ask(Server& server, const std::string& line) {
  auto w = std::make_shared<Waiter>();
  server.trySubmit(line, [w](std::string resp) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->response = std::move(resp);
      w->done = true;
    }
    w->cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(w->mu);
  w->cv.wait(lock, [&w] { return w->done; });
  return w->response;
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, int p) {
  if (sorted.empty()) return 0;
  const std::size_t idx =
      std::min(sorted.size() - 1, sorted.size() * static_cast<std::size_t>(p) / 100);
  return sorted[idx];
}

struct ClientTally {
  std::vector<std::uint64_t> latNs;
  std::uint64_t answered = 0;
  std::uint64_t errored = 0;  // deadline / overloaded / internal
};

/// Closed-loop client: issues `queries` random subs/sat requests and
/// verifies every verdict against the ground truth.
ClientTally runClient(Server& server, const TBox& tbox,
                      const GroundTruth& truth, std::uint64_t seed,
                      std::size_t queries) {
  ClientTally tally;
  std::mt19937_64 rng(seed);
  const std::size_t n = tbox.conceptCount();
  for (std::size_t q = 0; q < queries; ++q) {
    const ConceptId a = static_cast<ConceptId>(rng() % n);
    const ConceptId b = static_cast<ConceptId>(rng() % n);
    const bool satQuery = (rng() % 4) == 0;
    std::string line;
    if (satQuery)
      line = "{\"op\":\"sat\",\"concept\":\"" + tbox.conceptName(a) + "\"}";
    else
      line = "{\"op\":\"subs\",\"sub\":\"" + tbox.conceptName(a) +
             "\",\"sup\":\"" + tbox.conceptName(b) + "\"}";
    const auto t0 = std::chrono::steady_clock::now();
    const std::string resp = ask(server, line);
    const auto t1 = std::chrono::steady_clock::now();
    tally.latNs.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    if (contains(resp, "\"error\"")) {
      ++tally.errored;
      continue;
    }
    ++tally.answered;
    const bool got = contains(resp, "\"result\":true");
    const bool want = satQuery ? truth.satisfiable(a) : truth.subsumes(b, a);
    if (got != want) {
      std::fprintf(stderr,
                   "FATAL: served verdict diverged from ground truth\n"
                   "  query: %s\n  response: %s\n",
                   line.c_str(), resp.c_str());
      std::abort();  // the parity invariant is the point of this bench
    }
  }
  return tally;
}

struct PhaseStats {
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t answered = 0;
  std::uint64_t errored = 0;
};

PhaseStats phaseStats(std::vector<ClientTally>& tallies) {
  PhaseStats st;
  std::vector<std::uint64_t> all;
  for (ClientTally& t : tallies) {
    all.insert(all.end(), t.latNs.begin(), t.latNs.end());
    st.answered += t.answered;
    st.errored += t.errored;
  }
  std::sort(all.begin(), all.end());
  st.p50 = percentile(all, 50);
  st.p99 = percentile(all, 99);
  return st;
}

// --- phase 3 helpers: snapshot reads (DESIGN.md §16) ------------------------

/// Mixed read workload (~50% subs / 20% sat / 30% descendants) as
/// protocol request lines without ids, each with the byte-exact response
/// the ground truth implies. Deterministic for a seed.
struct Workload {
  std::vector<std::string> lines;
  std::vector<std::string> expected;
};

Workload mixedWorkload(const TBox& tbox, const GroundTruth& truth,
                       std::size_t count, std::uint64_t seed) {
  const std::size_t n = tbox.conceptCount();
  const auto quoted = [&tbox](ConceptId c) {
    std::string q = "\"";
    jsonEscapeInto(tbox.conceptName(c), q);
    q.push_back('"');
    return q;
  };
  const auto verdict = [](const char* op, bool value) {
    return strprintf("{\"ok\":true,\"op\":\"%s\",\"result\":%s,"
                     "\"method\":\"settled\"}",
                     op, value ? "true" : "false");
  };
  // Strict descendants: equivalents excluded, unsatisfiable concepts
  // included, names in byte order.
  const auto descendants = [&](ConceptId c) {
    std::vector<ConceptId> below;
    for (ConceptId d = 0; d < n; ++d)
      if (truth.subsumes(c, d) && !truth.subsumes(d, c)) below.push_back(d);
    std::sort(below.begin(), below.end(), [&tbox](ConceptId a, ConceptId b) {
      return tbox.conceptName(a) < tbox.conceptName(b);
    });
    std::string json = "[";
    for (const ConceptId d : below) {
      if (json.size() > 1) json.push_back(',');
      json += quoted(d);
    }
    json.push_back(']');
    return strprintf("{\"ok\":true,\"op\":\"descendants\",\"concept\":%s,"
                     "\"count\":%zu,\"concepts\":%s,\"complete\":true}",
                     quoted(c).c_str(), below.size(), json.c_str());
  };

  Workload w;
  w.lines.reserve(count);
  w.expected.reserve(count);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const ConceptId a = static_cast<ConceptId>(rng() % n);
    const ConceptId b = static_cast<ConceptId>(rng() % n);
    const std::uint64_t roll = rng() % 10;
    if (roll < 5) {
      w.lines.push_back("{\"op\":\"subs\",\"sub\":\"" + tbox.conceptName(a) +
                        "\",\"sup\":\"" + tbox.conceptName(b) + "\"}");
      w.expected.push_back(verdict("subs", truth.subsumes(b, a)));
    } else if (roll < 7) {
      w.lines.push_back("{\"op\":\"sat\",\"concept\":\"" +
                        tbox.conceptName(a) + "\"}");
      w.expected.push_back(verdict("sat", truth.satisfiable(a)));
    } else {
      w.lines.push_back("{\"op\":\"descendants\",\"concept\":\"" +
                        tbox.conceptName(a) + "\"}");
      w.expected.push_back(descendants(a));
    }
  }
  return w;
}

/// Packs consecutive runs of `k` single-query lines into batch request
/// lines. `singles.size()` must be a multiple of `k`.
std::vector<std::string> packBatches(const std::vector<std::string>& singles,
                                     std::size_t k) {
  std::vector<std::string> out;
  out.reserve(singles.size() / k);
  for (std::size_t i = 0; i < singles.size(); i += k) {
    std::string line = "{\"op\":\"batch\",\"queries\":[";
    for (std::size_t j = i; j < i + k; ++j) {
      if (j != i) line.push_back(',');
      line += singles[j];
    }
    line += "]}";
    out.push_back(std::move(line));
  }
  return out;
}

/// The byte-exact batch response implied by the one-at-a-time answers:
/// the protocol promises inner batch results equal individual responses.
std::vector<std::string> packExpected(
    const std::vector<std::string>& singleResponses, std::size_t k) {
  std::vector<std::string> out;
  out.reserve(singleResponses.size() / k);
  for (std::size_t i = 0; i < singleResponses.size(); i += k) {
    std::string r = "{\"ok\":true,\"op\":\"batch\",\"count\":" +
                    std::to_string(k) + ",\"results\":[";
    for (std::size_t j = i; j < i + k; ++j) {
      if (j != i) r.push_back(',');
      r += singleResponses[j];
    }
    r += "]}";
    out.push_back(std::move(r));
  }
  return out;
}

struct ReadStats {
  double qps = 0;         // answered queries per wall second
  std::uint64_t p50 = 0;  // per-answer ns (line latency / queries per line)
  std::uint64_t p99 = 0;
};

/// Drives `lines` closed-loop from two client threads (shared work
/// index) and records each line's response at its index.
ReadStats driveReads(Server& server, const std::vector<std::string>& lines,
                     std::size_t queriesPerLine,
                     std::vector<std::string>* responses) {
  responses->assign(lines.size(), std::string());
  std::vector<std::uint64_t> lineNs(lines.size(), 0);
  std::atomic<std::size_t> next{0};
  Stopwatch wall;
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t)
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= lines.size()) return;
          const auto t0 = std::chrono::steady_clock::now();
          (*responses)[i] = ask(server, lines[i]);
          const auto t1 = std::chrono::steady_clock::now();
          lineNs[i] = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
        }
      });
    for (std::thread& t : threads) t.join();
  }
  const double wallSec = static_cast<double>(wall.elapsedNs()) / 1e9;

  ReadStats st;
  std::vector<std::uint64_t> perAnswer(lineNs);
  for (std::uint64_t& ns : perAnswer) ns /= queriesPerLine;
  std::sort(perAnswer.begin(), perAnswer.end());
  st.p50 = percentile(perAnswer, 50);
  st.p99 = percentile(perAnswer, 99);
  st.qps = wallSec > 0
               ? static_cast<double>(lines.size() * queriesPerLine) / wallSec
               : 0.0;
  return st;
}

/// FATALs unless every response byte-matches its expected counterpart.
bool responsesMatch(const char* what, const std::vector<std::string>& lines,
                    const std::vector<std::string>& got,
                    const std::vector<std::string>& expected) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (got[i] == expected[i]) continue;
    std::fprintf(stderr,
                 "FATAL: %s response diverged (byte parity broken)\n"
                 "  request:  %.300s\n  got:      %.300s\n  expected: %.300s\n",
                 what, lines[i].c_str(), got[i].c_str(), expected[i].c_str());
    return false;
  }
  return true;
}

}  // namespace
}  // namespace owlcl

int main(int argc, char** argv) {
  using namespace owlcl;

  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  GenConfig cfg;
  cfg.name = "serve-bench";
  cfg.concepts = quick ? 90 : 180;
  cfg.subClassEdges = quick ? 130 : 260;
  cfg.seed = 11;
  const GeneratedOntology g = generateOntology(cfg);

  const std::size_t clients = quick ? 2 : 4;
  const std::size_t queriesPerClient = quick ? 80 : 400;

  // --- phase 1: latency under a live classification ------------------------
  SpinOracle oracle(g.truth, quick ? 400 : 1200);
  ClassifierConfig config;
  config.randomCycles = 1;
  ThreadPool pool(4);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*g.tbox, oracle, config);

  ServerConfig sc;
  sc.queryThreads = 2;
  sc.queueCapacity = 256;
  sc.engine.defaultDeadlineMs = 5000;
  Server server(*g.tbox, classifier, oracle, sc);
  server.start([&classifier, &exec] { return classifier.classify(exec); });

  std::vector<ClientTally> during(clients);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        during[c] = runClient(server, *g.tbox, g.truth, 100 + c,
                              queriesPerClient);
      });
    for (std::thread& t : threads) t.join();
  }
  const PhaseStats duringStats = phaseStats(during);

  classifier.waitForCompletion(std::chrono::steady_clock::now() +
                               std::chrono::minutes(5));
  std::vector<ClientTally> after(clients);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        after[c] = runClient(server, *g.tbox, g.truth, 900 + c,
                             queriesPerClient);
      });
    for (std::thread& t : threads) t.join();
  }
  const PhaseStats afterStats = phaseStats(after);
  const std::uint64_t latencyShed = server.shedCount();
  server.drain();

  // --- phase 2: overload must shed, never hang -----------------------------
  SpinOracle slowOracle(g.truth, quick ? 400 : 1200);
  ThreadPool pool2(2);
  RealExecutor exec2(pool2);
  ParallelClassifier classifier2(*g.tbox, slowOracle, config);
  ServerConfig osc;
  osc.queryThreads = 1;
  osc.queueCapacity = 4;
  osc.engine.defaultDeadlineMs = 200;
  osc.faults.slowClientNs = quick ? 500'000 : 2'000'000;  // per-delivery stall
  Server overloaded(*g.tbox, classifier2, slowOracle, osc);
  overloaded.start([&classifier2, &exec2] { return classifier2.classify(exec2); });

  const std::size_t blastClients = quick ? 4 : 8;
  const std::size_t blastQueries = quick ? 60 : 200;
  std::atomic<std::uint64_t> responses{0};
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < blastClients; ++c)
      threads.emplace_back([&, c] {
        std::mt19937_64 rng(7000 + c);
        const std::size_t n = g.tbox->conceptCount();
        for (std::size_t q = 0; q < blastQueries; ++q) {
          const ConceptId x = static_cast<ConceptId>(rng() % n);
          const ConceptId y = static_cast<ConceptId>(rng() % n);
          const std::string line = "{\"op\":\"subs\",\"sub\":\"" +
                                   g.tbox->conceptName(x) + "\",\"sup\":\"" +
                                   g.tbox->conceptName(y) + "\"}";
          // Open loop: do not wait — the point is to outrun the server.
          overloaded.trySubmit(line,
                               [&responses](std::string) { ++responses; });
        }
      });
    for (std::thread& t : threads) t.join();
  }
  overloaded.drain();  // queued jobs still answer during drain
  const std::uint64_t submitted =
      static_cast<std::uint64_t>(blastClients * blastQueries);
  const std::uint64_t shed = overloaded.shedCount();
  if (responses.load() != submitted) {
    std::fprintf(stderr,
                 "FATAL: %llu queries submitted but %llu responses delivered "
                 "— a client was left hanging\n",
                 static_cast<unsigned long long>(submitted),
                 static_cast<unsigned long long>(responses.load()));
    return 1;
  }
  if (shed == 0) {
    std::fprintf(stderr,
                 "FATAL: overload phase shed nothing — admission control "
                 "never engaged (queue cap %zu, %zu clients)\n",
                 osc.queueCapacity, blastClients);
    return 1;
  }
  const double shedRate =
      static_cast<double>(shed) / static_cast<double>(submitted);

  // --- phase 3: snapshot reads (DESIGN.md §16) ------------------------------
  // MockReasoner answers instantly, so classification settles at memory
  // speed and the measurement isolates the compiled read path.
  GenConfig acfg;
  acfg.name = "serve-snapshot";
  acfg.concepts = quick ? 200 : 700;
  acfg.subClassEdges = quick ? 340 : 1300;  // > concepts → multi-parent DAG
  acfg.equivalentAxioms = quick ? 8 : 24;
  acfg.seed = 23;
  const GeneratedOntology ga = generateOntology(acfg);

  ThreadPool pool3(4);
  RealExecutor exec3(pool3);
  MockReasoner snapOracle(ga.truth);
  ParallelClassifier snapClassifier(*ga.tbox, snapOracle, config);
  ServerConfig asc;
  asc.queryThreads = 2;
  asc.queueCapacity = 512;
  asc.engine.defaultDeadlineMs = 10'000;
  Server snapServer(*ga.tbox, snapClassifier, snapOracle, asc);

  // Measure strictly post-settlement: wait until the published view
  // carries the compiled generation-0 snapshot.
  snapServer.start([&] { return snapClassifier.classify(exec3); });
  const auto settleBy =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (snapServer.engineView()->snapshot == nullptr) {
    if (std::chrono::steady_clock::now() > settleBy) {
      std::fprintf(stderr, "FATAL: snapshot server never settled\n");
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::size_t readQueries = quick ? 512 : 4096;  // multiple of 256
  const Workload work = mixedWorkload(*ga.tbox, ga.truth, readQueries, 31);

  // Batch size 1, best-of-2 reps (the first warms allocators and caches):
  // every answer byte-equals the ground truth's.
  std::vector<std::string> singles;
  ReadStats rows[3];
  for (int rep = 0; rep < 2; ++rep) {
    const ReadStats s = driveReads(snapServer, work.lines, 1, &singles);
    if (!responsesMatch("snapshot-vs-truth", work.lines, singles,
                        work.expected))
      return 1;
    if (rep == 0 || s.qps > rows[0].qps) rows[0] = s;
  }

  // Batch sizes 16 and 256: inner results must byte-equal the individual
  // answers.
  const std::size_t batchSizes[3] = {1, 16, 256};
  for (std::size_t b = 1; b < 3; ++b) {
    const std::size_t k = batchSizes[b];
    const std::vector<std::string> lines = packBatches(work.lines, k);
    const std::vector<std::string> expected = packExpected(singles, k);
    std::vector<std::string> got;
    for (int rep = 0; rep < 2; ++rep) {
      const ReadStats s = driveReads(snapServer, lines, k, &got);
      if (!responsesMatch("snapshot batch", lines, got, expected)) return 1;
      if (rep == 0 || s.qps > rows[b].qps) rows[b] = s;
    }
  }

  const QueryEngineStats snapEngine = snapServer.engineStats();
  const TaxonomySnapshot::BuildStats snapBuild =
      snapServer.engineView()->snapshot->stats();
  snapServer.drain();

  std::printf("serve bench — %s (%zu concepts)%s\n", cfg.name.c_str(),
              cfg.concepts, quick ? " [quick]" : "");
  std::printf("  during classification: p50 %.1f us, p99 %.1f us "
              "(%llu answered, %llu errored)\n",
              static_cast<double>(duringStats.p50) / 1e3,
              static_cast<double>(duringStats.p99) / 1e3,
              static_cast<unsigned long long>(duringStats.answered),
              static_cast<unsigned long long>(duringStats.errored));
  std::printf("  after completion:      p50 %.1f us, p99 %.1f us "
              "(%llu answered, %llu errored)\n",
              static_cast<double>(afterStats.p50) / 1e3,
              static_cast<double>(afterStats.p99) / 1e3,
              static_cast<unsigned long long>(afterStats.answered),
              static_cast<unsigned long long>(afterStats.errored));
  std::printf("  overload: %llu submitted, %llu shed (%.1f%%), all answered\n",
              static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(shed), shedRate * 100.0);

  std::printf("  snapshot reads — %s (%zu concepts, %zu mixed queries):\n",
              acfg.name.c_str(), acfg.concepts, readQueries);
  for (std::size_t b = 0; b < 3; ++b)
    std::printf("    batch %3zu: %9.0f q/s (p50 %7.1f us, p99 %7.1f us)\n",
                batchSizes[b], rows[b].qps,
                static_cast<double>(rows[b].p50) / 1e3,
                static_cast<double>(rows[b].p99) / 1e3);
  std::printf("  snapshot: gen %llu, build %.2f ms, %zu compiled bytes, "
              "%llu interval hits, %llu bitset probes\n",
              static_cast<unsigned long long>(snapBuild.generation),
              static_cast<double>(snapBuild.buildNs) / 1e6,
              snapBuild.compiledBytes,
              static_cast<unsigned long long>(snapEngine.intervalHits),
              static_cast<unsigned long long>(snapEngine.bitsetProbes));

  std::FILE* out = std::fopen("BENCH_serve.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  writeBenchMeta(out);
  std::fprintf(
      out,
      "  \"bench\": \"serve\",\n"
      "  \"workload\": {\"name\": \"%s\", \"concepts\": %zu},\n"
      "  \"quick\": %s,\n  \"clients\": %zu,\n"
      "  \"queries_per_client\": %zu,\n"
      "  \"during\": {\"p50_ns\": %llu, \"p99_ns\": %llu, "
      "\"answered\": %llu, \"errored\": %llu},\n"
      "  \"after\": {\"p50_ns\": %llu, \"p99_ns\": %llu, "
      "\"answered\": %llu, \"errored\": %llu},\n"
      "  \"latency_phase_shed\": %llu,\n"
      "  \"overload\": {\"submitted\": %llu, \"shed\": %llu, "
      "\"shed_rate\": %.4f},\n",
      cfg.name.c_str(), cfg.concepts, quick ? "true" : "false", clients,
      queriesPerClient,
      static_cast<unsigned long long>(duringStats.p50),
      static_cast<unsigned long long>(duringStats.p99),
      static_cast<unsigned long long>(duringStats.answered),
      static_cast<unsigned long long>(duringStats.errored),
      static_cast<unsigned long long>(afterStats.p50),
      static_cast<unsigned long long>(afterStats.p99),
      static_cast<unsigned long long>(afterStats.answered),
      static_cast<unsigned long long>(afterStats.errored),
      static_cast<unsigned long long>(latencyShed),
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(shed), shedRate);
  std::fprintf(out,
               "  \"snapshot_reads\": {\n"
               "    \"workload\": {\"name\": \"%s\", \"concepts\": %zu, "
               "\"queries\": %zu, \"mix\": \"subs50/sat20/desc30\"},\n",
               acfg.name.c_str(), acfg.concepts, readQueries);
  for (std::size_t b = 0; b < 3; ++b)
    std::fprintf(out,
                 "    \"batch_%zu\": {\"qps\": %.1f, \"p50_ns\": %llu, "
                 "\"p99_ns\": %llu}%s\n",
                 batchSizes[b], rows[b].qps,
                 static_cast<unsigned long long>(rows[b].p50),
                 static_cast<unsigned long long>(rows[b].p99),
                 b + 1 < 3 ? "," : "");
  std::fprintf(
      out,
      "  },\n"
      "  \"snapshot_stats\": {\"generation\": %llu, \"build_ns\": %llu, "
      "\"compiled_bytes\": %zu, \"nodes\": %zu, \"concepts\": %zu, "
      "\"tree_edges\": %zu, \"non_tree_edges\": %zu, \"extra_words\": %zu, "
      "\"descendant_ids\": %zu, \"snapshot_answers\": %llu, "
      "\"interval_hits\": %llu, "
      "\"bitset_probes\": %llu, \"batch_lines\": %llu, "
      "\"batched_queries\": %llu}\n}\n",
      static_cast<unsigned long long>(snapBuild.generation),
      static_cast<unsigned long long>(snapBuild.buildNs),
      snapBuild.compiledBytes, snapBuild.nodes, snapBuild.concepts,
      snapBuild.treeEdges, snapBuild.nonTreeEdges, snapBuild.extraWords,
      snapBuild.descendantIds,
      static_cast<unsigned long long>(snapEngine.snapshotAnswers),
      static_cast<unsigned long long>(snapEngine.intervalHits),
      static_cast<unsigned long long>(snapEngine.bitsetProbes),
      static_cast<unsigned long long>(snapEngine.batchLines),
      static_cast<unsigned long long>(snapEngine.batchedQueries));
  std::fclose(out);
  std::printf("wrote BENCH_serve.json\n");
  return 0;
}
