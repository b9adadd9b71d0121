#include "runners.hpp"

#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "capped.hpp"
#include "core/incremental.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "corpus.hpp"
#include "gate.hpp"
#include "owl/parser.hpp"
#include "owl/printer.hpp"
#include "parallel/thread_pool.hpp"
#include "queries.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "taxonomy/snapshot.hpp"
#include "trace.hpp"
#include "util/strings.hpp"

namespace bench {
namespace {

using owlcl::ClassificationResult;
using owlcl::ConceptId;
using owlcl::strprintf;

// --- run shape ----------------------------------------------------------------
// paper-unfinished sets up this many times and reports the median.
constexpr std::size_t kSetupReps = 5;
// serve-delta's set-up classifies obo.PREVIOUS (about 20 ms), so it repeats
// more often for a steady median: four times per variant.
constexpr std::size_t kServeSetupReps = 24;
// serve-delta: closed-loop reader clients beside the one writer (ISSUE
// shape: 1 writer + 2 readers). A batch holds 16 queries, the middle of
// bench_serve's batch sizes 1/16/256.
constexpr std::size_t kReaders = 2;
constexpr std::size_t kBatchQueries = 16;
// serve-delta: leaf classes declared once at set-up; the writer attaches
// and detaches them, so the served TBox stays the same size.
constexpr std::size_t kLeafPool = 8;
// A reasoner call slower than this becomes a span of its own.
constexpr std::uint64_t kSlowCallNs = 1'000'000;
// paper-unfinished: whole-run watchdog budget, then the hard SIGKILL cap.
constexpr std::uint64_t kUnfinishedBudgetNs = 2'000'000'000;
constexpr double kUnfinishedCapSeconds = 5.0;

enum class Kind { kClassify, kServe, kUnfinished };

struct Workload {
  const char* name;
  Kind kind;
  std::vector<std::string> rows;
  /// Generated variants of each row per run. A run's figures average its
  /// variants, so the spread between seeds shrinks with more of them.
  std::size_t variants = 1;
  /// Classification passes over the workload's rows per run, at least; more
  /// run until --seconds is used up. Reported times are per-row medians.
  std::size_t minPasses = 2;
};

// Why each workload exists is recorded in BENCHMARK.json; README.md says why
// el-wide and paper-unfinished are extra workloads outside it.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"el-saturation",
       Kind::kClassify,
       {"obo.PREVIOUS", "WBbt.obo", "MIRO#MIRO", "CLEMAPA", "actpathway.obo"},
       8},
      {"el-wide", Kind::kClassify, {"EHDA#EHDA", "lanogaster.obo", "EMAP#EMAP"}},
      {"qcr-merge",
       Kind::kClassify,
       {"ddiv2_functional", "nskisimple_functional"},
       28,
       1},
      {"serve-delta", Kind::kServe, {"obo.PREVIOUS"}, 6},
      {"paper-unfinished",
       Kind::kUnfinished,
       {"EHDAA2", "ncitations_functional", "rnao_functional",
        "bridg.biomedical_domain"}},
  };
  return all;
}

// --- statistics -------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Median over fixed time windows of `f(values in the window)`, counting
/// only windows with at least `minSamples` values. A short spell of load
/// from outside the benchmark then moves one window, not the result.
/// Falls back to f(all values) when no window qualifies.
double windowMedian(const std::vector<std::uint64_t>& atNs,
                    const std::vector<double>& values, std::uint64_t windowNs,
                    std::size_t minSamples,
                    const std::function<double(const std::vector<double>&)>& f) {
  std::vector<std::vector<double>> windows;
  if (!atNs.empty() && atNs.size() == values.size()) {
    const std::uint64_t t0 = *std::min_element(atNs.begin(), atNs.end());
    for (std::size_t i = 0; i < atNs.size(); ++i) {
      const std::size_t w = static_cast<std::size_t>((atNs[i] - t0) / windowNs);
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(values[i]);
    }
  }
  std::vector<double> perWindow;
  for (const auto& win : windows)
    if (win.size() >= minSamples) perWindow.push_back(f(win));
  return perWindow.empty() ? f(values) : median(std::move(perWindow));
}

double msSince(std::uint64_t startNs) {
  return static_cast<double>(nowNs() - startNs) / 1e6;
}

double peakRssMb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

/// Classifier workers: half the hardware threads. On a shared 4-vCPU
/// machine, 4 workers ran el-saturation 2.6x slower when one other core
/// was busy (the EL saturation's spinlocks wait on preempted holders),
/// 3 workers 1.7x slower with two busy cores, 2 workers no slower.
std::size_t workerCount() {
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

// --- one row: ontology text → queryable taxonomy ------------------------------------

enum class RowStatus : int { kComplete, kPartial, kDnf, kWrong };

const char* statusName(RowStatus s) {
  switch (s) {
    case RowStatus::kComplete: return "complete";
    case RowStatus::kPartial: return "partial";
    case RowStatus::kDnf: return "dnf";
    case RowStatus::kWrong: return "wrong";
  }
  return "?";
}

/// One classification of one corpus. Trivially copyable: a capped child
/// sends it to the parent as raw bytes.
struct RowResult {
  RowStatus status = RowStatus::kDnf;
  double parseMs = 0, prepareMs = 0, classifyMs = 0, snapshotMs = 0;
  double routeMs = 0, phase1Ms = 0, phase2Ms = 0, hierarchyMs = 0;
  double busyMs = 0, elapsedMs = 0;
  double workers = 0, steals = 0;
  double initialPossible = 0, testsPerformed = 0, testsAvoided = 0;
  double subsTests = 0, mergeRefuted = 0, crossCacheHits = 0;
  double routedConcepts = 0, seededPairs = 0, unresolvedPairs = 0;
  double snapshotBytes = 0;

  double readyMs() const { return parseMs + prepareMs + classifyMs + snapshotMs; }
  double otherMs() const {
    return classifyMs - routeMs - phase1Ms - phase2Ms - hierarchyMs;
  }
};
static_assert(std::is_trivially_copyable_v<RowResult>);

using RowRuns = std::vector<std::vector<RowResult>>;  // [row][pass]

/// serve-delta's read-path measurements, merged over the reader clients.
struct ReadStats {
  std::vector<double> latencyUs;
  std::vector<std::uint64_t> sentNs;  // when each request was sent
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::string firstFailure;
  owlcl::QueryEngineStats engine;

  void merge(const ReadStats& o) {
    latencyUs.insert(latencyUs.end(), o.latencyUs.begin(), o.latencyUs.end());
    sentNs.insert(sentNs.end(), o.sentNs.begin(), o.sentNs.end());
    queries += o.queries;
    failed += o.failed;
    if (firstFailure.empty()) firstFailure = o.firstFailure;
  }
  void noteFailure(const std::string& what) {
    if (failed++ == 0) firstFailure = what;
  }
  /// Latency quantile of the requests sent in each second, median over
  /// the seconds.
  double latencyQuantileUs(double q) const {
    return windowMedian(sentNs, latencyUs, 1'000'000'000, 1000,
                        [q](const std::vector<double>& v) { return quantile(v, q); });
  }
  /// Queries answered per second a client spends waiting, times clients:
  /// the checker's own work between requests is left out. Windowed like
  /// latencyQuantileUs.
  double queriesPerSecond(std::size_t clients) const {
    const double perBatch = ratio(static_cast<double>(queries),
                                  static_cast<double>(latencyUs.size()));
    return windowMedian(
        sentNs, latencyUs, 1'000'000'000, 1000,
        [perBatch, clients](const std::vector<double>& v) {
          double waitS = 0;
          for (double us : v) waitS += us / 1e6;
          return ratio(perBatch * static_cast<double>(v.size()) *
                           static_cast<double>(clients),
                       waitS);
        });
  }
};

struct RowEnv {
  owlcl::ThreadPool& pool;
  SpanRecorder& spans;                       // disabled outside traced passes
  LatencyHistogram* reasonerHist = nullptr;  // non-null: time reasoner calls
  std::uint64_t watchdogNs = 0;
  std::string* gateFailure = nullptr;
};

owlcl::TableauReasonerConfig reasonerConfig(const Corpus& c) {
  owlcl::TableauReasonerConfig tc;
  tc.sharedCache = c.qcr;
  tc.mergeModels = c.qcr;
  return tc;
}

owlcl::ClassifierConfig classifierConfig(const Corpus& c) {
  owlcl::ClassifierConfig cc;
  cc.routeEl = c.qcr ? owlcl::ElRouting::kAuto : owlcl::ElRouting::kOn;
  return cc;
}

void recordClassification(const ClassificationResult& res, RowResult& r) {
  for (const owlcl::CycleStats& cyc : res.cycles) {
    const double ms = static_cast<double>(cyc.elapsedNs) / 1e6;
    switch (cyc.phase) {
      case owlcl::CycleStats::Phase::kRouting: r.routeMs += ms; break;
      case owlcl::CycleStats::Phase::kRandomDivision: r.phase1Ms += ms; break;
      case owlcl::CycleStats::Phase::kGroupDivision: r.phase2Ms += ms; break;
      case owlcl::CycleStats::Phase::kHierarchy: r.hierarchyMs += ms; break;
    }
  }
  r.busyMs = static_cast<double>(res.busyNs) / 1e6;
  r.elapsedMs = static_cast<double>(res.elapsedNs) / 1e6;
  r.initialPossible = static_cast<double>(res.initialPossible);
  r.testsPerformed = static_cast<double>(res.testsPerformed());
  r.testsAvoided = static_cast<double>(res.testsAvoided());
  r.subsTests = static_cast<double>(res.subsumptionTests);
  r.mergeRefuted = static_cast<double>(res.mergeRefuted);
  r.crossCacheHits = static_cast<double>(res.crossCacheHits);
  r.routedConcepts = static_cast<double>(res.routedConcepts);
  r.seededPairs = static_cast<double>(res.saturationSeeded);
  r.unresolvedPairs = static_cast<double>(res.unresolvedPairs.size());
}

RowStatus gate(const ClassificationResult& res, const owlcl::TBox& tbox,
               const Corpus& c, SpanRecorder& spans, std::uint32_t parent,
               std::string* failure) {
  ScopedSpan span(spans, "bench.gate", parent);
  const GateReport rep =
      checkTaxonomy(res.taxonomy, tbox, c.gen, /*soundOnly=*/!res.complete());
  if (!rep.ok()) {
    if (failure != nullptr && failure->empty())
      *failure = c.row.config.name + ": " + rep.first;
    return RowStatus::kWrong;
  }
  return res.complete() ? RowStatus::kComplete : RowStatus::kPartial;
}

/// parse → prepare → classify → snapshot compile, each timed and wrapped
/// in a span, then the gate.
RowResult runRow(const Corpus& c, const RowEnv& env) {
  RowResult r;
  r.workers = static_cast<double>(env.pool.size());
  ScopedSpan rowSpan(env.spans, "row " + c.row.config.name);
  const std::uint32_t parent = rowSpan.id();

  std::uint64_t t = nowNs();
  owlcl::TBox tbox;
  {
    ScopedSpan s(env.spans, "owl.parse", parent);
    owlcl::parseFunctionalSyntax(c.text, tbox);
  }
  r.parseMs = msSince(t);

  t = nowNs();
  std::unique_ptr<owlcl::TableauReasoner> reasoner;
  {
    ScopedSpan s(env.spans, "reasoner.prepare", parent);
    reasoner = std::make_unique<owlcl::TableauReasoner>(tbox, reasonerConfig(c));
  }
  r.prepareMs = msSince(t);

  std::unique_ptr<TimingPlugin> timing;
  owlcl::ReasonerPlugin* plugin = reasoner.get();
  if (env.reasonerHist != nullptr) {
    timing = std::make_unique<TimingPlugin>(*reasoner, tbox, *env.reasonerHist,
                                            env.spans, kSlowCallNs, parent);
    plugin = timing.get();
  }
  owlcl::ClassifierConfig cc = classifierConfig(c);
  cc.watchdogBudgetNs = env.watchdogNs;
  ClassificationResult res;
  std::unique_ptr<owlcl::ParallelClassifier> classifier;
  const std::uint64_t steals = env.pool.stealCount();
  t = nowNs();
  {
    ScopedSpan s(env.spans, "core.classify", parent);
    classifier = std::make_unique<owlcl::ParallelClassifier>(tbox, *plugin, cc);
    owlcl::RealExecutor exec(env.pool);
    res = classifier->classify(exec);
  }
  r.classifyMs = msSince(t);
  r.steals = static_cast<double>(env.pool.stealCount() - steals);
  recordClassification(res, r);

  std::shared_ptr<const owlcl::TaxonomySnapshot> snap;
  if (res.complete()) {
    t = nowNs();
    {
      ScopedSpan s(env.spans, "taxonomy.snapshot", parent);
      snap = owlcl::TaxonomySnapshot::build(res.taxonomy, tbox, true, 0);
    }
    r.snapshotMs = msSince(t);
    r.snapshotBytes = static_cast<double>(snap->stats().compiledBytes);
  }

  r.status = gate(res, tbox, c, env.spans, parent, env.gateFailure);
  return r;
}

// --- aggregation --------------------------------------------------------------------

using RowField = std::function<double(const RowResult&)>;

template <class T>
RowField field(T RowResult::*member) {
  return [member](const RowResult& r) { return static_cast<double>(r.*member); };
}

double medianOf(const std::vector<RowResult>& runs, const RowField& f) {
  std::vector<double> v;
  for (const RowResult& r : runs) v.push_back(f(r));
  return median(std::move(v));
}

/// Mean of the middle half of `v`: the lowest and highest quarter are left
/// out. Steadier than the median when values spread evenly, and as blind
/// to a rare outlier.
double interquartileMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Σ over the workload's rows of the interquartile mean, over a row's
/// generated variants, of each variant's median over passes. `runs` holds
/// the variants of a row next to each other. Variant times spread evenly
/// over a factor of about two, and about one nskisimple variant in 220
/// takes 40–50 s; the interquartile mean keeps it from moving the sum.
double rowSum(const RowRuns& runs, std::size_t variants, const RowField& f) {
  double total = 0;
  for (std::size_t r = 0; r + variants <= runs.size(); r += variants) {
    std::vector<double> v;
    for (std::size_t k = r; k < r + variants; ++k) v.push_back(medianOf(runs[k], f));
    total += interquartileMean(std::move(v));
  }
  return total;
}

std::string rowJson(const Corpus& c, const std::vector<RowResult>& runs,
                    double wallSeconds = 0) {
  RowStatus worst = RowStatus::kComplete;
  for (const RowResult& r : runs) worst = std::max(worst, r.status);
  auto med = [&runs](const RowField& f) { return medianOf(runs, f); };
  std::string out = strprintf(
      R"({"row":"%s","gen_seed":%llu,"concepts":%zu,"axioms":%zu,"expressivity":"%s",)"
      R"("status":"%s","passes":%zu,"tests":%.0f,"tests_avoided":%.0f,)"
      R"("route_ms":%.3f,"phase1_ms":%.3f,"phase2_ms":%.3f,"hierarchy_ms":%.3f,)"
      R"("classify_ms":%.3f,"snapshot_ms":%.3f,"ready_ms":%.3f)",
      owlcl::jsonEscape(c.row.config.name).c_str(),
      static_cast<unsigned long long>(c.row.config.seed), c.metrics.concepts,
      c.metrics.axioms, c.metrics.expressivity.c_str(), statusName(worst),
      runs.size(), med(field(&RowResult::testsPerformed)),
      med(field(&RowResult::testsAvoided)), med(field(&RowResult::routeMs)),
      med(field(&RowResult::phase1Ms)), med(field(&RowResult::phase2Ms)),
      med(field(&RowResult::hierarchyMs)), med(field(&RowResult::classifyMs)),
      med(field(&RowResult::snapshotMs)),
      med([](const RowResult& r) { return r.readyMs(); }));
  if (wallSeconds > 0) out += strprintf(R"(,"wall_s":%.3f)", wallSeconds);
  return out + "}";
}

/// serve-delta's commit latencies with their send times.
struct CommitSamples {
  std::vector<double> ms;
  std::vector<std::uint64_t> atNs;
  /// Quantile per five-second window, median over the windows.
  double quantileMs(double q) const {
    return windowMedian(atNs, ms, 5'000'000'000, 50,
                        [q](const std::vector<double>& v) { return quantile(v, q); });
  }
};

/// The end-to-end metrics BENCHMARK.json bounds. Commit and read latency,
/// read rate and peak memory spread too much between runs on a shared
/// machine to carry a bound; they are per-layer metrics (serve.*,
/// process.*).
std::vector<Metric> endToEnd(double setupS, double classifyS, double readyS) {
  return {
      {"setup_s", setupS, "s"},
      {"classify_s", classifyS, "s"},
      {"ready_s", readyS, "s"},
  };
}

/// Per-layer metrics of the reported passes. Sums run over the workload's
/// rows, over the interquartile mean of each row's variants (see rowSum);
/// the reasoner call
/// count and time, from one histogram, average over the variants.
std::vector<Metric> perLayer(const RowRuns& rows, std::size_t variants,
                             const LatencyHistogram& hist, std::size_t passes,
                             const ReadStats& reads, std::size_t clients,
                             double overheadS) {
  const double copies = static_cast<double>(variants);
  auto sum = [&rows, variants](const RowField& f) { return rowSum(rows, variants, f); };
  const double perPass =
      static_cast<double>(std::max<std::size_t>(1, passes)) * copies;
  const double busy = sum(field(&RowResult::busyMs));
  const double elapsed = sum(field(&RowResult::elapsedMs));
  const double workers = static_cast<double>(workerCount());
  const double performed = sum(field(&RowResult::testsPerformed));
  const double avoided = sum(field(&RowResult::testsAvoided));
  const owlcl::QueryEngineStats& e = reads.engine;
  return {
      {"owl.parse_ms", sum(field(&RowResult::parseMs)), "ms"},
      {"reasoner.prepare_ms", sum(field(&RowResult::prepareMs)), "ms"},
      {"reasoner.calls", static_cast<double>(hist.count()) / perPass, "count"},
      {"reasoner.call_ms", static_cast<double>(hist.totalNs()) / 1e6 / perPass,
       "ms"},
      {"reasoner.call_p99_us", hist.quantileNs(0.99) / 1e3, "us"},
      {"reasoner.merge_refuted_ratio",
       ratio(sum(field(&RowResult::mergeRefuted)), sum(field(&RowResult::subsTests))),
       "ratio"},
      {"reasoner.cross_cache_hits", sum(field(&RowResult::crossCacheHits)), "count"},
      {"elcore.route_ms", sum(field(&RowResult::routeMs)), "ms"},
      {"elcore.routed_concepts", sum(field(&RowResult::routedConcepts)), "count"},
      {"elcore.seeded_pairs", sum(field(&RowResult::seededPairs)), "count"},
      {"core.phase1_ms", sum(field(&RowResult::phase1Ms)), "ms"},
      {"core.phase2_ms", sum(field(&RowResult::phase2Ms)), "ms"},
      {"core.hierarchy_ms", sum(field(&RowResult::hierarchyMs)), "ms"},
      {"core.other_ms", sum([](const RowResult& r) { return r.otherMs(); }), "ms"},
      {"core.initial_possible", sum(field(&RowResult::initialPossible)), "count"},
      {"core.tests_performed", performed, "count"},
      {"core.tests_avoided", avoided, "count"},
      {"core.avoided_ratio", ratio(avoided, avoided + performed), "ratio"},
      {"core.unresolved_pairs", sum(field(&RowResult::unresolvedPairs)), "count"},
      {"core.delta_cone_fraction", 0, "ratio"},
      {"core.delta_rerun_tests", 0, "count"},
      {"parallel.utilisation", ratio(busy, elapsed * workers), "ratio"},
      {"parallel.speedup", ratio(busy, elapsed), "x"},
      {"parallel.steals", sum(field(&RowResult::steals)), "count"},
      {"taxonomy.snapshot_ms", sum(field(&RowResult::snapshotMs)), "ms"},
      {"taxonomy.snapshot_bytes", sum(field(&RowResult::snapshotBytes)), "bytes"},
      {"serve.snapshot_answer_ratio",
       ratio(static_cast<double>(e.snapshotAnswers),
             static_cast<double>(e.snapshotAnswers + e.walkAnswers)),
       "ratio"},
      {"serve.batched_queries", static_cast<double>(e.batchedQueries), "count"},
      {"serve.shed", 0, "count"},
      {"serve.read_p50_us", reads.latencyQuantileUs(0.5), "us"},
      {"serve.read_p99_us", reads.latencyQuantileUs(0.99), "us"},
      {"serve.reads_per_s", reads.queriesPerSecond(clients), "1/s"},
      {"serve.commit_p50_ms", 0, "ms"},
      {"serve.commit_p90_ms", 0, "ms"},
      {"process.peak_rss_mb", peakRssMb(), "MB"},
      {"trace.overhead_classify_s", overheadS, "s"},
  };
}

void setMetric(std::vector<Metric>& ms, const std::string& name, double value) {
  for (Metric& m : ms)
    if (m.name == name) m.value = value;
}

void writeTrace(const SpanRecorder& spans, const RunOptions& opts) {
  if (opts.traceOut.empty()) return;
  if (!spans.writeChromeTrace(opts.traceOut))
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", opts.traceOut.c_str());
}

/// A sound PARTIAL row is no failure; a capped or wrong one is.
void tally(RunReport& rep, RowStatus s) {
  ++rep.attempted;
  if (s == RowStatus::kDnf || s == RowStatus::kWrong) ++rep.failed;
  if (s == RowStatus::kWrong) rep.correct = false;
}

void tallyReads(RunReport& rep, const ReadStats& reads) {
  rep.attempted += reads.latencyUs.size();
  rep.failed += reads.failed;
  if (reads.failed > 0) {
    rep.correct = false;
    std::fprintf(stderr, "bench_e2e: wrong answer: %s\n", reads.firstFailure.c_str());
  }
}

/// Generates and serialises the workload's corpora once, appending the
/// seconds it took to `secs`.
std::vector<Corpus> setUpCorpora(const Workload& w, std::uint64_t seed,
                                 std::vector<double>* secs) {
  const std::uint64_t t = nowNs();
  std::vector<Corpus> corpora;
  for (const std::string& name : w.rows)
    for (std::size_t k = 0; k < w.variants; ++k)
      corpora.push_back(makeCorpus(paperRow(name, seed * w.variants + k)));
  secs->push_back(static_cast<double>(nowNs() - t) / 1e9);
  return corpora;
}

/// setUpCorpora kSetupReps times, back to back; returns the last set.
std::vector<Corpus> setUpRepeated(const Workload& w, std::uint64_t seed,
                                  std::vector<double>* secs) {
  std::vector<Corpus> corpora;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    corpora.clear();
    corpora = setUpCorpora(w, seed, secs);
  }
  return corpora;
}

// --- classification workloads ---------------------------------------------------------

RunReport runClassify(const Workload& w, const RunOptions& opts) {
  RunReport rep;
  // Set-up is timed once before the measured loop and once per pass of an
  // untraced run: each corpus is generated again right after it is
  // classified, and the pass's sum is one more set-up time. A pass spans
  // seconds, so its sum averages over the spells, a second or more long, in
  // which the machine runs this single-threaded work up to 1.5x slower; a
  // back-to-back set-up falls into one of them whole. The loop runs that
  // much longer.
  std::vector<double> setupS;
  const std::vector<Corpus> corpora = setUpCorpora(w, opts.seed, &setupS);
  owlcl::ThreadPool pool(workerCount());
  SpanRecorder spans(opts.trace);
  SpanRecorder noSpans(false);
  LatencyHistogram hist;
  std::string gateFailure;
  // measured[i]: the passes of row i that are reported. A traced run
  // alternates untraced and traced passes; the untraced ones (baseline)
  // give the tracing overhead.
  RowRuns measured(corpora.size());
  RowRuns baseline(corpora.size());
  std::size_t tracedPasses = 0;
  const std::size_t minPasses = opts.trace ? 2 * w.minPasses : w.minPasses;
  std::uint64_t deadline = nowNs() + static_cast<std::uint64_t>(opts.seconds * 1e9);
  for (std::size_t pass = 0; pass < minPasses || nowNs() < deadline; ++pass) {
    const bool traced = opts.trace && pass % 2 == 1;
    const bool reported = !opts.trace || traced;
    tracedPasses += traced ? 1 : 0;
    std::uint64_t passSetupNs = 0;
    for (std::size_t i = 0; i < corpora.size(); ++i) {
      const RowEnv env{pool, traced ? spans : noSpans, traced ? &hist : nullptr, 0,
                       &gateFailure};
      const RowResult r = runRow(corpora[i], env);
      tally(rep, r.status);
      (reported ? measured : baseline)[i].push_back(r);
      if (!opts.trace) {
        const std::uint64_t t = nowNs();
        makeCorpus(corpora[i].row);
        passSetupNs += nowNs() - t;
      }
    }
    if (!opts.trace) {
      setupS.push_back(static_cast<double>(passSetupNs) / 1e9);
      deadline += passSetupNs;
    }
  }
  if (!gateFailure.empty())
    std::fprintf(stderr, "bench_e2e: ground-truth mismatch: %s\n",
                 gateFailure.c_str());
  for (std::size_t i = 0; i < corpora.size(); ++i)
    rep.rows.push_back(rowJson(corpora[i], measured[i]));

  const RowField classify = field(&RowResult::classifyMs);
  const RowField ready = [](const RowResult& r) { return r.readyMs(); };
  const std::size_t v = w.variants;
  if (opts.trace) {
    const double overheadS =
        (rowSum(measured, v, classify) - rowSum(baseline, v, classify)) / 1e3;
    rep.metrics = perLayer(measured, w.variants, hist, tracedPasses, ReadStats{}, 1,
                           overheadS);
    writeTrace(spans, opts);
  } else {
    rep.metrics = endToEnd(median(setupS), rowSum(measured, v, classify) / 1e3,
                           rowSum(measured, v, ready) / 1e3);
  }
  return rep;
}

// --- serve-delta --------------------------------------------------------------------------

template <typename T>
std::shared_ptr<T> noOwn(T* p) {
  return std::shared_ptr<T>(p, [](T*) {});
}

/// A reasoner with its timing decorator, owned together by a delta
/// generation's plug-in pointer.
struct TimedReasoner {
  TimedReasoner(owlcl::TBox& tbox, owlcl::TableauReasonerConfig tc,
                LatencyHistogram& hist, SpanRecorder& spans)
      : reasoner(tbox, tc), timing(reasoner, tbox, hist, spans, kSlowCallNs, 0) {}
  owlcl::TableauReasoner reasoner;
  TimingPlugin timing;
};

/// One ontology served with the delta verbs on. Members are declared in
/// dependency order, so the server drains and is destroyed first.
struct ServedOntology {
  owlcl::TBox tbox;
  std::unique_ptr<owlcl::TableauReasoner> reasoner;
  std::unique_ptr<TimingPlugin> timing;
  std::unique_ptr<owlcl::ParallelClassifier> classifier;
  std::unique_ptr<owlcl::RealExecutor> baseExec;
  std::unique_ptr<owlcl::RealExecutor> deltaExec;
  std::unique_ptr<owlcl::DeltaReclassifier> delta;
  std::unique_ptr<owlcl::Server> server;
  std::atomic<std::uint64_t> classifyNs{0};
  RowResult base;
};

/// Parses and prepares `c`, starts a Server over it and waits until the
/// base classification's snapshot is published. The caller gates it.
std::unique_ptr<ServedOntology> serveOntology(const Corpus& c,
                                              owlcl::ThreadPool& pool,
                                              SpanRecorder& spans,
                                              LatencyHistogram* hist) {
  auto s = std::make_unique<ServedOntology>();
  RowResult& r = s->base;
  r.workers = static_cast<double>(pool.size());
  ScopedSpan rowSpan(spans, "serve " + c.row.config.name);
  const std::uint32_t parent = rowSpan.id();

  std::uint64_t t = nowNs();
  {
    ScopedSpan sp(spans, "owl.parse", parent);
    owlcl::parseFunctionalSyntax(c.text, s->tbox);
  }
  r.parseMs = msSince(t);
  t = nowNs();
  const owlcl::TableauReasonerConfig tc = reasonerConfig(c);
  {
    ScopedSpan sp(spans, "reasoner.prepare", parent);
    s->reasoner = std::make_unique<owlcl::TableauReasoner>(s->tbox, tc);
  }
  r.prepareMs = msSince(t);

  owlcl::ReasonerPlugin* plugin = s->reasoner.get();
  if (hist != nullptr) {
    s->timing = std::make_unique<TimingPlugin>(*s->reasoner, s->tbox, *hist,
                                               spans, kSlowCallNs, parent);
    plugin = s->timing.get();
  }
  const owlcl::ClassifierConfig cc = classifierConfig(c);
  s->classifier = std::make_unique<owlcl::ParallelClassifier>(s->tbox, *plugin, cc);
  s->server = std::make_unique<owlcl::Server>(s->tbox, *s->classifier,
                                              *s->reasoner, owlcl::ServerConfig{});
  s->deltaExec = std::make_unique<owlcl::RealExecutor>(pool);
  s->delta = std::make_unique<owlcl::DeltaReclassifier>(
      *s->deltaExec,
      [tc, hist, &spans](const owlcl::TBox& t) -> std::shared_ptr<owlcl::ReasonerPlugin> {
        // The commit path froze the TBox; the reasoner's own freeze is a no-op.
        auto& tbox = const_cast<owlcl::TBox&>(t);
        if (hist == nullptr) return std::make_shared<owlcl::TableauReasoner>(tbox, tc);
        auto both = std::make_shared<TimedReasoner>(tbox, tc, *hist, spans);
        return std::shared_ptr<owlcl::ReasonerPlugin>(both, &both->timing);
      },
      cc);
  s->delta->adoptInitial(noOwn<const owlcl::TBox>(&s->tbox), noOwn(plugin),
                         noOwn(s->classifier.get()), nullptr);
  s->server->setDeltaReclassifier(s->delta.get());

  s->baseExec = std::make_unique<owlcl::RealExecutor>(pool);
  const std::uint64_t steals = pool.stealCount();
  ServedOntology* self = s.get();
  s->server->start([self, &spans, parent] {
    ScopedSpan sp(spans, "core.classify", parent);
    const std::uint64_t t0 = nowNs();
    ClassificationResult res = self->classifier->classify(*self->baseExec);
    self->classifyNs.store(nowNs() - t0, std::memory_order_release);
    return res;
  });
  while (s->server->engineView()->result == nullptr)
    std::this_thread::sleep_for(std::chrono::microseconds(100));

  const std::shared_ptr<const owlcl::EngineView> view = s->server->engineView();
  r.classifyMs = static_cast<double>(s->classifyNs.load(std::memory_order_acquire)) / 1e6;
  r.steals = static_cast<double>(pool.stealCount() - steals);
  recordClassification(*view->result, r);
  if (view->snapshot != nullptr) {
    r.snapshotMs = static_cast<double>(view->snapshot->stats().buildNs) / 1e6;
    r.snapshotBytes = static_cast<double>(view->snapshot->stats().compiledBytes);
  }
  return s;
}

/// Synchronous request through Server::submit.
std::string ask(owlcl::Server& server, std::string line) {
  auto done = std::make_shared<std::promise<std::string>>();
  std::future<std::string> reply = done->get_future();
  if (!server.submit(std::move(line),
                     [done](std::string r) { done->set_value(std::move(r)); }))
    return R"({"ok":false,"error":"closed"})";
  return reply.get();
}

std::string axiomLine(const char* op, const std::string& axiom) {
  return strprintf(R"({"op":"%s","axiom":"%s"})", op,
                   owlcl::jsonEscape(axiom).c_str());
}

bool askOk(owlcl::Server& server, std::string line) {
  return ask(server, std::move(line)).find(R"("ok":true)") != std::string::npos;
}

/// Declares the leaf pool on the served ontology in one transaction.
bool declareLeaves(owlcl::Server& server, const LeafRegistry& leaves) {
  bool ok = askOk(server, R"({"op":"begin-delta"})");
  for (std::size_t k = 0; k < leaves.size(); ++k)
    ok = ok && askOk(server, axiomLine("add-axiom", "Declaration(Class(" +
                                                        owlcl::fsEntityName(leaves.name(k)) +
                                                        "))"));
  return ok && askOk(server, R"({"op":"commit"})");
}

double jsonNumber(const std::string& s, const char* key) {
  const std::size_t at = s.find(key);
  return at == std::string::npos ? 0 : std::strtod(s.c_str() + at + std::strlen(key), nullptr);
}

struct WriterStats {
  CommitSamples commits;
  std::vector<double> coneFraction;
  std::vector<double> rerunTests;
  std::vector<double> snapshotMs;
  double snapshotBytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string firstFailure;
};

/// The writer client: single-transaction deltas, alternating "attach a
/// detached pool leaf under a random base concept" with "retract an
/// attachment made earlier", until `stop`.
void writeLoop(owlcl::Server& server, owlcl::DeltaReclassifier& delta,
               const Corpus& c, LeafRegistry& leaves, std::uint64_t seed,
               const std::atomic<bool>& stop, SpanRecorder& spans,
               WriterStats& out) {
  owlcl::Xoshiro256 rng(seed);
  const owlcl::TBox& names = *c.gen.tbox;
  std::vector<std::size_t> detached(leaves.size());
  for (std::size_t k = 0; k < detached.size(); ++k) detached[k] = k;
  std::vector<std::pair<std::size_t, std::string>> attached;  // leaf, SubClassOf
  for (std::size_t step = 0; !stop.load(std::memory_order_relaxed); ++step) {
    const bool add = attached.empty() || (step % 2 == 0 && !detached.empty());
    std::vector<std::string> lines{R"({"op":"begin-delta"})"};
    std::string axiom;
    std::size_t pick = 0;
    if (add) {
      pick = static_cast<std::size_t>(rng.below(detached.size()));
      const ConceptId parent = drawConcept(c, rng);
      leaves.attach(detached[pick], parent);
      axiom = "SubClassOf(" + owlcl::fsEntityName(leaves.name(detached[pick])) + " " +
              owlcl::fsEntityName(names.conceptName(parent)) + ")";
      lines.push_back(axiomLine("add-axiom", axiom));
    } else {
      pick = static_cast<std::size_t>(rng.below(attached.size()));
      axiom = attached[pick].second;
      lines.push_back(axiomLine("retract-axiom", axiom));
    }
    ++out.attempted;
    bool staged = true;
    for (std::string& line : lines) staged = staged && askOk(server, std::move(line));
    std::string reply;
    double ms = 0;
    std::uint64_t sentNs = 0;
    if (staged) {
      ScopedSpan span(spans, add ? "serve.commit add" : "serve.commit retract");
      sentNs = nowNs();
      reply = ask(server, R"({"op":"commit"})");
      ms = msSince(sentNs);
    }
    if (!staged || reply.find(R"("ok":true,"op":"commit")") == std::string::npos) {
      if (out.failed++ == 0) out.firstFailure = "delta failed: " + reply;
      ask(server, R"({"op":"abort"})");  // leave no transaction open
      continue;
    }
    if (add) {
      attached.emplace_back(detached[pick], axiom);
      detached[pick] = detached.back();
      detached.pop_back();
    } else {
      detached.push_back(attached[pick].first);
      attached[pick] = attached.back();
      attached.pop_back();
    }
    out.commits.ms.push_back(ms);
    out.commits.atNs.push_back(sentNs);
    out.coneFraction.push_back(
        ratio(jsonNumber(reply, "\"cone\":"), jsonNumber(reply, "\"concepts\":")));
    const owlcl::DeltaGeneration gen = delta.generation();
    if (gen.result != nullptr)
      out.rerunTests.push_back(static_cast<double>(gen.result->testsPerformed()));
    if (gen.snapshot != nullptr) {
      out.snapshotMs.push_back(static_cast<double>(gen.snapshot->stats().buildNs) / 1e6);
      out.snapshotBytes = static_cast<double>(gen.snapshot->stats().compiledBytes);
    }
  }
}

/// A reader client: closed-loop batch requests, every answer checked.
void readLoop(owlcl::Server& server, const Corpus& c, const LeafRegistry& leaves,
              std::uint64_t seed, const std::atomic<bool>& stop, ReadStats& out) {
  owlcl::Xoshiro256 rng(seed);
  while (!stop.load(std::memory_order_relaxed)) {
    const std::vector<ReadQuery> qs = drawQueries(c, rng, kBatchQueries);
    std::string line = batchLine(c, qs);
    const std::uint64_t t = nowNs();
    const std::string reply = ask(server, std::move(line));
    out.latencyUs.push_back(static_cast<double>(nowNs() - t) / 1e3);
    out.sentNs.push_back(t);
    out.queries += qs.size();
    std::string why;
    if (!checkBatch(reply, c, qs, &leaves, &why)) out.noteFailure(why);
  }
}

RunReport runServe(const Workload& w, const RunOptions& opts) {
  RunReport rep;
  owlcl::ThreadPool pool(workerCount());
  SpanRecorder spans(opts.trace);
  SpanRecorder noSpans(false);
  LatencyHistogram hist;
  std::string gateFailure;
  // Set-up is generation, serialisation and the base classification under
  // Server until its snapshot is published, round-robin over the row's
  // variants; the gate runs after the clock stops. Part of the set-ups run
  // before the serving window (the last of those serves) and the rest after
  // it, so one spell of outside load cannot shift them all. A traced run
  // alternates untraced and traced set-ups; the base classification gives
  // the tracing overhead.
  const std::size_t variants = w.variants;
  const std::size_t reps = (opts.trace ? 2 : 1) * kServeSetupReps;
  const std::size_t before = reps / 2 + 1;
  std::vector<double> setupS;
  RowRuns measured(variants);
  RowRuns baseline(variants);
  std::vector<std::unique_ptr<Corpus>> corpora(variants);
  auto setUp = [&](std::size_t i) {
    const std::size_t k = i % variants;
    const bool traced = opts.trace && i % 2 == 1;
    const std::uint64_t t = nowNs();
    corpora[k] = std::make_unique<Corpus>(
        makeCorpus(paperRow(w.rows[0], opts.seed * variants + k)));
    SpanRecorder& sp = traced ? spans : noSpans;
    std::unique_ptr<ServedOntology> s =
        serveOntology(*corpora[k], pool, sp, traced ? &hist : nullptr);
    setupS.push_back(static_cast<double>(nowNs() - t) / 1e9);
    s->base.status = gate(*s->server->engineView()->result, s->tbox, *corpora[k], sp,
                          0, &gateFailure);
    tally(rep, s->base.status);
    (opts.trace && !traced ? baseline : measured)[k].push_back(s->base);
    return s;
  };
  std::unique_ptr<ServedOntology> served;
  for (std::size_t i = 0; i < before; ++i) {
    served.reset();
    served = setUp(i);
  }
  const Corpus& corpus = *corpora[(before - 1) % variants];

  // Writes beside reads: one writer and kReaders readers, closed loop.
  LeafRegistry leaves(w.rows[0] + "_BenchLeaf", kLeafPool);
  ++rep.attempted;
  if (!declareLeaves(*served->server, leaves)) {
    ++rep.failed;
    rep.correct = false;
    std::fprintf(stderr, "bench_e2e: declaring the leaf pool failed\n");
  }
  std::atomic<bool> stop{false};
  WriterStats writer;
  std::vector<ReadStats> readers(kReaders);
  SpanRecorder& loopSpans = opts.trace ? spans : noSpans;
  std::vector<std::thread> clients;
  clients.emplace_back([&] {
    writeLoop(*served->server, *served->delta, corpus, leaves,
              opts.seed * 7919 + 1, stop, loopSpans, writer);
  });
  for (std::size_t i = 0; i < kReaders; ++i)
    clients.emplace_back([&, i] {
      readLoop(*served->server, corpus, leaves, opts.seed * 7919 + 2 + i, stop,
               readers[i]);
    });
  std::this_thread::sleep_for(std::chrono::duration<double>(opts.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : clients) th.join();

  ReadStats reads;
  for (const ReadStats& r : readers) reads.merge(r);
  const owlcl::QueryEngineStats engine = served->server->engineStats();
  reads.engine = engine;
  const double shed = static_cast<double>(served->server->shedCount());
  served.reset();
  for (std::size_t i = before; i < reps; ++i) setUp(i);  // replaces `corpus`
  if (!gateFailure.empty())
    std::fprintf(stderr, "bench_e2e: ground-truth mismatch: %s\n",
                 gateFailure.c_str());

  rep.attempted += writer.attempted;
  rep.failed += writer.failed;
  if (writer.failed > 0)
    std::fprintf(stderr, "bench_e2e: %s\n", writer.firstFailure.c_str());
  tallyReads(rep, reads);
  for (std::size_t v = 0; v < variants; ++v)
    rep.rows.push_back(rowJson(*corpora[v], measured[v]));
  rep.rows.push_back(strprintf(
      R"({"row":"%s commits","commits":%zu,"cone_fraction":%.4f,"rerun_tests":%.0f,)"
      R"("commit_p50_ms":%.3f,"read_batches":%zu})",
      owlcl::jsonEscape(w.rows[0]).c_str(), writer.commits.ms.size(),
      median(writer.coneFraction), median(writer.rerunTests),
      quantile(writer.commits.ms, 0.5), reads.latencyUs.size()));

  const RowField classify = field(&RowResult::classifyMs);
  if (opts.trace) {
    const double overheadS = (rowSum(measured, variants, classify) -
                              rowSum(baseline, variants, classify)) /
                             1e3;
    rep.metrics = perLayer(measured, variants, hist, 1, reads, kReaders, overheadS);
    setMetric(rep.metrics, "serve.commit_p50_ms", writer.commits.quantileMs(0.5));
    setMetric(rep.metrics, "serve.commit_p90_ms", writer.commits.quantileMs(0.9));
    setMetric(rep.metrics, "core.delta_cone_fraction", median(writer.coneFraction));
    setMetric(rep.metrics, "core.delta_rerun_tests", median(writer.rerunTests));
    setMetric(rep.metrics, "taxonomy.snapshot_ms", median(writer.snapshotMs));
    setMetric(rep.metrics, "taxonomy.snapshot_bytes", writer.snapshotBytes);
    setMetric(rep.metrics, "serve.shed", shed);
    writeTrace(spans, opts);
  } else {
    rep.metrics = endToEnd(
        median(setupS), rowSum(measured, variants, classify) / 1e3,
        rowSum(measured, variants, [](const RowResult& r) { return r.readyMs(); }) / 1e3);
  }
  return rep;
}

// --- paper-unfinished ---------------------------------------------------------------------

RunReport runUnfinished(const Workload& w, const RunOptions& opts) {
  RunReport rep;
  std::vector<double> setupS;
  const std::vector<Corpus> corpora = setUpRepeated(w, opts.seed, &setupS);
  RowRuns rows(corpora.size());
  for (std::size_t i = 0; i < corpora.size(); ++i) {
    const Corpus& c = corpora[i];
    // Forked while this process is still single-threaded: the pool lives in
    // the child only.
    const CappedRun run = runCapped(kUnfinishedCapSeconds, [&c] {
      owlcl::ThreadPool pool(workerCount());
      SpanRecorder off(false);
      const RowEnv env{pool, off, nullptr, kUnfinishedBudgetNs, nullptr};
      const RowResult r = runRow(c, env);
      return std::string(reinterpret_cast<const char*>(&r), sizeof r);
    });
    RowResult r;
    if (run.outcome == CapOutcome::kFinished && run.payload.size() == sizeof r) {
      std::memcpy(&r, run.payload.data(), sizeof r);
    } else {
      // dnf: the row counts as its time to the kill, with every ordered
      // pair unresolved.
      const double n = static_cast<double>(c.metrics.concepts);
      r.status = RowStatus::kDnf;
      r.classifyMs = run.wallSeconds * 1e3;
      r.unresolvedPairs = n * n;
      r.workers = static_cast<double>(workerCount());
    }
    // No child outlives its cap: it was reaped (kill(pid, 0) finds nothing)
    // within a second of the cap.
    const bool reaped = ::kill(run.pid, 0) != 0 &&
                        run.wallSeconds < kUnfinishedCapSeconds + 1.0;
    if (!reaped) {
      rep.correct = false;
      std::fprintf(stderr, "bench_e2e: %s outlived its cap\n",
                   c.row.config.name.c_str());
    }
    tally(rep, r.status);
    rows[i].push_back(r);
    rep.rows.push_back(rowJson(c, rows[i], run.wallSeconds));
  }
  const RowField classify = field(&RowResult::classifyMs);
  if (opts.trace)
    rep.metrics = perLayer(rows, 1, LatencyHistogram{}, 1, ReadStats{}, 1, 0);
  else
    rep.metrics = endToEnd(median(setupS), rowSum(rows, 1, classify) / 1e3,
                           rowSum(rows, 1, [](const RowResult& r) {
                             return r.readyMs();
                           }) / 1e3);
  return rep;
}

}  // namespace

std::vector<std::string> workloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.emplace_back(w.name);
  return names;
}

RunReport runWorkload(const RunOptions& opts) {
  for (const Workload& w : workloads()) {
    if (opts.workload != w.name) continue;
    switch (w.kind) {
      case Kind::kClassify: return runClassify(w, opts);
      case Kind::kServe: return runServe(w, opts);
      case Kind::kUnfinished: return runUnfinished(w, opts);
    }
  }
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace bench
