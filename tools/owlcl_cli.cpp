// owlcl — command-line front-end to the library.
//
//   owlcl classify <file.{ofn,obo}> [options]   classify and print taxonomy
//   owlcl metrics  <file.{ofn,obo}>             Table IV/V-style metrics row
//   owlcl sweep    <file.{ofn,obo}> [options]   virtual-time speedup sweep
//   owlcl convert  <file.obo> [out.ofn]         OBO → functional syntax
//
// classify options:
//   --workers=N          worker threads (default 4, at most 256)
//   --cycles=N           random-division cycles (default 2)
//   --no-pruning         disable Algorithm 5 pruning
//   --ordered            ordered (non-symmetric) pair tests
//   --route-el=off|auto|on  hybrid EL/tableau routing (DESIGN.md §13):
//                        saturate the EL sub-ontology first and seed the
//                        P/K store from it; auto routes only when the
//                        ontology is majority-EL (default off)
//   --bit-backend=portable|avx2|auto  compute backend for the P/K
//                        bit-matrix kernels (DESIGN.md §15; default auto =
//                        widest vector backend this CPU supports)
//   --backend=tableau|el   reasoner plug-in (el requires an EL ontology)
//   --shared-cache       share one lock-free sat-verdict cache across all
//                        worker tableaux (tableau backend only)
//   --merge-models       pseudo-model merging fast path for subsumption
//                        tests (tableau backend only)
//   --stats              print aggregate + per-worker reasoner statistics
//   --output=tree|dot|none taxonomy rendering (default tree)
//   --verify             run structural verification on the result
//
// classify fault-tolerance options:
//   --deadline-ms=N      per-reasoner-call deadline (0 = unlimited)
//   --max-retries=N      failed-test retries before giving a pair up (default 3)
//   --budget-ms=N        whole-run watchdog; past it the run degrades (0 = off)
//   --inject-faults=SPEC deterministic fault injection for robustness drills.
//                        SPEC is comma-separated key=value pairs:
//                          seed=N error=R resource=R timeout=R delay-ms=N
//                          sleep-ms=N target=R fail-first=N
//                        (N a non-negative integer, R a rate in [0, 1];
//                        anything else exits 2). delay-ms inflates the
//                        *reported* (virtual) cost of a timeout fault;
//                        sleep-ms adds a real wall-clock sleep (use it to
//                        exercise --budget-ms).
//                        e.g. --inject-faults=seed=7,error=0.1,target=0.05,fail-first=9
//
// classify checkpoint options (crash-safe long runs, DESIGN.md §9):
//   --checkpoint-dir=D   enable checkpointing into directory D (journal +
//                        snapshots; created if missing)
//   --checkpoint-every-rounds=N  snapshot every N epoch barriers (default 1)
//   --fsync-policy=never|record|barrier  journal durability (default barrier)
//   --resume             recover from --checkpoint-dir and continue the run
//                        (committed delta transactions in deltas.wal are
//                        replayed first — classification resumes against
//                        the post-delta ontology)
//   --inject-crash=point=P,after=N  die (_exit 137) at a checkpoint-layer
//                        fault point, for the kill-and-resume drills. P is
//                        torn-write | after-journal | before-rename | at-barrier
//                        or a delta transaction stage: delta-journal |
//                        mid-rerun | pre-commit | mid-rollback;
//                        N is the triggering journal-append / barrier /
//                        rerun-verdict ordinal.
//
// classify incremental options (transactional deltas, DESIGN.md §14):
//   --apply-deltas=F     replay a delta script after classification: each
//                        transaction is journaled, its affected-concept
//                        cone reclassified, and committed (or rolled back
//                        on any failure). Script lines: begin, add <stmt>,
//                        retract <stmt>, commit, abort, # comment. With
//                        --resume, transactions already committed in
//                        deltas.wal are skipped.
// sweep options:
//   --max-workers=N      sweep 1..N on the virtual executor (default 64)
//
// serve — long-lived classification-as-a-service (DESIGN.md §12). Loads
// the ontology, classifies in the background, and answers line-oriented
// JSON queries (protocol in src/serve/protocol.hpp):
//
//   owlcl serve <file> --query-file=F [classify options]   batch mode
//   owlcl serve <file> --port=N       [classify options]   TCP on 127.0.0.1
//
//   --query-file=F       newline-delimited requests (- = stdin, the
//                        default); responses go to stdout in input order
//   --port=N             TCP socket mode; admission sheds under load with
//                        explicit {"error":"overloaded"} responses
//   --query-threads=N    query worker pool size (default 2, at most 256)
//   --queue-cap=N        admission queue bound (default 128)
//   --query-snapshot=off|on  compile each finished generation's taxonomy
//                        into an immutable read-optimized index (interval
//                        labels + extra-ancestor bitsets + precompiled
//                        descendant arrays, DESIGN.md §16); queries then
//                        answer from it at memory speed. Default on; off
//                        is the walk-path ablation. With --stats the serve
//                        exit report includes snapshot build/hit counters.
//   --serve-deadline-ms=N      default per-query deadline (default 1000)
//   --serve-max-deadline-ms=N  clamp on client deadline_ms (default 60000)
//   --max-line-bytes=N   request line cap (default 65536)
//   --inject-serve-faults=SPEC chaos drills on the query path:
//                          query-fault-every=N slow-client-ms=N
//                          crash-after-queries=N
//
// serve also accepts a batched read op — {"op":"batch","queries":[...]}
// with subs/sat/descendants elements — answered against ONE pinned
// generation with one amortized parse/dispatch, and delta transaction
// verbs over the same protocol
// (begin-delta / add-axiom / retract-axiom / commit / abort): a commit
// reclassifies the affected cone on one query worker while the remaining
// workers keep answering from the last committed generation, then swaps
// the new generation in atomically. With --checkpoint-dir the transaction
// is journaled to deltas.wal (crash-safe; `serve --resume` continues from
// the committed post-delta ontology).
//
// serve honours the classify checkpoint options; on SIGTERM/SIGINT it
// finishes in-flight queries, pauses the classifier at its next epoch
// barrier, flushes a final snapshot, and exits 0 — `serve --resume`
// continues exactly there. `classify` installs the same handlers: the run
// is cancelled via its CancellationToken, partial results are printed, a
// final snapshot is flushed when --checkpoint-dir is set, and the exit
// status is 3.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "owlcl.hpp"
#include "taxonomy/verify.hpp"

namespace {

using namespace owlcl;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: owlcl <classify|serve|metrics|sweep|convert> <file> "
               "[options]\n(see the header of tools/owlcl_cli.cpp)\n");
  std::exit(2);
}

bool hasSuffix(const std::string& s, const char* suffix) {
  const std::size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

void load(const std::string& path, TBox& tbox) {
  if (hasSuffix(path, ".obo"))
    parseOboFile(path, tbox);
  else
    parseFunctionalSyntaxFile(path, tbox);
}

// --- graceful-shutdown signal plumbing ---------------------------------------
// The handler only performs async-signal-safe work: atomic stores
// (CancellationToken::cancel, ParallelClassifier::requestStop) and a
// write() to a non-blocking self-pipe that wakes the serve accept loop.

std::atomic<int> gSignal{0};
std::atomic<CancellationToken*> gCancelToken{nullptr};
std::atomic<ParallelClassifier*> gStopClassifier{nullptr};
std::atomic<int> gWakeFd{-1};

extern "C" void handleShutdownSignal(int sig) {
  gSignal.store(sig, std::memory_order_relaxed);
  if (CancellationToken* token = gCancelToken.load(std::memory_order_relaxed))
    token->cancel();
  if (ParallelClassifier* c = gStopClassifier.load(std::memory_order_relaxed))
    c->requestStop();
  const int fd = gWakeFd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

void installShutdownHandlers() {
  struct sigaction sa{};
  sa.sa_handler = handleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked syscalls see EINTR and re-check
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

struct Options {
  std::size_t workers = 4;
  std::size_t cycles = 2;
  bool pruning = true;
  bool symmetric = true;
  ElRouting routeEl = ElRouting::kOff;
  bool verify = false;
  bool sharedCache = false;
  bool mergeModels = false;
  bool stats = false;
  std::string backend = "tableau";
  std::string output = "tree";
  std::size_t maxWorkers = 64;

  // Fault tolerance.
  std::size_t deadlineMs = 0;
  std::size_t maxRetries = 3;
  std::size_t budgetMs = 0;
  FaultPlan faults;

  // Crash-safe checkpointing.
  std::string checkpointDir;
  std::size_t checkpointEveryRounds = 1;
  FsyncPolicy fsyncPolicy = FsyncPolicy::kEveryBarrier;
  bool resume = false;
  CrashPlan crash;

  // Transactional deltas.
  std::string applyDeltas;

  // Serving.
  std::uint16_t port = 0;          // 0 = batch mode
  std::string queryFile = "-";     // "-" = stdin
  std::size_t queryThreads = 2;
  std::size_t queueCap = 128;
  std::size_t serveDeadlineMs = 1000;
  std::size_t serveMaxDeadlineMs = 60'000;
  std::size_t maxLineBytes = 64 * 1024;
  bool querySnapshot = true;
  ServeFaultPlan serveFaults;
};

/// Strict non-negative integer parse for --flag=N values: the whole token
/// must be digits within range — "12abc", "-3", "" and overflow all fail
/// with a clear message instead of the silent-zero atoi behaviour.
std::size_t parseCount(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n < 0) {
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (expected a non-negative "
                 "integer)\n",
                 flag, v);
    std::exit(2);
  }
  return static_cast<std::size_t>(n);
}

/// Ceiling on the OS-thread counts: --workers starts one pool thread per
/// worker and serve --query-threads one std::thread per query worker.
constexpr std::size_t kMaxThreads = 256;

/// parseCount for a thread count: 1..kMaxThreads, checked before any
/// thread starts.
std::size_t parseThreadCount(const char* flag, const char* v) {
  const std::size_t n = parseCount(flag, v);
  if (n == 0 || n > kMaxThreads) {
    std::fprintf(stderr, "%s must be in 1..%zu\n", flag, kMaxThreads);
    std::exit(2);
  }
  return n;
}

/// Strict rate parse for --inject-faults values: the whole token must be a
/// number in [0, 1].
double parseRate(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const double r = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !(r >= 0.0 && r <= 1.0)) {
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (expected a rate in [0, 1])\n",
                 flag, v);
    std::exit(2);
  }
  return r;
}

/// Parses "--inject-faults=seed=7,error=0.1,..." into a FaultPlan.
FaultPlan parseFaultSpec(const char* spec) {
  FaultPlan plan;
  std::string s = spec;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad --inject-faults item: %s\n", item.c_str());
      usage();
    }
    const std::string key = item.substr(0, eq);
    const std::string flag = "--inject-faults " + key;
    const char* val = item.c_str() + eq + 1;
    if (key == "seed")
      plan.seed = parseCount(flag.c_str(), val);
    else if (key == "error")
      plan.errorRate = parseRate(flag.c_str(), val);
    else if (key == "resource")
      plan.resourceRate = parseRate(flag.c_str(), val);
    else if (key == "timeout")
      plan.timeoutRate = parseRate(flag.c_str(), val);
    else if (key == "delay-ms")
      plan.delayNs = parseCount(flag.c_str(), val) * 1'000'000;
    else if (key == "sleep-ms")
      plan.sleepNs = parseCount(flag.c_str(), val) * 1'000'000;
    else if (key == "target")
      plan.targetPairRate = parseRate(flag.c_str(), val);
    else if (key == "fail-first")
      plan.failFirstAttempts = parseCount(flag.c_str(), val);
    else {
      std::fprintf(stderr, "unknown --inject-faults key: %s\n", key.c_str());
      usage();
    }
  }
  return plan;
}

/// Parses "--inject-crash=point=torn-write,after=3" into a CrashPlan.
CrashPlan parseCrashSpec(const char* spec) {
  CrashPlan plan;
  std::string s = spec;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad --inject-crash item: %s\n", item.c_str());
      usage();
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "point") {
      plan.point = parseCrashPoint(val);
      if (plan.point == CrashPoint::kNone) {
        std::fprintf(stderr, "unknown --inject-crash point: %s\n", val.c_str());
        usage();
      }
    } else if (key == "after") {
      plan.after = parseCount("--inject-crash after", val.c_str());
    } else {
      std::fprintf(stderr, "unknown --inject-crash key: %s\n", key.c_str());
      usage();
    }
  }
  if (plan.point == CrashPoint::kNone) {
    std::fprintf(stderr, "--inject-crash needs a point=... item\n");
    usage();
  }
  return plan;
}

/// Parses "--inject-serve-faults=query-fault-every=3,slow-client-ms=5,...".
ServeFaultPlan parseServeFaultSpec(const char* spec) {
  ServeFaultPlan plan;
  std::string s = spec;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad --inject-serve-faults item: %s\n",
                   item.c_str());
      usage();
    }
    const std::string key = item.substr(0, eq);
    const std::size_t val =
        parseCount("--inject-serve-faults", item.c_str() + eq + 1);
    if (key == "query-fault-every")
      plan.queryFaultEvery = val;
    else if (key == "slow-client-ms")
      plan.slowClientNs = static_cast<std::uint64_t>(val) * 1'000'000;
    else if (key == "crash-after-queries")
      plan.crashAfterQueries = val;
    else {
      std::fprintf(stderr, "unknown --inject-serve-faults key: %s\n",
                   key.c_str());
      usage();
    }
  }
  return plan;
}

Options parseOptions(int argc, char** argv, int first) {
  Options o;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&a](const char* key) -> const char* {
      const std::size_t len = std::strlen(key);
      return a.compare(0, len, key) == 0 ? a.c_str() + len : nullptr;
    };
    if (const char* v = value("--workers=")) {
      o.workers = parseThreadCount("--workers", v);
    } else if (const char* v2 = value("--cycles=")) {
      o.cycles = parseCount("--cycles", v2);
    } else if (a == "--no-pruning") {
      o.pruning = false;
    } else if (a == "--ordered") {
      o.symmetric = false;
    } else if (const char* vr = value("--route-el=")) {
      const std::string s = vr;
      if (s == "off")
        o.routeEl = ElRouting::kOff;
      else if (s == "auto")
        o.routeEl = ElRouting::kAuto;
      else if (s == "on")
        o.routeEl = ElRouting::kOn;
      else {
        std::fprintf(stderr, "unknown --route-el: %s\n", s.c_str());
        usage();
      }
    } else if (const char* vb = value("--bit-backend=")) {
      // Installed process-wide at parse time, before any matrix exists;
      // unknown names and backends this CPU cannot run are rejected
      // loudly, matching the numeric-flag policy.
      std::string err;
      if (!setActiveBitKernels(vb, &err)) {
        std::fprintf(stderr, "--bit-backend: %s\n", err.c_str());
        usage();
      }
    } else if (a == "--verify") {
      o.verify = true;
    } else if (a == "--shared-cache") {
      o.sharedCache = true;
    } else if (a == "--merge-models") {
      o.mergeModels = true;
    } else if (a == "--stats") {
      o.stats = true;
    } else if (const char* v4 = value("--backend=")) {
      o.backend = v4;
    } else if (const char* v5 = value("--output=")) {
      o.output = v5;
      if (o.output != "tree" && o.output != "dot" && o.output != "none") {
        std::fprintf(stderr, "unknown --output: %s\n", v5);
        usage();
      }
    } else if (const char* v6 = value("--max-workers=")) {
      o.maxWorkers = parseCount("--max-workers", v6);
    } else if (const char* v7 = value("--deadline-ms=")) {
      o.deadlineMs = parseCount("--deadline-ms", v7);
    } else if (const char* v8 = value("--max-retries=")) {
      o.maxRetries = parseCount("--max-retries", v8);
    } else if (const char* v9 = value("--budget-ms=")) {
      o.budgetMs = parseCount("--budget-ms", v9);
    } else if (const char* v10 = value("--inject-faults=")) {
      o.faults = parseFaultSpec(v10);
    } else if (const char* v11 = value("--checkpoint-dir=")) {
      o.checkpointDir = v11;
    } else if (const char* v12 = value("--checkpoint-every-rounds=")) {
      o.checkpointEveryRounds = parseCount("--checkpoint-every-rounds", v12);
      if (o.checkpointEveryRounds == 0) {
        std::fprintf(stderr, "--checkpoint-every-rounds must be >= 1\n");
        std::exit(2);
      }
    } else if (const char* v13 = value("--fsync-policy=")) {
      const std::string s = v13;
      if (s == "never")
        o.fsyncPolicy = FsyncPolicy::kNever;
      else if (s == "record")
        o.fsyncPolicy = FsyncPolicy::kEveryRecord;
      else if (s == "barrier")
        o.fsyncPolicy = FsyncPolicy::kEveryBarrier;
      else {
        std::fprintf(stderr, "unknown --fsync-policy: %s\n", s.c_str());
        usage();
      }
    } else if (a == "--resume") {
      o.resume = true;
    } else if (const char* vd = value("--apply-deltas=")) {
      o.applyDeltas = vd;
    } else if (const char* v14 = value("--inject-crash=")) {
      o.crash = parseCrashSpec(v14);
    } else if (const char* v15 = value("--port=")) {
      const std::size_t p = parseCount("--port", v15);
      if (p == 0 || p > 65535) {
        std::fprintf(stderr, "--port must be in 1..65535\n");
        std::exit(2);
      }
      o.port = static_cast<std::uint16_t>(p);
    } else if (const char* v16 = value("--query-file=")) {
      o.queryFile = v16;
    } else if (const char* v17 = value("--query-threads=")) {
      o.queryThreads = parseThreadCount("--query-threads", v17);
    } else if (const char* v18 = value("--queue-cap=")) {
      o.queueCap = parseCount("--queue-cap", v18);
      if (o.queueCap == 0) usage();
    } else if (const char* v19 = value("--serve-deadline-ms=")) {
      o.serveDeadlineMs = parseCount("--serve-deadline-ms", v19);
    } else if (const char* v20 = value("--serve-max-deadline-ms=")) {
      o.serveMaxDeadlineMs = parseCount("--serve-max-deadline-ms", v20);
    } else if (const char* v21 = value("--max-line-bytes=")) {
      o.maxLineBytes = parseCount("--max-line-bytes", v21);
      if (o.maxLineBytes == 0) usage();
    } else if (const char* v22 = value("--inject-serve-faults=")) {
      o.serveFaults = parseServeFaultSpec(v22);
    } else if (const char* v23 = value("--query-snapshot=")) {
      const std::string s = v23;
      if (s == "on")
        o.querySnapshot = true;
      else if (s == "off")
        o.querySnapshot = false;
      else {
        std::fprintf(stderr, "unknown --query-snapshot: %s\n", s.c_str());
        usage();
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage();
    }
  }
  if (o.maxWorkers == 0) usage();
  if (o.resume && o.checkpointDir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    std::exit(2);
  }
  if (o.crash.enabled() && o.checkpointDir.empty()) {
    std::fprintf(stderr, "--inject-crash requires --checkpoint-dir\n");
    std::exit(2);
  }
  return o;
}

std::unique_ptr<ReasonerPlugin> makeBackend(const Options& o, TBox& tbox) {
  if (o.backend == "el") {
    if (!isElTBox(tbox)) {
      std::fprintf(stderr,
                   "--backend=el requires an EL ontology (this one is %s)\n",
                   computeMetrics(tbox).expressivity.c_str());
      std::exit(1);
    }
    if (o.sharedCache || o.mergeModels)
      std::fprintf(stderr,
                   "note: --shared-cache/--merge-models only apply to "
                   "--backend=tableau; ignored\n");
    tbox.freeze();
    return std::make_unique<ElPlugin>(tbox);
  }
  if (o.backend == "tableau") {
    TableauReasonerConfig tc;
    tc.sharedCache = o.sharedCache;
    tc.mergeModels = o.mergeModels;
    return std::make_unique<TableauReasoner>(tbox, tc);
  }
  std::fprintf(stderr, "unknown backend: %s\n", o.backend.c_str());
  usage();
}

/// Owns one generation's plug-in decorator stack (backend →
/// [FaultInjector] → [GuardedPlugin]); `head` answers for the chain.
struct PluginChain {
  std::unique_ptr<ReasonerPlugin> backend;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<GuardedPlugin> guarded;
  ReasonerPlugin* head = nullptr;
};

std::shared_ptr<PluginChain> buildChain(const Options& o, TBox& tbox,
                                        CancellationToken* cancel) {
  auto chain = std::make_shared<PluginChain>();
  chain->backend = makeBackend(o, tbox);
  chain->head = chain->backend.get();
  if (o.faults.enabled()) {
    chain->injector = std::make_unique<FaultInjector>(*chain->head, o.faults);
    chain->head = chain->injector.get();
  }
  if (o.deadlineMs > 0 || chain->injector != nullptr) {
    GuardConfig gc;
    gc.deadlineNs = static_cast<std::uint64_t>(o.deadlineMs) * 1'000'000;
    chain->guarded =
        std::make_unique<GuardedPlugin>(*chain->head, gc, cancel);
    chain->head = chain->guarded.get();
  }
  return chain;
}

/// PluginFactory for delta-generation cone reruns: same decorator stack as
/// the initial run, kept alive behind an aliasing shared_ptr. Throws (the
/// commit path catches and rolls back) instead of exiting the process.
PluginFactory makeChainFactory(const Options& o, CancellationToken* cancel) {
  return [&o, cancel](const TBox& tbox) -> std::shared_ptr<ReasonerPlugin> {
    if (o.backend == "el" && !isElTBox(tbox))
      throw std::runtime_error(
          "delta leaves the EL fragment; --backend=el cannot reclassify it");
    // The commit path froze the TBox before calling the factory, so the
    // backend's own freeze is a no-op; the non-const ref is an API wrinkle.
    auto chain = buildChain(o, const_cast<TBox&>(tbox), cancel);
    return std::shared_ptr<ReasonerPlugin>(chain, chain->head);
  };
}

/// Configures classification checkpointing for classify/serve: fresh runs
/// wipe the directory and snapshot from the genesis barrier on; --resume
/// recovers snapshot+journal state for resumeClassify. The content hash
/// ties the checkpoint to this exact ontology (and the seed to this exact
/// shuffle sequence).
struct CheckpointSetup {
  std::unique_ptr<CrashInjector> crashInjector;
  std::unique_ptr<CheckpointManager> manager;
  ClassifierCheckpoint resumeFrom;
  bool haveResume = false;
  // Delta-transaction state (populated when --checkpoint-dir is set).
  std::uint64_t baseHash = 0;
  DeltaRecovery recovery;               // zero transactions when no deltas.wal
  std::unique_ptr<TBox> effectiveTbox;  // non-null after recovered commits
};

/// Delta-aware ontology recovery, run BEFORE the backend is built: when
/// resuming with a deltas.wal present, every committed transaction is
/// replayed over the base ontology's statement list (hash-checked against
/// its commit record), so classification and the checkpoint anchor
/// continue from the committed post-delta ontology — never a hybrid.
bool recoverDeltaOntology(const Options& o, const TBox& baseTbox,
                          CheckpointSetup* out) {
  if (o.checkpointDir.empty()) return true;
  out->baseHash = ontologyContentHash(baseTbox);
  out->recovery.statements = statementsFromTBox(baseTbox);
  out->recovery.finalHash = out->baseHash;
  if (!o.resume) return true;
  std::string err;
  DeltaRecovery rec;
  if (!recoverDeltaState(DeltaJournalSink::walPath(o.checkpointDir),
                         out->baseHash, out->recovery.statements, &rec,
                         &err)) {
    std::fprintf(stderr, "delta recovery failed: %s\n", err.c_str());
    return false;
  }
  out->recovery = std::move(rec);
  if (out->recovery.committedTxns > 0) {
    out->effectiveTbox = std::make_unique<TBox>();
    if (!buildTBoxFromStatements(out->recovery.statements, *out->effectiveTbox,
                                 &err)) {
      std::fprintf(stderr, "delta recovery failed: %s\n", err.c_str());
      return false;
    }
    std::fprintf(stderr,
                 "recovered %zu committed delta transaction(s)%s\n",
                 out->recovery.committedTxns,
                 out->recovery.hadOpenTxn
                     ? " (one open transaction rolled back)"
                     : "");
  } else if (out->recovery.hadOpenTxn) {
    std::fprintf(stderr, "open delta transaction rolled back by recovery\n");
  }
  return true;
}

bool setupCheckpoints(const Options& o, const TBox& tbox,
                      ClassifierConfig& config, CheckpointSetup* out) {
  if (o.checkpointDir.empty()) return true;
  CheckpointConfig cc;
  cc.dir = o.checkpointDir;
  cc.everyRounds = o.checkpointEveryRounds;
  cc.fsyncPolicy = o.fsyncPolicy;
  // Anchor at the COMMITTED ontology: with recovered deltas that is the
  // post-delta hash, otherwise the loaded ontology's own.
  const std::uint64_t anchor = out->effectiveTbox != nullptr
                                   ? out->recovery.finalHash
                                   : ontologyContentHash(tbox);
  out->manager = std::make_unique<CheckpointManager>(cc, anchor, config.seed);
  if (o.crash.enabled()) {
    out->crashInjector = std::make_unique<CrashInjector>(o.crash);
    out->manager->setCrashInjector(out->crashInjector.get());
  }
  std::string err;
  if (o.resume) {
    if (!out->manager->recover(&out->resumeFrom, &err)) {
      // A crash between the durable delta-commit record and the main-area
      // re-anchor leaves the main area one generation behind; the final
      // rerun snapshot in delta-rerun/ covers exactly that window.
      bool rescued = false;
      if (out->effectiveTbox != nullptr) {
        CheckpointConfig rc = cc;
        rc.dir = DeltaJournalSink::rerunDir(o.checkpointDir);
        CheckpointManager rerun(rc, anchor, config.seed);
        std::string rerunErr;
        if (rerun.recover(&out->resumeFrom, &rerunErr)) {
          std::string anchorErr;
          if (out->manager->beginFresh(&anchorErr) &&
              out->manager->snapshotFinal(out->resumeFrom, &anchorErr)) {
            rescued = true;
            std::fprintf(stderr,
                         "main checkpoint re-anchored from delta-rerun/\n");
          } else {
            std::fprintf(stderr, "re-anchor failed: %s\n", anchorErr.c_str());
          }
        }
      }
      if (!rescued) {
        std::fprintf(stderr, "resume failed: %s\n", err.c_str());
        return false;
      }
    }
    out->haveResume = true;
    std::fprintf(
        stderr, "resuming from epoch %llu (%llu cycles, %llu rounds done)\n",
        static_cast<unsigned long long>(out->resumeFrom.progress.epoch),
        static_cast<unsigned long long>(
            out->resumeFrom.progress.completedCycles),
        static_cast<unsigned long long>(
            out->resumeFrom.progress.completedRounds));
  } else if (!out->manager->beginFresh(&err)) {
    std::fprintf(stderr, "checkpointing unavailable: %s\n", err.c_str());
    return false;
  }
  config.checkpoint = out->manager.get();
  return true;
}

// --- delta script replay (--apply-deltas) ------------------------------------

/// One transaction block of a delta script.
struct DeltaBlock {
  std::vector<StagedOp> ops;
  bool commit = true;  // false = scripted abort
};

bool parseDeltaScript(const std::string& path, std::vector<DeltaBlock>* out,
                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read delta script " + path;
    return false;
  }
  std::vector<DeltaBlock> blocks;
  DeltaBlock cur;
  bool open = false;
  std::string line;
  std::size_t lineNo = 0;
  auto failAt = [&](const std::string& why) {
    *error = path + ":" + std::to_string(lineNo) + ": " + why;
    return false;
  };
  while (std::getline(in, line)) {
    ++lineNo;
    const std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const std::size_t e = line.find_last_not_of(" \t\r");
    const std::string t = line.substr(b, e - b + 1);
    if (t[0] == '#') continue;
    if (t == "begin") {
      if (open) return failAt("nested begin");
      cur = DeltaBlock{};
      open = true;
    } else if (t.rfind("add ", 0) == 0) {
      if (!open) return failAt("add outside a transaction");
      cur.ops.push_back({true, t.substr(4)});
    } else if (t.rfind("retract ", 0) == 0) {
      if (!open) return failAt("retract outside a transaction");
      cur.ops.push_back({false, t.substr(8)});
    } else if (t == "commit" || t == "abort") {
      if (!open) return failAt(t + " outside a transaction");
      cur.commit = (t == "commit");
      blocks.push_back(std::move(cur));
      open = false;
    } else {
      return failAt("unknown delta verb: " + t);
    }
  }
  if (open) return failAt("unterminated transaction (missing commit/abort)");
  *out = std::move(blocks);
  return true;
}

/// Replays parsed blocks through the reclassifier. `skipCommitted` blocks
/// ending in `commit` are skipped first (they were already applied from
/// deltas.wal by recovery; scripted-abort blocks in between were no-ops).
int replayDeltaBlocks(DeltaReclassifier& delta,
                      const std::vector<DeltaBlock>& blocks,
                      std::size_t skipCommitted) {
  std::size_t commitsSeen = 0;
  for (const DeltaBlock& blk : blocks) {
    if (commitsSeen < skipCommitted) {
      if (blk.commit) ++commitsSeen;
      continue;
    }
    std::string err;
    if (!delta.beginTxn(&err)) {
      std::fprintf(stderr, "delta begin failed: %s\n", err.c_str());
      return 1;
    }
    const std::uint32_t txid = delta.txnId();
    for (const StagedOp& op : blk.ops) {
      const bool ok = op.isAdd ? delta.stageAdd(op.stmt, &err)
                               : delta.stageRetract(op.stmt, &err);
      if (!ok) {
        std::fprintf(stderr, "delta txn %u: cannot stage '%s': %s\n", txid,
                     op.stmt.c_str(), err.c_str());
        delta.abortTxn(nullptr);
        return 1;
      }
    }
    if (blk.commit) {
      DeltaCommitInfo info;
      if (!delta.commitTxn(&info, &err)) {
        std::fprintf(stderr, "delta txn %u ROLLED BACK: %s\n", txid,
                     err.c_str());
        return 1;
      }
      std::fprintf(
          stderr,
          "delta txn %u committed: cone %zu/%zu concept(s)%s, "
          "%llu sat + %llu subsumption tests, epoch %llu\n",
          info.txid, info.coneSize, info.conceptCount,
          info.fullCone ? " (full)" : "",
          static_cast<unsigned long long>(info.satTests),
          static_cast<unsigned long long>(info.subsumptionTests),
          static_cast<unsigned long long>(info.deltaEpoch));
    } else {
      if (!delta.abortTxn(&err)) {
        std::fprintf(stderr, "delta txn %u abort failed: %s\n", txid,
                     err.c_str());
        return 1;
      }
      std::fprintf(stderr, "delta txn %u aborted (scripted)\n", txid);
    }
  }
  return 0;
}

ClassifierConfig buildClassifierConfig(const Options& o) {
  ClassifierConfig config;
  config.randomCycles = o.cycles;
  config.enablePruning = o.pruning;
  config.symmetricTests = o.symmetric;
  config.routeEl = o.routeEl;
  config.maxRetries = o.maxRetries;
  config.watchdogBudgetNs = static_cast<std::uint64_t>(o.budgetMs) * 1'000'000;
  return config;
}

int cmdClassify(const std::string& path, const Options& o) {
  TBox baseTbox;
  load(path, baseTbox);

  CheckpointSetup ck;
  if (!recoverDeltaOntology(o, baseTbox, &ck)) return 1;
  // Committed deltas recovered from deltas.wal replace the loaded ontology.
  TBox& tbox = ck.effectiveTbox != nullptr ? *ck.effectiveTbox : baseTbox;

  ClassifierConfig config = buildClassifierConfig(o);

  Stopwatch sw;
  ThreadPool pool(o.workers);
  RealExecutor exec(pool);

  // Plug-in chain: backend → [FaultInjector] → [GuardedPlugin] → classifier.
  auto chain = buildChain(o, tbox, &exec.cancellation());
  ReasonerPlugin* plugin = chain->head;
  GuardedPlugin* guarded = chain->guarded.get();

  if (!setupCheckpoints(o, tbox, config, &ck)) return 1;
  CheckpointManager* checkpoints = ck.manager.get();

  // SIGTERM/SIGINT cancel the run through its token: workers stop picking
  // up new tests, partial results are still printed, and a final snapshot
  // is flushed below when checkpointing is on. Exit status 3.
  gCancelToken.store(&exec.cancellation(), std::memory_order_release);
  installShutdownHandlers();

  ParallelClassifier classifier(tbox, *plugin, config);
  const ClassificationResult r =
      ck.haveResume ? classifier.resumeClassify(exec, ck.resumeFrom)
                    : classifier.classify(exec);

  // With --apply-deltas the deliverable taxonomy is the post-delta one,
  // printed after the replay below.
  if (o.applyDeltas.empty()) {
    if (o.output == "dot")
      r.taxonomy.writeDot(std::cout, tbox);
    else if (o.output == "tree")
      r.taxonomy.print(std::cout, tbox);
  }

  std::fprintf(stderr,
               "classified %zu concepts in %.1f ms (%zu workers, backend %s)\n"
               "  %llu sat + %llu subsumption tests, %llu pruned, "
               "%zu taxonomy nodes, depth %zu\n",
               tbox.conceptCount(), sw.elapsedMs(), o.workers,
               o.backend.c_str(), static_cast<unsigned long long>(r.satTests),
               static_cast<unsigned long long>(r.subsumptionTests),
               static_cast<unsigned long long>(r.prunedWithoutTest),
               r.taxonomy.nodeCount(), r.taxonomy.depth());
  if (r.crossCacheHits > 0 || r.mergeRefuted > 0)
    std::fprintf(stderr,
                 "  avoidance: %llu cross-cache hits, %llu merge-refuted "
                 "(%llu by the row sweep)\n",
                 static_cast<unsigned long long>(r.crossCacheHits),
                 static_cast<unsigned long long>(r.mergeRefuted),
                 static_cast<unsigned long long>(r.sweepRefuted));
  if (r.routedConcepts > 0 || r.saturationSeeded > 0 ||
      r.testsAvoidedByRouting > 0)
    std::fprintf(stderr,
                 "  routing: %llu concepts routed to EL saturation, "
                 "%llu pairs seeded, %llu tests avoided\n",
                 static_cast<unsigned long long>(r.routedConcepts),
                 static_cast<unsigned long long>(r.saturationSeeded),
                 static_cast<unsigned long long>(r.testsAvoidedByRouting));

  if (o.stats) {
    std::fprintf(stderr, "  bit kernels: %s backend (cpu: %s)\n",
                 activeBitKernels().name(), cpuFeatureString().c_str());
    const ReasonerStats agg = plugin->reasonerStats();
    std::fprintf(stderr,
                 "  reasoner: %llu sat calls, %llu cache hits, %llu clashes, "
                 "%llu cross-cache hits, %llu merge-refuted\n",
                 static_cast<unsigned long long>(agg.satCalls),
                 static_cast<unsigned long long>(agg.cacheHits),
                 static_cast<unsigned long long>(agg.clashes),
                 static_cast<unsigned long long>(agg.crossCacheHits),
                 static_cast<unsigned long long>(agg.mergeRefuted));
    if (agg.cacheInserts > 0 || agg.cacheRejectedFull > 0 ||
        agg.cacheRejectedLong > 0)
      std::fprintf(stderr,
                   "  shared cache: %llu inserts, %llu rejected "
                   "(probe window full), %llu rejected (label too long)\n",
                   static_cast<unsigned long long>(agg.cacheInserts),
                   static_cast<unsigned long long>(agg.cacheRejectedFull),
                   static_cast<unsigned long long>(agg.cacheRejectedLong));
    const std::vector<ReasonerStats> perWorker =
        plugin->perWorkerReasonerStats();
    for (std::size_t i = 0; i < perWorker.size(); ++i)
      std::fprintf(stderr,
                   "    worker %zu: %llu sat calls, %llu cache hits, "
                   "%llu clashes, %llu cross-cache hits\n",
                   i, static_cast<unsigned long long>(perWorker[i].satCalls),
                   static_cast<unsigned long long>(perWorker[i].cacheHits),
                   static_cast<unsigned long long>(perWorker[i].clashes),
                   static_cast<unsigned long long>(perWorker[i].crossCacheHits));
  }

  if (r.failedTests > 0 || r.cancelled) {
    std::fprintf(stderr,
                 "  fault report: %llu failed, %llu retried calls%s\n",
                 static_cast<unsigned long long>(r.failedTests),
                 static_cast<unsigned long long>(r.retriedTests),
                 r.cancelled ? " — RUN CANCELLED BY WATCHDOG" : "");
    if (guarded != nullptr) {
      const GuardStats gs = guarded->stats();
      std::fprintf(stderr,
                   "  guard: %llu calls, %llu timeouts, %llu errors, "
                   "%llu resource, %llu cancelled\n",
                   static_cast<unsigned long long>(gs.calls),
                   static_cast<unsigned long long>(gs.timeouts),
                   static_cast<unsigned long long>(gs.errors),
                   static_cast<unsigned long long>(gs.resourceFailures),
                   static_cast<unsigned long long>(gs.cancelledCalls));
    }
  }
  if (!r.complete()) {
    std::fprintf(stderr,
                 "  PARTIAL taxonomy: %zu unresolved pair(s), %zu unresolved "
                 "concept(s)\n",
                 r.unresolvedPairs.size(), r.unresolvedConcepts.size());
    const std::size_t shown = std::min<std::size_t>(r.unresolvedPairs.size(), 20);
    for (std::size_t i = 0; i < shown; ++i)
      std::fprintf(stderr, "    unknown: %s ⊑ %s ?\n",
                   tbox.conceptName(r.unresolvedPairs[i].second).c_str(),
                   tbox.conceptName(r.unresolvedPairs[i].first).c_str());
    if (r.unresolvedPairs.size() > shown)
      std::fprintf(stderr, "    ... %zu more\n",
                   r.unresolvedPairs.size() - shown);
    for (ConceptId c : r.unresolvedConcepts)
      std::fprintf(stderr, "    sat status unknown: %s\n",
                   tbox.conceptName(c).c_str());
  }

  if (checkpoints != nullptr) {
    std::fprintf(stderr, "  checkpoint: %llu journal records, %llu snapshots",
                 static_cast<unsigned long long>(checkpoints->journalAppends()),
                 static_cast<unsigned long long>(
                     checkpoints->snapshotsWritten()));
    // A full disk must not turn --checkpoint-dir into a silent no-op.
    if (checkpoints->failedJournalAppends() > 0)
      std::fprintf(stderr, ", %llu journal appends FAILED",
                   static_cast<unsigned long long>(
                       checkpoints->failedJournalAppends()));
    if (!checkpoints->lastError().empty())
      std::fprintf(stderr, ", last error: %s",
                   checkpoints->lastError().c_str());
    std::fprintf(stderr, "\n");
  }

  // --- transactional delta replay (--apply-deltas) ---------------------------
  int deltaStatus = 0;
  std::unique_ptr<DeltaReclassifier> delta;
  std::unique_ptr<DeltaJournalSink> sink;
  if (!o.applyDeltas.empty()) {
    std::vector<DeltaBlock> blocks;
    std::string err;
    if (!parseDeltaScript(o.applyDeltas, &blocks, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    delta = std::make_unique<DeltaReclassifier>(
        exec, makeChainFactory(o, &exec.cancellation()), config);
    // Generation 0 lives on this stack frame; no-op deleters express the
    // non-owning adoption.
    delta->adoptInitial(
        std::shared_ptr<const TBox>(&tbox, [](const TBox*) {}),
        std::shared_ptr<ReasonerPlugin>(plugin, [](ReasonerPlugin*) {}),
        std::shared_ptr<ParallelClassifier>(&classifier,
                                            [](ParallelClassifier*) {}),
        std::shared_ptr<const ClassificationResult>(
            &r, [](const ClassificationResult*) {}));
    if (ck.manager != nullptr) {
      CheckpointConfig cc;
      cc.dir = o.checkpointDir;
      cc.everyRounds = o.checkpointEveryRounds;
      cc.fsyncPolicy = o.fsyncPolicy;
      sink = std::make_unique<DeltaJournalSink>(cc, config.seed);
      if (ck.crashInjector != nullptr)
        sink->setCrashInjector(ck.crashInjector.get());
      if (!sink->open(ck.baseHash, std::move(ck.manager),
                      /*truncateWal=*/!o.resume, &err)) {
        std::fprintf(stderr, "delta journal: %s\n", err.c_str());
        return 1;
      }
      checkpoints = nullptr;  // moved into the sink; commits may replace it
      delta->setSink(sink.get());
      delta->setNextTxnId(ck.recovery.nextTxnId);
    }
    deltaStatus =
        replayDeltaBlocks(*delta, blocks,
                          o.resume ? ck.recovery.committedTxns : 0);
  }
  gCancelToken.store(nullptr, std::memory_order_release);

  // Post-delta deliverables come from the FINAL committed generation.
  DeltaGeneration finalGen;
  if (delta != nullptr) finalGen = delta->generation();
  const ClassificationResult& finalResult =
      finalGen.result != nullptr ? *finalGen.result : r;
  const TBox& finalTbox = finalGen.tbox != nullptr ? *finalGen.tbox : tbox;
  if (!o.applyDeltas.empty()) {
    if (o.output == "dot")
      finalResult.taxonomy.writeDot(std::cout, finalTbox);
    else if (o.output == "tree")
      finalResult.taxonomy.print(std::cout, finalTbox);
  }

  if (o.verify) {
    const TaxonomyIssues issues = verifyStructure(finalResult.taxonomy);
    std::fprintf(stderr, "structural verification: %s\n",
                 issues.summary().c_str());
    if (!issues.ok()) return 1;
  }

  if (const int sig = gSignal.load(std::memory_order_acquire); sig != 0) {
    std::string err;
    bool attempted = false, flushed = false;
    if (sink != nullptr) {
      attempted = true;
      flushed = sink->flushFinal(finalGen.classifier != nullptr
                                     ? finalGen.classifier->captureCheckpoint()
                                     : classifier.captureCheckpoint(),
                                 &err);
    } else if (checkpoints != nullptr) {
      attempted = true;
      flushed =
          checkpoints->snapshotFinal(classifier.captureCheckpoint(), &err);
    }
    if (attempted) {
      if (flushed)
        std::fprintf(stderr, "  final checkpoint flushed to %s\n",
                     o.checkpointDir.c_str());
      else
        std::fprintf(stderr, "  final checkpoint flush FAILED: %s\n",
                     err.c_str());
    }
    std::fprintf(stderr,
                 "interrupted by signal %d — partial results above\n", sig);
    return 3;
  }
  return deltaStatus;
}

int cmdServe(const std::string& path, const Options& o) {
  TBox baseTbox;
  load(path, baseTbox);

  CheckpointSetup ck;
  if (!recoverDeltaOntology(o, baseTbox, &ck)) return 1;
  // Committed deltas recovered from deltas.wal replace the loaded ontology.
  TBox& tbox = ck.effectiveTbox != nullptr ? *ck.effectiveTbox : baseTbox;

  ClassifierConfig config = buildClassifierConfig(o);

  ThreadPool pool(o.workers);
  RealExecutor exec(pool);

  // Plug-in chain for the BACKGROUND run only (faults, guard). Direct
  // per-query fallback calls go to the raw backend: a query's budget is
  // its own deadline, and serve has its own fault plan — classification
  // fault schedules must not leak nondeterminism into query answers.
  auto chain = buildChain(o, tbox, &exec.cancellation());
  ReasonerPlugin* plugin = chain->head;

  if (!setupCheckpoints(o, tbox, config, &ck)) return 1;

  ParallelClassifier classifier(tbox, *plugin, config);

  ServerConfig sc;
  sc.queryThreads = o.queryThreads;
  sc.queueCapacity = o.queueCap;
  sc.maxLineBytes = o.maxLineBytes;
  sc.engine.defaultDeadlineMs = o.serveDeadlineMs;
  sc.engine.maxDeadlineMs = o.serveMaxDeadlineMs;
  sc.querySnapshots = o.querySnapshot;
  sc.faults = o.serveFaults;
  Server server(tbox, classifier, *chain->backend, sc);

  // Delta transaction verbs: always available over the protocol, durable
  // when checkpointing is on. Generation 0 is adopted non-owning (it lives
  // on this stack frame); its result arrives via the server's classify
  // thread once the background run finishes.
  DeltaReclassifier delta(exec, makeChainFactory(o, &exec.cancellation()),
                          config);
  delta.setBuildSnapshots(o.querySnapshot);
  delta.adoptInitial(
      std::shared_ptr<const TBox>(&tbox, [](const TBox*) {}),
      std::shared_ptr<ReasonerPlugin>(plugin, [](ReasonerPlugin*) {}),
      std::shared_ptr<ParallelClassifier>(&classifier,
                                          [](ParallelClassifier*) {}),
      nullptr);
  std::unique_ptr<DeltaJournalSink> sink;
  if (ck.manager != nullptr) {
    CheckpointConfig cc;
    cc.dir = o.checkpointDir;
    cc.everyRounds = o.checkpointEveryRounds;
    cc.fsyncPolicy = o.fsyncPolicy;
    sink = std::make_unique<DeltaJournalSink>(cc, config.seed);
    if (ck.crashInjector != nullptr)
      sink->setCrashInjector(ck.crashInjector.get());
    std::string err;
    if (!sink->open(ck.baseHash, std::move(ck.manager),
                    /*truncateWal=*/!o.resume, &err)) {
      std::fprintf(stderr, "delta journal: %s\n", err.c_str());
      return 1;
    }
    delta.setSink(sink.get());
    delta.setNextTxnId(ck.recovery.nextTxnId);
  }
  server.setDeltaReclassifier(&delta);

  // SIGTERM/SIGINT: pause the classifier at its next epoch barrier and
  // wake the socket accept loop through the self-pipe; in-flight queries
  // still finish, a final snapshot is flushed, and we exit 0.
  int wakePipe[2] = {-1, -1};
  if (::pipe(wakePipe) != 0) {
    std::fprintf(stderr, "cannot create shutdown pipe\n");
    return 1;
  }
  ::fcntl(wakePipe[1], F_SETFL, O_NONBLOCK);
  gStopClassifier.store(&classifier, std::memory_order_release);
  gWakeFd.store(wakePipe[1], std::memory_order_release);
  installShutdownHandlers();

  server.start([&classifier, &exec, &ck] {
    return ck.haveResume ? classifier.resumeClassify(exec, ck.resumeFrom)
                         : classifier.classify(exec);
  });

  int status = 0;
  if (o.port != 0) {
    std::fprintf(stderr, "serving on 127.0.0.1:%u (%zu query threads, "
                         "queue cap %zu)\n",
                 static_cast<unsigned>(o.port), o.queryThreads, o.queueCap);
    std::string err;
    if (!server.runSocket(o.port, wakePipe[0], &err)) {
      std::fprintf(stderr, "serve: %s\n", err.c_str());
      status = 1;
    }
  } else {
    std::ifstream fileIn;
    std::istream* in = &std::cin;
    if (o.queryFile != "-") {
      fileIn.open(o.queryFile);
      if (!fileIn) {
        std::fprintf(stderr, "cannot read query file %s\n",
                     o.queryFile.c_str());
        status = 1;
      } else {
        in = &fileIn;
      }
    }
    if (status == 0) server.runBatch(*in, std::cout);
  }

  gWakeFd.store(-1, std::memory_order_release);
  gStopClassifier.store(nullptr, std::memory_order_release);
  server.drain();
  ::close(wakePipe[0]);
  ::close(wakePipe[1]);

  // A transaction still open after drain (the client — or a SIGTERM mid-
  // batch — never resolved it) is aborted deterministically, journaled,
  // BEFORE the final flush: `serve --resume` then replays the abort
  // instead of finding an open transaction.
  if (delta.txnOpen()) {
    std::string err;
    if (delta.abortTxn(&err))
      std::fprintf(stderr, "open delta transaction aborted on shutdown\n");
    else
      std::fprintf(stderr, "delta abort on shutdown FAILED: %s\n",
                   err.c_str());
  }

  if (sink != nullptr) {
    // Flush through the sink: commits may have re-anchored the main
    // checkpoint area at a later generation since ck.manager was created.
    std::string err;
    if (sink->flushFinal(server.captureCheckpoint(), &err))
      std::fprintf(stderr, "final checkpoint flushed to %s\n",
                   o.checkpointDir.c_str());
    else
      std::fprintf(stderr, "final checkpoint flush FAILED: %s\n", err.c_str());
  }

  const ClassificationResult* r = server.result();
  const char* state = "unknown";
  if (r != nullptr)
    state = r->paused ? "paused" : (r->cancelled ? "cancelled" : "done");
  std::fprintf(stderr,
               "serve: %llu served, %llu shed; classification %s "
               "(epoch %zu, %zu possible pairs remaining)\n",
               static_cast<unsigned long long>(server.served()),
               static_cast<unsigned long long>(server.shedCount()), state,
               classifier.currentEpoch(), classifier.remainingPossible());

  if (o.stats) {
    const QueryEngineStats qs = server.engineStats();
    std::fprintf(stderr,
                 "serve stats: snapshot_answers=%llu walk_answers=%llu "
                 "interval_hits=%llu bitset_probes=%llu batch_lines=%llu "
                 "batched_queries=%llu\n",
                 static_cast<unsigned long long>(qs.snapshotAnswers),
                 static_cast<unsigned long long>(qs.walkAnswers),
                 static_cast<unsigned long long>(qs.intervalHits),
                 static_cast<unsigned long long>(qs.bitsetProbes),
                 static_cast<unsigned long long>(qs.batchLines),
                 static_cast<unsigned long long>(qs.batchedQueries));
    const auto view = server.engineView();
    if (view->snapshot != nullptr) {
      const TaxonomySnapshot::BuildStats& bs = view->snapshot->stats();
      std::fprintf(
          stderr,
          "snapshot stats: generation=%llu build_ms=%.3f compiled_bytes=%zu "
          "nodes=%zu concepts=%zu tree_edges=%zu non_tree_edges=%zu "
          "extra_words=%zu descendant_ids=%zu\n",
          static_cast<unsigned long long>(bs.generation),
          static_cast<double>(bs.buildNs) / 1e6, bs.compiledBytes, bs.nodes,
          bs.concepts, bs.treeEdges, bs.nonTreeEdges, bs.extraWords,
          bs.descendantIds);
    } else {
      std::fprintf(stderr, "snapshot stats: none (off, degraded, or not yet "
                           "built)\n");
    }
  }
  return status;
}

int cmdMetrics(const std::string& path) {
  TBox tbox;
  load(path, tbox);
  const OntologyMetrics m = computeMetrics(tbox);
  std::printf("%s\n", metricsRow(path, m).c_str());
  std::printf(
      "  concepts=%zu roles=%zu axioms=%zu subClassOf=%zu equivalent=%zu\n"
      "  disjoint=%zu qcrs=%zu somes=%zu alls=%zu annotations=%zu\n"
      "  roleHierarchy=%zu transitive=%zu expressivity=%s\n",
      m.concepts, m.roles, m.axioms, m.subClassOf, m.equivalent, m.disjoint,
      m.qcrs, m.somes, m.alls, m.annotations, m.roleHierarchyAxioms,
      m.transitiveRoles, m.expressivity.c_str());
  return 0;
}

int cmdSweep(const std::string& path, const Options& o) {
  TBox tbox;
  load(path, tbox);
  std::unique_ptr<ReasonerPlugin> backend = makeBackend(o, tbox);
  ClassifierConfig config;
  config.randomCycles = o.cycles;
  const SweepResult r = runSpeedupSweep(path, tbox, *backend,
                                        figureWorkerCounts(o.maxWorkers),
                                        config);
  std::printf("%s", renderSweepTable(r).c_str());
  return 0;
}

int cmdConvert(const std::string& path, const std::string& outPath) {
  TBox tbox;
  parseOboFile(path, tbox);
  if (outPath.empty()) {
    writeFunctionalSyntax(tbox, std::cout);
  } else {
    std::ofstream out(outPath);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
      return 1;
    }
    writeFunctionalSyntax(tbox, out);
    std::fprintf(stderr, "wrote %s (%zu concepts, %zu told axioms)\n",
                 outPath.c_str(), tbox.conceptCount(),
                 tbox.toldAxioms().size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string command = argv[1];
  const std::string path = argv[2];
  try {
    if (command == "classify") return cmdClassify(path, parseOptions(argc, argv, 3));
    if (command == "serve") return cmdServe(path, parseOptions(argc, argv, 3));
    if (command == "metrics") return cmdMetrics(path);
    if (command == "sweep") return cmdSweep(path, parseOptions(argc, argv, 3));
    if (command == "convert") return cmdConvert(path, argc > 3 ? argv[3] : "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
}
