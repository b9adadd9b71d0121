// owlcl — command-line front-end to the library.
//
//   owlcl classify <file.{ofn,obo}> [flags]   classify and print taxonomy
//   owlcl serve    <file.{ofn,obo}> [flags]   classification-as-a-service
//   owlcl sweep    <file.{ofn,obo}> [flags]   virtual-time speedup sweep
//   owlcl metrics  <file.{ofn,obo}>           Table IV/V-style metrics row
//   owlcl convert  <file.obo> [out.ofn]       OBO → functional syntax
//
// Every flag is one row of kFlags below, which also names the subcommands
// that read it: a subcommand rejects (exit 2) any flag it would ignore,
// and `owlcl` with no arguments prints the table grouped by subcommand.
// Numeric values are checked as strictly as names: a malformed or
// out-of-range value exits 2 before any file is loaded or thread started.
//
// serve — long-lived classification-as-a-service (DESIGN.md §12). Loads
// the ontology, classifies in the background, and answers line-oriented
// JSON queries (protocol in src/serve/protocol.hpp), either from
// --query-file (batch mode; responses on stdout in input order) or on a
// 127.0.0.1 --port socket, where admission sheds under load with explicit
// {"error":"overloaded"} responses.
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
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "owlcl.hpp"
#include "taxonomy/verify.hpp"

namespace {

using namespace owlcl;

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
  bool symmetric = true;
  ElRouting routeEl = ElRouting::kOff;
  bool verify = false;
  bool stats = false;
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
  ServeFaultPlan serveFaults;
};

// --- value parsers: every malformed value exits 2 ----------------------------

[[noreturn]] void reject(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

/// Strict non-negative integer parse for --flag=N values: the whole token
/// must be digits within range — "12abc", "-3", "" and overflow all fail
/// with a clear message instead of the silent-zero atoi behaviour.
std::size_t parseCount(const std::string& flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n < 0)
    reject("invalid value for " + flag + ": '" + v +
           "' (expected a non-negative integer)");
  return static_cast<std::size_t>(n);
}

constexpr std::size_t kNoCeiling = std::numeric_limits<std::size_t>::max();

/// parseCount restricted to lo..hi.
std::size_t parseInRange(const std::string& flag, const char* v,
                         std::size_t lo, std::size_t hi) {
  const std::size_t n = parseCount(flag, v);
  if (n < lo || n > hi)
    reject(flag + " must be " +
           (hi == kNoCeiling ? ">= " + std::to_string(lo)
                             : "in " + std::to_string(lo) + ".." +
                                   std::to_string(hi)));
  return n;
}

/// Ceiling on the OS-thread counts: --workers starts one pool thread per
/// worker and serve --query-threads one std::thread per query worker.
constexpr std::size_t kMaxThreads = 256;

constexpr std::uint64_t kNsPerMs = 1'000'000;
/// Ceiling on every millisecond value (about 146 years): its nanosecond
/// count stays at or below 2^62, so steady-clock deadline arithmetic
/// (now + budget) cannot overflow int64.
constexpr std::size_t kMaxMs = (std::uint64_t{1} << 62) / kNsPerMs;

std::size_t parseMs(const std::string& flag, const char* v) {
  return parseInRange(flag, v, 0, kMaxMs);
}

/// Strict rate parse for --inject-faults values: the whole token must be a
/// number in [0, 1].
double parseRate(const std::string& flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const double r = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !(r >= 0.0 && r <= 1.0))
    reject("invalid value for " + flag + ": '" + v +
           "' (expected a rate in [0, 1])");
  return r;
}

/// Index of `v` among `choices`; any other value exits 2.
std::size_t parseChoice(const std::string& flag, const char* v,
                        std::initializer_list<const char*> choices) {
  std::size_t i = 0;
  for (const char* c : choices) {
    if (std::strcmp(v, c) == 0) return i;
    ++i;
  }
  reject("unknown " + flag + ": " + v);
}

/// Splits a "key=value,key=value" SPEC and hands each item to
/// `set(key, label, value)`, which returns false for a key it does not
/// know; `label` ("--flag key") names the item in value errors.
template <typename Set>
void parseSpec(const std::string& flag, const char* spec, Set set) {
  std::istringstream items(spec);
  std::string item;
  while (std::getline(items, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) reject("bad " + flag + " item: " + item);
    const std::string key = item.substr(0, eq);
    if (!set(key, flag + " " + key, item.c_str() + eq + 1))
      reject("unknown " + flag + " key: " + key);
  }
}

FaultPlan parseFaultSpec(const std::string& flag, const char* spec) {
  FaultPlan p;
  parseSpec(flag, spec, [&p](const std::string& key, const std::string& label,
                             const char* v) {
    if (key == "seed")
      p.seed = parseCount(label, v);
    else if (key == "error")
      p.errorRate = parseRate(label, v);
    else if (key == "resource")
      p.resourceRate = parseRate(label, v);
    else if (key == "timeout")
      p.timeoutRate = parseRate(label, v);
    else if (key == "delay-ms")
      p.delayNs = parseMs(label, v) * kNsPerMs;
    else if (key == "sleep-ms")
      p.sleepNs = parseMs(label, v) * kNsPerMs;
    else if (key == "target")
      p.targetPairRate = parseRate(label, v);
    else if (key == "fail-first")
      p.failFirstAttempts = parseCount(label, v);
    else
      return false;
    return true;
  });
  return p;
}

CrashPlan parseCrashSpec(const std::string& flag, const char* spec) {
  CrashPlan p;
  parseSpec(flag, spec, [&](const std::string& key, const std::string& label,
                            const char* v) {
    if (key == "point") {
      p.point = parseCrashPoint(v);
      if (p.point == CrashPoint::kNone)
        reject("unknown " + flag + " point: " + v);
    } else if (key == "after") {
      p.after = parseCount(label, v);
    } else {
      return false;
    }
    return true;
  });
  if (p.point == CrashPoint::kNone) reject(flag + " needs a point=... item");
  return p;
}

ServeFaultPlan parseServeFaultSpec(const std::string& flag, const char* spec) {
  ServeFaultPlan p;
  parseSpec(flag, spec, [&p](const std::string& key, const std::string& label,
                             const char* v) {
    if (key == "query-fault-every")
      p.queryFaultEvery = parseCount(label, v);
    else if (key == "slow-client-ms")
      p.slowClientNs = parseMs(label, v) * kNsPerMs;
    else if (key == "crash-after-queries")
      p.crashAfterQueries = parseCount(label, v);
    else
      return false;
    return true;
  });
  return p;
}

// --- the flag table ------------------------------------------------------------

enum Command : unsigned {
  kClassify = 1u << 0,
  kServe = 1u << 1,
  kSweep = 1u << 2,
  kMetrics = 1u << 3,
  kConvert = 1u << 4,
};
/// classify and serve share the run setup, so most flags are read by both.
constexpr unsigned kRun = kClassify | kServe;

struct CommandInfo {
  const char* name;
  Command bit;
  const char* synopsis;
};

constexpr CommandInfo kCommands[] = {
    {"classify", kClassify,
     "<file.{ofn,obo}> [flags]  classify and print the taxonomy"},
    {"serve", kServe,
     "<file.{ofn,obo}> [flags]  classify in the background and answer JSON "
     "queries"},
    {"sweep", kSweep, "<file.{ofn,obo}> [flags]  virtual-time speedup sweep"},
    {"metrics", kMetrics, "<file.{ofn,obo}>  Table IV/V-style metrics row"},
    {"convert", kConvert, "<file.obo> [out.ofn]  OBO → functional syntax"},
};

struct Flag {
  const char* name;
  const char* arg;  // value placeholder; nullptr for a switch
  unsigned commands;
  const char* help;
  /// Parses the value (nullptr for a switch) into the options; exits 2 on
  /// a bad value. The rows below bind generic lambdas to this signature.
  void (*set)(Options& o, const std::string& flag, const char* v);
};

const Flag kFlags[] = {
    {"--workers", "N", kRun, "worker threads (default 4, at most 256)",
     [](auto& o, auto& f, auto v) {
       o.workers = parseInRange(f, v, 1, kMaxThreads);
     }},
    {"--cycles", "N", kRun | kSweep, "random-division cycles (default 2)",
     [](auto& o, auto& f, auto v) { o.cycles = parseCount(f, v); }},
    {"--ordered", nullptr, kRun, "ordered (non-symmetric) pair tests",
     [](auto& o, auto&, auto) { o.symmetric = false; }},
    {"--route-el", "off|auto|on", kRun,
     "hybrid routing: saturate the EL sub-ontology first and seed P/K "
     "(default off)",
     [](auto& o, auto& f, auto v) {
       constexpr ElRouting kModes[] = {ElRouting::kOff, ElRouting::kAuto,
                                       ElRouting::kOn};
       o.routeEl = kModes[parseChoice(f, v, {"off", "auto", "on"})];
     }},
    {"--stats", nullptr, kRun, "print reasoner and serving statistics",
     [](auto& o, auto&, auto) { o.stats = true; }},
    {"--output", "tree|dot|none", kClassify,
     "taxonomy rendering (default tree)",
     [](auto& o, auto& f, auto v) {
       parseChoice(f, v, {"tree", "dot", "none"});
       o.output = v;
     }},
    {"--verify", nullptr, kClassify, "structural verification of the result",
     [](auto& o, auto&, auto) { o.verify = true; }},
    {"--max-workers", "N", kSweep,
     "sweep 1..N virtual workers (default 64, at most 256)",
     [](auto& o, auto& f, auto v) {
       o.maxWorkers = parseInRange(f, v, 1, kMaxSweepWorkers);
     }},
    {"--deadline-ms", "N", kRun, "per-reasoner-call deadline (0 = unlimited)",
     [](auto& o, auto& f, auto v) { o.deadlineMs = parseMs(f, v); }},
    {"--max-retries", "N", kRun,
     "failed-test retries before giving a pair up (default 3)",
     [](auto& o, auto& f, auto v) { o.maxRetries = parseCount(f, v); }},
    {"--budget-ms", "N", kRun,
     "whole-run watchdog; past it the run degrades (0 = off)",
     [](auto& o, auto& f, auto v) { o.budgetMs = parseMs(f, v); }},
    {"--inject-faults", "SPEC", kRun,
     "fault drills: seed=N error=R resource=R timeout=R delay-ms=N "
     "sleep-ms=N target=R fail-first=N",
     [](auto& o, auto& f, auto v) { o.faults = parseFaultSpec(f, v); }},
    {"--checkpoint-dir", "D", kRun,
     "crash-safe checkpointing into directory D (created if missing)",
     [](auto& o, auto&, auto v) { o.checkpointDir = v; }},
    {"--checkpoint-every-rounds", "N", kRun,
     "snapshot every N epoch barriers (default 1)",
     [](auto& o, auto& f, auto v) {
       o.checkpointEveryRounds = parseInRange(f, v, 1, kNoCeiling);
     }},
    {"--fsync-policy", "never|record|barrier", kRun,
     "journal durability (default barrier)",
     [](auto& o, auto& f, auto v) {
       constexpr FsyncPolicy kPolicies[] = {FsyncPolicy::kNever,
                                            FsyncPolicy::kEveryRecord,
                                            FsyncPolicy::kEveryBarrier};
       o.fsyncPolicy =
           kPolicies[parseChoice(f, v, {"never", "record", "barrier"})];
     }},
    {"--resume", nullptr, kRun,
     "recover from --checkpoint-dir (replaying committed deltas) and continue",
     [](auto& o, auto&, auto) { o.resume = true; }},
    {"--apply-deltas", "F", kClassify,
     "replay a delta script (begin, add/retract <stmt>, commit, abort) after "
     "classifying",
     [](auto& o, auto&, auto v) { o.applyDeltas = v; }},
    {"--inject-crash", "point=P,after=N", kRun,
     "exit 137 at crash point P: torn-write after-journal before-rename "
     "at-barrier delta-journal mid-rerun pre-commit mid-rollback",
     [](auto& o, auto& f, auto v) { o.crash = parseCrashSpec(f, v); }},
    {"--port", "N", kServe, "TCP socket mode on 127.0.0.1:N (default batch)",
     [](auto& o, auto& f, auto v) {
       o.port = static_cast<std::uint16_t>(parseInRange(f, v, 1, 65535));
     }},
    {"--query-file", "F", kServe, "batch request file, - = stdin (default -)",
     [](auto& o, auto&, auto v) { o.queryFile = v; }},
    {"--query-threads", "N", kServe,
     "query worker threads (default 2, at most 256)",
     [](auto& o, auto& f, auto v) {
       o.queryThreads = parseInRange(f, v, 1, kMaxThreads);
     }},
    {"--queue-cap", "N", kServe,
     "admission queue bound; beyond it, shed (default 128)",
     [](auto& o, auto& f, auto v) {
       o.queueCap = parseInRange(f, v, 1, kNoCeiling);
     }},
    {"--serve-deadline-ms", "N", kServe,
     "default per-query deadline (default 1000)",
     [](auto& o, auto& f, auto v) { o.serveDeadlineMs = parseMs(f, v); }},
    {"--serve-max-deadline-ms", "N", kServe,
     "clamp on client deadline_ms (default 60000, 0 = no clamp)",
     [](auto& o, auto& f, auto v) { o.serveMaxDeadlineMs = parseMs(f, v); }},
    {"--max-line-bytes", "N", kServe, "request line cap (default 65536)",
     [](auto& o, auto& f, auto v) {
       o.maxLineBytes = parseInRange(f, v, 1, kNoCeiling);
     }},
    {"--inject-serve-faults", "SPEC", kServe,
     "serving chaos: query-fault-every=N slow-client-ms=N "
     "crash-after-queries=N",
     [](auto& o, auto& f, auto v) {
       o.serveFaults = parseServeFaultSpec(f, v);
     }},
};

[[noreturn]] void usage() {
  std::fprintf(stderr, "usage: owlcl <command> <file> [flags]\n");
  for (const CommandInfo& c : kCommands) {
    std::fprintf(stderr, "\n%s %s\n", c.name, c.synopsis);
    bool any = false;
    for (const Flag& f : kFlags) {
      if ((f.commands & c.bit) == 0) continue;
      const std::string spelled =
          f.arg != nullptr ? std::string(f.name) + "=" + f.arg : f.name;
      std::fprintf(stderr, "  %-36s %s\n", spelled.c_str(), f.help);
      any = true;
    }
    if (!any) std::fprintf(stderr, "  (reads no flags)\n");
  }
  std::fprintf(stderr,
               "\nN is a non-negative integer and R a rate in [0, 1]; every "
               "millisecond value is at most %zu (2^62 ns).\nAny other "
               "value, an unknown flag, or a flag the subcommand does not "
               "read exits 2.\n",
               kMaxMs);
  std::exit(2);
}

/// Parses argv[first..] for `command`: each argument must be a flag of
/// kFlags that `command` reads, spelled --name=VALUE or (for a switch)
/// --name. Everything is checked here, before any file is loaded or any
/// thread starts.
Options parseOptions(int argc, char** argv, int first,
                     const std::string& command) {
  const CommandInfo* cmd = nullptr;
  for (const CommandInfo& c : kCommands)
    if (command == c.name) cmd = &c;
  if (cmd == nullptr) usage();
  Options o;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    const std::size_t eq = a.find('=');
    const std::string name = a.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags)
      if (name == f.name) flag = &f;
    if (flag == nullptr) reject("unknown option: " + a);
    if ((flag->commands & cmd->bit) == 0)
      reject("owlcl " + command + " does not read " + name);
    const bool hasValue = eq != std::string::npos;
    if (hasValue != (flag->arg != nullptr))
      reject(hasValue ? name + " takes no value"
                      : name + " needs a value: " + name + "=" + flag->arg);
    flag->set(o, name, hasValue ? a.c_str() + eq + 1 : nullptr);
  }
  if (o.resume && o.checkpointDir.empty())
    reject("--resume requires --checkpoint-dir");
  if (o.crash.enabled() && o.checkpointDir.empty())
    reject("--inject-crash requires --checkpoint-dir");
  return o;
}

// --- the run: ontology, plug-in chain, checkpoints, classifier ----------------

/// Owns one generation's plug-in decorator stack (backend →
/// [FaultInjector] → [GuardedPlugin]); `head` answers for the chain.
struct PluginChain {
  std::unique_ptr<TableauReasoner> backend;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<GuardedPlugin> guarded;
  ReasonerPlugin* head = nullptr;
};

std::shared_ptr<PluginChain> buildChain(const Options& o, TBox& tbox,
                                        CancellationToken* cancel) {
  auto chain = std::make_shared<PluginChain>();
  // The one plug-in: the tableau with pseudo-model merging and without the
  // shared sat cache, the configuration EXPERIMENTS.md measured fastest.
  TableauReasonerConfig tc;
  tc.mergeModels = true;
  chain->backend = std::make_unique<TableauReasoner>(tbox, tc);
  chain->head = chain->backend.get();
  if (o.faults.enabled()) {
    chain->injector = std::make_unique<FaultInjector>(*chain->head, o.faults);
    chain->head = chain->injector.get();
  }
  if (o.deadlineMs > 0 || chain->injector != nullptr) {
    GuardConfig gc;
    gc.deadlineNs = static_cast<std::uint64_t>(o.deadlineMs) * kNsPerMs;
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
    // The commit path froze the TBox before calling the factory, so the
    // backend's own freeze is a no-op; the non-const ref is an API wrinkle.
    auto chain = buildChain(o, const_cast<TBox&>(tbox), cancel);
    return std::shared_ptr<ReasonerPlugin>(chain, chain->head);
  };
}

/// Checkpoint and delta-recovery state of one classify/serve run.
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

CheckpointConfig checkpointConfig(const Options& o) {
  CheckpointConfig cc;
  cc.dir = o.checkpointDir;
  cc.everyRounds = o.checkpointEveryRounds;
  cc.fsyncPolicy = o.fsyncPolicy;
  return cc;
}

/// Configures classification checkpointing for classify/serve: fresh runs
/// wipe the directory and snapshot from the genesis barrier on; --resume
/// recovers snapshot+journal state for resumeClassify. The content hash
/// ties the checkpoint to this exact ontology (and the seed to this exact
/// shuffle sequence).
bool setupCheckpoints(const Options& o, const TBox& tbox,
                      ClassifierConfig& config, CheckpointSetup* out) {
  if (o.checkpointDir.empty()) return true;
  const CheckpointConfig cc = checkpointConfig(o);
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

ClassifierConfig buildClassifierConfig(const Options& o) {
  ClassifierConfig config;
  config.randomCycles = o.cycles;
  config.symmetricTests = o.symmetric;
  config.routeEl = o.routeEl;
  config.maxRetries = o.maxRetries;
  config.watchdogBudgetNs = static_cast<std::uint64_t>(o.budgetMs) * kNsPerMs;
  return config;
}

/// What classify and serve share, built by setupRun in this order: the
/// ontology (after delta recovery), the worker pool, the plug-in chain,
/// checkpoints and the classifier; attachDelta adds the delta
/// reclassifier. Members are destroyed in reverse.
struct Run {
  TBox baseTbox;
  CheckpointSetup ck;
  TBox* tbox = &baseTbox;  // or the post-delta ontology from deltas.wal
  ClassifierConfig config;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<RealExecutor> exec;
  std::shared_ptr<PluginChain> chain;
  std::unique_ptr<ParallelClassifier> classifier;
  std::unique_ptr<DeltaJournalSink> sink;
  std::unique_ptr<DeltaReclassifier> delta;
  double parseMs = 0;    // reading the ontology file
  double prepareMs = 0;  // building the plug-in chain (the reasoner's KB)

  ClassificationResult classify() {
    return ck.haveResume ? classifier->resumeClassify(*exec, ck.resumeFrom)
                         : classifier->classify(*exec);
  }
};

/// Null (after reporting why on stderr) when delta recovery or the
/// checkpoint setup fails.
std::unique_ptr<Run> setupRun(const std::string& path, const Options& o) {
  auto run = std::make_unique<Run>();
  Stopwatch sw;
  load(path, run->baseTbox);
  run->parseMs = sw.elapsedMs();
  if (!recoverDeltaOntology(o, run->baseTbox, &run->ck)) return nullptr;
  // Committed deltas recovered from deltas.wal replace the loaded ontology.
  if (run->ck.effectiveTbox != nullptr) run->tbox = run->ck.effectiveTbox.get();
  run->config = buildClassifierConfig(o);
  run->pool = std::make_unique<ThreadPool>(o.workers);
  run->exec = std::make_unique<RealExecutor>(*run->pool);
  sw.restart();
  run->chain = buildChain(o, *run->tbox, &run->exec->cancellation());
  run->prepareMs = sw.elapsedMs();
  if (!setupCheckpoints(o, *run->tbox, run->config, &run->ck)) return nullptr;
  run->classifier = std::make_unique<ParallelClassifier>(
      *run->tbox, *run->chain->head, run->config);
  return run;
}

/// Creates the run's delta reclassifier over generation 0 — adopted
/// without ownership, since it lives in `run`; `initial` may be null
/// until a background run publishes it. With checkpointing on, the
/// checkpoint manager moves into a delta journal so transactions are
/// durable. False (reported on stderr) when the journal cannot open.
bool attachDelta(const Options& o, Run& run,
                 const ClassificationResult* initial) {
  run.delta = std::make_unique<DeltaReclassifier>(
      *run.exec, makeChainFactory(o, &run.exec->cancellation()), run.config);
  const auto unowned = [](const void*) {};
  run.delta->adoptInitial(
      std::shared_ptr<const TBox>(run.tbox, unowned),
      std::shared_ptr<ReasonerPlugin>(run.chain->head, unowned),
      std::shared_ptr<ParallelClassifier>(run.classifier.get(), unowned),
      std::shared_ptr<const ClassificationResult>(initial, unowned));
  if (run.ck.manager == nullptr) return true;
  run.sink = std::make_unique<DeltaJournalSink>(checkpointConfig(o),
                                                run.config.seed);
  if (run.ck.crashInjector != nullptr)
    run.sink->setCrashInjector(run.ck.crashInjector.get());
  std::string err;
  if (!run.sink->open(run.ck.baseHash, std::move(run.ck.manager),
                      /*truncateWal=*/!o.resume, &err)) {
    std::fprintf(stderr, "delta journal: %s\n", err.c_str());
    return false;
  }
  run.delta->setSink(run.sink.get());
  run.delta->setNextTxnId(run.ck.recovery.nextTxnId);
  return true;
}

/// Flushes `capture()` as the final checkpoint: through the delta journal
/// once it holds the checkpoint manager (commits may have re-anchored the
/// main area since), else straight to the manager. No-op without
/// --checkpoint-dir.
template <typename Capture>
void flushFinalCheckpoint(const Options& o, Run& run, const char* indent,
                          Capture capture) {
  if (run.sink == nullptr && run.ck.manager == nullptr) return;
  std::string err;
  const bool flushed = run.sink != nullptr
                           ? run.sink->flushFinal(capture(), &err)
                           : run.ck.manager->snapshotFinal(capture(), &err);
  if (flushed)
    std::fprintf(stderr, "%sfinal checkpoint flushed to %s\n", indent,
                 o.checkpointDir.c_str());
  else
    std::fprintf(stderr, "%sfinal checkpoint flush FAILED: %s\n", indent,
                 err.c_str());
}

void render(const Options& o, const Taxonomy& taxonomy, const TBox& tbox) {
  if (o.output == "dot")
    taxonomy.writeDot(std::cout, tbox);
  else if (o.output == "tree")
    taxonomy.print(std::cout, tbox);
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


// --- subcommands ----------------------------------------------------------------

int cmdClassify(const std::string& path, const Options& o) {
  const std::unique_ptr<Run> run = setupRun(path, o);
  if (run == nullptr) return 1;
  const TBox& tbox = *run->tbox;
  ReasonerPlugin* plugin = run->chain->head;

  // SIGTERM/SIGINT cancel the run through its token: workers stop picking
  // up new tests, partial results are still printed, and a final snapshot
  // is flushed below when checkpointing is on. Exit status 3.
  gCancelToken.store(&run->exec->cancellation(), std::memory_order_release);
  installShutdownHandlers();

  const ClassificationResult r = run->classify();

  std::fprintf(stderr,
               "classified %zu concepts in %.1f ms (%zu workers)\n"
               "  %llu sat + %llu subsumption tests, %llu pruned, "
               "%zu taxonomy nodes, depth %zu\n",
               tbox.conceptCount(),
               static_cast<double>(run->exec->elapsedNs()) / 1e6, o.workers,
               static_cast<unsigned long long>(r.satTests),
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
    std::fprintf(stderr, "  load: parse %.1f ms, reasoner prepare %.1f ms\n",
                 run->parseMs, run->prepareMs);
    double routeMs = 0, phase1Ms = 0, phase2Ms = 0, hierarchyMs = 0;
    for (const CycleStats& c : r.cycles) {
      const double ms = static_cast<double>(c.elapsedNs) / 1e6;
      switch (c.phase) {
        case CycleStats::Phase::kRouting: routeMs += ms; break;
        case CycleStats::Phase::kRandomDivision: phase1Ms += ms; break;
        case CycleStats::Phase::kGroupDivision: phase2Ms += ms; break;
        case CycleStats::Phase::kHierarchy: hierarchyMs += ms; break;
      }
    }
    std::fprintf(stderr,
                 "  phases: route %.1f ms, phase 1 %.1f ms, phase 2 %.1f ms, "
                 "hierarchy %.1f ms\n",
                 routeMs, phase1Ms, phase2Ms, hierarchyMs);
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
    if (const GuardedPlugin* guarded = run->chain->guarded.get()) {
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

  if (const CheckpointManager* checkpoints = run->ck.manager.get()) {
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
  if (!o.applyDeltas.empty()) {
    std::vector<DeltaBlock> blocks;
    std::string err;
    if (!parseDeltaScript(o.applyDeltas, &blocks, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    if (!attachDelta(o, *run, &r)) return 1;
    deltaStatus = replayDeltaBlocks(*run->delta, blocks,
                                    o.resume ? run->ck.recovery.committedTxns
                                             : 0);
  }
  gCancelToken.store(nullptr, std::memory_order_release);

  // The deliverables come from the FINAL committed generation: the
  // post-delta one with --apply-deltas, else the run itself.
  DeltaGeneration finalGen;
  if (run->delta != nullptr) finalGen = run->delta->generation();
  const ClassificationResult& finalResult =
      finalGen.result != nullptr ? *finalGen.result : r;
  render(o, finalResult.taxonomy,
         finalGen.tbox != nullptr ? *finalGen.tbox : tbox);

  if (o.verify) {
    const TaxonomyIssues issues = verifyStructure(finalResult.taxonomy);
    std::fprintf(stderr, "structural verification: %s\n",
                 issues.summary().c_str());
    if (!issues.ok()) return 1;
  }

  if (const int sig = gSignal.load(std::memory_order_acquire); sig != 0) {
    flushFinalCheckpoint(o, *run, "  ", [&] {
      return (finalGen.classifier != nullptr ? *finalGen.classifier
                                             : *run->classifier)
          .captureCheckpoint();
    });
    std::fprintf(stderr,
                 "interrupted by signal %d — partial results above\n", sig);
    return 3;
  }
  return deltaStatus;
}

int cmdServe(const std::string& path, const Options& o) {
  const std::unique_ptr<Run> run = setupRun(path, o);
  if (run == nullptr) return 1;
  ParallelClassifier& classifier = *run->classifier;

  ServerConfig sc;
  sc.queryThreads = o.queryThreads;
  sc.queueCapacity = o.queueCap;
  sc.maxLineBytes = o.maxLineBytes;
  sc.engine.defaultDeadlineMs = o.serveDeadlineMs;
  sc.engine.maxDeadlineMs = o.serveMaxDeadlineMs;
  sc.faults = o.serveFaults;
  // The run's plug-in chain (faults, guard) serves the BACKGROUND run only.
  // Direct per-query fallback calls go to the raw backend: a query's budget
  // is its own deadline, and serve has its own fault plan — classification
  // fault schedules must not leak nondeterminism into query answers.
  Server server(*run->tbox, classifier, *run->chain->backend, sc);

  // Delta transaction verbs: always available over the protocol, durable
  // when checkpointing is on. Generation 0's result arrives via the
  // server's classify thread once the background run finishes.
  if (!attachDelta(o, *run, nullptr)) return 1;
  server.setDeltaReclassifier(run->delta.get());

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

  server.start([&run] { return run->classify(); });

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
  if (run->delta->txnOpen()) {
    std::string err;
    if (run->delta->abortTxn(&err))
      std::fprintf(stderr, "open delta transaction aborted on shutdown\n");
    else
      std::fprintf(stderr, "delta abort on shutdown FAILED: %s\n",
                   err.c_str());
  }

  flushFinalCheckpoint(o, *run, "",
                       [&server] { return server.captureCheckpoint(); });

  const ClassificationResult* r = server.result();
  const char* state = r != nullptr ? finishedRunState(*r) : "unknown";
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
      std::fprintf(stderr,
                   "snapshot stats: none (degraded or not yet built)\n");
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
  // sweep reads no fault or deadline flags, so the chain is the backend.
  const std::shared_ptr<PluginChain> chain = buildChain(o, tbox, nullptr);
  const SweepResult r = runSpeedupSweep(path, tbox, *chain->head,
                                        figureWorkerCounts(o.maxWorkers),
                                        buildClassifierConfig(o));
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
  // convert's optional output path is positional; flags follow it.
  const bool outPath = command == "convert" && argc > 3 &&
                       std::strncmp(argv[3], "--", 2) != 0;
  const Options o = parseOptions(argc, argv, outPath ? 4 : 3, command);
  try {
    if (command == "classify") return cmdClassify(path, o);
    if (command == "serve") return cmdServe(path, o);
    if (command == "metrics") return cmdMetrics(path);
    if (command == "sweep") return cmdSweep(path, o);
    return cmdConvert(path, outPath ? argv[3] : "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
