// Server — the long-lived classification-as-a-service core behind
// `owlcl serve` (DESIGN.md §12).
//
// One classification thread runs (or resumes) the parallel classifier in
// the background while a small pool of query workers answers protocol
// requests pulled from a bounded AdmissionQueue. Front-ends push lines in:
//
//   * runBatch  — newline-delimited requests from a stream; responses come
//     back IN INPUT ORDER (reorder buffer) and admission blocks instead of
//     shedding, so the output is a deterministic function of the input —
//     the CI kill/resume byte-match drill depends on this.
//   * runSocket — TCP listener, thread per connection, line in / line out.
//     Admission sheds under load: a full queue answers
//     {"ok":false,"error":"overloaded"} immediately instead of queueing
//     unboundedly. A wake fd (self-pipe from the CLI signal handlers)
//     interrupts the accept loop for graceful drain.
//
// drain() is the graceful-shutdown half: close admission (queued queries
// still finish), ask the classifier to stop at its next epoch barrier,
// and join everything. The caller then flushes a final checkpoint from
// captureCheckpoint() — `serve --resume` continues exactly there.
//
// ServeFaultPlan hooks (chaos drills): every-Nth-query worker throw
// (contained → explicit "internal" error, server keeps serving), wall
// sleep before each delivery (slow client → queue buildup → shedding),
// and SIGKILL-equivalent death after the Nth answered query.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "core/parallel_classifier.hpp"
#include "owl/tbox.hpp"
#include "robust/fault_injector.hpp"
#include "serve/admission.hpp"
#include "serve/query_engine.hpp"
#include "serve/protocol.hpp"

namespace owlcl {

struct ServerConfig {
  std::size_t queryThreads = 2;
  std::size_t queueCapacity = 128;
  /// Hard cap on one request line; longer input is answered with a parse
  /// error and discarded — never buffered unboundedly.
  std::size_t maxLineBytes = 64 * 1024;
  QueryEngineConfig engine;
  ServeFaultPlan faults;
};

/// The state a returned run reports, in `status` and the serve summary:
/// "paused", "cancelled", "partial" (pairs or concepts left unresolved)
/// or "done".
const char* finishedRunState(const ClassificationResult& r);

class Server {
 public:
  /// `fallback` is the direct-call plug-in chain for unresolved /
  /// over-deadline pairs; all references must outlive the server.
  Server(const TBox& tbox, ParallelClassifier& classifier,
         ReasonerPlugin& fallback, ServerConfig config);
  ~Server();

  /// Enables the delta transaction verbs (begin-delta / add-axiom /
  /// retract-axiom / commit / abort). Must be called before start(); the
  /// reclassifier must have adopted the same generation-0 objects this
  /// server was constructed over and must outlive it. After a committed
  /// delta, queries answer against the new generation; the commit itself
  /// occupies one query worker for the duration of the cone rerun.
  void setDeltaReclassifier(DeltaReclassifier* delta) { delta_ = delta; }

  /// Starts the query workers and runs `classify` (a closure over
  /// classifier.classify() or resumeClassify()) on the background
  /// classification thread. Call exactly once.
  void start(std::function<ClassificationResult()> classify);

  /// Admission-controlled submit: on shed, `deliver` is invoked inline
  /// with the explicit overloaded response and false is returned.
  bool trySubmit(std::string line, std::function<void(std::string)> deliver);

  /// Blocking submit (batch flow control). False only once draining.
  bool submit(std::string line, std::function<void(std::string)> deliver);

  /// Graceful drain: stop admission, finish queued queries, stop the
  /// classifier at its next epoch barrier, join all threads. Idempotent.
  void drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// The classification result; null until the background run returned.
  const ClassificationResult* result() const {
    return resultReady_.load(std::memory_order_acquire) ? &result_ : nullptr;
  }

  /// Checkpoint of the CURRENT generation's classifier (a committed delta
  /// re-targets this — `serve --resume` continues the committed state).
  ClassifierCheckpoint captureCheckpoint() const;

  std::uint64_t served() const {
    return served_.load(std::memory_order_relaxed);
  }
  std::uint64_t shedCount() const { return queue_.shed(); }
  std::size_t queueDepth() const { return queue_.depth(); }

  /// Read-path counters (snapshot vs ladder answers, interval/bitset split,
  /// batch amortization) for --stats and bench reporting.
  QueryEngineStats engineStats() const { return engine_.stats(); }
  /// The view queries answer against right now (carries the current
  /// generation's snapshot and its BuildStats, if one was compiled).
  std::shared_ptr<const EngineView> engineView() const {
    return engine_.currentView();
  }

  /// Serves newline-delimited requests from `in`, writing in-order
  /// responses to `out`. Returns after the last response is written
  /// (does NOT drain — callers decide when to shut down).
  void runBatch(std::istream& in, std::ostream& out);

  /// TCP front-end on 127.0.0.1:`port`. Blocks until `wakeFd` becomes
  /// readable (self-pipe written by a signal handler), then shuts down
  /// reads on live connections, lets in-flight responses flush, and
  /// returns. Returns false if the socket could not be bound (*error set).
  bool runSocket(std::uint16_t port, int wakeFd, std::string* error);

 private:
  struct Job {
    std::string line;
    std::function<void(std::string)> deliver;
  };

  void workerLoop();
  /// Parses and answers one line; never throws (the untrusted surface).
  /// `parser`/`req` are the calling worker's reusable scratch — a warmed
  /// worker parses without heap allocation.
  std::string processLine(const std::string& line, RequestParser& parser,
                          Request& req);
  std::string statusLine(const Request& req) const;
  /// Handles the five delta transaction verbs (runs on a query worker; a
  /// commit blocks that worker for the cone rerun while the remaining
  /// workers keep answering from the pre-delta generation).
  std::string deltaLine(const Request& req);
  /// Publishes the current committed generation as the engine view.
  void publishGeneration();
  /// Post-answer fault hooks + served counter (slow client, crash-after).
  void deliverResponse(const Job& job, std::string response);

  const TBox& tbox_;
  ParallelClassifier& classifier_;
  ServerConfig config_;
  QueryEngine engine_;
  DeltaReclassifier* delta_ = nullptr;
  AdmissionQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::thread classifyThread_;
  ClassificationResult result_;
  std::atomic<bool> resultReady_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> admittedOrdinal_{0};
};

}  // namespace owlcl
