#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>

namespace owlcl {

namespace {

/// After a failed parse the Request holds unspecified partial state;
/// errorResponse only reads the id echo, so neutralize just that.
void resetForErrorEcho(Request& req) { req.hasId = false; }

}  // namespace

Server::Server(const TBox& tbox, ParallelClassifier& classifier,
               ReasonerPlugin& fallback, ServerConfig config)
    : tbox_(tbox),
      classifier_(classifier),
      config_(config),
      engine_(tbox, classifier, fallback, config.engine),
      queue_(config.queueCapacity) {}

Server::~Server() { drain(); }

void Server::start(std::function<ClassificationResult()> classify) {
  started_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.queryThreads);
       ++i)
    workers_.emplace_back([this] { workerLoop(); });
  classifyThread_ = std::thread([this, classify = std::move(classify)] {
    result_ = classify();
    resultReady_.store(true, std::memory_order_release);
    // Compile the generation-0 query snapshot on this thread, before the
    // result is published — never on a query worker. Every run that built
    // a taxonomy gets one; a PARTIAL run's is marked incomplete, and the
    // engine then answers its subs/sat through the ladder (DESIGN.md §16).
    std::shared_ptr<const TaxonomySnapshot> snap;
    if (!result_.paused)
      snap = TaxonomySnapshot::build(result_.taxonomy, tbox_,
                                     result_.complete(), /*generation=*/0);
    engine_.setResult(&result_, snap);
    // Unblock delta commits: they require generation 0's finished result.
    if (delta_ != nullptr)
      delta_->publishInitialResult(
          std::shared_ptr<const ClassificationResult>(
              &result_, [](const ClassificationResult*) {}),
          std::move(snap));
  });
}

bool Server::trySubmit(std::string line,
                       std::function<void(std::string)> deliver) {
  // Parse up front: tryPush consumes the line either way, and the shed
  // response should echo the request id so clients can correlate. This is
  // a per-caller-thread hot path (socket readers, bench drivers), so the
  // parse reuses thread-local scratch instead of allocating.
  static thread_local RequestParser parser;
  static thread_local Request req;
  std::string why;
  const bool parsed = parser.parse(line, &req, &why);
  if (queue_.tryPush(Job{std::move(line), deliver})) return true;
  if (!parsed) resetForErrorEcho(req);
  deliver(errorResponse(req, "overloaded"));
  return false;
}

bool Server::submit(std::string line,
                    std::function<void(std::string)> deliver) {
  return queue_.push(Job{std::move(line), std::move(deliver)});
}

void Server::drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) {
    // Second caller (e.g. the destructor after an explicit drain) still
    // needs the joins to have finished; they are idempotent via joinable().
  }
  queue_.close();
  classifier_.requestStop();
  // A commit rerun in flight fails !complete() and rolls back — the
  // SIGTERM-ed transaction aborts deterministically (journaled abort).
  if (delta_ != nullptr) delta_->requestStopActive();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  if (classifyThread_.joinable()) classifyThread_.join();
}

void Server::workerLoop() {
  // Per-worker parse scratch: after warm-up every line parses with zero
  // heap allocations (the protocol test pins this property down).
  RequestParser parser;
  Request req;
  Job job;
  while (queue_.pop(&job)) {
    std::string response;
    try {
      response = processLine(job.line, parser, req);
    } catch (const std::exception& e) {
      // Containment: a query must never take the server down. Parse again
      // defensively for the id echo (the line already parsed once or the
      // throw came from deeper down).
      std::string why;
      if (!parser.parse(job.line, &req, &why)) resetForErrorEcho(req);
      response = errorResponse(req, "internal", e.what());
    } catch (...) {
      Request blank;
      response = errorResponse(blank, "internal");
    }
    deliverResponse(job, std::move(response));
  }
}

std::string Server::processLine(const std::string& line, RequestParser& parser,
                                Request& req) {
  if (line.size() > config_.maxLineBytes)
    return parseErrorResponse("line too long");
  std::string why;
  if (!parser.parse(line, &req, &why)) return parseErrorResponse(why);
  if (req.op == RequestOp::kStatus) return statusLine(req);
  switch (req.op) {
    case RequestOp::kBeginDelta:
    case RequestOp::kAddAxiom:
    case RequestOp::kRetractAxiom:
    case RequestOp::kCommitDelta:
    case RequestOp::kAbortDelta:
      return deltaLine(req);
    default:
      break;
  }
  // Chaos drill: every Nth admitted query faults inside the worker; the
  // workerLoop catch turns it into an explicit "internal" response.
  if (config_.faults.queryFaultEvery > 0) {
    const std::uint64_t ordinal =
        admittedOrdinal_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (ordinal % config_.faults.queryFaultEvery == 0)
      throw std::runtime_error("injected query fault");
  }
  return engine_.answer(req);
}

const char* finishedRunState(const ClassificationResult& r) {
  if (r.paused) return "paused";
  if (r.cancelled) return "cancelled";
  return r.complete() ? "done" : "partial";
}

std::string Server::statusLine(const Request& req) const {
  // Route through the engine view: after a committed delta this reports
  // the NEW generation, while generation 0 behaves exactly as before.
  const std::shared_ptr<const EngineView> view = engine_.currentView();
  const char* state = "classifying";
  if (view->result != nullptr) {
    state = finishedRunState(*view->result);
  } else if (!view->classifier->started()) {
    state = "loading";
  }
  JsonWriter w;
  if (req.hasId) w.field("id", req.id);
  w.field("ok", true);
  w.field("op", "status");
  w.field("state", state);
  w.field("epoch",
          static_cast<std::uint64_t>(view->classifier->currentEpoch()));
  w.field("remaining_possible",
          static_cast<std::uint64_t>(view->classifier->remainingPossible()));
  w.field("concepts", static_cast<std::uint64_t>(view->tbox->conceptCount()));
  w.field("delta_epoch", view->deltaEpoch);
  w.field("txn_open", delta_ != nullptr && delta_->txnOpen());
  w.field("served", served());
  w.field("shed", shedCount());
  w.field("queue_depth", static_cast<std::uint64_t>(queueDepth()));
  return std::move(w).str();
}

ClassifierCheckpoint Server::captureCheckpoint() const {
  if (delta_ != nullptr) {
    const DeltaGeneration gen = delta_->generation();
    if (gen.classifier != nullptr) return gen.classifier->captureCheckpoint();
  }
  return classifier_.captureCheckpoint();
}

void Server::publishGeneration() {
  // Pin the whole generation behind the view's owner pointer: queries that
  // snapshotted the OLD view keep it (and its classifier/plugin) alive
  // until they finish, even though gen_ has already moved on.
  auto own = std::make_shared<DeltaGeneration>(delta_->generation());
  EngineView view;
  view.tbox = own->tbox.get();
  view.classifier = own->classifier.get();
  view.fallback = own->plugin.get();
  view.result = own->result.get();
  view.deltaEpoch = own->deltaEpoch;
  view.snapshot = own->snapshot;  // compiled by commitTxn, off the query path
  view.owner = std::move(own);
  engine_.publishView(std::move(view));
}

std::string Server::deltaLine(const Request& req) {
  if (delta_ == nullptr)
    return errorResponse(req, "unsupported",
                         "server started without delta support");
  std::string err;
  JsonWriter w;
  if (req.hasId) w.field("id", req.id);
  switch (req.op) {
    case RequestOp::kBeginDelta: {
      if (!delta_->beginTxn(&err)) return errorResponse(req, "txn", err);
      w.field("ok", true);
      w.field("op", "begin-delta");
      w.field("txn", static_cast<std::uint64_t>(delta_->txnId()));
      return std::move(w).str();
    }
    case RequestOp::kAddAxiom:
    case RequestOp::kRetractAxiom: {
      const bool isAdd = req.op == RequestOp::kAddAxiom;
      const bool ok = isAdd ? delta_->stageAdd(req.axiom, &err)
                            : delta_->stageRetract(req.axiom, &err);
      if (!ok) return errorResponse(req, "txn", err);
      w.field("ok", true);
      w.field("op", isAdd ? "add-axiom" : "retract-axiom");
      w.field("txn", static_cast<std::uint64_t>(delta_->txnId()));
      w.field("staged", static_cast<std::uint64_t>(delta_->stagedOps()));
      return std::move(w).str();
    }
    case RequestOp::kCommitDelta: {
      // A commit needs generation 0's finished result, but a batch client
      // can outrun the background run. Park this worker until the initial
      // result is published (the other workers keep answering) instead of
      // bouncing the request — batch scripts stay deterministic.
      while (delta_->generation().result == nullptr &&
             !draining_.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      DeltaCommitInfo info;
      if (!delta_->commitTxn(&info, &err))
        return errorResponse(req, "txn", err);
      publishGeneration();
      w.field("ok", true);
      w.field("op", "commit");
      w.field("txn", static_cast<std::uint64_t>(info.txid));
      w.field("cone", static_cast<std::uint64_t>(info.coneSize));
      w.field("full_cone", info.fullCone);
      w.field("concepts", static_cast<std::uint64_t>(info.conceptCount));
      w.field("epoch", info.deltaEpoch);
      return std::move(w).str();
    }
    case RequestOp::kAbortDelta: {
      const std::uint32_t txid = delta_->txnId();
      if (!delta_->abortTxn(&err)) return errorResponse(req, "txn", err);
      w.field("ok", true);
      w.field("op", "abort");
      w.field("txn", static_cast<std::uint64_t>(txid));
      return std::move(w).str();
    }
    default:
      return errorResponse(req, "internal", "unroutable delta op");
  }
}

void Server::deliverResponse(const Job& job, std::string response) {
  if (config_.faults.slowClientNs > 0)
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(config_.faults.slowClientNs));
  job.deliver(std::move(response));
  const std::uint64_t answered =
      served_.fetch_add(1, std::memory_order_relaxed) + 1;
  // SIGKILL-equivalent death after the Nth answered query: the response
  // above already reached the client, mirroring a crash between answer
  // and the next checkpoint barrier.
  if (config_.faults.crashAfterQueries > 0 &&
      answered == config_.faults.crashAfterQueries)
    CrashInjector::crash();
}

void Server::runBatch(std::istream& in, std::ostream& out) {
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, std::string> ready;
  std::uint64_t next = 0;
  std::uint64_t submitted = 0;

  RequestParser probeParser;
  Request probe;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Delta verbs mutate shared transaction state: with several query
    // workers a later batch line could overtake them (commit racing past
    // its own begin). Barrier on them — everything before the verb
    // finishes first, and the verb finishes before the next line goes in.
    std::string probeErr;
    const bool barrier =
        probeParser.parse(line, &probe, &probeErr) &&
        (probe.op == RequestOp::kBeginDelta ||
         probe.op == RequestOp::kAddAxiom ||
         probe.op == RequestOp::kRetractAxiom ||
         probe.op == RequestOp::kCommitDelta ||
         probe.op == RequestOp::kAbortDelta);
    const std::uint64_t seq = submitted++;
    const bool accepted =
        submit(line, [&mu, &cv, &ready, seq](std::string resp) {
          std::lock_guard<std::mutex> lock(mu);
          ready.emplace(seq, std::move(resp));
          cv.notify_all();
        });
    if (!accepted) {
      std::string why;
      if (!probeParser.parse(line, &probe, &why)) resetForErrorEcho(probe);
      std::lock_guard<std::mutex> lock(mu);
      ready.emplace(seq, errorResponse(probe, "shutdown"));
    }
    // Opportunistic in-order flush keeps the reorder buffer small.
    std::unique_lock<std::mutex> lock(mu);
    const auto flush = [&out, &ready, &next] {
      for (auto it = ready.find(next); it != ready.end();
           it = ready.find(next)) {
        out << it->second << '\n';
        ready.erase(it);
        ++next;
      }
    };
    flush();
    if (barrier)
      cv.wait(lock, [&flush, &next, seq] {
        flush();
        return next > seq;
      });
  }

  std::unique_lock<std::mutex> lock(mu);
  while (next < submitted) {
    cv.wait(lock, [&ready, &next] { return ready.count(next) != 0; });
    out << ready[next] << '\n';
    ready.erase(next);
    ++next;
  }
  out.flush();
}

namespace {

/// One TCP client. The fd closes when the LAST reference dies, so a
/// pending query's deliver closure keeps the connection writable even
/// after the reader thread saw EOF — in-flight answers always flush.
struct Connection {
  explicit Connection(int f) : fd(f) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& response) {
    std::lock_guard<std::mutex> lock(writeMu);
    std::string msg = response;
    msg.push_back('\n');
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n = ::write(fd, msg.data() + off, msg.size() - off);
      if (n <= 0) return;  // client gone; drop silently
      off += static_cast<std::size_t>(n);
    }
  }

  const int fd;
  std::mutex writeMu;
};

}  // namespace

bool Server::runSocket(std::uint16_t port, int wakeFd, std::string* error) {
  const int listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd < 0) {
    if (error != nullptr) *error = "socket() failed";
    return false;
  }
  const int one = 1;
  ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listenFd, 64) < 0) {
    if (error != nullptr)
      *error = "cannot bind 127.0.0.1:" + std::to_string(port);
    ::close(listenFd);
    return false;
  }

  std::mutex connMu;
  std::vector<std::weak_ptr<Connection>> conns;
  std::vector<std::thread> readers;

  for (;;) {
    pollfd fds[2] = {{listenFd, POLLIN, 0}, {wakeFd, POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int clientFd = ::accept(listenFd, nullptr, nullptr);
    if (clientFd < 0) continue;

    auto conn = std::make_shared<Connection>(clientFd);
    {
      std::lock_guard<std::mutex> lock(connMu);
      conns.push_back(conn);
    }
    readers.emplace_back([this, conn] {
      std::string buf;
      bool discarding = false;  // oversized line: drop bytes to next '\n'
      char chunk[4096];
      for (;;) {
        const ssize_t n = ::read(conn->fd, chunk, sizeof chunk);
        if (n <= 0) break;  // EOF, error, or SHUT_RD from drain
        for (ssize_t i = 0; i < n; ++i) {
          const char c = chunk[i];
          if (c == '\n') {
            if (discarding) {
              discarding = false;
            } else if (!buf.empty()) {
              // Shed path answers inline via the same deliver closure.
              trySubmit(std::move(buf),
                        [conn](std::string resp) { conn->send(resp); });
            }
            buf.clear();
            continue;
          }
          if (discarding) continue;
          buf.push_back(c);
          if (buf.size() > config_.maxLineBytes) {
            conn->send(parseErrorResponse("line too long"));
            buf.clear();
            discarding = true;
          }
        }
      }
    });
  }

  ::close(listenFd);
  // Force EOF on every live reader, then let in-flight responses flush:
  // the last deliver closure's shared_ptr closes each fd.
  {
    std::lock_guard<std::mutex> lock(connMu);
    for (auto& weak : conns)
      if (auto conn = weak.lock()) ::shutdown(conn->fd, SHUT_RD);
  }
  for (std::thread& r : readers)
    if (r.joinable()) r.join();
  return true;
}

}  // namespace owlcl
