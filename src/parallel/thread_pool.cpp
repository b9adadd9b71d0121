#include "parallel/thread_pool.hpp"

#include <utility>

#include "util/assert.hpp"

namespace owlcl {

namespace {
// Identifies the pool worker the current thread belongs to (if any), so
// submit() from inside a task can take the lock-free Chase–Lev owner path.
thread_local ThreadPool* tlsPool = nullptr;
thread_local std::size_t tlsWorker = 0;

// Spin budget before parking. Deliberately tiny: on an oversubscribed
// host (more workers than cores) long spins steal cycles from the worker
// that actually holds work, so we yield every iteration and give up fast.
constexpr int kParkSpins = 32;
}  // namespace

ThreadPool::ThreadPool(std::size_t workerCount) {
  OWLCL_ASSERT(workerCount > 0);
  perWorker_.reserve(workerCount);
  for (std::size_t i = 0; i < workerCount; ++i)
    perWorker_.push_back(std::make_unique<WorkerState>());
  workers_.reserve(workerCount);
  for (std::size_t i = 0; i < workerCount; ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  {
    // Close the race against a worker between its park predicate check
    // and its cv wait: taking the sleep mutex orders us after it.
    std::lock_guard<std::mutex> lock(sleepMu_);
  }
  sleepCv_.notify_all();
  for (auto& t : workers_) t.join();
  // Tasks submitted during destruction (unsupported, but don't leak).
  for (auto& w : perWorker_) {
    while (Task* t = w->deque.popBottom()) delete t;
    for (Task* t : w->inbox) delete t;
  }
}

// --- submission --------------------------------------------------------------

void ThreadPool::submit(Task task) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  Task* heap = new Task(std::move(task));
  if (tlsPool == this) {
    // Owner path: lock-free push onto the submitting worker's own deque.
    perWorker_[tlsWorker]->deque.pushBottom(heap);
  } else {
    // External injection: spread round-robin over the worker inboxes so
    // a burst of dispatches lands distributed, not convoyed.
    WorkerState& w = *perWorker_[nextInbox_.fetch_add(
                                    1, std::memory_order_relaxed) %
                                perWorker_.size()];
    std::lock_guard<std::mutex> lock(w.inboxMu);
    w.inbox.push_back(heap);
    w.inboxSize.fetch_add(1, std::memory_order_relaxed);
  }
  signalWork();
}

void ThreadPool::waitIdle() {
  {
    std::unique_lock<std::mutex> lock(idleMu_);
    idleCv_.wait(lock,
                 [this] { return pending_.load(std::memory_order_acquire) == 0; });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(excMu_);
    error = std::exchange(firstException_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

std::uint64_t ThreadPool::stealCount() const {
  std::uint64_t total = 0;
  for (const auto& w : perWorker_)
    total += w->steals.load(std::memory_order_relaxed);
  return total;
}

// --- task bookkeeping --------------------------------------------------------

void ThreadPool::execute(Task* task) {
  Task local = std::move(*task);
  delete task;
  // Contain task failures: the worker survives, later tasks still run,
  // and the first exception is surfaced by the next waitIdle().
  std::exception_ptr error;
  try {
    local();
  } catch (...) {
    error = std::current_exception();
  }
  if (error != nullptr) {
    std::lock_guard<std::mutex> lock(excMu_);
    if (firstException_ == nullptr) firstException_ = std::move(error);
  }
  finishOne();
}

void ThreadPool::finishOne() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(idleMu_);
    idleCv_.notify_all();
  }
}

// --- workers -----------------------------------------------------------------

void ThreadPool::signalWork() {
  // Eventcount publish: bump the epoch first (seq_cst orders it against
  // the sleeper's registration), then wake one sleeper if someone is
  // parked — any worker can run any task.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  std::lock_guard<std::mutex> lock(sleepMu_);
  sleepCv_.notify_one();
}

void ThreadPool::park(std::uint32_t epochSeen) {
  for (int spin = 0; spin < kParkSpins; ++spin) {
    if (epoch_.load(std::memory_order_seq_cst) != epochSeen ||
        stop_.load(std::memory_order_relaxed))
      return;
    std::this_thread::yield();
  }
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(sleepMu_);
    // The wait predicate re-validates the epoch at entry: if a producer
    // published between our failed scan and here, we never block. A
    // producer that misses our sleepers_ increment must (seq_cst total
    // order) have bumped the epoch before it — which this check sees.
    sleepCv_.wait(lock, [this, epochSeen] {
      return epoch_.load(std::memory_order_relaxed) != epochSeen ||
             stop_.load(std::memory_order_relaxed);
    });
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

bool ThreadPool::runOne(WorkerState& self, std::size_t index) {
  // 1. Own deque — the lock-free Chase–Lev owner pop.
  if (Task* t = self.deque.popBottom()) {
    execute(t);
    return true;
  }
  // 2. Own inbox: transfer everything into the deque so the surplus is
  //    stealable while we work. Pushed in reverse so popBottom yields
  //    submission order (keeps single-worker pools strictly FIFO); a
  //    thief's top steal takes the newest — order across workers is
  //    unordered anyway.
  if (self.inboxSize.load(std::memory_order_acquire) > 0) {
    std::deque<Task*> grabbed;
    {
      std::lock_guard<std::mutex> lock(self.inboxMu);
      grabbed.swap(self.inbox);
      self.inboxSize.store(0, std::memory_order_relaxed);
    }
    for (auto it = grabbed.rbegin(); it != grabbed.rend(); ++it)
      self.deque.pushBottom(*it);
    if (Task* t = self.deque.popBottom()) {
      execute(t);
      return true;
    }
  }
  // 3. Steal: other workers' deques first (lock-free), then their
  //    inboxes (try_lock only — never convoy behind a busy producer).
  const std::size_t w = perWorker_.size();
  for (std::size_t off = 1; off < w; ++off) {
    WorkerState& victim = *perWorker_[(index + off) % w];
    if (Task* t = victim.deque.steal()) {
      self.steals.fetch_add(1, std::memory_order_relaxed);
      execute(t);
      return true;
    }
  }
  for (std::size_t off = 1; off < w; ++off) {
    WorkerState& victim = *perWorker_[(index + off) % w];
    if (victim.inboxSize.load(std::memory_order_acquire) == 0) continue;
    Task* t = nullptr;
    {
      std::unique_lock<std::mutex> lock(victim.inboxMu, std::try_to_lock);
      if (lock.owns_lock() && !victim.inbox.empty()) {
        t = victim.inbox.front();
        victim.inbox.pop_front();
        victim.inboxSize.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (t != nullptr) {
      self.steals.fetch_add(1, std::memory_order_relaxed);
      execute(t);
      return true;
    }
  }
  return false;
}

void ThreadPool::workerLoop(std::size_t index) {
  tlsPool = this;
  tlsWorker = index;
  WorkerState& self = *perWorker_[index];
  for (;;) {
    // Epoch read *before* the scan: any submission that lands during a
    // failed scan changes the epoch and keeps us from parking past it.
    const std::uint32_t e = epoch_.load(std::memory_order_seq_cst);
    if (runOne(self, index)) continue;
    if (stop_.load(std::memory_order_acquire)) return;
    park(e);
  }
}

}  // namespace owlcl
