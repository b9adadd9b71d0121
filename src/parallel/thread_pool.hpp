// Fixed-size work-stealing worker pool over per-worker Chase–Lev deques.
// Tasks a worker submits from inside a task go lock-free onto the bottom
// of its own deque; tasks injected from outside the pool are spread
// round-robin over small per-worker inboxes. A worker drains its own
// deque, then its inbox, then *steals* from other workers' deques and
// inboxes — load balance is emergent, no global lock exists, and idle
// workers park on a low-contention eventcount (spin-then-sleep; producers
// only touch the sleep mutex when a sleeper is registered).
//
// Every task is stealable: submit() from any thread hands it to the pool,
// and whichever worker runs dry first picks it up ("getAvailableThread"
// of Algorithm 1). No task is pinned to a worker.
//
// waitIdle() blocks until every submitted task has finished — the barrier
// between classification phases/cycles.
//
// Fault containment: a task that throws does NOT terminate the process or
// kill its worker. The pool captures the *first* exception, keeps running
// every remaining task (later tasks are never lost, whether they run on
// their home worker or a thief), and rethrows the captured exception from
// the next waitIdle() — so a barrier surfaces the failure to exactly one
// caller while the pool stays usable afterwards.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/work_steal_deque.hpp"

namespace owlcl {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  explicit ThreadPool(std::size_t workerCount);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a stealable task: any worker may execute it. From inside a
  /// pool task this is a lock-free push onto the submitting worker's own
  /// deque (the Chase–Lev owner path).
  void submit(Task task);

  /// Blocks until all previously submitted tasks have completed, then
  /// rethrows the first exception any task threw since the last
  /// waitIdle() (clearing it, so the pool remains usable).
  void waitIdle();

  /// Total number of tasks executed by a worker other than the one they
  /// were queued on. Monotonic; racy snapshot.
  std::uint64_t stealCount() const;

 private:
  struct alignas(64) WorkerState {
    WorkStealDeque<Task> deque;      // owner: bottom; thieves: top
    std::mutex inboxMu;              // guards inbox (externally injected)
    std::deque<Task*> inbox;
    std::atomic<std::size_t> inboxSize{0};
    std::atomic<std::uint64_t> steals{0};
  };

  void execute(Task* task);
  void finishOne();

  void workerLoop(std::size_t index);
  bool runOne(WorkerState& self, std::size_t index);
  void park(std::uint32_t epochSeen);
  void signalWork();

  // Completion / failure state.
  std::atomic<std::size_t> pending_{0};  // queued + running tasks
  std::mutex idleMu_;
  std::condition_variable idleCv_;  // pending_ reached zero
  std::mutex excMu_;
  std::exception_ptr firstException_;  // first task failure since waitIdle
  std::atomic<bool> stop_{false};

  // Eventcount sleep/wake.
  std::atomic<std::uint32_t> epoch_{0};   // bumped on every submission
  std::atomic<std::size_t> sleepers_{0};  // workers parked or parking
  std::mutex sleepMu_;
  std::condition_variable sleepCv_;
  std::atomic<std::size_t> nextInbox_{0};  // round-robin injection cursor

  std::vector<std::unique_ptr<WorkerState>> perWorker_;
  std::vector<std::thread> workers_;  // last member: joins before state dies
};

}  // namespace owlcl
