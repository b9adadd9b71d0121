// Hard-capped child runs for bench_e2e.
//
// A row that may never finish (SIGTERM is ignored inside reasoner calls,
// and a whole-run watchdog budget does not stop the EL routing phase) runs
// in a forked child. The child sends its result back over a pipe; the
// parent SIGKILLs it when the cap passes and reaps it before returning, so
// no child outlives its cap.
#pragma once

#include <sys/types.h>

#include <functional>
#include <string>

namespace bench {

enum class CapOutcome {
  kFinished,  ///< child exited 0 after sending its whole payload
  kKilled,    ///< the cap passed; the child was SIGKILLed and reaped
  kCrashed,   ///< child died or exited non-zero before the cap
};

struct CappedRun {
  CapOutcome outcome = CapOutcome::kCrashed;
  std::string payload;     ///< bytes the child returned (kFinished only)
  double wallSeconds = 0;  ///< fork to reap
  pid_t pid = -1;          ///< the child (already reaped on return)
};

/// Number of threads in this process (from /proc/self/task).
int threadCount();

/// Forks, runs `child` in the child and sends its return value back. Must
/// be called while this process has exactly one thread: a fork taken with
/// other threads alive can inherit a lock one of them held. Returns after
/// the child has been reaped, at most a moment after `capSeconds`.
CappedRun runCapped(double capSeconds,
                    const std::function<std::string()>& child);

}  // namespace bench
