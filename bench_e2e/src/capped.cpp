#include "capped.hpp"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

namespace bench {

int threadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(dir))
    if (e->d_name[0] != '.') ++n;
  ::closedir(dir);
  return n;
}

namespace {

using Clock = std::chrono::steady_clock;

void writeAll(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t w = ::write(fd, s.data() + off, s.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) ::_exit(3);
    off += static_cast<std::size_t>(w);
  }
}

int msUntil(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<long long>(1, left.count() + 1));
}

}  // namespace

CappedRun runCapped(double capSeconds,
                    const std::function<std::string()>& child) {
  if (threadCount() != 1)
    throw std::logic_error("runCapped needs a single-threaded parent");
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("runCapped: pipe failed");
  std::fflush(nullptr);  // the child must not replay buffered parent output

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(capSeconds));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("runCapped: fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      writeAll(fds[1], child());
    } catch (...) {
      code = 2;
    }
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);

  CappedRun run;
  run.pid = pid;
  bool killed = false;
  bool eof = false;
  char buf[4096];
  while (!eof && !killed) {
    if (Clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int rc = ::poll(&p, 1, msUntil(deadline));
    if (rc <= 0) continue;  // timeout or EINTR: re-check the deadline
    const ssize_t r = ::read(fds[0], buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0)
      eof = true;
    else
      run.payload.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fds[0]);

  // A child that closed its pipe still has to exit before the cap.
  int status = 0;
  for (;;) {
    const pid_t w = ::waitpid(pid, &status, killed ? 0 : WNOHANG);
    if (w == pid) break;
    if (w < 0 && errno != EINTR) break;
    if (!killed && Clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      killed = true;
    } else if (!killed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  run.wallSeconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (killed)
    run.outcome = CapOutcome::kKilled;
  else if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
    run.outcome = CapOutcome::kFinished;
  else
    run.outcome = CapOutcome::kCrashed;
  if (run.outcome != CapOutcome::kFinished) run.payload.clear();
  return run;
}

}  // namespace bench
