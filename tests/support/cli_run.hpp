// Shell helpers for the tests that drive the owlcl binary.
#pragma once

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace owlcl {

/// Runs a shell command; returns the child's exit status, 128 + the
/// signal number when a signal ended it, or -1.
inline int run(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

/// The file's bytes ("" when it cannot be read).
inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace owlcl
