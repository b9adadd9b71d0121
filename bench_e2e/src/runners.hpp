// bench_e2e workloads. One run executes one workload in this process:
// corpus set-up, a measured loop of --seconds, the ground-truth gate on
// every output, and then the end-to-end metrics or, for a traced run, the
// per-layer ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string traceOut;  ///< Chrome trace-event file of a traced run ("" = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< wrong answers, dnf rows, failed requests
  bool correct = true;       ///< no output disagreed with the ground truth
  std::vector<Metric> metrics;
  std::vector<std::string> rows;  ///< per-corpus detail, one JSON object each
};

/// The workloads runWorkload accepts.
std::vector<std::string> workloadNames();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunReport runWorkload(const RunOptions& opts);

}  // namespace bench
