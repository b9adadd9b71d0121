// bench_e2e — paper-corpus end-to-end benchmark.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--trace-out F]
//
// Runs one workload (runners.hpp) and prints one JSON object per corpus
// row, then, as the last line, {"correct","attempted","failed","metrics"}:
// the end-to-end metrics, or with --trace 1 the per-layer ones (whose spans
// go to --trace-out). Exit status: 0 when every output matched the
// generator's ground truth, 1 when one did not, 2 on bad arguments.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "runners.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               why.c_str());
  for (const std::string& w : bench::workloadNames())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool parseUint(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || *end != '\0' || errno != 0) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      if (!parseUint(value.c_str(), &opts.seed))
        usage("--seed needs a non-negative integer");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0) || opts.seconds > 3600)
        usage("--seconds needs a number in (0, 3600]");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace needs 0 or 1");
      opts.trace = value == "1";
    } else if (arg == "--trace-out") {
      opts.traceOut = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (opts.workload.empty()) usage("--workload is required");

  bench::RunReport rep;
  try {
    rep = bench::runWorkload(opts);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }

  for (const std::string& row : rep.rows) std::printf("%s\n", row.c_str());
  std::printf(R"({"correct": %s, "attempted": %llu, "failed": %llu, "metrics": {)",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const bench::Metric& m = rep.metrics[i];
    std::printf(R"(%s"%s": {"value": %.17g, "unit": "%s"})", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return rep.correct ? 0 : 1;
}
