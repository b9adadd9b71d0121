// Speedup sweep driver: classifies one ontology repeatedly with worker
// counts w ∈ workersList on the virtual-time executor and reports the
// paper's speedup metric per point. Used by bench_fig9 / bench_fig10 /
// bench_fig11.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/plugin.hpp"
#include "simsched/virtual_executor.hpp"

namespace owlcl {

struct SweepPoint {
  std::size_t workers = 0;
  double speedup = 0.0;
  std::uint64_t elapsedNs = 0;
  std::uint64_t busyNs = 0;
  std::uint64_t reasonerTests = 0;
  std::uint64_t prunedWithoutTest = 0;
};

struct SweepResult {
  std::string name;
  std::vector<SweepPoint> points;
};

/// Runs one virtual-time classification per worker count. The plugin must
/// be stateless across runs (MockReasoner is; a fresh classifier is built
/// per point so P/K state never leaks).
SweepResult runSpeedupSweep(const std::string& name, const TBox& tbox,
                            ReasonerPlugin& plugin,
                            const std::vector<std::size_t>& workersList,
                            ClassifierConfig config = {},
                            OverheadModel overhead = {});

/// The worker counts used in Fig. 9 (1..140) and Fig. 10 (1..80).
std::vector<std::size_t> figureWorkerCounts(std::size_t maxWorkers);

/// Ceiling on a sweep's largest worker count (owlcl sweep --max-workers,
/// the figure benches' --max-workers/--workers): each point's
/// VirtualExecutor keeps one clock per virtual worker. It matches owlcl's
/// --workers ceiling and lies above the paper's 140-worker figures.
constexpr std::size_t kMaxSweepWorkers = 256;

/// Renders one "w speedup elapsed" row per point, echoing the figures'
/// axes (speedup vs number of workers/threads).
std::string renderSweepTable(const SweepResult& result);

}  // namespace owlcl
