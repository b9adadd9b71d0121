// Ablation: group-division scheduling discipline (Section III-A2 uses
// round-robin). Compares round-robin and least-loaded dispatch on a
// skewed workload (QCR hardness makes group costs uneven, which is where
// disciplines differ).
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace owlcl;
  using namespace owlcl::bench;

  printHeader("Ablation — scheduling discipline (16 virtual workers)");
  std::printf("%-26s %16s %16s\n", "ontology", "round-robin",
              "least-loaded");

  for (const PaperOntologyRow& row : oreQcr2014Suite()) {
    GeneratedOntology g = generateOntology(row.config);
    const OntologyMetrics m = computeMetrics(*g.tbox);
    auto speedupWith = [&](SchedulingPolicy policy) {
      MockReasoner mock(g.truth, costModelForRow(row, m.axioms));
      ClassifierConfig config;
      config.scheduling = policy;
      VirtualExecutor exec(16);
      ParallelClassifier classifier(*g.tbox, mock, config);
      return classifier.classify(exec).speedup();
    };
    std::printf("%-26s %15.2fx %15.2fx\n", row.config.name.c_str(),
                speedupWith(SchedulingPolicy::kRoundRobin),
                speedupWith(SchedulingPolicy::kLeastLoaded));
  }
  return 0;
}
