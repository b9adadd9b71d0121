// Ablation: plug-in replaceability (Section I — "we use OWL reasoners as
// plug-ins... HermiT ... could be replaced by any other OWL reasoner").
// Classifies the same generated EL ontology with three backends behind the
// identical ReasonerPlugin interface, on real threads and real time:
//   * TableauReasoner   — our HermiT replacement (per-test decision)
//   * ElReasoner oracle — saturate once, answer pairs in O(1)
//   * MockReasoner      — ground-truth lookup (bookkeeping floor)
// All three must produce identical taxonomies; wall times differ.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/el_plugin.hpp"
#include "core/real_executor.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace owlcl;
  using namespace owlcl::bench;

  GenConfig cfg;
  cfg.name = "backend";
  cfg.concepts = 400;
  cfg.subClassEdges = 650;
  cfg.existentialAxioms = 150;
  cfg.equivalentAxioms = 10;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.seed = 4242;
  GeneratedOntology g = generateOntology(cfg);

  printHeader("Ablation — reasoner back-ends behind the plug-in interface");
  std::printf("EL ontology: %zu concepts, 4 real worker threads\n\n",
              g.tbox->conceptCount());
  std::printf("%-22s %14s %14s %12s\n", "backend", "wall(ms)", "tests",
              "taxonomy-edges");

  auto classifyWith = [&](const char* name, ReasonerPlugin& plugin) {
    ThreadPool pool(4);
    RealExecutor exec(pool);
    ParallelClassifier classifier(*g.tbox, plugin);
    Stopwatch sw;
    const ClassificationResult r = classifier.classify(exec);
    std::printf("%-22s %14.1f %14llu %12zu\n", name, sw.elapsedMs(),
                static_cast<unsigned long long>(plugin.testCount()),
                r.taxonomy.edgeCount());
    return r.taxonomy.edgeCount();
  };

  MockReasoner mock(g.truth);
  const std::size_t e1 = classifyWith("mock (ground truth)", mock);

  ElPlugin el(*g.tbox);
  const std::size_t e2 = classifyWith("elcore (saturation)", el);

  TableauReasoner tableau(*g.tbox);
  const std::size_t e3 = classifyWith("tableau (SHQ engine)", tableau);

  std::printf("\ntaxonomies identical: %s\n",
              (e1 == e2 && e2 == e3) ? "yes" : "NO — BUG");
  return (e1 == e2 && e2 == e3) ? 0 : 1;
}
