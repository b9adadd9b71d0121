// End-to-end byte-parity across BitKernels backends: classifying the
// shipped example ontologies with every runnable vectorized backend must
// render exactly the taxonomy the portable scalar backend renders — under
// the plain configuration and under EL routing, which drives the seeding
// pass's popcount kernels.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "owl/obo_parser.hpp"
#include "owl/parser.hpp"
#include "parallel/bit_kernels.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "taxonomy/verify.hpp"

namespace owlcl {
namespace {

using ParseFn = std::function<void(TBox&)>;

std::string classifyWithBackend(const ParseFn& parse, const BitKernels* bk,
                                ClassifierConfig config) {
  TBox tbox;
  parse(tbox);
  TableauReasoner reasoner(tbox);
  config.bitKernels = bk;
  ParallelClassifier classifier(tbox, reasoner, config);
  ThreadPool pool(4);
  RealExecutor exec(pool);
  const ClassificationResult r = classifier.classify(exec);
  EXPECT_TRUE(r.complete());
  EXPECT_TRUE(classifier.countersConsistent()) << bk->name();
  const TaxonomyIssues issues = verifyStructure(r.taxonomy);
  EXPECT_TRUE(issues.ok()) << bk->name() << ": " << issues.summary();
  std::ostringstream tree;
  r.taxonomy.print(tree, tbox);
  return tree.str();
}

void expectBackendParity(const ParseFn& parse, ClassifierConfig config,
                         const char* label) {
  const std::string baseline =
      classifyWithBackend(parse, &portableBitKernels(), config);
  ASSERT_FALSE(baseline.empty()) << label;
  const BitKernels& active = activeBitKernels();
  if (&active == &portableBitKernels()) return;
  SCOPED_TRACE(std::string(label) + " backend=" + active.name());
  EXPECT_EQ(classifyWithBackend(parse, &active, config), baseline);
}

ParseFn universityOfn() {
  return [](TBox& tbox) {
    parseFunctionalSyntaxFile(
        std::string(OWLCL_EXAMPLE_DATA_DIR) + "/university.ofn", tbox);
  };
}

ParseFn anatomyObo() {
  return [](TBox& tbox) {
    parseOboFile(std::string(OWLCL_EXAMPLE_DATA_DIR) + "/anatomy.obo", tbox);
  };
}

TEST(BitBackendParity, UniversityOfnPlain) {
  expectBackendParity(universityOfn(), {}, "university plain");
}

TEST(BitBackendParity, AnatomyOboPlain) {
  expectBackendParity(anatomyObo(), {}, "anatomy plain");
}

// Routing seeds K and settles the seeded rows before phase 1, counting
// its claims with the backend's popcount kernel; the taxonomy must stay
// byte-identical per backend.
TEST(BitBackendParity, UniversityOfnRouted) {
  ClassifierConfig config;
  config.routeEl = ElRouting::kAuto;
  expectBackendParity(universityOfn(), config, "university routed");
}

TEST(BitBackendParity, AnatomyOboRouted) {
  ClassifierConfig config;
  config.routeEl = ElRouting::kOn;  // anatomy is pure EL — routing owns it
  expectBackendParity(anatomyObo(), config, "anatomy routed");
}

}  // namespace
}  // namespace owlcl
