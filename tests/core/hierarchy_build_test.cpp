// Phase 3 (Algorithm 4) on a hand-built store: the taxonomy is built from
// K read in place, so this pins what it must make of K's three awkward
// shapes — an equivalence cycle, an unsatisfiable concept, and a K edge
// that Algorithm 5 pruning removed, which leaves K not transitively
// closed. The store comes in through resumeClassify() from a checkpoint
// image with nothing left to test, so the hierarchy build is all that
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "owl/parser.hpp"
#include "reasoner/tableau_reasoner.hpp"

namespace owlcl {
namespace {

struct HandBuilt {
  TBox tbox;
  ClassifierCheckpoint ckpt;
};

// Concepts T, B, A, L, C, D, U, with
//   L ⊑ A ⊑ B ⊑ T,  C ≡ D ⊑ T,  U unsatisfiable.
// Two strict outcomes pruned K (Algorithm 5, Situation 2.3.1): T ⊐ B
// dropped A from K_T, and B ⊐ A dropped L from K_B. L stays in K_T, yet
// no candidate row of T holds it, so one-step row subtraction would make
// L a direct child of T; only the walk T → B → A → L rules it out.
void buildCase(HandBuilt& h) {
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(T)) Declaration(Class(B)) Declaration(Class(A))
      Declaration(Class(L)) Declaration(Class(C)) Declaration(Class(D))
      Declaration(Class(U))
    ))",
                        h.tbox);
  h.tbox.freeze();
  const std::size_t n = h.tbox.conceptCount();
  ASSERT_EQ(n, 7u);
  const auto id = [&h](const char* name) { return h.tbox.findConcept(name); };
  const std::vector<std::pair<const char*, const char*>> known = {
      {"T", "B"}, {"T", "C"}, {"T", "D"}, {"T", "L"},  // {"T", "A"} pruned
      {"B", "A"},                                      // {"B", "L"} pruned
      {"A", "L"}, {"C", "D"}, {"D", "C"}};

  PkStoreImage& img = h.ckpt.store;
  img.conceptCount = n;
  const std::size_t words = (n + 63) / 64;
  img.pWords.assign(n * words, 0);  // nothing left to test
  img.kWords.assign(n * words, 0);
  img.testedWords.assign(n * words, 0);
  for (std::size_t x = 0; x < n; ++x)
    for (std::size_t y = 0; y < n; ++y)
      img.testedWords[x * words + y / 64] |= std::uint64_t{1} << (y % 64);
  for (const auto& [sup, sub] : known)
    img.kWords[id(sup) * words + id(sub) / 64] |= std::uint64_t{1}
                                                  << (id(sub) % 64);
  img.sat.assign(n, static_cast<std::uint8_t>(SatStatus::kSat));
  img.sat[id("U")] = static_cast<std::uint8_t>(SatStatus::kUnsat);
  img.possibleCount = 0;
  h.ckpt.progress.completedCycles = ClassifierConfig{}.randomCycles;
}

std::string render(const Taxonomy& t, const TBox& tbox) {
  std::ostringstream out;
  t.print(out, tbox);
  t.writeDot(out, tbox);
  return out.str();
}

std::vector<std::string> childNames(const Taxonomy& t, const TBox& tbox,
                                    const char* name) {
  std::vector<std::string> out;
  const Taxonomy::Node& node = t.node(t.nodeOf(tbox.findConcept(name)));
  for (Taxonomy::NodeId c : node.children)
    for (ConceptId m : t.node(c).members) out.push_back(tbox.conceptName(m));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(HierarchyBuild, HandBuiltKGivesDirectChildrenAtEveryWorkerCount) {
  HandBuilt h;
  buildCase(h);
  if (::testing::Test::HasFatalFailure()) return;
  TBox& tbox = h.tbox;
  std::string first;
  for (std::size_t workers : {1u, 2u, 4u}) {
    TableauReasoner reasoner(tbox);
    ParallelClassifier classifier(tbox, reasoner);
    ThreadPool pool(workers);
    RealExecutor exec(pool);
    const ClassificationResult r = classifier.resumeClassify(exec, h.ckpt);
    ASSERT_TRUE(r.complete());
    EXPECT_EQ(r.testsPerformed(), 0u) << "the store had nothing left to test";
    const Taxonomy& t = r.taxonomy;

    EXPECT_TRUE(t.equivalent(tbox.findConcept("C"), tbox.findConcept("D")));
    EXPECT_EQ(t.nodeOf(tbox.findConcept("U")), Taxonomy::kBottomNode);
    EXPECT_EQ(childNames(t, tbox, "T"),
              (std::vector<std::string>{"B", "C", "D"}));
    EXPECT_EQ(childNames(t, tbox, "B"), (std::vector<std::string>{"A"}));
    EXPECT_EQ(childNames(t, tbox, "A"), (std::vector<std::string>{"L"}));
    EXPECT_EQ(childNames(t, tbox, "C"), (std::vector<std::string>{"U"}))
        << "C's only child is ⊥, which holds U";
    EXPECT_TRUE(t.subsumes(tbox.findConcept("T"), tbox.findConcept("A")));
    EXPECT_TRUE(t.subsumes(tbox.findConcept("B"), tbox.findConcept("L")));
    EXPECT_FALSE(t.subsumes(tbox.findConcept("C"), tbox.findConcept("L")));
    const Taxonomy::Node& top = t.node(Taxonomy::kTopNode);
    ASSERT_EQ(top.children.size(), 1u);
    EXPECT_EQ(top.children[0], t.nodeOf(tbox.findConcept("T")));

    const std::string bytes = render(t, tbox);
    if (first.empty())
      first = bytes;
    else
      EXPECT_EQ(bytes, first) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace owlcl
