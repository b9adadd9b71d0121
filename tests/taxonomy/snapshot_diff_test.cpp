// Differential test for the compiled TaxonomySnapshot (DESIGN.md §16):
// the interval-label + extra-ancestor-bitset subs? check and the
// precompiled descendants pools must reproduce the taxonomy walk
// byte-for-byte — all pairs, all concepts — over DAG-heavy shapes:
// multiple parents, equivalence classes, unsatisfiable concepts at ⊥,
// and concept names that need JSON escaping.
#include "taxonomy/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/sequential.hpp"
#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "owl/tbox.hpp"
#include "parallel/bit_kernels.hpp"
#include "taxonomy/taxonomy.hpp"
#include "util/crc32.hpp"
#include "util/strings.hpp"

namespace owlcl {
namespace {

/// The serve walk path's descendants answer, replicated: BFS down the
/// DAG from the concept's node, members of every strictly-lower node
/// (⊥ included), names sorted, serialized as a JSON string array.
struct RefDescendants {
  std::size_t count = 0;
  std::string json;
};

RefDescendants walkDescendants(const Taxonomy& tax, const TBox& tbox,
                               ConceptId c) {
  const Taxonomy::NodeId start = tax.nodeOf(c);
  std::vector<char> seen(tax.nodeCount(), 0);
  std::vector<Taxonomy::NodeId> stack{start};
  seen[start] = 1;
  std::vector<std::string> names;
  while (!stack.empty()) {
    const Taxonomy::NodeId cur = stack.back();
    stack.pop_back();
    if (cur != start)
      for (const ConceptId m : tax.node(cur).members)
        names.push_back(tbox.conceptName(m));
    for (const Taxonomy::NodeId child : tax.node(cur).children)
      if (!seen[child]) {
        seen[child] = 1;
        stack.push_back(child);
      }
  }
  std::sort(names.begin(), names.end());
  RefDescendants ref;
  ref.count = names.size();
  ref.json.push_back('[');
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) ref.json.push_back(',');
    ref.json.push_back('"');
    ref.json += jsonEscape(names[i]);
    ref.json.push_back('"');
  }
  ref.json.push_back(']');
  return ref;
}

/// Builds the snapshot (with and without the vectorized kernels) and
/// checks full subs?/sat?/descendants parity against the walk.
void expectParity(const Taxonomy& tax, const TBox& tbox) {
  const BitKernels* kernelChoices[] = {nullptr, &activeBitKernels()};
  for (const BitKernels* kernels : kernelChoices) {
    const auto snap =
        TaxonomySnapshot::build(tax, tbox, /*complete=*/true,
                                /*generation=*/7, kernels);
    ASSERT_NE(snap, nullptr);
    const std::size_t n = tbox.conceptCount();
    for (ConceptId sup = 0; sup < n; ++sup) {
      ASSERT_TRUE(snap->placed(sup));
      EXPECT_EQ(snap->satisfiable(sup),
                tax.nodeOf(sup) != Taxonomy::kBottomNode)
          << "sat? diverged for " << tbox.conceptName(sup);
      for (ConceptId sub = 0; sub < n; ++sub)
        EXPECT_EQ(snap->subsumes(sup, sub), tax.subsumes(sup, sub))
            << "subs? diverged: " << tbox.conceptName(sub) << " ⊑ "
            << tbox.conceptName(sup);
    }
    for (ConceptId c = 0; c < n; ++c) {
      const RefDescendants ref = walkDescendants(tax, tbox, c);
      EXPECT_EQ(snap->descendantCount(c), ref.count)
          << "descendant count diverged for " << tbox.conceptName(c);
      EXPECT_EQ(snap->descendantsJson(c), ref.json)
          << "descendants JSON diverged for " << tbox.conceptName(c);
    }
  }
}

TEST(SnapshotDiffTest, ChainEquivalenceUnsatAndEscapedNames) {
  TBox tbox;
  const ConceptId a = tbox.declareConcept("plain");
  const ConceptId b = tbox.declareConcept("needs \"escaping\"\n\ttoo");
  const ConceptId c = tbox.declareConcept("back\\slash");
  const ConceptId d = tbox.declareConcept("unsat\x01ctl");
  Taxonomy tax(4);
  const auto top2 = tax.addNode({a, c});  // equivalence class {plain, back\slash}
  const auto low = tax.addNode({b});
  tax.addEdge(top2, low);
  tax.assignToBottom(d);
  tax.finalize();
  expectParity(tax, tbox);
}

TEST(SnapshotDiffTest, DiamondMultiParent) {
  TBox tbox;
  for (int i = 0; i < 6; ++i)
    tbox.declareConcept("D" + std::to_string(i));
  Taxonomy tax(6);
  const auto a = tax.addNode({0});
  const auto b = tax.addNode({1});
  const auto c = tax.addNode({2});
  const auto d = tax.addNode({3});
  const auto e = tax.addNode({4, 5});  // equivalence class under two parents
  tax.addEdge(a, b);
  tax.addEdge(a, c);
  tax.addEdge(b, d);
  tax.addEdge(c, d);  // diamond join: d has two parents
  tax.addEdge(b, e);
  tax.addEdge(c, e);
  tax.finalize();
  expectParity(tax, tbox);
}

// Randomized DAG-heavy taxonomies: random equivalence grouping, 1–3
// parents per node (non-tree edges force the extra-ancestor bitsets),
// and a few unsatisfiable concepts at ⊥.
TEST(SnapshotDiffTest, RandomDagsMatchWalkExactly) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t concepts = 50 + seed * 7;
    TBox tbox;
    for (std::size_t i = 0; i < concepts; ++i)
      tbox.declareConcept("C" + std::to_string(i));

    Taxonomy tax(concepts);
    std::vector<ConceptId> ids(concepts);
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);

    std::size_t idx = 0;
    for (std::size_t u = 0; u < 3; ++u) tax.assignToBottom(ids[idx++]);

    std::vector<Taxonomy::NodeId> nodes;
    while (idx < concepts) {
      std::vector<ConceptId> members{ids[idx++]};
      while (idx < concepts && rng() % 100 < 12)  // occasional equivalences
        members.push_back(ids[idx++]);
      std::sort(members.begin(), members.end());
      nodes.push_back(tax.addNode(std::move(members)));
    }
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      std::vector<std::size_t> picks;
      const std::size_t want = 1 + rng() % 3;
      while (picks.size() < want && picks.size() < i) {
        const std::size_t p = rng() % i;
        if (std::find(picks.begin(), picks.end(), p) == picks.end())
          picks.push_back(p);
      }
      for (const std::size_t p : picks) tax.addEdge(nodes[p], nodes[i]);
    }
    tax.finalize();
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectParity(tax, tbox);
  }
}

/// What the compile produced for a generated paper corpus before the
/// one-matrix rewrite: pool sizes and a CRC over every concept's
/// descendants array, in concept-id order.
struct PinnedPools {
  const char* row;
  std::size_t extraWords;
  std::size_t descendantIds;
  std::size_t compiledBytes;
  std::uint32_t descendantsCrc;
};

void expectPinnedPools(const PinnedPools& pin) {
  GenConfig config;
  for (const PaperOntologyRow& row : oreEl2015Suite())
    if (row.config.name == pin.row) config = row.config;
  ASSERT_EQ(config.name, pin.row);
  const GeneratedOntology g = generateOntology(config);
  MockReasoner oracle(g.truth);
  const Taxonomy tax = EnhancedTraversalClassifier(*g.tbox, oracle).classify().taxonomy;
  const auto snap = TaxonomySnapshot::build(tax, *g.tbox, /*complete=*/true,
                                            /*generation=*/0);
  const TaxonomySnapshot::BuildStats& st = snap->stats();
  EXPECT_EQ(st.extraWords, pin.extraWords);
  EXPECT_EQ(st.descendantIds, pin.descendantIds);
  EXPECT_EQ(st.compiledBytes, pin.compiledBytes);
  std::uint32_t crc = 0;
  for (ConceptId c = 0; c < g.tbox->conceptCount(); ++c) {
    const std::string& json = snap->descendantsJson(c);
    crc = crc32(json.data(), json.size(), crc);
  }
  EXPECT_EQ(crc, pin.descendantsCrc);
}

TEST(SnapshotDiffTest, PinnedPoolsOnGeneratedOboPrevious) {
  expectPinnedPools({"obo.PREVIOUS", 27, 5248, 192845, 287829154u});
}

TEST(SnapshotDiffTest, PinnedPoolsOnGeneratedWbbt) {
  expectPinnedPools({"WBbt.obo", 73492, 64474, 2234074, 1846921520u});
}

}  // namespace
}  // namespace owlcl
