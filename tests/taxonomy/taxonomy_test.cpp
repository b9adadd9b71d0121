#include "taxonomy/taxonomy.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "owl/parser.hpp"

namespace owlcl {
namespace {

TEST(Taxonomy, EmptyHasTopAndBottom) {
  Taxonomy tax(0);
  tax.finalize();
  EXPECT_EQ(tax.nodeCount(), 2u);
  EXPECT_EQ(tax.edgeCount(true), 1u);  // ⊤ → ⊥
}

TEST(Taxonomy, SingleNodeLinksToTopAndBottom) {
  Taxonomy tax(1);
  const auto n = tax.addNode({0});
  tax.finalize();
  EXPECT_EQ(tax.nodeOf(0), n);
  EXPECT_TRUE(tax.subsumes(0, 0));
  const auto& node = tax.node(n);
  ASSERT_EQ(node.parents.size(), 1u);
  EXPECT_EQ(node.parents[0], Taxonomy::kTopNode);
  ASSERT_EQ(node.children.size(), 1u);
  EXPECT_EQ(node.children[0], Taxonomy::kBottomNode);
}

TEST(Taxonomy, ChainSubsumption) {
  Taxonomy tax(3);
  const auto a = tax.addNode({0});
  const auto b = tax.addNode({1});
  const auto c = tax.addNode({2});
  tax.addEdge(a, b);
  tax.addEdge(b, c);
  tax.finalize();
  EXPECT_TRUE(tax.subsumes(0, 2));   // c ⊑ a transitively
  EXPECT_TRUE(tax.subsumes(0, 1));
  EXPECT_FALSE(tax.subsumes(2, 0));
  EXPECT_FALSE(tax.subsumes(1, 2) == false);  // b subsumes c
  EXPECT_EQ(tax.depth(), 3u);
}

TEST(Taxonomy, EquivalenceClassMembers) {
  Taxonomy tax(3);
  tax.addNode({0, 2});
  tax.addNode({1});
  tax.finalize();
  EXPECT_TRUE(tax.equivalent(0, 2));
  EXPECT_FALSE(tax.equivalent(0, 1));
  EXPECT_EQ(tax.equivalents(0).size(), 2u);
  EXPECT_TRUE(tax.subsumes(0, 2));
  EXPECT_TRUE(tax.subsumes(2, 0));
}

TEST(Taxonomy, BottomMembersSubsumedByAll) {
  Taxonomy tax(2);
  tax.addNode({0});
  tax.assignToBottom(1);
  tax.finalize();
  EXPECT_TRUE(tax.subsumes(0, 1));   // unsat 1 below everything
  EXPECT_FALSE(tax.subsumes(1, 0));
}

TEST(Taxonomy, DiamondDagSubsumption) {
  // Diamond: a over {b, c}, both over d.
  Taxonomy tax(4);
  const auto a = tax.addNode({0});
  const auto b = tax.addNode({1});
  const auto c = tax.addNode({2});
  const auto d = tax.addNode({3});
  tax.addEdge(a, b);
  tax.addEdge(a, c);
  tax.addEdge(b, d);
  tax.addEdge(c, d);
  tax.finalize();
  EXPECT_TRUE(tax.subsumes(0, 3));
  EXPECT_TRUE(tax.subsumes(1, 3));
  EXPECT_TRUE(tax.subsumes(2, 3));
  EXPECT_FALSE(tax.subsumes(1, 2));
  EXPECT_EQ(tax.edgeCount(), 4u);
  EXPECT_EQ(tax.depth(), 3u);
}

TEST(Taxonomy, AddEdgeIsIdempotent) {
  Taxonomy tax(2);
  const auto a = tax.addNode({0});
  const auto b = tax.addNode({1});
  tax.addEdge(a, b);
  tax.addEdge(a, b);
  tax.finalize();
  EXPECT_EQ(tax.node(a).children.size(), 1u);
  EXPECT_EQ(tax.node(b).parents.size(), 1u);
}

// 100 000 parentless nodes: finalize() links each under ⊤ and over ⊥ in
// one pass (it once went through a linear duplicate scan per edge).
TEST(Taxonomy, HundredThousandRootsFinalizeLinearly) {
  constexpr std::size_t kNodes = 100000;
  Taxonomy tax(kNodes);
  for (ConceptId c = 0; c < kNodes; ++c) tax.addNode({c});
  tax.finalize();
  const auto& top = tax.node(Taxonomy::kTopNode).children;
  const auto& bottom = tax.node(Taxonomy::kBottomNode).parents;
  ASSERT_EQ(top.size(), kNodes);
  ASSERT_EQ(bottom.size(), kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto id = static_cast<Taxonomy::NodeId>(i + 2);
    ASSERT_EQ(top[i], id);
    ASSERT_EQ(bottom[i], id);
    ASSERT_EQ(tax.node(id).parents,
              std::vector<Taxonomy::NodeId>{Taxonomy::kTopNode});
    ASSERT_EQ(tax.node(id).children,
              std::vector<Taxonomy::NodeId>{Taxonomy::kBottomNode});
  }
  EXPECT_EQ(tax.edgeCount(true), 2 * kNodes);
  EXPECT_EQ(tax.depth(), 1u);
}

// One parent over 100 000 children, added in descending order and with
// every tenth edge added twice: addEdge appends, and finalize() leaves
// each list sorted with each edge once.
TEST(Taxonomy, HundredThousandChildFanOutWithDuplicates) {
  constexpr std::size_t kChildren = 100000;
  Taxonomy tax(kChildren + 1);
  const auto parent = tax.addNode({0});
  std::vector<Taxonomy::NodeId> children;
  for (ConceptId c = 1; c <= kChildren; ++c) children.push_back(tax.addNode({c}));
  for (auto it = children.rbegin(); it != children.rend(); ++it) {
    tax.addEdge(parent, *it);
    if (*it % 10 == 0) tax.addEdge(parent, *it);
  }
  tax.finalize();
  EXPECT_EQ(tax.node(parent).children, children);
  EXPECT_EQ(tax.node(parent).parents,
            std::vector<Taxonomy::NodeId>{Taxonomy::kTopNode});
  EXPECT_EQ(tax.node(Taxonomy::kTopNode).children,
            std::vector<Taxonomy::NodeId>{parent});
  for (const auto child : children) {
    ASSERT_EQ(tax.node(child).parents, std::vector<Taxonomy::NodeId>{parent});
    ASSERT_EQ(tax.node(child).children,
              std::vector<Taxonomy::NodeId>{Taxonomy::kBottomNode});
  }
  EXPECT_EQ(tax.node(Taxonomy::kBottomNode).parents, children);
  EXPECT_EQ(tax.edgeCount(false), kChildren);
  EXPECT_TRUE(tax.subsumes(0, kChildren));
}

TEST(Taxonomy, PrintAndDotRender) {
  TBox t;
  parseFunctionalSyntax("Ontology(Declaration(Class(A)) Declaration(Class(B)))", t);
  Taxonomy tax(2);
  const auto a = tax.addNode({0});
  const auto b = tax.addNode({1});
  tax.addEdge(a, b);
  tax.finalize();
  std::ostringstream text, dot;
  tax.print(text, t);
  tax.writeDot(dot, t);
  EXPECT_NE(text.str().find("owl:Thing"), std::string::npos);
  EXPECT_NE(text.str().find("A"), std::string::npos);
  EXPECT_NE(dot.str().find("digraph"), std::string::npos);
  EXPECT_NE(dot.str().find("->"), std::string::npos);
}

}  // namespace
}  // namespace owlcl
