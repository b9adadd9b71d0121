#include "taxonomy/taxonomy.hpp"

#include <algorithm>
#include <ostream>

#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace owlcl {

Taxonomy::Taxonomy(std::size_t conceptCount)
    : nodeOf_(conceptCount, kNoNode) {
  nodes_.resize(2);  // kTopNode, kBottomNode
}

Taxonomy::NodeId Taxonomy::addNode(std::vector<ConceptId> members) {
  OWLCL_ASSERT(!finalized_);
  OWLCL_ASSERT(!members.empty());
  const NodeId id = static_cast<NodeId>(nodes_.size());
  std::sort(members.begin(), members.end());
  for (ConceptId c : members) {
    OWLCL_ASSERT_MSG(nodeOf_[c] == kNoNode, "concept already placed");
    nodeOf_[c] = id;
  }
  nodes_.push_back(Node{std::move(members), {}, {}});
  return id;
}

void Taxonomy::addEdge(NodeId parent, NodeId child) {
  OWLCL_ASSERT(!finalized_);
  OWLCL_ASSERT(parent < nodes_.size() && child < nodes_.size());
  OWLCL_ASSERT(parent != child);
  // Appends; a repeated edge is dropped when finalize() de-duplicates.
  nodes_[parent].children.push_back(child);
  nodes_[child].parents.push_back(parent);
}

void Taxonomy::assignToBottom(ConceptId c) {
  OWLCL_ASSERT(!finalized_);
  OWLCL_ASSERT(nodeOf_[c] == kNoNode);
  nodeOf_[c] = kBottomNode;
  nodes_[kBottomNode].members.push_back(c);
}

void Taxonomy::finalize() {
  OWLCL_ASSERT(!finalized_);
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    if (nodes_[id].parents.empty()) addEdge(kTopNode, id);
    if (nodes_[id].children.empty()) addEdge(id, kBottomNode);
  }
  if (nodes_[kTopNode].children.empty() && nodes_.size() == 2)
    addEdge(kTopNode, kBottomNode);
  const auto sortUnique = [](std::vector<NodeId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (Node& n : nodes_) {
    sortUnique(n.parents);
    sortUnique(n.children);
    std::sort(n.members.begin(), n.members.end());
  }
  finalized_ = true;
}

bool Taxonomy::reachableDown(NodeId from, NodeId to) const {
  if (from == to) return true;
  // Iterative DFS; taxonomies are shallow, visited keeps it linear.
  DynamicBitset visited(nodes_.size());
  std::vector<NodeId> stack{from};
  visited.set(from);
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    for (NodeId ch : nodes_[cur].children) {
      if (ch == to) return true;
      if (!visited.test(ch)) {
        visited.set(ch);
        stack.push_back(ch);
      }
    }
  }
  return false;
}

bool Taxonomy::subsumes(ConceptId sup, ConceptId sub) const {
  const NodeId a = nodeOf_[sup];
  const NodeId b = nodeOf_[sub];
  OWLCL_ASSERT_MSG(a != kNoNode && b != kNoNode, "concept not classified");
  if (b == kBottomNode) return true;  // unsat sub is below everything
  if (a == kTopNode) return true;
  return reachableDown(a, b);
}

std::size_t Taxonomy::edgeCount(bool countSynthetic) const {
  std::size_t c = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    for (NodeId ch : nodes_[id].children) {
      if (!countSynthetic && (id == kTopNode || ch == kBottomNode)) continue;
      ++c;
    }
  }
  return c;
}

std::size_t Taxonomy::depth() const {
  // Longest path from ⊤ (⊥ excluded): topological DP over the DAG.
  std::vector<std::size_t> indeg(nodes_.size(), 0);
  for (const Node& n : nodes_)
    for (NodeId ch : n.children)
      if (ch != kBottomNode) ++indeg[ch];
  std::vector<std::size_t> dist(nodes_.size(), 0);
  std::vector<NodeId> queue{kTopNode};
  std::size_t best = 0;
  while (!queue.empty()) {
    const NodeId cur = queue.back();
    queue.pop_back();
    best = std::max(best, dist[cur]);
    for (NodeId ch : nodes_[cur].children) {
      if (ch == kBottomNode) continue;
      dist[ch] = std::max(dist[ch], dist[cur] + 1);
      if (--indeg[ch] == 0) queue.push_back(ch);
    }
  }
  return best;
}

namespace {
void printNodeLabel(std::ostream& out, const Taxonomy::Node& n, const TBox& tbox,
                    Taxonomy::NodeId id) {
  if (id == Taxonomy::kTopNode) {
    out << "owl:Thing";
    if (!n.members.empty()) out << " (+" << n.members.size() << " equivalents)";
    return;
  }
  if (id == Taxonomy::kBottomNode) {
    out << "owl:Nothing";
    if (!n.members.empty()) out << " (" << n.members.size() << " unsatisfiable)";
    return;
  }
  bool first = true;
  for (ConceptId c : n.members) {
    if (!first) out << " = ";
    first = false;
    out << tbox.conceptName(c);
  }
}
}  // namespace

void Taxonomy::print(std::ostream& out, const TBox& tbox,
                     std::size_t maxDepth) const {
  // DFS with indentation; nodes with several parents print once per parent.
  std::vector<std::pair<NodeId, std::size_t>> stack{{kTopNode, 0}};
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    for (std::size_t i = 0; i < depth; ++i) out << "  ";
    printNodeLabel(out, nodes_[id], tbox, id);
    out << "\n";
    if (depth >= maxDepth) continue;
    const auto& ch = nodes_[id].children;
    // Push in reverse so children print in sorted order.
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) {
      if (*it == kBottomNode) continue;
      stack.emplace_back(*it, depth + 1);
    }
  }
  if (!nodes_[kBottomNode].members.empty()) {
    printNodeLabel(out, nodes_[kBottomNode], tbox, kBottomNode);
    out << "\n";
  }
}

void Taxonomy::writeDot(std::ostream& out, const TBox& tbox) const {
  out << "digraph taxonomy {\n  rankdir=BT;\n  node [shape=box];\n";
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    out << "  n" << id << " [label=\"";
    printNodeLabel(out, nodes_[id], tbox, id);
    out << "\"];\n";
  }
  for (NodeId id = 0; id < nodes_.size(); ++id)
    for (NodeId ch : nodes_[id].children)
      out << "  n" << ch << " -> n" << id << ";\n";
  out << "}\n";
}

}  // namespace owlcl
