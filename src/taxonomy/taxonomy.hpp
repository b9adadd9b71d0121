// Taxonomy — the classification output: a DAG of equivalence classes of
// named concepts between the synthetic ⊤ (root) and ⊥ (bottom) nodes,
// with edges being *direct* subsumptions (transitive reduction).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "owl/ids.hpp"
#include "owl/tbox.hpp"

namespace owlcl {

class Taxonomy {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kTopNode = 0;
  static constexpr NodeId kBottomNode = 1;
  static constexpr NodeId kNoNode = static_cast<NodeId>(-1);

  struct Node {
    std::vector<ConceptId> members;  // the equivalence class (sorted)
    std::vector<NodeId> parents;     // direct subsumers
    std::vector<NodeId> children;    // direct subsumees
  };

  /// Creates a taxonomy with only ⊤ and ⊥ over `conceptCount` concepts.
  explicit Taxonomy(std::size_t conceptCount);

  /// Adds an equivalence-class node. Members must be distinct and not yet
  /// assigned to any node.
  NodeId addNode(std::vector<ConceptId> members);

  /// Adds a direct subsumption edge parent → child (idempotent: finalize()
  /// drops repeats). Constant time.
  void addEdge(NodeId parent, NodeId child);

  /// Assigns a concept to the ⊥ node (unsatisfiable concepts).
  void assignToBottom(ConceptId c);

  /// Links parentless nodes under ⊤ and childless nodes over ⊥, sorts and
  /// de-duplicates all adjacency lists. Call once after all nodes/edges are
  /// added; linear in the edges up to the sort.
  void finalize();

  // --- queries ---------------------------------------------------------------
  std::size_t nodeCount() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  NodeId nodeOf(ConceptId c) const { return nodeOf_[c]; }
  std::size_t conceptCount() const { return nodeOf_.size(); }

  /// Is `sup` an ancestor-or-self of `sub` in the DAG? (⊤ of everything;
  /// everything of ⊥.) This is entailed subsumption: sub ⊑ sup.
  bool subsumes(ConceptId sup, ConceptId sub) const;

  bool equivalent(ConceptId a, ConceptId b) const {
    return nodeOf_[a] == nodeOf_[b] && nodeOf_[a] != kNoNode;
  }

  /// Concepts in the same class as c (including c).
  const std::vector<ConceptId>& equivalents(ConceptId c) const {
    return nodes_[nodeOf_[c]].members;
  }

  /// Number of direct edges (excluding synthetic ⊤/⊥ links when
  /// `countSynthetic` is false).
  std::size_t edgeCount(bool countSynthetic = false) const;

  /// Depth of the deepest node below ⊤ (⊥ excluded).
  std::size_t depth() const;

  // --- rendering --------------------------------------------------------------
  /// Indented tree rendering (DAG nodes with several parents repeat).
  void print(std::ostream& out, const TBox& tbox, std::size_t maxDepth = 50) const;
  /// GraphViz DOT rendering.
  void writeDot(std::ostream& out, const TBox& tbox) const;

 private:
  bool reachableDown(NodeId from, NodeId to) const;

  std::vector<Node> nodes_;
  std::vector<NodeId> nodeOf_;
  bool finalized_ = false;
};

}  // namespace owlcl
