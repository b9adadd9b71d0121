#include "taxonomy/verify.hpp"

#include <algorithm>

#include "parallel/bit_kernels.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"
#include "util/strings.hpp"

namespace owlcl {

std::string TaxonomyIssues::summary() const {
  if (problems.empty()) return "ok";
  std::string s = strprintf("%zu problem(s):", problems.size());
  for (const std::string& p : problems) {
    s += "\n  - ";
    s += p;
  }
  return s;
}

namespace {

using NodeId = Taxonomy::NodeId;

/// Strict descendants (children-edge reachability) of *every* node at
/// once: desc[id] ⊇ {ch} ∪ desc[ch] for each child edge, iterated as a
/// word-parallel uniteWith fixpoint. Replaces the per-query DFS that made
/// the acyclicity check O(n²) and the transitive-reduction check O(n³)
/// node visits; each fixpoint pass is O(edges · n/64) words and the pass
/// count is bounded by the hierarchy depth (a cycle — which this verifier
/// must tolerate, it's what it detects — converges too, leaving
/// desc[id].test(id) set as the cycle witness).
std::vector<DynamicBitset> descendantsBelow(const Taxonomy& tax) {
  const std::size_t nn = tax.nodeCount();
  std::vector<DynamicBitset> desc(nn);
  for (NodeId id = 0; id < nn; ++id) {
    desc[id] = DynamicBitset(nn);
    for (NodeId ch : tax.node(id).children) desc[id].set(ch);
  }
  // The union kernel runs on the CPUID-chosen bit-kernels backend: this
  // fixpoint is the verify pass's hot loop.
  const BitKernels& bk = activeBitKernels();
  bool grew = true;
  while (grew) {
    grew = false;
    for (std::size_t i = nn; i-- > 0;) {
      const NodeId id = static_cast<NodeId>(i);
      for (NodeId ch : tax.node(id).children)
        if (bk.orInto(desc[id].mutableWords(), desc[ch].words(),
                      desc[id].wordCountUsed()))
          grew = true;
    }
  }
  return desc;
}

/// Taxonomy::subsumes, answered from one memoized descendants pass
/// instead of a DFS per pair.
class AssertedSubsumption {
 public:
  explicit AssertedSubsumption(const Taxonomy& tax)
      : tax_(tax), desc_(descendantsBelow(tax)) {}

  bool operator()(ConceptId sup, ConceptId sub) const {
    const NodeId a = tax_.nodeOf(sup);
    const NodeId b = tax_.nodeOf(sub);
    OWLCL_ASSERT_MSG(a != Taxonomy::kNoNode && b != Taxonomy::kNoNode,
                     "concept not classified");
    return b == Taxonomy::kBottomNode || a == Taxonomy::kTopNode || a == b ||
           desc_[a].test(b);
  }

 private:
  const Taxonomy& tax_;
  std::vector<DynamicBitset> desc_;
};

}  // namespace

TaxonomyIssues verifyStructure(const Taxonomy& tax) {
  TaxonomyIssues issues;
  const std::size_t nn = tax.nodeCount();

  // Adjacency mirroring + duplicates.
  for (NodeId id = 0; id < nn; ++id) {
    const auto& node = tax.node(id);
    for (NodeId ch : node.children) {
      const auto& parents = tax.node(ch).parents;
      if (std::count(parents.begin(), parents.end(), id) != 1)
        issues.problems.push_back(
            strprintf("edge %u->%u not mirrored exactly once", id, ch));
    }
    auto sortedUnique = [&issues, id](const std::vector<NodeId>& v,
                                      const char* what) {
      for (std::size_t i = 1; i < v.size(); ++i)
        if (v[i - 1] >= v[i]) {
          issues.problems.push_back(
              strprintf("node %u: %s not sorted/unique", id, what));
          return;
        }
    };
    sortedUnique(node.children, "children");
    sortedUnique(node.parents, "parents");
  }

  // Membership partition.
  std::vector<int> owner(tax.conceptCount(), -1);
  for (NodeId id = 0; id < nn; ++id) {
    if (id != Taxonomy::kTopNode && id != Taxonomy::kBottomNode &&
        tax.node(id).members.empty())
      issues.problems.push_back(strprintf("node %u has no members", id));
    for (ConceptId c : tax.node(id).members) {
      if (owner[c] != -1)
        issues.problems.push_back(
            strprintf("concept %u in several nodes", c));
      owner[c] = static_cast<int>(id);
      if (tax.nodeOf(c) != id)
        issues.problems.push_back(
            strprintf("nodeOf(%u) disagrees with membership", c));
    }
  }
  for (ConceptId c = 0; c < tax.conceptCount(); ++c)
    if (owner[c] == -1)
      issues.problems.push_back(strprintf("concept %u unplaced", c));

  // Acyclicity + ⊤-reachability + ⊥-reachability, all answered from one
  // memoized descendants computation.
  const std::vector<DynamicBitset> desc = descendantsBelow(tax);
  const DynamicBitset& belowTop = desc[Taxonomy::kTopNode];
  for (NodeId id = 0; id < nn; ++id) {
    if (desc[id].test(id))
      issues.problems.push_back(strprintf("cycle through node %u", id));
    if (id != Taxonomy::kTopNode && !belowTop.test(id))
      issues.problems.push_back(strprintf("node %u unreachable from top", id));
    if (id != Taxonomy::kBottomNode &&
        !desc[id].test(Taxonomy::kBottomNode))
      issues.problems.push_back(
          strprintf("node %u does not reach bottom", id));
  }

  // Transitive reduction: no edge that another child-path already implies.
  // Word-parallel: an edge id→ch is redundant iff ch lies in some *other*
  // child's descendant set, i.e. in ∪_{c ∈ children} desc[c] (a ch that
  // appears only in its own desc[ch] is a cycle, reported above). The
  // witness scan runs only for the rare offending edge.
  DynamicBitset viaChildren(nn);
  for (NodeId id = 0; id < nn; ++id) {
    const auto& children = tax.node(id).children;
    if (children.size() < 2) continue;
    viaChildren.resetAll();
    for (NodeId ch : children) viaChildren |= desc[ch];
    for (NodeId ch : children) {
      if (!viaChildren.test(ch)) continue;
      for (NodeId other : children) {
        if (other == ch) continue;
        if (desc[other].test(ch)) {
          issues.problems.push_back(strprintf(
              "edge %u->%u redundant (also reachable via %u)", id, ch, other));
          break;
        }
      }
    }
  }
  return issues;
}

TaxonomyIssues verifyAgainstOracle(
    const Taxonomy& tax,
    const std::function<bool(ConceptId sup, ConceptId sub)>& oracle) {
  TaxonomyIssues issues;
  const std::size_t n = tax.conceptCount();
  const AssertedSubsumption asserted(tax);
  for (ConceptId sup = 0; sup < n; ++sup) {
    for (ConceptId sub = 0; sub < n; ++sub) {
      const bool got = asserted(sup, sub);
      const bool want = oracle(sup, sub);
      if (got != want)
        issues.problems.push_back(
            strprintf("pair (sup=%u, sub=%u): taxonomy=%d oracle=%d", sup, sub,
                      got, want));
      if (issues.problems.size() > 20) {
        issues.problems.push_back("... (truncated)");
        return issues;
      }
    }
  }
  return issues;
}

TaxonomyIssues verifySoundAgainstOracle(
    const Taxonomy& tax,
    const std::function<bool(ConceptId sup, ConceptId sub)>& oracle) {
  TaxonomyIssues issues;
  const std::size_t n = tax.conceptCount();
  const AssertedSubsumption asserted(tax);
  for (ConceptId sup = 0; sup < n; ++sup) {
    for (ConceptId sub = 0; sub < n; ++sub) {
      if (asserted(sup, sub) && !oracle(sup, sub))
        issues.problems.push_back(strprintf(
            "unsound pair (sup=%u, sub=%u): asserted but not entailed", sup,
            sub));
      if (issues.problems.size() > 20) {
        issues.problems.push_back("... (truncated)");
        return issues;
      }
    }
  }
  return issues;
}

}  // namespace owlcl
