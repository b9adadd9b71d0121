#include "gate.hpp"

#include <vector>

#include "util/bitset.hpp"
#include "util/strings.hpp"

namespace bench {

using owlcl::ConceptId;
using owlcl::DynamicBitset;
using owlcl::Taxonomy;

GateReport checkTaxonomy(const Taxonomy& tax, const owlcl::TBox& tbox,
                         const owlcl::GeneratedOntology& gen, bool soundOnly) {
  GateReport rep;
  auto mismatch = [&rep](std::string what) {
    if (rep.mismatches++ == 0) rep.first = std::move(what);
  };
  const std::size_t n = tbox.conceptCount();
  const owlcl::TBox& genTbox = *gen.tbox;
  const owlcl::GroundTruth& truth = gen.truth;
  if (genTbox.conceptCount() != n || tax.conceptCount() != n) {
    mismatch(owlcl::strprintf(
        "concept counts differ: parsed %zu, taxonomy %zu, truth %zu", n,
        tax.conceptCount(), genTbox.conceptCount()));
    return rep;
  }
  std::vector<ConceptId> toTruth(n);
  std::vector<ConceptId> fromTruth(n, owlcl::kInvalidConcept);
  for (ConceptId c = 0; c < n; ++c) {
    const ConceptId g = genTbox.findConcept(tbox.conceptName(c));
    if (g == owlcl::kInvalidConcept) {
      mismatch("concept unknown to the generator: " + tbox.conceptName(c));
      return rep;
    }
    toTruth[c] = g;
    fromTruth[g] = c;
  }

  // Closed strict ancestors of every node (parsed ids), Kahn order from ⊤.
  const std::size_t nodes = tax.nodeCount();
  std::vector<DynamicBitset> above(nodes, DynamicBitset(n));
  std::vector<std::size_t> waiting(nodes);
  for (Taxonomy::NodeId v = 0; v < nodes; ++v)
    waiting[v] = tax.node(v).parents.size();
  std::vector<Taxonomy::NodeId> order{Taxonomy::kTopNode};
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Taxonomy::Node& node = tax.node(order[i]);
    for (Taxonomy::NodeId child : node.children) {
      above[child] |= above[order[i]];
      for (ConceptId m : node.members) above[child].set(m);
      if (--waiting[child] == 0) order.push_back(child);
    }
  }
  if (order.size() != nodes) mismatch("taxonomy is not a DAG below top");

  DynamicBitset expected(n);
  DynamicBitset actual(n);
  for (ConceptId c = 0; c < n; ++c) {
    const ConceptId g = toTruth[c];
    const Taxonomy::NodeId v = tax.nodeOf(c);
    const std::string& name = tbox.conceptName(c);
    ++rep.checked;
    if (v == Taxonomy::kNoNode) {
      mismatch(name + " is not placed");
      continue;
    }
    const bool unsat = !truth.satisfiable(g);
    if (v == Taxonomy::kBottomNode) {
      if (!unsat) mismatch(name + " is placed at bottom but is satisfiable");
      continue;
    }
    if (unsat) {
      // A PARTIAL result places concepts it could not decide as satisfiable.
      if (!soundOnly) mismatch(name + " is unsatisfiable but placed above bottom");
      continue;
    }
    actual = above[v];
    for (ConceptId m : tax.node(v).members)
      if (m != c) actual.set(m);
    expected.resetAll();
    truth.ancestors[g].forEachSetBit(
        [&](std::size_t a) { expected.set(fromTruth[a]); });
    const bool good =
        soundOnly ? actual.isSubsetOf(expected) : actual == expected;
    if (!good)
      mismatch(owlcl::strprintf("%s: %zu named subsumers, truth has %zu",
                                name.c_str(), actual.count(),
                                expected.count()));
  }
  return rep;
}

}  // namespace bench
