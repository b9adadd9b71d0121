// Reference descendants answer for the compiled TaxonomySnapshot: a BFS
// down the DAG from the concept's node, members of every strictly-lower
// node (⊥ included), names sorted, serialized as a JSON string array.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "owl/tbox.hpp"
#include "taxonomy/taxonomy.hpp"
#include "util/strings.hpp"

namespace owlcl {

struct RefDescendants {
  std::size_t count = 0;
  std::string json;
};

inline RefDescendants walkDescendants(const Taxonomy& tax, const TBox& tbox,
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

}  // namespace owlcl
