// Ground-truth gate for bench_e2e: compares a finished taxonomy with the
// generator's GroundTruth, outside every timed region.
//
// Concepts are matched by name, because the parsed TBox may number them
// differently from the generator. Ancestry is compared as closed ancestor
// bitsets built once per taxonomy node in topological order:
// Taxonomy::subsumes is a DFS per call and takes more than 30 s over
// EMAP's n² pairs.
#pragma once

#include <cstddef>
#include <string>

#include "gen/generator.hpp"
#include "taxonomy/taxonomy.hpp"

namespace bench {

struct GateReport {
  std::size_t checked = 0;     ///< concepts compared
  std::size_t mismatches = 0;  ///< concepts placed differently from the truth
  std::string first;           ///< the first disagreement, for the log
  bool ok() const { return mismatches == 0; }
};

/// Complete mode: every concept's satisfiability and its full set of named
/// subsumers must equal the truth. Sound mode, for PARTIAL results: every
/// subsumer the taxonomy asserts, and every ⊥ placement, must be entailed;
/// missing ones are allowed.
GateReport checkTaxonomy(const owlcl::Taxonomy& tax, const owlcl::TBox& tbox,
                         const owlcl::GeneratedOntology& gen, bool soundOnly);

}  // namespace bench
