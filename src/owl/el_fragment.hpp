// EL+ fragment detection and ⊥-module-style partitioning (DESIGN.md §13).
//
// The hybrid router in front of the parallel classifier needs two facts
// about a mixed TBox:
//
//  1. Which told axioms lie in the EL+⊥ fragment the saturation reasoner
//     (src/elcore) is complete for — ⊤, ⊥, named atoms, ⊓, ∃, plus
//     DisjointClasses (encoded via ⊥), role hierarchies and transitivity.
//     isElSafeExpr/isElSafeAxiom answer this syntactically and FAIL
//     CLOSED: ¬, ⊔, ∀, ≥, ≤ and any node kind added in the future are
//     rejected unless explicitly allowed here.
//
//  2. Which named concepts are *pure*: their syntactic ⊥-locality module
//     contains only EL-safe axioms, so the EL sub-ontology is a deductive
//     conservative extension for subsumption and satisfiability questions
//     over them. Positive saturation results are sound for EVERY concept
//     (monotonicity); purity is what additionally licenses negative
//     verdicts (non-subsumptions, satisfiability). partitionElFragment
//     computes purity with moduleReaches seeded by the non-EL axioms.
//
// moduleReaches is a linear-time dangerous-symbol fixpoint over a
// per-axiom trigger/signature relation — an over-approximation of
// ⊥-locality module reachability that is additive over seed signatures,
// so {A,B} both unreached ⇒ mod_⊥({A,B}) holds no seed axiom. The delta
// cone of incremental reclassification (DESIGN.md §14) is the same
// question asked with the changed axioms as seeds.
#pragma once

#include <cstdint>
#include <vector>

#include "owl/tbox.hpp"
#include "util/bitset.hpp"

namespace owlcl {

/// True iff the class expression lies in the EL+⊥ fragment (⊤, ⊥, named
/// atoms, ⊓, ∃). Exhaustive over ExprKind and fail-closed: inverse-role,
/// universal (∀), cardinality (≥/≤), negation, disjunction — and any node
/// kind this switch does not know — are rejected.
bool isElSafeExpr(const ExprFactory& f, ExprId e);

/// True iff the told axiom is EL-safe: all class operands pass
/// isElSafeExpr. Role-box axioms (sub-role, transitivity) and annotations
/// are EL-safe by construction.
bool isElSafeAxiom(const TBox& tbox, const ToldAxiom& ax);

/// Which concepts' syntactic ⊥-modules may contain a seed axiom.
struct ModuleReach {
  /// Concepts whose ⊥-module may contain a seed axiom (concept-id space).
  DynamicBitset concepts;
  /// The always-module (axioms in every ⊥-module, e.g. with an effectively
  /// ⊤ left-hand side) reaches a seed axiom: so does every concept's
  /// module, whatever `concepts` says.
  bool always = false;
};

/// Dangerous-symbol fixpoint over the told axioms of `tbox` (frozen or
/// not), seeded with the told-axiom indices `seedAxioms`. Linear in the
/// total size of the told axioms.
ModuleReach moduleReaches(const TBox& tbox,
                          const std::vector<std::size_t>& seedAxioms);

/// Result of partitioning a frozen TBox into its maximal EL sub-ontology
/// and the residual that still needs the tableau.
struct ElPartition {
  /// Per-told-axiom EL-safety, index-aligned with tbox.toldAxioms().
  /// Feed this straight into ElReasoner's masked constructor.
  std::vector<std::uint8_t> axiomEl;
  /// Logically relevant (non-annotation) axiom counts by fragment.
  std::size_t elAxioms = 0;
  std::size_t nonElAxioms = 0;
  /// Concepts whose ⊥-module never reaches a non-EL axiom. Empty when
  /// globallyTainted.
  DynamicBitset pureConcepts;
  std::size_t pureCount = 0;
  /// The always-module (axioms in every ⊥-module, e.g. with an effectively
  /// ⊤ left-hand side) reaches a non-EL axiom: no concept is pure.
  bool globallyTainted = false;

  /// Routing heuristic for --route-el=auto: EL axioms strictly outnumber
  /// the non-EL residual.
  bool majorityEl() const { return elAxioms > nonElAxioms; }
};

/// Partitions a frozen TBox. Linear in the total size of the told axioms;
/// an all-EL TBox returns after the per-axiom check, every concept pure.
ElPartition partitionElFragment(const TBox& tbox);

}  // namespace owlcl
