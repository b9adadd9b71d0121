// Preprocessed knowledge base consumed by the tableau engine.
//
// buildKb() performs the classic preprocessing pipeline of optimized
// tableau reasoners (FaCT++/Racer lineage):
//   1. lazy-unfolding extraction — axioms A ⊑ C with atomic lhs become
//      unfold rules fired when A enters a node label;
//   2. definitional absorption — a unique, acyclic definition A ≡ C also
//      yields a negative unfold rule ¬A ↦ ¬C;
//   3. binary absorption — GCIs (A ⊓ Rest) ⊑ D become A ⊑ ¬Rest ⊔ D;
//   4. internalisation — remaining GCIs C ⊑ D become global constraints
//      ¬C ⊔ D added to every node label;
//   5. closure computation — every expression that can ever appear in a
//      node label is collected, its complement interned (for clash
//      detection and the QCR choose-rule), and the ∀⁺-rule's derived
//      ∀T.D expressions are pre-interned. Afterwards the ExprFactory is
//      frozen, making classification-time reads lock-free (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

#include "owl/tbox.hpp"

namespace owlcl {

struct KbStats {
  std::size_t posUnfoldRules = 0;
  std::size_t negUnfoldRules = 0;  // definitional absorptions
  std::size_t binaryAbsorbed = 0;
  std::size_t internalisedGcis = 0;
  std::size_t closureSize = 0;
};

struct ReasonerKb {
  const TBox* tbox = nullptr;

  /// unfoldPos[A]: expressions to add when atom A enters a label (NNF).
  std::vector<std::vector<ExprId>> unfoldPos;
  /// unfoldNeg[A]: expressions to add when ¬A enters a label (NNF).
  std::vector<std::vector<ExprId>> unfoldNeg;
  /// Added to every node label (NNF disjunctions from internalised GCIs).
  std::vector<ExprId> globalConstraints;

  /// atomExpr[c] = interned atom for named concept c; negAtomExpr[c] = ¬c.
  std::vector<ExprId> atomExpr;
  std::vector<ExprId> negAtomExpr;

  /// Complement lookup for clash detection / choose-rule, indexed by
  /// ExprId over the whole (frozen) factory: the complement of a label
  /// closure member, kInvalidExpr for an expression outside the closure.
  std::vector<ExprId> compOf;

  KbStats stats;

  ExprId complement(ExprId e) const {
    OWLCL_DEBUG_ASSERT(e < compOf.size());
    const ExprId c = compOf[e];
    OWLCL_ASSERT_MSG(c != kInvalidExpr, "expression outside label closure");
    return c;
  }
};

/// Builds the preprocessed KB. Freezes the TBox (if not already frozen)
/// and the expression factory. Throws std::runtime_error if a qualified
/// number restriction uses a non-simple role (one with a transitive
/// sub-role) — the standard SHQ restriction.
ReasonerKb buildKb(TBox& tbox);

}  // namespace owlcl
