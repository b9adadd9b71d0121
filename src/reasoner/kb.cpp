#include "reasoner/kb.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace owlcl {

namespace {

/// Collects the named atoms occurring anywhere in e (for the definition
/// acyclicity check).
void collectAtoms(const ExprFactory& f, ExprId e, std::unordered_set<ConceptId>& out) {
  const ExprNode& n = f.node(e);
  if (n.kind == ExprKind::kAtom) {
    out.insert(n.atom);
    return;
  }
  for (ExprId c : f.children(e)) collectAtoms(f, c, out);
}

/// True iff adding `def` for `a` keeps the definition graph acyclic.
bool staysAcyclic(const ExprFactory& f, ConceptId a, ExprId def,
                  const std::unordered_map<ConceptId, ExprId>& defs) {
  // DFS from the atoms of `def` through existing definitions; a path back
  // to `a` would close a cycle.
  std::unordered_set<ConceptId> visited;
  std::deque<ConceptId> frontier;
  {
    std::unordered_set<ConceptId> atoms;
    collectAtoms(f, def, atoms);
    for (ConceptId c : atoms) frontier.push_back(c);
  }
  while (!frontier.empty()) {
    const ConceptId c = frontier.front();
    frontier.pop_front();
    if (c == a) return false;
    if (!visited.insert(c).second) continue;
    auto it = defs.find(c);
    if (it != defs.end()) {
      std::unordered_set<ConceptId> atoms;
      collectAtoms(f, it->second, atoms);
      for (ConceptId cc : atoms) frontier.push_back(cc);
    }
  }
  return true;
}

class KbBuilder {
 public:
  explicit KbBuilder(TBox& tbox) : tbox_(tbox), f_(tbox.exprs()) {}

  ReasonerKb build() {
    tbox_.freeze();
    const std::size_t n = tbox_.conceptCount();
    kb_.tbox = &tbox_;
    kb_.unfoldPos.assign(n, {});
    kb_.unfoldNeg.assign(n, {});

    // Intern every named atom and its negation up front: subsumption tests
    // seed labels with {X, ¬Y} and may touch any pair.
    kb_.atomExpr.resize(n);
    kb_.negAtomExpr.resize(n);
    for (ConceptId c = 0; c < n; ++c) {
      kb_.atomExpr[c] = f_.atom(c);
      kb_.negAtomExpr[c] = f_.negate(kb_.atomExpr[c]);
    }

    extractDefinitions();
    absorbInclusions();
    computeClosure();
    checkSimpleRoles();

    kb_.stats.closureSize = closure_.size();
    f_.freeze();
    return std::move(kb_);
  }

 private:
  /// Pass 1: definitional absorption for EquivalentClasses(A, C) with a
  /// unique, acyclicity-preserving definition of the atomic A.
  ///
  /// Unfoldability restriction: the defined atom must not be constrained
  /// by ANY other axiom (no other ⊑/≡/disjointness with A on a left-hand
  /// side). Otherwise the ¬A ↦ ¬C rule is incomplete: a node can satisfy
  /// C without the label ever mentioning A, silently skipping A's other
  /// obligations (e.g. A ≡ A', A ⊑ B would lose A' ⊑ B).
  void extractDefinitions() {
    // Count constraining axioms per atomic concept.
    std::vector<std::size_t> constrained(tbox_.conceptCount(), 0);
    for (const ToldAxiom& ax : tbox_.toldAxioms()) {
      switch (ax.kind) {
        case AxiomKind::kSubClassOf:
          if (f_.kind(ax.classArgs[0]) == ExprKind::kAtom)
            ++constrained[f_.node(ax.classArgs[0]).atom];
          break;
        case AxiomKind::kEquivalentClasses:
        case AxiomKind::kDisjointClasses:
          // Every atomic operand is constrained by the axiom.
          for (ExprId c : ax.classArgs)
            if (f_.kind(c) == ExprKind::kAtom) ++constrained[f_.node(c).atom];
          break;
        default:
          break;
      }
    }

    for (const ToldAxiom& ax : tbox_.toldAxioms()) {
      if (ax.kind != AxiomKind::kEquivalentClasses || ax.classArgs.size() != 2)
        continue;
      for (int side = 0; side < 2; ++side) {
        const ExprId lhs = ax.classArgs[static_cast<std::size_t>(side)];
        const ExprId rhs = ax.classArgs[static_cast<std::size_t>(1 - side)];
        if (f_.kind(lhs) != ExprKind::kAtom) continue;
        const ConceptId a = f_.node(lhs).atom;
        if (constrained[a] != 1) continue;                 // purely defined
        if (definitions_.count(a) != 0) continue;          // unique only
        if (!staysAcyclic(f_, a, rhs, definitions_)) continue;
        definitions_.emplace(a, rhs);
        break;  // define at most once per axiom
      }
    }
    for (const auto& [a, def] : definitions_) {
      kb_.unfoldPos[a].push_back(f_.toNnf(def));
      kb_.unfoldNeg[a].push_back(f_.complementOf(def));
      ++kb_.stats.negUnfoldRules;
    }
  }

  /// True if this inclusion came from the definitional axiom of `a` and is
  /// already fully covered by unfoldPos/unfoldNeg.
  bool coveredByDefinition(ExprId lhs, ExprId rhs) const {
    if (f_.kind(lhs) == ExprKind::kAtom) {
      auto it = definitions_.find(f_.node(lhs).atom);
      if (it != definitions_.end() && it->second == rhs) return true;
    }
    if (f_.kind(rhs) == ExprKind::kAtom) {
      auto it = definitions_.find(f_.node(rhs).atom);
      if (it != definitions_.end() && it->second == lhs) return true;
    }
    return false;
  }

  /// Pass 2: route every canonical inclusion to the cheapest sound home.
  void absorbInclusions() {
    for (const SubClassAxiom& ax : tbox_.inclusions()) {
      if (coveredByDefinition(ax.lhs, ax.rhs)) continue;
      const ExprId rhsNnf = f_.toNnf(ax.rhs);

      // (a) atomic lhs: plain lazy unfolding A ↦ rhs.
      if (f_.kind(ax.lhs) == ExprKind::kAtom) {
        kb_.unfoldPos[f_.node(ax.lhs).atom].push_back(rhsNnf);
        ++kb_.stats.posUnfoldRules;
        continue;
      }
      // (b) binary absorption: (A ⊓ Rest) ⊑ D  ⇒  A ⊑ ¬Rest ⊔ D.
      if (f_.kind(ax.lhs) == ExprKind::kAnd) {
        const auto cspan = f_.children(ax.lhs);
        const std::vector<ExprId> cs(cspan.begin(), cspan.end());
        ConceptId host = kInvalidConcept;
        std::vector<ExprId> rest;
        for (ExprId c : cs) {
          if (host == kInvalidConcept && f_.kind(c) == ExprKind::kAtom)
            host = f_.node(c).atom;
          else
            rest.push_back(c);
        }
        if (host != kInvalidConcept) {
          std::vector<ExprId> disj;
          for (ExprId c : rest) disj.push_back(f_.complementOf(c));
          disj.push_back(rhsNnf);
          kb_.unfoldPos[host].push_back(f_.disj(disj));
          ++kb_.stats.binaryAbsorbed;
          continue;
        }
      }
      // (c) internalised GCI: every node gets ¬lhs ⊔ rhs.
      kb_.globalConstraints.push_back(f_.disj(f_.complementOf(ax.lhs), rhsNnf));
      ++kb_.stats.internalisedGcis;
    }
  }

  void addToClosure(ExprId e) {
    if (e >= inClosure_.size()) inClosure_.resize(f_.size(), 0);
    if (inClosure_[e] != 0) return;
    inClosure_[e] = 1;
    closure_.push_back(e);
    worklist_.push_back(e);
  }

  /// Pass 3: subexpression-closed label closure; complements for all
  /// members; ∀⁺-derived ∀T.D expressions pre-interned.
  void computeClosure() {
    for (ConceptId c = 0; c < tbox_.conceptCount(); ++c) {
      addToClosure(kb_.atomExpr[c]);
      addToClosure(kb_.negAtomExpr[c]);
    }
    for (const auto& rules : kb_.unfoldPos)
      for (ExprId e : rules) addToClosure(e);
    for (const auto& rules : kb_.unfoldNeg)
      for (ExprId e : rules) addToClosure(e);
    for (ExprId e : kb_.globalConstraints) addToClosure(e);

    const RoleBox& rb = tbox_.roles();
    while (!worklist_.empty()) {
      const ExprId e = worklist_.back();
      worklist_.pop_back();
      // Children are already interned, so this loop creates no node and
      // the span stays valid.
      for (ExprId c : f_.children(e)) addToClosure(c);
      const ExprNode node = f_.node(e);
      if (node.kind == ExprKind::kForall) {
        // ∀⁺-rule: a ∀S.D can spawn ∀T.D for transitive T ⊑* S.
        const ExprId filler = f_.children(e)[0];
        for (std::size_t t : rb.subRoles(node.role).setBits()) {
          if (rb.isTransitiveDeclared(static_cast<RoleId>(t)))
            addToClosure(f_.forall(static_cast<RoleId>(t), filler));
        }
      }
      // Close over complements too: semantic branching and the choose-rule
      // insert complements into labels, and rules (children, ∀⁺) must then
      // apply to *those* — e.g. ∀S.¬C arising from ¬∃S.C needs its own
      // ∀T.¬C variants. complementOf is memoised, so this terminates.
      addToClosure(f_.complementOf(e));
    }
    // Every complement below is a memo hit: the loop above interned them.
    kb_.compOf.assign(f_.size(), kInvalidExpr);
    for (ExprId e : closure_) kb_.compOf[e] = f_.complementOf(e);
  }

  /// SHQ restriction: roles in QCRs must be simple (no transitive
  /// sub-role). Violations make the standard algorithm incomplete, so we
  /// reject them loudly.
  void checkSimpleRoles() const {
    const RoleBox& rb = tbox_.roles();
    for (ExprId e : closure_) {
      const ExprNode& n = f_.node(e);
      if (n.kind != ExprKind::kAtLeast && n.kind != ExprKind::kAtMost) continue;
      for (std::size_t t : rb.subRoles(n.role).setBits()) {
        if (rb.isTransitiveDeclared(static_cast<RoleId>(t)))
          throw std::runtime_error(
              "qualified number restriction on non-simple role '" +
              rb.name(n.role) + "' (transitive sub-role '" +
              rb.name(static_cast<RoleId>(t)) + "')");
      }
    }
  }

  TBox& tbox_;
  ExprFactory& f_;
  ReasonerKb kb_;
  std::unordered_map<ConceptId, ExprId> definitions_;
  std::vector<ExprId> closure_;      // members in insertion order
  std::vector<std::uint8_t> inClosure_;  // ExprId → member?
  std::vector<ExprId> worklist_;
};

}  // namespace

ReasonerKb buildKb(TBox& tbox) { return KbBuilder(tbox).build(); }

}  // namespace owlcl
