#include "owl/el_fragment.hpp"

#include <algorithm>
#include <cstddef>

#include "util/assert.hpp"

namespace owlcl {

bool isElSafeExpr(const ExprFactory& f, ExprId e) {
  switch (f.kind(e)) {
    case ExprKind::kTop:
    case ExprKind::kBottom:
    case ExprKind::kAtom:
      return true;
    case ExprKind::kAnd:
    case ExprKind::kExists:
      for (ExprId c : f.children(e))
        if (!isElSafeExpr(f, c)) return false;
      return true;
    case ExprKind::kNot:      // negation
    case ExprKind::kOr:       // disjunction
    case ExprKind::kForall:   // universal restriction
    case ExprKind::kAtLeast:  // qualified min-cardinality
    case ExprKind::kAtMost:   // qualified max-cardinality
      return false;
  }
  // Fail closed: a node kind this switch does not know (added after this
  // detector was written) is NOT EL. The table-driven test over every
  // ExprKind pins this.
  return false;
}

bool isElSafeAxiom(const TBox& tbox, const ToldAxiom& ax) {
  switch (ax.kind) {
    case AxiomKind::kSubClassOf:
    case AxiomKind::kEquivalentClasses:
    case AxiomKind::kDisjointClasses:
      for (ExprId c : ax.classArgs)
        if (!isElSafeExpr(tbox.exprs(), c)) return false;
      return true;
    case AxiomKind::kSubObjectPropertyOf:
    case AxiomKind::kTransitiveObjectProperty:
      return true;  // EL+ has role hierarchies and transitivity
    case AxiomKind::kAnnotation:
      return true;  // logically inert
  }
  return false;  // fail closed, as above
}

namespace {

/// Symbol space of the taint fixpoint: concept ids, then role ids, then
/// one pseudo-symbol `always` meaning "cannot be guaranteed to ⊥-vanish".
/// An axiom with `always` in its trigger is a member of every ⊥-module.
struct SymbolSpace {
  std::size_t concepts;
  std::size_t roles;
  std::uint32_t always;  // == concepts + roles
  std::uint32_t roleSym(RoleId r) const {
    return static_cast<std::uint32_t>(concepts + r);
  }
};

/// Appends the *trigger set* of expression e: under any signature Σ
/// disjoint from it, e ⊥-evaluates to ⊥ — so an axiom whose left-hand
/// side trigger misses Σ is ⊥-local (a tautology after ⊥-substitution)
/// and lies outside mod_⊥(Σ). The sets are deliberately small sound
/// over-approximations; see the ⊓ case.
void trigExpr(const ExprFactory& f, const SymbolSpace& sp, ExprId e,
              std::vector<std::uint32_t>& out) {
  switch (f.kind(e)) {
    case ExprKind::kTop:
      out.push_back(sp.always);  // ⊤ never vanishes
      return;
    case ExprKind::kBottom:
      return;  // ⊥ vanishes under every Σ: empty trigger
    case ExprKind::kAtom:
      out.push_back(f.node(e).atom);
      return;
    case ExprKind::kAnd: {
      // The conjunction vanishes as soon as ANY conjunct vanishes, so any
      // single conjunct's trigger is sound for the whole ⊓. Pick the
      // cheapest: a vanishing conjunct (∅), else one without `always`.
      std::vector<std::uint32_t> best, cur;
      bool haveBest = false;
      auto hasAlways = [&sp](const std::vector<std::uint32_t>& v) {
        return std::find(v.begin(), v.end(), sp.always) != v.end();
      };
      for (ExprId c : f.children(e)) {
        cur.clear();
        trigExpr(f, sp, c, cur);
        if (cur.empty()) return;  // some conjunct always vanishes
        if (!haveBest || (hasAlways(best) && !hasAlways(cur))) {
          best = cur;
          haveBest = true;
        }
      }
      out.insert(out.end(), best.begin(), best.end());
      return;
    }
    case ExprKind::kOr:
      // Vanishes only when EVERY disjunct vanishes: union of triggers.
      for (ExprId c : f.children(e)) trigExpr(f, sp, c, out);
      return;
    case ExprKind::kNot:
      // ¬C ⊥-evaluates to ¬⊥ = ⊤ (never ⊥) unless C is syntactically ⊤.
      if (f.kind(f.children(e)[0]) != ExprKind::kTop) out.push_back(sp.always);
      return;
    case ExprKind::kExists:
      // ∃r.C vanishes whenever r ∉ Σ (the empty role has no successors).
      out.push_back(sp.roleSym(f.node(e).role));
      return;
    case ExprKind::kAtLeast:
      if (f.node(e).number >= 1)
        out.push_back(sp.roleSym(f.node(e).role));  // like ∃: needs r ∈ Σ
      else
        out.push_back(sp.always);  // ≥0 r.C ≡ ⊤
      return;
    case ExprKind::kForall:
    case ExprKind::kAtMost:
      // ∀r.C / ≤n r.C ⊥-evaluate to ⊤ when r ∉ Σ: never guaranteed to
      // vanish.
      out.push_back(sp.always);
      return;
  }
  out.push_back(sp.always);  // fail closed: unknown kinds never vanish
}

/// Appends every concept and role symbol occurring in e.
void sigExpr(const ExprFactory& f, const SymbolSpace& sp, ExprId e,
             std::vector<std::uint32_t>& out) {
  const ExprNode& n = f.node(e);
  switch (n.kind) {
    case ExprKind::kAtom:
      out.push_back(n.atom);
      return;
    case ExprKind::kExists:
    case ExprKind::kForall:
    case ExprKind::kAtLeast:
    case ExprKind::kAtMost:
      out.push_back(sp.roleSym(n.role));
      break;
    default:
      break;
  }
  for (ExprId c : f.children(e)) sigExpr(f, sp, c, out);
}

/// Trigger and signature of one told axiom. An axiom fires into a module
/// when its trigger intersects the module signature; firing imports its
/// whole signature into the module signature.
void axiomSyms(const TBox& tbox, const SymbolSpace& sp, const ToldAxiom& ax,
               std::vector<std::uint32_t>& trig,
               std::vector<std::uint32_t>& sig) {
  const ExprFactory& f = tbox.exprs();
  switch (ax.kind) {
    case AxiomKind::kSubClassOf:
      // lhs ⊑ ⊤ is a tautology under every Σ → in no module.
      if (f.kind(ax.classArgs[1]) != ExprKind::kTop)
        trigExpr(f, sp, ax.classArgs[0], trig);
      for (ExprId c : ax.classArgs) sigExpr(f, sp, c, sig);
      return;
    case AxiomKind::kEquivalentClasses:
    case AxiomKind::kDisjointClasses:
      // Pairwise inclusions / disjointness clauses: any operand staying
      // alive can make some clause non-local.
      for (ExprId c : ax.classArgs) {
        trigExpr(f, sp, c, trig);
        sigExpr(f, sp, c, sig);
      }
      return;
    case AxiomKind::kSubObjectPropertyOf:
      trig.push_back(sp.roleSym(ax.role1));  // ⊥ ⊑ s is a tautology
      sig.push_back(sp.roleSym(ax.role1));
      sig.push_back(sp.roleSym(ax.role2));
      return;
    case AxiomKind::kTransitiveObjectProperty:
      trig.push_back(sp.roleSym(ax.role1));  // ⊥∘⊥ ⊑ ⊥ is a tautology
      sig.push_back(sp.roleSym(ax.role1));
      return;
    case AxiomKind::kAnnotation:
      return;  // logically inert: empty trigger and signature
  }
}

}  // namespace

ElPartition partitionElFragment(const TBox& tbox) {
  OWLCL_ASSERT_MSG(tbox.frozen(), "partitionElFragment needs a frozen TBox");
  const std::vector<ToldAxiom>& told = tbox.toldAxioms();
  const std::size_t nAxioms = told.size();

  ElPartition part;
  part.axiomEl.assign(nAxioms, 0);
  for (std::size_t i = 0; i < nAxioms; ++i) {
    const bool el = isElSafeAxiom(tbox, told[i]);
    part.axiomEl[i] = el ? 1 : 0;
    if (told[i].kind != AxiomKind::kAnnotation)
      ++(el ? part.elAxioms : part.nonElAxioms);
  }

  // Only a non-EL axiom seeds the fixpoint below, so with none of them no
  // symbol — `always` included — can become dangerous: every concept is
  // pure and nothing is tainted.
  if (part.nonElAxioms == 0) {
    part.pureConcepts = DynamicBitset(tbox.conceptCount(), true);
    part.pureCount = tbox.conceptCount();
    return part;
  }

  const SymbolSpace sp{
      tbox.conceptCount(), tbox.roles().size(),
      static_cast<std::uint32_t>(tbox.conceptCount() + tbox.roles().size())};
  const std::size_t nSyms = sp.always + 1;

  // Per-axiom trigger and signature as flat offset arrays: axiom i owns
  // trig[trigAt[i] .. trigAt[i+1]), sorted and duplicate-free; likewise sig.
  std::vector<std::uint32_t> trig, sig;
  std::vector<std::uint32_t> trigAt(nAxioms + 1, 0), sigAt(nAxioms + 1, 0);
  const auto sortUniqueTail = [](std::vector<std::uint32_t>& v,
                                 std::size_t from) {
    std::sort(v.begin() + static_cast<std::ptrdiff_t>(from), v.end());
    v.erase(std::unique(v.begin() + static_cast<std::ptrdiff_t>(from), v.end()),
            v.end());
  };
  for (std::size_t i = 0; i < nAxioms; ++i) {
    axiomSyms(tbox, sp, told[i], trig, sig);
    sortUniqueTail(trig, trigAt[i]);
    sortUniqueTail(sig, sigAt[i]);
    trigAt[i + 1] = static_cast<std::uint32_t>(trig.size());
    sigAt[i + 1] = static_cast<std::uint32_t>(sig.size());
  }

  // Signature-symbol → axioms, by counting sort: symbol s owns
  // axiomsOfSym[symAt[s] .. symAt[s+1]), in ascending axiom order.
  std::vector<std::uint32_t> symAt(nSyms + 1, 0);
  for (std::uint32_t s : sig) ++symAt[s + 1];
  for (std::size_t s = 0; s < nSyms; ++s) symAt[s + 1] += symAt[s];
  std::vector<std::uint32_t> axiomsOfSym(sig.size());
  {
    std::vector<std::uint32_t> cursor(symAt.begin(), symAt.end() - 1);
    for (std::size_t i = 0; i < nAxioms; ++i)
      for (std::uint32_t k = sigAt[i]; k < sigAt[i + 1]; ++k)
        axiomsOfSym[cursor[sig[k]]++] = static_cast<std::uint32_t>(i);
  }

  // Dangerous-symbol fixpoint. Init: a symbol that can fire a non-EL
  // axiom into a module is dangerous. Propagate: an axiom whose signature
  // touches a dangerous symbol imports that danger into every module it
  // fires into, so its own trigger becomes dangerous too. A symbol s is
  // then pure iff s ∉ D — its ⊥-module (and, because firing is
  // single-symbol, the module of any pure *pair*) is all-EL.
  DynamicBitset dangerous(nSyms);
  std::vector<std::uint32_t> work;
  const auto markTrigger = [&](std::size_t i) {
    for (std::uint32_t k = trigAt[i]; k < trigAt[i + 1]; ++k) {
      const std::uint32_t s = trig[k];
      if (!dangerous.test(s)) {
        dangerous.set(s);
        work.push_back(s);
      }
    }
  };
  for (std::size_t i = 0; i < nAxioms; ++i)
    if (part.axiomEl[i] == 0) markTrigger(i);
  std::vector<std::uint8_t> fired(nAxioms, 0);
  while (!work.empty()) {
    const std::uint32_t s = work.back();
    work.pop_back();
    for (std::uint32_t k = symAt[s]; k < symAt[s + 1]; ++k) {
      const std::uint32_t i = axiomsOfSym[k];
      if (fired[i] != 0) continue;  // trigger already fully marked
      fired[i] = 1;
      markTrigger(i);
    }
  }

  // `always` dangerous ⟺ the always-module (axioms present in every
  // ⊥-module) reaches a non-EL axiom: nothing is pure. This also covers
  // global inconsistency hiding in the residual — a ⊤ ⊑ ⊥ entailment
  // needs axioms of the Σ=∅ module, and if those were all EL the
  // saturation itself derives every concept unsatisfiable.
  part.globallyTainted = dangerous.test(sp.always);
  part.pureConcepts = DynamicBitset(sp.concepts);
  if (!part.globallyTainted) {
    for (std::size_t c = 0; c < sp.concepts; ++c) {
      if (!dangerous.test(c)) {
        part.pureConcepts.set(c);
        ++part.pureCount;
      }
    }
  }
  return part;
}

}  // namespace owlcl
