#include "elcore/el_reasoner.hpp"

#include "owl/el_fragment.hpp"
#include "parallel/cancellation.hpp"
#include "util/assert.hpp"

namespace owlcl {

bool isElTBox(const TBox& tbox) {
  for (const ToldAxiom& ax : tbox.toldAxioms())
    if (!isElSafeAxiom(tbox, ax)) return false;
  return true;
}

ElReasoner::ElReasoner(const TBox& tbox) : tbox_(tbox) {
  OWLCL_ASSERT_MSG(tbox.frozen(), "freeze the TBox before constructing ElReasoner");
  OWLCL_ASSERT_MSG(isElTBox(tbox), "ElReasoner requires an EL+ TBox");
}

ElReasoner::ElReasoner(const TBox& tbox, std::vector<std::uint8_t> axiomMask)
    : tbox_(tbox), axiomMask_(std::move(axiomMask)) {
  OWLCL_ASSERT_MSG(tbox.frozen(), "freeze the TBox before constructing ElReasoner");
  OWLCL_ASSERT_MSG(axiomMask_.size() == tbox.toldAxioms().size(),
                   "axiom mask must align with toldAxioms()");
  for (std::size_t i = 0; i < axiomMask_.size(); ++i)
    if (axiomMask_[i] != 0)
      OWLCL_ASSERT_MSG(isElSafeAxiom(tbox, tbox.toldAxioms()[i]),
                       "masked ElReasoner selected a non-EL axiom");
}

ElReasoner::Atom ElReasoner::freshAtom() {
  const Atom a = static_cast<Atom>(atomCount_++);
  nf1Of_.resize(atomCount_);
  nf2Of_.resize(atomCount_);
  nf3Of_.resize(atomCount_);
  nf4Of_.resize(atomCount_);
  return a;
}

void ElReasoner::addNf1(Atom a, Atom b) { nf1Of_[a].push_back(b); }

void ElReasoner::addNf2(Atom a1, Atom a2, Atom b) {
  // Indexed under both conjuncts so a single S(x) insertion can fire it.
  nf2Of_[a1].push_back({a2, b});
  if (a1 != a2) nf2Of_[a2].push_back({a1, b});
}

void ElReasoner::addNf3(Atom a, RoleId r, Atom b) { nf3Of_[a].push_back({r, b}); }

void ElReasoner::addNf4(RoleId r, Atom a, Atom b) { nf4Of_[a].push_back({r, b}); }

ElReasoner::Atom ElReasoner::atomize(ExprId e) {
  auto it = exprAtom_.find(e);
  if (it != exprAtom_.end()) return it->second;

  const ExprFactory& f = tbox_.exprs();
  Atom result;
  switch (f.kind(e)) {
    case ExprKind::kTop:
      result = kTopAtom;
      break;
    case ExprKind::kBottom:
      result = kBotAtom;
      break;
    case ExprKind::kAtom:
      result = namedAtom(f.node(e).atom);
      break;
    case ExprKind::kAnd: {
      // F ≡ C1 ⊓ … ⊓ Cn: F ⊑ Ci (NF1 each) and a left fold of NF2s.
      std::vector<Atom> parts;
      for (ExprId c : f.children(e)) parts.push_back(atomize(c));
      const Atom fAtom = freshAtom();
      for (Atom p : parts) addNf1(fAtom, p);
      Atom acc = parts[0];
      for (std::size_t i = 1; i < parts.size(); ++i) {
        const Atom next = i + 1 == parts.size() ? fAtom : freshAtom();
        addNf2(acc, parts[i], next);
        acc = next;
      }
      result = fAtom;
      break;
    }
    case ExprKind::kExists: {
      // F ≡ ∃r.C: F ⊑ ∃r.B (NF3) and ∃r.B ⊑ F (NF4), B = atomize(C).
      const Atom b = atomize(f.children(e)[0]);
      const Atom fAtom = freshAtom();
      addNf3(fAtom, f.node(e).role, b);
      addNf4(f.node(e).role, b, fAtom);
      result = fAtom;
      break;
    }
    default:
      OWLCL_ASSERT_MSG(false, "non-EL expression reached ElReasoner::atomize");
      result = kTopAtom;
  }
  exprAtom_.emplace(e, result);
  return result;
}

void ElReasoner::normalise() {
  // Reserve ⊤, ⊥ and the named concepts up front.
  atomCount_ = 0;
  freshAtom();  // kTopAtom
  freshAtom();  // kBotAtom
  for (std::size_t c = 0; c < tbox_.conceptCount(); ++c) freshAtom();

  const std::vector<ToldAxiom>& told = tbox_.toldAxioms();
  for (std::size_t i = 0; i < told.size(); ++i) {
    if (!axiomMask_.empty() && axiomMask_[i] == 0) continue;  // routed out
    const ToldAxiom& ax = told[i];
    switch (ax.kind) {
      case AxiomKind::kSubClassOf:
        addNf1(atomize(ax.classArgs[0]), atomize(ax.classArgs[1]));
        break;
      case AxiomKind::kEquivalentClasses:
        for (std::size_t i = 0; i + 1 < ax.classArgs.size(); ++i) {
          const Atom a = atomize(ax.classArgs[i]);
          const Atom b = atomize(ax.classArgs[i + 1]);
          addNf1(a, b);
          addNf1(b, a);
        }
        break;
      case AxiomKind::kDisjointClasses:
        // Ci ⊓ Cj ⊑ ⊥ pairwise — stays inside EL+⊥.
        for (std::size_t i = 0; i < ax.classArgs.size(); ++i)
          for (std::size_t j = i + 1; j < ax.classArgs.size(); ++j)
            addNf2(atomize(ax.classArgs[i]), atomize(ax.classArgs[j]), kBotAtom);
        break;
      case AxiomKind::kSubObjectPropertyOf:
      case AxiomKind::kTransitiveObjectProperty:
        break;  // role box queries handle these
      case AxiomKind::kAnnotation:
        break;  // logically inert
    }
  }
}

void ElReasoner::addSubsumer(Atom x, Atom s) {
  if (subsumers_[x].test(s)) return;
  subsumers_[x].set(s);
  subQueue_.push_back({x, s});
}

void ElReasoner::addLinkWithSupers(RoleId r, Atom x, Atom y) {
  for (std::size_t s : tbox_.roles().superRoles(r).setBits())
    addLinkExact(static_cast<RoleId>(s), x, y);
}

void ElReasoner::addLinkExact(RoleId r, Atom x, Atom y) {
  const std::uint64_t key = (static_cast<std::uint64_t>(x) << 32) | y;
  if (!linkHas_[r].insert(key).second) return;
  linkFwd_[r][x].push_back(y);
  linkBwd_[r][y].push_back(x);
  linkQueue_.push_back({r, x, y});
}

void ElReasoner::initSaturation() {
  subsumers_.assign(atomCount_, DynamicBitset(atomCount_));
  const std::size_t nr = tbox_.roles().size();
  linkFwd_.assign(nr, std::vector<std::vector<Atom>>(atomCount_));
  linkBwd_.assign(nr, std::vector<std::vector<Atom>>(atomCount_));
  linkHas_.assign(nr, {});
  for (Atom x = 0; x < atomCount_; ++x) {
    addSubsumer(x, x);
    addSubsumer(x, kTopAtom);
  }
  // ⊥ ⊑ X for every X is handled at query time (subsumes/subsumersOf test
  // for ⊥ ∈ S(sub)) instead of inflating S(⊥) with every atom.
}

void ElReasoner::processSub(const SubEvent& ev) {
  const auto [x, s] = ev;
  ++ruleApplications_;

  // CR1: s ⊑ B.
  for (Atom b : nf1Of_[s]) addSubsumer(x, b);

  // CR2: s ⊓ other ⊑ B with other already in S(x).
  for (const Nf2& a : nf2Of_[s])
    if (subsumers_[x].test(a.other)) addSubsumer(x, a.rhs);

  // CR3: s ⊑ ∃r.B.
  for (const Nf3& a : nf3Of_[s]) addLinkWithSupers(a.role, x, a.filler);

  // CR4 (dual direction): a new subsumer s of x fires ∃r.s ⊑ B for every
  // predecessor of x over r.
  for (const Nf4& a : nf4Of_[s])
    for (Atom w : linkBwd_[a.role][x]) addSubsumer(w, a.rhs);

  // CR5 (dual direction): x became unsatisfiable; poison predecessors.
  if (s == kBotAtom) {
    for (std::size_t r = 0; r < linkBwd_.size(); ++r)
      for (Atom w : linkBwd_[r][x]) addSubsumer(w, kBotAtom);
  }
}

void ElReasoner::processLink(const LinkEvent& ev) {
  const auto [r, x, y] = ev;
  ++ruleApplications_;

  // CR4: ∃r.A ⊑ B for A ∈ S(y).
  for (std::size_t a : subsumers_[y].setBits())
    for (const Nf4& nf : nf4Of_[a])
      if (nf.role == r) addSubsumer(x, nf.rhs);

  // CR5: unsatisfiable successor poisons x.
  if (subsumers_[y].test(kBotAtom)) addSubsumer(x, kBotAtom);

  // CR11 for transitive r (r ∘ r ⊑ r): compose on both sides. New links go
  // through addLinkExact so duplicates are filtered.
  if (tbox_.roles().isTransitiveDeclared(r)) {
    // Copy first: the add below may grow the adjacency vectors. Composed
    // links must also flow up the role hierarchy (R(r) ⊆ R(s) for r ⊑ s).
    const std::vector<Atom> succs = linkFwd_[r][y];
    for (Atom z : succs) addLinkWithSupers(r, x, z);
    const std::vector<Atom> preds = linkBwd_[r][x];
    for (Atom w : preds) addLinkWithSupers(r, w, y);
  }
}

bool ElReasoner::saturate(const CancellationToken* cancel) {
  // One token poll per 4096 rule applications: off the profile, yet a
  // fired token stops the loop within milliseconds.
  constexpr std::size_t kPollMask = 4096 - 1;
  while (!subQueue_.empty() || !linkQueue_.empty()) {
    if (cancel != nullptr && (ruleApplications_ & kPollMask) == 0 &&
        cancel->cancelled())
      return false;
    if (!subQueue_.empty()) {
      const SubEvent ev = subQueue_.front();
      subQueue_.pop_front();
      processSub(ev);
    } else {
      const LinkEvent ev = linkQueue_.front();
      linkQueue_.pop_front();
      processLink(ev);
    }
  }
  return true;
}

bool ElReasoner::classify(const CancellationToken* cancel) {
  if (classified_) return true;
  if (atomCount_ == 0) {  // first call; a cut-short one left its queues
    normalise();
    initSaturation();
  }
  classified_ = saturate(cancel);
  return classified_;
}

bool ElReasoner::subsumes(ConceptId sup, ConceptId sub) const {
  OWLCL_ASSERT(classified_);
  // An unsatisfiable sub-concept is subsumed by every concept.
  return subsumers_[namedAtom(sub)].test(kBotAtom) ||
         subsumers_[namedAtom(sub)].test(namedAtom(sup));
}

bool ElReasoner::isSatisfiable(ConceptId c) const {
  OWLCL_ASSERT(classified_);
  return !subsumers_[namedAtom(c)].test(kBotAtom);
}

std::vector<ConceptId> ElReasoner::subsumersOf(ConceptId sub) const {
  OWLCL_ASSERT(classified_);
  std::vector<ConceptId> out;
  const DynamicBitset& s = subsumers_[namedAtom(sub)];
  const bool unsat = s.test(kBotAtom);
  for (std::size_t c = 0; c < tbox_.conceptCount(); ++c) {
    const Atom a = namedAtom(static_cast<ConceptId>(c));
    if (a != namedAtom(sub) && (unsat || s.test(a)))
      out.push_back(static_cast<ConceptId>(c));
  }
  return out;
}

}  // namespace owlcl
