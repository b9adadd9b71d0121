#include "elcore/el_reasoner.hpp"

#include <bit>

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

ElReasoner::Atom ElReasoner::atomize(ExprId e, std::uint8_t polarity) {
  const ExprFactory& f = tbox_.exprs();
  switch (f.kind(e)) {
    case ExprKind::kTop:
      return kTopAtom;
    case ExprKind::kBottom:
      return kBotAtom;
    case ExprKind::kAtom:
      return namedAtom(f.node(e).atom);
    case ExprKind::kAnd:
    case ExprKind::kExists:
      break;
    default:
      OWLCL_ASSERT_MSG(false, "non-EL expression reached ElReasoner::atomize");
      return kTopAtom;
  }

  const auto [it, isNew] = defined_.try_emplace(e, Definition{0, 0});
  if (isNew) it->second.atom = freshAtom();
  const Atom fAtom = it->second.atom;
  const std::uint8_t todo = polarity & ~it->second.polarities;
  // Marked before recursing; the recursion may rehash defined_.
  it->second.polarities |= todo;

  if (f.kind(e) == ExprKind::kAnd) {
    const auto& children = f.children(e);
    // Positive F ⊑ C1 ⊓ … ⊓ Cn: F ⊑ Ci (NF1 each).
    if (todo & kPositive)
      for (ExprId c : children) addNf1(fAtom, atomize(c, kPositive));
    // Negative C1 ⊓ … ⊓ Cn ⊑ F: a left fold of NF2s.
    if (todo & kNegative) {
      Atom acc = atomize(children[0], kNegative);
      for (std::size_t i = 1; i < children.size(); ++i) {
        const Atom part = atomize(children[i], kNegative);
        const Atom next = i + 1 == children.size() ? fAtom : freshAtom();
        addNf2(acc, part, next);
        acc = next;
      }
    }
    return fAtom;
  }

  const RoleId r = f.node(e).role;
  const ExprId filler = f.children(e)[0];
  // Positive F ⊑ ∃r.B (NF3).
  if (todo & kPositive) addNf3(fAtom, r, atomize(filler, kPositive));
  // Negative ∃r.A ⊑ F (NF4), plus E(t, A) ⊑ F for every declared-transitive
  // t ⊑* r: E carries A back along t-chains, which stands in for
  // composing t-links (∃t.∃t.A ⊑ ∃t.A ⊑ ∃r.A).
  if (todo & kNegative) {
    const Atom a = atomize(filler, kNegative);
    addNf4(r, a, fAtom);
    const RoleBox& roles = tbox_.roles();
    for (std::size_t t : roles.subRoles(r).setBits())
      if (roles.isTransitiveDeclared(static_cast<RoleId>(t)))
        addNf1(transitiveAtom(static_cast<RoleId>(t), a), fAtom);
  }
  return fAtom;
}

ElReasoner::Atom ElReasoner::transitiveAtom(RoleId t, Atom a) {
  const std::uint64_t key = (static_cast<std::uint64_t>(t) << 32) | a;
  const auto [it, isNew] = transAtom_.try_emplace(key, 0);
  if (!isNew) return it->second;
  const Atom e = freshAtom();
  it->second = e;
  addNf4(t, a, e);
  addNf4(t, e, e);
  return e;
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
        addNf1(atomize(ax.classArgs[0], kNegative),
               atomize(ax.classArgs[1], kPositive));
        break;
      case AxiomKind::kEquivalentClasses:
        for (std::size_t i = 0; i + 1 < ax.classArgs.size(); ++i) {
          const Atom a = atomize(ax.classArgs[i], kBoth);
          const Atom b = atomize(ax.classArgs[i + 1], kBoth);
          addNf1(a, b);
          addNf1(b, a);
        }
        break;
      case AxiomKind::kDisjointClasses:
        // Ci ⊓ Cj ⊑ ⊥ pairwise — stays inside EL+⊥.
        for (std::size_t i = 0; i < ax.classArgs.size(); ++i)
          for (std::size_t j = i + 1; j < ax.classArgs.size(); ++j)
            addNf2(atomize(ax.classArgs[i], kNegative),
                   atomize(ax.classArgs[j], kNegative), kBotAtom);
        break;
      case AxiomKind::kSubObjectPropertyOf:
      case AxiomKind::kTransitiveObjectProperty:
        break;  // role box queries handle these
      case AxiomKind::kAnnotation:
        break;  // logically inert
    }
  }
}

void ElReasoner::activate(Atom x) {
  if (!subsumers_[x].empty()) return;
  subsumers_[x] = DynamicBitset(atomCount_);
  addSubsumer(x, x);
  addSubsumer(x, kTopAtom);
}

void ElReasoner::addSubsumer(Atom x, Atom s) {
  if (subsumers_[x].test(s)) return;
  subsumers_[x].set(s);
  nonZeroWords_[x * summaryWords_ + s / 4096] |= std::uint64_t{1} << (s / 64 % 64);
  subQueue_.push_back({x, s});
}

void ElReasoner::addLink(RoleId r, Atom x, Atom y) {
  activate(y);
  if (linkBwd_[r].empty()) linkBwd_[r].resize(atomCount_);
  linkBwd_[r][y].push_back(x);
  linkQueue_.push_back({r, x, y});
}

void ElReasoner::initSaturation() {
  negFiller_.assign(tbox_.roles().size(), {});
  for (Atom a = 0; a < atomCount_; ++a)
    for (const Nf4& nf : nf4Of_[a]) {
      if (negFiller_[nf.role].empty())
        negFiller_[nf.role] = DynamicBitset(atomCount_);
      negFiller_[nf.role].set(a);
    }
  linkBwd_.assign(tbox_.roles().size(), {});
  subsumers_.assign(atomCount_, {});
  summaryWords_ = DynamicBitset::wordCount(DynamicBitset::wordCount(atomCount_));
  nonZeroWords_.assign(atomCount_ * summaryWords_, 0);
  for (ConceptId c = 0; c < tbox_.conceptCount(); ++c) activate(namedAtom(c));
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
  for (const Nf3& a : nf3Of_[s]) addLink(a.role, x, a.filler);

  // CR4 + CR10 (dual direction): a new subsumer s of x fires ∃r.s ⊑ B for
  // every predecessor of x over any sub-role of r.
  for (const Nf4& a : nf4Of_[s])
    for (std::size_t t : tbox_.roles().subRoles(a.role).setBits())
      if (!linkBwd_[t].empty())
        for (Atom w : linkBwd_[t][x]) addSubsumer(w, a.rhs);

  // CR5 (dual direction): x became unsatisfiable; poison predecessors.
  if (s == kBotAtom) {
    for (const std::vector<std::vector<Atom>>& bwd : linkBwd_)
      if (!bwd.empty())
        for (Atom w : bwd[x]) addSubsumer(w, kBotAtom);
  }
}

void ElReasoner::processLink(const LinkEvent& ev) {
  const auto [r, x, y] = ev;
  ++ruleApplications_;
  const DynamicBitset& sy = subsumers_[y];

  // CR5: unsatisfiable successor poisons x.
  if (sy.test(kBotAtom)) addSubsumer(x, kBotAtom);

  // CR4 + CR10: ∃s.A ⊑ B for every super-role s of r and A ∈ S(y), walking
  // S(y) ∧ negFiller(s) word by word.
  for (std::size_t s : tbox_.roles().superRoles(r).setBits()) {
    const DynamicBitset& neg = negFiller_[s];
    if (neg.empty()) continue;
    const std::uint64_t* sw = sy.words();
    const std::uint64_t* nw = neg.words();
    for (std::size_t w = 0; w < sy.wordCountUsed(); ++w)
      for (std::uint64_t v = sw[w] & nw[w]; v != 0; v &= v - 1) {
        const Atom a = static_cast<Atom>(w * 64 + std::countr_zero(v));
        for (const Nf4& nf : nf4Of_[a])
          if (nf.role == s) addSubsumer(x, nf.rhs);
      }
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
      const SubEvent ev = subQueue_.back();
      subQueue_.pop_back();
      processSub(ev);
    } else {
      const LinkEvent ev = linkQueue_.back();
      linkQueue_.pop_back();
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
