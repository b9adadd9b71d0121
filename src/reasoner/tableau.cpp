#include "reasoner/tableau.hpp"

#include <algorithm>

#include "reasoner/pseudo_model.hpp"

namespace owlcl {

Tableau::Tableau(const ReasonerKb& kb) : kb_(kb), f_(kb.tbox->exprs()) {
  OWLCL_ASSERT_MSG(f_.frozen(), "buildKb() must run before creating Tableau");
}

void Tableau::clearCaches() {
  satCache_.clear();
  stats_ = {};
}

bool Tableau::isSatisfiable(std::vector<ExprId> init) {
  const bool result = satRec(std::move(init));
  OWLCL_DEBUG_ASSERT(taintStack_.empty());
  return result;
}

bool Tableau::isSatisfiable(std::vector<ExprId> init, PseudoModel* rootModel) {
  extract_ = rootModel;
  bool result;
  try {
    result = satRec(std::move(init));
  } catch (...) {
    extract_ = nullptr;
    throw;
  }
  extract_ = nullptr;
  OWLCL_DEBUG_ASSERT(taintStack_.empty());
  return result;
}

bool Tableau::satRec(std::vector<ExprId> init) {
  ++stats_.satCalls;

  // Canonical key: drop ⊤, sort, dedupe; ⊥ means immediate unsat.
  std::vector<ExprId>& canon = init;
  canon.erase(std::remove(canon.begin(), canon.end(), f_.top()), canon.end());
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
  if (std::binary_search(canon.begin(), canon.end(), f_.bottom())) return false;

  // A pseudo-model extraction forces the root evaluation to run (skipping
  // both caches) so a completed root label exists to summarise; recursion
  // below the root still uses them.
  const bool extracting = extract_ != nullptr && taintStack_.empty();
  if (!extracting) {
    if (auto it = satCache_.find(canon); it != satCache_.end()) {
      ++stats_.cacheHits;
      return it->second;
    }
    if (shared_ != nullptr) {
      const auto v = shared_->lookup(canon.data(), canon.size());
      if (v != ConcurrentSatCache::Verdict::kMiss) {
        ++stats_.crossCacheHits;
        const bool sat = v == ConcurrentSatCache::Verdict::kSat;
        satCache_.emplace(canon, sat);  // memoise locally: cheaper re-hits
        return sat;
      }
    }
  }
  if (auto it = openDepth_.find(canon); it != openDepth_.end()) {
    // Anywhere equality-blocking: assume satisfiable, taint every frame
    // above the assumed one (their results depend on this assumption).
    ++stats_.blockedHits;
    for (std::size_t d = it->second + 1; d < taintStack_.size(); ++d)
      taintStack_[d] = true;
    return true;
  }

  const std::size_t depth = taintStack_.size();
  taintStack_.push_back(false);
  openDepth_.emplace(canon, depth);

  Frame fr;
  bool result = true;
  for (ExprId e : kb_.globalConstraints) {
    if (add(fr, e) == AddResult::kClash) {
      result = false;
      break;
    }
  }
  if (result) {
    for (ExprId e : canon) {
      if (add(fr, e) == AddResult::kClash) {
        result = false;
        break;
      }
    }
  }
  if (result) result = propositionalSearch(fr);

  // On a successful extracting root run, fr.label is the propositionally
  // complete clash-free assignment propositionalSearch stopped on.
  if (extracting && result) *extract_ = extractPseudoModel(kb_, fr.label);

  openDepth_.erase(canon);
  const bool tainted = taintStack_.back();
  taintStack_.pop_back();

  // Unsat results never depend on the optimistic blocking assumption (it
  // only over-approximates satisfiability), so they are always cacheable.
  // The shared cache publishes under the exact same rule: a tainted SAT is
  // a thread-local assumption, everything else is a fact about the KB.
  if (!result || !tainted) {
    if (shared_ != nullptr) shared_->insert(canon.data(), canon.size(), result);
    satCache_.emplace(std::move(canon), result);
  }
  return result;
}

Tableau::AddResult Tableau::add(Frame& fr, ExprId e) {
  if (e == f_.top()) return AddResult::kOk;
  if (e == f_.bottom()) {
    ++stats_.clashes;
    return AddResult::kClash;
  }
  if (fr.has.count(e) != 0) return AddResult::kOk;
  if (const ExprId comp = kb_.compOf[e];
      comp != kInvalidExpr && fr.has.count(comp) != 0) {
    ++stats_.clashes;
    return AddResult::kClash;
  }
  fr.label.push_back(e);
  fr.has.insert(e);
  ++stats_.expansions;
  return AddResult::kOk;
}

void Tableau::truncateTo(Frame& fr, std::size_t len) {
  while (fr.label.size() > len) {
    fr.has.erase(fr.label.back());
    fr.label.pop_back();
  }
}

bool Tableau::propositionalSearch(Frame& fr) {
  // DFS with an explicit choice stack over ⊔-alternatives. Semantic
  // branching: alternative k asserts the complements of alternatives < k,
  // so failed disjuncts are never re-explored.
  bool needBacktrack = false;
  while (true) {
    if (needBacktrack) {
      needBacktrack = false;
      bool reopened = false;
      while (!fr.choices.empty()) {
        Frame::Choice& ch = fr.choices.back();
        // The factory is frozen, so the child span stays valid.
        const auto alts = f_.children(ch.disjunction);
        if (ch.nextAlt >= alts.size()) {
          fr.choices.pop_back();
          continue;
        }
        const std::size_t alt = ch.nextAlt++;
        truncateTo(fr, ch.labelLen);
        fr.procIdx = ch.procIdxAtChoice;
        ++stats_.branches;
        bool clash = false;
        // Semantic branching: earlier alternatives are now known-failed.
        for (std::size_t k = 0; k < alt && !clash; ++k) {
          if (const ExprId comp = kb_.compOf[alts[k]]; comp != kInvalidExpr)
            clash = add(fr, comp) == AddResult::kClash;
        }
        if (!clash) clash = add(fr, alts[alt]) == AddResult::kClash;
        if (clash) continue;  // try the next alternative of this choice
        reopened = true;
        break;
      }
      if (!reopened) return false;  // choice space exhausted
    }

    if (fr.procIdx < fr.label.size()) {
      const ExprId e = fr.label[fr.procIdx++];
      const ExprNode node = f_.node(e);
      switch (node.kind) {
        case ExprKind::kAnd: {
          const auto cspan = f_.children(e);
          for (ExprId c : cspan) {
            if (add(fr, c) == AddResult::kClash) {
              needBacktrack = true;
              break;
            }
          }
          break;
        }
        case ExprKind::kOr: {
          const auto cspan = f_.children(e);
          bool satisfied = false;
          for (ExprId c : cspan)
            if (fr.has.count(c) != 0) {
              satisfied = true;
              break;
            }
          if (satisfied) break;
          // Open a choice point and immediately apply alternative 0.
          fr.choices.push_back(
              {fr.label.size(), fr.procIdx, e, /*nextAlt=*/1});
          if (add(fr, cspan[0]) == AddResult::kClash) needBacktrack = true;
          break;
        }
        case ExprKind::kAtom: {
          for (ExprId u : kb_.unfoldPos[node.atom]) {
            if (add(fr, u) == AddResult::kClash) {
              needBacktrack = true;
              break;
            }
          }
          break;
        }
        case ExprKind::kNot: {
          const ExprId inner = f_.children(e)[0];
          if (f_.kind(inner) == ExprKind::kAtom) {
            for (ExprId u : kb_.unfoldNeg[f_.node(inner).atom]) {
              if (add(fr, u) == AddResult::kClash) {
                needBacktrack = true;
                break;
              }
            }
          }
          break;
        }
        default:
          break;  // quantifiers handled by the successor phase; ⊤ inert
      }
    } else {
      // Propositionally complete and clash-free: build successors.
      if (successorsOk(fr)) return true;
      needBacktrack = true;
    }
  }
}

bool Tableau::edgeApplies(const Succ& s, RoleId super) const {
  const RoleBox& rb = kb_.tbox->roles();
  for (RoleId r : s.roles)
    if (rb.isSubRoleOf(r, super)) return true;
  return false;
}

bool Tableau::succContains(const Succ& s, ExprId d) const {
  if (d == f_.top()) return true;
  return std::find(s.label.begin(), s.label.end(), d) != s.label.end();
}

bool Tableau::succAdd(Succ& s, ExprId d) const {
  if (d == f_.top()) return true;
  if (d == f_.bottom()) return false;
  if (succContains(s, d)) return true;
  if (const ExprId comp = kb_.compOf[d]; comp != kInvalidExpr) {
    if (std::find(s.label.begin(), s.label.end(), comp) != s.label.end())
      return false;  // direct clash inside the successor constraint set
  }
  s.label.push_back(d);
  return true;
}

bool Tableau::propagateForalls(
    const std::vector<std::pair<RoleId, ExprId>>& foralls, Succ& s) const {
  const RoleBox& rb = kb_.tbox->roles();
  // Iterate to fixpoint locally: a role added by merging may trigger more
  // ∀s; labels only grow, so a single pass per call suffices because the
  // foralls list is fixed and succAdd is idempotent.
  for (const auto& [super, filler] : foralls) {
    bool applies = false;
    for (RoleId r : s.roles) {
      if (rb.isSubRoleOf(r, super)) {
        applies = true;
        // ∀⁺-rule: propagate ∀T.filler for transitive T with r ⊑* T ⊑* super.
        for (std::size_t t : rb.superRoles(r).setBits()) {
          if (rb.isTransitiveDeclared(static_cast<RoleId>(t)) &&
              rb.isSubRoleOf(static_cast<RoleId>(t), super)) {
            if (!succAdd(s, f_.forallInterned(static_cast<RoleId>(t), filler)))
              return false;
          }
        }
      }
    }
    if (applies && !succAdd(s, filler)) return false;
  }
  return true;
}

bool Tableau::successorsOk(const Frame& fr) {
  std::vector<std::pair<RoleId, ExprId>> foralls;
  std::vector<Succ> succs;
  std::uint32_t groupCounter = 0;
  bool anyAtMost = false;

  for (ExprId e : fr.label) {
    const ExprNode node = f_.node(e);
    switch (node.kind) {
      case ExprKind::kExists:
        succs.push_back({{node.role}, {f_.children(e)[0]}, {}});
        break;
      case ExprKind::kAtLeast: {
        // n fresh successors, pairwise distinct (shared group id).
        const std::uint32_t g = ++groupCounter;
        for (std::uint32_t i = 0; i < node.number; ++i)
          succs.push_back({{node.role}, {f_.children(e)[0]}, {g}});
        break;
      }
      case ExprKind::kForall:
        foralls.emplace_back(node.role, f_.children(e)[0]);
        break;
      case ExprKind::kAtMost:
        anyAtMost = true;
        break;
      default:
        break;
    }
  }
  if (succs.empty()) return true;  // no successors: ∀ vacuous, ≤ counts are 0
  (void)anyAtMost;

  for (Succ& s : succs)
    if (!propagateForalls(foralls, s)) return false;

  return chooseCountRecurse(std::move(succs), foralls, fr);
}

bool Tableau::chooseCountRecurse(
    std::vector<Succ> succs,
    const std::vector<std::pair<RoleId, ExprId>>& foralls, const Frame& fr) {
  // Gather the ≤-restrictions from the frame each time (cheap scan).
  struct AtMost {
    RoleId role;
    ExprId filler;
    std::uint32_t bound;
  };
  std::vector<AtMost> atmosts;
  for (ExprId e : fr.label) {
    const ExprNode node = f_.node(e);
    if (node.kind == ExprKind::kAtMost)
      atmosts.push_back({node.role, f_.children(e)[0], node.number});
  }

  // 1. Choose-rule: every successor reachable over a ≤-restricted role must
  //    syntactically decide the filler.
  for (const AtMost& am : atmosts) {
    if (am.filler == f_.top()) continue;  // ⊤ is always "present"
    const ExprId compD = kb_.complement(am.filler);
    for (std::size_t i = 0; i < succs.size(); ++i) {
      Succ& s = succs[i];
      if (!edgeApplies(s, am.role)) continue;
      if (succContains(s, am.filler) || succContains(s, compD)) continue;
      ++stats_.branches;
      {
        std::vector<Succ> withD = succs;
        if (succAdd(withD[i], am.filler) &&
            chooseCountRecurse(std::move(withD), foralls, fr))
          return true;
      }
      std::vector<Succ> withoutD = std::move(succs);
      if (!succAdd(withoutD[i], compD)) return false;
      return chooseCountRecurse(std::move(withoutD), foralls, fr);
    }
  }

  // 2. Counting + ≤-merge: if a bound is exceeded, nondeterministically
  //    merge two counted successors whose ≥-distinctness groups are
  //    disjoint.
  for (const AtMost& am : atmosts) {
    std::vector<std::size_t> counted;
    for (std::size_t i = 0; i < succs.size(); ++i)
      if (edgeApplies(succs[i], am.role) && succContains(succs[i], am.filler))
        counted.push_back(i);
    if (counted.size() <= am.bound) continue;

    for (std::size_t a = 0; a < counted.size(); ++a) {
      for (std::size_t b = a + 1; b < counted.size(); ++b) {
        const Succ& sa = succs[counted[a]];
        const Succ& sb = succs[counted[b]];
        bool distinct = false;
        for (std::uint32_t g : sa.groups)
          if (std::find(sb.groups.begin(), sb.groups.end(), g) != sb.groups.end())
            distinct = true;
        if (distinct) continue;  // ≥-rule forbids identifying these two

        ++stats_.branches;
        std::vector<Succ> merged = succs;
        Succ& into = merged[counted[a]];
        const Succ& from = merged[counted[b]];
        bool ok = true;
        for (RoleId r : from.roles)
          if (std::find(into.roles.begin(), into.roles.end(), r) ==
              into.roles.end())
            into.roles.push_back(r);
        for (ExprId d : from.label)
          if (!succAdd(into, d)) {
            ok = false;
            break;
          }
        for (std::uint32_t g : from.groups)
          if (std::find(into.groups.begin(), into.groups.end(), g) ==
              into.groups.end())
            into.groups.push_back(g);
        if (ok) {
          merged.erase(merged.begin() +
                       static_cast<std::ptrdiff_t>(counted[b]));
          // New roles can trigger more ∀-propagation on the merged node.
          if (propagateForalls(foralls, into) &&
              chooseCountRecurse(merged, foralls, fr))
            return true;
        }
      }
    }
    return false;  // bound exceeded and no merge worked
  }

  // 3. All restrictions satisfied: recurse into each successor label.
  //    (Distinct subtrees are independent — no inverse roles.)
  for (const Succ& s : succs)
    if (!satRec(s.label)) return false;
  return true;
}

}  // namespace owlcl
