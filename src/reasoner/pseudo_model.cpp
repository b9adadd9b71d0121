#include "reasoner/pseudo_model.hpp"

#include <algorithm>

#include "parallel/bit_kernels.hpp"
#include "reasoner/kb.hpp"

namespace owlcl {

namespace {

void sortUnique(std::vector<std::uint32_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Sorted-range disjointness.
bool disjoint(const std::vector<std::uint32_t>& a,
              const std::vector<std::uint32_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib)
      ++ia;
    else if (*ib < *ia)
      ++ib;
    else
      return false;
  }
  return true;
}

}  // namespace

PseudoModel extractPseudoModel(const ReasonerKb& kb,
                               const std::vector<ExprId>& rootLabel) {
  const ExprFactory& f = kb.tbox->exprs();
  const RoleBox& rb = kb.tbox->roles();
  PseudoModel pm;
  for (ExprId e : rootLabel) {
    const ExprNode node = f.node(e);
    switch (node.kind) {
      case ExprKind::kAtom:
        pm.pos.push_back(node.atom);
        break;
      case ExprKind::kNot: {
        const ExprId inner = f.children(e)[0];
        if (f.kind(inner) != ExprKind::kAtom) return {};  // not NNF: bail
        pm.neg.push_back(f.node(inner).atom);
        break;
      }
      case ExprKind::kExists:
        pm.existsRoles.push_back(node.role);
        break;
      case ExprKind::kAtLeast:
        if (node.number > 0) pm.existsRoles.push_back(node.role);
        break;
      case ExprKind::kForall:
        pm.forallRoles.push_back(node.role);
        break;
      case ExprKind::kAtMost:
        pm.atmostRoles.push_back(node.role);
        break;
      case ExprKind::kAnd:
      case ExprKind::kOr:
      case ExprKind::kTop:
        break;  // already expanded / inert at a complete clash-free node
      default:
        return {};  // ⊥ or unknown kind: refuse to summarise
    }
  }
  // Close ∃-edges under super-roles so merge checks see every role the
  // edge counts for (covers ∀/∀⁺ propagation and ≤ counting over
  // super-roles without a RoleBox lookup at merge time).
  std::vector<RoleId> closed;
  for (RoleId r : pm.existsRoles)
    for (std::size_t s : rb.superRoles(r).setBits())
      closed.push_back(static_cast<RoleId>(s));
  pm.existsRoles = std::move(closed);
  sortUnique(pm.pos);
  sortUnique(pm.neg);
  sortUnique(pm.existsRoles);
  sortUnique(pm.forallRoles);
  sortUnique(pm.atmostRoles);
  pm.valid = true;
  return pm;
}

bool pseudoModelsMergable(const PseudoModel& a, const PseudoModel& b) {
  if (!a.valid || !b.valid) return false;
  // Atomic interaction: the union root must stay clash-free, so the atom
  // sets may not clash cross-wise. Same-polarity overlap is fine — both
  // sides already expanded the shared member (unfolding, ⊓/⊔ choices,
  // global constraints), and the union keeps a single copy. A cross-side
  // complementary *complex* pair bottoms out, by structural induction over
  // NNF, in either an atomic clash (caught here) or an ∃/∀ or ≥/≤ pair
  // over one role (caught by the signature checks below).
  if (!disjoint(a.pos, b.neg) || !disjoint(a.neg, b.pos)) return false;
  // Role interaction: an ∃-edge of one side that counts for (a super-role
  // of itself matching) a ∀ or ≤ of the other could force new constraints
  // into a successor or exceed a bound. existsRoles is super-closed, so a
  // plain intersection covers r ⊑* s.
  if (!disjoint(a.existsRoles, b.forallRoles)) return false;
  if (!disjoint(a.existsRoles, b.atmostRoles)) return false;
  if (!disjoint(b.existsRoles, a.forallRoles)) return false;
  if (!disjoint(b.existsRoles, a.atmostRoles)) return false;
  return true;
}

MergeColumns::MergeColumns(const SharedModelStore& store, std::size_t concepts)
    : validPos_(concepts) {
  const auto mark = [concepts](std::vector<DynamicBitset>& cols,
                               const std::vector<std::uint32_t>& ids,
                               ConceptId y) {
    for (std::uint32_t id : ids) {
      if (id >= cols.size()) cols.resize(id + 1);
      if (cols[id].empty()) cols[id] = DynamicBitset(concepts);
      cols[id].set(y);
    }
  };
  for (ConceptId y = 0; y < concepts; ++y) {
    const PseudoModel* m = store.find(y, false);
    if (m == nullptr) continue;
    validPos_.set(y);
    mark(posCol_, m->pos, y);
    mark(negCol_, m->neg, y);
    mark(existsCol_, m->existsRoles, y);
    mark(forallCol_, m->forallRoles, y);
    mark(atmostCol_, m->atmostRoles, y);
  }
}

std::size_t MergeColumns::refute(const PseudoModel& negX,
                                 const std::uint64_t* candidates,
                                 std::uint64_t* refuted, std::size_t nWords,
                                 const BitKernels& kernels) const {
  const std::size_t w = std::min(nWords, validPos_.wordCountUsed());
  std::fill(refuted + w, refuted + nWords, 0);
  if (!negX.valid) {
    std::fill(refuted, refuted + w, 0);
    return 0;
  }
  // Start from ¬validPos (no model(y), or past the last concept), then OR
  // in each column whose members fail one of pseudoModelsMergable's five
  // disjointness checks against negX.
  thread_local std::vector<std::uint64_t> blocked;
  blocked.resize(w);
  const std::uint64_t* valid = validPos_.words();
  for (std::size_t i = 0; i < w; ++i) blocked[i] = ~valid[i];
  const auto block = [&](const std::vector<DynamicBitset>& cols,
                         const std::vector<std::uint32_t>& ids) {
    for (std::uint32_t id : ids)
      if (id < cols.size() && !cols[id].empty())
        kernels.orInto(blocked.data(), cols[id].words(), w);
  };
  block(posCol_, negX.neg);              // pos(y) ∩ neg(¬x)
  block(negCol_, negX.pos);              // neg(y) ∩ pos(¬x)
  block(existsCol_, negX.forallRoles);   // ∃(y) ∩ ∀(¬x)
  block(existsCol_, negX.atmostRoles);   // ∃(y) ∩ ≤(¬x)
  block(forallCol_, negX.existsRoles);   // ∀(y) ∩ ∃(¬x)
  block(atmostCol_, negX.existsRoles);   // ≤(y) ∩ ∃(¬x)
  kernels.andNotInto(refuted, candidates, blocked.data(), w);
  return static_cast<std::size_t>(kernels.popcountWords(refuted, w));
}

}  // namespace owlcl
