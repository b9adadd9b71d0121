#include "owl/expr.hpp"

#include <algorithm>

namespace owlcl {

std::uint64_t ExprFactory::hashKey(const NodeKey& k) {
  // FNV-1a over the key fields (children are already canonically ordered),
  // then a murmur finaliser so the table's low-bit mask sees every field.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(k.kind));
  mix(k.role);
  mix(k.number);
  mix(k.atom);
  for (ExprId c : k.children) mix(c);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

bool ExprFactory::matches(ExprId id, const NodeKey& k) const {
  const ExprNode& n = nodes_[id];
  if (n.kind != k.kind || n.role != k.role || n.number != k.number ||
      n.atom != k.atom || n.childCount != k.children.size())
    return false;
  return std::equal(k.children.begin(), k.children.end(),
                    childPool_.begin() + n.childBegin);
}

ExprId ExprFactory::find(const NodeKey& k, std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const ExprId id = slots_[i];
    if (id == kInvalidExpr) return kInvalidExpr;
    if (hashOf_[id] == hash && matches(id, k)) return id;
  }
}

void ExprFactory::insertSlot(ExprId id) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hashOf_[id] & mask;
  while (slots_[i] != kInvalidExpr) i = (i + 1) & mask;
  slots_[i] = id;
}

ExprFactory::ExprFactory() : slots_(64, kInvalidExpr) {
  intern(NodeKey{ExprKind::kTop, kInvalidRole, 0, kInvalidConcept, {}});
  intern(NodeKey{ExprKind::kBottom, kInvalidRole, 0, kInvalidConcept, {}});
}

ExprId ExprFactory::intern(const NodeKey& key) {
  const std::uint64_t hash = hashKey(key);
  if (const ExprId hit = find(key, hash); hit != kInvalidExpr) return hit;
  OWLCL_ASSERT_MSG(!frozen_, "ExprFactory mutated after freeze()");
  ExprNode n;
  n.kind = key.kind;
  n.role = key.role;
  n.number = key.number;
  n.atom = key.atom;
  n.childBegin = static_cast<std::uint32_t>(childPool_.size());
  n.childCount = static_cast<std::uint32_t>(key.children.size());
  childPool_.insert(childPool_.end(), key.children.begin(), key.children.end());
  const ExprId id = static_cast<ExprId>(nodes_.size());
  nodes_.push_back(n);
  hashOf_.push_back(hash);
  complementMemo_.push_back(kInvalidExpr);
  if (2 * nodes_.size() > slots_.size()) {
    slots_.assign(2 * slots_.size(), kInvalidExpr);
    for (ExprId e = 0; e < nodes_.size(); ++e) insertSlot(e);
  } else {
    insertSlot(id);
  }
  return id;
}

ExprId ExprFactory::atom(ConceptId c) {
  if (c < atomOf_.size() && atomOf_[c] != kInvalidExpr) return atomOf_[c];
  const ExprId id = intern(NodeKey{ExprKind::kAtom, kInvalidRole, 0, c, {}});
  if (c >= atomOf_.size()) atomOf_.resize(std::size_t{c} + 1, kInvalidExpr);
  atomOf_[c] = id;
  return id;
}

ExprId ExprFactory::negate(ExprId e) {
  const ExprNode& n = node(e);
  switch (n.kind) {
    case ExprKind::kTop:
      return bottom();
    case ExprKind::kBottom:
      return top();
    case ExprKind::kNot:
      return children(e)[0];  // ¬¬C = C
    default:
      break;
  }
  const ExprId cs[1] = {e};
  return intern(NodeKey{ExprKind::kNot, kInvalidRole, 0, kInvalidConcept, cs});
}

ExprId ExprFactory::makeNary(ExprKind kind, std::span<const ExprId> cs) {
  OWLCL_ASSERT(kind == ExprKind::kAnd || kind == ExprKind::kOr);
  const bool isAnd = kind == ExprKind::kAnd;
  const ExprId absorbing = isAnd ? bottom() : top();  // ⊥ absorbs ⊓, ⊤ absorbs ⊔
  const ExprId identity = isAnd ? top() : bottom();

  // Flatten nested same-kind operands, drop identities, detect absorbers.
  // The scratch buffer is reused: nothing below re-enters makeNary.
  std::vector<ExprId>& flat = naryScratch_;
  flat.clear();
  auto add = [&](auto&& self, ExprId c) -> bool {  // returns false on absorber
    if (c == absorbing) return false;
    if (c == identity) return true;
    if (node(c).kind == kind) {
      for (ExprId cc : children(c))
        if (!self(self, cc)) return false;
      return true;
    }
    flat.push_back(c);
    return true;
  };
  for (ExprId c : cs)
    if (!add(add, c)) return absorbing;

  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());

  if (flat.empty()) return identity;
  if (flat.size() == 1) return flat[0];

  // Direct complement clash: {C, ¬C} ⊓ … = ⊥ ; {C, ¬C} ⊔ … = ⊤.
  for (ExprId c : flat) {
    if (node(c).kind == ExprKind::kNot &&
        std::binary_search(flat.begin(), flat.end(), children(c)[0]))
      return absorbing;
  }

  return intern(NodeKey{kind, kInvalidRole, 0, kInvalidConcept, flat});
}

ExprId ExprFactory::conj(std::span<const ExprId> cs) {
  return makeNary(ExprKind::kAnd, cs);
}

ExprId ExprFactory::disj(std::span<const ExprId> cs) {
  return makeNary(ExprKind::kOr, cs);
}

ExprId ExprFactory::exists(RoleId r, ExprId c) {
  if (c == bottom()) return bottom();  // ∃R.⊥ ≡ ⊥
  const ExprId cs[1] = {c};
  return intern(NodeKey{ExprKind::kExists, r, 0, kInvalidConcept, cs});
}

ExprId ExprFactory::forall(RoleId r, ExprId c) {
  if (c == top()) return top();  // ∀R.⊤ ≡ ⊤
  const ExprId cs[1] = {c};
  return intern(NodeKey{ExprKind::kForall, r, 0, kInvalidConcept, cs});
}

ExprId ExprFactory::forallInterned(RoleId r, ExprId c) const {
  if (c == top()) return top();
  const ExprId cs[1] = {c};
  const NodeKey key{ExprKind::kForall, r, 0, kInvalidConcept, cs};
  const ExprId id = find(key, hashKey(key));
  OWLCL_ASSERT_MSG(id != kInvalidExpr,
                   "forallInterned: node missing from the closure");
  return id;
}

ExprId ExprFactory::atLeast(std::uint32_t n, RoleId r, ExprId c) {
  if (n == 0) return top();            // ≥0 R.C ≡ ⊤
  if (c == bottom()) return bottom();  // ≥n R.⊥ ≡ ⊥ for n ≥ 1
  if (n == 1) return exists(r, c);     // ≥1 R.C ≡ ∃R.C
  const ExprId cs[1] = {c};
  return intern(NodeKey{ExprKind::kAtLeast, r, n, kInvalidConcept, cs});
}

ExprId ExprFactory::atMost(std::uint32_t n, RoleId r, ExprId c) {
  OWLCL_ASSERT(n <= kMaxCardinality);  // the complement's n + 1 must fit
  if (c == bottom()) return top();  // ≤n R.⊥ ≡ ⊤
  const ExprId cs[1] = {c};
  return intern(NodeKey{ExprKind::kAtMost, r, n, kInvalidConcept, cs});
}

ExprId ExprFactory::complementOf(ExprId e) {
  if (complementMemo_[e] != kInvalidExpr) return complementMemo_[e];

  // Copy the node: recursive interning can reallocate nodes_.
  const ExprNode n = node(e);
  ExprId result = kInvalidExpr;
  switch (n.kind) {
    case ExprKind::kTop:
      result = bottom();
      break;
    case ExprKind::kBottom:
      result = top();
      break;
    case ExprKind::kAtom:
      result = negate(e);
      break;
    case ExprKind::kNot:
      result = toNnf(children(e)[0]);
      break;
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      // Copy the child list first: recursive interning can reallocate the
      // child pool and invalidate the children(e) span.
      const auto cspan = children(e);
      const std::vector<ExprId> cs(cspan.begin(), cspan.end());
      std::vector<ExprId> comp;
      comp.reserve(cs.size());
      for (ExprId c : cs) comp.push_back(complementOf(c));
      result = n.kind == ExprKind::kAnd ? disj(comp) : conj(comp);
      break;
    }
    case ExprKind::kExists:
      result = forall(n.role, complementOf(children(e)[0]));
      break;
    case ExprKind::kForall:
      result = exists(n.role, complementOf(children(e)[0]));
      break;
    case ExprKind::kAtLeast:
      // ¬(≥n R.C) = ≤ n-1 R.C  (n >= 2 after normalisation in atLeast()).
      result = atMost(n.number - 1, n.role, toNnf(children(e)[0]));
      break;
    case ExprKind::kAtMost:
      // ¬(≤n R.C) = ≥ n+1 R.C.
      result = atLeast(n.number + 1, n.role, toNnf(children(e)[0]));
      break;
  }
  OWLCL_ASSERT(result != kInvalidExpr);
  // A complement pair is symmetric; memoise the reverse direction too. An
  // entry written while recursing (in either direction) is kept.
  if (complementMemo_[e] == kInvalidExpr) complementMemo_[e] = result;
  if (complementMemo_[result] == kInvalidExpr) complementMemo_[result] = e;
  return result;
}

ExprId ExprFactory::toNnf(ExprId e) {
  // Copy the node: recursive interning can reallocate nodes_.
  const ExprNode n = node(e);
  switch (n.kind) {
    case ExprKind::kTop:
    case ExprKind::kBottom:
    case ExprKind::kAtom:
      return e;
    case ExprKind::kNot:
      return complementOf(children(e)[0]);
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      // Copy before recursing: interning may invalidate the span.
      const auto cspan = children(e);
      const std::vector<ExprId> orig(cspan.begin(), cspan.end());
      std::vector<ExprId> cs;
      cs.reserve(orig.size());
      bool changed = false;
      for (ExprId c : orig) {
        const ExprId cn = toNnf(c);
        changed |= cn != c;
        cs.push_back(cn);
      }
      if (!changed) return e;
      return n.kind == ExprKind::kAnd ? conj(cs) : disj(cs);
    }
    case ExprKind::kExists: {
      const ExprId c0 = children(e)[0];
      const ExprId c = toNnf(c0);
      return c == c0 ? e : exists(n.role, c);
    }
    case ExprKind::kForall: {
      const ExprId c0 = children(e)[0];
      const ExprId c = toNnf(c0);
      return c == c0 ? e : forall(n.role, c);
    }
    case ExprKind::kAtLeast: {
      const ExprId c0 = children(e)[0];
      const ExprId c = toNnf(c0);
      return c == c0 ? e : atLeast(n.number, n.role, c);
    }
    case ExprKind::kAtMost: {
      const ExprId c0 = children(e)[0];
      const ExprId c = toNnf(c0);
      return c == c0 ? e : atMost(n.number, n.role, c);
    }
  }
  OWLCL_ASSERT_MSG(false, "unreachable ExprKind");
  return e;
}

std::size_t ExprFactory::exprSize(ExprId e) const {
  auto it = sizeMemo_.find(e);
  if (it != sizeMemo_.end()) return it->second;
  std::size_t s = 1;
  for (ExprId c : children(e)) s += exprSize(c);
  sizeMemo_.emplace(e, s);
  return s;
}

}  // namespace owlcl
