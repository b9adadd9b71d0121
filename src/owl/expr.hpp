// Hash-consed concept expressions for ALCHQ with transitive roles.
//
// Every syntactically distinct expression is stored exactly once in an
// ExprFactory and addressed by ExprId; structural equality is id equality.
// Construction performs cheap lexical normalisation (flattening, sorting,
// deduplication, ⊤/⊥ identities, direct-complement clash detection) —
// the "lexical normalisation" optimisation of tableau reasoners. The
// hash-consing table is open-addressed over ids and compares a probe key
// against the stored node and child span, so a lookup that hits allocates
// nothing; ids are assigned in creation order.
//
// Concurrency contract (DESIGN.md §5): the factory is mutated only during
// single-threaded loading / preprocessing. freeze() flips it immutable;
// the parallel classification phase performs lock-free reads only. The
// tableau engine never needs new expressions at test time because
// (a) subsumption tests seed the root label with {C, ¬D} rather than
// interning C ⊓ ¬D, and (b) all complements/NNF forms are precomputed by
// the reasoner's preprocessing pass.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "owl/ids.hpp"
#include "util/assert.hpp"

namespace owlcl {

enum class ExprKind : std::uint8_t {
  kTop,      ///< ⊤
  kBottom,   ///< ⊥
  kAtom,     ///< named concept A
  kNot,      ///< ¬C
  kAnd,      ///< C1 ⊓ … ⊓ Cn (n >= 2, flattened, sorted, deduped)
  kOr,       ///< C1 ⊔ … ⊔ Cn (n >= 2, flattened, sorted, deduped)
  kExists,   ///< ∃R.C
  kForall,   ///< ∀R.C
  kAtLeast,  ///< ≥ n R.C (qualified number restriction)
  kAtMost,   ///< ≤ n R.C (qualified number restriction)
};

/// Immutable view of an interned expression node.
struct ExprNode {
  ExprKind kind;
  RoleId role = kInvalidRole;        // kExists/kForall/kAtLeast/kAtMost
  std::uint32_t number = 0;          // kAtLeast/kAtMost: the cardinality n
  ConceptId atom = kInvalidConcept;  // kAtom
  std::uint32_t childBegin = 0;      // index into the factory's child pool
  std::uint32_t childCount = 0;      // kNot/kExists/...: 1; kAnd/kOr: >= 2
};

/// The largest cardinality a number restriction may carry. It leaves room
/// for the n + 1 of ¬(≤n R.C) = ≥(n+1) R.C in 32 bits; the parsers reject
/// anything larger.
inline constexpr std::uint32_t kMaxCardinality = 0x7fffffff;

class ExprFactory {
 public:
  ExprFactory();
  ExprFactory(const ExprFactory&) = delete;
  ExprFactory& operator=(const ExprFactory&) = delete;

  ExprId top() const { return kTopId; }
  ExprId bottom() const { return kBottomId; }

  /// Interned atom for a named concept id (creates on first use).
  ExprId atom(ConceptId c);

  /// ¬e with double-negation elimination and ⊤/⊥ handling. This is a
  /// *syntactic* Not node unless e is ⊤/⊥/¬X; use complementOf() for NNF.
  ExprId negate(ExprId e);

  /// n-ary conjunction; applies flatten/sort/dedup/identity/clash rules.
  ExprId conj(std::span<const ExprId> cs);
  ExprId conj(ExprId a, ExprId b) {
    const ExprId cs[2] = {a, b};
    return conj(cs);
  }

  /// n-ary disjunction; dual of conj().
  ExprId disj(std::span<const ExprId> cs);
  ExprId disj(ExprId a, ExprId b) {
    const ExprId cs[2] = {a, b};
    return disj(cs);
  }

  ExprId exists(RoleId r, ExprId c);
  ExprId forall(RoleId r, ExprId c);
  /// Lookup-only ∀r.c for frozen factories; the node must already be
  /// interned (the reasoner's closure guarantees this for ∀⁺ variants).
  ExprId forallInterned(RoleId r, ExprId c) const;
  ExprId atLeast(std::uint32_t n, RoleId r, ExprId c);
  ExprId atMost(std::uint32_t n, RoleId r, ExprId c);

  /// The negation-normal-form complement of e (memoised).
  ExprId complementOf(ExprId e);

  /// Rewrites e into negation normal form (negation only on atoms).
  ExprId toNnf(ExprId e);

  /// Forbids further interning; reads stay valid and lock-free.
  void freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  const ExprNode& node(ExprId e) const {
    OWLCL_DEBUG_ASSERT(e < nodes_.size());
    return nodes_[e];
  }

  std::span<const ExprId> children(ExprId e) const {
    const ExprNode& n = node(e);
    return {childPool_.data() + n.childBegin, n.childCount};
  }

  ExprKind kind(ExprId e) const { return node(e).kind; }
  std::size_t size() const { return nodes_.size(); }

  /// Syntactic size (number of nodes in the expression tree; shared
  /// sub-DAGs counted once per occurrence is avoided via memoisation).
  /// Used by cost models and metrics.
  std::size_t exprSize(ExprId e) const;

 private:
  static constexpr ExprId kTopId = 0;
  static constexpr ExprId kBottomId = 1;

  /// A node's identity as the hash-consing table sees it. `children`
  /// points at caller storage, so a lookup allocates nothing.
  struct NodeKey {
    ExprKind kind;
    RoleId role;
    std::uint32_t number;
    ConceptId atom;
    std::span<const ExprId> children;
  };

  static std::uint64_t hashKey(const NodeKey& k);
  bool matches(ExprId id, const NodeKey& k) const;
  /// The interned id of `k`, or kInvalidExpr.
  ExprId find(const NodeKey& k, std::uint64_t hash) const;
  ExprId intern(const NodeKey& k);
  void insertSlot(ExprId id);
  ExprId makeNary(ExprKind kind, std::span<const ExprId> cs);

  std::vector<ExprNode> nodes_;
  std::vector<ExprId> childPool_;
  /// Open-addressing table of ids (kInvalidExpr = empty slot), linear
  /// probing, power-of-two size, load factor at most 1/2.
  std::vector<ExprId> slots_;
  std::vector<std::uint64_t> hashOf_;  // per node, for rehashing
  std::vector<ExprId> atomOf_;         // ConceptId → atom id or kInvalidExpr
  std::vector<ExprId> complementMemo_; // ExprId → complement or kInvalidExpr
  std::vector<ExprId> naryScratch_;    // makeNary's flattened operands
  mutable std::unordered_map<ExprId, std::size_t> sizeMemo_;
  bool frozen_ = false;
};

}  // namespace owlcl
