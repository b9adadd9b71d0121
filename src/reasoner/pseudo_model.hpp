// Pseudo-model merging (the FaCT / Haarslev–Möller "model merging"
// optimisation): after a satisfiable root test for a concept the engine
// keeps a flat summary of the root node of the model it found — the
// positive and negative atomic labels plus the ∃/∀/≤ role signatures. A
// subsumption test B ⊑ A first checks whether the cached pseudo-models of
// B and ¬A are trivially mergable; if they are, the union of the two
// models is itself a model of {B, ¬A}, the test is a *sound*
// non-subsumption, and the tableau run is skipped entirely. Since the
// vast majority of classification tests are negative, this refutes most
// of them in a few set intersections (DESIGN.md §11 has the soundness
// argument).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "owl/ids.hpp"
#include "util/bitset.hpp"

namespace owlcl {

class BitKernels;
struct ReasonerKb;

/// Flat summary of the root node of a found model. All vectors are sorted
/// and deduplicated; existsRoles is closed under super-roles so that role
/// interactions through the hierarchy (r ⊑* s) are visible to the merge
/// check without consulting the RoleBox again.
struct PseudoModel {
  bool valid = false;             // false: root label was not extractable
  std::vector<ConceptId> pos;     // atoms asserted at the root
  std::vector<ConceptId> neg;     // atoms negated at the root
  std::vector<RoleId> existsRoles;  // ∃/≥(n>0) edges, super-closed
  std::vector<RoleId> forallRoles;  // ∀ restrictions at the root
  std::vector<RoleId> atmostRoles;  // ≤ restrictions at the root
};

/// Extracts the pseudo-model of a completed, clash-free root label.
/// Returns an invalid model when the label contains an expression the flat
/// summary cannot represent soundly (never happens for NNF closure labels,
/// but the check keeps the fast path fail-safe).
PseudoModel extractPseudoModel(const ReasonerKb& kb,
                               const std::vector<ExprId>& rootLabel);

/// Sound mergability: true only if the union of the two root nodes (with
/// both successor trees attached unchanged) is guaranteed to be a model.
/// Requires disjoint pos/neg atom sets cross-wise and no role interaction
/// between one root's ∃-edges and the other's ∀/≤ restrictions.
bool pseudoModelsMergable(const PseudoModel& a, const PseudoModel& b);

/// Lock-free per-concept pseudo-model array shared by all workers. Two
/// slots per concept: the model of {C} ("positive") and of {¬C}
/// ("negative", built lazily the first time C appears as a subsumer). A
/// claim/publish protocol guarantees a single builder per slot; readers
/// acquire-load the state and see a fully constructed model or nothing.
/// A slot is a state byte and a pointer to the model publish() allocates,
/// so the store the reasoner's constructor zero-fills stays small.
class SharedModelStore {
 public:
  explicit SharedModelStore(std::size_t concepts)
      : pos_(concepts), neg_(concepts) {}

  SharedModelStore(const SharedModelStore&) = delete;
  SharedModelStore& operator=(const SharedModelStore&) = delete;

  /// Ready model or nullptr. The pointer stays valid for the store's
  /// lifetime (models are never replaced).
  const PseudoModel* find(ConceptId c, bool negated) const {
    const Slot& s = slot(c, negated);
    if (s.state.load(std::memory_order_acquire) != kReady) return nullptr;
    return s.model.get();
  }

  /// True iff the caller won the build (empty → building). A false return
  /// means the slot is being built elsewhere, is ready, or is absent.
  bool claim(ConceptId c, bool negated) {
    std::uint8_t expected = kEmpty;
    return slot(c, negated)
        .state.compare_exchange_strong(expected, kBuilding,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
  }

  /// Publishes the claimed slot; `m` must be valid. building → ready.
  void publish(ConceptId c, bool negated, PseudoModel m) {
    Slot& s = slot(c, negated);
    s.model = std::make_unique<PseudoModel>(std::move(m));
    s.state.store(kReady, std::memory_order_release);
  }

  /// Gives up a claimed slot permanently (unsat root or inextractable
  /// model). building → absent; nobody retries a hopeless slot.
  void abandon(ConceptId c, bool negated) {
    slot(c, negated).state.store(kAbsent, std::memory_order_release);
  }

  /// Diagnostic scan (quiescent use only).
  std::size_t readyCount() const {
    std::size_t n = 0;
    for (const Slot& s : pos_)
      n += s.state.load(std::memory_order_acquire) == kReady;
    for (const Slot& s : neg_)
      n += s.state.load(std::memory_order_acquire) == kReady;
    return n;
  }

 private:
  static constexpr std::uint8_t kEmpty = 0, kBuilding = 1, kReady = 2,
                                kAbsent = 3;
  struct Slot {
    std::atomic<std::uint8_t> state{kEmpty};
    std::unique_ptr<const PseudoModel> model;  // set once, by publish()
  };

  Slot& slot(ConceptId c, bool negated) {
    return negated ? neg_[c] : pos_[c];
  }
  const Slot& slot(ConceptId c, bool negated) const {
    return negated ? neg_[c] : pos_[c];
  }

  std::vector<Slot> pos_;
  std::vector<Slot> neg_;
};

/// The positive models {y} of a SharedModelStore transposed into bit
/// columns over y, so that one row of merge tests — every y against one
/// model(¬x) — is a handful of word ORs (DESIGN.md §11, "Batched merge
/// sweep"). A column exists only for an atom or role that occurs in some
/// model. Immutable once built; refute() is safe from any thread.
class MergeColumns {
 public:
  /// Columns over the positive models ready in `store` for concepts
  /// [0, concepts).
  MergeColumns(const SharedModelStore& store, std::size_t concepts);

  /// refuted = candidates ∧ validPos ∧ ¬blocked(negX), where blocked is
  /// the OR of the columns negX's signature conflicts with: exactly the y
  /// with pseudoModelsMergable(model(y), negX). Words past the columns are
  /// zeroed. Returns the number of bits set.
  std::size_t refute(const PseudoModel& negX, const std::uint64_t* candidates,
                     std::uint64_t* refuted, std::size_t nWords,
                     const BitKernels& kernels) const;

 private:
  DynamicBitset validPos_;                // y with a ready model(y)
  std::vector<DynamicBitset> posCol_;     // atom a → {y : a ∈ pos(y)}
  std::vector<DynamicBitset> negCol_;     // atom a → {y : a ∈ neg(y)}
  std::vector<DynamicBitset> existsCol_;  // role r → {y : r ∈ ∃(y)}
  std::vector<DynamicBitset> forallCol_;  // role r → {y : r ∈ ∀(y)}
  std::vector<DynamicBitset> atmostCol_;  // role r → {y : r ∈ ≤(y)}
};

}  // namespace owlcl
