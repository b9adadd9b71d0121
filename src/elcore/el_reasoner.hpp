// EL+ saturation-based classifier (Baader, Brandt & Lutz completion rules;
// the algorithm family ELK parallelises). Polynomial-time and complete for
// the EL+ fragment: ⊤, ⊥, named concepts, ⊓, ∃, DisjointClasses, role
// hierarchies and transitive roles.
//
// Normalisation is polarity-aware: a complex expression gets only the
// definition direction its occurrences need (positive: F ⊑ …, negative:
// … ⊑ F), so the completion rules fire only where a rule body can match.
// Transitivity needs no link composition: each negative ∃s.A ⊑ B gains,
// per declared-transitive t ⊑* s, one atom E with ∃t.A ⊑ E, ∃t.E ⊑ E and
// E ⊑ B, which carries A back along t-chains of any length.
//
// Roles in this codebase (DESIGN.md §2):
//  * routing pre-pass — the parallel classifier saturates the maximal EL
//    sub-ontology before phase 1 and seeds P/K from it (DESIGN.md §13);
//  * plug-in backend (core/el_plugin.hpp) — the ELK-style comparator for
//    the backend ablation bench and the delta-reclassification tests;
//  * cross-check oracle — integration tests compare the tableau reasoner
//    and the parallel classifier against this saturation on EL ontologies.
//
// Usage: construct with a frozen TBox whose axioms are all in the EL
// fragment (isElTBox() tells you), call classify(), then query subsumes().
#pragma once

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "owl/tbox.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace owlcl {

class CancellationToken;

/// True iff every told axiom of `tbox` lies in the EL+ fragment
/// (no ⊔, ¬, ∀, ≥, ≤; DisjointClasses is allowed — it is encoded via ⊥).
/// Delegates to the owl-layer detector (owl/el_fragment.hpp).
bool isElTBox(const TBox& tbox);

class ElReasoner {
 public:
  /// `tbox` must outlive the reasoner, be frozen, and satisfy isElTBox().
  explicit ElReasoner(const TBox& tbox);

  /// As above, but saturates only the told axioms whose index is set in
  /// `axiomMask` (aligned with tbox.toldAxioms()). Every selected axiom
  /// must be EL-safe (isElSafeAxiom); unselected axioms may be anything —
  /// this is how the hybrid router feeds the maximal EL sub-ontology of a
  /// mixed ALCHQ TBox to saturation. The role box (hierarchy closure,
  /// transitivity) is always consumed whole; role axioms are EL-safe by
  /// construction.
  ElReasoner(const TBox& tbox, std::vector<std::uint8_t> axiomMask);

  /// Runs saturation to a fixpoint and returns true. Polls `cancel` every
  /// few thousand rule applications and returns false once it fires; the
  /// reasoner is then unclassified (no queries) until a later call resumes
  /// the saturation. Idempotent once it has returned true.
  bool classify(const CancellationToken* cancel = nullptr);

  /// After classify(): does `sup` subsume `sub` (i.e. sub ⊑ sup)? O(1).
  bool subsumes(ConceptId sup, ConceptId sub) const;

  /// Is the named concept satisfiable (⊥ ∉ S(A))?
  bool isSatisfiable(ConceptId c) const;

  /// All named strict subsumers of `sub` (excluding ⊤ and sub itself).
  std::vector<ConceptId> subsumersOf(ConceptId sub) const;

  /// After classify(): invokes cb(sup, sub) once for every ordered named
  /// pair with sup != sub, subsumes(sup, sub) and sub satisfiable — the
  /// derived subsumption closure of the satisfiable concepts, by sub and
  /// then sup ascending. An unsatisfiable sub emits nothing; callers that
  /// need its "under everything" row read isSatisfiable(). The router
  /// consumes this to bulk-seed the classifier's K matrix. Visits only
  /// the non-zero words of each S(sub) (see nonZeroWords_).
  template <typename Fn>
  void forEachSubsumption(Fn&& cb) const {
    OWLCL_ASSERT(classified_);
    const std::size_t n = tbox_.conceptCount();
    const Atom namedEnd = namedAtom(static_cast<ConceptId>(n));
    const std::size_t lastWord = (namedEnd - 1) / 64;  // past it: no named atom
    for (std::size_t sub = 0; sub < n; ++sub) {
      const ConceptId subC = static_cast<ConceptId>(sub);
      const Atom subAtom = namedAtom(subC);
      const DynamicBitset& s = subsumers_[subAtom];
      if (s.test(kBotAtom)) continue;
      const std::uint64_t* nz = &nonZeroWords_[subAtom * summaryWords_];
      for (std::size_t j = 0; j <= lastWord / 64; ++j)
        for (std::uint64_t m = nz[j]; m != 0; m &= m - 1) {
          const std::size_t w = j * 64 + static_cast<std::size_t>(std::countr_zero(m));
          if (w > lastWord) break;
          for (std::uint64_t v = s.words()[w]; v != 0; v &= v - 1) {
            const Atom a = static_cast<Atom>(w * 64 + std::countr_zero(v));
            if (a < 2 || a >= namedEnd || a == subAtom) continue;
            cb(static_cast<ConceptId>(a - 2), subC);
          }
        }
    }
  }

  /// Number of completion-rule applications performed (for benches).
  std::size_t ruleApplications() const { return ruleApplications_; }

 private:
  // Internal atoms: 0 = ⊤, 1 = ⊥, 2..2+n-1 = named concepts, then fresh
  // atoms introduced by normalisation.
  using Atom = std::uint32_t;
  static constexpr Atom kTopAtom = 0;
  static constexpr Atom kBotAtom = 1;

  /// Occurrence polarities of an expression: positive on the right of ⊑,
  /// negative on the left (and in DisjointClasses), both under ≡.
  static constexpr std::uint8_t kPositive = 1;
  static constexpr std::uint8_t kNegative = 2;
  static constexpr std::uint8_t kBoth = kPositive | kNegative;

  Atom namedAtom(ConceptId c) const { return static_cast<Atom>(2 + c); }

  struct Nf2 {
    Atom other;  // the second conjunct to look for in S(x)
    Atom rhs;
  };
  struct Nf3 {
    RoleId role;
    Atom filler;
  };
  struct Nf4 {
    RoleId role;
    Atom rhs;
  };

  struct SubEvent {
    Atom x, s;
  };
  struct LinkEvent {
    RoleId r;
    Atom x, y;
  };

  /// An expression's atom and the polarities already defined for it.
  struct Definition {
    Atom atom;
    std::uint8_t polarities;
  };

  Atom freshAtom();
  /// Maps an EL expression to an atom, adding the definition axioms for
  /// the polarities in `polarity` that are not defined yet.
  Atom atomize(ExprId e, std::uint8_t polarity);
  /// E(t, A) ≡ ∃t.A for transitive t: ∃t.A ⊑ E and ∃t.E ⊑ E.
  Atom transitiveAtom(RoleId t, Atom a);

  void addNf1(Atom a, Atom b);
  void addNf2(Atom a1, Atom a2, Atom b);
  void addNf3(Atom a, RoleId r, Atom b);
  void addNf4(RoleId r, Atom a, Atom b);

  void normalise();
  void initSaturation();
  bool saturate(const CancellationToken* cancel);
  void processSub(const SubEvent& ev);
  void processLink(const LinkEvent& ev);

  /// Allocates S(x) and seeds it with x and ⊤, once per atom. Named atoms
  /// start active; any other atom only once it becomes a link target.
  void activate(Atom x);
  void addSubsumer(Atom x, Atom s);
  /// Records the link (x,y) under its told role r. CR3 fires once per
  /// (x, F) for the one atom F defining ∃r.y, so no link repeats and none
  /// needs a dedup check. Super-roles (CR10) are matched at CR4 time.
  void addLink(RoleId r, Atom x, Atom y);

  const TBox& tbox_;
  /// Told-axiom filter for the masked constructor; empty = all axioms.
  std::vector<std::uint8_t> axiomMask_;
  bool classified_ = false;
  std::size_t atomCount_ = 0;
  std::size_t ruleApplications_ = 0;

  // Axiom indexes, keyed by atom.
  std::vector<std::vector<Atom>> nf1Of_;  // A  -> [B]        (A ⊑ B)
  std::vector<std::vector<Nf2>> nf2Of_;   // A1 -> [(A2, B)]  (both orders)
  std::vector<std::vector<Nf3>> nf3Of_;   // A  -> [(r, B)]   (A ⊑ ∃r.B)
  std::vector<std::vector<Nf4>> nf4Of_;   // A  -> [(r, B)]   (∃r.A ⊑ B)

  std::unordered_map<ExprId, Definition> defined_;      // definition cache
  std::unordered_map<std::uint64_t, Atom> transAtom_;   // t << 32 | A -> E

  // Saturation state.
  std::vector<DynamicBitset> negFiller_;  // [r] {A : some ∃r.A ⊑ B}; may be empty
  std::vector<DynamicBitset> subsumers_;  // S(x); empty = inactive
  /// Which words of S(x) are non-zero: summaryWords_ words per atom, bit w
  /// set once word w of S(x) holds a subsumer. Sized atoms × atoms / 4096
  /// bits, 1/64 of the S(x) matrix; no per-edge record is kept.
  std::vector<std::uint64_t> nonZeroWords_;
  std::size_t summaryWords_ = 0;
  std::vector<std::vector<std::vector<Atom>>> linkBwd_;  // [r][y] -> xs

  std::vector<SubEvent> subQueue_;
  std::vector<LinkEvent> linkQueue_;
};

}  // namespace owlcl
