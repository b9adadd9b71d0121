// TBox: the terminological component of an ontology — named concepts,
// the role box, and concept axioms. This is the object the classifiers
// and reasoners consume.
//
// Lifecycle: declare concepts/roles and add axioms, then freeze(). After
// freeze the axiom list is canonicalised (equivalences and disjointness
// expanded into subclass axioms) and the role closure is available.
// Concept ids are dense 0..conceptCount()-1 in declaration order — the
// classifier's P/K bit matrices index by them directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "owl/expr.hpp"
#include "owl/ids.hpp"
#include "owl/rolebox.hpp"
#include "util/strings.hpp"

namespace owlcl {

/// A canonicalised concept-inclusion axiom lhs ⊑ rhs.
struct SubClassAxiom {
  ExprId lhs;
  ExprId rhs;
};

/// Raw (as-told) axioms, retained for metrics and serialisation.
enum class AxiomKind : std::uint8_t {
  kSubClassOf,
  kEquivalentClasses,
  kDisjointClasses,
  kSubObjectPropertyOf,
  kTransitiveObjectProperty,
  kAnnotation,  // logically inert (labels/comments); counted in metrics
};

struct ToldAxiom {
  AxiomKind kind;
  std::vector<ExprId> classArgs;  // class-expression operands
  RoleId role1 = kInvalidRole;    // property operands
  RoleId role2 = kInvalidRole;
  std::string text;               // kAnnotation: the literal
};

class TBox {
 public:
  TBox() = default;
  TBox(const TBox&) = delete;
  TBox& operator=(const TBox&) = delete;

  // --- signature ---------------------------------------------------------
  ConceptId declareConcept(std::string_view name);
  ConceptId findConcept(std::string_view name) const;
  const std::string& conceptName(ConceptId c) const { return conceptNames_[c]; }
  std::size_t conceptCount() const { return conceptNames_.size(); }

  RoleId declareRole(std::string_view name) { return roles_.declare(name); }

  ExprFactory& exprs() { return exprs_; }
  const ExprFactory& exprs() const { return exprs_; }
  RoleBox& roles() { return roles_; }
  const RoleBox& roles() const { return roles_; }

  // --- axioms ------------------------------------------------------------
  void addSubClassOf(ExprId sub, ExprId sup);
  void addEquivalentClasses(std::vector<ExprId> cs);
  void addDisjointClasses(std::vector<ExprId> cs);
  void addSubObjectPropertyOf(RoleId r, RoleId s);
  void addTransitiveObjectProperty(RoleId r);
  /// rdfs:comment-style annotation on a named concept. Logically inert;
  /// exists so generated corpora can match real ontologies' axiom counts.
  void addAnnotation(ConceptId c, std::string text);

  const std::vector<ToldAxiom>& toldAxioms() const { return told_; }

  // --- freeze + canonical view -------------------------------------------
  /// Canonicalises axioms and freezes the role box. Idempotent.
  void freeze();
  bool frozen() const { return frozen_; }

  /// All inclusions with equivalences/disjointness expanded (post-freeze).
  const std::vector<SubClassAxiom>& inclusions() const {
    OWLCL_ASSERT(frozen_);
    return inclusions_;
  }

  /// Told axiom count in the OWL sense (one per asserted axiom, plus
  /// declarations), used for the Table IV/V "Axiom" column.
  std::size_t axiomCountOwl() const;

 private:
  std::vector<std::string> conceptNames_;
  std::unordered_map<std::string, ConceptId, StringHash, std::equal_to<>> conceptByName_;
  ExprFactory exprs_;
  RoleBox roles_;
  std::vector<ToldAxiom> told_;
  std::vector<SubClassAxiom> inclusions_;
  bool frozen_ = false;
};

}  // namespace owlcl
