#include "owl/tbox.hpp"

namespace owlcl {

ConceptId TBox::declareConcept(std::string_view name) {
  OWLCL_ASSERT_MSG(!frozen_, "TBox mutated after freeze()");
  auto it = conceptByName_.find(name);
  if (it != conceptByName_.end()) return it->second;
  const ConceptId id = static_cast<ConceptId>(conceptNames_.size());
  conceptNames_.emplace_back(name);
  conceptByName_.emplace(conceptNames_.back(), id);
  return id;
}

ConceptId TBox::findConcept(std::string_view name) const {
  auto it = conceptByName_.find(name);
  return it == conceptByName_.end() ? kInvalidConcept : it->second;
}

void TBox::addSubClassOf(ExprId sub, ExprId sup) {
  OWLCL_ASSERT(!frozen_);
  told_.push_back(ToldAxiom{AxiomKind::kSubClassOf, {sub, sup}, kInvalidRole,
                            kInvalidRole, {}});
}

void TBox::addEquivalentClasses(std::vector<ExprId> cs) {
  OWLCL_ASSERT(!frozen_);
  OWLCL_ASSERT(cs.size() >= 2);
  told_.push_back(
      ToldAxiom{AxiomKind::kEquivalentClasses, std::move(cs), kInvalidRole,
                kInvalidRole, {}});
}

void TBox::addDisjointClasses(std::vector<ExprId> cs) {
  OWLCL_ASSERT(!frozen_);
  OWLCL_ASSERT(cs.size() >= 2);
  told_.push_back(
      ToldAxiom{AxiomKind::kDisjointClasses, std::move(cs), kInvalidRole,
                kInvalidRole, {}});
}

void TBox::addSubObjectPropertyOf(RoleId r, RoleId s) {
  OWLCL_ASSERT(!frozen_);
  roles_.addSubRole(r, s);
  told_.push_back(ToldAxiom{AxiomKind::kSubObjectPropertyOf, {}, r, s, {}});
}

void TBox::addTransitiveObjectProperty(RoleId r) {
  OWLCL_ASSERT(!frozen_);
  roles_.setTransitive(r);
  told_.push_back(
      ToldAxiom{AxiomKind::kTransitiveObjectProperty, {}, r, kInvalidRole, {}});
}

void TBox::addAnnotation(ConceptId c, std::string text) {
  OWLCL_ASSERT(!frozen_);
  told_.push_back(ToldAxiom{AxiomKind::kAnnotation,
                            {exprs_.atom(c)},
                            kInvalidRole,
                            kInvalidRole,
                            std::move(text)});
}

void TBox::freeze() {
  if (frozen_) return;
  if (!roles_.frozen()) roles_.freeze();
  for (const ToldAxiom& ax : told_) {
    switch (ax.kind) {
      case AxiomKind::kSubClassOf:
        inclusions_.push_back({ax.classArgs[0], ax.classArgs[1]});
        break;
      case AxiomKind::kEquivalentClasses:
        // C1 ≡ C2 ≡ … ≡ Cn  →  ring of inclusions (n axioms suffice).
        for (std::size_t i = 0; i + 1 < ax.classArgs.size(); ++i) {
          inclusions_.push_back({ax.classArgs[i], ax.classArgs[i + 1]});
          inclusions_.push_back({ax.classArgs[i + 1], ax.classArgs[i]});
        }
        break;
      case AxiomKind::kDisjointClasses:
        // Pairwise Ci ⊑ ¬Cj for i < j.
        for (std::size_t i = 0; i < ax.classArgs.size(); ++i)
          for (std::size_t j = i + 1; j < ax.classArgs.size(); ++j)
            inclusions_.push_back(
                {ax.classArgs[i], exprs_.negate(ax.classArgs[j])});
        break;
      case AxiomKind::kSubObjectPropertyOf:
      case AxiomKind::kTransitiveObjectProperty:
        break;  // handled by the role box
      case AxiomKind::kAnnotation:
        break;  // logically inert
    }
  }
  frozen_ = true;
}

std::size_t TBox::axiomCountOwl() const {
  // Declarations + logical axioms, matching how OWL tools (and the paper's
  // Table IV/V) count: one Declaration per entity plus each told axiom.
  return conceptNames_.size() + roles_.size() + told_.size();
}

}  // namespace owlcl
