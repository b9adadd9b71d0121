#include "owl/rolebox.hpp"

#include "util/assert.hpp"

namespace owlcl {

RoleId RoleBox::declare(std::string_view name) {
  OWLCL_ASSERT_MSG(!frozen_, "RoleBox mutated after freeze()");
  auto it = byName_.find(name);
  if (it != byName_.end()) return it->second;
  const RoleId id = static_cast<RoleId>(names_.size());
  names_.emplace_back(name);
  byName_.emplace(names_.back(), id);
  transitive_.push_back(false);
  return id;
}

RoleId RoleBox::find(std::string_view name) const {
  auto it = byName_.find(name);
  return it == byName_.end() ? kInvalidRole : it->second;
}

void RoleBox::addSubRole(RoleId r, RoleId s) {
  OWLCL_ASSERT(!frozen_);
  OWLCL_ASSERT(r < names_.size() && s < names_.size());
  assertedSubRoles_.emplace_back(r, s);
}

void RoleBox::setTransitive(RoleId r) {
  OWLCL_ASSERT(!frozen_);
  OWLCL_ASSERT(r < names_.size());
  transitive_[r] = true;
}

void RoleBox::freeze() {
  OWLCL_ASSERT(!frozen_);
  const std::size_t n = names_.size();
  superClosure_.assign(n, DynamicBitset(n));
  subClosure_.assign(n, DynamicBitset(n));
  // Reflexive base + asserted edges, then Warshall-style closure. Role
  // hierarchies are small (hundreds at most), so O(n^3/64) is fine.
  for (RoleId r = 0; r < n; ++r) superClosure_[r].set(r);
  for (auto [r, s] : assertedSubRoles_) superClosure_[r].set(s);
  bool changed = true;
  while (changed) {
    changed = false;
    for (RoleId r = 0; r < n; ++r) {
      DynamicBitset before = superClosure_[r];
      for (std::size_t s : superClosure_[r].setBits())
        superClosure_[r] |= superClosure_[s];
      if (!(superClosure_[r] == before)) changed = true;
    }
  }
  for (RoleId r = 0; r < n; ++r)
    for (std::size_t s : superClosure_[r].setBits())
      subClosure_[s].set(static_cast<std::size_t>(r));
  frozen_ = true;
}

bool RoleBox::hasTransitiveBetween(RoleId r, RoleId s) const {
  OWLCL_ASSERT(frozen_);
  for (std::size_t t : superClosure_[r].setBits()) {
    if (transitive_[t] && superClosure_[t].test(s)) return true;
  }
  return false;
}

std::size_t RoleBox::transitiveCount() const {
  std::size_t c = 0;
  for (bool t : transitive_)
    if (t) ++c;
  return c;
}

}  // namespace owlcl
