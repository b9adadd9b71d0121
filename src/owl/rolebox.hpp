// RBox: named roles, the role hierarchy (⊑ between roles) and
// transitivity flags, with precomputed reflexive-transitive closure.
//
// Used by the tableau ∀⁺-rule (propagation over transitive sub-roles,
// the SH technique of Horrocks & Sattler) and by the metrics module for
// expressivity detection.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "owl/ids.hpp"
#include "util/bitset.hpp"
#include "util/strings.hpp"

namespace owlcl {

class RoleBox {
 public:
  /// Declares (or returns) the role named `name`.
  RoleId declare(std::string_view name);

  /// Returns the id of `name` or kInvalidRole.
  RoleId find(std::string_view name) const;

  const std::string& name(RoleId r) const { return names_[r]; }
  std::size_t size() const { return names_.size(); }

  /// Asserts r ⊑ s.
  void addSubRole(RoleId r, RoleId s);
  /// Asserts Trans(r).
  void setTransitive(RoleId r);

  bool isTransitiveDeclared(RoleId r) const { return transitive_[r]; }

  /// Computes the reflexive-transitive closure of ⊑. Must be called after
  /// all declarations and before any query below.
  void freeze();
  bool frozen() const { return frozen_; }

  /// r ⊑* s (reflexive-transitive).
  bool isSubRoleOf(RoleId r, RoleId s) const { return superClosure_[r].test(s); }

  /// All s with r ⊑* s, as a bitset over role ids.
  const DynamicBitset& superRoles(RoleId r) const { return superClosure_[r]; }

  /// All t with t ⊑* s, as a bitset over role ids.
  const DynamicBitset& subRoles(RoleId s) const { return subClosure_[s]; }

  /// True iff some declared-transitive t satisfies r ⊑* t ⊑* s.
  /// This is the guard of the tableau ∀⁺-rule.
  bool hasTransitiveBetween(RoleId r, RoleId s) const;

  /// Number of asserted (told) sub-role axioms.
  std::size_t assertedSubRoleCount() const { return assertedSubRoles_.size(); }
  std::size_t transitiveCount() const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, RoleId, StringHash, std::equal_to<>> byName_;
  std::vector<std::pair<RoleId, RoleId>> assertedSubRoles_;  // (sub, super)
  std::vector<bool> transitive_;
  std::vector<DynamicBitset> superClosure_;
  std::vector<DynamicBitset> subClosure_;
  bool frozen_ = false;
};

}  // namespace owlcl
