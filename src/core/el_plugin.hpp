// ReasonerPlugin over one EL saturation: the ElReasoner classifies the
// whole TBox once at construction, then every sat?/subs? is an O(1)
// lookup in the fixpoint. The ELK-style comparator behind the plug-in
// boundary: bench_ablation_backend and the delta-reclassification tests
// use it to show that the classifier's reasoner can be replaced (the
// paper's point). owlcl itself always plugs in the tableau; its EL
// fast path is routing (DESIGN.md §13), which beats this backend.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/plugin.hpp"
#include "elcore/el_reasoner.hpp"

namespace owlcl {

class ElPlugin : public ReasonerPlugin {
 public:
  /// `tbox` must outlive the plug-in, be frozen, and satisfy isElTBox().
  explicit ElPlugin(const TBox& tbox) : el_(tbox) { el_.classify(); }

  bool isSatisfiable(ConceptId c, std::uint64_t* costNs) override {
    tests_.fetch_add(1, std::memory_order_relaxed);
    if (costNs != nullptr) *costNs = kLookupCostNs;
    return el_.isSatisfiable(c);
  }
  bool isSubsumedBy(ConceptId sub, ConceptId sup,
                    std::uint64_t* costNs) override {
    tests_.fetch_add(1, std::memory_order_relaxed);
    if (costNs != nullptr) *costNs = kLookupCostNs;
    return el_.subsumes(sup, sub);
  }
  std::uint64_t testCount() const override {
    return tests_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kLookupCostNs = 100;

  ElReasoner el_;
  std::atomic<std::uint64_t> tests_{0};
};

}  // namespace owlcl
