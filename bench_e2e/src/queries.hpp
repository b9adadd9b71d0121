// Read queries for bench_e2e and the checker for their answers.
//
// A batch uses bench_serve's mixed read workload (about 50 % subs, 20 % sat,
// 30 % descendants, concepts drawn uniformly) over a corpus's satisfiable
// base concepts, and every answer is checked against the generator's
// GroundTruth. Under serve-delta the writer's pool leaves appear in
// descendants answers: the LeafRegistry lets the checker accept exactly
// those with a parent, in some generation, below the queried concept.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "corpus.hpp"
#include "util/rng.hpp"

namespace bench {

struct ReadQuery {
  enum class Kind : std::uint8_t { kSubs, kSat, kDescendants };
  Kind kind = Kind::kSat;
  owlcl::ConceptId a = 0;  ///< subs: the subsumee; sat/descendants: the concept
  owlcl::ConceptId b = 0;  ///< subs: the subsumer
};

/// The fixed pool of leaf classes serve-delta declares once at set-up and
/// then attaches under base concepts and detaches again, so the served
/// TBox does not grow. Each leaf keeps every parent it has had: a reader
/// may be answered from any generation. Thread-safe.
class LeafRegistry {
 public:
  LeafRegistry(std::string prefix, std::size_t size)
      : prefix_(std::move(prefix)), parents_(size) {}
  std::size_t size() const { return parents_.size(); }
  /// Name of pool leaf `k`.
  std::string name(std::size_t k) const { return prefix_ + std::to_string(k); }
  /// Records `parent` (generator id) as a parent of leaf `k`; call it
  /// before the attaching commit is sent.
  void attach(std::size_t k, owlcl::ConceptId parent);
  /// True when `name` is a pool leaf that has had a parent below
  /// `above`, that is, when it may be listed among its descendants.
  bool mayDescend(std::string_view name, owlcl::ConceptId above,
                  const owlcl::GroundTruth& truth) const;

 private:
  std::string prefix_;
  mutable std::mutex mu_;  // guards parents_
  std::vector<std::vector<owlcl::ConceptId>> parents_;
};

/// A satisfiable base concept drawn uniformly.
owlcl::ConceptId drawConcept(const Corpus& c, owlcl::Xoshiro256& rng);

/// Draws `size` queries of bench_serve's mix over satisfiable base concepts.
std::vector<ReadQuery> drawQueries(const Corpus& c, owlcl::Xoshiro256& rng,
                                   std::size_t size);

/// The protocol's {"op":"batch",...} line for `qs`.
std::string batchLine(const Corpus& c, const std::vector<ReadQuery>& qs);

/// True when `response` answers every query in `qs` correctly. `leaves`
/// is null when no deltas run. On false, *why says what was wrong.
bool checkBatch(std::string_view response, const Corpus& c,
                const std::vector<ReadQuery>& qs, const LeafRegistry* leaves,
                std::string* why);

}  // namespace bench
