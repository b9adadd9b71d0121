// TaxonomySnapshot — the finished taxonomy DAG compiled into an immutable
// read-optimized query index (DESIGN.md §16).
//
// The serving steady state is reads: millions of subs?/sat?/descendants
// queries against a taxonomy that only changes at delta commits. The live
// Taxonomy answers subs? with an iterative DFS (pointer chasing plus a
// visited bitset allocated per call) and descendants with a BFS plus a
// per-query name sort — fine for one-shot CLI output, hostile to a hot
// serve loop. This class compiles the DAG once, off the query path, into
// three flat structures:
//
//   (a) a topological node order (Kahn over the parent lists);
//   (b) pre/post *interval labels* over a spanning tree of the DAG (each
//       node's tree parent is its first direct subsumer) plus, for the
//       non-tree edges every real DAG has, a compressed per-node "extra
//       ancestors" bitset (only the nonzero word span is stored). subs?
//       becomes: one O(1) interval comparison, and only when that misses
//       a single-word probe of the extra-ancestor pool;
//   (c) per-node descendant lists materialized contiguously — both as
//       concept-id ranges into one shared pool (name-rank order) and as
//       the fully escaped JSON array the wire protocol emits, so a
//       descendants answer is a single cache-linear copy, no traversal,
//       no sort, no per-query allocation.
//
// Build cost is one nodes × nodes/64-word ancestor matrix of scratch
// (word-parallel unions via the BitKernels backend); the extra-ancestor
// pool and the descendant lists are both read off it, and each concept
// name is JSON-escaped once. The cost is paid once per generation:
// after the initial classification and after every committed delta, never
// on a query thread. Snapshots are published RCU-style through the
// QueryEngine's copy-on-write EngineView swap; an in-flight query/batch
// pins exactly one generation via shared_ptr and never observes a swap.
//
// Every run that builds a taxonomy gets a snapshot, a PARTIAL one too
// (unresolved pairs or concepts, or a cancelled run); only a paused run,
// which builds no taxonomy, has none. complete() tells the serving layer
// which kind it holds: a PARTIAL snapshot places unresolved concepts as if
// satisfiable and cannot tell an unresolved pair from a refuted one, so
// only descendants answers from it there. The snapshot is fully
// self-contained (names are copied into the compiled pools), so it stays
// valid even after its source Taxonomy/TBox generation is retired.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "owl/ids.hpp"
#include "taxonomy/taxonomy.hpp"

namespace owlcl {

class TBox;
class BitKernels;

class TaxonomySnapshot {
 public:
  /// Build-time report, surfaced through --stats and the BENCH_serve.json
  /// snapshot block.
  struct BuildStats {
    std::uint64_t generation = 0;   ///< delta epoch this snapshot serves
    std::uint64_t buildNs = 0;      ///< wall time of the compile
    std::size_t compiledBytes = 0;  ///< resident size of all pools
    std::size_t nodes = 0;
    std::size_t concepts = 0;
    std::size_t treeEdges = 0;     ///< spanning-tree edges (interval-covered)
    std::size_t nonTreeEdges = 0;  ///< DAG edges needing the extra bitsets
    std::size_t extraWords = 0;    ///< compressed extra-ancestor pool words
    std::size_t descendantIds = 0; ///< total materialized descendant entries
  };

  /// Compiles `tax` (must be finalized) into a snapshot. `tbox` supplies
  /// concept names for the descendant pools and must describe the same
  /// concept ids. `complete` says whether the run resolved every pair
  /// and concept; descendants answers echo it.
  /// `kernels` defaults to activeBitKernels(); an explicit backend exists
  /// for the differential suites, which compare the two.
  static std::shared_ptr<const TaxonomySnapshot> build(
      const Taxonomy& tax, const TBox& tbox, bool complete,
      std::uint64_t generation, const BitKernels* kernels = nullptr);

  // --- O(1) queries -----------------------------------------------------------

  std::size_t conceptCount() const { return nodeOf_.size(); }
  bool complete() const { return complete_; }
  const BuildStats& stats() const { return stats_; }

  /// True when `c` was placed in the taxonomy (always, for complete runs).
  bool placed(ConceptId c) const {
    return c < nodeOf_.size() && nodeOf_[c] != Taxonomy::kNoNode;
  }

  bool satisfiable(ConceptId c) const {
    return nodeOf_[c] != Taxonomy::kBottomNode;
  }

  bool equivalent(ConceptId a, ConceptId b) const {
    return nodeOf_[a] == nodeOf_[b];
  }

  /// sub ⊑ sup? One interval comparison; on a miss, one word probe of the
  /// compressed extra-ancestor pool. When `probedBitset` is non-null it is
  /// set to true iff the answer needed the bitset probe (the
  /// interval-hit / bitset-probe split surfaced through --stats).
  bool subsumes(ConceptId sup, ConceptId sub,
                bool* probedBitset = nullptr) const {
    const Taxonomy::NodeId a = nodeOf_[sup];
    const Taxonomy::NodeId b = nodeOf_[sub];
    if (probedBitset != nullptr) *probedBitset = false;
    if (b == Taxonomy::kBottomNode) return true;  // unsat sub is below all
    const std::uint32_t pb = pre_[b];
    if (pre_[a] <= pb && pb < post_[a]) return true;  // tree ancestor-or-self
    // Non-tree ancestry: probe b's compressed extra-ancestor words.
    const ExtraRef& e = extra_[b];
    const std::uint32_t w = a >> 6;
    if (w < e.firstWord || w >= e.firstWord + e.wordCount) return false;
    if (probedBitset != nullptr) *probedBitset = true;
    return (extraWords_[e.offset + (w - e.firstWord)] >> (a & 63)) & 1u;
  }

  /// Number of strict descendants of `c` (members of c's own node —
  /// including c and its equivalents — excluded; unsatisfiable concepts at
  /// ⊥ included, as a walk down the DAG finds them).
  std::size_t descendantCount(ConceptId c) const {
    return desc_[nodeOf_[c]].count;
  }

  /// Descendant concept ids, name-rank sorted, as a contiguous range into
  /// the shared pool.
  const ConceptId* descendantIds(ConceptId c) const {
    return descIdPool_.data() + desc_[nodeOf_[c]].offset;
  }

  /// The precompiled JSON array ("[\"A\",\"B\"]", names byte-sorted and
  /// escaped) a descendants response embeds verbatim.
  const std::string& descendantsJson(ConceptId c) const {
    return descJson_[nodeOf_[c]];
  }

 private:
  TaxonomySnapshot() = default;

  struct ExtraRef {
    std::uint32_t offset = 0;     ///< index into extraWords_
    std::uint32_t firstWord = 0;  ///< node-id word the slice starts at
    std::uint32_t wordCount = 0;  ///< 0 = no extra ancestors
  };
  struct DescRef {
    std::uint32_t offset = 0;  ///< index into descIdPool_
    std::uint32_t count = 0;
  };

  std::vector<Taxonomy::NodeId> nodeOf_;  // concept → node
  std::vector<std::uint32_t> pre_, post_; // per node: tree DFS interval
  std::vector<ExtraRef> extra_;           // per node: non-tree ancestors
  std::vector<std::uint64_t> extraWords_; // shared compressed bitset pool
  std::vector<DescRef> desc_;             // per node: descendant range
  std::vector<ConceptId> descIdPool_;     // shared id pool (name-rank order)
  std::vector<std::string> descJson_;     // per node: precompiled JSON array
  bool complete_ = true;
  BuildStats stats_;
};

}  // namespace owlcl
