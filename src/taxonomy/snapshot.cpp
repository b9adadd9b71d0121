#include "taxonomy/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "owl/tbox.hpp"
#include "parallel/bit_kernels.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace owlcl {

namespace {

using Word = BitKernels::Word;

constexpr std::size_t wordsFor(std::size_t bits) { return (bits + 63) / 64; }

/// One N×W bitset matrix of plain words (build-time scratch; no atomics —
/// the compile runs single-threaded off the query path).
struct WordMatrix {
  std::vector<Word> words;
  std::size_t stride = 0;
  WordMatrix(std::size_t rows, std::size_t w) : words(rows * w, 0), stride(w) {}
  Word* row(std::size_t r) { return words.data() + r * stride; }
  void setBit(std::size_t r, std::size_t bit) {
    words[r * stride + (bit >> 6)] |= Word{1} << (bit & 63);
  }
};

}  // namespace

std::shared_ptr<const TaxonomySnapshot> TaxonomySnapshot::build(
    const Taxonomy& tax, const TBox& tbox, bool complete,
    std::uint64_t generation, const BitKernels* kernels) {
  const auto t0 = std::chrono::steady_clock::now();
  if (kernels == nullptr) kernels = &activeBitKernels();

  const std::size_t n = tax.nodeCount();
  const std::size_t w = wordsFor(n);
  OWLCL_ASSERT(n >= 2);  // ⊤ and ⊥ always exist

  auto snap = std::shared_ptr<TaxonomySnapshot>(new TaxonomySnapshot());
  snap->complete_ = complete;
  snap->nodeOf_.resize(tax.conceptCount());
  for (ConceptId c = 0; c < tax.conceptCount(); ++c)
    snap->nodeOf_[c] = tax.nodeOf(c);

  // --- topological node order (Kahn over the parent lists) -------------------
  // finalize() guarantees every node but ⊤ has at least one parent and all
  // nodes are reachable from ⊤, so the queue drains every node.
  std::vector<Taxonomy::NodeId> topo;
  topo.reserve(n);
  {
    std::vector<std::uint32_t> indeg(n);
    for (std::size_t v = 0; v < n; ++v)
      indeg[v] = static_cast<std::uint32_t>(tax.node(v).parents.size());
    std::vector<Taxonomy::NodeId> queue;
    for (std::size_t v = 0; v < n; ++v)
      if (indeg[v] == 0) queue.push_back(static_cast<Taxonomy::NodeId>(v));
    while (!queue.empty()) {
      const Taxonomy::NodeId v = queue.back();
      queue.pop_back();
      topo.push_back(v);
      for (const Taxonomy::NodeId ch : tax.node(v).children)
        if (--indeg[ch] == 0) queue.push_back(ch);
    }
    OWLCL_ASSERT(topo.size() == n);  // finalized taxonomies are acyclic
  }

  // --- spanning tree + pre/post interval labels ------------------------------
  // Tree parent = first direct subsumer (adjacency is sorted, so this is
  // deterministic). Any choice works: every parent strictly precedes its
  // child in topo order, so the parent pointers form a tree rooted at ⊤.
  std::vector<Taxonomy::NodeId> treeParent(n, Taxonomy::kNoNode);
  std::vector<std::vector<Taxonomy::NodeId>> treeChildren(n);
  std::size_t edgeTotal = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto& parents = tax.node(v).parents;
    edgeTotal += parents.size();
    if (!parents.empty()) {
      treeParent[v] = parents[0];
      treeChildren[parents[0]].push_back(static_cast<Taxonomy::NodeId>(v));
    }
  }
  snap->pre_.assign(n, 0);
  snap->post_.assign(n, 0);
  {
    std::uint32_t counter = 0;
    // Iterative DFS; second visit of a frame closes the interval.
    std::vector<std::pair<Taxonomy::NodeId, bool>> stack;
    stack.emplace_back(Taxonomy::kTopNode, false);
    while (!stack.empty()) {
      auto [v, closing] = stack.back();
      stack.pop_back();
      if (closing) {
        snap->post_[v] = counter;
        continue;
      }
      snap->pre_[v] = counter++;
      stack.emplace_back(v, true);
      for (const Taxonomy::NodeId ch : treeChildren[v])
        stack.emplace_back(ch, false);
    }
  }

  // --- ancestor closure ------------------------------------------------------
  // anc[v] = ∪_p (anc[p] ∪ {p}) in topo order; the word-parallel unions run
  // through the BitKernels backend. Row v's nonzero words lie in
  // [lo[v], hi[v]), and unions and scans touch only that span: real
  // hierarchies give each node a few dozen ancestors, clustered in a
  // fraction of the row.
  WordMatrix anc(n, w);
  std::vector<std::size_t> lo(n, w), hi(n, 0);
  for (const Taxonomy::NodeId v : topo)
    for (const Taxonomy::NodeId p : tax.node(v).parents) {
      if (lo[p] < hi[p]) {
        kernels->orInto(anc.row(v) + lo[p], anc.row(p) + lo[p], hi[p] - lo[p]);
        lo[v] = std::min(lo[v], lo[p]);
        hi[v] = std::max(hi[v], hi[p]);
      }
      anc.setBit(v, p);
      lo[v] = std::min<std::size_t>(lo[v], p >> 6);
      hi[v] = std::max<std::size_t>(hi[v], (p >> 6) + 1);
    }

  // --- contiguous descendant ranges + precompiled JSON arrays ----------------
  // A concept is a strict descendant of every node in its own node's
  // ancestor row (a node's own class is excluded, ⊥ included — exactly what
  // a walk down the DAG collects). One counting pass sizes each node's range;
  // the filling pass visits concepts in byte-wise name rank, so every range
  // comes out sorted the way std::sort over the name strings sorts it
  // (names are unique per TBox).
  const std::size_t concepts = tax.conceptCount();
  {
    std::vector<ConceptId> byName(concepts);
    std::iota(byName.begin(), byName.end(), ConceptId{0});
    std::sort(byName.begin(), byName.end(), [&](ConceptId a, ConceptId b) {
      return tbox.conceptName(a) < tbox.conceptName(b);
    });
    const auto forEachAncestor = [&](Taxonomy::NodeId d, auto&& visit) {
      const Word* row = anc.row(d);
      for (std::size_t i = lo[d]; i < hi[d]; ++i)
        for (Word word = row[i]; word != 0; word &= word - 1)
          visit((i << 6) + static_cast<std::size_t>(__builtin_ctzll(word)));
    };

    snap->desc_.assign(n, DescRef{});
    for (ConceptId c = 0; c < concepts; ++c)
      if (tax.nodeOf(c) != Taxonomy::kNoNode)
        forEachAncestor(tax.nodeOf(c), [&](std::size_t a) { ++snap->desc_[a].count; });
    std::uint32_t offset = 0;
    for (DescRef& d : snap->desc_) {
      d.offset = offset;
      offset += d.count;
    }
    snap->descIdPool_.resize(offset);
    std::vector<std::uint32_t> filled(n, 0);
    for (const ConceptId c : byName)
      if (tax.nodeOf(c) != Taxonomy::kNoNode)
        forEachAncestor(tax.nodeOf(c), [&](std::size_t a) {
          snap->descIdPool_[snap->desc_[a].offset + filled[a]++] = c;
        });
  }
  {
    // Each name is escaped once; a node's array concatenates the pieces.
    std::vector<std::string> quoted(concepts);
    for (ConceptId c = 0; c < concepts; ++c) {
      quoted[c].push_back('"');
      jsonEscapeInto(tbox.conceptName(c), quoted[c]);
      quoted[c].push_back('"');
    }
    snap->descJson_.assign(n, std::string());
    for (std::size_t v = 0; v < n; ++v) {
      const ConceptId* ids = snap->descIdPool_.data() + snap->desc_[v].offset;
      const std::uint32_t count = snap->desc_[v].count;
      std::size_t bytes = 2 + count;
      for (std::uint32_t i = 0; i < count; ++i) bytes += quoted[ids[i]].size();
      std::string& json = snap->descJson_[v];
      json.reserve(bytes);
      json.push_back('[');
      for (std::uint32_t i = 0; i < count; ++i) {
        if (i != 0) json.push_back(',');
        json += quoted[ids[i]];
      }
      json.push_back(']');
    }
  }

  // --- compressed extra-ancestor pool ----------------------------------------
  // extra[v] is anc[v] with v's tree path (the treeParent chain) cleared, in
  // place — the descendant lists above were the matrix's last other reader
  // — and stored as its nonzero word span in a shared pool.
  snap->extra_.assign(n, ExtraRef{});
  for (std::size_t v = 0; v < n; ++v) {
    Word* row = anc.row(v);
    for (Taxonomy::NodeId u = treeParent[v]; u != Taxonomy::kNoNode;
         u = treeParent[u])
      row[u >> 6] &= ~(Word{1} << (u & 63));
    std::size_t first = hi[v], last = 0;
    for (std::size_t i = lo[v]; i < hi[v]; ++i) {
      if (row[i] != 0) {
        if (first == hi[v]) first = i;
        last = i;
      }
    }
    if (first == hi[v]) continue;  // tree covers all of v's ancestry
    ExtraRef& e = snap->extra_[v];
    e.offset = static_cast<std::uint32_t>(snap->extraWords_.size());
    e.firstWord = static_cast<std::uint32_t>(first);
    e.wordCount = static_cast<std::uint32_t>(last - first + 1);
    snap->extraWords_.insert(snap->extraWords_.end(), row + first, row + last + 1);
  }

  // --- stats ------------------------------------------------------------------
  BuildStats& st = snap->stats_;
  st.generation = generation;
  st.nodes = n;
  st.concepts = tax.conceptCount();
  st.treeEdges = n - 1;
  st.nonTreeEdges = edgeTotal - st.treeEdges;
  st.extraWords = snap->extraWords_.size();
  st.descendantIds = snap->descIdPool_.size();
  std::size_t bytes = snap->nodeOf_.size() * sizeof(Taxonomy::NodeId) +
                      (snap->pre_.size() + snap->post_.size()) * sizeof(std::uint32_t) +
                      snap->extra_.size() * sizeof(ExtraRef) +
                      snap->extraWords_.size() * sizeof(Word) +
                      snap->desc_.size() * sizeof(DescRef) +
                      snap->descIdPool_.size() * sizeof(ConceptId);
  for (const std::string& j : snap->descJson_) bytes += j.size();
  st.compiledBytes = bytes;
  st.buildNs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return snap;
}

}  // namespace owlcl
