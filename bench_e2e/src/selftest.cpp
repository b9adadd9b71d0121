// bench_e2e self-tests: each of the benchmark's own checks must catch what
// it exists to catch.
//   1. the hard cap kills a child that spins forever and reaps it;
//   2. the ground-truth gate accepts the real taxonomy and rejects a
//      corrupted one (complete mode), and sound mode rejects a false edge;
//   3. the read-answer checker flags a wrong verdict, a foreign descendant
//      and a leaf attached outside the queried concept.
// Prints one line per check; exits 0 when all hold.
#include <signal.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "capped.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "corpus.hpp"
#include "gate.hpp"
#include "owl/parser.hpp"
#include "parallel/thread_pool.hpp"
#include "queries.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "taxonomy/snapshot.hpp"

namespace {

using owlcl::ConceptId;
using owlcl::Taxonomy;
using NodeId = Taxonomy::NodeId;
using Edge = std::pair<NodeId, NodeId>;

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// Copy of `tax` without edge `drop` and with edge `add` (either may be
/// {kNoNode, kNoNode}).
Taxonomy rebuild(const Taxonomy& tax, Edge drop, Edge add) {
  Taxonomy out(tax.conceptCount());
  std::vector<NodeId> map(tax.nodeCount(), Taxonomy::kNoNode);
  for (ConceptId c : tax.node(Taxonomy::kBottomNode).members) out.assignToBottom(c);
  for (NodeId v = 2; v < tax.nodeCount(); ++v) map[v] = out.addNode(tax.node(v).members);
  for (NodeId v = 2; v < tax.nodeCount(); ++v)
    for (NodeId ch : tax.node(v).children)
      if (ch != Taxonomy::kBottomNode && Edge{v, ch} != drop)
        out.addEdge(map[v], map[ch]);
  if (add.first != Taxonomy::kNoNode) out.addEdge(map[add.first], map[add.second]);
  out.finalize();
  return out;
}

void testCap() {
  const bench::CappedRun spin = bench::runCapped(0.5, [] {
    for (volatile bool forever = true; forever;) {
    }
    return std::string();
  });
  expect(spin.outcome == bench::CapOutcome::kKilled,
         "cap: a child that spins forever is killed");
  expect(spin.wallSeconds < 1.5, "cap: it is reaped within a second of the cap");
  expect(::kill(spin.pid, 0) == -1 && errno == ESRCH,
         "cap: no killed child outlives its cap");
  const bench::CappedRun quick =
      bench::runCapped(10.0, [] { return std::string("done"); });
  expect(quick.outcome == bench::CapOutcome::kFinished && quick.payload == "done",
         "cap: a finishing child hands back its payload");
}

}  // namespace

int main() {
  // Forking needs a single-threaded process, so the cap goes first.
  testCap();

  const bench::Corpus c = bench::makeCorpus(bench::paperRow("obo.PREVIOUS", 0));
  owlcl::TBox tbox;
  owlcl::parseFunctionalSyntax(c.text, tbox);
  owlcl::TableauReasoner reasoner(tbox);
  owlcl::ClassifierConfig cc;
  cc.routeEl = owlcl::ElRouting::kOn;
  owlcl::ParallelClassifier classifier(tbox, reasoner, cc);
  owlcl::ThreadPool pool(2);
  owlcl::ClassificationResult res;
  {
    owlcl::RealExecutor exec(pool);
    res = classifier.classify(exec);
  }
  const Taxonomy& tax = res.taxonomy;

  // --- gate ----------------------------------------------------------------------
  expect(bench::checkTaxonomy(tax, tbox, c.gen, false).ok(),
         "gate: the classified taxonomy matches the ground truth");
  Edge victim{Taxonomy::kNoNode, Taxonomy::kNoNode};
  for (NodeId v = 2; v < tax.nodeCount() && victim.first == Taxonomy::kNoNode; ++v)
    for (NodeId p : tax.node(v).parents)
      if (p != Taxonomy::kTopNode) victim = {p, v};
  const Edge none{Taxonomy::kNoNode, Taxonomy::kNoNode};
  const Taxonomy dropped = rebuild(tax, victim, none);
  expect(!bench::checkTaxonomy(dropped, tbox, c.gen, false).ok(),
         "gate: a taxonomy missing one edge is rejected");
  expect(bench::checkTaxonomy(dropped, tbox, c.gen, true).ok(),
         "gate: sound mode accepts a taxonomy that only misses edges");
  // A false edge: hang the victim under a node it is not below.
  NodeId stranger = Taxonomy::kNoNode;
  const ConceptId v0 = tax.node(victim.second).members[0];
  for (NodeId u = 2; u < tax.nodeCount() && stranger == Taxonomy::kNoNode; ++u) {
    const ConceptId u0 = tax.node(u).members[0];
    if (!tax.subsumes(u0, v0) && !tax.subsumes(v0, u0)) stranger = u;
  }
  const Taxonomy wrong = rebuild(tax, none, {stranger, victim.second});
  expect(!bench::checkTaxonomy(wrong, tbox, c.gen, true).ok(),
         "gate: sound mode rejects a false subsumption");

  // --- answer checker ---------------------------------------------------------------
  auto snap = owlcl::TaxonomySnapshot::build(tax, tbox, true, 0);
  owlcl::QueryEngine engine(tbox, classifier, reasoner, owlcl::QueryEngineConfig{});
  engine.setResult(&res, snap);
  const ConceptId sub = c.gen.truth.ancestors[v0].any() ? v0 : 0;
  const ConceptId sup =
      static_cast<ConceptId>(c.gen.truth.ancestors[sub].findFirst());
  const std::vector<bench::ReadQuery> qs = {
      {bench::ReadQuery::Kind::kSubs, sub, sup},
      {bench::ReadQuery::Kind::kSat, sub, 0},
      {bench::ReadQuery::Kind::kDescendants, sup, 0},
  };
  owlcl::Request req;
  std::string why;
  owlcl::parseRequest(bench::batchLine(c, qs), &req, &why);
  const std::string reply = engine.answer(req);
  expect(bench::checkBatch(reply, c, qs, nullptr, &why),
         "checker: the engine's answers pass");

  auto replaced = [&reply](const std::string& from, const std::string& to) {
    std::string s = reply;
    const std::size_t at = s.find(from);
    if (at != std::string::npos) s.replace(at, from.size(), to);
    return s;
  };
  expect(!bench::checkBatch(replaced(R"("result":true)", R"("result":false)"), c,
                            qs, nullptr, &why),
         "checker: a wrong verdict is flagged");
  const std::string self = "\"" + tbox.conceptName(sup) + "\"";
  expect(!bench::checkBatch(replaced(R"("concepts":[)", R"("concepts":[)" + self + ","),
                            c, qs, nullptr, &why),
         "checker: a concept listed as its own descendant is flagged");

  bench::LeafRegistry leaves("obo.PREVIOUS_BenchLeaf", 2);
  ConceptId foreign = 0;
  while (c.gen.truth.subsumes(sup, foreign)) ++foreign;
  auto listing = [&](std::size_t leaf) {
    return replaced(R"("concepts":[)", R"("concepts":[")" + leaves.name(leaf) + "\",");
  };
  expect(!bench::checkBatch(listing(0), c, qs, &leaves, &why),
         "checker: a leaf never attached is flagged");
  leaves.attach(0, sub);  // sub ⊑ sup: a true descendant
  leaves.attach(0, foreign);
  expect(bench::checkBatch(listing(0), c, qs, &leaves, &why),
         "checker: a leaf once attached below the concept is accepted");
  leaves.attach(1, foreign);
  expect(!bench::checkBatch(listing(1), c, qs, &leaves, &why),
         "checker: a leaf only attached elsewhere is flagged");

  std::printf("%s\n", failures == 0 ? "all self-tests passed" : "SELF-TESTS FAILED");
  return failures == 0 ? 0 : 1;
}
