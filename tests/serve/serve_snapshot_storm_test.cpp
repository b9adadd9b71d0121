// Snapshot RCU storm test (DESIGN.md §16): while delta commits compile
// and publish fresh TaxonomySnapshot generations, queries pinned to an
// older generation must keep answering from ONE consistent view — a
// batch must never mix two ontologies — and a retired generation must
// stay alive until its last in-flight reader drops it. serve_test runs
// under TSan in CI, so this is also the data-race probe for the
// snapshot build + copy-on-write publication path.
//
// The storm flips the direction of a single subsumption every commit
// (A⊑B ⇄ B⊑A), so every generation has exactly one of the two subs
// verdicts true. Two client threads hammer a batch of
// [subs A⊑B, subs B⊑A, descendants B]; a response where both (or
// neither) verdict holds, or where the descendants list disagrees with
// the verdicts, proves a torn view.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "owl/parser.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "serve/server.hpp"

namespace owlcl {
namespace {

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

std::string ask(Server& server, const std::string& line) {
  auto done = std::make_shared<std::promise<std::string>>();
  auto fut = done->get_future();
  const bool ok = server.submit(
      line, [done](std::string resp) { done->set_value(std::move(resp)); });
  if (!ok) return "<rejected>";
  return fut.get();
}

template <typename T>
std::shared_ptr<T> noOwn(T* p) {
  return std::shared_ptr<T>(p, [](T*) {});
}

/// All "result":true/false verdicts in a response, in array order.
std::vector<bool> verdictsOf(const std::string& resp) {
  std::vector<bool> out;
  static const std::string kKey = "\"result\":";
  for (std::size_t pos = resp.find(kKey); pos != std::string::npos;
       pos = resp.find(kKey, pos + kKey.size()))
    out.push_back(resp.compare(pos + kKey.size(), 4, "true") == 0);
  return out;
}

TEST(ServeSnapshotStormTest, BatchesPinOneGenerationAcrossCommitStorm) {
  ThreadPool pool(2);
  RealExecutor exec(pool);
  TBox tbox;
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(Keep))
      SubClassOf(A B)
      SubClassOf(Keep B)
    ))",
                        tbox);
  TableauReasoner reasoner(tbox);
  ParallelClassifier classifier(tbox, reasoner);
  DeltaReclassifier delta(
      exec,
      [](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
        return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
      },
      ClassifierConfig{});

  ServerConfig sc;
  sc.queryThreads = 2;
  sc.engine.defaultDeadlineMs = 30'000;
  Server server(tbox, classifier, reasoner, sc);
  delta.adoptInitial(noOwn<const TBox>(&tbox), noOwn<ReasonerPlugin>(&reasoner),
                     noOwn<ParallelClassifier>(&classifier), nullptr);
  server.setDeltaReclassifier(&delta);
  server.start([&] { return classifier.classify(exec); });

  // The storm measures the snapshot path, so wait for generation 0's
  // compiled snapshot before unleashing the clients.
  const auto settleBy =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  for (;;) {
    const auto view = server.engineView();
    if (view != nullptr && view->snapshot != nullptr) break;
    ASSERT_LT(std::chrono::steady_clock::now(), settleBy)
        << "generation 0 snapshot never published";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string batchLine =
      R"({"op":"batch","deadline_ms":30000,"queries":[)"
      R"({"op":"subs","sub":"A","sup":"B"},)"
      R"({"op":"subs","sub":"B","sup":"A"},)"
      R"({"op":"descendants","concept":"B"}]})";

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> consistent{0};
  std::atomic<int> clientsRunning{2};
  std::vector<std::string> failures[2];
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t)
    clients.emplace_back([&, t] {
      struct Exit {
        std::atomic<int>& running;
        ~Exit() { running.fetch_sub(1, std::memory_order_relaxed); }
      } exit{clientsRunning};
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string resp = ask(server, batchLine);
        if (resp == "<rejected>") return;  // server draining — storm over
        if (contains(resp, "\"error\"")) {
          failures[t].push_back("unexpected error: " + resp);
          return;
        }
        const std::vector<bool> v = verdictsOf(resp);
        if (v.size() != 2) {
          failures[t].push_back("expected 2 verdicts: " + resp);
          return;
        }
        // One consistent generation: exactly one subsumption direction
        // holds, and descendants(B) lists A exactly when A⊑B.
        if (v[0] == v[1]) {
          failures[t].push_back("torn view (mixed generations): " + resp);
          return;
        }
        if (contains(resp, "\"A\"") != v[0]) {
          failures[t].push_back("descendants disagree with verdict: " + resp);
          return;
        }
        consistent.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // The storm: each commit retracts the live direction and asserts the
  // opposite one, retiring the previous generation (and its snapshot)
  // while clients may still be pinned to it. Before each commit, the
  // clients must have completed three batches since the last one: one of
  // the two completed two, and the later of those was submitted after
  // that commit returned, so every generation is read.
  bool stormRead = true;
  for (int cycle = 0; cycle < 10 && stormRead; ++cycle) {
    const std::uint64_t seen = consistent.load(std::memory_order_relaxed);
    const auto readBy =
        std::chrono::steady_clock::now() + std::chrono::minutes(2);
    while (consistent.load(std::memory_order_relaxed) < seen + 3 &&
           clientsRunning.load(std::memory_order_relaxed) > 0 &&
           std::chrono::steady_clock::now() < readBy)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stormRead = consistent.load(std::memory_order_relaxed) >= seen + 3;
    EXPECT_TRUE(stormRead) << "generation " << cycle
                           << " was never read: the clients completed "
                           << consistent.load() - seen << " batches";
    if (!stormRead) break;
    const bool forward = cycle % 2 == 0;  // A⊑B is currently asserted
    ASSERT_TRUE(contains(ask(server, R"({"op":"begin-delta"})"), "\"txn\""));
    const std::string retractLine =
        std::string(R"j({"op":"retract-axiom","axiom":"SubClassOf()j") +
        (forward ? "A B" : "B A") + R"j()"})j";
    const std::string addLine =
        std::string(R"j({"op":"add-axiom","axiom":"SubClassOf()j") +
        (forward ? "B A" : "A B") + R"j()"})j";
    ASSERT_TRUE(contains(ask(server, retractLine), "\"ok\":true"));
    ASSERT_TRUE(contains(ask(server, addLine), "\"ok\":true"));
    ASSERT_TRUE(contains(ask(server, R"({"op":"commit"})"), "\"epoch\""));
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  for (int t = 0; t < 2; ++t)
    EXPECT_TRUE(failures[t].empty())
        << "client " << t << ": " << failures[t].front();
  EXPECT_GT(consistent.load(), 0u);

  // 10 flips = even count: the final generation asserts A⊑B again.
  EXPECT_TRUE(contains(ask(server, R"({"op":"subs","sub":"A","sup":"B"})"),
                       "\"result\":true"));
  EXPECT_TRUE(contains(ask(server, R"({"op":"subs","sub":"B","sup":"A"})"),
                       "\"result\":false"));
  const std::string desc =
      ask(server, R"({"op":"descendants","concept":"B"})");
  EXPECT_TRUE(contains(desc, "\"A\"")) << desc;
  EXPECT_TRUE(contains(desc, "\"Keep\"")) << desc;

  // The storm must have exercised the compiled index, not the walk.
  const QueryEngineStats stats = server.engineStats();
  EXPECT_GT(stats.snapshotAnswers, 0u);
  EXPECT_GT(stats.batchLines, 0u);
  EXPECT_GT(stats.batchedQueries, stats.batchLines);

  server.drain();
}

}  // namespace
}  // namespace owlcl
