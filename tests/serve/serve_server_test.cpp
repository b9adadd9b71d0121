// End-to-end tests for the Server core: batch answers against ground
// truth, in-order batch output, explicit overload shedding, worker-fault
// containment, per-query deadline degradation, PARTIAL and paused
// generations, and graceful drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "parallel/thread_pool.hpp"
#include "robust/fault_injector.hpp"
#include "serve/server.hpp"
#include "support/walk_descendants.hpp"
#include "util/strings.hpp"

namespace owlcl {
namespace {

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

/// Blocking request/response round trip.
std::string ask(Server& server, const std::string& line) {
  auto done = std::make_shared<std::promise<std::string>>();
  auto fut = done->get_future();
  const bool ok = server.submit(
      line, [done](std::string resp) { done->set_value(std::move(resp)); });
  if (!ok) return "<rejected>";
  return fut.get();
}

/// The server's view once it has published the run's result; null if
/// that takes longer than a minute.
std::shared_ptr<const EngineView> waitForResult(Server& server) {
  const auto giveUp = std::chrono::steady_clock::now() + std::chrono::minutes(1);
  for (;;) {
    std::shared_ptr<const EngineView> view = server.engineView();
    if (view->result != nullptr) return view;
    if (std::chrono::steady_clock::now() > giveUp) return nullptr;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Answers ground truth after a fixed wall-clock sleep — a "slow
/// backend" for deadline tests.
class SleepyPlugin : public ReasonerPlugin {
 public:
  SleepyPlugin(const GroundTruth& truth, std::chrono::milliseconds nap)
      : truth_(truth), nap_(nap) {}
  bool isSatisfiable(ConceptId c, std::uint64_t* costNs) override {
    std::this_thread::sleep_for(nap_);
    if (costNs != nullptr) *costNs = 0;
    return truth_.satisfiable(c);
  }
  bool isSubsumedBy(ConceptId sub, ConceptId sup,
                    std::uint64_t* costNs) override {
    std::this_thread::sleep_for(nap_);
    if (costNs != nullptr) *costNs = 0;
    return truth_.subsumes(sup, sub);
  }
  std::uint64_t testCount() const override { return 0; }

 private:
  const GroundTruth& truth_;
  const std::chrono::milliseconds nap_;
};

class ServeServerTest : public ::testing::Test {
 protected:
  ServeServerTest() {
    GenConfig gc;
    gc.name = "serve-test";
    gc.concepts = 40;
    gc.subClassEdges = 60;
    gc.equivalentAxioms = 2;
    gc.seed = 9;
    onto_ = generateOntology(gc);
  }
  GeneratedOntology onto_;
};

TEST_F(ServeServerTest, BatchAnswersMatchGroundTruthInInputOrder) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });

  const std::size_t n = onto_.tbox->conceptCount();
  std::ostringstream in;
  std::vector<std::pair<ConceptId, ConceptId>> pairs;
  std::uint64_t id = 0;
  for (ConceptId a = 0; a < n; a += 3)
    for (ConceptId b = 1; b < n; b += 7) {
      in << "{\"op\":\"subs\",\"id\":" << id++ << ",\"sub\":\""
         << onto_.tbox->conceptName(a) << "\",\"sup\":\""
         << onto_.tbox->conceptName(b) << "\",\"deadline_ms\":30000}\n";
      pairs.emplace_back(a, b);
    }
  in << "{\"op\":\"sat\",\"id\":" << id << ",\"concept\":\""
     << onto_.tbox->conceptName(0) << "\"}\n";
  in << "this is not json\n";
  in << "{\"op\":\"status\",\"id\":7777}\n";

  std::istringstream input(in.str());
  std::ostringstream output;
  server.runBatch(input, output);
  const std::vector<std::string> got = lines(output.str());
  ASSERT_EQ(got.size(), pairs.size() + 3);

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::string& resp = got[i];
    // In-order: each response echoes its input position as its id.
    EXPECT_TRUE(contains(resp, ("\"id\":" + std::to_string(i)).c_str()))
        << resp;
    EXPECT_TRUE(contains(resp, "\"ok\":true")) << resp;
    const bool want = onto_.truth.subsumes(pairs[i].second, pairs[i].first);
    EXPECT_TRUE(contains(resp, want ? "\"result\":true" : "\"result\":false"))
        << "pair (" << pairs[i].first << "," << pairs[i].second
        << "): " << resp;
  }
  EXPECT_TRUE(contains(got[pairs.size()],
                       onto_.truth.satisfiable(0) ? "\"result\":true"
                                                  : "\"result\":false"));
  EXPECT_TRUE(contains(got[pairs.size() + 1], "\"error\":\"parse\""));
  EXPECT_TRUE(contains(got[pairs.size() + 2], "\"op\":\"status\""));
  EXPECT_TRUE(contains(got[pairs.size() + 2], "\"id\":7777"));

  server.drain();
  ASSERT_NE(server.result(), nullptr);
  EXPECT_FALSE(server.result()->cancelled);
  EXPECT_STREQ(finishedRunState(*server.result()), "done");
}

TEST_F(ServeServerTest, DescendantsCompleteAfterClassification) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });
  ASSERT_TRUE(classifier.waitForCompletion(std::chrono::steady_clock::now() +
                                           std::chrono::minutes(1)));

  const std::string resp =
      ask(server, "{\"op\":\"descendants\",\"id\":1,\"concept\":\"" +
                      onto_.tbox->conceptName(0) + "\"}");
  EXPECT_TRUE(contains(resp, "\"ok\":true")) << resp;
  EXPECT_TRUE(contains(resp, "\"complete\":true")) << resp;
  EXPECT_TRUE(contains(resp, "\"concepts\":[")) << resp;

  const std::string unknown =
      ask(server, R"({"op":"descendants","id":2,"concept":"NoSuch"})");
  EXPECT_TRUE(contains(unknown, "\"error\":\"unknown-concept\"")) << unknown;
  server.drain();
}

TEST_F(ServeServerTest, OverloadShedsWithExplicitResponsesAndNothingHangs) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  ServerConfig sc;
  sc.queryThreads = 1;
  sc.queueCapacity = 2;
  sc.faults.slowClientNs = 5'000'000;  // 5 ms per delivery → queue backs up
  Server server(*onto_.tbox, classifier, backend, sc);
  server.start([&] { return classifier.classify(exec); });

  const std::size_t total = 60;
  std::atomic<std::size_t> responses{0};
  std::atomic<std::size_t> overloaded{0};
  for (std::size_t i = 0; i < total; ++i) {
    const std::string line = "{\"op\":\"subs\",\"id\":" + std::to_string(i) +
                             ",\"sub\":\"" + onto_.tbox->conceptName(1) +
                             "\",\"sup\":\"" + onto_.tbox->conceptName(2) +
                             "\"}";
    server.trySubmit(line, [&](std::string resp) {
      if (contains(resp, "\"error\":\"overloaded\"")) ++overloaded;
      ++responses;
    });
  }
  server.drain();  // queued queries still answer during drain
  EXPECT_EQ(responses.load(), total) << "a client was left without a response";
  EXPECT_GT(server.shedCount(), 0u) << "admission control never engaged";
  EXPECT_EQ(overloaded.load(), server.shedCount());
}

TEST_F(ServeServerTest, WorkerFaultIsContainedAndServerKeepsServing) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  ServerConfig sc;
  sc.queryThreads = 1;  // deterministic admitted-ordinal sequence
  sc.faults.queryFaultEvery = 2;
  Server server(*onto_.tbox, classifier, backend, sc);
  server.start([&] { return classifier.classify(exec); });

  std::size_t okCount = 0, internalCount = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string resp =
        ask(server, "{\"op\":\"sat\",\"id\":" + std::to_string(i) +
                        ",\"concept\":\"" + onto_.tbox->conceptName(3) +
                        "\",\"deadline_ms\":30000}");
    if (contains(resp, "\"error\":\"internal\""))
      ++internalCount;
    else if (contains(resp, "\"ok\":true"))
      ++okCount;
    else
      ADD_FAILURE() << "unexpected response: " << resp;
  }
  EXPECT_EQ(internalCount, 5u);  // every 2nd admitted query throws
  EXPECT_EQ(okCount, 5u);
  server.drain();
}

TEST_F(ServeServerTest, DeadlineExpiryYieldsExplicitDeadlineError) {
  // Classification never starts (gated), so nothing ever settles; the
  // fallback needs 300 ms per call but the query only affords 50 ms.
  MockReasoner backend(onto_.truth);
  SleepyPlugin slow(onto_.truth, std::chrono::milliseconds(300));
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ServerConfig sc;
  sc.engine.defaultDeadlineMs = 50;
  Server server(*onto_.tbox, classifier, slow, sc);
  server.start([&, opened] {
    opened.wait();
    return classifier.classify(exec);
  });

  const std::string resp =
      ask(server, "{\"op\":\"subs\",\"id\":1,\"sub\":\"" +
                      onto_.tbox->conceptName(1) + "\",\"sup\":\"" +
                      onto_.tbox->conceptName(2) + "\"}");
  EXPECT_TRUE(contains(resp, "\"ok\":false")) << resp;
  EXPECT_TRUE(contains(resp, "\"error\":\"deadline\"")) << resp;

  // The same query with a generous budget succeeds via direct fallback.
  const std::string direct =
      ask(server, "{\"op\":\"subs\",\"id\":2,\"sub\":\"" +
                      onto_.tbox->conceptName(1) + "\",\"sup\":\"" +
                      onto_.tbox->conceptName(2) + "\",\"deadline_ms\":1500}");
  EXPECT_TRUE(contains(direct, "\"ok\":true")) << direct;
  EXPECT_TRUE(contains(direct, "\"method\":\"direct\"")) << direct;
  const bool want = onto_.truth.subsumes(2, 1);
  EXPECT_TRUE(
      contains(direct, want ? "\"result\":true" : "\"result\":false"))
      << direct;

  gate.set_value();
  server.drain();
}

// With the clamp off (maxDeadlineMs = 0) a client deadline past the
// clock's range saturates to "no deadline": the query waits for its pair
// to settle instead of expiring at once on an overflowed time point.
TEST_F(ServeServerTest, UnclampedHugeClientDeadlineIsAnswered) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ServerConfig sc;
  sc.engine.maxDeadlineMs = 0;
  Server server(*onto_.tbox, classifier, backend, sc);
  server.start([&, opened] {
    opened.wait();
    return classifier.classify(exec);
  });

  std::vector<std::future<std::string>> answers;
  for (const char* ms : {"9223372036854775", "18446744073709551615"}) {
    auto done = std::make_shared<std::promise<std::string>>();
    answers.push_back(done->get_future());
    ASSERT_TRUE(server.submit(
        std::string("{\"op\":\"subs\",\"id\":1,\"sub\":\"") +
            onto_.tbox->conceptName(1) + "\",\"sup\":\"" +
            onto_.tbox->conceptName(2) + "\",\"deadline_ms\":" + ms + "}",
        [done](std::string resp) { done->set_value(std::move(resp)); }));
  }
  // Give the queries time to reach the store before anything settles.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.set_value();
  const bool want = onto_.truth.subsumes(2, 1);
  for (std::future<std::string>& answer : answers) {
    const std::string resp = answer.get();
    EXPECT_TRUE(contains(resp, "\"ok\":true")) << resp;
    EXPECT_TRUE(
        contains(resp, want ? "\"result\":true" : "\"result\":false"))
        << resp;
  }
  server.drain();
}

// A PARTIAL generation: targeted keys fail every attempt and no retry is
// left, so pairs and concepts end unresolved. Its snapshot answers every
// descendants query, marked incomplete; subs/sat go down the ladder, where
// a settled pair answers from the store and an unresolved one from a
// direct call.
TEST_F(ServeServerTest, PartialGenerationAnswersFromSnapshotAndLadder) {
  MockReasoner backend(onto_.truth);
  FaultPlan plan;
  plan.seed = 13;
  plan.targetPairRate = 0.2;
  plan.failFirstAttempts = 1000;
  FaultInjector faulty(backend, plan);
  ClassifierConfig config;
  config.maxRetries = 0;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, faulty, config);
  // Direct calls bypass the injector, so they answer the ground truth.
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });
  const std::shared_ptr<const EngineView> view = waitForResult(server);
  ASSERT_NE(view, nullptr);
  const ClassificationResult& r = *view->result;
  ASSERT_FALSE(r.unresolvedPairs.empty());
  ASSERT_FALSE(r.unresolvedConcepts.empty());
  ASSERT_NE(view->snapshot, nullptr);
  EXPECT_FALSE(view->snapshot->complete());

  const TBox& tbox = *onto_.tbox;
  const std::size_t n = tbox.conceptCount();
  std::ostringstream in;
  std::uint64_t id = 0;
  for (ConceptId c = 0; c < n; ++c)
    in << "{\"op\":\"descendants\",\"id\":" << id++ << ",\"concept\":\""
       << tbox.conceptName(c) << "\"}\n";
  for (ConceptId sup = 0; sup < n; ++sup)
    for (ConceptId sub = 0; sub < n; ++sub)
      in << "{\"op\":\"subs\",\"id\":" << id++ << ",\"sub\":\""
         << tbox.conceptName(sub) << "\",\"sup\":\"" << tbox.conceptName(sup)
         << "\",\"deadline_ms\":30000}\n";
  for (ConceptId c = 0; c < n; ++c)
    in << "{\"op\":\"sat\",\"id\":" << id++ << ",\"concept\":\""
       << tbox.conceptName(c) << "\",\"deadline_ms\":30000}\n";
  std::istringstream input(in.str());
  std::ostringstream output;
  server.runBatch(input, output);
  const std::vector<std::string> got = lines(output.str());
  ASSERT_EQ(got.size(), id);

  const auto verdict = [&got](std::size_t i, bool want, const char* method) {
    EXPECT_TRUE(contains(got[i], want ? "\"result\":true" : "\"result\":false"))
        << got[i];
    EXPECT_TRUE(contains(got[i], strprintf("\"method\":\"%s\"", method).c_str()))
        << got[i];
  };
  std::size_t line = 0;
  for (ConceptId c = 0; c < n; ++c, ++line) {
    const RefDescendants ref = walkDescendants(r.taxonomy, tbox, c);
    EXPECT_EQ(got[line],
              strprintf("{\"id\":%zu,\"ok\":true,\"op\":\"descendants\","
                        "\"concept\":\"%s\",\"count\":%zu,\"concepts\":%s,"
                        "\"complete\":false}",
                        line, tbox.conceptName(c).c_str(), ref.count,
                        ref.json.c_str()));
  }
  const std::set<std::pair<ConceptId, ConceptId>> unresolvedPairs(
      r.unresolvedPairs.begin(), r.unresolvedPairs.end());
  for (ConceptId sup = 0; sup < n; ++sup)
    for (ConceptId sub = 0; sub < n; ++sub, ++line)
      verdict(line, onto_.truth.subsumes(sup, sub),
              unresolvedPairs.count({sup, sub}) != 0 ? "direct" : "settled");
  const std::set<ConceptId> unresolvedConcepts(r.unresolvedConcepts.begin(),
                                               r.unresolvedConcepts.end());
  for (ConceptId c = 0; c < n; ++c, ++line)
    verdict(line, onto_.truth.satisfiable(c),
            unresolvedConcepts.count(c) != 0 ? "direct" : "settled");
  // The run finished, but not completely: status says so.
  const std::string status = ask(server, R"({"op":"status","id":1})");
  EXPECT_TRUE(contains(status, "\"state\":\"partial\"")) << status;
  EXPECT_STREQ(finishedRunState(r), "partial");

  server.drain();
  const QueryEngineStats stats = server.engineStats();
  EXPECT_EQ(stats.snapshotAnswers, n) << "only descendants use the snapshot";
  EXPECT_EQ(stats.walkAnswers, n * n + n);
}

// A paused run builds no taxonomy and so gets no snapshot: descendants
// cannot answer and says so.
TEST_F(ServeServerTest, PausedRunAnswersDescendantsPending) {
  MockReasoner backend(onto_.truth);
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, ClassifierConfig{});
  classifier.requestStop();  // pauses before the first cycle
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });
  const std::shared_ptr<const EngineView> view = waitForResult(server);
  ASSERT_NE(view, nullptr);
  ASSERT_TRUE(view->result->paused);
  EXPECT_EQ(view->snapshot, nullptr);
  const std::string status = ask(server, R"({"op":"status","id":2})");
  EXPECT_TRUE(contains(status, "\"state\":\"paused\"")) << status;

  const std::string resp =
      ask(server, "{\"op\":\"descendants\",\"id\":1,\"concept\":\"" +
                      onto_.tbox->conceptName(0) + "\"}");
  EXPECT_TRUE(contains(resp, "\"error\":\"pending\"")) << resp;
  server.drain();
}

TEST_F(ServeServerTest, DrainIsIdempotentAndRejectsNewWork) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });
  const std::string before = ask(server, R"({"op":"status","id":1})");
  EXPECT_TRUE(contains(before, "\"ok\":true"));

  server.drain();
  server.drain();  // idempotent
  EXPECT_TRUE(server.draining());
  EXPECT_FALSE(server.submit(R"({"op":"status","id":2})",
                             [](std::string) { FAIL() << "delivered"; }));
}

}  // namespace
}  // namespace owlcl
