// End-to-end tests for the Server core: batch answers against ground
// truth, in-order batch output, explicit overload shedding, worker-fault
// containment, per-query deadline degradation, walk-vs-snapshot answer
// parity, and graceful drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/server.hpp"

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

// With ServerConfig::querySnapshots off every query walks the taxonomy;
// once classification has settled, those answers must be byte-identical
// to the compiled snapshot's (bench_serve's phase-3 parity in miniature).
TEST_F(ServeServerTest, WalkLadderAnswersMatchSnapshotAnswers) {
  const std::size_t n = onto_.tbox->conceptCount();
  std::ostringstream in;
  std::uint64_t id = 0;
  for (ConceptId a = 0; a < n; a += 2)
    for (ConceptId b = 0; b < n; b += 5)
      in << "{\"op\":\"subs\",\"id\":" << id++ << ",\"sub\":\""
         << onto_.tbox->conceptName(a) << "\",\"sup\":\""
         << onto_.tbox->conceptName(b) << "\",\"deadline_ms\":30000}\n";
  for (ConceptId c = 0; c < n; c += 3) {
    in << "{\"op\":\"sat\",\"id\":" << id++ << ",\"concept\":\""
       << onto_.tbox->conceptName(c) << "\",\"deadline_ms\":30000}\n";
    in << "{\"op\":\"descendants\",\"id\":" << id++ << ",\"concept\":\""
       << onto_.tbox->conceptName(c) << "\"}\n";
  }

  auto serve = [&](bool snapshots, QueryEngineStats* stats) {
    MockReasoner backend(onto_.truth);
    ThreadPool pool(2);
    RealExecutor exec(pool);
    ParallelClassifier classifier(*onto_.tbox, backend, ClassifierConfig{});
    ServerConfig sc;
    sc.querySnapshots = snapshots;
    Server server(*onto_.tbox, classifier, backend, sc);
    server.start([&] { return classifier.classify(exec); });
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    for (;;) {
      const auto view = server.engineView();
      if (view != nullptr && view->result != nullptr &&
          (view->snapshot != nullptr) == snapshots)
        break;
      if (std::chrono::steady_clock::now() > giveUp) {
        ADD_FAILURE() << "server never settled (snapshots=" << snapshots
                      << ")";
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::istringstream input(in.str());
    std::ostringstream output;
    server.runBatch(input, output);
    server.drain();
    *stats = server.engineStats();
    return output.str();
  };

  QueryEngineStats walkStats, snapStats;
  const std::string walk = serve(false, &walkStats);
  const std::string snap = serve(true, &snapStats);
  ASSERT_EQ(lines(walk).size(), id);
  EXPECT_EQ(walk, snap);
  EXPECT_EQ(walkStats.snapshotAnswers, 0u);
  EXPECT_GT(walkStats.walkAnswers, 0u);
  EXPECT_GT(snapStats.snapshotAnswers, 0u);
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
