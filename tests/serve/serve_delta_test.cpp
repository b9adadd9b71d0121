// Live delta transactions through the Server: protocol verbs, the
// copy-on-write engine view swap on commit, in-order batch execution of
// transaction scripts (a later line must never overtake a delta verb),
// and error surfaces (verbs without a reclassifier, commit without begin).
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <sstream>
#include <string>

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

class ServeDeltaTest : public ::testing::Test {
 protected:
  ServeDeltaTest() : pool_(2), exec_(pool_) {
    parseFunctionalSyntax(R"(
      Ontology(
        Declaration(Class(Person)) Declaration(Class(Student))
        Declaration(Class(Employee))
        SubClassOf(Student Person)
        SubClassOf(Employee Person)
      ))",
                          tbox_);
    reasoner_ = std::make_unique<TableauReasoner>(tbox_);
    classifier_ = std::make_unique<ParallelClassifier>(tbox_, *reasoner_);
    delta_ = std::make_unique<DeltaReclassifier>(
        exec_,
        [](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
          return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
        },
        ClassifierConfig{});
  }

  /// Builds, wires, and starts a server; adopts generation 0.
  std::unique_ptr<Server> startServer() {
    ServerConfig sc;
    sc.queryThreads = 2;
    auto server =
        std::make_unique<Server>(tbox_, *classifier_, *reasoner_, sc);
    delta_->adoptInitial(noOwn<const TBox>(&tbox_),
                         noOwn<ReasonerPlugin>(reasoner_.get()),
                         noOwn<ParallelClassifier>(classifier_.get()),
                         nullptr);
    server->setDeltaReclassifier(delta_.get());
    server->start([this] { return classifier_->classify(exec_); });
    return server;
  }

  ThreadPool pool_;
  RealExecutor exec_;
  TBox tbox_;
  std::unique_ptr<TableauReasoner> reasoner_;
  std::unique_ptr<ParallelClassifier> classifier_;
  std::unique_ptr<DeltaReclassifier> delta_;
};

TEST_F(ServeDeltaTest, TransactionLifecycleAndViewSwap) {
  auto server = startServer();

  // Verb guards: nothing staged/committed outside a transaction.
  EXPECT_TRUE(contains(ask(*server, R"({"op":"commit"})"), "no delta"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"j({"op":"add-axiom","axiom":"SubClassOf(A B)"})j"),
      "no delta"));

  EXPECT_TRUE(contains(ask(*server, R"({"op":"begin-delta"})"),
                       "\"op\":\"begin-delta\",\"txn\":1"));
  EXPECT_TRUE(contains(ask(*server, R"({"op":"begin-delta"})"),
                       "already open"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"j({"op":"add-axiom","axiom":"Declaration(Class(Intern))"})j"),
      "\"staged\":1"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"j({"op":"add-axiom","axiom":"SubClassOf(Intern Employee)"})j"),
      "\"staged\":2"));
  // Malformed axioms are an error but keep the transaction open.
  EXPECT_TRUE(contains(
      ask(*server, R"({"op":"add-axiom","axiom":"SubClassOf(broken"})"),
      "\"error\":\"txn\""));
  EXPECT_TRUE(contains(ask(*server, R"({"op":"status"})"),
                       "\"txn_open\":true"));

  // Unknown until the commit swaps the view...
  EXPECT_TRUE(contains(
      ask(*server, R"({"op":"sat","concept":"Intern","deadline_ms":30000})"),
      "unknown-concept"));
  const std::string commit = ask(*server, R"({"op":"commit"})");
  EXPECT_TRUE(contains(commit, "\"op\":\"commit\",\"txn\":1")) << commit;
  EXPECT_TRUE(contains(commit, "\"epoch\":1")) << commit;
  // ...then answers settle against the new generation.
  EXPECT_TRUE(contains(
      ask(*server,
          R"({"op":"subs","sub":"Intern","sup":"Person","deadline_ms":30000})"),
      "\"result\":true"));
  EXPECT_TRUE(contains(ask(*server, R"({"op":"status"})"),
                       "\"delta_epoch\":1"));

  // Abort: staged work vanishes, the generation stays put.
  EXPECT_TRUE(contains(ask(*server, R"({"op":"begin-delta"})"),
                       "\"txn\":2"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"j({"op":"retract-axiom","axiom":"SubClassOf(Intern Employee)"})j"),
      "\"staged\":1"));
  EXPECT_TRUE(contains(ask(*server, R"({"op":"abort"})"),
                       "\"op\":\"abort\",\"txn\":2"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"({"op":"subs","sub":"Intern","sup":"Employee","deadline_ms":30000})"),
      "\"result\":true"));
  server->drain();
}

std::string addAxiom(const std::string& axiom) {
  return "{\"op\":\"add-axiom\",\"axiom\":\"" + axiom + "\"}";
}

// Every committed generation compiles its query snapshot: the view a
// commit publishes already carries the index for the new epoch.
TEST_F(ServeDeltaTest, CommittedViewCarriesSnapshotOfItsEpoch) {
  auto server = startServer();
  for (std::uint64_t epoch = 1; epoch <= 2; ++epoch) {
    const std::string name = "Temp" + std::to_string(epoch);
    ASSERT_TRUE(contains(ask(*server, R"({"op":"begin-delta"})"), "\"txn\""));
    ASSERT_TRUE(contains(ask(*server, addAxiom("Declaration(Class(" + name +
                                               "))")),
                         "\"staged\":1"));
    ASSERT_TRUE(contains(
        ask(*server, addAxiom("SubClassOf(" + name + " Student)")),
        "\"staged\":2"));
    const std::string commit = ask(*server, R"({"op":"commit"})");
    ASSERT_TRUE(contains(commit, ("\"epoch\":" + std::to_string(epoch))
                                     .c_str()))
        << commit;

    const auto view = server->engineView();
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->deltaEpoch, epoch);
    ASSERT_NE(view->snapshot, nullptr) << "epoch " << epoch;
    EXPECT_EQ(view->snapshot->stats().generation, epoch);
    EXPECT_EQ(view->snapshot->conceptCount(), view->tbox->conceptCount());
    EXPECT_TRUE(contains(
        ask(*server, "{\"op\":\"subs\",\"sub\":\"" + name +
                         "\",\"sup\":\"Person\",\"deadline_ms\":30000}"),
        "\"result\":true"));
  }
  EXPECT_GT(server->engineStats().snapshotAnswers, 0u);
  server->drain();
}

TEST_F(ServeDeltaTest, VerbsWithoutReclassifierAreUnsupported) {
  ServerConfig sc;
  sc.queryThreads = 1;
  Server server(tbox_, *classifier_, *reasoner_, sc);
  server.start([this] { return classifier_->classify(exec_); });
  EXPECT_TRUE(contains(ask(server, R"({"op":"begin-delta"})"),
                       "\"error\":\"unsupported\""));
  server.drain();
}

TEST_F(ServeDeltaTest, BatchExecutesDeltaScriptInInputOrder) {
  auto server = startServer();
  // With two workers a naive batch pump would let "commit" overtake
  // "begin-delta"; the barrier keeps the script transactional.
  std::istringstream in(
      R"j({"op":"begin-delta"}
{"op":"add-axiom","axiom":"Declaration(Class(Contractor))"}
{"op":"add-axiom","axiom":"SubClassOf(Contractor Employee)"}
{"op":"commit"}
{"op":"subs","sub":"Contractor","sup":"Person","deadline_ms":30000}
{"op":"begin-delta"}
{"op":"abort"}
)j");
  std::ostringstream out;
  server->runBatch(in, out);
  server->drain();

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> got;
  while (std::getline(lines, line)) got.push_back(line);
  ASSERT_EQ(got.size(), 7u) << out.str();
  EXPECT_TRUE(contains(got[0], "\"op\":\"begin-delta\",\"txn\":1"));
  EXPECT_TRUE(contains(got[1], "\"staged\":1"));
  EXPECT_TRUE(contains(got[2], "\"staged\":2"));
  EXPECT_TRUE(contains(got[3], "\"op\":\"commit\",\"txn\":1"));
  EXPECT_TRUE(contains(got[4], "\"result\":true"));
  EXPECT_TRUE(contains(got[5], "\"op\":\"begin-delta\",\"txn\":2"));
  EXPECT_TRUE(contains(got[6], "\"op\":\"abort\",\"txn\":2"));
}

TEST_F(ServeDeltaTest, OpenTransactionAbortsCleanlyOnShutdown) {
  auto server = startServer();
  EXPECT_TRUE(contains(ask(*server, R"({"op":"begin-delta"})"), "\"txn\":1"));
  server->drain();
  // The CLI aborts an open transaction after drain; mirror that here and
  // confirm the reclassifier is left clean for the next session.
  std::string err;
  EXPECT_TRUE(delta_->txnOpen());
  EXPECT_TRUE(delta_->abortTxn(&err)) << err;
  EXPECT_FALSE(delta_->txnOpen());
  EXPECT_EQ(delta_->deltaEpoch(), 0u);
}

}  // namespace
}  // namespace owlcl
