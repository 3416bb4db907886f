#include <gtest/gtest.h>

#include "models/travel.h"
#include "state_graph_cases.h"
#include "sws/execution.h"
#include "sws/sws.h"

namespace sws::core {
namespace {

using models::MakeTravelDatabase;
using models::MakeTravelRequest;
using models::MakeTravelService;
using models::MakeTravelServiceCqUcq;
using models::MakeTravelServiceRecursive;
using rel::InputSequence;
using rel::Relation;
using rel::Tuple;
using rel::Value;

Tuple Booked(int64_t a, int64_t h, int64_t t, int64_t c) {
  return {Value::Int(a), Value::Int(h), Value::Int(t), Value::Int(c)};
}

// An input message carrying only an airfare inquiry.
Relation AirfareInquiry(const std::string& dest) {
  Relation m(3);
  m.Insert({Value::Str("a"), Value::Str(dest), Value::Int(1000)});
  return m;
}

TEST(TravelServiceTest, ClassificationMatchesPaper) {
  auto t1 = MakeTravelService();
  EXPECT_EQ(t1.sws.Classify(), "SWSnr(CQ, FO)");
  EXPECT_FALSE(t1.sws.IsRecursive());
  EXPECT_EQ(t1.sws.MaxDepth(), 2u);

  auto t2 = MakeTravelServiceRecursive();
  EXPECT_EQ(t2.sws.Classify(), "SWS(CQ, FO)");
  EXPECT_TRUE(t2.sws.IsRecursive());

  auto tc = MakeTravelServiceCqUcq();
  EXPECT_EQ(tc.sws.Classify(), "SWSnr(CQ, UCQ)");
  EXPECT_TRUE(tc.sws.IsCqUcq());
}

TEST(TravelServiceTest, OrlandoPrefersTickets) {
  // Example 1.1 condition 3: both tickets and cars exist in Orlando; the
  // deterministic synthesis must commit to tickets only.
  auto service = MakeTravelService();
  InputSequence input(3);
  input.Append(MakeTravelRequest("orlando", 1000));
  RunResult result = sws::core::Run(service.sws, MakeTravelDatabase(), input);
  Relation expected(4);
  expected.Insert(Booked(300, 120, 80, 0));
  EXPECT_EQ(result.output, expected);
}

TEST(TravelServiceTest, ParisFallsBackToCar) {
  auto service = MakeTravelService();
  InputSequence input(3);
  input.Append(MakeTravelRequest("paris", 1000));
  RunResult result = sws::core::Run(service.sws, MakeTravelDatabase(), input);
  Relation expected(4);
  expected.Insert(Booked(450, 200, 0, 60));
  EXPECT_EQ(result.output, expected);
}

TEST(TravelServiceTest, TokyoFailsConjunctively) {
  // No hotel in Tokyo: conditions 1-3 are conjunctive, so nothing is
  // booked at all (the deferred-commit point of Example 1.1).
  auto service = MakeTravelService();
  InputSequence input(3);
  input.Append(MakeTravelRequest("tokyo", 2000));
  RunResult result = sws::core::Run(service.sws, MakeTravelDatabase(), input);
  EXPECT_TRUE(result.output.empty());
}

TEST(TravelServiceTest, EmptyInputProducesNothing) {
  auto service = MakeTravelService();
  InputSequence input(3);
  RunResult result = sws::core::Run(service.sws, MakeTravelDatabase(), input);
  EXPECT_TRUE(result.output.empty());
}

TEST(TravelServiceTest, SingleMessageSufficesAndExtrasIgnored) {
  // Example 2.2: "it suffices for τ1 to produce output when I consists of
  // a single input message"; later messages are not consumed.
  auto service = MakeTravelService();
  InputSequence short_input(3);
  short_input.Append(MakeTravelRequest("orlando", 1000));
  InputSequence long_input = short_input;
  long_input.Append(MakeTravelRequest("paris", 1000));
  long_input.Append(MakeTravelRequest("tokyo", 1000));
  auto db = MakeTravelDatabase();
  EXPECT_EQ(sws::core::Run(service.sws, db, short_input).output,
            sws::core::Run(service.sws, db, long_input).output);
  EXPECT_EQ(sws::core::Run(service.sws, db, long_input).max_timestamp, 1u);
}

TEST(TravelServiceTest, CqUcqVariantReturnsBothOptions) {
  // The UCQ synthesis has no deterministic preference: both the ticket
  // and the car package are offered.
  auto service = MakeTravelServiceCqUcq();
  InputSequence input(3);
  input.Append(MakeTravelRequest("orlando", 1000));
  RunResult result = sws::core::Run(service.sws, MakeTravelDatabase(), input);
  Relation expected(4);
  expected.Insert(Booked(300, 120, 80, 0));
  expected.Insert(Booked(300, 120, 0, 45));
  EXPECT_EQ(result.output, expected);
}

TEST(TravelServiceTest, RecursiveLatestInquiryWins) {
  // τ2 (Example 2.1): airfare inquiries I_2..I_n are processed by the
  // recursive chain; the latest nonempty result is used.
  auto service = MakeTravelServiceRecursive();
  auto db = MakeTravelDatabase();

  InputSequence input(3);
  input.Append(MakeTravelRequest("orlando", 1000));
  input.Append(AirfareInquiry("orlando"));
  input.Append(AirfareInquiry("paris"));
  RunResult result = sws::core::Run(service.sws, db, input);
  Relation expected(4);
  expected.Insert(Booked(450, 120, 80, 0));  // paris airfare, orlando rest
  EXPECT_EQ(result.output, expected);
  EXPECT_EQ(result.max_timestamp, 3u);

  // With only the earlier inquiry, the orlando airfare is used.
  InputSequence input2(3);
  input2.Append(MakeTravelRequest("orlando", 1000));
  input2.Append(AirfareInquiry("orlando"));
  Relation expected2(4);
  expected2.Insert(Booked(300, 120, 80, 0));
  EXPECT_EQ(sws::core::Run(service.sws, db, input2).output, expected2);

  // An unanswerable latest inquiry falls back to the previous one.
  InputSequence input3(3);
  input3.Append(MakeTravelRequest("orlando", 1000));
  input3.Append(AirfareInquiry("orlando"));
  input3.Append(AirfareInquiry("nowhere"));
  EXPECT_EQ(sws::core::Run(service.sws, db, input3).output, expected2);
}

TEST(TravelServiceTest, RunsAreDeterministic) {
  auto service = MakeTravelService();
  auto db = MakeTravelDatabase();
  InputSequence input(3);
  input.Append(MakeTravelRequest("orlando", 1000));
  RunResult a = sws::core::Run(service.sws, db, input);
  RunResult b = sws::core::Run(service.sws, db, input);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
}

TEST(TravelServiceTest, ExecutionTreeShape) {
  auto service = MakeTravelService();
  InputSequence input(3);
  input.Append(MakeTravelRequest("orlando", 1000));
  RunOptions options;
  options.keep_tree = true;
  RunResult result = sws::core::Run(service.sws, MakeTravelDatabase(), input, options);
  ASSERT_NE(result.tree, nullptr);
  EXPECT_EQ(result.tree->state, 0);
  EXPECT_EQ(result.tree->timestamp, 0u);
  ASSERT_EQ(result.tree->children.size(), 4u);
  for (const auto& child : result.tree->children) {
    EXPECT_EQ(child->timestamp, 1u);
    EXPECT_TRUE(child->children.empty());
  }
  EXPECT_EQ(result.num_nodes, 5u);
}

TEST(SwsValidateTest, RejectsStartStateInRhs) {
  Sws sws(rel::Schema{}, 1, 1);
  int q0 = sws.AddState("q0");
  logic::ConjunctiveQuery id({logic::Term::Var(0)},
                             {logic::Atom{kInputRelation, {logic::Term::Var(0)}}});
  sws.SetTransition(q0, {TransitionTarget{q0, RelQuery::Cq(id)}});
  sws.SetSynthesis(q0, RelQuery::Cq(id));
  auto err = sws.Validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("start state"), std::string::npos);
}

TEST(SwsValidateTest, RejectsArityMismatch) {
  Sws sws(rel::Schema{}, 2, 1);
  int q0 = sws.AddState("q0");
  (void)q0;
  logic::ConjunctiveQuery narrow(
      {logic::Term::Var(0)},
      {logic::Atom{kInputRelation, {logic::Term::Var(0), logic::Term::Var(1)}}});
  sws.SetTransition(0, {});
  sws.SetSynthesis(0, RelQuery::Cq(narrow));
  EXPECT_FALSE(sws.Validate().has_value());  // rout arity 1: fine
  Sws sws2(rel::Schema{}, 2, 3);
  sws2.AddState("q0");
  sws2.SetTransition(0, {});
  sws2.SetSynthesis(0, RelQuery::Cq(narrow));
  EXPECT_TRUE(sws2.Validate().has_value());
}

TEST(SwsValidateTest, RejectsDisallowedRelationReads) {
  // An internal state's synthesis may read only Act registers.
  rel::Schema schema;
  schema.Add(rel::RelationSchema("R", {"a"}));
  Sws sws(schema, 1, 1);
  int q0 = sws.AddState("q0");
  int q1 = sws.AddState("q1");
  logic::ConjunctiveQuery in_q({logic::Term::Var(0)},
                               {logic::Atom{kInputRelation, {logic::Term::Var(0)}}});
  logic::ConjunctiveQuery reads_db(
      {logic::Term::Var(0)}, {logic::Atom{"R", {logic::Term::Var(0)}}});
  sws.SetTransition(q0, {TransitionTarget{q1, RelQuery::Cq(in_q)}});
  sws.SetSynthesis(q0, RelQuery::Cq(reads_db));  // illegal: internal state
  sws.SetTransition(q1, {});
  sws.SetSynthesis(q1, RelQuery::Cq(in_q));
  auto err = sws.Validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("disallowed"), std::string::npos);
}

// Validate's messages name what is wrong. An unknown or disallowed
// relation is the lexicographically first one the rule reads; a rule
// that is not well-formed names the relation of the first atom whose
// arity disagrees with an earlier atom's, or the first unsafe term.
TEST(SwsValidateTest, MessagesNameTheOffendingRelationOrTerm) {
  using logic::Atom;
  using logic::Comparison;
  using logic::ConjunctiveQuery;
  using logic::Term;
  auto v = [](int i) { return Term::Var(i); };
  auto reads = [&v](std::vector<std::string> relations) {
    std::vector<Atom> body;
    for (std::string& r : relations) body.push_back(Atom{std::move(r), {v(0)}});
    return ConjunctiveQuery({v(0)}, std::move(body));
  };
  rel::Schema schema;
  schema.Add(rel::RelationSchema("R", {"a"}));
  // q0 → (leaf, transition); Act(q0) ← root; Act(leaf) ← leaf.
  auto validate = [&schema](const ConjunctiveQuery& transition,
                            const ConjunctiveQuery& root,
                            const ConjunctiveQuery& leaf) {
    Sws sws(schema, 1, 1);
    const int q0 = sws.AddState("q0");
    const int leaf_state = sws.AddState("leaf");
    sws.SetTransition(q0, {TransitionTarget{leaf_state, RelQuery::Cq(transition)}});
    sws.SetSynthesis(q0, RelQuery::Cq(root));
    sws.SetTransition(leaf_state, {});
    sws.SetSynthesis(leaf_state, RelQuery::Cq(leaf));
    return sws.Validate();
  };
  const ConjunctiveQuery transition = reads({kInputRelation, "R"});
  const ConjunctiveQuery root = reads({ActRelation(1)});
  const ConjunctiveQuery leaf = reads({kMsgRelation, "R", kInputRelation});
  EXPECT_EQ(validate(transition, root, leaf), std::nullopt);

  EXPECT_EQ(validate(reads({kInputRelation, "Zeta", "Beta"}), root, leaf),
            "transition query of q0 reads unknown relation Beta");
  EXPECT_EQ(validate(transition, root, reads({"R", ActRelation(2), "Act1"})),
            "synthesis query of leaf reads disallowed relation Act1");
  for (const char* r : {"Act0", "Act01", "Act2", "R", "In", "Msg"}) {
    EXPECT_EQ(validate(transition, reads({"Act1", r}), leaf),
              std::string("synthesis query of q0 reads disallowed relation ") +
                  r);
  }
  EXPECT_EQ(validate(transition, reads({"R", "Act1", "Act0"}), leaf),
            "synthesis query of q0 reads disallowed relation Act0");

  const ConjunctiveQuery arities(
      {v(0)}, {Atom{kInputRelation, {v(0)}}, Atom{"R", {v(0)}},
               Atom{"S", {v(0)}}, Atom{"S", {v(0), v(1)}},
               Atom{"R", {v(0), v(1)}}});
  EXPECT_EQ(validate(arities, root, leaf),
            "transition query of q0: relation S used with inconsistent "
            "arities");
  EXPECT_EQ(validate(transition, root,
                     ConjunctiveQuery({v(5)}, {Atom{kMsgRelation, {v(0)}}})),
            "synthesis query of leaf: unsafe head variable X5");
  EXPECT_EQ(validate(ConjunctiveQuery({v(0)}, {Atom{kInputRelation, {v(0)}}},
                                      {Comparison{v(0), v(8), false},
                                       Comparison{v(9), v(0), false}}),
                     root, leaf),
            "transition query of q0: unsafe comparison term X8");
  EXPECT_EQ(validate(ConjunctiveQuery({v(0)}, {Atom{kInputRelation, {v(0)}}},
                                      {Comparison{v(9), v(0), true}}),
                     root, leaf),
            "transition query of q0: unsafe comparison term X9");
}

TEST(SeededRunTest, SeedReachesLeafRegister) {
  // Single final-state service: Act = Msg contents (echo service).
  Sws sws(rel::Schema{}, 1, 1);
  sws.AddState("q0");
  sws.SetTransition(0, {});
  logic::ConjunctiveQuery echo({logic::Term::Var(0)},
                               {logic::Atom{kMsgRelation, {logic::Term::Var(0)}}});
  sws.SetSynthesis(0, RelQuery::Cq(echo));
  ASSERT_FALSE(sws.Validate().has_value());

  Relation seed(1);
  seed.Insert({Value::Int(7)});
  InputSequence one(1);
  Relation m(1);
  m.Insert({Value::Int(1)});
  one.Append(m);
  RunResult seeded = sws::core::RunSeeded(sws, rel::Database{}, one, seed);
  EXPECT_EQ(seeded.output, seed);
  // Unseeded: the root register is empty, so the echo is empty.
  RunResult unseeded = sws::core::Run(sws, rel::Database{}, one);
  EXPECT_TRUE(unseeded.output.empty());
}

TEST(RunOptionsTest, NodeBudgetAborts) {
  auto service = MakeTravelServiceRecursive();
  InputSequence input(3);
  for (int i = 0; i < 10; ++i) {
    input.Append(MakeTravelRequest("orlando", 1000));
  }
  RunOptions options;
  options.max_nodes = 3;
  RunResult result = sws::core::Run(service.sws, MakeTravelDatabase(), input, options);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), sws::core::RunError::kBudgetExceeded);
  // An aborted run yields no output (not a partial one): callers like the
  // session layer and the concurrent runtime rely on ok=false ⇒ empty.
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.output.arity(), service.sws.rout_arity());
}

// The state graph services share with mediators (sws/state_graph.h).
TransitionTarget EchoEdge(int q) {
  return TransitionTarget{
      q, RelQuery::Cq(logic::ConjunctiveQuery(
             {logic::Term::Var(0)},
             {logic::Atom{kInputRelation, {logic::Term::Var(0)}}}))};
}

// Act ← {(1)}: reads no relation, so every state may use it.
RelQuery ConstantRule() {
  return RelQuery::Cq(logic::ConjunctiveQuery({logic::Term::Int(1)}, {}));
}

TEST(SwsStateGraphTest, EmptyServiceHasDepthZero) {
  Sws sws(rel::Schema{}, 1, 1);
  graph_cases::ExpectEmptyGraph(sws);
  EXPECT_EQ(sws.Classify(), "SWSnr(CQ, CQ)");
}

TEST(SwsStateGraphTest, DepthOfChainsAndCycles) {
  graph_cases::ExpectChainDepthsAndCycle(Sws(rel::Schema{}, 1, 1), EchoEdge,
                                         ConstantRule());
}

TEST(SwsStateGraphTest, ValidateReportsEachShapeError) {
  graph_cases::ExpectShapeErrors(
      Sws(rel::Schema{}, 1, 1), EchoEdge, ConstantRule(),
      [](const Sws& sws) { return sws.Validate(); }, "service");
}

TEST(SwsStateGraphTest, DuplicateStateNameAborts) {
  graph_cases::ExpectDuplicateNameAborts(Sws(rel::Schema{}, 1, 1));
}

}  // namespace
}  // namespace sws::core
