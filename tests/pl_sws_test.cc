#include <gtest/gtest.h>

#include "state_graph_cases.h"
#include "sws/execution.h"
#include "sws/generator.h"
#include "sws/pl_sws.h"

namespace sws::core {
namespace {

using logic::PlFormula;
using F = PlFormula;

// The Figure 1(b) travel SWS as a PL service: input variables report
// which component checks succeed; the service returns true iff
// airfare ∧ hotel ∧ (ticket ∨ (¬ticket ∧ car)).
//
// Variables: 0 = airfare-ok, 1 = hotel-ok, 2 = ticket-ok, 3 = car-ok.
PlSws FigureOneService() {
  PlSws sws(4);
  int q0 = sws.AddState("q0");
  int x1 = sws.AddState("X1");  // airfare
  int x2 = sws.AddState("X2");  // hotel
  int y1 = sws.AddState("Y1");  // ticket
  int y2 = sws.AddState("Y2");  // car
  sws.SetTransition(q0, {{x1, F::True()},
                         {x2, F::True()},
                         {y1, F::True()},
                         {y2, F::True()}});
  // X = X1 ∧ X2 ∧ X3 where X3 = Y1 ∨ (¬Y1 ∧ Y2) over successor acts
  // (successor index order: 0=X1, 1=X2, 2=Y1, 3=Y2).
  sws.SetSynthesis(
      q0, F::And({F::Var(0), F::Var(1),
                  F::Or(F::Var(2), F::And(F::Not(F::Var(2)), F::Var(3)))}));
  sws.SetTransition(x1, {});
  sws.SetSynthesis(x1, F::Var(0));
  sws.SetTransition(x2, {});
  sws.SetSynthesis(x2, F::Var(1));
  sws.SetTransition(y1, {});
  sws.SetSynthesis(y1, F::Var(2));
  sws.SetTransition(y2, {});
  sws.SetSynthesis(y2, F::Var(3));
  return sws;
}

TEST(PlSwsTest, FigureOneSemantics) {
  PlSws sws = FigureOneService();
  ASSERT_FALSE(sws.Validate().has_value());
  EXPECT_EQ(sws.Classify(), "SWSnr(PL, PL)");
  EXPECT_EQ(sws.MaxDepth(), 2u);

  // One input message (read by the leaves at timestamp 1).
  EXPECT_TRUE(sws.Run({{0, 1, 2}}));      // tickets
  EXPECT_TRUE(sws.Run({{0, 1, 3}}));      // car fallback
  EXPECT_TRUE(sws.Run({{0, 1, 2, 3}}));   // both: tickets chosen, still true
  EXPECT_FALSE(sws.Run({{0, 2, 3}}));     // no hotel
  EXPECT_FALSE(sws.Run({{1, 2, 3}}));     // no airfare
  EXPECT_FALSE(sws.Run({{}}));            // nothing
  EXPECT_FALSE(sws.Run({}));              // empty input: Act(r) = ∅
}

TEST(PlSwsTest, EmptyRegisterKillsSubtree) {
  // q0 -> (q1, x0): the guard is the register bit of q1; if false, q1's
  // subtree is dead even though its synthesis is a tautology.
  PlSws sws(1);
  int q0 = sws.AddState("q0");
  int q1 = sws.AddState("q1");
  sws.SetTransition(q0, {{q1, F::Var(0)}});
  sws.SetSynthesis(q0, F::Var(0));
  sws.SetTransition(q1, {});
  sws.SetSynthesis(q1, F::True());
  ASSERT_FALSE(sws.Validate().has_value());
  EXPECT_TRUE(sws.Run({{0}}));
  EXPECT_FALSE(sws.Run({{}}));  // guard false -> register false -> dead
}

TEST(PlSwsTest, NegationInSynthesisSeesDeadChildrenAsFalse) {
  // Act(q0) = ¬Act(q1). With input too short for q1's level, Act(q1) is
  // ∅ = false, so the root is true — but only if I is nonempty.
  PlSws sws(1);
  int q0 = sws.AddState("q0");
  int q1 = sws.AddState("q1");
  sws.SetTransition(q0, {{q1, F::True()}});
  sws.SetSynthesis(q0, F::Not(F::Var(0)));
  sws.SetTransition(q1, {});
  sws.SetSynthesis(q1, F::Var(0));
  EXPECT_FALSE(sws.Run({}));        // empty input: root does not proceed
  EXPECT_TRUE(sws.Run({{}}));       // q1 reads I_1 with x0 false
  EXPECT_FALSE(sws.Run({{0}}));     // q1 true -> root false
}

TEST(PlSwsTest, MsgVarReachesTransitionAndLeaf) {
  // Chain q0 -> q1 -> q2; q1's guard to q2 copies the register; q2 echoes
  // its register. Tests register propagation across two levels.
  PlSws sws(1);
  int q0 = sws.AddState("q0");
  int q1 = sws.AddState("q1");
  int q2 = sws.AddState("q2");
  sws.SetTransition(q0, {{q1, F::Var(0)}});       // register1 = x0 of I_1
  sws.SetSynthesis(q0, F::Var(0));
  sws.SetTransition(q1, {{q2, F::Var(sws.msg_var())}});  // copy register
  sws.SetSynthesis(q1, F::Var(0));
  sws.SetTransition(q2, {});
  sws.SetSynthesis(q2, F::Var(sws.msg_var()));
  ASSERT_FALSE(sws.Validate().has_value());
  EXPECT_TRUE(sws.Run({{0}, {}}));   // I_1 sets register; I_2 irrelevant
  EXPECT_FALSE(sws.Run({{}, {0}}));  // guard false at level 1
  EXPECT_FALSE(sws.Run({{0}}));      // q2 at timestamp 2 > n: dead
}

TEST(PlSwsTest, RecursiveServiceUnboundedInput) {
  // q0 -> q; q -> (q, x0), (f, x0); f echoes. Accepts words where some
  // prefix of consecutive x0's... effectively: x0 holds at positions
  // 2..k for some k >= 2 reachable by the chain. Simplest check: needs
  // at least 2 messages with x0 at position 2.
  PlSws sws(1);
  int q0 = sws.AddState("q0");
  int q = sws.AddState("q");
  int f = sws.AddState("f");
  sws.SetTransition(q0, {{q, F::True()}});
  sws.SetSynthesis(q0, F::Var(0));
  sws.SetTransition(q, {{q, F::Var(0)}, {f, F::Var(0)}});
  sws.SetSynthesis(q, F::Or(F::Var(0), F::Var(1)));
  sws.SetTransition(f, {});
  sws.SetSynthesis(f, F::Var(sws.msg_var()));
  ASSERT_FALSE(sws.Validate().has_value());
  EXPECT_TRUE(sws.IsRecursive());
  EXPECT_EQ(sws.Classify(), "SWS(PL, PL)");
  EXPECT_FALSE(sws.Run({{0}}));          // f lives at level >= 2
  EXPECT_TRUE(sws.Run({{0}, {0}}));
  EXPECT_TRUE(sws.Run({{}, {0}}));       // I_1 irrelevant
  EXPECT_FALSE(sws.Run({{0}, {}}));      // x0 false at position 2
  EXPECT_TRUE(sws.Run({{}, {0}, {0}, {0}}));
}

TEST(PlSwsTest, SeededRootRegister) {
  // Final-state root echoing its register: seeded true -> true even with
  // input; unseeded -> false.
  PlSws sws(1);
  sws.AddState("q0");
  sws.SetTransition(0, {});
  sws.SetSynthesis(0, F::Var(sws.msg_var()));
  EXPECT_FALSE(sws.Run({{0}}));
  EXPECT_TRUE(sws.RunSeeded({{0}}, true));
  EXPECT_TRUE(sws.RunSeeded({}, true));   // seeded, no input: leaf acts
  EXPECT_FALSE(sws.RunSeeded({}, false));
}

TEST(PlSwsTest, ValidateCatchesBadSuccessorIndex) {
  PlSws sws(1);
  int q0 = sws.AddState("q0");
  int q1 = sws.AddState("q1");
  sws.SetTransition(q0, {{q1, F::True()}});
  sws.SetSynthesis(q0, F::Var(5));  // only successor 0 exists
  sws.SetTransition(q1, {});
  sws.SetSynthesis(q1, F::True());
  EXPECT_TRUE(sws.Validate().has_value());
}

TEST(PlSwsTest, RelevantInputVars) {
  PlSws sws = FigureOneService();
  EXPECT_EQ(sws.RelevantInputVars(), (std::set<int>{0, 1, 2, 3}));
}

// Differential test: the relational encoding of a PlSws agrees with the
// native PL run semantics on random services and words — the paper's
// claim that PL services are a special case of the data-driven framework.
TEST(PlSwsTest, RelationalEncodingAgreesOnRandomServices) {
  WorkloadGenerator gen(20260705);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    WorkloadGenerator::PlSwsParams params;
    params.num_states = 3 + static_cast<int>(gen.rng()() % 3);
    params.num_input_vars = 2;
    params.allow_recursion = (trial % 2) == 1;
    PlSws pl = gen.RandomPlSws(params);
    Sws relational = PlSwsToRelational(pl);
    ASSERT_FALSE(relational.Validate().has_value())
        << *relational.Validate();
    for (int w = 0; w < 8; ++w) {
      PlSws::Word word = gen.RandomPlWord(static_cast<int>(gen.rng()() % 4),
                                          params.num_input_vars);
      bool pl_result = pl.Run(word);
      RunResult rel_result =
          sws::core::Run(relational, rel::Database{}, EncodePlWord(word));
      EXPECT_EQ(pl_result, !rel_result.output.empty())
          << "trial " << trial << " word " << w << "\n"
          << pl.ToString();
      ++checked;
    }
  }
  EXPECT_EQ(checked, 320);
}

TEST(PlSwsTest, RecursionFlagFromGenerator) {
  WorkloadGenerator gen(7);
  WorkloadGenerator::PlSwsParams params;
  params.num_states = 5;
  params.allow_recursion = false;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(gen.RandomPlSws(params).IsRecursive());
  }
}

PlSws::Successor TrueEdge(int q) { return {q, F::True()}; }

TEST(PlSwsStateGraphTest, EmptyServiceHasDepthZero) {
  PlSws sws(1);
  graph_cases::ExpectEmptyGraph(sws);
  EXPECT_EQ(sws.Classify(), "SWSnr(PL, PL)");
}

TEST(PlSwsStateGraphTest, DepthOfChainsAndCycles) {
  graph_cases::ExpectChainDepthsAndCycle(PlSws(1), TrueEdge, F::True());
}

TEST(PlSwsStateGraphTest, ValidateReportsEachShapeError) {
  graph_cases::ExpectShapeErrors(
      PlSws(1), TrueEdge, F::True(),
      [](const PlSws& sws) { return sws.Validate(); }, "service");
}

TEST(PlSwsStateGraphTest, DuplicateStateNameAborts) {
  graph_cases::ExpectDuplicateNameAborts(PlSws(1));
}

}  // namespace
}  // namespace sws::core
