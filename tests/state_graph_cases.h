// Cases every machine built on core::StateGraph (sws/state_graph.h) must
// pass — Sws, PlSws, Mediator and PlMediator: depth and recursion of the
// dependency graph, the three shape errors Validate reports first, and
// unique state names. Each suite instantiates them for its machines.

#ifndef SWS_TESTS_STATE_GRAPH_CASES_H_
#define SWS_TESTS_STATE_GRAPH_CASES_H_

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace sws::graph_cases {

/// A machine without states has depth 0 and is not recursive.
template <typename Machine>
void ExpectEmptyGraph(const Machine& empty) {
  EXPECT_EQ(empty.num_states(), 0);
  EXPECT_EQ(empty.MaxDepth(), 0u);
  EXPECT_FALSE(empty.IsRecursive());
}

/// Chains q0 → q1 → ... → q_{k−1} have depth k; a two-state cycle
/// q1 ⇄ q2 below q0 makes the machine recursive. `edge(q)` is a successor
/// entry targeting q, and `rule` a synthesis rule.
template <typename Machine, typename Edge, typename Rule>
void ExpectChainDepthsAndCycle(const Machine& empty, Edge edge,
                               const Rule& rule) {
  for (int k = 1; k <= 5; ++k) {
    Machine chain = empty;
    for (int q = 0; q < k; ++q) chain.AddState("q" + std::to_string(q));
    for (int q = 0; q < k; ++q) {
      if (q + 1 < k) chain.SetTransition(q, {edge(q + 1)});
      chain.SetSynthesis(q, rule);
    }
    EXPECT_EQ(chain.MaxDepth(), static_cast<size_t>(k)) << "chain of " << k;
    EXPECT_FALSE(chain.IsRecursive()) << "chain of " << k;
  }
  Machine cycle = empty;
  for (const char* name : {"q0", "q1", "q2"}) cycle.AddState(name);
  cycle.SetTransition(0, {edge(1)});
  cycle.SetTransition(1, {edge(2)});
  cycle.SetTransition(2, {edge(1)});
  EXPECT_TRUE(cycle.IsRecursive());
  EXPECT_FALSE(cycle.MaxDepth().has_value());
}

/// Validate reports each shape error: no states, a state without a
/// synthesis rule, and q0 on a right-hand side. `validate(m)` runs the
/// machine's Validate; `kind` is "service" or "mediator".
template <typename Machine, typename Edge, typename Rule, typename Validate>
void ExpectShapeErrors(const Machine& empty, Edge edge, const Rule& rule,
                       Validate validate, const std::string& kind) {
  EXPECT_EQ(validate(empty), kind + " has no states");

  Machine two = empty;
  two.AddState("q0");
  two.AddState("q1");
  two.SetTransition(0, {edge(1)});
  two.SetSynthesis(0, rule);
  EXPECT_EQ(validate(two), "state q1 has no synthesis rule");

  two.SetSynthesis(1, rule);
  EXPECT_FALSE(validate(two).has_value());

  two.SetTransition(1, {edge(0)});
  EXPECT_EQ(validate(two), "start state appears in the rhs of q1");
}

/// Adding a second state under a name already taken aborts.
template <typename Machine>
void ExpectDuplicateNameAborts(const Machine& empty) {
  Machine machine = empty;
  machine.AddState("q0");
  machine.AddState("q1");
  EXPECT_EQ(machine.FindState("q1"), 1);
  EXPECT_EQ(machine.FindState("q2"), -1);
  EXPECT_DEATH(machine.AddState("q1"), "duplicate state name q1");
}

}  // namespace sws::graph_cases

#endif  // SWS_TESTS_STATE_GRAPH_CASES_H_
