#include <gtest/gtest.h>

#include "logic/fo.h"
#include "mediator/cq_composition.h"
#include "mediator/kprefix.h"
#include "mediator/mediator_run.h"
#include "mediator/pl_composition.h"
#include "models/travel.h"
#include "rewriting/cq_rewriting.h"
#include "state_graph_cases.h"
#include "sws/execution.h"
#include "sws/generator.h"

namespace sws::med {
namespace {

using core::ActRelation;
using core::PlSws;
using core::RelQuery;
using core::Sws;
using logic::FoFormula;
using logic::PlFormula;
using logic::Term;
using models::MakeTravelDatabase;
using models::MakeTravelRequest;
using F = PlFormula;

// The mediator π1 of Example 5.1 over components τ_a, τ_ht, τ_hc:
//   q1 → (qa, eval(τ_a)), (qht, eval(τ_ht)), (qhc, eval(τ_hc))
//   ψ1 = Act(qa)(x_a,_,_,_) ∧ (Act(qht)(_,x_h,x_t,x_c)
//         ∨ ¬∃ȳ Act(qht)(ȳ) ∧ Act(qhc)(_,x_h,x_t,x_c)).
Mediator MakePi1() {
  Mediator pi(3, 4);
  int q1 = pi.AddState("q1");
  int qa = pi.AddState("qa");
  int qht = pi.AddState("qht");
  int qhc = pi.AddState("qhc");
  pi.SetTransition(q1, {MediatorTarget{qa, 0}, MediatorTarget{qht, 1},
                        MediatorTarget{qhc, 2}});
  auto v = [](int i) { return Term::Var(i); };
  // Echo leaves: Act ← Msg.
  for (int leaf : {qa, qht, qhc}) {
    pi.SetTransition(leaf, {});
    pi.SetSynthesis(
        leaf, RelQuery::Cq(logic::ConjunctiveQuery(
                  {v(0), v(1), v(2), v(3)},
                  {logic::Atom{core::kMsgRelation, {v(0), v(1), v(2), v(3)}}})));
  }
  FoFormula airfare = FoFormula::Exists(
      {4, 5, 6}, FoFormula::MakeAtom(ActRelation(1), {v(0), v(4), v(5), v(6)}));
  FoFormula ht = FoFormula::Exists(
      {4}, FoFormula::MakeAtom(ActRelation(2), {v(4), v(1), v(2), v(3)}));
  FoFormula any_ht = FoFormula::Exists(
      {4, 5, 6, 7},
      FoFormula::MakeAtom(ActRelation(2), {v(4), v(5), v(6), v(7)}));
  FoFormula hc = FoFormula::Exists(
      {4}, FoFormula::MakeAtom(ActRelation(3), {v(4), v(1), v(2), v(3)}));
  FoFormula psi1 = FoFormula::And(
      airfare, FoFormula::Or(ht, FoFormula::And(FoFormula::Not(any_ht), hc)));
  pi.SetSynthesis(q1, RelQuery::Fo(logic::FoQuery(
                          {v(0), v(1), v(2), v(3)}, psi1)));
  return pi;
}

std::vector<Sws> TravelComponents() {
  return {models::MakeTravelComponentAirfare().sws,
          models::MakeTravelComponentHotelTickets().sws,
          models::MakeTravelComponentHotelCar().sws};
}

std::vector<const Sws*> Pointers(const std::vector<Sws>& v) {
  std::vector<const Sws*> out;
  for (const Sws& s : v) out.push_back(&s);
  return out;
}

TEST(Example51Test, ComponentsBehaveAsSpecified) {
  auto components = TravelComponents();
  auto db = MakeTravelDatabase();
  rel::InputSequence input(3);
  input.Append(MakeTravelRequest("orlando", 1000));
  // τ_a: airfare only.
  rel::Relation a = core::Run(components[0], db, input).output;
  rel::Relation expected_a(4);
  expected_a.Insert({rel::Value::Int(300), rel::Value::Int(0),
                     rel::Value::Int(0), rel::Value::Int(0)});
  EXPECT_EQ(a, expected_a);
  // τ_ht: hotel + tickets.
  rel::Relation ht = core::Run(components[1], db, input).output;
  rel::Relation expected_ht(4);
  expected_ht.Insert({rel::Value::Int(0), rel::Value::Int(120),
                      rel::Value::Int(80), rel::Value::Int(0)});
  EXPECT_EQ(ht, expected_ht);
}

TEST(Example51Test, Pi1EquivalentToTau1OnRuns) {
  // The paper's claim: π1 ≡ τ1 given conditions (a)-(c), which our
  // components satisfy. Verified by running both sides.
  auto goal = models::MakeTravelService();  // τ1
  auto components = TravelComponents();
  auto pointers = Pointers(components);
  Mediator pi1 = MakePi1();
  ASSERT_FALSE(pi1.Validate(pointers).has_value())
      << *pi1.Validate(pointers);
  EXPECT_FALSE(pi1.IsRecursive());  // MDTnr(FO), as the example notes

  auto db = MakeTravelDatabase();
  for (const char* dest : {"orlando", "paris", "tokyo", "nowhere"}) {
    rel::InputSequence input(3);
    input.Append(MakeTravelRequest(dest, 1000));
    rel::Relation from_goal = core::Run(goal.sws, db, input).output;
    MediatorRunResult from_mediator = RunMediator(pi1, pointers, db, input);
    EXPECT_EQ(from_goal, from_mediator.output) << dest;
  }
  // Empty input: both silent.
  rel::InputSequence empty(3);
  EXPECT_TRUE(core::Run(goal.sws, db, empty).output.empty());
  EXPECT_TRUE(RunMediator(pi1, pointers, db, empty).output.empty());
}

TEST(Example51Test, MediatorValidationRejectsDbAccess) {
  Mediator pi(3, 4);
  pi.AddState("q0");
  pi.SetTransition(0, {});
  // Final synthesis reading a database relation: illegal for mediators.
  pi.SetSynthesis(0, RelQuery::Cq(logic::ConjunctiveQuery(
                         {Term::Var(0), Term::Var(1), Term::Var(2),
                          Term::Var(3)},
                         {logic::Atom{"Ra",
                                      {Term::Var(0), Term::Var(1)}},
                          logic::Atom{core::kMsgRelation,
                                      {Term::Var(0), Term::Var(1),
                                       Term::Var(2), Term::Var(3)}}})));
  auto err = pi.Validate({});
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("disallowed"), std::string::npos);
}

TEST(CqCompositionTest, TravelGoalComposesFromComponents) {
  auto goal = models::MakeTravelServiceCqUcq();
  auto components = TravelComponents();
  auto pointers = Pointers(components);
  CqCompositionResult result = ComposeCqOneLevel(goal.sws, pointers);
  ASSERT_TRUE(result.found) << result.reason;
  EXPECT_EQ(result.rewriting.size(), 2u);  // ticket and car disjuncts
  // One view atom per component each disjunct reads: the airfare
  // component and one of the hotel components.
  for (const logic::ConjunctiveQuery& d : result.rewriting.disjuncts()) {
    ASSERT_EQ(d.body().size(), 2u) << d.ToString();
    EXPECT_EQ(d.body()[0].relation, "v0") << d.ToString();
    EXPECT_TRUE(d.body()[1].relation == "v1" || d.body()[1].relation == "v2")
        << d.ToString();
  }

  // The synthesized mediator matches the goal on real runs.
  auto db = MakeTravelDatabase();
  for (const char* dest : {"orlando", "paris", "tokyo"}) {
    rel::InputSequence input(3);
    input.Append(MakeTravelRequest(dest, 1000));
    EXPECT_EQ(core::Run(goal.sws, db, input).output,
              RunMediator(result.mediator, pointers, db, input).output)
        << dest;
  }
}

TEST(CqCompositionTest, MissingCapabilityIsDetected) {
  auto goal = models::MakeTravelServiceCqUcq();
  // Only the airfare component: hotel/ticket/car are not expressible.
  auto airfare = models::MakeTravelComponentAirfare();
  CqCompositionResult result =
      ComposeCqOneLevel(goal.sws, {&airfare.sws});
  EXPECT_FALSE(result.found);
  EXPECT_FALSE(result.reason.empty());
}

// A goal whose root joins two component outputs on a shared value
// (Corollary 5.2's equi-join case). Schema R(a, b), S(a, b); each leaf
// receives the input message and reads one relation.
rel::Schema JoinSchema() {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("R", {"a", "b"}));
  schema.Add(rel::RelationSchema("S", {"a", "b"}));
  return schema;
}

// Msg(leaf) ← In: every leaf sees the input message.
RelQuery CopyInput() {
  return RelQuery::Cq(logic::ConjunctiveQuery(
      {Term::Var(0)}, {logic::Atom{core::kInputRelation, {Term::Var(0)}}}));
}

// ans(x, y) :- Msg(x), R(x, y).
logic::ConjunctiveQuery ReadR() {
  return logic::ConjunctiveQuery(
      {Term::Var(0), Term::Var(1)},
      {logic::Atom{core::kMsgRelation, {Term::Var(0)}},
       logic::Atom{"R", {Term::Var(0), Term::Var(1)}}});
}

// ans(y, z) :- Msg(w), S(y, z).
logic::ConjunctiveQuery ReadS() {
  return logic::ConjunctiveQuery(
      {Term::Var(1), Term::Var(2)},
      {logic::Atom{core::kMsgRelation, {Term::Var(0)}},
       logic::Atom{"S", {Term::Var(1), Term::Var(2)}}});
}

// A root over one leaf per synthesis in `leaves`, each fed the input;
// the root synthesis is `root`.
Sws RootOverLeaves(const std::vector<logic::ConjunctiveQuery>& leaves,
                   logic::ConjunctiveQuery root) {
  Sws sws(JoinSchema(), 1, 2);
  int q0 = sws.AddState("q0");
  std::vector<core::TransitionTarget> successors;
  for (size_t i = 0; i < leaves.size(); ++i) {
    int leaf = sws.AddState("leaf" + std::to_string(i));
    sws.SetTransition(leaf, {});
    sws.SetSynthesis(leaf, RelQuery::Cq(leaves[i]));
    successors.push_back(core::TransitionTarget{leaf, CopyInput()});
  }
  sws.SetTransition(q0, std::move(successors));
  sws.SetSynthesis(q0, RelQuery::Cq(std::move(root)));
  EXPECT_FALSE(sws.Validate().has_value()) << *sws.Validate();
  return sws;
}

TEST(CqCompositionTest, JoinOfComponentOutputsComposes) {
  auto v = [](int i) { return Term::Var(i); };
  const logic::ConjunctiveQuery copy_up(
      {v(0), v(1)}, {logic::Atom{ActRelation(1), {v(0), v(1)}}});
  Sws reads_r = RootOverLeaves({ReadR()}, copy_up);
  Sws reads_s = RootOverLeaves({ReadS()}, copy_up);
  // ans(x, z) :- Act1(x, y), Act2(y, z).
  Sws goal = RootOverLeaves(
      {ReadR(), ReadS()},
      logic::ConjunctiveQuery({v(0), v(2)},
                              {logic::Atom{ActRelation(1), {v(0), v(1)}},
                               logic::Atom{ActRelation(2), {v(1), v(2)}}}));
  std::vector<const Sws*> components = {&reads_r, &reads_s};
  CqCompositionResult result = ComposeCqOneLevel(goal, components);
  ASSERT_TRUE(result.found) << result.reason;

  // ans(x, z) :- v0(x, y), v1(y, z): the two view atoms share y.
  ASSERT_EQ(result.rewriting.size(), 1u) << result.rewriting.ToString();
  const logic::ConjunctiveQuery& d = result.rewriting.disjuncts()[0];
  ASSERT_EQ(d.body().size(), 2u) << d.ToString();
  EXPECT_EQ(d.body()[0].relation, "v0");
  EXPECT_EQ(d.body()[1].relation, "v1");
  EXPECT_TRUE(d.body()[0].args[1].is_var());
  EXPECT_EQ(d.body()[0].args[1], d.body()[1].args[0]) << d.ToString();

  rel::Database db(JoinSchema());
  auto insert = [&db](const char* relation, int64_t a, int64_t b) {
    db.GetMutable(relation)->Insert({rel::Value::Int(a), rel::Value::Int(b)});
  };
  insert("R", 1, 10);
  insert("R", 1, 11);
  insert("R", 2, 20);
  insert("R", 3, 30);
  insert("S", 10, 100);
  insert("S", 11, 110);
  insert("S", 20, 200);
  insert("S", 40, 400);
  size_t nonempty = 0;
  for (int64_t request : {1, 2, 3, 4}) {
    rel::InputSequence input(1);
    rel::Relation message(1);
    message.Insert({rel::Value::Int(request)});
    input.Append(std::move(message));
    rel::Relation from_goal = core::Run(goal, db, input).output;
    EXPECT_EQ(from_goal, RunMediator(result.mediator, components, db, input)
                             .output)
        << "request " << request;
    if (!from_goal.empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 2u);  // requests 1 and 2 reach S through R
}

// Composing a service from itself and a slower copy: the canonical
// rewriting at the full length joins both views, but the copy's output is
// missing at length 1, so the service's own view must serve that length.
TEST(CqCompositionTest, ComposesFromTheComponentEveryLengthNeeds) {
  auto v = [](int i) { return Term::Var(i); };
  const logic::ConjunctiveQuery copy_up(
      {v(0), v(1)}, {logic::Atom{ActRelation(1), {v(0), v(1)}}});
  Sws goal = RootOverLeaves({ReadR()}, copy_up);
  // root -> mid -> leaf: the leaf receives the input one step later.
  Sws slower(JoinSchema(), 1, 2);
  int root = slower.AddState("root");
  int mid = slower.AddState("mid");
  int leaf = slower.AddState("leaf");
  slower.SetTransition(root, {core::TransitionTarget{mid, CopyInput()}});
  slower.SetTransition(
      mid, {core::TransitionTarget{
               leaf, RelQuery::Cq(logic::ConjunctiveQuery(
                         {v(0)}, {logic::Atom{core::kMsgRelation, {v(0)}}}))}});
  slower.SetTransition(leaf, {});
  slower.SetSynthesis(root, RelQuery::Cq(copy_up));
  slower.SetSynthesis(mid, RelQuery::Cq(copy_up));
  slower.SetSynthesis(leaf, RelQuery::Cq(ReadR()));
  ASSERT_FALSE(slower.Validate().has_value()) << *slower.Validate();

  const std::vector<const Sws*> components = {&goal, &slower};
  CqCompositionResult result = ComposeCqOneLevel(goal, components);
  ASSERT_TRUE(result.found) << result.reason;
  bool own_view_alone = false;  // ans(x, y) :- v0(x, y)
  for (const logic::ConjunctiveQuery& d : result.rewriting.disjuncts()) {
    own_view_alone = own_view_alone ||
                     (d.body().size() == 1 && d.body()[0].relation == "v0");
  }
  EXPECT_TRUE(own_view_alone) << result.rewriting.ToString();

  rel::Database db(JoinSchema());
  db.GetMutable("R")->Insert({rel::Value::Int(1), rel::Value::Int(10)});
  rel::InputSequence input(1);
  for (size_t length = 1; length <= result.unfold_length; ++length) {
    rel::Relation message(1);
    message.Insert({rel::Value::Int(1)});
    input.Append(std::move(message));
    rel::Relation from_goal = core::Run(goal, db, input).output;
    EXPECT_FALSE(from_goal.empty()) << "length " << length;
    EXPECT_EQ(from_goal,
              RunMediator(result.mediator, components, db, input).output)
        << "length " << length;
  }
}

// ComposeCqOneLevel before it stopped at the first length at which every
// unfolding is complete, kept as the oracle: one target per input length
// up to the depth, longest first. nullopt if no rewriting exists; clears
// `expressible` if some component is not CQ-expressible at some length.
std::optional<logic::UnionQuery> OracleRewriting(
    const Sws& goal, const std::vector<const Sws*>& components,
    bool* expressible) {
  size_t depth = *goal.MaxDepth();
  for (const Sws* c : components) depth = std::max(depth, *c->MaxDepth());
  std::vector<rw::RewritingTarget> targets;
  for (size_t length = depth + 1; length-- > 0;) {
    std::vector<rw::View> views;
    for (size_t i = 0; i < components.size(); ++i) {
      logic::UnionQuery u = core::UnfoldToUcq(*components[i], length);
      if (u.size() > 1) {
        *expressible = false;
        return std::nullopt;
      }
      logic::ConjunctiveQuery never(
          std::vector<Term>(u.head_arity(), Term::Int(0)), {},
          {logic::Comparison{Term::Int(0), Term::Int(1), true}});
      views.push_back(rw::View{ComponentViewName(i),
                               u.empty() ? never : u.disjuncts()[0]});
    }
    targets.push_back(
        rw::RewritingTarget{core::UnfoldToUcq(goal, length), views});
  }
  return rw::EquivalentRewriting(targets);
}

// Stopping at the first length at which the goal and every component
// unfold completely changes no answer: on the travel services and on
// comparison-free generated ones, composition finds a rewriting exactly
// when the oracle does, and the same one. Only the length a failure's
// reason names may be shorter.
TEST(CqCompositionTest, AgreesWithTheEveryLengthComposition) {
  std::vector<Sws> services = TravelComponents();  // 0..2
  services.push_back(models::MakeTravelServiceCqUcq().sws);  // 3
  struct Case {
    size_t goal;
    std::vector<size_t> components;
  };
  std::vector<Case> cases = {{3, {0, 1, 2}}, {3, {0}}, {3, {1, 2}},
                             {3, {3}},       {0, {0}}, {1, {0, 1}}};
  for (uint64_t seed = 0; seed < 30; ++seed) {
    core::WorkloadGenerator gen(seed);
    core::WorkloadGenerator::CqSwsParams params;
    params.num_states = 2 + static_cast<int>(seed % 3);
    params.rin_arity = 1;
    params.rout_arity = 1 + seed % 2;
    params.inequality_prob = 0.0;
    const size_t first = services.size();
    for (int max_disjuncts : {1, 1, 2}) {
      params.max_ucq_disjuncts = max_disjuncts;
      services.push_back(gen.RandomCqSws(params));
    }
    bool small = true;
    for (size_t i = first; i < services.size(); ++i) {
      small = small && core::UnfoldDisjunctBound(
                           services[i], *services[i].MaxDepth()) <= 40;
    }
    if (!small) continue;
    // Two CQ-expressible services and one that may not be.
    const size_t a = first, b = first + 1, c = first + 2;
    cases.push_back({a, {a}});
    cases.push_back({a, {b, a}});
    cases.push_back({a, {b}});
    cases.push_back({c, {a, b}});
    cases.push_back({c, {c}});
    cases.push_back({c, {a, c}});
  }

  int found = 0;
  int not_found = 0;
  int not_expressible = 0;
  for (const Case& k : cases) {
    const Sws& goal = services[k.goal];
    std::vector<const Sws*> components;
    for (size_t i : k.components) components.push_back(&services[i]);
    std::string context = "goal " + std::to_string(k.goal) + "\n" +
                          goal.ToString();
    bool expressible = true;
    std::optional<logic::UnionQuery> oracle =
        OracleRewriting(goal, components, &expressible);
    CqCompositionResult result = ComposeCqOneLevel(goal, components);
    ASSERT_EQ(result.found, oracle.has_value()) << context << result.reason;
    size_t depth = *goal.MaxDepth();
    for (const Sws* c : components) depth = std::max(depth, *c->MaxDepth());
    EXPECT_EQ(result.unfold_length, depth) << context;
    if (result.found) {
      ++found;
      EXPECT_EQ(result.rewriting.ToString(), oracle->ToString()) << context;
    } else if (!expressible) {
      ++not_expressible;
      EXPECT_NE(result.reason.find("is not CQ-expressible at length"),
                std::string::npos)
          << context << result.reason;
    } else {
      ++not_found;
      EXPECT_EQ(result.reason,
                "no rewriting over the component views matches the goal at "
                "every input length up to " +
                    std::to_string(depth))
          << context;
    }
  }
  std::printf("%zu compositions: %d found, %d without a rewriting, %d with a "
              "component that is not CQ-expressible\n",
              cases.size(), found, not_found, not_expressible);
  EXPECT_GT(found, 0);
  EXPECT_GT(not_found, 0);
  EXPECT_GT(not_expressible, 0);
}

// --- PL mediators ---

// Goal: leaves report input vars; accept iff v0 ∧ v1 (both checks pass).
PlSws AndGoal() {
  PlSws sws(2);
  int q0 = sws.AddState("q0");
  int l0 = sws.AddState("l0");
  int l1 = sws.AddState("l1");
  sws.SetTransition(q0, {{l0, F::True()}, {l1, F::True()}});
  sws.SetSynthesis(q0, F::And(F::Var(0), F::Var(1)));
  sws.SetTransition(l0, {});
  sws.SetSynthesis(l0, F::Var(0));
  sws.SetTransition(l1, {});
  sws.SetSynthesis(l1, F::Var(1));
  return sws;
}

// Component checking a single input variable v.
PlSws SingleCheckComponent(int v) {
  PlSws sws(2);
  int q0 = sws.AddState("q0");
  int leaf = sws.AddState("leaf");
  sws.SetTransition(q0, {{leaf, F::True()}});
  sws.SetSynthesis(q0, F::Var(0));
  sws.SetTransition(leaf, {});
  sws.SetSynthesis(leaf, F::Var(v));
  return sws;
}

TEST(PlMediatorTest, RunSemantics) {
  PlSws c0 = SingleCheckComponent(0);
  PlSws c1 = SingleCheckComponent(1);
  std::vector<const PlSws*> components = {&c0, &c1};
  PlMediator pi;
  int q0 = pi.AddState("q0");
  int s0 = pi.AddState("s0");
  int s1 = pi.AddState("s1");
  pi.SetTransition(q0, {MediatorTarget{s0, 0}, MediatorTarget{s1, 1}});
  pi.SetSynthesis(q0, F::And(F::Var(0), F::Var(1)));
  pi.SetTransition(s0, {});
  pi.SetSynthesis(s0, F::Var(PlMediator::kMsgVar));
  pi.SetTransition(s1, {});
  pi.SetSynthesis(s1, F::Var(PlMediator::kMsgVar));
  ASSERT_FALSE(pi.Validate(components).has_value());

  EXPECT_TRUE(RunPlMediator(pi, components, {{0, 1}}).output);
  EXPECT_FALSE(RunPlMediator(pi, components, {{0}}).output);
  EXPECT_FALSE(RunPlMediator(pi, components, {{1}}).output);
  EXPECT_FALSE(RunPlMediator(pi, components, {}).output);
}

TEST(PlMediatorTest, KPrefixEquivalenceAgainstGoal) {
  PlSws goal = AndGoal();
  PlSws c0 = SingleCheckComponent(0);
  PlSws c1 = SingleCheckComponent(1);
  std::vector<const PlSws*> components = {&c0, &c1};
  PlMediator pi;
  int q0 = pi.AddState("q0");
  int s0 = pi.AddState("s0");
  int s1 = pi.AddState("s1");
  pi.SetTransition(q0, {MediatorTarget{s0, 0}, MediatorTarget{s1, 1}});
  pi.SetSynthesis(q0, F::And(F::Var(0), F::Var(1)));
  pi.SetTransition(s0, {});
  pi.SetSynthesis(s0, F::Var(PlMediator::kMsgVar));
  pi.SetTransition(s1, {});
  pi.SetSynthesis(s1, F::Var(PlMediator::kMsgVar));

  PrefixEquivalenceResult eq =
      MediatorGoalEquivalence(pi, components, goal);
  EXPECT_TRUE(eq.complete);
  EXPECT_TRUE(eq.equivalent) << (eq.counterexample.has_value()
                                     ? eq.counterexample->size()
                                     : 0);

  // A wrong mediator (OR instead of AND) is refuted with a witness.
  pi.SetSynthesis(q0, F::Or(F::Var(0), F::Var(1)));
  PrefixEquivalenceResult neq =
      MediatorGoalEquivalence(pi, components, goal);
  EXPECT_FALSE(neq.equivalent);
  ASSERT_TRUE(neq.counterexample.has_value());
  EXPECT_NE(RunPlMediator(pi, components, *neq.counterexample).output,
            goal.Run(*neq.counterexample));
}

TEST(PlMediatorTest, FindPlMediatorSynthesizesComposition) {
  PlSws goal = AndGoal();
  PlSws c0 = SingleCheckComponent(0);
  PlSws c1 = SingleCheckComponent(1);
  std::vector<const PlSws*> components = {&c0, &c1};
  PlCompositionResult result = FindPlMediator(goal, components);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(result.verification_complete);
  // Spot-check the synthesized mediator on words.
  EXPECT_TRUE(
      RunPlMediator(result.mediator, components, {{0, 1}}).output);
  EXPECT_FALSE(RunPlMediator(result.mediator, components, {{0}}).output);
}

TEST(PlMediatorTest, FindPlMediatorFailsWhenImpossible) {
  // Goal needs v1 but only a v0-checking component exists.
  PlSws goal = SingleCheckComponent(1);
  PlSws c0 = SingleCheckComponent(0);
  std::vector<const PlSws*> components = {&c0};
  PlCompositionOptions options;
  options.max_states = 3;
  PlCompositionResult result = FindPlMediator(goal, components, options);
  EXPECT_FALSE(result.found);
  EXPECT_GT(result.mediators_tried, 0u);
}

TEST(PlSwsToNfaTest, LanguageMatchesRunSemantics) {
  PlSws goal = AndGoal();
  std::vector<PlSws::Symbol> alphabet = {{}, {0}, {1}, {0, 1}};
  fsa::Nfa nfa = PlSwsToNfa(goal, alphabet);
  // Cross-check membership for all words up to length 3.
  std::function<void(PlSws::Word&, size_t)> check = [&](PlSws::Word& w,
                                                        size_t depth) {
    std::vector<int> encoded;
    for (const auto& s : w) {
      for (size_t i = 0; i < alphabet.size(); ++i) {
        if (alphabet[i] == s) encoded.push_back(static_cast<int>(i));
      }
    }
    EXPECT_EQ(nfa.Accepts(encoded), goal.Run(w)) << "len " << w.size();
    if (depth == 3) return;
    for (const auto& s : alphabet) {
      w.push_back(s);
      check(w, depth + 1);
      w.pop_back();
    }
  };
  PlSws::Word w;
  check(w, 0);
}

TEST(PlMediatorTest, RegularRewritingComposition) {
  // Goal = the AND service; components check v0 and v1. The goal's
  // language is {w : |w| >= 1, v0 ∈ w_1 and v1 ∈ w_1} — it is NOT a
  // concatenation of the component languages (each component accepts on
  // its own variable only), so the language-level rewriting is inexact.
  // With a component identical to the goal, it becomes exact.
  PlSws goal = AndGoal();
  PlSws c0 = SingleCheckComponent(0);
  PlSws c1 = SingleCheckComponent(1);
  RegularCompositionResult inexact =
      ComposePlViaRegularRewriting(goal, {&c0, &c1});
  EXPECT_FALSE(inexact.composable);

  PlSws self = AndGoal();
  RegularCompositionResult exact =
      ComposePlViaRegularRewriting(goal, {&self});
  EXPECT_TRUE(exact.composable);
  EXPECT_TRUE(exact.rewriting.max_rewriting.Accepts({0}));
}

// The state graph mediators share with services (sws/state_graph.h).
MediatorTarget FirstComponentEdge(int q) { return MediatorTarget{q, 0}; }

// Act ← {(1)}: reads no relation, so every state may use it.
RelQuery ConstantRule() {
  return RelQuery::Cq(logic::ConjunctiveQuery({Term::Int(1)}, {}));
}

TEST(MediatorStateGraphTest, EmptyMediatorHasDepthZero) {
  Mediator pi(1, 1);
  graph_cases::ExpectEmptyGraph(pi);
  EXPECT_EQ(pi.ToString(), "MDTnr with 0 states\n");
}

TEST(MediatorStateGraphTest, DepthOfChainsAndCycles) {
  graph_cases::ExpectChainDepthsAndCycle(Mediator(1, 1), FirstComponentEdge,
                                         ConstantRule());
}

TEST(MediatorStateGraphTest, ValidateReportsEachShapeError) {
  Sws component(rel::Schema{}, 1, 1);
  graph_cases::ExpectShapeErrors(
      Mediator(1, 1), FirstComponentEdge, ConstantRule(),
      [&component](const Mediator& pi) { return pi.Validate({&component}); },
      "mediator");
}

TEST(MediatorStateGraphTest, DuplicateStateNameAborts) {
  graph_cases::ExpectDuplicateNameAborts(Mediator(1, 1));
}

TEST(PlMediatorStateGraphTest, EmptyMediatorHasDepthZero) {
  PlMediator pi;
  graph_cases::ExpectEmptyGraph(pi);
  EXPECT_EQ(pi.ToString(), "MDTnr(PL) with 0 states\n");
}

TEST(PlMediatorStateGraphTest, DepthOfChainsAndCycles) {
  graph_cases::ExpectChainDepthsAndCycle(PlMediator(), FirstComponentEdge,
                                         F::True());
}

TEST(PlMediatorStateGraphTest, ValidateReportsEachShapeError) {
  PlSws component(1);
  graph_cases::ExpectShapeErrors(
      PlMediator(), FirstComponentEdge, F::True(),
      [&component](const PlMediator& pi) {
        return pi.Validate({&component});
      },
      "mediator");
}

TEST(PlMediatorStateGraphTest, DuplicateStateNameAborts) {
  graph_cases::ExpectDuplicateNameAborts(PlMediator());
}

}  // namespace
}  // namespace sws::med
