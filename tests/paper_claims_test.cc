// The paper's central claims, as executable assertions — a map from
// statements in the text to library behavior. Each test cites the
// section it reproduces.

#include <gtest/gtest.h>

#include "analysis/cq_analysis.h"
#include "analysis/pl_analysis.h"
#include "analysis/pl_nr_analysis.h"
#include "mediator/cq_composition.h"
#include "mediator/mediator_run.h"
#include "models/peer.h"
#include "models/roman.h"
#include "models/travel.h"
#include "sws/execution.h"
#include "sws/generator.h"
#include "sws/unfold.h"

namespace sws {
namespace {

using logic::FoFormula;
using logic::PlFormula;
using logic::Term;
using F = PlFormula;

// §1, Example 1.1: "the customers may want to deterministically commit
// to one of the two options, rather than ... commit to book both rental
// car and tickets."
TEST(PaperClaims, Section1_DeterministicCommitmentToOneOption) {
  auto service = models::MakeTravelService();
  rel::InputSequence input(3);
  input.Append(models::MakeTravelRequest("orlando", 1000));
  rel::Relation out =
      core::Run(service.sws, models::MakeTravelDatabase(), input).output;
  ASSERT_EQ(out.size(), 1u);
  const rel::Tuple booked = *out.begin();  // copy: iterator buffer is temp
  // Exactly one of ticket (slot 2) and car (slot 3) is booked.
  bool ticket = !(booked[2] == rel::Value::Int(0));
  bool car = !(booked[3] == rel::Value::Int(0));
  EXPECT_NE(ticket, car);
}

// §2: "The run takes one sweep: each node is accessed at most twice" —
// the engine visits each node once for generation and once for
// gathering; node count equals the tree size, linear in the input for
// chain services.
TEST(PaperClaims, Section2_OneSweepRuns) {
  auto service = models::MakeTravelServiceRecursive();
  auto db = models::MakeTravelDatabase();
  rel::InputSequence input(3);
  input.Append(models::MakeTravelRequest("orlando", 1000));
  size_t last_nodes = 0;
  for (int extra = 0; extra < 4; ++extra) {
    core::RunResult run = core::Run(service.sws, db, input);
    if (extra > 0) {
      EXPECT_EQ(run.num_nodes, last_nodes + 2u);  // one (v_j, f_j) pair
    }
    last_nodes = run.num_nodes;
    rel::Relation inquiry(3);
    inquiry.Insert({rel::Value::Str("a"), rel::Value::Str("paris"),
                    rel::Value::Int(1)});
    input.Append(std::move(inquiry));
  }
}

// §2: "for each class we also study its subclass SWSnr ... An SWS τ is
// said to be recursive if the graph G_τ is cyclic."
TEST(PaperClaims, Section2_RecursionIsDependencyGraphCyclicity) {
  EXPECT_FALSE(models::MakeTravelService().sws.IsRecursive());
  EXPECT_TRUE(models::MakeTravelServiceRecursive().sws.IsRecursive());
}

// §3: "for any I, ω(I) = τ(D, I), where D is an empty local database"
// (the Roman-model embedding).
TEST(PaperClaims, Section3_RomanEmbedding) {
  fsa::Dfa dfa(3, 2);
  dfa.set_start(0);
  dfa.SetFinal(0);
  dfa.SetTransition(0, 0, 1);
  dfa.SetTransition(0, 1, 2);
  dfa.SetTransition(1, 1, 0);
  dfa.SetTransition(1, 0, 2);
  dfa.SetTransition(2, 0, 2);
  dfa.SetTransition(2, 1, 2);
  core::PlSws tau = models::RomanToPlSws(dfa);
  for (int len = 0; len <= 4; ++len) {
    for (int mask = 0; mask < (1 << len); ++mask) {
      std::vector<int> w;
      for (int i = 0; i < len; ++i) w.push_back((mask >> i) & 1);
      EXPECT_EQ(dfa.Accepts(w), tau.Run(models::EncodeRomanPlWord(w, 2)));
    }
  }
}

// §3: "τ(D, I) yields the same output as ω(Ī, D) at each step j" (the
// peer embedding on prefixes).
TEST(PaperClaims, Section3_PeerEmbedding) {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("Item", {"id", "price"}));
  models::Peer peer(schema, 1, 1, 2);
  auto v = [](int i) { return Term::Var(i); };
  peer.set_state_rule(FoFormula::And(
      FoFormula::Or(FoFormula::MakeAtom(models::Peer::kPeerState, {v(0)}),
                    FoFormula::MakeAtom(models::Peer::kPeerInput, {v(0)})),
      FoFormula::Exists(1, FoFormula::MakeAtom("Item", {v(0), v(1)}))));
  peer.set_action_rule(FoFormula::And(
      {FoFormula::MakeAtom(models::Peer::kPeerState, {v(0)}),
       FoFormula::MakeAtom(models::Peer::kPeerInput, {v(0)}),
       FoFormula::MakeAtom("Item", {v(0), v(1)})}));
  core::Sws tau = models::PeerToSws(peer);

  rel::Database db;
  rel::Relation items(2);
  items.Insert({rel::Value::Int(1), rel::Value::Int(10)});
  db.Set("Item", items);
  rel::Relation req(1);
  req.Insert({rel::Value::Int(1)});
  std::vector<rel::Relation> inputs = {req, req, req};
  auto peer_run = peer.Run(db, inputs);
  for (size_t j = 1; j <= inputs.size(); ++j) {
    std::vector<rel::Relation> prefix(inputs.begin(),
                                      inputs.begin() + static_cast<long>(j));
    EXPECT_EQ(core::Run(tau, db, models::EncodePeerInput(peer, prefix)).output,
              peer_run.cumulative_actions[j - 1]);
  }
}

// §4 special cases: "for SWS(PL, PL) ... the validation problem
// coincides with the non-emptiness problem."
TEST(PaperClaims, Section4_PlValidationCoincidesWithNonEmptiness) {
  core::WorkloadGenerator gen(321);
  for (int trial = 0; trial < 10; ++trial) {
    core::WorkloadGenerator::PlSwsParams params;
    params.num_states = 4;
    params.allow_recursion = (trial % 2) == 0;
    core::PlSws sws = gen.RandomPlSws(params);
    EXPECT_EQ(analysis::PlNonEmptiness(sws).holds,
              analysis::PlValidation(sws, true).holds);
  }
}

// §4: "SWS's in SWSnr(CQ, UCQ) can be converted to UCQ queries with
// inequality" — and the conversion preserves runs exactly.
TEST(PaperClaims, Section4_NonrecursiveUnfoldingIsExact) {
  auto service = models::MakeTravelServiceCqUcq();
  auto db = models::MakeTravelDatabase();
  rel::InputSequence input(3);
  input.Append(models::MakeTravelRequest("paris", 500));
  logic::UnionQuery unfolded = core::UnfoldToUcq(service.sws, 1);
  EXPECT_EQ(core::Run(service.sws, db, input).output,
            unfolded.Evaluate(core::PackDatabaseAndInput(db, input)));
}

// §5.1: "One can verify that τ1 and π1 are equivalent provided that
// (a)-(c)" — Example 5.1 end to end.
TEST(PaperClaims, Section5_Example51MediatorEquivalence) {
  auto goal = models::MakeTravelServiceCqUcq();
  auto ta = models::MakeTravelComponentAirfare();
  auto tht = models::MakeTravelComponentHotelTickets();
  auto thc = models::MakeTravelComponentHotelCar();
  std::vector<const core::Sws*> components = {&ta.sws, &tht.sws, &thc.sws};
  med::CqCompositionResult composition =
      med::ComposeCqOneLevel(goal.sws, components);
  ASSERT_TRUE(composition.found) << composition.reason;
  auto db = models::MakeTravelDatabase();
  core::WorkloadGenerator gen(1);
  for (const char* dest : {"orlando", "paris", "tokyo"}) {
    rel::InputSequence input(3);
    input.Append(models::MakeTravelRequest(dest, 1000));
    EXPECT_EQ(
        core::Run(goal.sws, db, input).output,
        med::RunMediator(composition.mediator, components, db, input).output);
  }
}

// §5.2: "the computation steps of an SWS or a mediator is bounded by the
// length of I. Therefore ... one can find a long enough sequence I ...
// such that different outputs are produced" — a recursive goal cannot be
// matched by a nonrecursive service (here: witnessed by comparing τ2 to
// its own depth-truncated unfolding behavior).
TEST(PaperClaims, Section5_RecursiveGoalsOutgrowBoundedComputations) {
  auto tau2 = models::MakeTravelServiceRecursive();
  auto db = models::MakeTravelDatabase();
  // A fixed-depth device reads only a bounded prefix; τ2's output keeps
  // changing as later inquiries arrive.
  rel::InputSequence input(3);
  input.Append(models::MakeTravelRequest("orlando", 1000));
  rel::Relation prev = core::Run(tau2.sws, db, input).output;
  rel::Relation paris(3);
  paris.Insert({rel::Value::Str("a"), rel::Value::Str("paris"),
                rel::Value::Int(1)});
  input.Append(paris);
  rel::Relation next = core::Run(tau2.sws, db, input).output;
  EXPECT_NE(prev, next);  // position 2 changed the output...
  rel::Relation orlando(3);
  orlando.Insert({rel::Value::Str("a"), rel::Value::Str("orlando"),
                  rel::Value::Int(1)});
  input.Append(orlando);
  rel::Relation third = core::Run(tau2.sws, db, input).output;
  EXPECT_NE(next, third);  // ...and so did position 3: no finite prefix
                           // determines τ2.
}

// §6 / Table 2 framing: decidable procedures must report their limits —
// bounded searches never claim completeness they do not have.
TEST(PaperClaims, Section6_HonestBoundsOnUndecidableProblems) {
  core::WorkloadGenerator gen(5);
  core::WorkloadGenerator::CqSwsParams params;
  params.num_states = 3;
  core::Sws sws = gen.RandomCqSws(params);
  analysis::CqValidationOptions options;
  options.max_candidates = 1;  // starved budget
  rel::Relation impossible(sws.rout_arity());
  rel::Tuple t;
  for (size_t i = 0; i < sws.rout_arity(); ++i) {
    t.push_back(rel::Value::Str("unreachable"));
  }
  impossible.Insert(t);
  auto result = analysis::CqValidation(sws, impossible, options);
  // Every unfolding of this service is unsatisfiable: refuted
  // structurally, with no candidate to spend the budget on.
  EXPECT_FALSE(result.validated);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(result.stats.disjuncts_seen, 0u);

  // The CQ/UCQ travel service joins its legs independently, so no
  // (D, I) outputs exactly (1,2,3,0) and (5,6,7,0) without their mixes,
  // such as (1,6,3,0). Each tuple has one candidate (only the tickets
  // disjunct has a nonzero ticket price), so even the starved search
  // tries the one combination and gives a definitive no at length 1, the
  // last length the service reads.
  auto travel = models::MakeTravelServiceCqUcq();
  auto bookings = [&travel](int64_t tickets) {
    rel::Relation out(travel.sws.rout_arity());
    out.Insert({rel::Value::Int(1), rel::Value::Int(2), rel::Value::Int(3),
                rel::Value::Int(0)});
    out.Insert({rel::Value::Int(5), rel::Value::Int(6),
                rel::Value::Int(tickets), rel::Value::Int(0)});
    return out;
  };
  auto refuted = analysis::CqValidation(travel.sws, bookings(7), options);
  EXPECT_FALSE(refuted.validated);
  EXPECT_FALSE(refuted.budget_exhausted);
  EXPECT_EQ(refuted.stats.lengths_tried, 1u);
  // (5,6,0,0) fits both the tickets and the car disjunct: two
  // combinations, more than the starved budget. The starved search
  // reports that it ran out of budget; the default budget gives a
  // definitive no.
  auto starved = analysis::CqValidation(travel.sws, bookings(0), options);
  EXPECT_FALSE(starved.validated);
  EXPECT_TRUE(starved.budget_exhausted);
  EXPECT_GT(starved.stats.disjuncts_seen, 0u);
  auto decided = analysis::CqValidation(travel.sws, bookings(0));
  EXPECT_FALSE(decided.validated);
  EXPECT_FALSE(decided.budget_exhausted);
}

}  // namespace
}  // namespace sws
