#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "logic/containment.h"
#include "models/travel.h"
#include "sws/execution.h"
#include "sws/generator.h"
#include "sws/unfold.h"
#include "unfold_oracle.h"

namespace sws::core {
namespace {

using logic::UnionQuery;
using models::MakeTravelDatabase;
using models::MakeTravelRequest;
using models::MakeTravelServiceCqUcq;
using rel::InputSequence;

// Nonrecursive generated services of 2 to 5 states whose unfoldings up
// to length MaxDepth() + 2 stay small enough to compare exactly.
std::vector<Sws> GeneratedServices() {
  WorkloadGenerator gen(112358);
  std::vector<Sws> services;
  for (int trial = 0; trial < 400; ++trial) {
    WorkloadGenerator::CqSwsParams params;
    params.num_states = 2 + trial % 4;
    params.rin_arity = 1 + gen.rng()() % 2;
    params.rout_arity = 1 + gen.rng()() % 2;
    Sws sws = gen.RandomCqSws(params);
    if (UnfoldDisjunctBound(sws, *sws.MaxDepth() + 2) > 500) continue;
    services.push_back(std::move(sws));
  }
  return services;
}

// Recursive services (the property_test family: one state loops back to
// itself) whose unfoldings up to length 5 stay small.
std::vector<Sws> RecursiveServices() {
  std::vector<Sws> services;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    WorkloadGenerator gen(seed * 7 + 1);
    WorkloadGenerator::CqSwsParams params;
    params.num_states = 3;
    Sws sws = gen.RandomCqSws(params);
    for (int q = 1; q < sws.num_states(); ++q) {
      auto successors = sws.Successors(q);
      if (!successors.empty()) {
        successors.push_back(TransitionTarget{q, successors[0].query});
        sws.SetTransition(q, successors);
        break;
      }
    }
    if (!sws.IsRecursive() || UnfoldDisjunctBound(sws, 5) > 500) continue;
    services.push_back(std::move(sws));
  }
  return services;
}

// The travel goal of Example 5.1, its tickets-only variant and the
// three components.
std::vector<Sws> TravelServices() {
  std::vector<Sws> travel = {MakeTravelServiceCqUcq().sws};
  Sws tickets_only = travel.back();
  const logic::UnionQuery& psi = tickets_only.Synthesis(0).ucq();
  UnionQuery first(psi.head_arity());
  first.Add(psi.disjuncts()[0]);
  tickets_only.SetSynthesis(0, RelQuery::Ucq(std::move(first)));
  travel.push_back(std::move(tickets_only));
  travel.push_back(models::MakeTravelComponentAirfare().sws);
  travel.push_back(models::MakeTravelComponentHotelTickets().sws);
  travel.push_back(models::MakeTravelComponentHotelCar().sws);
  return travel;
}

TEST(UnfoldTest, TravelCqUcqMatchesRun) {
  auto service = MakeTravelServiceCqUcq();
  auto db = MakeTravelDatabase();
  for (const char* dest : {"orlando", "paris", "tokyo"}) {
    InputSequence input(3);
    input.Append(MakeTravelRequest(dest, 1000));
    UnionQuery unfolded = UnfoldToUcq(service.sws, input.size());
    EXPECT_EQ(sws::core::Run(service.sws, db, input).output,
              unfolded.Evaluate(PackDatabaseAndInput(db, input)))
        << dest;
  }
}

TEST(UnfoldTest, ZeroLengthInputIsEmptyQuery) {
  auto service = MakeTravelServiceCqUcq();
  UnionQuery unfolded = UnfoldToUcq(service.sws, 0);
  EXPECT_TRUE(unfolded.empty());
}

TEST(UnfoldTest, DisjunctBoundGrowsWithDepth) {
  auto service = MakeTravelServiceCqUcq();
  EXPECT_EQ(UnfoldDisjunctBound(service.sws, 0), 0u);
  EXPECT_GT(UnfoldDisjunctBound(service.sws, 1), 0u);
}

// The core property test (Theorem 4.1(2)'s conversion): for random
// nonrecursive SWS(CQ, UCQ) services, random databases and random inputs,
// the unfolded UCQ^{≠} evaluates to exactly the run output — including
// the ∅-register guard semantics and input lengths shorter than the
// service depth.
TEST(UnfoldTest, RandomServicesMatchRunSemantics) {
  WorkloadGenerator gen(987654321);
  int runs_checked = 0;
  for (int trial = 0; trial < 30; ++trial) {
    WorkloadGenerator::CqSwsParams params;
    params.num_states = 3 + static_cast<int>(gen.rng()() % 3);
    params.rin_arity = 1 + gen.rng()() % 2;
    params.rout_arity = 1 + gen.rng()() % 2;
    Sws sws = gen.RandomCqSws(params);
    size_t depth = *sws.MaxDepth();
    for (size_t n = 0; n <= depth + 1; ++n) {
      // Skip pathological blowups: the bench measures those; the property
      // test wants breadth across many services.
      if (UnfoldDisjunctBound(sws, n) > 200) continue;
      UnionQuery unfolded = UnfoldToUcq(sws, n);
      ASSERT_FALSE(unfolded.Validate().has_value())
          << *unfolded.Validate() << "\n" << unfolded.ToString();
      for (int r = 0; r < 2; ++r) {
        rel::Database db = gen.RandomDatabase(sws.db_schema(), 3, 3);
        InputSequence input =
            gen.RandomInput(sws.rin_arity(), n, 2, 3);
        rel::Relation from_run = sws::core::Run(sws, db, input).output;
        rel::Relation from_query =
            unfolded.Evaluate(PackDatabaseAndInput(db, input));
        ASSERT_EQ(from_run, from_query)
            << "trial=" << trial << " n=" << n << " r=" << r << "\n"
            << sws.ToString() << "\nDB:\n" << db.ToString() << "\nInput: "
            << input.ToString() << "\nUnfolded:\n" << unfolded.ToString();
        ++runs_checked;
      }
    }
  }
  EXPECT_GT(runs_checked, 100);
}

// Inputs longer than the service depth never change the output: the
// unfolding at n = depth represents the service for all longer inputs.
TEST(UnfoldTest, DepthTruncationProperty) {
  WorkloadGenerator gen(24680);
  for (int trial = 0; trial < 10; ++trial) {
    WorkloadGenerator::CqSwsParams params;
    params.num_states = 4;
    Sws sws = gen.RandomCqSws(params);
    size_t depth = *sws.MaxDepth();
    rel::Database db = gen.RandomDatabase(sws.db_schema(), 3, 3);
    InputSequence input = gen.RandomInput(sws.rin_arity(), depth + 3, 2, 3);
    InputSequence truncated(sws.rin_arity());
    for (size_t j = 1; j <= depth; ++j) truncated.Append(input.Message(j));
    EXPECT_EQ(sws::core::Run(sws, db, input).output, sws::core::Run(sws, db, truncated).output);
  }
}

// The unfoldings of a service at the same n are (trivially) equivalent as
// UCQs — exercises the containment engine on realistic unfolded queries.
TEST(UnfoldTest, UnfoldingSelfEquivalence) {
  WorkloadGenerator gen(1357);
  WorkloadGenerator::CqSwsParams params;
  params.num_states = 3;
  params.max_ucq_disjuncts = 1;
  Sws sws = gen.RandomCqSws(params);
  size_t depth = *sws.MaxDepth();
  UnionQuery a = UnfoldToUcq(sws, depth);
  UnionQuery b = UnfoldToUcq(sws, depth);
  EXPECT_TRUE(logic::UcqEquivalent(a, b));
}

// The stop rule of the decision and composition procedures: a complete
// unfolding at n is the unfolding at n + 1 exactly (same disjuncts, same
// order, same variable numbering); a nonrecursive service is complete by
// max(1, MaxDepth() − 1), since its deepest nodes sit at timestamp
// MaxDepth() − 1; and the empty input never is.
TEST(UnfoldTest, CompleteUnfoldingRepeatsAtLongerLengths) {
  int services = 0;
  int complete_lengths = 0;
  std::map<size_t, int> first_complete;  // length -> services
  for (const Sws& sws : GeneratedServices()) {
    const size_t depth = *sws.MaxDepth();
    ++services;
    const Unfolder unfolder(sws);
    std::optional<size_t> first;
    Unfolding at = unfolder.At(0);
    EXPECT_FALSE(at.complete) << sws.ToString();
    for (size_t n = 0; n <= depth + 1; ++n) {
      Unfolding next = unfolder.At(n + 1);
      if (at.complete) {
        ++complete_lengths;
        if (!first.has_value()) first = n;
        ASSERT_TRUE(next.ucq == at.ucq)
            << sws.ToString() << "n=" << n << "\n"
            << at.ucq.ToString() << "\nvs\n" << next.ucq.ToString();
        EXPECT_TRUE(next.complete) << sws.ToString() << "n=" << n;
      }
      at = std::move(next);
    }
    ASSERT_TRUE(first.has_value()) << sws.ToString();
    EXPECT_LE(*first, std::max<size_t>(1, depth - 1)) << sws.ToString();
    ++first_complete[*first];
  }
  std::string histogram;
  for (const auto& [length, count] : first_complete) {
    histogram += " " + std::to_string(length) + ":" + std::to_string(count);
  }
  std::printf("%d services, %d complete lengths; first complete length:%s\n",
              services, complete_lengths, histogram.c_str());
  EXPECT_GE(services, 300);
  EXPECT_GT(first_complete.size(), 1u);  // not every service stops at 1
}

// Recursive services (the property_test family: one state loops back to
// itself). Empty registers end some of their trees, and the flag stays
// exact there; a service whose loop register stays satisfiable is cut at
// every length, so its flag stays false.
TEST(UnfoldTest, RecursiveServicesKeepTheFlagExact) {
  int recursive = 0;
  int never_complete = 0;
  for (const Sws& sws : RecursiveServices()) {
    ++recursive;
    const Unfolder unfolder(sws);
    bool ever_complete = false;
    Unfolding at = unfolder.At(0);
    for (size_t n = 0; n <= 4; ++n) {
      Unfolding next = unfolder.At(n + 1);
      if (at.complete) {
        ever_complete = true;
        ASSERT_TRUE(next.ucq == at.ucq)
            << sws.ToString() << "n=" << n << "\n"
            << at.ucq.ToString() << "\nvs\n" << next.ucq.ToString();
      }
      at = std::move(next);
    }
    if (!ever_complete) ++never_complete;
  }
  std::printf("%d recursive services, %d cut at every length\n", recursive,
              never_complete);
  EXPECT_GT(never_complete, 0);
}

// Expects Unfolder(sws).At(n) to equal the reference unfolding of
// unfold_oracle.h for every n ≤ max_n; returns the lengths compared.
int ExpectMatchesOracle(const Sws& sws, size_t max_n) {
  const Unfolder unfolder(sws);
  for (size_t n = 0; n <= max_n; ++n) {
    const Unfolding got = unfolder.At(n);
    const Unfolding want = oracle::Unfold(sws, n);
    if (got.ucq == want.ucq && got.complete == want.complete) continue;
    ADD_FAILURE() << sws.ToString() << "n=" << n << ": complete "
                  << got.complete << " vs " << want.complete << "\n"
                  << got.ucq.ToString() << "\nvs the oracle's\n"
                  << want.ucq.ToString();
    return 0;
  }
  return static_cast<int>(max_n) + 1;
}

// The unfolder builds each disjunct in place, numbering registers and
// child disjuncts densely once; the oracle copies and renames at every
// use. Both give the same disjuncts in the same order, with the same
// variable numbering and the same flag, on the generated and recursive
// families above, the travel goal and its tickets-only variant, and the
// three Example 5.1 components.
TEST(UnfoldTest, InPlaceUnfoldingMatchesTheOracle) {
  int lengths = 0;
  const std::vector<Sws> generated = GeneratedServices();
  for (const Sws& sws : generated) {
    lengths += ExpectMatchesOracle(sws, *sws.MaxDepth() + 1);
  }
  const std::vector<Sws> recursive = RecursiveServices();
  for (const Sws& sws : recursive) lengths += ExpectMatchesOracle(sws, 5);
  const std::vector<Sws> travel = TravelServices();
  for (const Sws& sws : travel) {
    lengths += ExpectMatchesOracle(sws, *sws.MaxDepth() + 1);
  }
  std::printf("%zu generated, %zu recursive and %zu travel services: %d "
              "(service, length) pairs\n",
              generated.size(), recursive.size(), travel.size(), lengths);
  EXPECT_EQ(generated.size(), 398u);
  EXPECT_EQ(recursive.size(), 14u);
}

// The number of body atoms of a union, summed over its disjuncts.
size_t Atoms(const UnionQuery& q) {
  size_t atoms = 0;
  for (const logic::ConjunctiveQuery& d : q.disjuncts()) {
    atoms += d.body().size();
  }
  return atoms;
}

// Klug's test on a right side with '≠' checks one canonical database per
// identification of a left disjunct's terms, Bell(terms) of them. Cheap
// when neither side has '≠' or no disjunct has more than 7 terms (877
// identifications; the 13 pairs at 8 terms would triple the test's time,
// and it runs under the sanitizers).
bool KlugIsCheap(const UnionQuery& a, const UnionQuery& b) {
  bool has_neq = false;
  size_t most_terms = 0;
  for (const UnionQuery* q : {&a, &b}) {
    for (const logic::ConjunctiveQuery& d : q->disjuncts()) {
      has_neq = has_neq || !d.comparisons().empty();
      std::vector<logic::Term> terms;
      d.ForEachTerm([&terms](const logic::Term& t) { terms.push_back(t); });
      std::sort(terms.begin(), terms.end());
      most_terms = std::max<size_t>(
          most_terms, std::unique(terms.begin(), terms.end()) - terms.begin());
    }
  }
  return !has_neq || most_terms <= 7;
}

// A leaf rule that reads Msg holds a copy of its node's register, into
// which the guard maps, so conjoining the guard changes no answer. On the
// pairs the oracle differential above compares, the unfolding has the
// disjunct count and flag of the construction that guards every
// disjunct, and is equivalent to it wherever Klug's test is cheap.
TEST(UnfoldTest, UnguardedDisjunctsAreEquivalentToGuardedOnes) {
  int pairs = 0;
  int decided = 0;
  size_t atoms_guarded = 0;
  size_t atoms = 0;
  int dropped = 0;
  auto compare = [&](const Sws& sws, size_t max_n) {
    const Unfolder unfolder(sws);
    for (size_t n = 0; n <= max_n; ++n, ++pairs) {
      const Unfolding got = unfolder.At(n);
      const Unfolding guarded =
          oracle::Unfold(sws, n, oracle::Guards::kAlways);
      oracle::Unfold(sws, n, oracle::Guards::kUnlessInlined, &dropped);
      ASSERT_EQ(got.ucq.size(), guarded.ucq.size())
          << sws.ToString() << "n=" << n;
      ASSERT_EQ(got.complete, guarded.complete) << sws.ToString() << "n=" << n;
      atoms += Atoms(got.ucq);
      atoms_guarded += Atoms(guarded.ucq);
      if (!KlugIsCheap(got.ucq, guarded.ucq)) continue;
      ++decided;
      ASSERT_TRUE(logic::UcqEquivalent(got.ucq, guarded.ucq))
          << sws.ToString() << "n=" << n << "\n"
          << got.ucq.ToString() << "\nvs, guarded,\n"
          << guarded.ucq.ToString();
    }
  };
  for (const Sws& sws : GeneratedServices()) compare(sws, *sws.MaxDepth() + 1);
  for (const Sws& sws : RecursiveServices()) compare(sws, 5);
  for (const Sws& sws : TravelServices()) compare(sws, *sws.MaxDepth() + 1);
  std::printf("%d of %d (service, length) pairs decided equivalent; atoms "
              "%zu guarded, %zu without the guards of leaf rules that read "
              "Msg, %d guards dropped\n",
              decided, pairs, atoms_guarded, atoms, dropped);
  EXPECT_GT(decided, pairs * 3 / 4);
  EXPECT_LT(atoms, atoms_guarded);
  EXPECT_GT(dropped, 0);
}

// Empty registers can end the tree of a recursive service: q loops back
// to itself only through a register no message satisfies, so the
// unfolding is complete once the input reaches its leaf, at length 2.
TEST(UnfoldTest, EmptyRegistersEndARecursiveTree) {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("R", {"a"}));
  Sws sws(schema, 1, 1);
  int q0 = sws.AddState("q0");
  int q = sws.AddState("q");
  int f = sws.AddState("f");
  auto v = [](int i) { return logic::Term::Var(i); };
  logic::ConjunctiveQuery pass({v(0)},
                               {logic::Atom{kInputRelation, {v(0)}}});
  logic::ConjunctiveQuery never(
      {v(0)}, {logic::Atom{kMsgRelation, {v(0)}}},
      {logic::Comparison{v(0), v(0), /*is_equality=*/false}});
  logic::UnionQuery either(1);
  either.Add(logic::ConjunctiveQuery(
      {v(0)}, {logic::Atom{ActRelation(1), {v(0)}}}));
  either.Add(logic::ConjunctiveQuery(
      {v(0)}, {logic::Atom{ActRelation(2), {v(0)}}}));
  sws.SetTransition(q0, {TransitionTarget{q, RelQuery::Cq(pass)}});
  sws.SetSynthesis(q0, RelQuery::Cq(logic::ConjunctiveQuery(
                           {v(0)}, {logic::Atom{ActRelation(1), {v(0)}}})));
  sws.SetTransition(q, {TransitionTarget{q, RelQuery::Cq(never)},
                        TransitionTarget{f, RelQuery::Cq(pass)}});
  sws.SetSynthesis(q, RelQuery::Ucq(either));
  sws.SetTransition(f, {});
  sws.SetSynthesis(f, RelQuery::Cq(logic::ConjunctiveQuery(
                          {v(0)}, {logic::Atom{kMsgRelation, {v(0)}},
                                   logic::Atom{"R", {v(0)}}})));
  ASSERT_FALSE(sws.Validate().has_value()) << *sws.Validate();
  ASSERT_TRUE(sws.IsRecursive());

  const Unfolder unfolder(sws);
  EXPECT_FALSE(unfolder.At(0).complete);
  EXPECT_FALSE(unfolder.At(1).complete);  // f lives at timestamp 2
  Unfolding at2 = unfolder.At(2);
  ASSERT_TRUE(at2.complete);
  EXPECT_FALSE(at2.ucq.empty());
  for (size_t n = 3; n <= 5; ++n) {
    Unfolding at = unfolder.At(n);
    EXPECT_TRUE(at.complete) << "n=" << n;
    EXPECT_TRUE(at.ucq == at2.ucq) << "n=" << n << "\n" << at.ucq.ToString();
  }
}

}  // namespace
}  // namespace sws::core
