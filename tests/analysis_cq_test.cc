#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/cq_analysis.h"
#include "logic/containment.h"
#include "models/travel.h"
#include "sws/execution.h"
#include "sws/generator.h"

namespace sws::analysis {
namespace {

using core::RelQuery;
using core::Sws;
using core::WorkloadGenerator;
using logic::Atom;
using logic::Comparison;
using logic::ConjunctiveQuery;
using logic::Term;
using logic::UnionQuery;
using models::MakeTravelDatabase;
using models::MakeTravelRequest;
using models::MakeTravelServiceCqUcq;

TEST(CqNonEmptinessTest, TravelServiceIsNonEmptyWithVerifiedWitness) {
  auto service = MakeTravelServiceCqUcq();
  CqNonEmptinessResult result = CqNonEmptinessNr(service.sws);
  ASSERT_TRUE(result.nonempty);
  ASSERT_TRUE(result.witness.has_value());
  // The canonical witness really drives the service to an action.
  core::RunResult run =
      core::Run(service.sws, result.witness->db, result.witness->input);
  EXPECT_FALSE(run.output.empty());
}

TEST(CqNonEmptinessTest, ContradictoryServiceIsEmpty) {
  // The leaf synthesis carries x != x via two contradictory constants.
  rel::Schema schema;
  schema.Add(rel::RelationSchema("R", {"a"}));
  Sws sws(schema, 1, 1);
  int q0 = sws.AddState("q0");
  int q1 = sws.AddState("q1");
  ConjunctiveQuery pass({Term::Var(0)},
                        {Atom{core::kInputRelation, {Term::Var(0)}}});
  sws.SetTransition(q0, {core::TransitionTarget{q1, RelQuery::Cq(pass)}});
  ConjunctiveQuery copy({Term::Var(0)},
                        {Atom{core::ActRelation(1), {Term::Var(0)}}});
  sws.SetSynthesis(q0, RelQuery::Cq(copy));
  sws.SetTransition(q1, {});
  ConjunctiveQuery impossible(
      {Term::Var(0)}, {Atom{"R", {Term::Var(0)}}},
      {Comparison{Term::Var(0), Term::Var(0), /*is_equality=*/false}});
  sws.SetSynthesis(q1, RelQuery::Cq(impossible));
  ASSERT_FALSE(sws.Validate().has_value());
  EXPECT_FALSE(CqNonEmptinessNr(sws).nonempty);
}

TEST(CqNonEmptinessTest, RecursiveBoundedSearch) {
  // Recursive chain that needs at least 2 messages to reach its leaf.
  rel::Schema schema;
  schema.Add(rel::RelationSchema("R", {"a"}));
  Sws sws(schema, 1, 1);
  int q0 = sws.AddState("q0");
  int q = sws.AddState("q");
  int f = sws.AddState("f");
  ConjunctiveQuery pass({Term::Var(0)},
                        {Atom{core::kInputRelation, {Term::Var(0)}}});
  ConjunctiveQuery copy1({Term::Var(0)},
                         {Atom{core::ActRelation(1), {Term::Var(0)}}});
  UnionQuery either(1);
  either.Add(ConjunctiveQuery({Term::Var(0)},
                              {Atom{core::ActRelation(1), {Term::Var(0)}}}));
  either.Add(ConjunctiveQuery({Term::Var(0)},
                              {Atom{core::ActRelation(2), {Term::Var(0)}}}));
  sws.SetTransition(q0, {core::TransitionTarget{q, RelQuery::Cq(pass)}});
  sws.SetSynthesis(q0, RelQuery::Cq(copy1));
  sws.SetTransition(q, {core::TransitionTarget{q, RelQuery::Cq(pass)},
                        core::TransitionTarget{f, RelQuery::Cq(pass)}});
  sws.SetSynthesis(q, RelQuery::Ucq(either));
  sws.SetTransition(f, {});
  ConjunctiveQuery join({Term::Var(0)},
                        {Atom{core::kMsgRelation, {Term::Var(0)}},
                         Atom{"R", {Term::Var(0)}}});
  sws.SetSynthesis(f, RelQuery::Cq(join));
  ASSERT_FALSE(sws.Validate().has_value());
  ASSERT_TRUE(sws.IsRecursive());

  EXPECT_FALSE(CqNonEmptiness(sws, 1).nonempty);  // f lives at level >= 2
  CqNonEmptinessResult result = CqNonEmptiness(sws, 3);
  ASSERT_TRUE(result.nonempty);
  core::RunResult run =
      core::Run(sws, result.witness->db, result.witness->input);
  EXPECT_FALSE(run.output.empty());
}

TEST(CqEquivalenceTest, SelfEquivalenceAndVariantInequivalence) {
  auto a = MakeTravelServiceCqUcq();
  auto b = MakeTravelServiceCqUcq();
  EXPECT_TRUE(CqEquivalenceNr(a.sws, b.sws).equivalent);

  // Drop the car disjunct from b's root synthesis: inequivalent.
  UnionQuery tickets_only(4);
  auto v = [](int i) { return Term::Var(i); };
  tickets_only.Add(ConjunctiveQuery(
      {v(0), v(1), v(2), v(3)},
      {Atom{core::ActRelation(1), {v(0), v(4), v(5), v(6)}},
       Atom{core::ActRelation(2), {v(7), v(1), v(8), v(9)}},
       Atom{core::ActRelation(3), {v(10), v(11), v(2), v(3)}}}));
  b.sws.SetSynthesis(0, RelQuery::Ucq(tickets_only));
  CqEquivalenceResult result = CqEquivalenceNr(a.sws, b.sws);
  EXPECT_FALSE(result.equivalent);
  ASSERT_TRUE(result.differing_length.has_value());
  EXPECT_EQ(*result.differing_length, 1u);
}

TEST(CqEquivalenceTest, DisjunctOrderAndRenamingIrrelevant) {
  WorkloadGenerator gen(5150);
  for (int trial = 0; trial < 8; ++trial) {
    WorkloadGenerator::CqSwsParams params;
    params.num_states = 3;
    // Keep the instances inequality-free: with ≠ on the right-hand side
    // the (conexptime-complete) check enumerates identification
    // partitions over all variables of the unfolded queries — the
    // blowup belongs in the benchmarks, not here.
    params.inequality_prob = 0.0;
    Sws a = gen.RandomCqSws(params);
    // b: same service with every rule's variables shifted — semantically
    // identical.
    Sws b = a;
    for (int q = 0; q < b.num_states(); ++q) {
      auto successors = b.Successors(q);
      for (auto& t : successors) {
        t.query = RelQuery::Cq(t.query.cq().ShiftVars(50));
      }
      b.SetTransition(q, successors);
      UnionQuery psi = b.Synthesis(q).AsUcq().ShiftVars(50);
      b.SetSynthesis(q, RelQuery::Ucq(std::move(psi)));
    }
    EXPECT_TRUE(CqEquivalenceNr(a, b).equivalent) << a.ToString();
  }
}

TEST(CqEquivalenceTest, InequivalentWhenDisjunctRemoved) {
  WorkloadGenerator gen(8888);
  int checked = 0;
  for (int trial = 0; trial < 20 && checked < 3; ++trial) {
    WorkloadGenerator::CqSwsParams params;
    params.num_states = 3;
    params.max_ucq_disjuncts = 2;
    params.inequality_prob = 0.0;  // see DisjunctOrderAndRenamingIrrelevant
    Sws a = gen.RandomCqSws(params);
    // Remove one disjunct of the root synthesis, if it has two.
    UnionQuery psi = a.Synthesis(0).AsUcq();
    if (psi.size() < 2) continue;
    Sws b = a;
    UnionQuery smaller(psi.head_arity());
    smaller.Add(psi.disjuncts()[0]);
    b.SetSynthesis(0, RelQuery::Ucq(smaller));
    CqEquivalenceResult result = CqEquivalenceNr(a, b);
    // b ⊆ a always; they are equivalent only if the dropped disjunct was
    // redundant. Cross-check the verdict by random differential testing.
    bool differs = false;
    WorkloadGenerator probe(trial * 31 + 7);
    for (int r = 0; r < 60 && !differs; ++r) {
      rel::Database db = probe.RandomDatabase(a.db_schema(), 3, 2);
      rel::InputSequence input =
          probe.RandomInput(a.rin_arity(), *a.MaxDepth(), 2, 2);
      differs = core::Run(a, db, input).output !=
                core::Run(b, db, input).output;
    }
    if (differs) {
      EXPECT_FALSE(result.equivalent) << a.ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(CqValidationTest, AchievableOutputValidated) {
  auto service = MakeTravelServiceCqUcq();
  // Use a real run's output as the target.
  rel::InputSequence input(3);
  input.Append(MakeTravelRequest("paris", 1000));
  rel::Relation target =
      core::Run(service.sws, MakeTravelDatabase(), input).output;
  ASSERT_FALSE(target.empty());
  CqValidationResult result = CqValidation(service.sws, target);
  ASSERT_TRUE(result.validated);
  core::RunResult run =
      core::Run(service.sws, result.witness->db, result.witness->input);
  EXPECT_EQ(run.output, target);
}

TEST(CqValidationTest, EmptyOutputTrivially) {
  auto service = MakeTravelServiceCqUcq();
  CqValidationResult result =
      CqValidation(service.sws, rel::Relation(4));
  ASSERT_TRUE(result.validated);
  core::RunResult run =
      core::Run(service.sws, result.witness->db, result.witness->input);
  EXPECT_TRUE(run.output.empty());
}

TEST(CqValidationTest, ImpossibleOutputRejected) {
  auto service = MakeTravelServiceCqUcq();
  // Both a ticket and a car price nonzero in one tuple: no disjunct can
  // produce it (tickets force slot 4 to 0, cars force slot 3 to 0).
  rel::Relation impossible(4);
  impossible.Insert({rel::Value::Int(1), rel::Value::Int(2),
                     rel::Value::Int(3), rel::Value::Int(4)});
  CqValidationResult result = CqValidation(service.sws, impossible);
  EXPECT_FALSE(result.validated);
  EXPECT_FALSE(result.budget_exhausted);
}

TEST(CqValidationTest, RandomRunOutputsAreValidated) {
  WorkloadGenerator gen(2024);
  int validated = 0;
  for (int trial = 0; trial < 10; ++trial) {
    WorkloadGenerator::CqSwsParams params;
    params.num_states = 3;
    params.rin_arity = 1;
    params.rout_arity = 1;
    params.inequality_prob = 0.0;
    Sws sws = gen.RandomCqSws(params);
    rel::Database db = gen.RandomDatabase(sws.db_schema(), 2, 2);
    rel::InputSequence input = gen.RandomInput(1, *sws.MaxDepth(), 1, 2);
    rel::Relation target = core::Run(sws, db, input).output;
    if (target.empty() || target.size() > 2) continue;
    CqValidationOptions options;
    options.max_candidates = 20000;
    CqValidationResult result = CqValidation(sws, target, options);
    if (result.validated) {
      ++validated;
      core::RunResult run =
          core::Run(sws, result.witness->db, result.witness->input);
      EXPECT_EQ(run.output, target) << sws.ToString();
    }
  }
  EXPECT_GT(validated, 0);
}

// --- The stop rule against the procedures that unfold every length ---

// The procedures as they ran before they stopped at the first complete
// unfolding, kept as oracles: they unfold every input length up to the
// depth bound.
size_t LengthBound(const Sws& sws) {
  return std::max<size_t>(*sws.MaxDepth(), 1);
}

std::optional<size_t> OracleDifferingLength(const Sws& a, const Sws& b) {
  for (size_t n = 0; n <= std::max(*a.MaxDepth(), *b.MaxDepth()); ++n) {
    if (!logic::UcqEquivalent(core::UnfoldToUcq(a, n),
                              core::UnfoldToUcq(b, n))) {
      return n;
    }
  }
  return std::nullopt;
}

std::optional<CqWitness> OracleNonEmptinessWitness(const Sws& sws) {
  for (size_t n = 1; n <= LengthBound(sws); ++n) {
    UnionQuery unfolded = core::UnfoldToUcq(sws, n);
    if (unfolded.empty()) continue;
    rel::Tuple head;
    return SplitPackedDatabase(
        sws, unfolded.disjuncts()[0].CanonicalDatabase(&head), n);
  }
  return std::nullopt;
}

CqValidationResult OracleValidation(const Sws& sws,
                                    const rel::Relation& desired,
                                    uint64_t budget) {
  CqValidationResult result;
  std::vector<rel::Tuple> tuples(desired.begin(), desired.end());
  for (size_t n = 1; n <= LengthBound(sws); ++n) {
    UnionQuery unfolded = core::UnfoldToUcq(sws, n);
    std::vector<std::vector<ConjunctiveQuery>> candidates(tuples.size());
    for (size_t t = 0; t < tuples.size(); ++t) {
      for (const ConjunctiveQuery& d : unfolded.disjuncts()) {
        ConjunctiveQuery unified = d;
        for (size_t i = 0; i < tuples[t].size(); ++i) {
          unified.mutable_comparisons()->push_back(Comparison{
              d.head()[i], Term::Const(tuples[t][i]), /*is_equality=*/true});
        }
        if (auto norm = unified.Normalize()) {
          candidates[t].push_back(std::move(*norm));
        }
      }
    }
    if (std::any_of(candidates.begin(), candidates.end(),
                    [](const auto& c) { return c.empty(); })) {
      continue;
    }
    std::vector<size_t> choice(tuples.size(), 0);
    for (size_t i = 0; i < choice.size();) {
      if (budget == 0) {
        result.budget_exhausted = true;
        return result;
      }
      --budget;
      rel::Database packed;
      int var_offset = 0;
      for (size_t t = 0; t < tuples.size(); ++t) {
        const ConjunctiveQuery& fragment = candidates[t][choice[t]];
        rel::Database canon = fragment.ShiftVars(var_offset).CanonicalDatabase();
        for (const auto& [name, relation] : canon.relations()) {
          if (!packed.Contains(name)) {
            packed.Set(name, rel::Relation(relation.arity()));
          }
          for (const rel::Tuple& tuple : relation) {
            packed.GetMutable(name)->Insert(tuple);
          }
        }
        var_offset += fragment.MaxVar() + 1;
      }
      CqWitness witness = SplitPackedDatabase(sws, packed, n);
      if (core::Run(sws, witness.db, witness.input).output == desired) {
        result.validated = true;
        result.witness = std::move(witness);
        return result;
      }
      for (i = 0; i < choice.size() && ++choice[i] == candidates[i].size();
           ++i) {
        choice[i] = 0;
      }
    }
  }
  return result;
}

void ExpectSameWitness(const std::optional<CqWitness>& got,
                       const std::optional<CqWitness>& want,
                       const std::string& context) {
  ASSERT_EQ(got.has_value(), want.has_value()) << context;
  if (!got.has_value()) return;
  EXPECT_EQ(got->db.ToString(), want->db.ToString()) << context;
  EXPECT_EQ(got->input.ToString(), want->input.ToString()) << context;
}

// Stopping at the first length at which every unfolding is complete
// changes no verdict, differing length or witness: on the travel
// services and on comparison-free generated ones (Klug containment with
// '≠' is exponential), every answer matches the oracles'.
TEST(CqStopRuleTest, AgreesWithTheEveryLengthProcedures) {
  std::vector<Sws> services;
  services.push_back(MakeTravelServiceCqUcq().sws);
  {
    Sws tickets_only = services.back();
    UnionQuery psi = tickets_only.Synthesis(0).AsUcq();
    UnionQuery first(psi.head_arity());
    first.Add(psi.disjuncts()[0]);
    tickets_only.SetSynthesis(0, RelQuery::Ucq(std::move(first)));
    services.push_back(std::move(tickets_only));
  }
  services.push_back(models::MakeTravelComponentAirfare().sws);
  services.push_back(models::MakeTravelComponentHotelTickets().sws);
  services.push_back(models::MakeTravelComponentHotelCar().sws);
  for (uint64_t seed = 0; seed < 40; ++seed) {
    WorkloadGenerator gen(seed);
    WorkloadGenerator::CqSwsParams params;
    params.num_states = 2 + static_cast<int>(seed % 3);
    params.rin_arity = 1 + seed % 2;
    params.rout_arity = 1;
    params.inequality_prob = 0.0;
    Sws sws = gen.RandomCqSws(params);
    if (core::UnfoldDisjunctBound(sws, *sws.MaxDepth()) > 40) continue;
    services.push_back(sws);
    // The same service without the root's last disjunct, if it has two.
    UnionQuery psi = sws.Synthesis(0).AsUcq();
    if (psi.size() < 2) continue;
    UnionQuery smaller(psi.head_arity());
    smaller.Add(psi.disjuncts()[0]);
    sws.SetSynthesis(0, RelQuery::Ucq(std::move(smaller)));
    services.push_back(std::move(sws));
  }

  int pairs = 0;
  int inequivalent = 0;
  int validations = 0;
  int validated = 0;
  int exhausted = 0;
  uint64_t lengths = 0;
  uint64_t oracle_lengths = 0;
  for (size_t i = 0; i < services.size(); ++i) {
    const Sws& a = services[i];
    const std::string context = a.ToString();
    CqNonEmptinessResult nonempty = CqNonEmptinessNr(a);
    std::optional<CqWitness> oracle_witness = OracleNonEmptinessWitness(a);
    EXPECT_EQ(nonempty.nonempty, oracle_witness.has_value()) << context;
    ExpectSameWitness(nonempty.witness, oracle_witness, context);

    for (size_t j = i; j < services.size() && j < i + 3; ++j) {
      const Sws& b = services[j];
      if (a.rin_arity() != b.rin_arity() || a.rout_arity() != b.rout_arity()) {
        continue;
      }
      CqEquivalenceResult result = CqEquivalenceNr(a, b);
      std::optional<size_t> oracle = OracleDifferingLength(a, b);
      EXPECT_EQ(result.equivalent, !oracle.has_value())
          << context << "\nvs\n" << b.ToString();
      EXPECT_EQ(result.differing_length, oracle)
          << context << "\nvs\n" << b.ToString();
      ++pairs;
      if (oracle.has_value()) ++inequivalent;
      lengths += result.stats.lengths_tried;
      oracle_lengths += oracle.value_or(std::max(*a.MaxDepth(), *b.MaxDepth())) + 1;
    }

    WorkloadGenerator probe(i * 131 + 17);
    for (int r = 0; r < 2; ++r) {
      rel::Database db = probe.RandomDatabase(a.db_schema(), 2, 2);
      rel::InputSequence input =
          probe.RandomInput(a.rin_arity(), LengthBound(a), 1, 2);
      rel::Relation target = core::Run(a, db, input).output;
      if (target.empty() || target.size() > 2) continue;
      // A mix of a reachable output and a fresh tuple, which some
      // services can also produce and some cannot.
      rel::Relation mixed = target;
      mixed.Insert(rel::Tuple(a.rout_arity(), rel::Value::Int(7)));
      for (const rel::Relation* desired : {&target, &mixed}) {
        CqValidationOptions options;
        options.max_candidates = 2000;
        CqValidationResult got = CqValidation(a, *desired, options);
        CqValidationResult want =
            OracleValidation(a, *desired, options.max_candidates);
        ++validations;
        if (want.validated) ++validated;
        if (want.budget_exhausted) {
          ++exhausted;
          // The oracle may spend its budget on lengths that repeat the
          // last complete one; the procedure never finds more than it.
          EXPECT_FALSE(got.validated) << context;
          continue;
        }
        EXPECT_EQ(got.validated, want.validated) << context;
        EXPECT_FALSE(got.budget_exhausted) << context;
        ExpectSameWitness(got.witness, want.witness, context);
      }
    }
  }
  std::printf(
      "%zu services, %d pairs (%d inequivalent), %d validations (%d "
      "validated, %d exhausted by the oracle); equivalence lengths "
      "unfolded: %llu (every length: %llu)\n",
      services.size(), pairs, inequivalent, validations, validated, exhausted,
      static_cast<unsigned long long>(lengths),
      static_cast<unsigned long long>(oracle_lengths));
  EXPECT_GT(inequivalent, 0);
  EXPECT_GT(validated, 0);
  EXPECT_LT(validated, validations);
  EXPECT_LT(lengths, oracle_lengths);
}

TEST(SplitPackedDatabaseTest, RoundTripsRelationsAndInput) {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("R", {"a", "b"}));
  Sws sws(schema, 2, 1);
  sws.AddState("q0");
  sws.SetTransition(0, {});
  ConjunctiveQuery echo({Term::Var(0)},
                        {Atom{core::kMsgRelation, {Term::Var(0), Term::Var(1)}}});
  sws.SetSynthesis(0, RelQuery::Cq(echo));

  rel::Database packed;
  rel::Relation r(2);
  r.Insert({rel::Value::Null(0), rel::Value::Int(3)});
  packed.Set("R", r);
  rel::Relation in1(2);
  in1.Insert({rel::Value::Null(0), rel::Value::Null(1)});
  packed.Set(core::InputRelationAt(1), in1);

  CqWitness witness = SplitPackedDatabase(sws, packed, 2);
  EXPECT_EQ(witness.input.size(), 2u);
  EXPECT_EQ(witness.input.Message(1).size(), 1u);
  EXPECT_TRUE(witness.input.Message(2).empty());
  EXPECT_EQ(witness.db.Get("R").size(), 1u);
  // Nulls grounded consistently: the shared null _N0 must be the same
  // fresh constant in R and In@1.
  rel::Value r_first = (*witness.db.Get("R").begin())[0];
  rel::Value in_first = (*witness.input.Message(1).begin())[0];
  EXPECT_EQ(r_first, in_first);
  EXPECT_TRUE(r_first.is_int());
  EXPECT_GT(r_first.AsInt(), 3);  // fresh: outside existing constants
}

}  // namespace
}  // namespace sws::analysis
