#include <gtest/gtest.h>

#include "analysis/fo_analysis.h"
#include "models/travel.h"
#include "sws/execution.h"

namespace sws::analysis {
namespace {

using logic::FoFormula;
using logic::Term;

FoFormula Satisfiable() {
  // ∃x∃y R(x, y) ∧ x ≠ y.
  return FoFormula::Exists(
      0, FoFormula::Exists(
             1, FoFormula::And(
                    FoFormula::MakeAtom("R", {Term::Var(0), Term::Var(1)}),
                    FoFormula::Neq(Term::Var(0), Term::Var(1)))));
}

FoFormula Unsatisfiable() {
  // R nonempty and R empty.
  FoFormula nonempty =
      FoFormula::Exists(0, FoFormula::MakeAtom("R", {Term::Var(0)}));
  FoFormula empty = FoFormula::Forall(
      0, FoFormula::Not(FoFormula::MakeAtom("R", {Term::Var(0)})));
  return FoFormula::And(nonempty, empty);
}

TEST(FoReductionTest, SatisfiableSentenceGivesNonEmptyService) {
  core::Sws sws = FoSatToSws(Satisfiable());
  EXPECT_EQ(sws.Classify(), "SWSnr(CQ, FO)");  // transitions vacuous, ψ FO
  FoBoundedOptions options;
  options.max_domain_size = 2;
  FoBoundedResult result = FoBoundedNonEmptiness(sws, options);
  ASSERT_TRUE(result.found);
  // Verify: the witness drives the service to an action.
  core::RunResult run =
      core::Run(sws, result.witness_db, result.witness_input);
  EXPECT_FALSE(run.output.empty());
  EXPECT_GE(result.witness_input.size(), 1u);  // root needs nonempty I
}

TEST(FoReductionTest, UnsatisfiableSentenceGivesEmptyService) {
  core::Sws sws = FoSatToSws(Unsatisfiable());
  FoBoundedOptions options;
  options.max_domain_size = 2;
  FoBoundedResult result = FoBoundedNonEmptiness(sws, options);
  EXPECT_FALSE(result.found);
  EXPECT_FALSE(result.budget_exhausted);  // the space was fully searched
  EXPECT_GT(result.instances_checked, 0u);
}

TEST(FoReductionTest, EquivalenceReductionToEmptyService) {
  // τ_φ ≡ τ_∅ iff φ is unsatisfiable — the equivalence half of
  // Theorem 4.1(1).
  core::Sws sat_service = FoSatToSws(Satisfiable());
  core::Sws empty_partner = EmptyServiceLike(sat_service);
  FoBoundedResult differs =
      FoBoundedInequivalence(sat_service, empty_partner);
  EXPECT_TRUE(differs.found);

  core::Sws unsat_service = FoSatToSws(Unsatisfiable());
  core::Sws empty_partner2 = EmptyServiceLike(unsat_service);
  FoBoundedResult same =
      FoBoundedInequivalence(unsat_service, empty_partner2);
  EXPECT_FALSE(same.found);
}

TEST(FoBoundedTest, BudgetIsRespected) {
  core::Sws sws = FoSatToSws(Unsatisfiable());
  FoBoundedOptions options;
  options.max_domain_size = 3;
  options.max_instances = 10;
  FoBoundedResult result = FoBoundedNonEmptiness(sws, options);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_LE(result.instances_checked, 10u);
}

TEST(FoBoundedTest, TravelServiceNeedsRicherInstances) {
  // The travel service requires specific string constants that the
  // {1..k} enumeration never produces: bounded search correctly fails
  // within these bounds (showing the search is honest, not lucky).
  auto service = models::MakeTravelService();
  FoBoundedOptions options;
  options.max_domain_size = 1;
  options.max_input_length = 1;
  options.max_instances = 5000;
  FoBoundedResult result = FoBoundedNonEmptiness(service.sws, options);
  EXPECT_FALSE(result.found);
}

TEST(FoReductionTest, TrivialTautologyNeedsInput) {
  // φ = true: the service outputs (1) for every (D, I) with I nonempty
  // and a nonempty universe Dom — but never for the empty input (the
  // Section 2 special case).
  core::Sws sws = FoSatToSws(FoFormula::True());
  rel::Relation universe(1);
  universe.Insert({rel::Value::Int(1)});
  rel::Database db;
  db.Set("Dom", universe);
  rel::InputSequence empty_input(1);
  EXPECT_TRUE(core::Run(sws, db, empty_input).output.empty());
  rel::InputSequence one(1);
  rel::Relation m(1);
  m.Insert({rel::Value::Int(1)});
  one.Append(m);
  EXPECT_FALSE(core::Run(sws, db, one).output.empty());
}

// ∃x∃y (x ≠ y ∧ ¬R(x) ∧ ¬R(y)): every model has two elements outside R,
// which no relation of the run's database need mention.
FoFormula TwoElementsOutsideR() {
  FoFormula not_r0 =
      FoFormula::Not(FoFormula::MakeAtom("R", {Term::Var(0)}));
  FoFormula not_r1 =
      FoFormula::Not(FoFormula::MakeAtom("R", {Term::Var(1)}));
  return FoFormula::Exists(
      {0, 1}, FoFormula::And({FoFormula::Neq(Term::Var(0), Term::Var(1)),
                              not_r0, not_r1}));
}

TEST(FoReductionTest, ModelOutsideEveryRelationIsFound) {
  ASSERT_TRUE(logic::FoBoundedSat(TwoElementsOutsideR(), 3).found);
  FoBoundedOptions options;
  options.max_domain_size = 3;
  FoBoundedResult result =
      FoBoundedNonEmptiness(FoSatToSws(TwoElementsOutsideR()), options);
  EXPECT_TRUE(result.found);
  EXPECT_FALSE(result.budget_exhausted);
}

// The reduction is faithful within the bounds: a model over at most k
// elements exists iff the service is non-empty on databases over {1..k},
// for the sentences of fo_test, of this file, and TwoElementsOutsideR.
TEST(FoReductionTest, ReductionAgreesWithBoundedSatisfiability) {
  auto atom = [](const char* r, std::vector<Term> args) {
    return FoFormula::MakeAtom(r, std::move(args));
  };
  const Term x = Term::Var(0), y = Term::Var(1), z = Term::Var(2);
  const std::vector<FoFormula> sentences = {
      // fo_test.
      FoFormula::Exists(0, atom("R", {x})),
      FoFormula::And(FoFormula::Exists(0, atom("R", {x})),
                     FoFormula::Forall(0, FoFormula::Not(atom("R", {x})))),
      FoFormula::Exists({0, 1}, FoFormula::And(FoFormula::Neq(x, y),
                                               atom("R", {x}))),
      FoFormula::Exists({0, 1}, FoFormula::And(atom("R", {x, y}),
                                               FoFormula::Neq(x, y))),
      FoFormula::Forall(
          0, FoFormula::Implies(
                 FoFormula::Exists(1, FoFormula::Or(atom("E", {x, y}),
                                                    atom("E", {y, x}))),
                 FoFormula::Exists(2, atom("E", {x, z})))),
      FoFormula::Exists(0, atom("E", {x, x})),
      // This file.
      Satisfiable(),
      Unsatisfiable(),
      FoFormula::True(),
      TwoElementsOutsideR(),
  };
  for (const FoFormula& phi : sentences) {
    const core::Sws sws = FoSatToSws(phi);
    for (size_t k = 1; k <= 3; ++k) {
      FoBoundedOptions options;
      options.max_domain_size = k;
      FoBoundedResult reduction = FoBoundedNonEmptiness(sws, options);
      ASSERT_FALSE(reduction.budget_exhausted) << phi.ToString();
      EXPECT_EQ(logic::FoBoundedSat(phi, k).found, reduction.found)
          << phi.ToString() << " at k = " << k;
    }
  }
}

}  // namespace
}  // namespace sws::analysis
