#include <gtest/gtest.h>

#include "logic/fo.h"

namespace sws::logic {
namespace {

using rel::Database;
using rel::Relation;
using rel::Value;

Database GraphDb() {
  Database db;
  Relation e(2);
  e.Insert({Value::Int(1), Value::Int(2)});
  e.Insert({Value::Int(2), Value::Int(3)});
  e.Insert({Value::Int(3), Value::Int(1)});
  db.Set("E", e);
  return db;
}

Term V(int i) { return Term::Var(i); }

TEST(FoTest, AtomAndEquality) {
  Database db = GraphDb();
  Relation edges = FoQuery({V(0), V(1)}, FoFormula::MakeAtom("E", {V(0), V(1)}))
                       .Evaluate(db);
  EXPECT_TRUE(edges.Contains({Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(edges.Contains({Value::Int(1), Value::Int(3)}));
  Relation one =
      FoQuery({V(0)}, FoFormula::Eq(V(0), Term::Int(1))).Evaluate(db);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_TRUE(one.Contains({Value::Int(1)}));
}

// Every node has an outgoing edge (the graph is a 3-cycle).
FoFormula EveryNodeHasAnOutEdge() {
  return FoFormula::Forall(
      0, FoFormula::Implies(
             FoFormula::Exists(1, FoFormula::Or(
                                      FoFormula::MakeAtom("E", {V(0), V(1)}),
                                      FoFormula::MakeAtom("E", {V(1), V(0)}))),
             FoFormula::Exists(2, FoFormula::MakeAtom("E", {V(0), V(2)}))));
}

// Some node has a self-loop.
FoFormula SomeSelfLoop() {
  return FoFormula::Exists(0, FoFormula::MakeAtom("E", {V(0), V(0)}));
}

TEST(FoTest, QuantifiersActiveDomain) {
  Database db = GraphDb();
  EXPECT_FALSE(FoQuery({}, EveryNodeHasAnOutEdge()).Evaluate(db).empty());
  EXPECT_TRUE(FoQuery({}, SomeSelfLoop()).Evaluate(db).empty());
}

TEST(FoTest, NegationAndDifference) {
  Database db = GraphDb();
  // ans(x, y): E(x, y) does NOT hold and x ≠ y.
  FoQuery q({V(0), V(1)},
            FoFormula::And(FoFormula::Not(FoFormula::MakeAtom("E", {V(0), V(1)})),
                           FoFormula::Neq(V(0), V(1))));
  Relation r = q.Evaluate(db);
  EXPECT_TRUE(r.Contains({Value::Int(2), Value::Int(1)}));
  EXPECT_FALSE(r.Contains({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(r.size(), 3u);  // the three reversed edges
}

TEST(FoTest, FreeVarsRespectShadowing) {
  FoFormula f = FoFormula::And(
      FoFormula::MakeAtom("R", {V(0)}),
      FoFormula::Exists(0, FoFormula::MakeAtom("R", {V(0)})));
  EXPECT_EQ(f.FreeVars(), (std::set<int>{0}));
}

TEST(FoTest, ValidateRequiresHeadCoverage) {
  FoQuery bad({V(0)}, FoFormula::MakeAtom("R", {V(0), V(1)}));
  EXPECT_TRUE(bad.Validate().has_value());
  EXPECT_DEATH(bad.Evaluate(GraphDb()), "free variable X1 not in head");
  FoQuery good({V(0)},
               FoFormula::Exists(1, FoFormula::MakeAtom("R", {V(0), V(1)})));
  EXPECT_FALSE(good.Validate().has_value());
}

TEST(FoTest, FromCqMatchesCqEvaluation) {
  Database db = GraphDb();
  ConjunctiveQuery cq({V(0), V(2)},
                      {Atom{"E", {V(0), V(1)}}, Atom{"E", {V(1), V(2)}}},
                      {Comparison{V(0), V(2), false}});
  FoQuery fo = FoQuery::FromCq(cq);
  EXPECT_EQ(fo.Evaluate(db), cq.Evaluate(db));
}

TEST(FoTest, ConstantHeadQuery) {
  Database db = GraphDb();
  FoQuery q({Term::Int(1)},
            FoFormula::Exists(0, FoFormula::MakeAtom("E", {V(0), V(0)})));
  EXPECT_TRUE(q.Evaluate(db).empty());
  FoQuery q2({Term::Int(1)},
             FoFormula::Exists(
                 {0, 1}, FoFormula::MakeAtom("E", {V(0), V(1)})));
  EXPECT_EQ(q2.Evaluate(db).size(), 1u);
}

TEST(FoBoundedSatTest, FindsSmallModel) {
  // ∃x R(x): satisfiable with domain size 1.
  FoFormula f = FoFormula::Exists(0, FoFormula::MakeAtom("R", {V(0)}));
  auto result = FoBoundedSat(f, 2);
  EXPECT_TRUE(result.found);
  EXPECT_FALSE(result.witness.Get("R").empty());
}

TEST(FoBoundedSatTest, UnsatWithinBound) {
  // R is nonempty and empty: contradiction at every domain size.
  FoFormula nonempty = FoFormula::Exists(0, FoFormula::MakeAtom("R", {V(0)}));
  FoFormula empty =
      FoFormula::Forall(0, FoFormula::Not(FoFormula::MakeAtom("R", {V(0)})));
  auto result = FoBoundedSat(FoFormula::And(nonempty, empty), 2);
  EXPECT_FALSE(result.found);
  EXPECT_GT(result.databases_checked, 0u);
}

TEST(FoBoundedSatTest, NeedsDomainSizeTwo) {
  // ∃x∃y x≠y: no model of size 1.
  FoFormula f = FoFormula::Exists(
      0, FoFormula::Exists(1, FoFormula::And(FoFormula::Neq(V(0), V(1)),
                                             FoFormula::MakeAtom("R", {V(0)}))));
  auto size1 = FoBoundedSat(f, 1);
  EXPECT_FALSE(size1.found);
  auto size2 = FoBoundedSat(f, 2);
  EXPECT_TRUE(size2.found);
}

TEST(FoBoundedSatTest, BudgetStopsSearch) {
  FoFormula f = FoFormula::Exists(
      0, FoFormula::Exists(
             1, FoFormula::And(FoFormula::MakeAtom("R", {V(0), V(1)}),
                               FoFormula::Neq(V(0), V(1)))));
  auto result = FoBoundedSat(f, 3, /*max_databases=*/2);
  EXPECT_LE(result.databases_checked, 2u);
}

}  // namespace
}  // namespace sws::logic
