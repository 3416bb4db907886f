#include <gtest/gtest.h>

#include "logic/containment.h"

namespace sws::logic {
namespace {

ConjunctiveQuery Cq(std::vector<Term> head, std::vector<Atom> body,
                    std::vector<Comparison> comparisons = {}) {
  return ConjunctiveQuery(std::move(head), std::move(body),
                          std::move(comparisons));
}

TEST(ContainmentTest, IdenticalQueriesContained) {
  ConjunctiveQuery q =
      Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0), Term::Var(1)}}});
  EXPECT_TRUE(CqContainedIn(q, q));
}

TEST(ContainmentTest, MoreRestrictiveContainedInLess) {
  // Q1(x) :- R(x, x)  ⊆  Q2(x) :- R(x, y), but not conversely.
  ConjunctiveQuery q1 =
      Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0), Term::Var(0)}}});
  ConjunctiveQuery q2 =
      Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0), Term::Var(1)}}});
  EXPECT_TRUE(CqContainedIn(q1, q2));
  EXPECT_FALSE(CqContainedIn(q2, q1));
}

TEST(ContainmentTest, PathShorteningClassic) {
  // Paths of length 3 ⊆ paths of length 2? No. Reverse? No. But
  // Q1(x,y) :- E(x,z), E(z,y), E(y,y)  ⊆  Q2(x,y) :- E(x,z), E(z,y).
  ConjunctiveQuery q1 = Cq({Term::Var(0), Term::Var(1)},
                           {Atom{"E", {Term::Var(0), Term::Var(2)}},
                            Atom{"E", {Term::Var(2), Term::Var(1)}},
                            Atom{"E", {Term::Var(1), Term::Var(1)}}});
  ConjunctiveQuery q2 = Cq({Term::Var(0), Term::Var(1)},
                           {Atom{"E", {Term::Var(0), Term::Var(2)}},
                            Atom{"E", {Term::Var(2), Term::Var(1)}}});
  EXPECT_TRUE(CqContainedIn(q1, q2));
  EXPECT_FALSE(CqContainedIn(q2, q1));
}

TEST(ContainmentTest, UnsatisfiableContainedInEverything) {
  ConjunctiveQuery bottom =
      Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0)}}},
         {Comparison{Term::Var(0), Term::Var(0), false}});
  ConjunctiveQuery q = Cq({Term::Var(0)}, {Atom{"S", {Term::Var(0)}}});
  EXPECT_TRUE(CqContainedIn(bottom, q));
}

TEST(ContainmentTest, UcqRightHandSide) {
  // Q1(x) :- R(x) ⊆ R(x)∪S(x); and R(x)∪S(x) ⊄ R(x).
  ConjunctiveQuery r = Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0)}}});
  ConjunctiveQuery s = Cq({Term::Var(0)}, {Atom{"S", {Term::Var(0)}}});
  UnionQuery rs(1, {r, s});
  EXPECT_TRUE(CqContainedIn(r, rs));
  EXPECT_TRUE(UcqContainedIn(rs, rs));
  EXPECT_FALSE(UcqContainedIn(rs, UnionQuery::Single(r)));
}

TEST(ContainmentTest, InequalityMakesRightSideSmaller) {
  // Q2(x,y) :- R(x,y), x≠y is strictly inside Q1(x,y) :- R(x,y).
  ConjunctiveQuery q1 =
      Cq({Term::Var(0), Term::Var(1)}, {Atom{"R", {Term::Var(0), Term::Var(1)}}});
  ConjunctiveQuery q2 =
      Cq({Term::Var(0), Term::Var(1)}, {Atom{"R", {Term::Var(0), Term::Var(1)}}},
         {Comparison{Term::Var(0), Term::Var(1), false}});
  EXPECT_TRUE(CqContainedIn(q2, q1));
  EXPECT_FALSE(CqContainedIn(q1, q2));
}

TEST(ContainmentTest, PartitionCaseNeedsIdentification) {
  // Q1() :- R(x), S(y).  Q2 = [R(x),S(y),x≠y] ∪ [R(x),S(x)].
  // Equivalent: any witness either has the values distinct or equal.
  ConjunctiveQuery q1 = Cq({}, {Atom{"R", {Term::Var(0)}},
                                Atom{"S", {Term::Var(1)}}});
  UnionQuery q2(0);
  q2.Add(Cq({}, {Atom{"R", {Term::Var(0)}}, Atom{"S", {Term::Var(1)}}},
            {Comparison{Term::Var(0), Term::Var(1), false}}));
  q2.Add(Cq({}, {Atom{"R", {Term::Var(0)}}, Atom{"S", {Term::Var(0)}}}));
  EXPECT_TRUE(CqContainedIn(q1, q2));
  // Dropping the second disjunct breaks containment (witness R(a),S(a)).
  UnionQuery q2_only_neq(0);
  q2_only_neq.Add(Cq({}, {Atom{"R", {Term::Var(0)}}, Atom{"S", {Term::Var(1)}}},
                     {Comparison{Term::Var(0), Term::Var(1), false}}));
  EXPECT_FALSE(CqContainedIn(q1, q2_only_neq));
}

TEST(ContainmentTest, ConstantOnRightSideMatters) {
  // Q1(x) :- R(x)  vs  Q2(x) :- R(x), x ≠ 5: not contained (x=5 is a
  // counterexample) — requires identifying x with the constant 5 of Q2.
  ConjunctiveQuery q1 = Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0)}}});
  ConjunctiveQuery q2 = Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0)}}},
                           {Comparison{Term::Var(0), Term::Int(5), false}});
  EXPECT_FALSE(CqContainedIn(q1, q2));
  EXPECT_TRUE(CqContainedIn(q2, q1));
}

TEST(ContainmentTest, EqualityNormalizationInLeftSide) {
  // Q1(x) :- R(x, y), x = y  ≡  Q1'(x) :- R(x, x).
  ConjunctiveQuery q1 = Cq({Term::Var(0)},
                           {Atom{"R", {Term::Var(0), Term::Var(1)}}},
                           {Comparison{Term::Var(0), Term::Var(1), true}});
  ConjunctiveQuery q1p =
      Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0), Term::Var(0)}}});
  EXPECT_TRUE(CqContainedIn(q1, q1p));
  EXPECT_TRUE(CqContainedIn(q1p, q1));
}

TEST(ContainmentTest, UcqEquivalenceIsSymmetric) {
  ConjunctiveQuery r = Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0)}}});
  ConjunctiveQuery s = Cq({Term::Var(0)}, {Atom{"S", {Term::Var(0)}}});
  UnionQuery a(1, {r, s});
  UnionQuery b(1, {s, r});  // same union, different order
  EXPECT_TRUE(UcqEquivalent(a, b));
  EXPECT_FALSE(UcqEquivalent(a, UnionQuery::Single(r)));
}

TEST(ContainmentTest, RedundantDisjunctEquivalence) {
  // R(x,x) ∪ R(x,y) ≡ R(x,y).
  ConjunctiveQuery loop =
      Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0), Term::Var(0)}}});
  ConjunctiveQuery any =
      Cq({Term::Var(0)}, {Atom{"R", {Term::Var(0), Term::Var(1)}}});
  UnionQuery a(1, {loop, any});
  UnionQuery b(1, {any});
  EXPECT_TRUE(UcqEquivalent(a, b));
}

TEST(ContainmentTest, SplitByInequalityEquivalence) {
  // R(x,y) ≡ R(x,x) ∪ [R(x,y), x≠y] — needs both the partition
  // enumeration and the UCQ right-hand side.
  ConjunctiveQuery any = Cq({Term::Var(0), Term::Var(1)},
                            {Atom{"R", {Term::Var(0), Term::Var(1)}}});
  UnionQuery split(2);
  split.Add(Cq({Term::Var(0), Term::Var(0)},
               {Atom{"R", {Term::Var(0), Term::Var(0)}}}));
  split.Add(Cq({Term::Var(0), Term::Var(1)},
               {Atom{"R", {Term::Var(0), Term::Var(1)}}},
               {Comparison{Term::Var(0), Term::Var(1), false}}));
  EXPECT_TRUE(UcqEquivalent(UnionQuery::Single(any), split));
}

TEST(ContainmentTest, StatsCountPartitions) {
  ConjunctiveQuery q1 = Cq({}, {Atom{"R", {Term::Var(0)}},
                                Atom{"S", {Term::Var(1)}}});
  UnionQuery q2(0);
  q2.Add(Cq({}, {Atom{"R", {Term::Var(0)}}, Atom{"S", {Term::Var(1)}}},
            {Comparison{Term::Var(0), Term::Var(1), false}}));
  q2.Add(Cq({}, {Atom{"R", {Term::Var(0)}}, Atom{"S", {Term::Var(0)}}}));
  ContainmentStats stats;
  EXPECT_TRUE(CqContainedIn(q1, q2, &stats));
  EXPECT_GE(stats.partitions_checked, 2u);  // {x|y} and {xy}
}

TEST(EnumerateIdentificationsTest, CountsBellNumbers) {
  // 3 variables, no constants: Bell(3) = 5 partitions.
  std::vector<Term> terms = {Term::Var(0), Term::Var(1), Term::Var(2)};
  int count = 0;
  EnumerateIdentifications(terms, [&count](const std::vector<Term>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 5);
}

TEST(EnumerateIdentificationsTest, ConstantsArePreplacedBlocks) {
  // 1 variable, 2 constants: the variable can join either constant or be
  // alone — 3 partitions.
  std::vector<Term> terms = {Term::Int(1), Term::Int(2), Term::Var(0)};
  int count = 0;
  int joined_constant = 0;
  EnumerateIdentifications(terms, [&](const std::vector<Term>& ident) {
    ++count;
    if (ident.at(0).is_const()) ++joined_constant;
    return true;
  });
  EXPECT_EQ(count, 3);
  EXPECT_EQ(joined_constant, 2);
}

}  // namespace
}  // namespace sws::logic
