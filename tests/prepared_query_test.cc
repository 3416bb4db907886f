// Randomized differentials for the prepared query path (PreparedCq,
// PreparedUcq, dense Normalize, prepared containment) against the
// oracles in cq_oracles.h and the naive evaluator: same verdicts, same
// effort counters, same normalized text, same answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cq_fuzzer.h"
#include "cq_oracles.h"
#include "logic/containment.h"
#include "logic/cq.h"
#include "logic/ucq.h"
#include "sws/query.h"

namespace sws {
namespace {

using logic::Atom;
using logic::Comparison;
using logic::ConjunctiveQuery;
using logic::ContainmentStats;
using logic::Term;
using logic::UnionQuery;
using rel::Value;

// A few constants keep Klug's partition count small while still letting
// variables collide with constants of either side.
Value SmallConstant(CqFuzzer* f) {
  switch (f->Int(0, 2)) {
    case 0:
      return Value::Int(1);
    case 1:
      return Value::Int(2);
    default:
      return Value::Str("a");
  }
}

// A variant of q that often contains it: one atom may be dropped, some
// variables renamed apart, and a '≠' or '=' comparison added.
ConjunctiveQuery Weaken(const ConjunctiveQuery& q, CqFuzzer* f) {
  std::vector<Atom> body = q.body();
  if (body.size() > 1 && f->Int(0, 2) == 0) {
    body.erase(body.begin() + f->Int(0, static_cast<int>(body.size()) - 1));
  }
  for (Atom& a : body) {
    for (Term& t : a.args) {
      if (t.is_var() && f->Int(0, 5) == 0) t = Term::Var(t.var() + 10);
    }
  }
  std::vector<int> vars;
  for (const Atom& a : body) {
    for (const Term& t : a.args) {
      if (t.is_var()) vars.push_back(t.var());
    }
  }
  auto in_body = [&vars](const Term& t) {
    return t.is_const() ||
           std::find(vars.begin(), vars.end(), t.var()) != vars.end();
  };
  // Comparisons keep to body variables, so the variant stays safe.
  std::vector<Comparison> comparisons;
  for (const Comparison& c : q.comparisons()) {
    if (f->Int(0, 2) != 0 && in_body(c.lhs) && in_body(c.rhs)) {
      comparisons.push_back(c);
    }
  }
  if (!vars.empty() && f->Int(0, 1) == 0) {
    auto pick = [&] {
      return Term::Var(
          vars[static_cast<size_t>(f->Int(0, static_cast<int>(vars.size()) - 1))]);
    };
    comparisons.push_back({pick(), f->Int(0, 1) == 0
                                       ? pick()
                                       : Term::Const(SmallConstant(f)),
                           f->Int(0, 3) == 0});
  }
  // Head terms stay safe: a head variable the body lost becomes a
  // constant.
  std::vector<Term> head = q.head();
  for (Term& t : head) {
    if (!in_body(t)) t = Term::Const(SmallConstant(f));
  }
  return ConjunctiveQuery(std::move(head), std::move(body),
                          std::move(comparisons));
}

std::string Text(const std::optional<ConjunctiveQuery>& q) {
  return q.has_value() ? q->ToString() : "unsatisfiable";
}

TEST(PreparedQueryTest, ContainmentMatchesOracleVerdictsAndStats) {
  CqFuzzer f(20261017);
  int contained = 0;
  int klug = 0;
  for (int i = 0; i < 2400; ++i) {
    std::vector<size_t> arities;
    for (int r = f.Int(1, 3); r > 0; --r) {
      arities.push_back(static_cast<size_t>(f.Int(1, 3)));
    }
    const size_t head_arity = static_cast<size_t>(f.Int(0, 2));
    auto constant = [&f] { return SmallConstant(&f); };
    ConjunctiveQuery q1 = f.Query(arities, head_arity, 3, 3, 2, constant);
    if (i % 5 == 4) q1 = q1.ShiftVars(-3);  // negative ids are ids too
    UnionQuery q2(head_arity);
    for (int d = f.Int(1, 3); d > 0; --d) {
      q2.Add(f.Int(0, 1) == 0
                 ? Weaken(q1, &f)
                 : f.Query(arities, head_arity, 3, 3, 2, constant));
    }
    const std::string what = "case " + std::to_string(i) + ": " +
                             q1.ToString() + "\n  in " + q2.ToString();

    ContainmentStats stats, oracle_stats;
    const bool verdict = logic::CqContainedIn(q1, q2, &stats);
    ASSERT_EQ(verdict, logic::oracle::CqContainedIn(q1, q2, &oracle_stats))
        << what;
    ASSERT_EQ(stats.partitions_checked, oracle_stats.partitions_checked)
        << what;
    ASSERT_EQ(stats.canonical_databases, oracle_stats.canonical_databases)
        << what;
    contained += verdict;
    klug += stats.partitions_checked > 0;

    const UnionQuery u1 = UnionQuery::Single(q1);
    stats = oracle_stats = {};
    ASSERT_EQ(logic::UcqContainedIn(q2, u1, &stats),
              logic::oracle::UcqContainedIn(q2, u1, &oracle_stats))
        << what;
    ASSERT_EQ(stats.partitions_checked, oracle_stats.partitions_checked)
        << what;
    ASSERT_EQ(stats.canonical_databases, oracle_stats.canonical_databases)
        << what;

    stats = oracle_stats = {};
    ASSERT_EQ(logic::UcqEquivalent(u1, q2, &stats),
              logic::oracle::UcqEquivalent(u1, q2, &oracle_stats))
        << what;
    ASSERT_EQ(stats.partitions_checked, oracle_stats.partitions_checked)
        << what;
    ASSERT_EQ(stats.canonical_databases, oracle_stats.canonical_databases)
        << what;
  }
  // Both verdicts, and the full partition search, are well exercised.
  EXPECT_GT(contained, 400);
  EXPECT_LT(contained, 2000);
  EXPECT_GT(klug, 300);
}

TEST(PreparedQueryTest, DenseNormalizeMatchesOracle) {
  CqFuzzer f(4711);
  int unsatisfiable = 0;
  for (int i = 0; i < 3000; ++i) {
    ConjunctiveQuery q;
    if (i % 2 == 0) {
      q = f.Next().query;
    } else {
      std::vector<size_t> arities = {2, 1, 3};
      q = f.Query(arities, static_cast<size_t>(f.Int(0, 3)), 6, 4, 5,
                  [&f] { return f.RandomValue(); });
    }
    if (i % 4 == 3) q = q.ShiftVars(-4);  // negative ids are ids too
    const std::optional<ConjunctiveQuery> dense = q.Normalize();
    ASSERT_EQ(Text(dense), Text(logic::oracle::Normalize(q)))
        << "case " << i << ": " << q.ToString();
    unsatisfiable += !dense.has_value();
  }
  EXPECT_GT(unsatisfiable, 100);
}

TEST(PreparedQueryTest, PreparedUnionsMatchNaiveEvaluation) {
  CqFuzzer f(90210);
  for (int i = 0; i < 2000; ++i) {
    RandomUcq c = f.NextUnion();
    // Every other case crosses the scan threshold: its levels probe.
    if (i % 2 == 1) f.GrowPast(&c.db, logic::bytecode::kScanRows);
    rel::Relation naive(c.query.head_arity());
    for (const ConjunctiveQuery& d : c.query.disjuncts()) {
      naive = naive.Union(d.EvaluateNaive(c.db));
    }
    const core::RelQuery query = core::RelQuery::Ucq(c.query);
    ASSERT_EQ(query.Evaluate(c.db), naive)
        << "case " << i << ": " << c.query.ToString() << "\nover\n"
        << c.db.ToString();
    ASSERT_EQ(query.EvaluatesNonempty(c.db), !naive.empty())
        << "case " << i << ": " << c.query.ToString();
    // A copy shares the prepared form and answers the same.
    const core::RelQuery copy = query;
    ASSERT_EQ(copy.Evaluate(c.db), naive) << "case " << i;
    const ConjunctiveQuery& first = c.query.disjuncts()[0];
    ASSERT_EQ(core::RelQuery::Cq(first).Evaluate(c.db),
              first.EvaluateNaive(c.db))
        << "case " << i << ": " << first.ToString();
  }
}

}  // namespace
}  // namespace sws
