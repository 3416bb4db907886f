// Differential tests for the indexed query engine (logic/cq.cc,
// relational/relation.cc) and the execution-tree memoization
// (sws/execution.cc): the optimized paths must be observationally
// identical to the naive baselines on randomized workloads, and the
// memo/index caches must invalidate correctly under mutation.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "logic/cq.h"
#include "logic/fo.h"
#include "models/sirup_sws.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "sws/execution.h"
#include "sws/generator.h"
#include "sws/sws.h"

namespace sws {
namespace {

using logic::Atom;
using logic::Comparison;
using logic::ConjunctiveQuery;
using logic::Term;
using rel::Database;
using rel::Relation;
using rel::Tuple;
using rel::Value;

// ---------------------------------------------------------------------------
// Random CQ workloads: small domains force dense joins, repeated
// variables, and empty results with roughly equal probability.
// ---------------------------------------------------------------------------

struct RandomCq {
  ConjunctiveQuery query;
  Database db;
};

class CqFuzzer {
 public:
  explicit CqFuzzer(uint64_t seed) : rng_(seed) {}

  RandomCq Next() {
    RandomCq out;
    const int num_relations = Int(1, 3);
    std::vector<size_t> arities;
    for (int r = 0; r < num_relations; ++r) {
      size_t arity = static_cast<size_t>(Int(1, 3));
      arities.push_back(arity);
      Relation rel(arity);
      const int tuples = Int(0, 12);
      for (int t = 0; t < tuples; ++t) {
        Tuple tuple;
        for (size_t c = 0; c < arity; ++c) tuple.push_back(RandomValue());
        rel.Insert(std::move(tuple));
      }
      out.db.Set("R" + std::to_string(r), std::move(rel));
    }

    const int num_atoms = Int(1, 4);
    std::vector<Atom> body;
    int max_var = Int(1, 5);  // small pools force shared variables
    for (int a = 0; a < num_atoms; ++a) {
      int r = Int(0, num_relations - 1);
      Atom atom;
      atom.relation = "R" + std::to_string(r);
      for (size_t c = 0; c < arities[static_cast<size_t>(r)]; ++c) {
        if (Int(0, 4) == 0) {
          atom.args.push_back(Term::Const(RandomValue()));
        } else {
          atom.args.push_back(Term::Var(Int(0, max_var)));
        }
      }
      body.push_back(std::move(atom));
    }
    // Head: a random subset of the body's variables plus maybe a constant.
    std::set<int> body_vars;
    for (const Atom& a : body) {
      for (const Term& t : a.args) {
        if (t.is_var()) body_vars.insert(t.var());
      }
    }
    std::vector<Term> head;
    for (int v : body_vars) {
      if (Int(0, 2) == 0) head.push_back(Term::Var(v));
    }
    if (head.empty() || Int(0, 4) == 0) {
      head.push_back(Term::Const(Value::Int(99)));
    }
    // Comparisons among body variables and constants (always safe).
    std::vector<Comparison> comparisons;
    std::vector<int> var_pool(body_vars.begin(), body_vars.end());
    const int num_comparisons = Int(0, 2);
    for (int c = 0; c < num_comparisons && !var_pool.empty(); ++c) {
      Comparison cmp;
      cmp.lhs = Term::Var(var_pool[static_cast<size_t>(
          Int(0, static_cast<int>(var_pool.size()) - 1))]);
      cmp.rhs = Int(0, 1) == 0
                    ? Term::Const(RandomValue())
                    : Term::Var(var_pool[static_cast<size_t>(
                          Int(0, static_cast<int>(var_pool.size()) - 1))]);
      cmp.is_equality = Int(0, 1) == 0;
      comparisons.push_back(std::move(cmp));
    }
    out.query = ConjunctiveQuery(std::move(head), std::move(body),
                                 std::move(comparisons));
    return out;
  }

  // Small shared domain across all three kinds, so joins exercise the
  // interned packed representations (inline ints, interned strings,
  // labeled nulls) and still collide often enough to produce matches.
  Value RandomValue() {
    switch (Int(0, 3)) {
      case 0:
        return Value::Str("s" + std::to_string(Int(1, 3)));
      case 1:
        return Value::Null(Int(1, 3));
      default:
        return Value::Int(Int(1, 4));
    }
  }

  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
};

TEST(QueryEngineTest, IndexedJoinMatchesNaiveOnRandomQueries) {
  // The register-bytecode executor and the naive backtracking oracle
  // must agree on every randomized case.
  for (uint64_t seed : {20260806u, 977001u}) {
    CqFuzzer fuzzer(seed);
    for (int i = 0; i < 1000; ++i) {
      RandomCq c = fuzzer.Next();
      Relation fast = c.query.Evaluate(c.db);
      Relation naive = c.query.EvaluateNaive(c.db);
      ASSERT_EQ(fast, naive) << "seed " << seed << " case " << i << ": "
                             << c.query.ToString() << "\nover\n"
                             << c.db.ToString();
      ASSERT_EQ(c.query.EvaluatesNonempty(c.db), !naive.empty())
          << "seed " << seed << " case " << i << ": " << c.query.ToString();
    }
  }
}

TEST(QueryEngineTest, BytecodeHandlesConstantsComparisonsAndNullaryHeads) {
  auto v = [](int i) { return Term::Var(i); };
  Database db;
  Relation r(2);
  r.Insert({Value::Str("a"), Value::Int(1)});
  r.Insert({Value::Str("a"), Value::Int(2)});
  r.Insert({Value::Str("b"), Value::Int(2)});
  r.Insert({Value::Null(7), Value::Int(3)});
  db.Set("R", r);

  // Constant probe key + attached inequality.
  ConjunctiveQuery q1({v(1)},
                      {Atom{"R", {Term::Const(Value::Str("a")), v(1)}}},
                      {Comparison{v(1), Term::Int(1), false}});
  EXPECT_EQ(q1.Evaluate(db), q1.EvaluateNaive(db));
  EXPECT_EQ(q1.Evaluate(db).size(), 1u);

  // Repeated variable within one atom.
  Relation s(2);
  s.Insert({Value::Int(1), Value::Int(1)});
  s.Insert({Value::Int(1), Value::Int(2)});
  db.Set("S", s);
  ConjunctiveQuery q2({v(0)}, {Atom{"S", {v(0), v(0)}}});
  EXPECT_EQ(q2.Evaluate(db), q2.EvaluateNaive(db));
  EXPECT_EQ(q2.Evaluate(db).size(), 1u);

  // Nullary head over a purely existential body: {()} iff a match.
  ConjunctiveQuery q3({}, {Atom{"R", {v(0), v(1)}}, Atom{"S", {v(1), v(2)}}});
  Relation nullary = q3.Evaluate(db);
  EXPECT_EQ(nullary, q3.EvaluateNaive(db));
  EXPECT_EQ(nullary.size(), 1u);
  EXPECT_EQ(nullary.arity(), 0u);

  // Labeled nulls join only with their own label.
  ConjunctiveQuery q4({v(1)},
                      {Atom{"R", {Term::Const(Value::Null(7)), v(1)}}});
  EXPECT_EQ(q4.Evaluate(db).size(), 1u);
  ConjunctiveQuery q5({v(1)},
                      {Atom{"R", {Term::Const(Value::Null(8)), v(1)}}});
  EXPECT_TRUE(q5.Evaluate(db).empty());
}

TEST(QueryEngineTest, IndexedJoinTracksDatabaseMutation) {
  // Evaluate (building indexes), mutate the database, and re-evaluate:
  // stale indexes would produce answers from the pre-mutation instance.
  CqFuzzer fuzzer(7071);
  for (int i = 0; i < 300; ++i) {
    RandomCq c = fuzzer.Next();
    (void)c.query.Evaluate(c.db);  // populate index caches
    for (const auto& [name, rel] : c.db.relations()) {
      Relation* r = c.db.GetMutable(name);
      Tuple t;
      for (size_t col = 0; col < r->arity(); ++col) {
        t.push_back(fuzzer.RandomValue());
      }
      if (fuzzer.Int(0, 1) == 0) {
        r->Insert(std::move(t));
      } else if (!r->empty()) {
        r->Erase(*r->begin());
      }
    }
    Relation fast = c.query.Evaluate(c.db);
    Relation naive = c.query.EvaluateNaive(c.db);
    ASSERT_EQ(fast, naive) << "case " << i << " after mutation: "
                           << c.query.ToString();
  }
}

TEST(QueryEngineTest, EnumerateMatchesAgreesWithNaiveBindings) {
  // EnumerateMatches drives the containment machinery; its bindings must
  // enumerate exactly the homomorphisms the naive join finds.
  CqFuzzer fuzzer(424242);
  for (int i = 0; i < 300; ++i) {
    RandomCq c = fuzzer.Next();
    std::set<std::vector<std::pair<int, Value>>> fast_bindings;
    logic::EnumerateMatches(
        c.query.body(), c.query.comparisons(), c.db,
        [&](const logic::Binding& b) {
          fast_bindings.insert({b.begin(), b.end()});
          return true;
        });
    // The naive reference: project EvaluateNaive of the full-variable
    // head; the tuple set equals the distinct binding set.
    std::set<int> vars;
    for (const Atom& a : c.query.body()) {
      for (const Term& t : a.args) {
        if (t.is_var()) vars.insert(t.var());
      }
    }
    std::vector<Term> all_vars_head;
    for (int v : vars) all_vars_head.push_back(Term::Var(v));
    ConjunctiveQuery full(all_vars_head, c.query.body(),
                          c.query.comparisons());
    Relation naive = full.EvaluateNaive(c.db);
    std::set<std::vector<std::pair<int, Value>>> naive_bindings;
    for (const Tuple& t : naive) {
      std::vector<std::pair<int, Value>> b;
      size_t col = 0;
      for (int v : vars) b.emplace_back(v, t[col++]);
      naive_bindings.insert(std::move(b));
    }
    ASSERT_EQ(fast_bindings, naive_bindings)
        << "case " << i << ": " << c.query.ToString();
  }
}

TEST(QueryEngineTest, FoFromCqMatchesIndexedEvaluate) {
  // The FO engine shares ResolveTerm/active-domain caching; FromCq gives
  // an independent oracle for the CQ fast path (and vice versa).
  CqFuzzer fuzzer(555);
  int checked = 0;
  for (int i = 0; i < 200 && checked < 60; ++i) {
    RandomCq c = fuzzer.Next();
    // FO evaluation is exponential in head arity; keep it tiny.
    if (c.query.head().size() > 2 || c.query.Validate().has_value()) continue;
    ++checked;
    Relation cq = c.query.Evaluate(c.db);
    Relation fo = logic::FoQuery::FromCq(c.query).Evaluate(c.db);
    ASSERT_EQ(cq, fo) << "case " << i << ": " << c.query.ToString();
  }
  EXPECT_GE(checked, 30);
}

// ---------------------------------------------------------------------------
// Execution-tree memoization.
// ---------------------------------------------------------------------------

TEST(QueryEngineTest, MemoizedRunMatchesRawOnRandomServices) {
  core::WorkloadGenerator gen(977);
  core::WorkloadGenerator::CqSwsParams params;
  for (int i = 0; i < 300; ++i) {
    core::Sws sws = gen.RandomCqSws(params);
    Database db = gen.RandomDatabase(sws.db_schema(), 4, 5);
    rel::InputSequence input = gen.RandomInput(sws.rin_arity(), 4, 2, 5);

    core::RunOptions memo_on;
    memo_on.memoize = true;
    core::RunOptions memo_off;
    memo_off.memoize = false;
    core::RunResult with = core::Run(sws, db, input, memo_on);
    core::RunResult without = core::Run(sws, db, input, memo_off);

    ASSERT_EQ(with.status.ok(), without.status.ok()) << "case " << i;
    ASSERT_EQ(with.output, without.output) << "case " << i;
    ASSERT_EQ(with.max_timestamp, without.max_timestamp) << "case " << i;
    ASSERT_LE(with.num_nodes, without.num_nodes) << "case " << i;
    if (with.status.ok()) {
      // Every non-root node is classified as exactly one hit or miss.
      ASSERT_EQ(with.num_nodes, 1 + with.memo_hits + with.memo_misses)
          << "case " << i;
      ASSERT_EQ(with.memo_entries, with.memo_misses) << "case " << i;
    }
    ASSERT_EQ(without.memo_hits, 0u);
    ASSERT_EQ(without.memo_misses, 0u);
  }
}

TEST(QueryEngineTest, MemoizationCollapsesRepeatedSubtrees) {
  // The non-linear sirup embedding: two recursive body atoms make the
  // raw execution tree exponential in the fuel, but both recursive
  // children of a node carry identical (state, timestamp, Msg) labels,
  // so memoization collapses the tree to one path per level. The issue's
  // acceptance bar is a >= 10x node reduction.
  logic::Sirup sirup;
  auto v = [](int i) { return Term::Var(i); };
  sirup.rule = logic::DatalogRule{
      Atom{"P", {v(0), v(1)}},
      {Atom{"P", {v(0), v(2)}}, Atom{"P", {v(2), v(3)}},
       Atom{"E", {v(3), v(1)}}}};
  sirup.ground_fact = Atom{"P", {Term::Int(1), Term::Int(1)}};
  core::Sws sws = models::SirupToSws(sirup);
  Database edb;
  Relation e(2);
  for (int i = 1; i <= 6; ++i) {
    e.Insert({Value::Int(i), Value::Int(i + 1)});
  }
  edb.Set("E", e);
  rel::InputSequence fuel = models::SirupFuel(sirup, 8);

  core::RunOptions memo_on;
  core::RunOptions memo_off;
  memo_off.memoize = false;
  core::RunResult with = core::Run(sws, edb, fuel, memo_on);
  core::RunResult without = core::Run(sws, edb, fuel, memo_off);

  ASSERT_TRUE(with.status.ok());
  ASSERT_TRUE(without.status.ok());
  EXPECT_EQ(with.output, without.output);
  EXPECT_GT(with.memo_hits, 0u);
  EXPECT_GE(without.num_nodes, 10 * with.num_nodes)
      << "memoized=" << with.num_nodes << " raw=" << without.num_nodes;
  // The *logical* node count — what the un-memoized tree would evaluate —
  // must be identical either way: a memo hit charges the full replayed
  // subtree, so memoization is a speedup, not a budget loophole.
  EXPECT_EQ(with.logical_nodes, without.logical_nodes);
  EXPECT_EQ(without.logical_nodes, without.num_nodes);
}

TEST(QueryEngineTest, KeepTreeDisablesMemoization) {
  // A retained tree must materialize every subtree, so keep_tree wins
  // over memoize and the counters stay zero.
  logic::Sirup sirup;
  auto v = [](int i) { return Term::Var(i); };
  sirup.rule = logic::DatalogRule{
      Atom{"P", {v(0), v(1)}},
      {Atom{"P", {v(0), v(2)}}, Atom{"P", {v(2), v(3)}},
       Atom{"E", {v(3), v(1)}}}};
  sirup.ground_fact = Atom{"P", {Term::Int(1), Term::Int(1)}};
  core::Sws sws = models::SirupToSws(sirup);
  Database edb;
  Relation e(2);
  e.Insert({Value::Int(1), Value::Int(2)});
  edb.Set("E", e);
  rel::InputSequence fuel = models::SirupFuel(sirup, 4);

  core::RunOptions options;
  options.keep_tree = true;
  options.memoize = true;
  core::RunResult run = core::Run(sws, edb, fuel, options);
  ASSERT_TRUE(run.status.ok());
  ASSERT_NE(run.tree, nullptr);
  EXPECT_EQ(run.memo_hits, 0u);
  EXPECT_EQ(run.memo_misses, 0u);
  EXPECT_EQ(run.memo_entries, 0u);
  // Tree nodes carry their registers when retained.
  EXPECT_EQ(run.tree->msg.arity(), sws.rin_arity());
}

TEST(QueryEngineTest, MemoizedBudgetAbortStaysClean) {
  // A budget abort mid-subtree must not cache partial results or report
  // a partial output; rerunning with a budget exactly at the memoized
  // node count must succeed.
  logic::Sirup sirup;
  auto v = [](int i) { return Term::Var(i); };
  sirup.rule = logic::DatalogRule{
      Atom{"P", {v(0), v(1)}},
      {Atom{"P", {v(0), v(2)}}, Atom{"P", {v(2), v(3)}},
       Atom{"E", {v(3), v(1)}}}};
  sirup.ground_fact = Atom{"P", {Term::Int(1), Term::Int(1)}};
  core::Sws sws = models::SirupToSws(sirup);
  Database edb;
  Relation e(2);
  for (int i = 1; i <= 4; ++i) {
    e.Insert({Value::Int(i), Value::Int(i + 1)});
  }
  edb.Set("E", e);
  rel::InputSequence fuel = models::SirupFuel(sirup, 7);

  core::RunResult full = core::Run(sws, edb, fuel);
  ASSERT_TRUE(full.status.ok());

  // max_nodes bounds the *logical* tree (memo hits charge the replayed
  // subtree), so the budget that exactly fits is logical_nodes — the
  // same number a memoization-free run would report.
  core::RunOptions tight;
  tight.max_nodes = full.logical_nodes;
  core::RunResult ok = core::Run(sws, edb, fuel, tight);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.output, full.output);

  tight.max_nodes = full.logical_nodes - 1;
  core::RunResult aborted = core::Run(sws, edb, fuel, tight);
  EXPECT_FALSE(aborted.status.ok());
  EXPECT_TRUE(aborted.output.empty());
}

}  // namespace
}  // namespace sws
