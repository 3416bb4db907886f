// Differential tests for the indexed query engine (logic/cq.cc,
// relational/relation.cc) and the execution-tree memoization
// (sws/execution.cc): the optimized paths must be observationally
// identical to the naive baselines on randomized workloads, and the
// memo/index caches must invalidate correctly under mutation.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <vector>

#include "cq_fuzzer.h"
#include "cq_oracles.h"
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

// Random CQ workloads come from CqFuzzer (cq_fuzzer.h).

TEST(QueryEngineTest, IndexedJoinMatchesNaiveOnRandomQueries) {
  // The register-bytecode executor and the naive backtracking oracle
  // must agree on every randomized case. CqFuzzer's relations hold at
  // most kScanRows tuples, so all their levels scan; every other case
  // grows each relation of arity 2 or 3 past kScanRows, where a level
  // with a constant or bound column probes an index instead.
  for (uint64_t seed : {20260806u, 977001u}) {
    CqFuzzer fuzzer(seed);
    for (int i = 0; i < 1000; ++i) {
      RandomCq c = fuzzer.Next();
      if (i % 2 == 1) fuzzer.GrowPast(&c.db, logic::bytecode::kScanRows);
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

// Relations of exactly `rows` random tuples over CqFuzzer's small
// domain: R0 of arity 3 and R1 of arity 2.
Database RelationsOfSize(CqFuzzer* fuzzer, size_t rows) {
  Database db;
  for (size_t arity : {3u, 2u}) {
    Relation r(arity);
    fuzzer->Fill(&r, rows);
    db.Set("R" + std::to_string(db.relations().size()), std::move(r));
  }
  return db;
}

TEST(QueryEngineTest, ScannedAndIndexedLevelsMatchNaive) {
  // At most kScanRows rows a level scans its relation and checks its
  // constant and bound columns per row; above, it probes an index.
  // Both sides of the threshold must agree with the naive join.
  const size_t threshold = logic::bytecode::kScanRows;
  auto v = [](int i) { return Term::Var(i); };
  const Term s1 = Term::Const(Value::Str("s1"));
  const Term two = Term::Int(2);
  const std::vector<ConjunctiveQuery> shapes = {
      // A constant column, and a constant and a repeated variable.
      ConjunctiveQuery({v(0), v(1)}, {Atom{"R0", {s1, v(0), v(1)}}}),
      ConjunctiveQuery({v(0)}, {Atom{"R0", {v(0), two, v(0)}}}),
      // Columns bound by an earlier level, with '≠' and '='.
      ConjunctiveQuery({v(0), v(3)},
                       {Atom{"R0", {v(0), v(1), v(2)}},
                        Atom{"R1", {v(2), v(3)}}},
                       {Comparison{v(0), v(3), false}}),
      ConjunctiveQuery({v(0), v(2)},
                       {Atom{"R0", {v(0), v(1), v(2)}},
                        Atom{"R1", {v(1), v(3)}}, Atom{"R1", {v(3), v(2)}}},
                       {Comparison{v(1), v(3), true}}),
      ConjunctiveQuery({v(1)},
                       {Atom{"R1", {v(0), v(1)}},
                        Atom{"R0", {v(1), v(0), v(2)}}},
                       {Comparison{v(2), s1, true},
                        Comparison{v(0), v(1), false}}),
      // A nullary head over a join.
      ConjunctiveQuery({}, {Atom{"R0", {v(0), v(1), v(2)}},
                            Atom{"R1", {v(2), v(0)}}}),
  };
  size_t answered = 0, checked = 0;
  for (size_t rows : {threshold - 1, threshold, threshold + 1}) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      CqFuzzer fuzzer(seed * 131 + rows);
      const Database db = RelationsOfSize(&fuzzer, rows);
      std::vector<ConjunctiveQuery> queries = shapes;
      auto constant = [&fuzzer] { return fuzzer.RandomValue(); };
      for (int i = 0; i < 30; ++i) {
        queries.push_back(fuzzer.Query({3, 2}, static_cast<size_t>(i % 3),
                                       4, 4, 2, constant));
      }
      for (const ConjunctiveQuery& q : queries) {
        const Relation naive = q.EvaluateNaive(db);
        ++checked;
        answered += naive.empty() ? 0 : 1;
        ASSERT_EQ(q.Evaluate(db), naive)
            << rows << " rows, seed " << seed << ": " << q.ToString()
            << "\nover\n" << db.ToString();
        ASSERT_EQ(q.EvaluatesNonempty(db), !naive.empty())
            << rows << " rows, seed " << seed << ": " << q.ToString();
        const logic::PreparedCq prepared(q);
        for (const Tuple& t : naive) {
          ASSERT_TRUE(prepared.Produces(db, t))
              << rows << " rows, seed " << seed << ": " << q.ToString();
        }
      }
    }
  }
  std::printf("%zu of %zu queries have answers\n", answered, checked);
  EXPECT_GE(answered * 4, checked);  // the joins are not vacuous
}

TEST(QueryEngineTest, LowerScansSmallRelationsAndProbesLargeOnes) {
  // R(s1, x), R(x, y): both levels have a bound column (the constant, then
  // x). Neither builds an index at or below kScanRows rows.
  const size_t threshold = logic::bytecode::kScanRows;
  const std::vector<Atom> atoms = {
      Atom{"R", {Term::Const(Value::Str("s1")), Term::Var(0)}},
      Atom{"R", {Term::Var(0), Term::Var(1)}}};
  logic::SlotMap slots;
  slots.Extend({0, 1});
  const logic::bytecode::Body body =
      logic::PrepareBody(slots, 0, atoms, {2}, {});
  for (size_t rows : {size_t{1}, threshold - 1, threshold, threshold + 1,
                      4 * threshold}) {
    Relation r(2);
    for (size_t i = 0; r.size() < rows; ++i) {
      r.Insert({Value::Str("s" + std::to_string(i % 3)), Value::Int(i)});
    }
    Database db;
    db.Set("R", r);
    const logic::bytecode::JoinProgram program =
        logic::bytecode::Lower(body, db, 0, 1);
    ASSERT_EQ(program.levels.size(), 2u);
    for (const logic::bytecode::Level& level : program.levels) {
      EXPECT_EQ(level.index != nullptr, rows > threshold) << rows << " rows";
    }
  }
}

TEST(QueryEngineTest, EmitDedupesLargeOutputsGroupedAndUngrouped) {
  // Two-step paths over a 2,000-edge graph: 20,000 paths project to over
  // 10,000 distinct (x, z) pairs. Head (x, z) is emitted grouped by the
  // outer scan's x; head (z, x) goes through one table for the whole
  // output. Either way the table starts small and grows by rehashing.
  std::mt19937_64 rng(2026);
  Relation e(2);
  for (int x = 0; x < 200; ++x) {
    while (e.size() < static_cast<size_t>(10 * (x + 1))) {
      e.Insert({Value::Int(x), Value::Int(static_cast<int64_t>(rng() % 200))});
    }
  }
  Database db;
  db.Set("E", e);
  size_t paths = 0;
  for (size_t row = 0; row < e.size(); ++row) {
    for (size_t next = 0; next < e.size(); ++next) {
      paths += e.At(next, 0) == e.At(row, 1) ? 1 : 0;
    }
  }
  auto v = [](int i) { return Term::Var(i); };
  const std::vector<Atom> body = {Atom{"E", {v(0), v(1)}},
                                  Atom{"E", {v(1), v(2)}}};
  for (const std::vector<Term>& head :
       {std::vector<Term>{v(0), v(2)}, std::vector<Term>{v(2), v(0)}}) {
    const ConjunctiveQuery q(head, body);
    const Relation fast = q.Evaluate(db);
    EXPECT_GE(fast.size(), 10'000u) << q.ToString();
    EXPECT_GT(paths, fast.size()) << "some paths must repeat a head row";
    EXPECT_EQ(fast, q.EvaluateNaive(db)) << q.ToString();
  }
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
  // The whole-body lowering behind the containment oracle's
  // EnumerateMatches must enumerate exactly the homomorphisms the naive
  // join finds.
  CqFuzzer fuzzer(424242);
  for (int i = 0; i < 300; ++i) {
    RandomCq c = fuzzer.Next();
    if (i % 2 == 1) fuzzer.GrowPast(&c.db, logic::bytecode::kScanRows);
    std::set<std::vector<std::pair<int, Value>>> fast_bindings;
    logic::oracle::EnumerateMatches(
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
