// Ablation benchmarks for the design choices DESIGN.md calls out:
//  1. CQ evaluation: greedy join ordering + connected-component
//     decomposition vs. the naive textual-order backtracking join. The
//     unfolding produces "guard-heavy" queries (many fresh-variable
//     existential atoms); without the optimizations they evaluate as
//     cross-products.
//  2. Unfolding with vs. without unsatisfiable-disjunct pruning
//     (measured via the disjunct bound vs. the surviving disjuncts).

#include <benchmark/benchmark.h>

#include "logic/cq.h"
#include "models/travel.h"
#include "sws/execution.h"
#include "sws/generator.h"
#include "sws/unfold.h"

namespace {

using sws::logic::Atom;
using sws::logic::ConjunctiveQuery;
using sws::logic::Term;

// A guard-heavy query: `guards` independent existential R-atoms with all
// fresh variables, plus one head atom. The naive join is |R|^guards.
ConjunctiveQuery GuardHeavyQuery(int guards) {
  std::vector<Atom> body;
  body.push_back(Atom{"R", {Term::Var(0), Term::Var(1)}});
  for (int g = 0; g < guards; ++g) {
    body.push_back(Atom{"R", {Term::Var(2 + 2 * g), Term::Var(3 + 2 * g)}});
  }
  return ConjunctiveQuery({Term::Var(0)}, body);
}

sws::rel::Database GuardDb(int tuples) {
  sws::core::WorkloadGenerator gen(5);
  sws::rel::Schema schema;
  schema.Add(sws::rel::RelationSchema("R", {"a", "b"}));
  return gen.RandomDatabase(schema, static_cast<size_t>(tuples), 10);
}

void BM_CqEvalOptimized(benchmark::State& state) {
  ConjunctiveQuery q = GuardHeavyQuery(static_cast<int>(state.range(0)));
  sws::rel::Database db = GuardDb(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Evaluate(db).size());
  }
}
BENCHMARK(BM_CqEvalOptimized)->DenseRange(1, 7);

void BM_CqEvalNaive(benchmark::State& state) {
  ConjunctiveQuery q = GuardHeavyQuery(static_cast<int>(state.range(0)));
  sws::rel::Database db = GuardDb(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.EvaluateNaive(db).size());
  }
}
BENCHMARK(BM_CqEvalNaive)->DenseRange(1, 7);

// Join-ordering only (connected query, no decomposition possible): a
// chain R(x0,x1), R(x1,x2), ..., written in reverse order so the naive
// evaluator starts from the unselective end.
void BM_CqChainOrdering(benchmark::State& state) {
  int len = static_cast<int>(state.range(0));
  std::vector<Atom> body;
  body.push_back(Atom{"S", {Term::Var(0)}});  // selective anchor
  for (int i = len - 1; i >= 0; --i) {
    body.push_back(Atom{"R", {Term::Var(i), Term::Var(i + 1)}});
  }
  std::reverse(body.begin(), body.end());  // R-chain first, anchor last
  ConjunctiveQuery q({Term::Var(len)}, body);
  sws::core::WorkloadGenerator gen(6);
  sws::rel::Schema schema;
  schema.Add(sws::rel::RelationSchema("R", {"a", "b"}));
  schema.Add(sws::rel::RelationSchema("S", {"a"}));
  sws::rel::Database db = gen.RandomDatabase(schema, 12, 6);
  // Shrink S to one tuple: the anchor the optimizer should start from.
  sws::rel::Relation s(1);
  s.Insert({sws::rel::Value::Int(1)});
  db.Set("S", s);
  if (state.range(1) == 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(q.Evaluate(db).size());
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(q.EvaluateNaive(db).size());
    }
  }
}
BENCHMARK(BM_CqChainOrdering)
    ->ArgsProduct({{2, 4, 6}, {0, 1}});  // {chain length} × {opt, naive}

// Unfolding pruning: the satisfiable disjuncts vs. the syntactic bound
// on the travel service (whose tag constants make many combinations
// inconsistent).
void BM_UnfoldPruning(benchmark::State& state) {
  auto service = sws::models::MakeTravelServiceCqUcq();
  size_t kept = 0;
  size_t bound = 0;
  for (auto _ : state) {
    auto u = sws::core::UnfoldToUcq(service.sws, 1);
    benchmark::DoNotOptimize(u.size());
    kept = u.size();
    bound = sws::core::UnfoldDisjunctBound(service.sws, 1);
  }
  state.counters["disjuncts_kept"] = static_cast<double>(kept);
  state.counters["syntactic_bound"] = static_cast<double>(bound);
}
BENCHMARK(BM_UnfoldPruning);

}  // namespace

BENCHMARK_MAIN();
