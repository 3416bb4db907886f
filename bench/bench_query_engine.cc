// Query-engine benchmarks (PR 3): the indexed join planner vs the
// naive nested-loop evaluator on a chain join, execution-tree
// memoization vs raw re-evaluation on the non-linear sirup embedding,
// and one service run's cost as the catalog grows.
// The checked-in baseline is BENCH_query_engine.json; regenerate with
//   scripts/check.sh bench
// after any change to the relational layer, the CQ planner or the run
// engine.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "logic/cq.h"
#include "logic/datalog.h"
#include "models/sirup_sws.h"
#include "models/travel.h"
#include "relational/database.h"
#include "sws/execution.h"

namespace {

using sws::logic::Atom;
using sws::logic::ConjunctiveQuery;
using sws::logic::Term;
using sws::rel::Database;
using sws::rel::Relation;
using sws::rel::Value;

// A seeded random edge relation over domain [0, 64): with |R| tuples
// the chain join R(x0,x1), R(x1,x2), R(x2,x3) has ~|R|^3 / 64^2
// matches, so the naive evaluator does Θ(|R|^3) match attempts while
// the indexed plan only walks actual join partners.
Database ChainDb(size_t tuples) {
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int64_t> node(0, 63);
  Relation r(2);
  while (r.size() < tuples) {
    r.Insert({Value::Int(node(rng)), Value::Int(node(rng))});
  }
  Database db;
  db.Set("R", r);
  return db;
}

ConjunctiveQuery ChainQuery() {
  auto v = [](int i) { return Term::Var(i); };
  return ConjunctiveQuery({v(0), v(3)},
                          {Atom{"R", {v(0), v(1)}}, Atom{"R", {v(1), v(2)}},
                           Atom{"R", {v(2), v(3)}}});
}

void BM_CqChainJoinIndexed(benchmark::State& state) {
  Database db = ChainDb(static_cast<size_t>(state.range(0)));
  ConjunctiveQuery q = ChainQuery();
  size_t out = 0;
  for (auto _ : state) {
    Relation result = q.Evaluate(db);
    benchmark::DoNotOptimize(result);
    out = result.size();
  }
  state.counters["output_tuples"] = static_cast<double>(out);
}
BENCHMARK(BM_CqChainJoinIndexed)->RangeMultiplier(2)->Range(64, 512);

void BM_CqChainJoinNaive(benchmark::State& state) {
  Database db = ChainDb(static_cast<size_t>(state.range(0)));
  ConjunctiveQuery q = ChainQuery();
  size_t out = 0;
  for (auto _ : state) {
    Relation result = q.EvaluateNaive(db);
    benchmark::DoNotOptimize(result);
    out = result.size();
  }
  state.counters["output_tuples"] = static_cast<double>(out);
}
BENCHMARK(BM_CqChainJoinNaive)->RangeMultiplier(2)->Range(64, 512);

// Boolean satisfiability check (bytecode::HasMatch per component): it
// short-circuits on the first witness, the naive evaluator still
// materializes the full result before testing emptiness.
void BM_CqNonemptyIndexed(benchmark::State& state) {
  Database db = ChainDb(static_cast<size_t>(state.range(0)));
  ConjunctiveQuery q = ChainQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.EvaluatesNonempty(db));
  }
}
BENCHMARK(BM_CqNonemptyIndexed)->RangeMultiplier(2)->Range(64, 512);

// The non-linear sirup P(x,y) :- P(x,z), P(z,w), E(w,y): its execution
// tree is exponential in the fuel, but both recursive children of a
// node carry identical (state, timestamp, Msg) labels, so memoization
// collapses the tree to one evaluation per distinct label.
sws::logic::Sirup NonLinearSirup() {
  auto v = [](int i) { return Term::Var(i); };
  sws::logic::Sirup sirup;
  sirup.rule = sws::logic::DatalogRule{
      Atom{"P", {v(0), v(1)}},
      {Atom{"P", {v(0), v(2)}}, Atom{"P", {v(2), v(3)}},
       Atom{"E", {v(3), v(1)}}}};
  sirup.ground_fact = Atom{"P", {Term::Int(1), Term::Int(1)}};
  return sirup;
}

Database SirupDb() {
  Relation e(2);
  for (int i = 1; i <= 6; ++i) {
    e.Insert({Value::Int(i), Value::Int(i + 1)});
  }
  Database db;
  db.Set("E", e);
  return db;
}

void BM_RunSirupMemoized(benchmark::State& state) {
  sws::logic::Sirup sirup = NonLinearSirup();
  sws::core::Sws sws = sws::models::SirupToSws(sirup);
  Database db = SirupDb();
  sws::rel::InputSequence fuel =
      sws::models::SirupFuel(sirup, static_cast<size_t>(state.range(0)));
  size_t nodes = 0, hits = 0;
  for (auto _ : state) {
    sws::core::RunResult result = sws::core::Run(sws, db, fuel);
    benchmark::DoNotOptimize(result.output);
    nodes = result.num_nodes;
    hits = result.memo_hits;
  }
  state.counters["tree_nodes"] = static_cast<double>(nodes);
  state.counters["memo_hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_RunSirupMemoized)->DenseRange(4, 8);

void BM_RunSirupRaw(benchmark::State& state) {
  sws::logic::Sirup sirup = NonLinearSirup();
  sws::core::Sws sws = sws::models::SirupToSws(sirup);
  Database db = SirupDb();
  sws::rel::InputSequence fuel =
      sws::models::SirupFuel(sirup, static_cast<size_t>(state.range(0)));
  sws::core::RunOptions options;
  options.memoize = false;
  size_t nodes = 0;
  for (auto _ : state) {
    sws::core::RunResult result = sws::core::Run(sws, db, fuel, options);
    benchmark::DoNotOptimize(result.output);
    nodes = result.num_nodes;
  }
  state.counters["tree_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_RunSirupRaw)->DenseRange(4, 8);

// One run of the CQ/UCQ travel service on a four-tag Orlando request,
// over the sample catalog with `extra` cities added to each of the four
// offer relations (built in bulk). The answer touches the same few
// catalog rows at every size, so the run cost should not grow with |D|:
// the run's environment shares the catalog's storage, and the indexes
// built by the warm-up run are reused by every timed run.
void BM_UcqCatalogScaling(benchmark::State& state) {
  const sws::models::TravelService service =
      sws::models::MakeTravelServiceCqUcq();
  const Database base = sws::models::MakeTravelDatabase();
  Database db = base;
  const int64_t extra = state.range(0);
  for (const auto& [name, relation] : base.relations()) {
    std::vector<Value> rows;
    for (size_t r = 0; r < relation.size(); ++r) {
      rows.push_back(relation.At(r, 0));
      rows.push_back(relation.At(r, 1));
    }
    for (int64_t i = 0; i < extra; ++i) {
      rows.push_back(Value::Str("city" + std::to_string(i)));
      rows.push_back(Value::Int(100 + i % 500));
    }
    db.Set(name, Relation::FromRowMajor(2, rows));
  }
  sws::rel::InputSequence input(service.sws.rin_arity());
  input.Append(sws::models::MakeTravelRequest("orlando", 1000));
  const Relation expected = sws::core::Run(service.sws, db, input).output;
  size_t out = 0;
  for (auto _ : state) {
    sws::core::RunResult result = sws::core::Run(service.sws, db, input);
    benchmark::DoNotOptimize(result.output);
    out = result.output.size();
  }
  if (out != expected.size()) state.SkipWithError("output changed");
  state.counters["output_tuples"] = static_cast<double>(out);
}
BENCHMARK(BM_UcqCatalogScaling)->Arg(0)->Arg(256)->Arg(4096)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
