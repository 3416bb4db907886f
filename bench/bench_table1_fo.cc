// Table 1, FO row: everything is undecidable, already for
// SWS_nr(FO, FO), by reduction from FO (finite) satisfiability. What a
// benchmark *can* show is the cost profile of the only implementable
// procedure — bounded (D, I) enumeration — whose instance space explodes
// doubly exponentially in the domain/arity bounds, illustrating why no
// uniform procedure exists.

#include <benchmark/benchmark.h>

#include "analysis/fo_analysis.h"
#include "models/travel.h"
#include "sws/execution.h"

namespace {

using sws::analysis::FoBoundedNonEmptiness;
using sws::analysis::FoBoundedOptions;
using sws::analysis::FoSatToSws;
using sws::logic::FoFormula;
using sws::logic::Term;

FoFormula UnsatisfiableSentence() {
  FoFormula nonempty =
      FoFormula::Exists(0, FoFormula::MakeAtom("R", {Term::Var(0)}));
  FoFormula empty = FoFormula::Forall(
      0, FoFormula::Not(FoFormula::MakeAtom("R", {Term::Var(0)})));
  return FoFormula::And(nonempty, empty);
}

FoFormula NeedsTwoElements() {
  return FoFormula::Exists(
      0, FoFormula::Exists(
             1, FoFormula::And(
                    FoFormula::MakeAtom("R", {Term::Var(0), Term::Var(1)}),
                    FoFormula::Neq(Term::Var(0), Term::Var(1)))));
}

// The instance space over domain {1..k}: 2^(k^arity) databases per
// relation — the enumeration's cost explodes with the domain bound.
void BM_FoBoundedSearchUnsat(benchmark::State& state) {
  auto sws = FoSatToSws(UnsatisfiableSentence());
  FoBoundedOptions options;
  options.max_domain_size = static_cast<size_t>(state.range(0));
  options.max_instances = 2000000;
  uint64_t instances = 0;
  for (auto _ : state) {
    auto result = FoBoundedNonEmptiness(sws, options);
    benchmark::DoNotOptimize(result.found);
    instances = result.instances_checked;
  }
  state.counters["instances"] = static_cast<double>(instances);
}
BENCHMARK(BM_FoBoundedSearchUnsat)->DenseRange(1, 3);

void BM_FoBoundedSearchSat(benchmark::State& state) {
  auto sws = FoSatToSws(NeedsTwoElements());
  FoBoundedOptions options;
  options.max_domain_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FoBoundedNonEmptiness(sws, options).found);
  }
}
BENCHMARK(BM_FoBoundedSearchSat)->DenseRange(2, 4);

// Equivalence refutation against the empty service (the reduction's
// equivalence half).
void BM_FoBoundedInequivalence(benchmark::State& state) {
  auto sws = FoSatToSws(NeedsTwoElements());
  auto empty = sws::analysis::EmptyServiceLike(sws);
  FoBoundedOptions options;
  options.max_domain_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sws::analysis::FoBoundedInequivalence(sws, empty, options).found);
  }
}
BENCHMARK(BM_FoBoundedInequivalence)->DenseRange(2, 3);

// FO-run cost on the data-driven travel service (active-domain
// evaluation of the deterministic-preference synthesis).
void BM_FoTravelRun(benchmark::State& state) {
  auto service = sws::models::MakeTravelService();
  auto db = sws::models::MakeTravelDatabase();
  sws::rel::InputSequence input(3);
  input.Append(sws::models::MakeTravelRequest("orlando", 1000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sws::core::Run(service.sws, db, input).output.size());
  }
}
BENCHMARK(BM_FoTravelRun);

// FO shapes that range over the active domain (DESIGN.md §12): each
// variable that nothing binds reads the unary active-domain relation.
//   0: vacuous ∃ at depth 4 — ans(x) :- ∃y1..y4 R(x), |R| = 30;
//   1: an unrelated ∃ — ans(x) :- R(x) ∧ ∃y ¬S(y), |R| = |S| = 1,000
//      (disjoint);
//   2: the closed-walk ∀-tautology at depth 4 — ans(1) :- ∀x0..x4
//      (E(x0,x1) ∧ … ∧ E(x3,x4) → E(x4,x0)) over a 12-node complete
//      digraph.
// Shapes 0 and 1 cost one witness per head-free component; shape 2 is
// one connected join over every walk.
void BM_FoActiveDomain(benchmark::State& state) {
  using sws::logic::FoQuery;
  using sws::rel::Relation;
  using sws::rel::Value;
  auto v = [](int i) { return Term::Var(i); };
  auto unary = [](int from, int n) {
    Relation r(1);
    for (int i = 0; i < n; ++i) r.Insert({Value::Int(from + i)});
    return r;
  };
  sws::rel::Database db;
  FoQuery query;
  switch (state.range(0)) {
    case 0:
      db.Set("R", unary(0, 30));
      query = FoQuery(
          {v(0)},
          FoFormula::Exists({1, 2, 3, 4}, FoFormula::MakeAtom("R", {v(0)})));
      state.SetLabel("vacuous exists, depth 4, |R| = 30");
      break;
    case 1:
      db.Set("R", unary(0, 1000));
      db.Set("S", unary(1000, 1000));
      query = FoQuery(
          {v(0)}, FoFormula::And(FoFormula::MakeAtom("R", {v(0)}),
                                 FoFormula::Exists(
                                     1, FoFormula::Not(FoFormula::MakeAtom(
                                            "S", {v(1)})))));
      state.SetLabel("R(x) & exists y !S(y), |R| = |S| = 1000");
      break;
    default: {
      Relation e(2);
      for (int i = 0; i < 12; ++i) {
        for (int j = 0; j < 12; ++j) e.Insert({Value::Int(i), Value::Int(j)});
      }
      db.Set("E", e);
      std::vector<FoFormula> walk;
      for (int i = 0; i < 4; ++i) {
        walk.push_back(FoFormula::MakeAtom("E", {v(i), v(i + 1)}));
      }
      query = FoQuery(
          {Term::Int(1)},
          FoFormula::Forall({0, 1, 2, 3, 4},
                            FoFormula::Implies(
                                FoFormula::And(std::move(walk)),
                                FoFormula::MakeAtom("E", {v(4), v(0)}))));
      state.SetLabel("closed-walk forall, depth 4, complete digraph n = 12");
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.Evaluate(db).size());
  }
}
BENCHMARK(BM_FoActiveDomain)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
