// FO compilation (logic/fo.cc onto logic/bytecode.h): every query must
// return exactly the relation the active-domain interpreter in
// fo_oracle.h returns, a lowered positive query must be Klug-equivalent
// to its source UCQ, a query that ranges over the active domain must pay
// for one witness per head-free component, and a compiled query must
// still stop on a deadline or fuel budget.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "fo_oracle.h"
#include "logic/containment.h"
#include "logic/fo.h"
#include "logic/ucq.h"
#include "sws/execution.h"
#include "sws/query.h"

namespace sws {
namespace {

using logic::Atom;
using logic::Comparison;
using logic::ConjunctiveQuery;
using logic::FoFormula;
using logic::FoQuery;
using logic::Term;
using logic::UnionQuery;
using rel::Database;
using rel::Relation;
using rel::Tuple;
using rel::Value;

Term V(int i) { return Term::Var(i); }

// ---------------------------------------------------------------------------
// Random formulas. Blocks are safe-range by construction: every variable a
// block binds or quantifies occurs in a positive atom (or is equated with a
// constant), and each negation, ∀ and extra disjunction reads only
// variables bound around it. A share of the queries break that on purpose
// (non_safe_range() counts them), so that variables range over the
// active-domain relation too.
// ---------------------------------------------------------------------------

class FoFuzzer {
 public:
  explicit FoFuzzer(uint64_t seed) : rng_(seed) {}

  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool Chance(int percent) { return Int(1, 100) <= percent; }

  Value RandomValue() {
    switch (Int(0, 3)) {
      case 0:
        return Value::Str(Chance(50) ? "a" : "b");
      default:
        return Value::Int(Int(1, 3));
    }
  }

  // Mostly the database's values; sometimes outside its active domain.
  Term RandomConst() {
    if (Chance(20)) {
      return Term::Const(Chance(50) ? Value::Int(7) : Value::Str("zz"));
    }
    return Term::Const(RandomValue());
  }

  // R/2, S/1, T/3 and W/2; formulas read W as 1-ary (an arity mismatch)
  // and G, which no database holds. Some relations come out empty.
  Database RandomDb() {
    Database db;
    const std::pair<const char*, size_t> relations[] = {
        {"R", 2}, {"S", 1}, {"T", 3}, {"W", 2}};
    for (const auto& [name, arity] : relations) {
      Relation r(arity);
      const int n = Chance(15) ? 0 : Int(1, 7);
      for (int i = 0; i < n; ++i) {
        Tuple t;
        for (size_t c = 0; c < arity; ++c) t.push_back(RandomValue());
        r.Insert(std::move(t));
      }
      db.Set(name, std::move(r));
    }
    return db;
  }

  // An atom whose arguments come from `vars` (repeats allowed) and
  // constants; `must` (if >= 0) is placed at a random position.
  FoFormula RandomAtom(const std::vector<int>& vars, int must = -1) {
    static const std::pair<const char*, size_t> kSignature[] = {
        {"R", 2}, {"R", 2}, {"S", 1}, {"T", 3}, {"T", 3}, {"W", 1}, {"G", 2}};
    const auto& [name, arity] = kSignature[Int(0, 6)];
    std::vector<Term> args;
    for (size_t c = 0; c < arity; ++c) {
      if (vars.empty() || Chance(15)) {
        args.push_back(RandomConst());
      } else {
        args.push_back(V(vars[static_cast<size_t>(
            Int(0, static_cast<int>(vars.size()) - 1))]));
      }
    }
    if (must >= 0) args[static_cast<size_t>(Int(0, int(arity) - 1))] = V(must);
    return FoFormula::MakeAtom(name, std::move(args));
  }

  Term RandomOperand(const std::vector<int>& vars) {
    if (vars.empty() || Chance(30)) return RandomConst();
    return V(vars[static_cast<size_t>(
        Int(0, static_cast<int>(vars.size()) - 1))]);
  }

  // A conjunction binding every variable of `binds` positively; it may
  // read the variables of `ctx`, bound by the enclosing conjunction.
  FoFormula Block(const std::vector<int>& binds, const std::vector<int>& ctx,
                  int depth) {
    std::vector<int> locals;
    for (int i = Int(0, depth > 0 ? 1 : 2); i > 0; --i) {
      locals.push_back(next_var_++);
    }
    std::vector<int> bound = ctx;
    bound.insert(bound.end(), binds.begin(), binds.end());
    bound.insert(bound.end(), locals.begin(), locals.end());
    std::vector<FoFormula> conj;
    std::vector<int> cover = binds;
    cover.insert(cover.end(), locals.begin(), locals.end());
    for (int v : cover) {
      if (Chance(10)) {
        conj.push_back(FoFormula::Eq(V(v), RandomConst()));
      } else if (Chance(15)) {  // a binding disjunction
        conj.push_back(
            FoFormula::Or(RandomAtom(bound, v), RandomAtom(bound, v)));
      } else {
        conj.push_back(RandomAtom(bound, v));
      }
    }
    for (int extras = Int(0, 2); extras > 0; --extras) {
      switch (Int(0, depth > 0 ? 7 : 3)) {
        case 0:
          conj.push_back(FoFormula::Eq(RandomOperand(bound),
                                       RandomOperand(bound)));
          break;
        case 1:
          conj.push_back(FoFormula::Neq(RandomOperand(bound),
                                        RandomOperand(bound)));
          break;
        case 2:
        case 3:  // a guarded negated atom
          conj.push_back(FoFormula::Not(RandomAtom(bound)));
          break;
        case 4:  // ¬∃ȳ φ, φ reading the bound variables
          conj.push_back(FoFormula::Not(Block({}, bound, depth - 1)));
          break;
        case 5:  // a closed negated sentence
          conj.push_back(FoFormula::Not(Block({}, {}, depth - 1)));
          break;
        case 6: {  // safe-range ∀z (A(z, …) → φ)
          const int z = next_var_++;
          std::vector<int> with_z = bound;
          with_z.push_back(z);
          conj.push_back(FoFormula::Forall(
              z, FoFormula::Implies(RandomAtom(with_z, z),
                                    Block({}, with_z, depth - 1))));
          break;
        }
        default:  // a disjunction over bound variables
          conj.push_back(FoFormula::Or(Block({}, bound, depth - 1),
                                       Block({}, bound, depth - 1)));
      }
    }
    return FoFormula::Exists(locals, FoFormula::And(std::move(conj)));
  }

  FoQuery NextQuery() {
    next_var_ = 0;
    std::vector<int> head_vars;
    for (int i = Int(0, 2); i > 0; --i) head_vars.push_back(next_var_++);
    FoFormula f = Block(head_vars, {}, Int(0, 2));
    if (Chance(30)) f = FoFormula::Or(f, Block(head_vars, {}, Int(0, 1)));
    std::vector<Term> head;
    for (int v : head_vars) head.push_back(V(v));
    if (!head_vars.empty() && Chance(15)) head.push_back(V(head_vars[0]));
    if (Chance(15)) head.insert(head.begin(), RandomConst());
    // Not safe-range: an unguarded negation or an unrestricted head
    // variable, both ranging over the active-domain relation.
    bool safe_range = true;
    if (Chance(6)) {
      const int z = next_var_++;
      f = FoFormula::And(f, FoFormula::Exists(z, FoFormula::Not(
                                                  RandomAtom({z}, z))));
      safe_range = false;
    }
    if (Chance(4)) {
      head.push_back(V(next_var_++));
      safe_range = false;
    }
    non_safe_range_ += safe_range ? 0 : 1;
    return FoQuery(std::move(head), std::move(f));
  }

  int non_safe_range() const { return non_safe_range_; }

 private:
  std::mt19937_64 rng_;
  int next_var_ = 0;
  int non_safe_range_ = 0;
};

TEST(FoCompileTest, CompiledMatchesInterpreterOnRandomFormulas) {
  constexpr int kCases = 2500;
  FoFuzzer fuzzer(20261017);
  int nonempty = 0;
  for (int i = 0; i < kCases; ++i) {
    Database db = fuzzer.RandomDb();
    FoQuery q = fuzzer.NextQuery();
    Relation fast = q.Evaluate(db);
    nonempty += fast.empty() ? 0 : 1;
    ASSERT_EQ(fast, logic::oracle::Evaluate(q, db))
        << "case " << i << ": " << q.ToString() << "\nover\n"
        << db.ToString();
  }
  EXPECT_GE(fuzzer.non_safe_range(), kCases / 20);
  EXPECT_GE(nonempty, 500);
}

// One hand-written query per lowering rule, each over databases that
// include empty relations.
TEST(FoCompileTest, EdgeCasesCompileAndMatchTheInterpreter) {
  auto binary_or = [](int i) {
    return FoFormula::Or(
        FoFormula::MakeAtom("R", {V(0), Term::Int(i % 3 + 1)}),
        FoFormula::MakeAtom("T", {V(0), V(0), Term::Int(i % 2 + 1)}));
  };
  std::vector<FoFormula> seven_ors;
  for (int i = 0; i < 7; ++i) seven_ors.push_back(binary_or(i));
  const FoQuery vacuous_exists({},
                               FoFormula::Exists({0, 1}, FoFormula::True()));
  const FoQuery vacuous_forall({},
                               FoFormula::Forall({0, 1}, FoFormula::False()));
  auto atom = [](const char* r, std::vector<Term> args) {
    return FoFormula::MakeAtom(r, std::move(args));
  };
  const Term c7 = Term::Int(7);  // in no database: outside adom
  const std::vector<FoQuery> cases = {
      // Constants outside adom, in an equality and an inequality.
      FoQuery({V(0)}, FoFormula::Or(FoFormula::Eq(V(0), c7),
                                    atom("S", {V(0)}))),
      FoQuery({V(0), c7},
              FoFormula::Exists(1, FoFormula::And(atom("R", {V(0), V(1)}),
                                                  FoFormula::Neq(V(1), c7)))),
      // Absent relations and arity mismatches, positive and negated.
      FoQuery({V(0)},
              FoFormula::And({atom("S", {V(0)}),
                              FoFormula::Not(atom("G", {V(0), V(0)})),
                              FoFormula::Not(atom("W", {V(0)}))})),
      FoQuery({V(0)}, FoFormula::Or(atom("S", {V(0)}), atom("W", {V(0)}))),
      // Repeated variables in one atom.
      FoQuery({V(0)}, FoFormula::And(atom("R", {V(0), V(0)}),
                                     FoFormula::Not(atom(
                                         "T", {V(0), V(0), V(0)})))),
      // ≠ between existential variables.
      FoQuery({V(0)},
              FoFormula::Exists(
                  {1, 2}, FoFormula::And({atom("R", {V(0), V(1)}),
                                          atom("R", {V(0), V(2)}),
                                          FoFormula::Neq(V(1), V(2))}))),
      // Nested ¬∃ two deep.
      FoQuery({V(0)},
              FoFormula::And(
                  atom("S", {V(0)}),
                  FoFormula::Not(FoFormula::Exists(
                      1, FoFormula::And(
                             atom("R", {V(0), V(1)}),
                             FoFormula::Not(FoFormula::Exists(
                                 2, atom("T", {V(0), V(1), V(2)})))))))),
      // A closed negated sentence.
      FoQuery({V(0)},
              FoFormula::And(atom("S", {V(0)}),
                             FoFormula::Not(FoFormula::Exists(
                                 1, atom("R", {V(1), V(1)}))))),
      // Safe-range ∀.
      FoQuery({V(0)},
              FoFormula::And(atom("S", {V(0)}),
                             FoFormula::Forall(
                                 1, FoFormula::Implies(atom("R", {V(0), V(1)}),
                                                       atom("S", {V(1)}))))),
      // An equality between an enclosing and a quantified variable inside
      // a negation, and a shadowed variable.
      FoQuery({V(0)},
              FoFormula::And(
                  atom("S", {V(0)}),
                  FoFormula::Not(FoFormula::Exists(
                      1, FoFormula::And(FoFormula::Eq(V(1), V(0)),
                                        FoFormula::Exists(
                                            0, atom("R", {V(1), V(0)}))))))),
      // A nullary head.
      FoQuery({}, FoFormula::Exists(0, atom("S", {V(0)}))),
      // Vacuous ∃ and ∀.
      vacuous_exists,
      vacuous_forall,
      FoQuery({}, FoFormula::Forall({0, 1}, atom("S", {V(0)}))),
      // An unrestricted head variable beside a constant outside adom.
      FoQuery({V(0), c7}, FoFormula::True()),
      FoQuery({V(1), V(0)}, FoFormula::Eq(V(0), c7)),
      // An unguarded negation, free and quantified.
      FoQuery({V(0)}, FoFormula::Not(atom("S", {V(0)}))),
      FoQuery({V(0)},
              FoFormula::And(atom("S", {V(0)}),
                             FoFormula::Exists(
                                 1, FoFormula::Not(atom("S", {V(1)}))))),
      // Seven conjoined binary disjunctions: 128 DNF disjuncts, so the
      // last conjunct enters as ¬¬φ.
      FoQuery({V(0)}, FoFormula::And(seven_ors)),
      // A head-free component, joined to nothing.
      FoQuery({V(0)},
              FoFormula::And(atom("S", {V(0)}),
                             FoFormula::Exists(
                                 {1, 2}, FoFormula::And(
                                             atom("R", {V(1), V(2)}),
                                             FoFormula::Neq(V(1), V(2)))))),
      // A nested body that reads only enclosing variables: its own
      // variable equals one, and it has no atom but a negated one.
      FoQuery({V(0), V(1)},
              FoFormula::And(
                  atom("R", {V(0), V(1)}),
                  FoFormula::Not(FoFormula::Exists(
                      2, FoFormula::And(
                             FoFormula::Eq(V(2), V(0)),
                             FoFormula::Not(atom("R", {V(1), V(2)}))))))),
  };
  // Over a database with no values, ∃ is false and ∀ is true.
  EXPECT_TRUE(vacuous_exists.Evaluate(Database()).empty());
  EXPECT_EQ(vacuous_forall.Evaluate(Database()).size(), 1u);
  FoFuzzer fuzzer(7);
  for (size_t i = 0; i < cases.size(); ++i) {
    for (int trial = 0; trial < 40; ++trial) {
      Database db = fuzzer.RandomDb();
      if (trial == 0) {
        for (const char* r : {"R", "S", "T", "W"}) {
          db.Set(r, Relation(db.Get(r).arity()));
        }
      }
      ASSERT_EQ(cases[i].Evaluate(db), logic::oracle::Evaluate(cases[i], db))
          << cases[i].ToString() << "\nover\n"
          << db.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// The positive fragment: RelQuery::AsFo of a random UCQ lowers back to a
// UCQ, which the paper's Klug containment proves equivalent to the source.
// ---------------------------------------------------------------------------

ConjunctiveQuery RandomCq(FoFuzzer* f, size_t head_arity) {
  const std::pair<const char*, size_t> signature[] = {
      {"R", 2}, {"S", 1}, {"T", 3}};
  std::vector<Atom> body;
  std::vector<int> vars;
  for (int a = f->Int(1, 3); a > 0; --a) {
    const auto& [name, arity] = signature[f->Int(0, 2)];
    Atom atom{name, {}};
    for (size_t c = 0; c < arity; ++c) {
      if (f->Chance(15)) {
        atom.args.push_back(f->RandomConst());
      } else {
        atom.args.push_back(V(f->Int(0, 3)));
        vars.push_back(atom.args.back().var());
      }
    }
    body.push_back(std::move(atom));
  }
  auto operand = [&]() {
    return vars.empty() || f->Chance(30)
               ? f->RandomConst()
               : V(vars[static_cast<size_t>(
                     f->Int(0, static_cast<int>(vars.size()) - 1))]);
  };
  std::vector<Term> head;
  for (size_t i = 0; i < head_arity; ++i) head.push_back(operand());
  std::vector<Comparison> comparisons;
  for (int c = f->Int(0, 2); c > 0; --c) {
    comparisons.push_back({operand(), operand(), f->Chance(40)});
  }
  return ConjunctiveQuery(std::move(head), std::move(body),
                          std::move(comparisons));
}

TEST(FoCompileTest, LoweredUcqIsKlugEquivalentToItsSource) {
  FoFuzzer fuzzer(5150);
  for (int i = 0; i < 300; ++i) {
    const size_t arity = static_cast<size_t>(fuzzer.Int(1, 2));
    UnionQuery source(arity);
    for (int d = fuzzer.Int(1, 3); d > 0; --d) {
      source.Add(RandomCq(&fuzzer, arity));
    }
    ASSERT_FALSE(source.Validate().has_value()) << source.ToString();
    const FoQuery fo = core::RelQuery::Ucq(source).AsFo();
    const std::optional<UnionQuery> lowered = fo.LoweredUcq();
    ASSERT_TRUE(lowered.has_value()) << fo.ToString();
    EXPECT_TRUE(logic::UcqEquivalent(source, *lowered))
        << "source " << source.ToString() << "\nlowered "
        << lowered->ToString();
    const Database db = fuzzer.RandomDb();
    ASSERT_EQ(fo.Evaluate(db), source.Evaluate(db)) << source.ToString();
  }
}

// ---------------------------------------------------------------------------
// Governance and cost.
// ---------------------------------------------------------------------------

// A compiled query over a large relation: E(x,y) ∧ E(y,z) ∧ ¬E(x,z) over
// a 200-node graph. The bytecode ticks the governor per candidate row.
core::Sws CompiledFoService() {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("E", {"src", "dst"}));
  core::Sws sws(schema, /*rin_arity=*/1, /*rout_arity=*/2);
  const int q0 = sws.AddState("q0");
  sws.SetTransition(q0, {});
  sws.SetSynthesis(
      q0, core::RelQuery::Fo(FoQuery(
              {V(0), V(2)},
              FoFormula::Exists(
                  1, FoFormula::And(
                         {FoFormula::MakeAtom("E", {V(0), V(1)}),
                          FoFormula::MakeAtom("E", {V(1), V(2)}),
                          FoFormula::Not(
                              FoFormula::MakeAtom("E", {V(0), V(2)}))})))));
  return sws;
}

Database LargeGraph() {
  Database db;
  Relation e(2);
  for (int i = 0; i < 200; ++i) {
    for (int j = 1; j < 200; j += 2) {
      e.Insert({Value::Int(i), Value::Int((i + j) % 200)});
    }
  }
  db.Set("E", e);
  return db;
}

rel::InputSequence OneMessage() {
  rel::InputSequence input(1);
  Relation m(1);
  m.Insert({Value::Int(0)});
  input.Append(std::move(m));
  return input;
}

TEST(FoCompileTest, CompiledQueryStopsOnFuelAndDeadline) {
  const core::Sws sws = CompiledFoService();
  const Database db = LargeGraph();

  core::RunOptions fuel;
  fuel.max_eval_steps = 10'000;
  core::RunResult run = core::Run(sws, db, OneMessage(), fuel);
  EXPECT_EQ(run.status.code(), core::RunError::kFuelExhausted)
      << run.status.ToString();
  EXPECT_TRUE(run.output.empty());

  core::RunOptions deadline;
  deadline.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  run = core::Run(sws, db, OneMessage(), deadline);
  EXPECT_EQ(run.status.code(), core::RunError::kDeadlineExceeded)
      << run.status.ToString();
  EXPECT_TRUE(run.output.empty());
}

// Deterministic cost guards: a variable that ranges over the active
// domain in a head-free component costs one witness, checked once, not a
// factor of |adom| on every head match. Each budget is 10x the steps the
// run takes (67 and 3,002: the candidate rows plus one tick per value
// collected into the active domain); without the component split the
// runs take 30^7 and 2x10^6 rows and exhaust it.
core::Sws UnaryService(FoFormula body) {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("R", {"x"}));
  schema.Add(rel::RelationSchema("S", {"x"}));
  core::Sws sws(schema, /*rin_arity=*/1, /*rout_arity=*/1);
  const int q0 = sws.AddState("q0");
  sws.SetTransition(q0, {});
  sws.SetSynthesis(q0, core::RelQuery::Fo(FoQuery({V(0)}, std::move(body))));
  return sws;
}

// R = {0..r-1} and S = {r..r+s-1}: disjoint.
Database UnaryDatabase(int r, int s) {
  Database db;
  Relation rr(1), ss(1);
  for (int i = 0; i < r; ++i) rr.Insert({Value::Int(i)});
  for (int i = 0; i < s; ++i) ss.Insert({Value::Int(r + i)});
  db.Set("R", rr);
  db.Set("S", ss);
  return db;
}

TEST(FoCompileTest, HeadFreeActiveDomainComponentsCostOneWitness) {
  struct Guard {
    const char* shape;
    FoFormula body;
    Database db;
    size_t answers;
    uint64_t max_eval_steps;
  };
  const Guard guards[] = {
      {"vacuous ∃ at depth 6 over 30 values",
       FoFormula::Exists({1, 2, 3, 4, 5, 6},
                         FoFormula::MakeAtom("R", {V(0)})),
       UnaryDatabase(30, 0), 30, 670},
      {"R(x) ∧ ∃y ¬S(y) at |R| = |S| = 1000",
       FoFormula::And(FoFormula::MakeAtom("R", {V(0)}),
                      FoFormula::Exists(1, FoFormula::Not(FoFormula::MakeAtom(
                                               "S", {V(1)})))),
       UnaryDatabase(1000, 1000), 1000, 30'020},
  };
  for (const Guard& g : guards) {
    core::RunOptions options;
    options.max_eval_steps = g.max_eval_steps;
    const core::RunResult run =
        core::Run(UnaryService(g.body), g.db, OneMessage(), options);
    EXPECT_TRUE(run.status.ok()) << g.shape << ": " << run.status.ToString();
    EXPECT_EQ(run.output.size(), g.answers) << g.shape;
  }
}

}  // namespace
}  // namespace sws
