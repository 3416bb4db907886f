// The compiled FO path (logic/fo.cc onto logic/bytecode.h): every
// lowered query must return exactly the relation the active-domain
// interpreter returns, a lowered positive query must be Klug-equivalent
// to its source UCQ, the paper's services must take the compiled path,
// and a compiled query must still stop on a deadline or fuel budget.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "logic/containment.h"
#include "logic/fo.h"
#include "logic/ucq.h"
#include "models/peer.h"
#include "models/travel.h"
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
// so the fallback path runs too.
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
    // variable. Both must fall back to the interpreter.
    if (Chance(6)) {
      const int z = next_var_++;
      f = FoFormula::And(f, FoFormula::Exists(z, FoFormula::Not(
                                                  RandomAtom({z}, z))));
    }
    if (Chance(4)) head.push_back(V(next_var_++));
    return FoQuery(std::move(head), std::move(f));
  }

 private:
  std::mt19937_64 rng_;
  int next_var_ = 0;
};

TEST(FoCompileTest, CompiledMatchesInterpreterOnRandomFormulas) {
  FoFuzzer fuzzer(20261017);
  int compiled = 0;
  int nonempty = 0;
  for (int i = 0; i < 2500; ++i) {
    Database db = fuzzer.RandomDb();
    FoQuery q = fuzzer.NextQuery();
    compiled += q.compiled() ? 1 : 0;
    Relation fast = q.Evaluate(db);
    nonempty += fast.empty() ? 0 : 1;
    ASSERT_EQ(fast, q.EvaluateNaive(db))
        << "case " << i << (q.compiled() ? " (compiled): " : ": ")
        << q.ToString() << "\nover\n"
        << db.ToString();
  }
  EXPECT_GE(compiled, 2000);
  EXPECT_GE(nonempty, 500);
}

// One hand-written query per lowering rule, each over databases that
// include empty relations.
TEST(FoCompileTest, EdgeCasesCompileAndMatchTheInterpreter) {
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
  };
  FoFuzzer fuzzer(7);
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(cases[i].compiled()) << cases[i].ToString();
    for (int trial = 0; trial < 40; ++trial) {
      Database db = fuzzer.RandomDb();
      if (trial == 0) {
        for (const char* r : {"R", "S", "T", "W"}) {
          db.Set(r, Relation(db.Get(r).arity()));
        }
      }
      ASSERT_EQ(cases[i].Evaluate(db), cases[i].EvaluateNaive(db))
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
    ASSERT_TRUE(fo.compiled()) << fo.ToString();
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
// Path classification and governance.
// ---------------------------------------------------------------------------

TEST(FoCompileTest, PaperQueriesTakeTheCompiledPath) {
  // ψ0 of Example 2.1 (τ1) and τ2's ψ'_a.
  EXPECT_TRUE(models::MakeTravelService().sws.Synthesis(0).fo().compiled());
  const core::Sws recursive = models::MakeTravelServiceRecursive().sws;
  EXPECT_TRUE(recursive.Synthesis(recursive.FindState("qa")).fo().compiled());

  // PeerToSws's φ, φ_f and ψ for the shop peer of peer_test.
  rel::Schema schema;
  schema.Add(rel::RelationSchema("Item", {"id", "price"}));
  models::Peer peer(schema, 1, 1, 2);
  using models::Peer;
  peer.set_state_rule(FoFormula::And(
      FoFormula::Or(FoFormula::MakeAtom(Peer::kPeerState, {V(0)}),
                    FoFormula::MakeAtom(Peer::kPeerInput, {V(0)})),
      FoFormula::Exists(1, FoFormula::MakeAtom("Item", {V(0), V(1)}))));
  peer.set_action_rule(
      FoFormula::And({FoFormula::MakeAtom(Peer::kPeerState, {V(0)}),
                      FoFormula::MakeAtom(Peer::kPeerInput, {V(0)}),
                      FoFormula::MakeAtom("Item", {V(0), V(1)})}));
  const core::Sws sws = models::PeerToSws(peer);
  for (int q = 0; q < sws.num_states(); ++q) {
    for (const core::TransitionTarget& target : sws.Successors(q)) {
      EXPECT_TRUE(target.query.fo().compiled()) << sws.StateName(q);
    }
    EXPECT_TRUE(sws.Synthesis(q).fo().compiled()) << sws.StateName(q);
  }
}

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
  ASSERT_TRUE(sws.Synthesis(0).fo().compiled());
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

}  // namespace
}  // namespace sws
