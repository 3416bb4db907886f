// The seeded random CQ/UCQ generator shared by the query-engine
// differential suites (query_engine_test.cc, prepared_query_test.cc):
// small domains force dense joins, repeated variables, and empty results
// with roughly equal probability.

#ifndef SWS_TESTS_CQ_FUZZER_H_
#define SWS_TESTS_CQ_FUZZER_H_

#include <random>
#include <set>
#include <string>
#include <vector>

#include "logic/cq.h"
#include "logic/ucq.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace sws {

struct RandomCq {
  logic::ConjunctiveQuery query;
  rel::Database db;
};

struct RandomUcq {
  logic::UnionQuery query;
  rel::Database db;
};

class CqFuzzer {
 public:
  using Atom = logic::Atom;
  using Comparison = logic::Comparison;
  using ConjunctiveQuery = logic::ConjunctiveQuery;
  using Term = logic::Term;
  using Value = rel::Value;

  explicit CqFuzzer(uint64_t seed) : rng_(seed) {}

  RandomCq Next() {
    RandomCq out;
    std::vector<size_t> arities;
    out.db = RandomDatabase(&arities);
    const int num_relations = static_cast<int>(arities.size());

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

  /// 1-3 relations R0, R1, ... of arity 1-3 with 0-12 random tuples each;
  /// their arities go to `arities`.
  rel::Database RandomDatabase(std::vector<size_t>* arities) {
    rel::Database db;
    const int num_relations = Int(1, 3);
    for (int r = 0; r < num_relations; ++r) {
      size_t arity = static_cast<size_t>(Int(1, 3));
      arities->push_back(arity);
      rel::Relation rel(arity);
      const int tuples = Int(0, 12);
      for (int t = 0; t < tuples; ++t) {
        rel::Tuple tuple;
        for (size_t c = 0; c < arity; ++c) tuple.push_back(RandomValue());
        rel.Insert(std::move(tuple));
      }
      db.Set("R" + std::to_string(r), std::move(rel));
    }
    return db;
  }

  /// A random CQ≠ over relations R0, R1, ... of the given arities (some
  /// atoms repeat a relation), with variables 0..max_var, constants from
  /// `constant`, a head of `head_arity` terms and up to
  /// `max_comparisons` '=' / '≠' comparisons. Head and comparison
  /// variables occur in the body.
  template <typename ConstantFn>
  ConjunctiveQuery Query(const std::vector<size_t>& arities,
                         size_t head_arity, int max_var, int max_atoms,
                         int max_comparisons, ConstantFn constant) {
    std::vector<Atom> body;
    std::vector<int> vars;
    for (int a = Int(1, max_atoms); a > 0; --a) {
      const size_t r = static_cast<size_t>(
          Int(0, static_cast<int>(arities.size()) - 1));
      Atom atom{"R" + std::to_string(r), {}};
      for (size_t c = 0; c < arities[r]; ++c) {
        if (Int(0, 4) == 0) {
          atom.args.push_back(Term::Const(constant()));
        } else {
          atom.args.push_back(Term::Var(Int(0, max_var)));
          vars.push_back(atom.args.back().var());
        }
      }
      body.push_back(std::move(atom));
    }
    auto some_term = [&]() {
      if (vars.empty() || Int(0, 3) == 0) return Term::Const(constant());
      return Term::Var(
          vars[static_cast<size_t>(Int(0, static_cast<int>(vars.size()) - 1))]);
    };
    std::vector<Term> head;
    for (size_t i = 0; i < head_arity; ++i) head.push_back(some_term());
    std::vector<Comparison> comparisons;
    for (int c = Int(0, max_comparisons); c > 0 && !vars.empty(); --c) {
      Term lhs = Term::Var(
          vars[static_cast<size_t>(Int(0, static_cast<int>(vars.size()) - 1))]);
      comparisons.push_back({lhs, some_term(), Int(0, 1) == 0});
    }
    return ConjunctiveQuery(std::move(head), std::move(body),
                            std::move(comparisons));
  }

  /// A random union of 1-3 CQs of one head arity over a random database.
  RandomUcq NextUnion() {
    RandomUcq out;
    std::vector<size_t> arities;
    out.db = RandomDatabase(&arities);
    const size_t head_arity = static_cast<size_t>(Int(0, 2));
    out.query = logic::UnionQuery(head_arity);
    for (int d = Int(1, 3); d > 0; --d) {
      out.query.Add(Query(arities, head_arity, Int(1, 5), 4, 3,
                          [this] { return RandomValue(); }));
    }
    return out;
  }

  /// Inserts random tuples into `r` until it holds `rows` of them (the
  /// domain has 10 values, so at most 10^arity).
  void Fill(rel::Relation* r, size_t rows) {
    while (r->size() < rows) {
      rel::Tuple tuple;
      for (size_t c = 0; c < r->arity(); ++c) tuple.push_back(RandomValue());
      r->Insert(std::move(tuple));
    }
  }

  /// Grows each relation of `db` of arity 2 or 3 to between `rows` + 1
  /// and 2·`rows` + 1 tuples, so that a join over it crosses a size
  /// threshold of `rows` (a unary relation cannot: it holds at most 10).
  void GrowPast(rel::Database* db, size_t rows) {
    std::vector<std::string> names;
    for (const auto& [name, relation] : db->relations()) {
      if (relation.arity() >= 2) names.push_back(name);
    }
    for (const std::string& name : names) {
      Fill(db->GetMutable(name),
           rows + 1 + static_cast<size_t>(Int(0, static_cast<int>(rows))));
    }
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

}  // namespace sws

#endif  // SWS_TESTS_CQ_FUZZER_H_
