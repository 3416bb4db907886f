// Reference implementations of the CQ machinery behind the prepared
// query path (logic/cq.cc, logic/containment.cc), kept as test oracles:
// map-based normalization and substitution, Binding-based match
// enumeration, and Klug containment built from them.

#ifndef SWS_TESTS_CQ_ORACLES_H_
#define SWS_TESTS_CQ_ORACLES_H_

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "logic/bytecode.h"
#include "logic/containment.h"
#include "logic/cq.h"
#include "logic/ucq.h"
#include "util/common.h"

namespace sws::logic::oracle {

/// Applies a variable substitution to every term.
inline ConjunctiveQuery Substitute(const ConjunctiveQuery& q,
                                   const std::map<int, Term>& map) {
  auto sub = [&map](const Term& t) {
    if (t.is_const()) return t;
    auto it = map.find(t.var());
    return it == map.end() ? t : it->second;
  };
  ConjunctiveQuery out = q;
  for (Term& t : *out.mutable_head()) t = sub(t);
  for (Atom& a : *out.mutable_body()) {
    for (Term& t : a.args) t = sub(t);
  }
  for (Comparison& c : *out.mutable_comparisons()) {
    c.lhs = sub(c.lhs);
    c.rhs = sub(c.rhs);
  }
  return out;
}

/// ConjunctiveQuery::Normalize by a union-find over std::map-indexed
/// terms.
inline std::optional<ConjunctiveQuery> Normalize(const ConjunctiveQuery& q) {
  std::set<Term> term_set;
  for (const Term& t : q.head()) term_set.insert(t);
  for (const Atom& a : q.body()) term_set.insert(a.args.begin(), a.args.end());
  for (const Comparison& c : q.comparisons()) {
    term_set.insert(c.lhs);
    term_set.insert(c.rhs);
  }
  std::vector<Term> terms(term_set.begin(), term_set.end());
  std::map<Term, size_t> index;
  for (size_t i = 0; i < terms.size(); ++i) index.emplace(terms[i], i);
  std::vector<size_t> parent(terms.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Comparison& c : q.comparisons()) {
    if (!c.is_equality) continue;
    size_t a = find(index.at(c.lhs));
    size_t b = find(index.at(c.rhs));
    if (a != b) parent[a] = b;
  }
  // A constant represents its class; two distinct constants in one class
  // make the query unsatisfiable.
  std::map<size_t, Term> rep;
  for (size_t i = 0; i < terms.size(); ++i) {
    size_t root = find(i);
    auto it = rep.find(root);
    if (it == rep.end()) {
      rep.emplace(root, terms[i]);
    } else if (terms[i].is_const()) {
      if (it->second.is_const()) {
        if (!(it->second.value() == terms[i].value())) return std::nullopt;
      } else {
        it->second = terms[i];
      }
    }
  }
  std::map<int, Term> substitution;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].is_var()) substitution[terms[i].var()] = rep.at(find(i));
  }
  ConjunctiveQuery out = Substitute(q, substitution);
  std::set<Comparison> kept;
  for (const Comparison& c : out.comparisons()) {
    if (c.is_equality) continue;
    if (c.lhs == c.rhs) return std::nullopt;
    if (c.lhs.is_const() && c.rhs.is_const()) continue;  // distinct: true
    Comparison norm = c;
    if (norm.rhs < norm.lhs) std::swap(norm.lhs, norm.rhs);
    kept.insert(norm);
  }
  out.mutable_comparisons()->assign(kept.begin(), kept.end());
  return out;
}

/// Enumerates all bindings of `body` atoms (plus comparisons) against the
/// database, one whole-body join program, invoking `on_match` for each
/// complete binding (variables in ascending id order). If `on_match` returns false, enumeration stops
/// early. Returns false iff stopped early.
inline bool EnumerateMatches(
    const std::vector<Atom>& body, const std::vector<Comparison>& comparisons,
    const rel::Database& db,
    const std::function<bool(const Binding&)>& on_match) {
  std::vector<int> vars;
  for (const Atom& a : body) {
    for (const Term& t : a.args) {
      if (t.is_var()) vars.push_back(t.var());
    }
  }
  for (const Comparison& c : comparisons) {
    for (const Term& t : {c.lhs, c.rhs}) {
      if (t.is_var()) vars.push_back(t.var());
    }
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  SlotMap slots;
  slots.Extend(vars);
  const bytecode::JoinProgram program = bytecode::Lower(
      PrepareBody(slots, 0, body, {static_cast<uint32_t>(body.size())},
                  comparisons),
      db, 0, 1);
  return bytecode::Run(program, [&](const std::vector<rel::Value>& regs) {
    Binding binding;
    for (int v : vars) {
      const int reg = program.var_reg[slots[v]];
      if (reg >= 0) binding.emplace(v, regs[reg]);
    }
    return on_match(binding);
  });
}

/// True iff the frozen head tuple is in q2 evaluated over db.
inline bool HeadProducedBy(const UnionQuery& q2, const rel::Database& db,
                           const rel::Tuple& head) {
  for (const ConjunctiveQuery& d : q2.disjuncts()) {
    bool found = false;
    EnumerateMatches(d.body(), d.comparisons(), db,
                     [&](const Binding& binding) {
                       size_t i = 0;
                       while (i < head.size() &&
                              ResolveTerm(d.head()[i], binding) == head[i]) {
                         ++i;
                       }
                       found = i == head.size();
                       return !found;  // stop at the first witness
                     });
    if (found) return true;
  }
  return false;
}

/// EnumerateIdentifications with std::map assignments.
inline bool EnumerateIdentifications(
    const std::vector<Term>& terms,
    const std::function<bool(const std::map<int, Term>&)>& on_partition) {
  std::vector<Term> blocks;
  std::vector<int> vars;
  for (const Term& t : terms) {
    if (t.is_const()) {
      if (std::find(blocks.begin(), blocks.end(), t) == blocks.end()) {
        blocks.push_back(t);
      }
    } else if (std::find(vars.begin(), vars.end(), t.var()) == vars.end()) {
      vars.push_back(t.var());
    }
  }
  std::map<int, Term> assignment;
  std::function<bool(size_t)> from = [&](size_t index) -> bool {
    if (index == vars.size()) return on_partition(assignment);
    const int v = vars[index];
    assignment[v] = Term::Var(v);
    blocks.push_back(Term::Var(v));
    const bool cont = from(index + 1);
    blocks.pop_back();
    if (!cont) return false;
    for (size_t b = 0; b < blocks.size(); ++b) {
      assignment[v] = blocks[b];
      if (!from(index + 1)) return false;
    }
    assignment.erase(v);
    return true;
  };
  return from(0);
}

/// Klug containment without prepared right-hand sides: q2 is
/// re-normalized for every left disjunct and every canonical database is
/// matched through EnumerateMatches.
inline bool CqContainedIn(const ConjunctiveQuery& q1_in,
                          const UnionQuery& q2_in,
                          ContainmentStats* stats = nullptr) {
  SWS_CHECK_EQ(q1_in.head_arity(), q2_in.head_arity());
  auto normalized = oracle::Normalize(q1_in);
  if (!normalized.has_value()) return true;
  const ConjunctiveQuery& q1 = *normalized;
  UnionQuery q2(q2_in.head_arity());
  bool has_comparisons = false;
  for (const ConjunctiveQuery& d : q2_in.disjuncts()) {
    if (auto norm = oracle::Normalize(d); norm.has_value()) {
      has_comparisons = has_comparisons || !norm->comparisons().empty();
      q2.Add(*norm);
    }
  }
  if (!has_comparisons) {
    rel::Tuple head;
    rel::Database db = q1.CanonicalDatabase(&head);
    if (stats != nullptr) ++stats->canonical_databases;
    return HeadProducedBy(q2, db, head);
  }
  std::set<Term> terms;
  for (const Term& t : q1.head()) terms.insert(t);
  for (const Atom& a : q1.body()) terms.insert(a.args.begin(), a.args.end());
  for (const Comparison& c : q1.comparisons()) {
    terms.insert(c.lhs);
    terms.insert(c.rhs);
  }
  std::set<rel::Value> constants;
  for (const Term& t : terms) {
    if (t.is_const()) constants.insert(t.value());
  }
  for (const ConjunctiveQuery& d : q2.disjuncts()) {
    for (const Term& t : d.AllTerms()) {
      if (t.is_const()) constants.insert(t.value());
    }
  }
  std::vector<Term> items;
  for (const rel::Value& c : constants) items.push_back(Term::Const(c));
  for (const Term& t : terms) {
    if (t.is_var()) items.push_back(t);
  }
  bool contained = true;
  oracle::EnumerateIdentifications(items, [&](const std::map<int, Term>&
                                                   ident) {
    ConjunctiveQuery q1_pi = Substitute(q1, ident);
    for (const Comparison& c : q1_pi.comparisons()) {
      if (c.lhs == c.rhs) return true;  // inconsistent branch; continue
    }
    if (stats != nullptr) {
      ++stats->partitions_checked;
      ++stats->canonical_databases;
    }
    rel::Tuple head;
    rel::Database db = q1_pi.CanonicalDatabase(&head);
    if (!HeadProducedBy(q2, db, head)) {
      contained = false;
      return false;
    }
    return true;
  });
  return contained;
}

inline bool UcqContainedIn(const UnionQuery& q1, const UnionQuery& q2,
                           ContainmentStats* stats = nullptr) {
  for (const ConjunctiveQuery& d : q1.disjuncts()) {
    if (!oracle::CqContainedIn(d, q2, stats)) return false;
  }
  return true;
}

inline bool UcqEquivalent(const UnionQuery& a, const UnionQuery& b,
                          ContainmentStats* stats = nullptr) {
  return oracle::UcqContainedIn(a, b, stats) &&
         oracle::UcqContainedIn(b, a, stats);
}

}  // namespace sws::logic::oracle

#endif  // SWS_TESTS_CQ_ORACLES_H_
