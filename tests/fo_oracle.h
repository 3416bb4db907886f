// The active-domain FO interpreter, kept as the differential oracle for
// FoQuery::Evaluate (logic/fo.h), which compiles every formula onto the
// join bytecode. It walks the formula directly: each quantifier sweeps
// the domain, short-circuiting on the first witness or counterexample,
// and a query enumerates its head variables over the domain.

#ifndef SWS_TESTS_FO_ORACLE_H_
#define SWS_TESTS_FO_ORACLE_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "logic/fo.h"
#include "util/common.h"

namespace sws::logic::oracle {

/// Evaluates `f` under `binding`, which must bind every free variable,
/// with quantifiers ranging over `domain`. Quantifiers extend `binding`
/// in place and restore any shadowed entry, so it is unchanged on return.
inline bool Eval(const FoFormula& f, const rel::Database& db,
                 const std::set<rel::Value>& domain, Binding* binding) {
  using Kind = FoFormula::Kind;
  switch (f.kind()) {
    case Kind::kAtom: {
      // An absent relation, or one of another arity: the atom is false.
      if (!db.Contains(f.relation())) return false;
      const rel::Relation& rel = db.Get(f.relation());
      if (rel.arity() != f.args().size()) return false;
      rel::Tuple t;
      for (const Term& term : f.args()) {
        std::optional<rel::Value> v = ResolveTerm(term, *binding);
        SWS_CHECK(v.has_value()) << "unbound variable " << term.ToString();
        t.push_back(*v);
      }
      return rel.Contains(t);
    }
    case Kind::kEq: {
      std::optional<rel::Value> l = ResolveTerm(f.args()[0], *binding);
      std::optional<rel::Value> r = ResolveTerm(f.args()[1], *binding);
      SWS_CHECK(l.has_value() && r.has_value()) << "unbound variable in '='";
      return *l == *r;
    }
    case Kind::kNot:
      return !Eval(f.children()[0], db, domain, binding);
    case Kind::kAnd:
      for (const FoFormula& c : f.children()) {
        if (!Eval(c, db, domain, binding)) return false;
      }
      return true;
    case Kind::kOr:
      for (const FoFormula& c : f.children()) {
        if (Eval(c, db, domain, binding)) return true;
      }
      return false;
    case Kind::kExists:
    case Kind::kForall: {
      const bool is_exists = f.kind() == Kind::kExists;
      std::optional<rel::Value> saved;
      if (auto it = binding->find(f.bound_var()); it != binding->end()) {
        saved = it->second;
      }
      bool result = !is_exists;
      for (const rel::Value& v : domain) {
        (*binding)[f.bound_var()] = v;
        if (Eval(f.children()[0], db, domain, binding) == is_exists) {
          result = is_exists;  // witness / counterexample: short-circuit
          break;
        }
      }
      if (saved.has_value()) {
        (*binding)[f.bound_var()] = *saved;
      } else {
        binding->erase(f.bound_var());
      }
      return result;
    }
  }
  return false;
}

/// The query's answer: head variables range over adom(db) plus the
/// query's constants, the domain every quantifier sweeps too.
inline rel::Relation Evaluate(const FoQuery& q, const rel::Database& db) {
  std::set<rel::Value> domain = q.formula().Constants();
  for (const Term& t : q.head()) {
    if (t.is_const()) domain.insert(t.value());
  }
  const std::set<rel::Value> adom = db.ActiveDomain();
  domain.insert(adom.begin(), adom.end());
  std::vector<int> vars;
  for (const Term& t : q.head()) {
    if (t.is_var() &&
        std::find(vars.begin(), vars.end(), t.var()) == vars.end()) {
      vars.push_back(t.var());
    }
  }
  rel::Relation out(q.head_arity());
  Binding binding;
  std::function<void(size_t)> assign = [&](size_t i) {
    if (i == vars.size()) {
      if (!Eval(q.formula(), db, domain, &binding)) return;
      rel::Tuple t;
      for (const Term& term : q.head()) t.push_back(*ResolveTerm(term, binding));
      out.Insert(std::move(t));
      return;
    }
    for (const rel::Value& v : domain) {
      binding[vars[i]] = v;
      assign(i + 1);
    }
    binding.erase(vars[i]);
  };
  assign(0);
  return out;
}

}  // namespace sws::logic::oracle

#endif  // SWS_TESTS_FO_ORACLE_H_
