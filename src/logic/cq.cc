#include "logic/cq.h"

#include <algorithm>
#include <sstream>

#include "logic/bytecode.h"
#include "util/cancellation.h"
#include "util/common.h"

namespace sws::logic {

std::string Atom::ToString(const std::function<std::string(int)>& name) const {
  std::ostringstream out;
  out << relation << "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ", ";
    out << args[i].ToString(name);
  }
  out << ")";
  return out.str();
}

std::string Comparison::ToString(
    const std::function<std::string(int)>& name) const {
  return lhs.ToString(name) + (is_equality ? " = " : " != ") +
         rhs.ToString(name);
}

std::optional<std::string> ConjunctiveQuery::Validate() const {
  std::set<int> body_vars;
  std::map<std::string, size_t> arities;
  for (const Atom& a : body_) {
    auto [it, inserted] = arities.emplace(a.relation, a.args.size());
    if (!inserted && it->second != a.args.size()) {
      return "relation " + a.relation + " used with inconsistent arities";
    }
    for (const Term& t : a.args) {
      if (t.is_var()) body_vars.insert(t.var());
    }
  }
  auto check_safe = [&body_vars](const Term& t) {
    return t.is_const() || body_vars.count(t.var()) > 0;
  };
  for (const Term& t : head_) {
    if (!check_safe(t)) return "unsafe head variable " + t.ToString();
  }
  for (const Comparison& c : comparisons_) {
    if (!check_safe(c.lhs)) return "unsafe comparison term " + c.lhs.ToString();
    if (!check_safe(c.rhs)) return "unsafe comparison term " + c.rhs.ToString();
  }
  return std::nullopt;
}

std::optional<rel::Value> ResolveTerm(const Term& term,
                                      const Binding& binding) {
  if (term.is_const()) return term.value();
  auto it = binding.find(term.var());
  if (it == binding.end()) return std::nullopt;
  return it->second;
}

namespace {

// Checks all comparisons whose two sides are bound; returns false on a
// violated comparison, true otherwise (unbound comparisons pass for now —
// callers re-check on complete bindings, where safety guarantees all
// comparison terms are bound).
bool ComparisonsHold(const std::vector<Comparison>& comparisons,
                     const Binding& binding) {
  for (const Comparison& c : comparisons) {
    auto l = ResolveTerm(c.lhs, binding);
    auto r = ResolveTerm(c.rhs, binding);
    if (!l.has_value() || !r.has_value()) continue;
    if ((*l == *r) != c.is_equality) return false;
  }
  return true;
}

// Backtracking join: match body atoms in order.
bool MatchFrom(const std::vector<Atom>& body,
               const std::vector<Comparison>& comparisons, size_t index,
               const rel::Database& db, Binding* binding,
               const std::function<bool(const Binding&)>& on_match) {
  if (index == body.size()) {
    if (!ComparisonsHold(comparisons, *binding)) return true;
    return on_match(*binding);
  }
  const Atom& atom = body[index];
  if (!db.Contains(atom.relation)) return true;  // no facts: no match
  const rel::Relation& rel = db.Get(atom.relation);
  if (rel.arity() != atom.args.size()) return true;
  for (const rel::Tuple& t : rel) {
    // Cooperative cancellation: a governed run must stop this join
    // within a bounded number of candidate tuples of being cancelled.
    if (!sws::util::StepTick()) return false;
    // Try to extend the binding with this tuple.
    std::vector<int> newly_bound;
    bool ok = true;
    for (size_t i = 0; i < atom.args.size() && ok; ++i) {
      const Term& term = atom.args[i];
      if (term.is_const()) {
        ok = term.value() == t[i];
        continue;
      }
      auto it = binding->find(term.var());
      if (it != binding->end()) {
        ok = it->second == t[i];
      } else {
        binding->emplace(term.var(), t[i]);
        newly_bound.push_back(term.var());
      }
    }
    // Early comparison pruning on partially-bound comparisons.
    if (ok) ok = ComparisonsHold(comparisons, *binding);
    if (ok) {
      if (!MatchFrom(body, comparisons, index + 1, db, binding, on_match)) {
        for (int v : newly_bound) binding->erase(v);
        return false;
      }
    }
    for (int v : newly_bound) binding->erase(v);
  }
  return true;
}

// Splits body atoms and comparisons into connected components by shared
// variables. Comparisons join the components of their variables.
struct QueryComponents {
  // Parallel vectors: one entry per component.
  std::vector<std::vector<Atom>> atoms;
  std::vector<std::vector<Comparison>> comparisons;
  std::vector<bool> touches_head;
  bool constant_comparison_failed = false;  // a const-vs-const check failed
};

QueryComponents SplitComponents(const std::vector<Atom>& body,
                                const std::vector<Comparison>& comparisons,
                                const std::vector<Term>& head) {
  QueryComponents out;
  // Union-find over variables.
  std::map<int, int> parent;
  std::function<int(int)> find = [&](int x) -> int {
    auto it = parent.find(x);
    if (it == parent.end()) {
      parent.emplace(x, x);
      return x;
    }
    if (it->second == x) return x;
    int root = find(it->second);
    it->second = root;  // path compression
    return root;
  };
  auto unite = [&](int a, int b) { parent[find(a)] = find(b); };
  auto unite_terms = [&](const std::vector<Term>& terms) {
    int first = -1;
    for (const Term& t : terms) {
      if (!t.is_var()) continue;
      if (first < 0) {
        first = t.var();
        find(first);
      } else {
        unite(first, t.var());
      }
    }
  };
  for (const Atom& a : body) unite_terms(a.args);
  for (const Comparison& c : comparisons) unite_terms({c.lhs, c.rhs});

  // Assign atoms/comparisons to components keyed by variable roots;
  // variable-free atoms each form their own component.
  std::map<int, size_t> root_to_component;
  auto component_of_var = [&](int var) {
    int root = find(var);
    auto [it, inserted] =
        root_to_component.emplace(root, out.atoms.size());
    if (inserted) {
      out.atoms.emplace_back();
      out.comparisons.emplace_back();
      out.touches_head.push_back(false);
    }
    return it->second;
  };
  for (const Atom& a : body) {
    size_t component = out.atoms.size();
    bool has_var = false;
    for (const Term& t : a.args) {
      if (t.is_var()) {
        component = component_of_var(t.var());
        has_var = true;
        break;
      }
    }
    if (!has_var) {
      out.atoms.emplace_back();
      out.comparisons.emplace_back();
      out.touches_head.push_back(false);
    }
    out.atoms[component].push_back(a);
  }
  for (const Comparison& c : comparisons) {
    if (c.lhs.is_var()) {
      out.comparisons[component_of_var(c.lhs.var())].push_back(c);
    } else if (c.rhs.is_var()) {
      out.comparisons[component_of_var(c.rhs.var())].push_back(c);
    } else if ((c.lhs.value() == c.rhs.value()) != c.is_equality) {
      out.constant_comparison_failed = true;
    }
  }
  for (const Term& t : head) {
    if (t.is_var()) {
      // Safe queries guarantee head vars occur in the body, hence have a
      // component.
      out.touches_head[component_of_var(t.var())] = true;
    }
  }
  return out;
}

}  // namespace

bool EnumerateMatches(const std::vector<Atom>& body,
                      const std::vector<Comparison>& comparisons,
                      const rel::Database& db,
                      const std::function<bool(const Binding&)>& on_match) {
  bytecode::JoinProgram program = bytecode::Compile(
      bytecode::OrderAtomsGreedily(body, db), comparisons, db);
  return bytecode::Run(program, [&](const std::vector<rel::Value>& regs) {
    Binding binding;
    for (const auto& [var, reg] : program.var_reg) {
      binding.emplace(var, regs[reg]);
    }
    return on_match(binding);
  });
}

rel::Relation ConjunctiveQuery::Evaluate(const rel::Database& db) const {
  QueryComponents components = SplitComponents(body_, comparisons_, head_);
  if (components.constant_comparison_failed) {
    return rel::Relation(head_.size());
  }
  // Existential components (no head variable): one witness suffices.
  std::vector<Atom> head_atoms;
  std::vector<Comparison> head_comparisons;
  for (size_t i = 0; i < components.atoms.size(); ++i) {
    std::vector<Atom> ordered =
        bytecode::OrderAtomsGreedily(components.atoms[i], db);
    if (components.touches_head[i]) {
      head_atoms.insert(head_atoms.end(), ordered.begin(), ordered.end());
      head_comparisons.insert(head_comparisons.end(),
                              components.comparisons[i].begin(),
                              components.comparisons[i].end());
    } else if (!bytecode::HasMatch(bytecode::Compile(
                   ordered, components.comparisons[i], db))) {
      return rel::Relation(head_.size());
    }
  }
  return bytecode::Emit(bytecode::Compile(head_atoms, head_comparisons, db),
                        head_);
}

rel::Relation ConjunctiveQuery::EvaluateNaive(const rel::Database& db) const {
  rel::Relation out(head_.size());
  Binding binding;
  MatchFrom(body_, comparisons_, 0, db, &binding, [&](const Binding& b) {
    rel::Tuple t;
    t.reserve(head_.size());
    for (const Term& term : head_) {
      auto v = ResolveTerm(term, b);
      SWS_CHECK(v.has_value()) << "unsafe head variable " << term.ToString();
      t.push_back(*v);
    }
    out.Insert(std::move(t));
    return true;
  });
  return out;
}

bool ConjunctiveQuery::EvaluatesNonempty(const rel::Database& db) const {
  // With a nullary head every component is existential: Evaluate stops
  // at each component's first witness.
  return !ConjunctiveQuery({}, body_, comparisons_).Evaluate(db).empty();
}

std::set<int> ConjunctiveQuery::Vars() const {
  std::set<int> vars;
  auto add = [&vars](const Term& t) {
    if (t.is_var()) vars.insert(t.var());
  };
  for (const Term& t : head_) add(t);
  for (const Atom& a : body_) {
    for (const Term& t : a.args) add(t);
  }
  for (const Comparison& c : comparisons_) {
    add(c.lhs);
    add(c.rhs);
  }
  return vars;
}

std::vector<Term> ConjunctiveQuery::AllTerms() const {
  std::set<Term> terms;
  for (const Term& t : head_) terms.insert(t);
  for (const Atom& a : body_) {
    for (const Term& t : a.args) terms.insert(t);
  }
  for (const Comparison& c : comparisons_) {
    terms.insert(c.lhs);
    terms.insert(c.rhs);
  }
  return std::vector<Term>(terms.begin(), terms.end());
}

std::set<std::string> ConjunctiveQuery::BodyRelations() const {
  std::set<std::string> names;
  for (const Atom& a : body_) names.insert(a.relation);
  return names;
}

ConjunctiveQuery ConjunctiveQuery::Substitute(
    const std::map<int, Term>& map) const {
  auto sub = [&map](const Term& t) {
    if (t.is_const()) return t;
    auto it = map.find(t.var());
    return it == map.end() ? t : it->second;
  };
  ConjunctiveQuery out = *this;
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

ConjunctiveQuery ConjunctiveQuery::ShiftVars(int offset) const {
  std::map<int, Term> map;
  for (int v : Vars()) map.emplace(v, Term::Var(v + offset));
  return Substitute(map);
}

int ConjunctiveQuery::MaxVar() const {
  std::set<int> vars = Vars();
  return vars.empty() ? -1 : *vars.rbegin();
}

std::optional<ConjunctiveQuery> ConjunctiveQuery::Normalize() const {
  // Union-find over terms driven by the '=' comparisons.
  std::vector<Term> terms = AllTerms();
  std::map<Term, size_t> index;
  for (size_t i = 0; i < terms.size(); ++i) index.emplace(terms[i], i);
  std::vector<size_t> parent(terms.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Comparison& c : comparisons_) {
    if (!c.is_equality) continue;
    size_t a = find(index.at(c.lhs));
    size_t b = find(index.at(c.rhs));
    if (a != b) parent[a] = b;
  }
  // Pick a representative per class: a constant if present; two distinct
  // constants in one class make the query unsatisfiable.
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
    if (terms[i].is_var()) {
      substitution[terms[i].var()] = rep.at(find(i));
    }
  }
  ConjunctiveQuery out = Substitute(substitution);
  // Keep only inequalities; drop duplicates; fail on t != t; drop
  // trivially-true constant inequalities.
  std::set<Comparison> kept;
  for (const Comparison& c : out.comparisons_) {
    if (c.is_equality) continue;
    if (c.lhs == c.rhs) return std::nullopt;
    if (c.lhs.is_const() && c.rhs.is_const()) continue;  // distinct: true
    Comparison norm = c;
    if (norm.rhs < norm.lhs) std::swap(norm.lhs, norm.rhs);
    kept.insert(norm);
  }
  out.comparisons_.assign(kept.begin(), kept.end());
  return out;
}

rel::Database ConjunctiveQuery::CanonicalDatabase(
    rel::Tuple* frozen_head) const {
  auto freeze = [](const Term& t) {
    return t.is_const() ? t.value() : rel::Value::Null(t.var());
  };
  rel::Database db;
  for (const Atom& a : body_) {
    if (!db.Contains(a.relation)) {
      db.Set(a.relation, rel::Relation(a.args.size()));
    }
    rel::Tuple t;
    t.reserve(a.args.size());
    for (const Term& arg : a.args) t.push_back(freeze(arg));
    db.GetMutable(a.relation)->Insert(std::move(t));
  }
  if (frozen_head != nullptr) {
    frozen_head->clear();
    for (const Term& t : head_) frozen_head->push_back(freeze(t));
  }
  return db;
}

bool ConjunctiveQuery::IsSatisfiable() const {
  return Normalize().has_value();
}

std::string ConjunctiveQuery::ToString(
    const std::function<std::string(int)>& name) const {
  std::ostringstream out;
  out << "ans(";
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out << ", ";
    out << head_[i].ToString(name);
  }
  out << ") :- ";
  bool first = true;
  for (const Atom& a : body_) {
    if (!first) out << ", ";
    first = false;
    out << a.ToString(name);
  }
  for (const Comparison& c : comparisons_) {
    if (!first) out << ", ";
    first = false;
    out << c.ToString(name);
  }
  if (first) out << "true";
  return out.str();
}

}  // namespace sws::logic
