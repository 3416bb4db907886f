#include "logic/cq.h"

#include <algorithm>
#include <sstream>

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
  size_t num_args = 0;
  for (const Atom& a : body_) num_args += a.args.size();
  std::vector<int> body_vars;
  body_vars.reserve(num_args);
  for (size_t i = 0; i < body_.size(); ++i) {
    const Atom& a = body_[i];
    // Each atom must agree with the first atom of its relation.
    for (size_t first = 0; first < i; ++first) {
      if (body_[first].relation != a.relation) continue;
      if (body_[first].args.size() != a.args.size()) {
        return "relation " + a.relation + " used with inconsistent arities";
      }
      break;
    }
    for (const Term& t : a.args) {
      if (t.is_var()) body_vars.push_back(t.var());
    }
  }
  std::sort(body_vars.begin(), body_vars.end());
  auto check_safe = [&body_vars](const Term& t) {
    return t.is_const() ||
           std::binary_search(body_vars.begin(), body_vars.end(), t.var());
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

// The rank of `var` among the ascending distinct `ids` it occurs in.
size_t RankOf(const std::vector<int>& ids, int var) {
  return static_cast<size_t>(std::lower_bound(ids.begin(), ids.end(), var) -
                             ids.begin());
}

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

}  // namespace

rel::Relation ConjunctiveQuery::Evaluate(const rel::Database& db) const {
  return PreparedCq(*this).Evaluate(db);
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
  return PreparedCq(*this).EvaluatesNonempty(db);
}

std::vector<int> ConjunctiveQuery::Vars() const {
  size_t terms = head_.size() + 2 * comparisons_.size();
  for (const Atom& a : body_) terms += a.args.size();
  std::vector<int> vars;
  vars.reserve(terms);
  ForEachTerm([&vars](const Term& t) {
    if (t.is_var()) vars.push_back(t.var());
  });
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::vector<Term> ConjunctiveQuery::AllTerms() const {
  std::vector<Term> terms = head_;
  for (const Atom& a : body_) {
    terms.insert(terms.end(), a.args.begin(), a.args.end());
  }
  for (const Comparison& c : comparisons_) {
    terms.push_back(c.lhs);
    terms.push_back(c.rhs);
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

ConjunctiveQuery ConjunctiveQuery::ShiftVars(int offset) const {
  ConjunctiveQuery out = *this;
  out.ForEachTerm([offset](Term& t) {
    if (t.is_var()) t = Term::Var(t.var() + offset);
  });
  return out;
}

ConjunctiveQuery ConjunctiveQuery::Renumbered(int first) const& {
  return ConjunctiveQuery(*this).Renumbered(first);
}

ConjunctiveQuery ConjunctiveQuery::Renumbered(int first) && {
  const std::vector<int> ids = Vars();
  ForEachTerm([&ids, first](Term& t) {
    if (t.is_var()) {
      t = Term::Var(first + static_cast<int>(RankOf(ids, t.var())));
    }
  });
  return std::move(*this);
}

int ConjunctiveQuery::MaxVar() const {
  std::optional<int> max_var;
  ForEachTerm([&max_var](const Term& t) {
    if (t.is_var() && (!max_var.has_value() || t.var() > *max_var)) {
      max_var = t.var();
    }
  });
  return max_var.value_or(-1);
}

std::optional<ConjunctiveQuery> ConjunctiveQuery::Normalize() const& {
  return NormalizeImpl(*this);
}

std::optional<ConjunctiveQuery> ConjunctiveQuery::Normalize() && {
  return NormalizeImpl(std::move(*this));
}

template <typename Self>
std::optional<ConjunctiveQuery> ConjunctiveQuery::NormalizeImpl(Self&& self) {
  const std::vector<Comparison>& in = self.comparisons_;
  if (in.empty()) return std::forward<Self>(self);
  const bool has_equalities =
      std::any_of(in.begin(), in.end(),
                  [](const Comparison& c) { return c.is_equality; });
  // Union-find over the variables, numbered by rank among the ascending
  // ids; a class's root carries the constant the class equals, if any,
  // and then its smallest variable (the first met, as ids ascend).
  struct Class {
    size_t parent;
    std::optional<rel::Value> constant;
    std::optional<int> smallest;
  };
  std::vector<int> ids;
  std::vector<Class> classes;
  auto find = [&classes](size_t x) {
    while (classes[x].parent != x) {
      classes[x].parent = classes[classes[x].parent].parent;
      x = classes[x].parent;
    }
    return x;
  };
  // Pins class `root` to `value`; false if it already holds another.
  auto pin = [&classes](size_t root, const rel::Value& value) {
    std::optional<rel::Value>& constant = classes[root].constant;
    if (!constant.has_value()) constant = value;
    return *constant == value;
  };
  if (has_equalities) {
    ids = self.Vars();
    classes.resize(ids.size());
    for (size_t i = 0; i < classes.size(); ++i) classes[i].parent = i;
  }
  for (const Comparison& c : in) {
    if (!c.is_equality) continue;
    if (c.lhs.is_const() && c.rhs.is_const()) {
      if (!(c.lhs.value() == c.rhs.value())) return std::nullopt;
    } else if (c.lhs.is_const() || c.rhs.is_const()) {
      const Term& var = c.lhs.is_var() ? c.lhs : c.rhs;
      const Term& value = c.lhs.is_var() ? c.rhs : c.lhs;
      if (!pin(find(RankOf(ids, var.var())), value.value())) {
        return std::nullopt;
      }
    } else {
      const size_t a = find(RankOf(ids, c.lhs.var()));
      const size_t b = find(RankOf(ids, c.rhs.var()));
      if (a == b) continue;
      classes[a].parent = b;
      if (classes[a].constant.has_value() && !pin(b, *classes[a].constant)) {
        return std::nullopt;
      }
    }
  }
  ConjunctiveQuery out = std::forward<Self>(self);
  if (has_equalities) {
    // A class's representative: its constant, else its smallest variable.
    for (size_t i = 0; i < ids.size(); ++i) {
      Class& root = classes[find(i)];
      if (!root.constant.has_value() && !root.smallest.has_value()) {
        root.smallest = ids[i];
      }
    }
    out.ForEachTerm([&](Term& t) {
      if (!t.is_var()) return;
      const Class& root = classes[find(RankOf(ids, t.var()))];
      t = root.constant.has_value() ? Term::Const(*root.constant)
                                    : Term::Var(*root.smallest);
    });
  }
  // Keep only inequalities, oriented, sorted and deduplicated; fail on
  // t != t; drop trivially-true constant inequalities.
  std::vector<Comparison>& comparisons = out.comparisons_;
  size_t kept = 0;
  for (size_t i = 0; i < comparisons.size(); ++i) {
    Comparison& c = comparisons[i];
    if (c.is_equality) continue;
    if (c.lhs == c.rhs) return std::nullopt;
    if (c.lhs.is_const() && c.rhs.is_const()) continue;  // distinct: true
    if (c.rhs < c.lhs) std::swap(c.lhs, c.rhs);
    if (kept != i) comparisons[kept] = std::move(c);
    ++kept;
  }
  comparisons.erase(comparisons.begin() + kept, comparisons.end());
  std::sort(comparisons.begin(), comparisons.end());
  comparisons.erase(std::unique(comparisons.begin(), comparisons.end()),
                    comparisons.end());
  return out;
}

rel::Database ConjunctiveQuery::CanonicalDatabase(
    rel::Tuple* frozen_head, const std::vector<Term>* identify) const {
  auto freeze = [identify](const Term& t) {
    const Term& image =
        t.is_var() && identify != nullptr &&
                static_cast<size_t>(t.var()) < identify->size()
            ? (*identify)[t.var()]
            : t;
    return image.is_const() ? image.value() : rel::Value::Null(image.var());
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

void SlotMap::Extend(std::vector<int> vars) {
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  const size_t numbered = by_id_.size();
  by_id_.reserve(numbered + vars.size());
  for (int v : vars) {
    auto it = std::lower_bound(by_id_.begin(), by_id_.begin() + numbered,
                               std::make_pair(v, uint16_t{0}));
    if (it != by_id_.begin() + numbered && it->first == v) continue;
    SWS_CHECK_LT(by_id_.size(), size_t{UINT16_MAX});
    by_id_.emplace_back(v, static_cast<uint16_t>(by_id_.size()));
  }
  std::inplace_merge(by_id_.begin(), by_id_.begin() + numbered,
                     by_id_.end());
  table_.clear();
  if (by_id_.empty()) return;
  // Ids may span the whole int range: offsets are taken in 64 bits.
  const int64_t base = by_id_.front().first;
  const int64_t span = int64_t{by_id_.back().first} - base + 1;
  if (span > static_cast<int64_t>(4 * by_id_.size() + 64)) return;
  table_.assign(static_cast<size_t>(span), 0);
  for (const auto& [id, slot] : by_id_) {
    table_[static_cast<size_t>(id - base)] = static_cast<uint16_t>(slot + 1);
  }
}

uint16_t SlotMap::operator[](int var) const {
  if (!table_.empty()) {
    const int64_t i = int64_t{var} - by_id_.front().first;
    SWS_CHECK(i >= 0 && i < static_cast<int64_t>(table_.size()) &&
              table_[static_cast<size_t>(i)] > 0)
        << "variable X" << var << " has no slot";
    return table_[static_cast<size_t>(i)] - 1;
  }
  auto it = std::lower_bound(by_id_.begin(), by_id_.end(),
                             std::make_pair(var, uint16_t{0}));
  SWS_CHECK(it != by_id_.end() && it->first == var)
      << "variable X" << var << " has no slot";
  return it->second;
}

bytecode::Body PrepareBody(const SlotMap& slots, size_t num_preloaded,
                           const std::vector<Atom>& atoms,
                           std::vector<uint32_t> group_ends,
                           const std::vector<Comparison>& comparisons,
                           const std::vector<Atom>& negated) {
  bytecode::Body body;
  body.num_slots = static_cast<uint16_t>(slots.size());
  body.num_preloaded = static_cast<uint16_t>(num_preloaded);
  body.group_ends = std::move(group_ends);
  body.reg_init.assign(body.num_slots, rel::Value());
  auto reg = [&](const Term& t) -> uint16_t {
    if (t.is_var()) return slots[t.var()];
    for (size_t r = body.num_slots; r < body.reg_init.size(); ++r) {
      if (body.reg_init[r] == t.value()) return static_cast<uint16_t>(r);
    }
    SWS_CHECK_LT(body.reg_init.size(), size_t{UINT16_MAX});
    body.reg_init.push_back(t.value());
    return static_cast<uint16_t>(body.reg_init.size() - 1);
  };
  auto prepare = [&reg](const Atom& a) {
    bytecode::Body::Atom out{a.relation, {}};
    out.regs.reserve(a.args.size());
    for (const Term& t : a.args) out.regs.push_back(reg(t));
    return out;
  };
  for (const Atom& a : atoms) body.atoms.push_back(prepare(a));
  for (const Atom& a : negated) body.negated.push_back(prepare(a));
  for (const Comparison& c : comparisons) {
    if (c.lhs.is_const() && c.rhs.is_const()) {
      if ((c.lhs.value() == c.rhs.value()) != c.is_equality) {
        body.comparison_failed = true;
      }
      continue;
    }
    body.checks.push_back({reg(c.lhs), reg(c.rhs), c.is_equality});
  }
  return body;
}

BodyGroups GroupComponents(const SlotMap& slots, const std::vector<Atom>& atoms,
                           const std::vector<std::vector<Term>>& links,
                           const std::vector<Term>& head) {
  // Union-find over slots, joined by the atoms and the links.
  std::vector<size_t> parent(slots.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](const std::vector<Term>& terms) {
    auto first = std::find_if(terms.begin(), terms.end(),
                              [](const Term& t) { return t.is_var(); });
    for (auto it = first; it != terms.end(); ++it) {
      if (it->is_var()) {
        parent[find(slots[it->var()])] = find(slots[first->var()]);
      }
    }
  };
  for (const Atom& a : atoms) unite(a.args);
  for (const std::vector<Term>& link : links) unite(link);
  // Number the components by first appearance in the body. A link or
  // head variable in no atom (an unsafe query) joins no component.
  std::vector<int> component_of_root(slots.size(), -1);
  int num_components = 0;
  auto component_of = [&](const Term& t) {
    return t.is_var() ? component_of_root[find(slots[t.var()])] : -1;
  };
  std::vector<int> atom_component(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    auto var = std::find_if(atoms[i].args.begin(), atoms[i].args.end(),
                            [](const Term& t) { return t.is_var(); });
    if (var == atoms[i].args.end()) {
      atom_component[i] = num_components++;
      continue;
    }
    int& component = component_of_root[find(slots[var->var()])];
    if (component < 0) component = num_components++;
    atom_component[i] = component;
  }
  std::vector<bool> touches_head(num_components, false);
  for (const Term& t : head) {
    if (component_of(t) >= 0) touches_head[component_of(t)] = true;
  }
  // Groups: the head components, then the existential ones, each in
  // component order; atoms keep their body order.
  BodyGroups out;
  std::vector<int> group_of(num_components, -1);
  for (int pass = 0; pass < 2; ++pass) {
    for (int c = 0; c < num_components; ++c) {
      if (touches_head[c] != (pass == 0)) continue;
      group_of[c] = static_cast<int>(out.group_ends.size());
      for (size_t i = 0; i < atoms.size(); ++i) {
        if (atom_component[i] == c) {
          out.atoms.push_back(static_cast<uint32_t>(i));
        }
      }
      out.group_ends.push_back(static_cast<uint32_t>(out.atoms.size()));
    }
    if (pass == 0) out.head_groups = out.group_ends.size();
  }
  for (const std::vector<Term>& link : links) {
    int group = -1;
    for (const Term& t : link) {
      if (group < 0 && component_of(t) >= 0) group = group_of[component_of(t)];
    }
    out.link_group.push_back(group);
  }
  return out;
}

PreparedCq::PreparedCq(const ConjunctiveQuery& q)
    : head_arity_(q.head_arity()) {
  std::optional<ConjunctiveQuery> normalized = q.Normalize();
  if (!normalized.has_value()) {
    satisfiable_ = false;
    return;
  }
  std::vector<Atom>& atoms = *normalized->mutable_body();
  const std::vector<Comparison>& comparisons = normalized->comparisons();
  has_comparisons_ = !comparisons.empty();
  auto add_constant = [this](const Term& t) {
    if (t.is_const()) constants_.push_back(t.value());
  };
  for (const Term& t : normalized->head()) add_constant(t);
  for (const Atom& a : atoms) {
    for (const Term& t : a.args) add_constant(t);
  }
  for (const Comparison& c : comparisons) {
    add_constant(c.lhs);
    add_constant(c.rhs);
  }
  std::sort(constants_.begin(), constants_.end());
  constants_.erase(std::unique(constants_.begin(), constants_.end()),
                   constants_.end());
  SlotMap slots;
  slots.Extend(normalized->Vars());
  std::vector<std::vector<Term>> links;
  for (const Comparison& c : comparisons) links.push_back({c.lhs, c.rhs});
  BodyGroups groups = GroupComponents(slots, atoms, links, normalized->head());
  head_groups_ = groups.head_groups;
  std::vector<Atom> grouped;
  for (uint32_t i : groups.atoms) grouped.push_back(std::move(atoms[i]));
  // A program over some groups attaches only their comparisons: the
  // others' operands are never bound there.
  body_ = PrepareBody(slots, 0, grouped, std::move(groups.group_ends),
                      comparisons);
  for (const Term& t : normalized->head()) {
    head_.push_back(t.is_var() ? Term::Var(slots[t.var()]) : t);
  }
}

bool PreparedCq::GroupsMatch(const rel::Database& db, size_t first,
                             size_t last) const {
  for (size_t g = first; g < last; ++g) {
    if (!bytecode::HasMatch(bytecode::Lower(body_, db, g, g + 1))) {
      return false;
    }
  }
  return true;
}

rel::Relation PreparedCq::Evaluate(const rel::Database& db) const {
  // Existential components: one witness each suffices.
  if (!satisfiable_ ||
      !GroupsMatch(db, head_groups_, body_.group_ends.size())) {
    return rel::Relation(head_arity_);
  }
  return bytecode::Emit(bytecode::Lower(body_, db, 0, head_groups_), head_);
}

bool PreparedCq::EvaluatesNonempty(const rel::Database& db) const {
  return satisfiable_ && GroupsMatch(db, 0, body_.group_ends.size());
}

bool PreparedCq::Produces(const rel::Database& db,
                          const rel::Tuple& tuple) const {
  if (!satisfiable_) return false;
  for (size_t i = 0; i < head_.size(); ++i) {
    if (head_[i].is_const() && !(head_[i].value() == tuple[i])) return false;
  }
  if (!GroupsMatch(db, head_groups_, body_.group_ends.size())) return false;
  const bytecode::JoinProgram program =
      bytecode::Lower(body_, db, 0, head_groups_);
  for (const Term& t : head_) {
    // A head variable no atom binds matches no value (unsafe query).
    if (t.is_var() && program.var_reg[t.var()] < 0) return false;
  }
  return bytecode::HasMatch(
      program, nullptr, [&](const std::vector<rel::Value>& regs) {
        for (size_t i = 0; i < head_.size(); ++i) {
          if (head_[i].is_var() &&
              !(regs[program.var_reg[head_[i].var()]] == tuple[i])) {
            return false;
          }
        }
        return true;
      });
}

}  // namespace sws::logic
