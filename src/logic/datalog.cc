#include "logic/datalog.h"

#include <sstream>

#include "util/common.h"

namespace sws::logic {

std::string DatalogRule::ToString() const {
  std::ostringstream out;
  out << head.ToString() << " :- ";
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out << ", ";
    out << body[i].ToString();
  }
  if (body.empty()) out << "true";
  return out.str();
}

void DatalogProgram::AddRule(DatalogRule rule) {
  rules_.push_back(std::move(rule));
}

void DatalogProgram::AddFact(Atom fact) {
  for (const Term& t : fact.args) {
    SWS_CHECK(t.is_const()) << "facts must be ground: " << fact.ToString();
  }
  facts_.push_back(std::move(fact));
}

std::optional<std::string> DatalogProgram::Validate() const {
  std::map<std::string, size_t> arities;
  auto check_arity = [&arities](const Atom& a) -> std::optional<std::string> {
    auto [it, inserted] = arities.emplace(a.relation, a.args.size());
    if (!inserted && it->second != a.args.size()) {
      return "predicate " + a.relation + " used with inconsistent arities";
    }
    return std::nullopt;
  };
  for (const DatalogRule& r : rules_) {
    if (auto err = check_arity(r.head); err.has_value()) return err;
    std::set<int> body_vars;
    for (const Atom& a : r.body) {
      if (auto err = check_arity(a); err.has_value()) return err;
      for (const Term& t : a.args) {
        if (t.is_var()) body_vars.insert(t.var());
      }
    }
    for (const Term& t : r.head.args) {
      if (t.is_var() && body_vars.count(t.var()) == 0) {
        return "unsafe rule head variable in " + r.ToString();
      }
    }
  }
  for (const Atom& f : facts_) {
    if (auto err = check_arity(f); err.has_value()) return err;
  }
  return std::nullopt;
}

DatalogProgram::FixpointResult DatalogProgram::Evaluate(
    const rel::Database& edb, size_t max_iterations) const {
  SWS_CHECK(!Validate().has_value()) << *Validate();
  FixpointResult result;
  // Working database: EDB plus (growing) IDB relations.
  rel::Database work = edb;
  std::map<std::string, size_t> idb_arity;
  for (const DatalogRule& r : rules_) {
    idb_arity.emplace(r.head.relation, r.head.args.size());
  }
  for (const Atom& f : facts_) idb_arity.emplace(f.relation, f.args.size());
  for (const auto& [name, arity] : idb_arity) {
    SWS_CHECK(!edb.Contains(name))
        << "IDB predicate " << name << " clashes with an EDB relation";
    work.Set(name, rel::Relation(arity));
  }
  for (const Atom& f : facts_) {
    rel::Tuple t;
    for (const Term& term : f.args) t.push_back(term.value());
    work.GetMutable(f.relation)->Insert(std::move(t));
  }

  bool changed = true;
  while (changed && result.iterations < max_iterations) {
    changed = false;
    ++result.iterations;
    for (const DatalogRule& r : rules_) {
      ConjunctiveQuery q(r.head.args, r.body);
      rel::Relation derived = q.Evaluate(work);
      rel::Relation* target = work.GetMutable(r.head.relation);
      for (const rel::Tuple& t : derived) {
        if (target->Insert(t)) changed = true;
      }
    }
  }
  result.converged = !changed;
  for (const auto& [name, arity] : idb_arity) {
    result.idb.Set(name, work.Get(name));
  }
  return result;
}

std::string DatalogProgram::ToString() const {
  std::ostringstream out;
  for (const Atom& f : facts_) out << f.ToString() << ".\n";
  for (const DatalogRule& r : rules_) out << r.ToString() << ".\n";
  return out.str();
}

DatalogProgram Sirup::AsProgram() const {
  DatalogProgram program;
  program.AddRule(rule);
  program.AddFact(ground_fact);
  return program;
}

std::optional<std::string> Sirup::Validate() const {
  if (ground_fact.relation != rule.head.relation) {
    return "a sirup's ground fact must be over the rule's head predicate";
  }
  return AsProgram().Validate();
}

}  // namespace sws::logic
