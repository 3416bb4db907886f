#include "sws/query.h"

#include "util/common.h"

namespace sws::core {

std::string ActRelation(size_t successor_index_1based) {
  SWS_CHECK_GE(successor_index_1based, 1u);
  return "Act" + std::to_string(successor_index_1based);
}

size_t ActIndex(const std::string& relation) {
  // "Act" and 1 to 9 digits, the first not 0.
  if (relation.size() < 4 || relation.size() > 12 ||
      relation.compare(0, 3, "Act") != 0 || relation[3] == '0') {
    return 0;
  }
  size_t i = 0;
  for (size_t pos = 3; pos < relation.size(); ++pos) {
    const char c = relation[pos];
    if (c < '0' || c > '9') return 0;
    i = i * 10 + static_cast<size_t>(c - '0');
  }
  return i;
}

RelQuery::RelQuery(logic::ConjunctiveQuery q)
    : query_(std::move(q)),
      prepared_(std::make_shared<const logic::PreparedUcq>(
          logic::UnionQuery::Single(cq()))) {}

RelQuery::RelQuery(logic::UnionQuery q)
    : query_(std::move(q)),
      prepared_(std::make_shared<const logic::PreparedUcq>(ucq())) {}

RelQuery::Language RelQuery::language() const {
  if (std::holds_alternative<logic::ConjunctiveQuery>(query_)) {
    return Language::kCq;
  }
  if (std::holds_alternative<logic::UnionQuery>(query_)) {
    return Language::kUcq;
  }
  return Language::kFo;
}

const logic::ConjunctiveQuery& RelQuery::cq() const {
  SWS_CHECK(is_cq());
  return std::get<logic::ConjunctiveQuery>(query_);
}

const logic::UnionQuery& RelQuery::ucq() const {
  SWS_CHECK(is_ucq());
  return std::get<logic::UnionQuery>(query_);
}

const logic::FoQuery& RelQuery::fo() const {
  SWS_CHECK(is_fo());
  return std::get<logic::FoQuery>(query_);
}

logic::UnionQuery RelQuery::AsUcq() const {
  switch (language()) {
    case Language::kCq:
      return logic::UnionQuery::Single(cq());
    case Language::kUcq:
      return ucq();
    case Language::kFo:
      SWS_CHECK(false) << "FO query is not a UCQ";
  }
  return logic::UnionQuery();
}

logic::FoQuery RelQuery::AsFo() const {
  switch (language()) {
    case Language::kCq:
      return logic::FoQuery::FromCq(cq());
    case Language::kUcq: {
      const logic::UnionQuery& u = ucq();
      // Head of the FO query: fresh variables y_0..y_{k-1}; each disjunct
      // contributes Exists(vars) (body & head-match).
      int offset = u.MaxVar() + 1;
      std::vector<logic::Term> head;
      for (size_t i = 0; i < u.head_arity(); ++i) {
        head.push_back(logic::Term::Var(offset + static_cast<int>(i)));
      }
      std::vector<logic::FoFormula> branches;
      for (const auto& d : u.disjuncts()) {
        logic::FoQuery dq = logic::FoQuery::FromCq(d);
        // Match the disjunct head to the shared head variables.
        std::vector<logic::FoFormula> conj;
        conj.push_back(dq.formula());
        std::vector<int> inner;
        std::set<int> seen;
        for (size_t i = 0; i < d.head().size(); ++i) {
          const logic::Term& t = d.head()[i];
          conj.push_back(logic::FoFormula::Eq(head[i], t));
          if (t.is_var() && seen.insert(t.var()).second) {
            inner.push_back(t.var());
          }
        }
        branches.push_back(logic::FoFormula::Exists(
            inner, logic::FoFormula::And(std::move(conj))));
      }
      return logic::FoQuery(head, logic::FoFormula::Or(std::move(branches)));
    }
    case Language::kFo:
      return fo();
  }
  return logic::FoQuery();
}

size_t RelQuery::head_arity() const {
  switch (language()) {
    case Language::kCq:
      return cq().head_arity();
    case Language::kUcq:
      return ucq().head_arity();
    case Language::kFo:
      return fo().head_arity();
  }
  return 0;
}

std::set<std::string> RelQuery::ReadRelations() const {
  std::set<std::string> out;
  ForEachReadRelation([&out](const std::string& r) { out.insert(r); });
  return out;
}

std::optional<std::string> RelQuery::Validate() const {
  switch (language()) {
    case Language::kCq:
      return cq().Validate();
    case Language::kUcq:
      return ucq().Validate();
    case Language::kFo:
      return fo().Validate();
  }
  return std::nullopt;
}

rel::Relation RelQuery::Evaluate(const rel::Database& env) const {
  return is_fo() ? fo().Evaluate(env) : prepared_->Evaluate(env);
}

bool RelQuery::EvaluatesNonempty(const rel::Database& env) const {
  return is_fo() ? !fo().Evaluate(env).empty()
                 : prepared_->EvaluatesNonempty(env);
}

std::string RelQuery::ToString() const {
  switch (language()) {
    case Language::kCq:
      return "[CQ] " + cq().ToString();
    case Language::kUcq:
      return "[UCQ] " + ucq().ToString();
    case Language::kFo:
      return "[FO] " + fo().ToString();
  }
  return "?";
}

}  // namespace sws::core
