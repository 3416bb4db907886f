#include "logic/ucq.h"

#include <sstream>

#include "util/common.h"

namespace sws::logic {

UnionQuery::UnionQuery(size_t head_arity,
                       std::vector<ConjunctiveQuery> disjuncts)
    : head_arity_(head_arity) {
  for (auto& d : disjuncts) Add(std::move(d));
}

void UnionQuery::Add(ConjunctiveQuery cq) {
  SWS_CHECK_EQ(cq.head_arity(), head_arity_)
      << "UCQ disjunct head arity mismatch";
  disjuncts_.push_back(std::move(cq));
}

UnionQuery UnionQuery::Single(ConjunctiveQuery cq) {
  UnionQuery u(cq.head_arity());
  u.Add(std::move(cq));
  return u;
}

std::optional<std::string> UnionQuery::Validate() const {
  for (const auto& d : disjuncts_) {
    if (auto err = d.Validate(); err.has_value()) return err;
  }
  return std::nullopt;
}

rel::Relation UnionQuery::Evaluate(const rel::Database& db) const {
  rel::Relation out(head_arity_);
  for (const auto& d : disjuncts_) {
    out = out.Union(d.Evaluate(db));
  }
  return out;
}

bool UnionQuery::EvaluatesNonempty(const rel::Database& db) const {
  for (const auto& d : disjuncts_) {
    if (d.EvaluatesNonempty(db)) return true;
  }
  return false;
}

bool UnionQuery::IsSatisfiable() const {
  for (const auto& d : disjuncts_) {
    if (d.IsSatisfiable()) return true;
  }
  return false;
}

UnionQuery UnionQuery::PruneUnsatisfiable() const {
  UnionQuery out(head_arity_);
  for (const auto& d : disjuncts_) {
    if (auto norm = d.Normalize(); norm.has_value()) out.Add(*norm);
  }
  return out;
}

UnionQuery UnionQuery::ShiftVars(int offset) const {
  UnionQuery out(head_arity_);
  for (const auto& d : disjuncts_) out.Add(d.ShiftVars(offset));
  return out;
}

int UnionQuery::MaxVar() const {
  int max_var = -1;
  for (const auto& d : disjuncts_) max_var = std::max(max_var, d.MaxVar());
  return max_var;
}

std::string UnionQuery::ToString(
    const std::function<std::string(int)>& name) const {
  if (disjuncts_.empty()) return "ans() :- false";
  std::ostringstream out;
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out << "\n  UNION ";
    out << disjuncts_[i].ToString(name);
  }
  return out.str();
}

}  // namespace sws::logic
