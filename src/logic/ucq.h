#ifndef SWS_LOGIC_UCQ_H_
#define SWS_LOGIC_UCQ_H_

#include <optional>
#include <string>
#include <vector>

#include "logic/cq.h"

namespace sws::logic {

/// A union of conjunctive queries (with = and ≠), all sharing one head
/// arity. UCQ is the synthesis language of SWS(CQ, UCQ) (Section 2).
class UnionQuery {
 public:
  UnionQuery() = default;
  explicit UnionQuery(size_t head_arity) : head_arity_(head_arity) {}
  UnionQuery(size_t head_arity, std::vector<ConjunctiveQuery> disjuncts);

  size_t head_arity() const { return head_arity_; }
  const std::vector<ConjunctiveQuery>& disjuncts() const { return disjuncts_; }
  std::vector<ConjunctiveQuery>* mutable_disjuncts() { return &disjuncts_; }
  size_t size() const { return disjuncts_.size(); }
  bool empty() const { return disjuncts_.empty(); }

  /// Adds a disjunct; aborts on head-arity mismatch.
  void Add(ConjunctiveQuery cq);

  /// A UCQ consisting of a single CQ.
  static UnionQuery Single(ConjunctiveQuery cq);

  std::optional<std::string> Validate() const;

  rel::Relation Evaluate(const rel::Database& db) const;
  bool EvaluatesNonempty(const rel::Database& db) const;

  /// True iff some disjunct is satisfiable (Normalize succeeds). Decides
  /// non-emptiness of the query over all databases.
  bool IsSatisfiable() const;

  /// Drops unsatisfiable disjuncts.
  UnionQuery PruneUnsatisfiable() const;

  /// Renames all variables by adding `offset`.
  UnionQuery ShiftVars(int offset) const;
  int MaxVar() const;

  std::string ToString(
      const std::function<std::string(int)>& name = nullptr) const;

  friend bool operator==(const UnionQuery&, const UnionQuery&) = default;

 private:
  size_t head_arity_ = 0;
  std::vector<ConjunctiveQuery> disjuncts_;
};

}  // namespace sws::logic

#endif  // SWS_LOGIC_UCQ_H_
