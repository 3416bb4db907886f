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

/// A UCQ prepared once for repeated evaluation and as the right-hand
/// side of containment tests: each satisfiable disjunct as a PreparedCq
/// (unsatisfiable ones are dropped), plus what Klug's test reads of the
/// union. Immutable once built, so copies may be shared and read
/// concurrently.
class PreparedUcq {
 public:
  explicit PreparedUcq(size_t head_arity) : head_arity_(head_arity) {}
  explicit PreparedUcq(const UnionQuery& q);

  /// Prepares and adds a disjunct (nothing if it is unsatisfiable).
  void Add(const ConjunctiveQuery& cq);

  size_t head_arity() const { return head_arity_; }
  /// True iff some (normalized) disjunct has a comparison.
  bool has_comparisons() const { return has_comparisons_; }
  /// The constants of the normalized disjuncts, ascending and distinct.
  const std::vector<rel::Value>& constants() const { return constants_; }

  rel::Relation Evaluate(const rel::Database& db) const;
  bool EvaluatesNonempty(const rel::Database& db) const;
  /// True iff `tuple` is in Evaluate(db) (stops at the first witness).
  bool Produces(const rel::Database& db, const rel::Tuple& tuple) const;

 private:
  size_t head_arity_ = 0;
  std::vector<PreparedCq> disjuncts_;
  bool has_comparisons_ = false;
  std::vector<rel::Value> constants_;
};

}  // namespace sws::logic

#endif  // SWS_LOGIC_UCQ_H_
