#ifndef SWS_LOGIC_CQ_H_
#define SWS_LOGIC_CQ_H_

#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "logic/term.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace sws::logic {

/// A positive relational atom R(t_1, ..., t_k).
struct Atom {
  std::string relation;
  std::vector<Term> args;

  std::string ToString(
      const std::function<std::string(int)>& name = nullptr) const;
  friend bool operator==(const Atom&, const Atom&) = default;
  friend std::strong_ordering operator<=>(const Atom&, const Atom&) = default;
};

/// An (in)equality comparison t_1 = t_2 or t_1 != t_2 between terms.
/// The paper's CQ and UCQ classes include '=' and '≠' (Section 2).
struct Comparison {
  Term lhs;
  Term rhs;
  bool is_equality = true;

  std::string ToString(
      const std::function<std::string(int)>& name = nullptr) const;
  friend bool operator==(const Comparison&, const Comparison&) = default;
  friend std::strong_ordering operator<=>(const Comparison&, const Comparison&) =
      default;
};

/// A conjunctive query with equality and inequality:
///   head(x̄) :- A_1, ..., A_m, c_1, ..., c_l
/// where the A_i are positive atoms and the c_j are (in)equalities.
///
/// Safety: every variable in the head or in a comparison must occur in
/// some body atom (checked by Validate()). Evaluate splits the body into
/// connected components and runs each on the join bytecode
/// (logic/bytecode.h): greedily ordered atoms probing hash indexes over
/// their bound columns, each comparison checked once.
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;
  ConjunctiveQuery(std::vector<Term> head, std::vector<Atom> body,
                   std::vector<Comparison> comparisons = {})
      : head_(std::move(head)),
        body_(std::move(body)),
        comparisons_(std::move(comparisons)) {}

  const std::vector<Term>& head() const { return head_; }
  const std::vector<Atom>& body() const { return body_; }
  const std::vector<Comparison>& comparisons() const { return comparisons_; }
  size_t head_arity() const { return head_.size(); }

  std::vector<Term>* mutable_head() { return &head_; }
  std::vector<Atom>* mutable_body() { return &body_; }
  std::vector<Comparison>* mutable_comparisons() { return &comparisons_; }

  /// Checks safety and that atoms of the same relation agree on arity.
  /// Returns an error message, or nullopt if well-formed.
  std::optional<std::string> Validate() const;

  /// Evaluates over the database. Atoms referring to relations absent from
  /// the database match nothing. Inequalities compare values directly
  /// (labeled nulls are plain values: distinct labels are distinct).
  rel::Relation Evaluate(const rel::Database& db) const;

  /// Reference evaluation: plain backtracking join in textual atom order,
  /// with no greedy reordering and no connected-component decomposition.
  /// Semantically identical to Evaluate; kept as the ablation baseline
  /// for the benchmarks (guard-heavy unfolded queries are exponential
  /// without the optimizations).
  rel::Relation EvaluateNaive(const rel::Database& db) const;

  /// True iff Evaluate(db) would be nonempty (stops at first match).
  bool EvaluatesNonempty(const rel::Database& db) const;

  /// All variable ids occurring anywhere in the query.
  std::set<int> Vars() const;
  /// All terms (variables and constants) occurring anywhere.
  std::vector<Term> AllTerms() const;
  /// All relation names occurring in the body.
  std::set<std::string> BodyRelations() const;

  /// Applies a variable substitution to every term.
  ConjunctiveQuery Substitute(const std::map<int, Term>& map) const;

  /// Renames all variables by adding `offset` (for making queries
  /// variable-disjoint before unfolding or containment tests).
  ConjunctiveQuery ShiftVars(int offset) const;
  /// Largest variable id used, or -1 if none.
  int MaxVar() const;

  /// Eliminates '=' comparisons by unification. Returns nullopt if the
  /// equalities are unsatisfiable (two distinct constants equated) or an
  /// inequality became trivially false (t != t). The result has only
  /// '≠' comparisons, with duplicates removed.
  std::optional<ConjunctiveQuery> Normalize() const;

  /// Canonical ("frozen") database: every variable v becomes the labeled
  /// null _N{v}. Requires a normalized query. Also returns the frozen
  /// head through `frozen_head` if non-null.
  rel::Database CanonicalDatabase(rel::Tuple* frozen_head = nullptr) const;

  /// A consistent normalized CQ is satisfiable (its canonical database is
  /// a witness); convenience wrapper over Normalize().
  bool IsSatisfiable() const;

  size_t Size() const { return body_.size() + comparisons_.size(); }

  std::string ToString(
      const std::function<std::string(int)>& name = nullptr) const;

  friend bool operator==(const ConjunctiveQuery&, const ConjunctiveQuery&) =
      default;

 private:
  std::vector<Term> head_;
  std::vector<Atom> body_;
  std::vector<Comparison> comparisons_;
};

/// Binding of query variables to values during evaluation / homomorphism
/// search. Bindings hold a handful of variables at a time, so this is a
/// flat small-vector map with linear lookup: with packed one-word Values
/// the whole binding sits in one or two cache lines, and find/erase beat
/// the node-based std::map it replaced by a wide margin in the FO/CQ
/// interpreter loops (the peer-store runtime workload resolves terms
/// millions of times per run). Iteration order is insertion order with
/// swap-removal on erase — unspecified, like the unordered maps it
/// mirrors; no caller may depend on it.
class Binding {
 public:
  using value_type = std::pair<int, rel::Value>;
  using const_iterator = std::vector<value_type>::const_iterator;

  Binding() = default;
  Binding(std::initializer_list<value_type> init) : entries_(init) {}

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const_iterator find(int var) const {
    auto it = entries_.begin();
    while (it != entries_.end() && it->first != var) ++it;
    return it;
  }
  /// Returns the value bound to `var`, default-inserting like std::map.
  rel::Value& operator[](int var) {
    for (auto& e : entries_) {
      if (e.first == var) return e.second;
    }
    entries_.emplace_back(var, rel::Value());
    return entries_.back().second;
  }
  /// Inserts only if `var` is unbound (std::map::emplace semantics).
  void emplace(int var, const rel::Value& v) {
    if (find(var) == end()) entries_.emplace_back(var, v);
  }
  void erase(int var) {
    for (auto& e : entries_) {
      if (e.first == var) {
        e = entries_.back();
        entries_.pop_back();
        return;
      }
    }
  }

 private:
  std::vector<value_type> entries_;
};

/// Resolves a term under a binding; nullopt if an unbound variable.
std::optional<rel::Value> ResolveTerm(const Term& term, const Binding& binding);

/// Enumerates all bindings of `body` atoms (plus comparisons) against the
/// database, invoking `on_match` for each complete binding. If `on_match`
/// returns false, enumeration stops early. Returns false iff stopped early.
bool EnumerateMatches(const std::vector<Atom>& body,
                      const std::vector<Comparison>& comparisons,
                      const rel::Database& db,
                      const std::function<bool(const Binding&)>& on_match);

}  // namespace sws::logic

#endif  // SWS_LOGIC_CQ_H_
