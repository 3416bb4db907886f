#ifndef SWS_LOGIC_CQ_H_
#define SWS_LOGIC_CQ_H_

#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "logic/bytecode.h"
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
/// some body atom (checked by Validate()). Evaluate runs the query's
/// PreparedCq (below) on the join bytecode (logic/bytecode.h): greedily
/// ordered atoms probing hash indexes over their bound columns, each
/// comparison checked once. Callers that evaluate one query repeatedly
/// hold a PreparedCq instead of re-preparing it on every call.
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

  /// Calls f on every term in order: the head, the body atoms'
  /// arguments, then each comparison's lhs and rhs. The non-const
  /// overload rewrites the terms in place.
  template <typename F>
  void ForEachTerm(F f) const {
    ForEachTermOf(*this, f);
  }
  template <typename F>
  void ForEachTerm(F f) {
    ForEachTermOf(*this, f);
  }

  /// The distinct variable ids occurring anywhere in the query,
  /// ascending.
  std::vector<int> Vars() const;
  /// All terms (variables and constants) occurring anywhere: distinct,
  /// variables first (ascending ids), then constants (ascending).
  std::vector<Term> AllTerms() const;

  /// Renames all variables by adding `offset` (for making queries
  /// variable-disjoint before unfolding or containment tests).
  ConjunctiveQuery ShiftVars(int offset) const;
  /// Renames the variables, in ascending id order, to first, first + 1,
  /// ... (a variable-disjoint copy numbered from `first`).
  ConjunctiveQuery Renumbered(int first) const&;
  /// The same, renaming this query in place instead of a copy.
  ConjunctiveQuery Renumbered(int first) &&;
  /// Largest variable id used, or -1 if none.
  int MaxVar() const;

  /// Eliminates '=' comparisons by unification. Returns nullopt if the
  /// equalities are unsatisfiable (two distinct constants equated) or an
  /// inequality became trivially false (t != t). Each '=' class becomes
  /// its representative: the class's constant if it has one, otherwise
  /// its smallest variable. The result has only '≠' comparisons, each
  /// oriented lhs < rhs, sorted and deduplicated; a query with no
  /// comparisons is returned as it is.
  std::optional<ConjunctiveQuery> Normalize() const&;
  /// The same, normalizing this query in place instead of a copy.
  std::optional<ConjunctiveQuery> Normalize() &&;

  /// Canonical ("frozen") database: every variable v becomes the labeled
  /// null _N{v}. Requires a normalized query. Also returns the frozen
  /// head through `frozen_head` if non-null. With `identify` set, each
  /// variable v < identify->size() is first replaced by (*identify)[v]
  /// (the canonical database of an identification of the variables).
  rel::Database CanonicalDatabase(
      rel::Tuple* frozen_head = nullptr,
      const std::vector<Term>* identify = nullptr) const;

  /// A consistent normalized CQ is satisfiable (its canonical database is
  /// a witness); convenience wrapper over Normalize().
  bool IsSatisfiable() const;

  size_t Size() const { return body_.size() + comparisons_.size(); }

  std::string ToString(
      const std::function<std::string(int)>& name = nullptr) const;

  friend bool operator==(const ConjunctiveQuery&, const ConjunctiveQuery&) =
      default;

 private:
  template <typename Self, typename F>
  static void ForEachTermOf(Self& self, F& f) {
    for (auto& t : self.head_) f(t);
    for (auto& a : self.body_) {
      for (auto& t : a.args) f(t);
    }
    for (auto& c : self.comparisons_) {
      f(c.lhs);
      f(c.rhs);
    }
  }

  /// Normalize's one body: reads `self`, then copies or moves it into
  /// the result only once the equalities are known to be satisfiable.
  template <typename Self>
  static std::optional<ConjunctiveQuery> NormalizeImpl(Self&& self);

  std::vector<Term> head_;
  std::vector<Atom> body_;
  std::vector<Comparison> comparisons_;
};

/// Binding of query variables to values for the reference join
/// (ConjunctiveQuery::EvaluateNaive) and the test oracles: a flat
/// small-vector map with linear lookup, as a binding holds a handful of
/// one-word Values. Iteration order is unspecified.
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

/// A dense numbering of variable ids as slots, for preparing join bodies
/// (bytecode::Body): slot s is register s of the lowered program.
class SlotMap {
 public:
  /// Numbers the ids of `vars` not numbered yet, ascending, after the
  /// ones already numbered (a nested body extends its enclosing map).
  void Extend(std::vector<int> vars);
  /// The slot of a numbered id.
  uint16_t operator[](int var) const;
  size_t size() const { return by_id_.size(); }

 private:
  std::vector<std::pair<int, uint16_t>> by_id_;  // sorted by id
  /// Slot + 1 of id by_id_.front().first + i (0: none), when the ids are
  /// dense enough for a table; empty otherwise.
  std::vector<uint16_t> table_;
};

/// Prepares atoms and comparisons over numbered variables as a join body
/// whose slots [0, num_preloaded) are bound by the caller. `group_ends`
/// splits the atoms into independently ordered groups (see
/// bytecode::Body).
bytecode::Body PrepareBody(const SlotMap& slots, size_t num_preloaded,
                           const std::vector<Atom>& atoms,
                           std::vector<uint32_t> group_ends,
                           const std::vector<Comparison>& comparisons,
                           const std::vector<Atom>& negated = {});

/// A join body's connected components as groups (DESIGN.md §8): atoms
/// join through shared variables and through each link's (a comparison's
/// sides, a negated atom's arguments, a nested body's enclosing
/// variables); a variable-free atom is a component of its own. The groups
/// are the components touching the head, then the others, each in order
/// of first appearance, with atoms in body order.
struct BodyGroups {
  std::vector<uint32_t> atoms;       // atom indexes, group by group
  std::vector<uint32_t> group_ends;  // into `atoms`
  size_t head_groups = 0;            // groups [0, head_groups) touch the head
  std::vector<int> link_group;       // -1: no atom shares its variables
};
BodyGroups GroupComponents(const SlotMap& slots, const std::vector<Atom>& atoms,
                           const std::vector<std::vector<Term>>& links,
                           const std::vector<Term>& head);

/// A conjunctive query prepared once for repeated evaluation (DESIGN.md
/// §8): normalized, its variables numbered densely, and its body split
/// into connected components that each become a group of one prepared
/// join body, the head-touching components first. An evaluation only
/// binds relations, orders each component and lowers it
/// (bytecode::Lower): an existential component needs one witness, and
/// the head components run as one program. Immutable, so copies may be
/// shared and read concurrently.
class PreparedCq {
 public:
  explicit PreparedCq(const ConjunctiveQuery& q);

  /// False iff Normalize() found the query unsatisfiable.
  bool satisfiable() const { return satisfiable_; }
  /// Whether the normalized query has comparisons, and its constants
  /// (ascending, distinct): what Klug's test reads of a right-hand side.
  bool has_comparisons() const { return has_comparisons_; }
  const std::vector<rel::Value>& constants() const { return constants_; }

  rel::Relation Evaluate(const rel::Database& db) const;
  bool EvaluatesNonempty(const rel::Database& db) const;
  /// True iff `tuple` is in Evaluate(db) (stops at the first witness).
  bool Produces(const rel::Database& db, const rel::Tuple& tuple) const;

 private:
  /// True iff each group in [first, last) has a match on its own.
  bool GroupsMatch(const rel::Database& db, size_t first, size_t last) const;

  size_t head_arity_ = 0;
  bool satisfiable_ = true;
  bool has_comparisons_ = false;
  std::vector<rel::Value> constants_;
  std::vector<Term> head_;  // over slots
  bytecode::Body body_;
  size_t head_groups_ = 0;  // groups [0, head_groups_) touch the head
};

}  // namespace sws::logic

#endif  // SWS_LOGIC_CQ_H_
