#include "logic/containment.h"

#include <algorithm>

#include "util/common.h"

namespace sws::logic {

namespace {

// Recursive restricted-growth enumeration: variable i joins one of the
// existing blocks or opens a new one. blocks[b] is the representative term
// of block b (a constant for constant blocks, else the first variable);
// assignment[v] is the representative of variable v's block.
bool EnumerateFrom(const std::vector<int>& vars, size_t index,
                   std::vector<Term>* blocks, std::vector<Term>* assignment,
                   const std::function<bool(const std::vector<Term>&)>& cb) {
  if (index == vars.size()) return cb(*assignment);
  const int v = vars[index];
  Term& slot = (*assignment)[v];
  // Open a new block represented by v itself (first, so the all-distinct
  // identity partition is enumerated before any merging — callers that
  // search for candidates find the cheap ones early).
  slot = Term::Var(v);
  blocks->push_back(slot);
  bool cont = EnumerateFrom(vars, index + 1, blocks, assignment, cb);
  blocks->pop_back();
  // Join an existing block.
  for (size_t b = 0; cont && b < blocks->size(); ++b) {
    slot = (*blocks)[b];
    cont = EnumerateFrom(vars, index + 1, blocks, assignment, cb);
  }
  slot = Term::Var(v);
  return cont;
}

}  // namespace

bool EnumerateIdentifications(
    const std::vector<Term>& terms,
    const std::function<bool(const std::vector<Term>&)>& on_partition) {
  std::vector<Term> blocks;
  std::vector<int> vars;
  int max_var = -1;
  for (const Term& t : terms) {
    if (t.is_const()) {
      if (std::find(blocks.begin(), blocks.end(), t) == blocks.end()) {
        blocks.push_back(t);
      }
    } else if (std::find(vars.begin(), vars.end(), t.var()) == vars.end()) {
      SWS_CHECK_GE(t.var(), 0);
      vars.push_back(t.var());
      max_var = std::max(max_var, t.var());
    }
  }
  std::vector<Term> assignment;
  assignment.reserve(static_cast<size_t>(max_var + 1));
  for (int v = 0; v <= max_var; ++v) assignment.push_back(Term::Var(v));
  return EnumerateFrom(vars, 0, &blocks, &assignment, on_partition);
}

bool CqContainedIn(const ConjunctiveQuery& q1_in, const PreparedUcq& q2,
                   ContainmentStats* stats) {
  SWS_CHECK_EQ(q1_in.head_arity(), q2.head_arity());
  auto normalized = q1_in.Normalize();
  if (!normalized.has_value()) return true;  // unsatisfiable Q1
  // Variables renamed to 0, 1, ... in id order: the identifications are
  // indexed by id, and the enumeration order (hence the stats) is kept.
  const ConjunctiveQuery q1 = std::move(*normalized).Renumbered(0);
  // The right-hand side is normalized too (PreparedUcq): '=' comparisons
  // are eliminated by unification (they may bind head variables that
  // occur in no body atom, e.g. in view expansions) and unsatisfiable
  // disjuncts dropped.

  // Fast path: right-hand side comparison-free — one canonical database.
  if (!q2.has_comparisons()) {
    rel::Tuple head;
    rel::Database db = q1.CanonicalDatabase(&head);
    if (stats != nullptr) ++stats->canonical_databases;
    return q2.Produces(db, head);
  }

  // Full Klug-style test: enumerate identification partitions over the
  // variables of Q1 and the constants of both queries.
  const std::vector<Term> terms = q1.AllTerms();
  std::vector<rel::Value> constants = q2.constants();
  for (const Term& t : terms) {
    if (t.is_const()) constants.push_back(t.value());
  }
  std::sort(constants.begin(), constants.end());
  constants.erase(std::unique(constants.begin(), constants.end()),
                  constants.end());
  std::vector<Term> items;
  for (const rel::Value& c : constants) items.push_back(Term::Const(c));
  for (const Term& t : terms) {
    if (t.is_var()) items.push_back(t);
  }

  bool contained = true;
  EnumerateIdentifications(items, [&](const std::vector<Term>& ident) {
    auto image = [&ident](const Term& t) -> const Term& {
      return t.is_var() ? ident[t.var()] : t;
    };
    // Skip identifications violating Q1's inequalities: they correspond to
    // no database satisfying Q1's body+comparisons.
    for (const Comparison& c : q1.comparisons()) {
      SWS_CHECK(!c.is_equality);
      if (image(c.lhs) == image(c.rhs)) return true;  // inconsistent branch
    }
    if (stats != nullptr) {
      ++stats->partitions_checked;
      ++stats->canonical_databases;
    }
    // Q1's canonical database under the identification.
    rel::Tuple head;
    rel::Database db = q1.CanonicalDatabase(&head, &ident);
    if (!q2.Produces(db, head)) {
      contained = false;
      return false;  // counterexample found; stop
    }
    return true;
  });
  return contained;
}

bool CqContainedIn(const ConjunctiveQuery& q1, const UnionQuery& q2,
                   ContainmentStats* stats) {
  return CqContainedIn(q1, PreparedUcq(q2), stats);
}

bool UcqContainedIn(const UnionQuery& q1, const PreparedUcq& q2,
                    ContainmentStats* stats) {
  for (const ConjunctiveQuery& d : q1.disjuncts()) {
    if (!CqContainedIn(d, q2, stats)) return false;
  }
  return true;
}

bool UcqContainedIn(const UnionQuery& q1, const UnionQuery& q2,
                    ContainmentStats* stats) {
  return UcqContainedIn(q1, PreparedUcq(q2), stats);
}

bool UcqEquivalent(const UnionQuery& a, const UnionQuery& b,
                   ContainmentStats* stats) {
  return UcqContainedIn(a, b, stats) && UcqContainedIn(b, a, stats);
}

bool CqContainedIn(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                   ContainmentStats* stats) {
  return CqContainedIn(q1, UnionQuery::Single(q2), stats);
}

}  // namespace sws::logic
