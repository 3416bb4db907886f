#include "logic/containment.h"

#include <algorithm>

#include "util/common.h"

namespace sws::logic {

namespace {

// Recursive restricted-growth enumeration: variable i joins one of the
// existing blocks or opens a new one. blocks[b] is the representative term
// of block b (a constant for constant blocks, else the first variable).
bool EnumerateFrom(const std::vector<int>& vars, size_t index,
                   std::vector<Term>* blocks,
                   std::map<int, Term>* assignment,
                   const std::function<bool(const std::map<int, Term>&)>& cb) {
  if (index == vars.size()) return cb(*assignment);
  int v = vars[index];
  // Open a new block represented by v itself (first, so the all-distinct
  // identity partition is enumerated before any merging — callers that
  // search for candidates find the cheap ones early).
  (*assignment)[v] = Term::Var(v);
  blocks->push_back(Term::Var(v));
  bool cont = EnumerateFrom(vars, index + 1, blocks, assignment, cb);
  blocks->pop_back();
  if (!cont) {
    assignment->erase(v);
    return false;
  }
  // Join an existing block.
  for (size_t b = 0; b < blocks->size(); ++b) {
    (*assignment)[v] = (*blocks)[b];
    if (!EnumerateFrom(vars, index + 1, blocks, assignment, cb)) {
      assignment->erase(v);
      return false;
    }
  }
  assignment->erase(v);
  return true;
}

}  // namespace

bool EnumerateIdentifications(
    const std::vector<Term>& terms,
    const std::function<bool(const std::map<int, Term>&)>& on_partition) {
  std::vector<Term> blocks;
  std::vector<int> vars;
  for (const Term& t : terms) {
    if (t.is_const()) {
      if (std::find(blocks.begin(), blocks.end(), t) == blocks.end()) {
        blocks.push_back(t);
      }
    } else if (std::find(vars.begin(), vars.end(), t.var()) == vars.end()) {
      vars.push_back(t.var());
    }
  }
  std::map<int, Term> assignment;
  return EnumerateFrom(vars, 0, &blocks, &assignment,
                       on_partition);
}

namespace {

// True iff the frozen head tuple is in q2 evaluated over db.
bool HeadProducedBy(const UnionQuery& q2, const rel::Database& db,
                    const rel::Tuple& head) {
  for (const ConjunctiveQuery& d : q2.disjuncts()) {
    bool found = false;
    EnumerateMatches(d.body(), d.comparisons(), db,
                     [&](const Binding& binding) {
                       size_t i = 0;
                       while (i < head.size() &&
                              ResolveTerm(d.head()[i], binding) == head[i]) {
                         ++i;
                       }
                       found = i == head.size();
                       return !found;  // stop at the first witness
                     });
    if (found) return true;
  }
  return false;
}

bool AnyDisjunctHasComparisons(const UnionQuery& q) {
  for (const auto& d : q.disjuncts()) {
    if (!d.comparisons().empty()) return true;
  }
  return false;
}

}  // namespace

bool CqContainedIn(const ConjunctiveQuery& q1_in, const UnionQuery& q2_in,
                   ContainmentStats* stats) {
  SWS_CHECK_EQ(q1_in.head_arity(), q2_in.head_arity());
  auto normalized = q1_in.Normalize();
  if (!normalized.has_value()) return true;  // unsatisfiable Q1
  const ConjunctiveQuery& q1 = *normalized;
  // Normalize the right-hand side too: '=' comparisons are eliminated by
  // unification (they may bind head variables that occur in no body
  // atom, e.g. in view expansions) and unsatisfiable disjuncts dropped.
  UnionQuery q2 = q2_in.PruneUnsatisfiable();

  // Fast path: right-hand side comparison-free — one canonical database.
  if (!AnyDisjunctHasComparisons(q2)) {
    rel::Tuple head;
    rel::Database db = q1.CanonicalDatabase(&head);
    if (stats != nullptr) ++stats->canonical_databases;
    return HeadProducedBy(q2, db, head);
  }

  // Full Klug-style test: enumerate identification partitions over the
  // variables of Q1 and the constants of both queries.
  std::vector<Term> terms = q1.AllTerms();
  std::set<rel::Value> constants;
  for (const Term& t : terms) {
    if (t.is_const()) constants.insert(t.value());
  }
  for (const auto& d : q2.disjuncts()) {
    for (const Term& t : d.AllTerms()) {
      if (t.is_const()) constants.insert(t.value());
    }
  }
  std::vector<Term> items;
  for (const auto& c : constants) items.push_back(Term::Const(c));
  for (const Term& t : terms) {
    if (t.is_var()) items.push_back(t);
  }

  bool contained = true;
  EnumerateIdentifications(items, [&](const std::map<int, Term>& ident) {
    // Instantiate Q1 under the identification.
    ConjunctiveQuery q1_pi = q1.Substitute(ident);
    // Skip identifications violating Q1's inequalities: they correspond to
    // no database satisfying Q1's body+comparisons.
    for (const Comparison& c : q1_pi.comparisons()) {
      SWS_CHECK(!c.is_equality);
      if (c.lhs == c.rhs) return true;  // inconsistent branch; continue
    }
    if (stats != nullptr) {
      ++stats->partitions_checked;
      ++stats->canonical_databases;
    }
    rel::Tuple head;
    rel::Database db = q1_pi.CanonicalDatabase(&head);
    if (!HeadProducedBy(q2, db, head)) {
      contained = false;
      return false;  // counterexample found; stop
    }
    return true;
  });
  return contained;
}

bool UcqContainedIn(const UnionQuery& q1, const UnionQuery& q2,
                    ContainmentStats* stats) {
  for (const ConjunctiveQuery& d : q1.disjuncts()) {
    if (!CqContainedIn(d, q2, stats)) return false;
  }
  return true;
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
