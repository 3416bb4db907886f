// The complete brute-force search for UCQ rewritings using CQ views,
// kept as the test oracle for rw::EquivalentRewriting: every multiset of
// view atoms up to a size bound, every identification of their argument
// positions (the goals' constants included), and every head a goal
// produces on the frozen expansion of the candidate body. One rewriting
// may have to serve several targets, each a goal over its own views of
// the same names.

#ifndef SWS_TESTS_REWRITING_ORACLE_H_
#define SWS_TESTS_REWRITING_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "logic/containment.h"
#include "logic/cq.h"
#include "logic/ucq.h"
#include "rewriting/cq_rewriting.h"

namespace sws::rw::oracle {

struct SearchResult {
  /// The accepted candidates: each one's expansion over every target's
  /// views is contained in that target's goal, and for some target in no
  /// earlier candidate's expansion.
  logic::UnionQuery rewriting;
  /// True iff the expansion of `rewriting` covers every target's goal;
  /// the search stops there.
  bool covers = false;
  /// True iff the identification budget ran out first: `covers == false`
  /// then means "not found", not "none exists".
  bool budget_exhausted = false;
};

/// Unions the candidate CQs over the view names with at most `max_atoms`
/// view atoms whose expansion over every target's views is contained in
/// that target's goal, until the union covers every goal. A candidate
/// body's heads are read off each goal evaluated on the canonical
/// database of the body's expansion over that target's views (exact for
/// comparison-free goals) and re-verified by Klug containment. At most
/// `max_candidates` identifications are tried.
inline SearchResult SearchRewriting(const std::vector<RewritingTarget>& targets,
                                    size_t max_atoms,
                                    uint64_t max_candidates) {
  using logic::Atom;
  using logic::ConjunctiveQuery;
  using logic::Term;
  const size_t head_arity = targets.front().goal.head_arity();
  const std::vector<View>& views = targets.front().views;  // for the names
  SearchResult result;
  result.rewriting = logic::UnionQuery(head_arity);
  std::vector<logic::PreparedUcq> goals;
  std::vector<logic::PreparedUcq> expansions;  // of the accepted
  std::set<Term> constant_set;
  for (const RewritingTarget& target : targets) {
    goals.emplace_back(target.goal);
    expansions.emplace_back(head_arity);
    for (const ConjunctiveQuery& d : target.goal.disjuncts()) {
      for (const Term& t : d.AllTerms()) {
        if (t.is_const()) constant_set.insert(t);
      }
    }
  }
  auto covered = [&] {
    for (size_t t = 0; t < targets.size(); ++t) {
      if (!logic::UcqContainedIn(targets[t].goal, expansions[t])) return false;
    }
    return true;
  };
  result.covers = covered();
  const std::vector<Term> constants(constant_set.begin(), constant_set.end());
  uint64_t budget = max_candidates;

  // Accepts `candidate` if it is sound for every target and new for some;
  // false once the union covers every goal.
  auto try_candidate = [&](const ConjunctiveQuery& candidate) {
    std::vector<ConjunctiveQuery> expanded;
    bool is_new = false;
    for (size_t t = 0; t < targets.size(); ++t) {
      expanded.push_back(ExpandViewAtoms(candidate, targets[t].views));
      if (!logic::CqContainedIn(expanded.back(), goals[t])) return true;
      is_new = is_new || !logic::CqContainedIn(expanded.back(), expansions[t]);
    }
    if (!is_new) return true;
    result.rewriting.Add(candidate);
    for (size_t t = 0; t < targets.size(); ++t) expansions[t].Add(expanded[t]);
    result.covers = covered();
    return !result.covers;
  };

  // Tries every head some goal produces for `body`, whose distinct terms
  // are `blocks`; false once the union covers every goal.
  auto try_heads = [&](const std::vector<Atom>& body,
                       const std::vector<Term>& blocks) {
    for (size_t t = 0; t < targets.size(); ++t) {
      auto expanded =
          ExpandViewAtoms(ConjunctiveQuery(blocks, body), targets[t].views)
              .Normalize();
      if (!expanded.has_value()) continue;  // unsatisfiable body
      rel::Tuple frozen_blocks;
      const rel::Database canon = expanded->CanonicalDatabase(&frozen_blocks);
      for (const rel::Tuple& h : goals[t].Evaluate(canon)) {
        std::vector<Term> head;
        for (const rel::Value& value : h) {
          const size_t k = static_cast<size_t>(
              std::find(frozen_blocks.begin(), frozen_blocks.end(), value) -
              frozen_blocks.begin());
          if (k < blocks.size()) {
            head.push_back(blocks[k]);
          } else if (!value.is_null()) {
            head.push_back(Term::Const(value));
          } else {
            break;  // a view-internal null: no head term can name it
          }
        }
        if (head.size() < h.size()) continue;
        if (!try_candidate(ConjunctiveQuery(std::move(head), body))) {
          return false;
        }
      }
    }
    return true;
  };

  // Every identification of the argument positions of the view multiset
  // `chosen`; false once the search stops.
  auto try_multiset = [&](const std::vector<size_t>& chosen) {
    std::vector<Term> items = constants;
    size_t positions = 0;
    for (size_t v : chosen) positions += views[v].definition.head_arity();
    for (size_t i = 0; i < positions; ++i) {
      items.push_back(Term::Var(static_cast<int>(i)));
    }
    return logic::EnumerateIdentifications(
        items, [&](const std::vector<Term>& ident) {
          if (budget == 0) {
            result.budget_exhausted = true;
            return false;
          }
          --budget;
          std::vector<Atom> body;
          std::vector<Term> blocks;
          size_t pos = 0;
          for (size_t v : chosen) {
            Atom atom{views[v].name, {}};
            for (size_t i = 0; i < views[v].definition.head_arity(); ++i) {
              const Term& rep = ident[pos++];
              if (std::find(blocks.begin(), blocks.end(), rep) ==
                  blocks.end()) {
                blocks.push_back(rep);
              }
              atom.args.push_back(rep);
            }
            body.push_back(std::move(atom));
          }
          return try_heads(body, blocks);
        });
  };

  std::vector<size_t> chosen;  // view indices, nondecreasing
  std::function<bool(size_t)> choose = [&](size_t min_view) {
    if (!chosen.empty() && !try_multiset(chosen)) return false;
    if (chosen.size() == max_atoms) return true;
    for (size_t v = min_view; v < views.size(); ++v) {
      chosen.push_back(v);
      const bool keep_going = choose(v);
      chosen.pop_back();
      if (!keep_going) return false;
    }
    return true;
  };
  if (!result.covers) choose(0);
  return result;
}

}  // namespace sws::rw::oracle

#endif  // SWS_TESTS_REWRITING_ORACLE_H_
