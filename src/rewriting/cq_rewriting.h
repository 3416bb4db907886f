#ifndef SWS_REWRITING_CQ_REWRITING_H_
#define SWS_REWRITING_CQ_REWRITING_H_

#include <optional>
#include <string>
#include <vector>

#include "logic/cq.h"
#include "logic/ucq.h"

namespace sws::rw {

/// Equivalent rewriting of conjunctive queries using CQ views (cf. [3,
/// 14, 23] and the survey [20]) — the engine behind Theorem 5.1(3) and
/// the Corollary 5.2 setting, where SWS composition is "ptime-equivalent
/// to equivalent query rewriting using views".
///
/// A view is a named CQ over the base schema; rewritings are queries over
/// the *view* relations. The expansion of a rewriting substitutes each
/// view atom by the view's (freshly renamed) body, unifying the head.

struct View {
  std::string name;
  logic::ConjunctiveQuery definition;
};

/// Replaces every view atom of `rewriting` by its definition. Atoms whose
/// relation is not a view name are kept (assumed base relations).
logic::ConjunctiveQuery ExpandViewAtoms(const logic::ConjunctiveQuery& rewriting,
                                        const std::vector<View>& views);
logic::UnionQuery ExpandViewAtoms(const logic::UnionQuery& rewriting,
                                  const std::vector<View>& views);

/// A goal and the views to rewrite it over.
struct RewritingTarget {
  logic::UnionQuery goal;
  std::vector<View> views;
};

/// One rewriting R over the view names with expand(R, views_j) ≡ goal_j
/// for every target j, or nullopt (composition needs one R for the
/// unfoldings at every input length). R is a union of canonical
/// rewritings: for each satisfiable goal disjunct Q_i that R does not yet
/// cover, the views are evaluated on Q_i's canonical database and each
/// view tuple becomes a view atom over Q_i's variables:
///   R_i = ans(head of Q_i) :- <every view tuple as a view atom>, <Q_i's ≠>.
/// A view tuple counts only if Q_i entails the view's '≠', and Q_i's '≠'
/// over variables no view atom exports are left out, so R_i covers Q_i.
/// Returns nullopt if some R_i is unsafe (a head variable no view
/// exports) or its expansion over some target's views is not contained
/// in that target's goal (Klug containment).
///
/// For comparison-free goals and views this decides whether such a UCQ
/// rewriting exists (Levy, Mendelzon, Sagiv & Srivastava, PODS 1995;
/// DESIGN.md §4, "Canonical rewriting"); with '≠' it is sound but not
/// complete.
std::optional<logic::UnionQuery> EquivalentRewriting(
    const std::vector<RewritingTarget>& targets);

/// An equivalent rewriting of `goal` over `views` (a single target).
std::optional<logic::UnionQuery> EquivalentRewriting(
    const logic::UnionQuery& goal, const std::vector<View>& views);

}  // namespace sws::rw

#endif  // SWS_REWRITING_CQ_REWRITING_H_
