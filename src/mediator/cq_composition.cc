#include "mediator/cq_composition.h"

#include <algorithm>

#include "rewriting/cq_rewriting.h"
#include "util/common.h"

namespace sws::med {

using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;
using logic::UnionQuery;

std::string ComponentViewName(size_t i) { return "v" + std::to_string(i); }

Mediator BuildOneLevelMediator(const UnionQuery& rewriting,
                               size_t num_components, size_t rin_arity,
                               size_t rout_arity) {
  Mediator mediator(rin_arity, rout_arity);
  int root = mediator.AddState("q0");
  std::vector<MediatorTarget> successors;
  for (size_t i = 0; i < num_components; ++i) {
    int leaf = mediator.AddState("s" + std::to_string(i));
    successors.push_back(MediatorTarget{leaf, i});
    mediator.SetTransition(leaf, {});
    // Echo the component's output.
    std::vector<Term> head;
    std::vector<Term> args;
    for (size_t a = 0; a < rout_arity; ++a) {
      head.push_back(Term::Var(static_cast<int>(a)));
      args.push_back(Term::Var(static_cast<int>(a)));
    }
    mediator.SetSynthesis(
        leaf, core::RelQuery::Cq(ConjunctiveQuery(
                  head, {Atom{core::kMsgRelation, std::move(args)}})));
  }
  mediator.SetTransition(root, std::move(successors));
  // Root synthesis: view atom v<i> -> Act<i+1>.
  UnionQuery psi(rout_arity);
  for (const ConjunctiveQuery& d : rewriting.disjuncts()) {
    ConjunctiveQuery mapped = d;
    for (Atom& atom : *mapped.mutable_body()) {
      for (size_t i = 0; i < num_components; ++i) {
        if (atom.relation == ComponentViewName(i)) {
          atom.relation = core::ActRelation(i + 1);
          break;
        }
      }
    }
    psi.Add(std::move(mapped));
  }
  mediator.SetSynthesis(root, core::RelQuery::Ucq(std::move(psi)));
  return mediator;
}

namespace {

// The component views at unfolding length n, or nullopt (with `reason`)
// if some component is not CQ-expressible there. Clears `complete` if
// some component's unfolding at n is not complete.
std::optional<std::vector<rw::View>> ViewsAt(
    const std::vector<core::Unfolder>& components, size_t n, bool* complete,
    std::string* reason) {
  std::vector<rw::View> views;
  for (size_t i = 0; i < components.size(); ++i) {
    core::Unfolding unfolding = components[i].At(n);
    *complete = *complete && unfolding.complete;
    const UnionQuery& u = unfolding.ucq;
    if (u.size() > 1) {
      *reason = "component " + std::to_string(i) +
                " is not CQ-expressible at length " + std::to_string(n) +
                " (Corollary 5.2 needs SWSnr(CQ^r) components)";
      return std::nullopt;
    }
    // An empty unfolding: the view produces nothing; represent it by an
    // unsatisfiable CQ so expansions through it are dropped.
    ConjunctiveQuery definition =
        u.size() == 1
            ? u.disjuncts()[0]
            : ConjunctiveQuery(
                  std::vector<Term>(u.head_arity(), Term::Int(0)),
                  {}, {logic::Comparison{Term::Int(0), Term::Int(1), true}});
    views.push_back(rw::View{ComponentViewName(i), std::move(definition)});
  }
  return views;
}

}  // namespace

CqCompositionResult ComposeCqOneLevel(
    const core::Sws& goal, const std::vector<const core::Sws*>& components) {
  CqCompositionResult result{false,
                             "",
                             UnionQuery(goal.rout_arity()),
                             Mediator(goal.rin_arity(), goal.rout_arity()),
                             0};
  if (!goal.IsCqUcq() || goal.IsRecursive()) {
    result.reason = "goal must be in SWSnr(CQ, UCQ)";
    return result;
  }
  size_t n = *goal.MaxDepth();
  for (const core::Sws* c : components) {
    if (!c->IsCqUcq() || c->IsRecursive()) {
      result.reason = "components must be in SWSnr(CQ, UCQ)";
      return result;
    }
    if (c->rin_arity() != goal.rin_arity() ||
        c->rout_arity() != goal.rout_arity()) {
      result.reason = "component schemas must match the goal";
      return result;
    }
    n = std::max(n, *c->MaxDepth());
  }
  result.unfold_length = n;

  // The mediator's synthesis is fixed, so one rewriting must match the
  // goal at every input length up to n. Once every unfolding is complete,
  // longer lengths repeat the last one exactly, so the walk stops there.
  const core::Unfolder goal_unfolder(goal);
  std::vector<core::Unfolder> component_unfolders;
  for (const core::Sws* c : components) component_unfolders.emplace_back(*c);
  std::vector<rw::RewritingTarget> targets;
  bool complete = false;  // every longer length unfolds as the last one
  for (size_t length = 0; length <= n && !complete; ++length) {
    core::Unfolding g = goal_unfolder.At(length);
    complete = g.complete;
    auto views =
        ViewsAt(component_unfolders, length, &complete, &result.reason);
    if (!views.has_value()) return result;
    targets.push_back(
        rw::RewritingTarget{std::move(g.ucq), std::move(*views)});
  }
  // Longest first, as the rewriting covers the fullest unfolding first.
  std::reverse(targets.begin(), targets.end());
  std::optional<UnionQuery> rewriting = rw::EquivalentRewriting(targets);
  if (!rewriting.has_value()) {
    result.reason =
        "no rewriting over the component views matches the goal at every "
        "input length up to " +
        std::to_string(n);
    return result;
  }

  result.found = true;
  result.rewriting = std::move(*rewriting);
  result.mediator = BuildOneLevelMediator(result.rewriting, components.size(),
                                          goal.rin_arity(), goal.rout_arity());
  return result;
}

}  // namespace sws::med
