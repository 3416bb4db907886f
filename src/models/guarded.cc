#include "models/guarded.h"

#include "util/common.h"

namespace sws::models {

namespace {
using logic::FoFormula;
using logic::FoQuery;
using logic::Term;
}  // namespace

GuardedAutomaton::GuardedAutomaton(rel::Schema db_schema, size_t input_arity,
                                   size_t action_arity, int num_states,
                                   int start_state)
    : db_schema_(std::move(db_schema)),
      input_arity_(input_arity),
      action_arity_(action_arity),
      num_states_(num_states),
      start_state_(start_state) {
  SWS_CHECK(num_states >= 1);
  SWS_CHECK(start_state >= 0 && start_state < num_states);
}

void GuardedAutomaton::AddTransition(GuardedTransition transition) {
  SWS_CHECK(transition.from >= 0 && transition.from < num_states_);
  SWS_CHECK(transition.to >= 0 && transition.to < num_states_);
  transitions_.push_back(std::move(transition));
}

std::optional<std::string> GuardedAutomaton::Validate() const {
  for (size_t i = 0; i < transitions_.size(); ++i) {
    const GuardedTransition& t = transitions_[i];
    if (!t.guard.FreeVars().empty()) {
      return "guard of transition " + std::to_string(i) +
             " has free variables";
    }
    for (int v : t.action.FreeVars()) {
      if (v < 0 || v >= static_cast<int>(action_arity_)) {
        return "action of transition " + std::to_string(i) +
               " has out-of-range free variable X" + std::to_string(v);
      }
    }
  }
  return std::nullopt;
}

GuardedAutomaton::StepResult GuardedAutomaton::Step(
    const rel::Database& db, const std::set<int>& states,
    const rel::Relation& input) const {
  rel::Database env = db;
  env.Set(Peer::kPeerInput, input);

  StepResult result;
  result.actions = rel::Relation(action_arity_);
  for (const GuardedTransition& t : transitions_) {
    if (states.count(t.from) == 0) continue;
    if (FoQuery({}, t.guard).Evaluate(env).empty()) continue;
    result.next_states.insert(t.to);
    std::vector<Term> head;
    for (size_t i = 0; i < action_arity_; ++i) {
      head.push_back(Term::Var(static_cast<int>(i)));
    }
    result.actions =
        result.actions.Union(FoQuery(head, t.action).Evaluate(env));
  }
  return result;
}

Peer GuardedAutomaton::ToPeer() const {
  SWS_CHECK(!Validate().has_value()) << *Validate();
  Peer peer(db_schema_, input_arity_, /*state_arity=*/1, action_arity_);

  // "state q is active": S(q), or q = start when S is empty (the encoded
  // initial configuration).
  auto active = [this](int q) {
    FoFormula in_s = FoFormula::MakeAtom(Peer::kPeerState, {Term::Int(q)});
    if (q != start_state_) return in_s;
    FoFormula s_empty = FoFormula::Not(FoFormula::Exists(
        900, FoFormula::MakeAtom(Peer::kPeerState, {Term::Var(900)})));
    return FoFormula::Or(in_s, s_empty);
  };

  std::vector<FoFormula> state_branches;
  std::vector<FoFormula> action_branches;
  for (const GuardedTransition& t : transitions_) {
    FoFormula fires = FoFormula::And(active(t.from), t.guard);
    state_branches.push_back(
        FoFormula::And({fires, FoFormula::Eq(Term::Var(0), Term::Int(t.to))}));
    action_branches.push_back(FoFormula::And(fires, t.action));
  }
  peer.set_state_rule(FoFormula::Or(std::move(state_branches)));
  peer.set_action_rule(FoFormula::Or(std::move(action_branches)));
  SWS_CHECK(!peer.Validate().has_value()) << *peer.Validate();
  return peer;
}

}  // namespace sws::models
