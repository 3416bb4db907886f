#ifndef SWS_SWS_STATE_GRAPH_H_
#define SWS_SWS_STATE_GRAPH_H_

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/common.h"

namespace sws::core {

/// The machine shape (Q, δ, σ, q0) that synthesized Web services
/// (Definition 2.1) and mediators (Definition 5.1) share: named states,
/// one transition rule q → (q_1, ·), ..., (q_k, ·) and one synthesis rule
/// Act(q) ← ψ per state. State 0 is the start state q0.
///
/// `Successor` is one right-hand-side entry of a transition rule and names
/// its target as `int state`; `Rule` is the synthesis-rule language. The
/// machine classes derive from this and add their rule checks, their
/// class names and their printing.
///
/// The const interface keeps no mutable state, so a built graph may be
/// read by any number of concurrent runs; mutators (AddState,
/// SetTransition, SetSynthesis) must not race with reads.
template <typename Successor, typename Rule>
class StateGraph {
 public:
  /// Adds a state; returns its id. The first state added is q0. State
  /// names are unique.
  int AddState(std::string name) {
    SWS_CHECK(FindState(name) < 0) << "duplicate state name " << name;
    State state;
    state.name = std::move(name);
    states_.push_back(std::move(state));
    return num_states() - 1;
  }
  int num_states() const { return static_cast<int>(states_.size()); }
  int start_state() const { return 0; }
  const std::string& StateName(int q) const {
    SWS_CHECK(q >= 0 && q < num_states());
    return states_[q].name;
  }
  /// State id by name; -1 if absent.
  int FindState(const std::string& name) const {
    for (int q = 0; q < num_states(); ++q) {
      if (states_[q].name == name) return q;
    }
    return -1;
  }

  /// Sets the transition rule of q (replacing any previous one). An empty
  /// vector makes q a final state.
  void SetTransition(int q, std::vector<Successor> successors) {
    SWS_CHECK(q >= 0 && q < num_states());
    for (const Successor& s : successors) {
      SWS_CHECK(s.state >= 0 && s.state < num_states())
          << "transition to unknown state " << s.state;
    }
    states_[q].successors = std::move(successors);
  }
  /// Sets the synthesis rule of q.
  void SetSynthesis(int q, Rule synthesis) {
    SWS_CHECK(q >= 0 && q < num_states());
    states_[q].synthesis = std::move(synthesis);
  }

  const std::vector<Successor>& Successors(int q) const {
    SWS_CHECK(q >= 0 && q < num_states());
    return states_[q].successors;
  }
  const Rule& Synthesis(int q) const {
    SWS_CHECK(q >= 0 && q < num_states());
    SWS_CHECK(states_[q].synthesis.has_value())
        << "state " << states_[q].name << " has no synthesis rule";
    return *states_[q].synthesis;
  }
  bool IsFinalState(int q) const { return Successors(q).empty(); }

  /// The dependency graph has an edge q → q_i per successor entry; the
  /// machine is recursive iff the part reachable from q0 is cyclic
  /// (Section 2, "SWS classes").
  bool IsRecursive() const { return !MaxDepth().has_value(); }

  /// For nonrecursive machines: the number of levels of any execution
  /// tree, i.e. the longest state-chain from q0 (the root is at timestamp
  /// 0 and the deepest nodes at depth − 1, so inputs beyond I_{depth−1}
  /// are never read); 0 without states. nullopt if recursive.
  std::optional<size_t> MaxDepth() const {
    if (states_.empty()) return 0;
    std::vector<Color> color(states_.size(), Color::kWhite);
    std::vector<size_t> depth(states_.size(), 1);
    if (!Visit(start_state(), color, depth)) return std::nullopt;
    return depth[start_state()];
  }

 protected:
  /// One state's name and rules; `synthesis` is empty until SetSynthesis
  /// sets it.
  struct State {
    std::string name;
    std::vector<Successor> successors;
    std::optional<Rule> synthesis;
  };

  StateGraph() = default;

  const std::vector<State>& states() const { return states_; }

  /// The shape checks every machine's Validate begins with: at least one
  /// state, a synthesis rule per state, and q0 on no right-hand side.
  /// `kind` names the machine in the first message. Returns an error
  /// message or nullopt.
  std::optional<std::string> ValidateGraph(const std::string& kind) const {
    if (states_.empty()) return kind + " has no states";
    for (const State& state : states_) {
      if (!state.synthesis.has_value()) {
        return "state " + state.name + " has no synthesis rule";
      }
      for (const Successor& s : state.successors) {
        if (s.state == start_state()) {
          return "start state appears in the rhs of " + state.name;
        }
      }
    }
    return std::nullopt;
  }

 private:
  enum class Color { kWhite, kGray, kBlack };

  // Depth-first longest path (in states) from q: fills depth[q] and
  // returns false iff a cycle is reachable from q.
  bool Visit(int q, std::vector<Color>& color,
             std::vector<size_t>& depth) const {
    color[q] = Color::kGray;
    size_t best = 1;
    for (const Successor& s : states_[q].successors) {
      if (color[s.state] == Color::kGray) return false;
      if (color[s.state] == Color::kWhite && !Visit(s.state, color, depth)) {
        return false;
      }
      best = std::max(best, 1 + depth[s.state]);
    }
    depth[q] = best;
    color[q] = Color::kBlack;
    return true;
  }

  std::vector<State> states_;
};

}  // namespace sws::core

#endif  // SWS_SWS_STATE_GRAPH_H_
