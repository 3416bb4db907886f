#ifndef SWS_MEDIATOR_MEDIATOR_H_
#define SWS_MEDIATOR_MEDIATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "sws/pl_sws.h"
#include "sws/state_graph.h"
#include "sws/sws.h"

namespace sws::med {

/// An SWS mediator π = (Q, δ, σ, q0) in MDT(L_Act) (Definition 5.1): like
/// an SWS, but transition rules embed component services as oracle
/// queries — q → (q1, eval(τ_{c1})), ..., (qk, eval(τ_{ck})). A mediator
/// receives and redirects messages but never touches the local database
/// directly: internal synthesis reads the successors' action registers
/// ("Act1".."Actk"), and *final* synthesis reads only the message
/// register ("Msg") — no D, no input.
///
/// Components are referenced by index into the component vector supplied
/// at run/validation time; all components and the mediator share the
/// schemas R, R_in, R_out (the paper's w.l.o.g. assumption). States,
/// rules and depth live in the StateGraph that services use too; MDT_nr
/// means an acyclic state graph, and the components of a nonrecursive
/// mediator may themselves be recursive (Section 2 / Definition 5.1
/// remark).
struct MediatorTarget {
  int state = 0;
  size_t component = 0;  // index into the component list
};

class Mediator : public core::StateGraph<MediatorTarget, core::RelQuery> {
 public:
  Mediator(size_t rin_arity, size_t rout_arity);

  size_t rin_arity() const { return rin_arity_; }
  size_t rout_arity() const { return rout_arity_; }

  /// Well-formedness against a component list: component indices in
  /// range, matching schemas, q0 not in any rhs, and synthesis reading
  /// only what Definition 5.1 allows.
  std::optional<std::string> Validate(
      const std::vector<const core::Sws*>& components) const;

  std::string ToString(
      const std::vector<const core::Sws*>& components = {}) const;

 private:
  size_t rin_arity_;
  size_t rout_arity_;
};

/// The PL counterpart: mediators over SWS(PL, PL) components. Registers
/// are truth values; internal synthesis formulas use variable i for the
/// i-th successor's action bit; final synthesis uses variable 0 for the
/// message register ("from Msg(q) to Act(q)").
class PlMediator : public core::StateGraph<MediatorTarget, logic::PlFormula> {
 public:
  PlMediator() = default;

  /// The variable a final state's synthesis uses for its register bit.
  static constexpr int kMsgVar = 0;

  std::optional<std::string> Validate(
      const std::vector<const core::PlSws*>& components) const;

  /// True iff every synthesis formula is a pure disjunction of its
  /// allowed variables — the MDT(∨) subclass of Theorem 5.3.
  bool IsDisjunctionOnly() const;

  std::string ToString() const;
};

}  // namespace sws::med

#endif  // SWS_MEDIATOR_MEDIATOR_H_
