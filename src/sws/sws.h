#ifndef SWS_SWS_SWS_H_
#define SWS_SWS_SWS_H_

#include <optional>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "sws/query.h"

namespace sws::core {

/// One successor entry (q_i, φ_i) of a transition rule (Definition 2.1).
struct TransitionTarget {
  int state = 0;
  RelQuery query;  // φ_i : R, R_in, Msg(q) → Msg(q_i)
};

/// A synthesized Web service τ = (Q, δ, σ, q0) over a database schema R,
/// an input schema R_in and an external schema R_out (Definition 2.1).
///
/// Each state q has exactly one transition rule
///     q → (q_1, φ_1), ..., (q_k, φ_k)
/// and one synthesis rule  Act(q) ← ψ. For k > 0 the synthesis query ψ
/// reads only the successors' action registers (exposed as relations
/// "Act1".."Actk"); for k = 0 ("final" states) it reads the database, the
/// current input ("In") and the message register ("Msg").
///
/// State 0 is the start state q0; it must not occur on the right-hand
/// side of any transition rule.
///
/// The class of the service — SWS(PL,PL) is modeled separately by PlSws;
/// here the rule languages are CQ/UCQ/FO — is reported by Classify().
///
/// Thread-safety (audited for src/runtime): a fully built Sws is
/// immutable through its const interface — Successors/Synthesis/
/// Validate/Classify and query evaluation keep no mutable caches — so
/// one service definition may be shared read-only by any number of
/// concurrent runs (core::Run takes it by const reference and the
/// runtime's workers all point at one instance). Mutators (AddState,
/// SetTransition, SetSynthesis) must not race with reads: build the
/// service first, then share it.
class Sws {
 public:
  /// `rin_arity`/`rout_arity` are the payload arities of the input and
  /// external schemas (the timestamp attribute of R_in is implicit: the
  /// run engine slices the sequence).
  Sws(rel::Schema db_schema, size_t rin_arity, size_t rout_arity);

  const rel::Schema& db_schema() const { return db_schema_; }
  size_t rin_arity() const { return rin_arity_; }
  size_t rout_arity() const { return rout_arity_; }

  /// Adds a state; returns its id. The first state added is q0.
  int AddState(std::string name);
  int num_states() const { return static_cast<int>(states_.size()); }
  int start_state() const { return 0; }
  const std::string& StateName(int q) const;
  /// State id by name; -1 if absent.
  int FindState(const std::string& name) const;

  /// Sets the transition rule of q (replacing any previous one). An empty
  /// vector makes q a final state.
  void SetTransition(int q, std::vector<TransitionTarget> successors);
  /// Sets the synthesis rule of q.
  void SetSynthesis(int q, RelQuery synthesis);

  const std::vector<TransitionTarget>& Successors(int q) const;
  const RelQuery& Synthesis(int q) const;
  bool IsFinalState(int q) const { return Successors(q).empty(); }

  /// Whole-service well-formedness: arities, q0 not in any rhs, and each
  /// rule reading only the relations its position allows. Returns an
  /// error message or nullopt.
  std::optional<std::string> Validate() const;

  /// The dependency graph G_τ has an edge q → q_i per successor entry;
  /// τ is recursive iff G_τ is cyclic (Section 2, "SWS classes").
  bool IsRecursive() const;

  /// For nonrecursive services: the number of levels of any execution
  /// tree, i.e. the longest state-chain from q0 (the root is at timestamp
  /// 0 and the deepest nodes at depth − 1, so inputs beyond I_{depth−1}
  /// are never read). nullopt if recursive.
  std::optional<size_t> MaxDepth() const;

  /// Class name per the paper's notation, e.g. "SWS(CQ, UCQ)" or
  /// "SWSnr(FO, FO)". L_Msg is the join of the transition-rule languages,
  /// L_Act of the synthesis-rule languages (CQ < UCQ < FO).
  std::string Classify() const;
  /// True iff every transition rule is CQ and every synthesis rule is
  /// CQ or UCQ (the SWS(CQ, UCQ) class of Theorem 4.1(2)).
  bool IsCqUcq() const;
  /// True iff any rule uses FO.
  bool UsesFo() const;

  std::string ToString() const;

 private:
  struct StateRules {
    std::string name;
    std::vector<TransitionTarget> successors;
    RelQuery synthesis;
    bool has_synthesis = false;
  };

  rel::Schema db_schema_;
  size_t rin_arity_;
  size_t rout_arity_;
  std::vector<StateRules> states_;
};

}  // namespace sws::core

#endif  // SWS_SWS_SWS_H_
