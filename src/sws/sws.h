#ifndef SWS_SWS_SWS_H_
#define SWS_SWS_SWS_H_

#include <optional>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "sws/query.h"
#include "sws/state_graph.h"

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
/// side of any transition rule. States, rules and depth live in the
/// shared StateGraph.
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
class Sws : public StateGraph<TransitionTarget, RelQuery> {
 public:
  /// `rin_arity`/`rout_arity` are the payload arities of the input and
  /// external schemas (the timestamp attribute of R_in is implicit: the
  /// run engine slices the sequence).
  Sws(rel::Schema db_schema, size_t rin_arity, size_t rout_arity);

  const rel::Schema& db_schema() const { return db_schema_; }
  size_t rin_arity() const { return rin_arity_; }
  size_t rout_arity() const { return rout_arity_; }

  /// Whole-service well-formedness: arities, q0 not in any rhs, and each
  /// rule reading only the relations its position allows. Returns an
  /// error message or nullopt.
  std::optional<std::string> Validate() const;

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
  rel::Schema db_schema_;
  size_t rin_arity_;
  size_t rout_arity_;
};

}  // namespace sws::core

#endif  // SWS_SWS_SWS_H_
