#ifndef SWS_MEDIATOR_CQ_COMPOSITION_H_
#define SWS_MEDIATOR_CQ_COMPOSITION_H_

#include <string>

#include "logic/ucq.h"
#include "mediator/mediator.h"
#include "mediator/mediator_run.h"
#include "sws/unfold.h"

namespace sws::med {

struct CqCompositionResult {
  bool found = false;
  /// Why composition failed or was not attempted, for diagnostics.
  std::string reason;
  /// The rewriting over view relations "v0".."v{m-1}" (valid iff found).
  logic::UnionQuery rewriting;
  /// The constructed two-level mediator (valid iff found).
  Mediator mediator;
  /// The longest unfolding length the rewriting serves (it serves every
  /// shorter one too).
  size_t unfold_length = 0;
};

/// Composition synthesis for nonrecursive CQ/UCQ services via query
/// rewriting using views (Theorem 5.1(3) and the Corollary 5.2 setting):
/// the goal SWS_nr(CQ, UCQ) unfolds into a UCQ^{≠}; every component in
/// SWS_nr(CQ^r) (CQ-expressible, the corollary's class) unfolds into a
/// single CQ — the view; an equivalent UCQ rewriting of the goal over
/// the views yields a one-level mediator
///   q0 → (s_1, eval(τ_1)), ..., (s_m, eval(τ_m)),
/// with echo leaves and the rewriting as the root synthesis. Since
/// mediator children all run on the same suffix in parallel (Definition
/// 5.1), the mediator computes ψ(τ_1(D, I), ..., τ_m(D, I)) exactly.
///
/// The mediator's synthesis is fixed, so its rewriting must match the
/// goal at every input length up to the depth: rw::EquivalentRewriting
/// gets the unfoldings at each length as one target, longest first, and
/// decides whether such a rewriting exists when they carry no '≠'. The
/// lengths stop at the first one at which the goal's and every
/// component's unfoldings are complete (core::Unfolding): every longer
/// length repeats it exactly.
CqCompositionResult ComposeCqOneLevel(
    const core::Sws& goal, const std::vector<const core::Sws*>& components);

/// Builds the two-level mediator for a rewriting over views "v<i>":
/// view atom v<i>(x̄) becomes Act(i+1)(x̄) in the root synthesis.
Mediator BuildOneLevelMediator(const logic::UnionQuery& rewriting,
                               size_t num_components, size_t rin_arity,
                               size_t rout_arity);

/// The view name of component i in rewritings ("v<i>").
std::string ComponentViewName(size_t i);

}  // namespace sws::med

#endif  // SWS_MEDIATOR_CQ_COMPOSITION_H_
