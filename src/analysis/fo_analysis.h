#ifndef SWS_ANALYSIS_FO_ANALYSIS_H_
#define SWS_ANALYSIS_FO_ANALYSIS_H_

#include <cstdint>
#include <optional>

#include "logic/fo.h"
#include "relational/input_sequence.h"
#include "sws/sws.h"

namespace sws::analysis {

/// Artifacts for Theorem 4.1(1): all three decision problems are
/// undecidable for SWS(FO, FO), already for the nonrecursive subclass, by
/// reduction from the (finite) satisfiability problem for FO — which is
/// undecidable by Trakhtenbrot's theorem. This module provides
///  * the reduction itself (constructively), and
///  * bounded semi-decision procedures, the only implementable option.

/// The reduction: given an FO *sentence* φ over a relational schema,
/// builds a single-state SWS_nr(FO, FO) service τ_φ with
///   τ_φ is non-empty  iff  φ has a finite model.
/// The schema adds a fresh unary relation Dom (primed if φ reads "Dom"),
/// the universe of the structure: the service's only state is final with
/// synthesis "output (1) iff D ⊨ φ relativized to Dom, Dom is nonempty
/// and holds φ's constants", so a model may use elements that no other
/// relation mentions. Any nonempty input triggers the check. Consequently
/// non-emptiness (and with it validation of {(1)} and equivalence to the
/// empty service) inherits FO undecidability.
core::Sws FoSatToSws(const logic::FoFormula& sentence);

/// The everywhere-empty service over the same schemas as `like` — the
/// equivalence partner in the reduction (τ_φ ≡ τ_∅ iff φ unsatisfiable).
core::Sws EmptyServiceLike(const core::Sws& like);

struct FoBoundedOptions {
  size_t max_domain_size = 2;    // databases over {1..k}, k ≤ this
  size_t max_input_length = 1;   // input sequences up to this length
  size_t max_tuples_per_message = 1;
  uint64_t max_instances = 1000000;  // total (D, I) pairs to try
};

struct FoBoundedResult {
  bool found = false;
  rel::Database witness_db;
  rel::InputSequence witness_input;
  uint64_t instances_checked = 0;
  bool budget_exhausted = false;
};

/// Bounded non-emptiness for arbitrary (FO) services: enumerates small
/// databases and input sequences and runs the service. Sound (a witness
/// is a real run); complete only within the bounds — the best possible
/// for an undecidable problem.
FoBoundedResult FoBoundedNonEmptiness(const core::Sws& sws,
                                      const FoBoundedOptions& options = {});

/// Bounded equivalence refutation: searches the same space for a (D, I)
/// distinguishing the two services. found == true means *inequivalent*
/// with the returned witness; false means indistinguishable within the
/// bounds.
FoBoundedResult FoBoundedInequivalence(const core::Sws& a, const core::Sws& b,
                                       const FoBoundedOptions& options = {});

}  // namespace sws::analysis

#endif  // SWS_ANALYSIS_FO_ANALYSIS_H_
