#ifndef SWS_ANALYSIS_CQ_ANALYSIS_H_
#define SWS_ANALYSIS_CQ_ANALYSIS_H_

#include <cstdint>
#include <optional>

#include "logic/containment.h"
#include "relational/database.h"
#include "relational/input_sequence.h"
#include "sws/sws.h"
#include "sws/unfold.h"

namespace sws::analysis {

/// Decision procedures for SWS(CQ, UCQ) and SWS_nr(CQ, UCQ) — Theorem
/// 4.1(2). All procedures work on the per-input-length UCQ^{≠}
/// unfoldings (sws/unfold.h). Each builds one core::Unfolder per service
/// and walks the input lengths upward, stopping after the first length
/// at which every service it unfolds is complete (core::Unfolding): every
/// longer length unfolds exactly the same, so it can change no verdict
/// and no witness. A nonrecursive service of depth d is complete by
/// max(1, d − 1), so the nonrecursive procedures are complete with
/// MaxDepth() as the bound, while the recursive ones take an explicit
/// length bound (equivalence/validation are undecidable for recursive
/// services, and non-emptiness is exptime-complete — the bound realizes
/// the iterative search whose termination the tree-automata argument
/// guarantees in theory) and stop earlier only when empty registers end
/// the execution tree.

/// Counts over the lengths a procedure actually unfolded: up to the first
/// complete one (or the verdict), not every length up to the bound.
struct CqAnalysisStats {
  uint64_t lengths_tried = 0;
  uint64_t disjuncts_seen = 0;        // satisfiable unfolded disjuncts
  logic::ContainmentStats containment;
};

/// A concrete witness for non-emptiness / validation: a database and an
/// input sequence.
struct CqWitness {
  rel::Database db;
  rel::InputSequence input;
};

struct CqNonEmptinessResult {
  bool nonempty = false;
  std::optional<CqWitness> witness;  // τ(witness) ≠ ∅, verified by a run
  CqAnalysisStats stats;
};

/// Non-emptiness for a nonrecursive service: some unfolding at
/// n ≤ MaxDepth() has a satisfiable disjunct; its canonical database
/// (split back into D and I) is the witness.
CqNonEmptinessResult CqNonEmptinessNr(const core::Sws& sws);

/// Non-emptiness for a (possibly recursive) service, searching input
/// lengths 1..max_length. Sound: a reported witness is always verified.
/// Complete once max_length reaches the (exponential) bound from the
/// tree-automata construction of Theorem 4.1(2); for shorter bounds a
/// `false` answer means "empty up to max_length".
CqNonEmptinessResult CqNonEmptiness(const core::Sws& sws, size_t max_length);

struct CqEquivalenceResult {
  bool equivalent = false;
  /// Input length at which the unfoldings differ, if any.
  std::optional<size_t> differing_length;
  CqAnalysisStats stats;
};

/// Equivalence for nonrecursive services (conexptime-complete): for each
/// n up to the larger depth, the two unfoldings must be equivalent
/// UCQ^{≠}s (Klug-style containment both ways). Lengths past the first
/// at which both unfoldings are complete are not unfolded.
CqEquivalenceResult CqEquivalenceNr(const core::Sws& a, const core::Sws& b);

/// Bounded-length equivalence for recursive services (the undecidable
/// problem; complete only up to max_length).
CqEquivalenceResult CqEquivalenceBounded(const core::Sws& a,
                                         const core::Sws& b,
                                         size_t max_length);

struct CqValidationOptions {
  /// Input lengths to try; defaults to the service depth for
  /// nonrecursive services. The search ends earlier, after the first
  /// length whose unfolding is complete.
  size_t max_length = 0;
  /// Combinations of (disjunct, head-unification) candidates explored
  /// before giving up.
  uint64_t max_candidates = 100000;
};

struct CqValidationResult {
  bool validated = false;
  std::optional<CqWitness> witness;  // τ(witness) == O, verified by a run
  /// True when the candidate budget was exhausted: `validated == false`
  /// then means "not found", not "impossible".
  bool budget_exhausted = false;
  CqAnalysisStats stats;
};

/// Validation: is there (D, I) with τ(D, I) = O exactly? Searches
/// canonical-database candidates: every tuple of O must be produced by
/// some unfolded disjunct whose frozen body supplies the facts; the
/// combined candidate is then *verified* by running the service (so a
/// positive answer is always sound). This realizes the nexptime
/// small-model procedure of Theorem 4.1(2) as a candidate search; an
/// exhausted budget is reported explicitly.
CqValidationResult CqValidation(const core::Sws& sws,
                                const rel::Relation& desired_output,
                                const CqValidationOptions& options = {});

/// Splits a packed canonical database over R ∪ {In@j} into a concrete
/// (D, I) pair, grounding labeled nulls as fresh integer constants
/// outside `reserved` (so the witness is an ordinary instance).
CqWitness SplitPackedDatabase(const core::Sws& sws, const rel::Database& packed,
                              size_t input_length);

}  // namespace sws::analysis

#endif  // SWS_ANALYSIS_CQ_ANALYSIS_H_
