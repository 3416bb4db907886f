#ifndef SWS_SWS_UNFOLD_H_
#define SWS_SWS_UNFOLD_H_

#include <string>

#include "logic/ucq.h"
#include "relational/input_sequence.h"
#include "sws/sws.h"

namespace sws::core {

/// Name of the j-th input message relation in unfolded queries:
/// "In@1", "In@2", ... (1-indexed, matching timestamps).
std::string InputRelationAt(size_t j);

/// Packs a database D and an input sequence I into one evaluation
/// database over R ∪ {In@1..In@n}, suitable for evaluating unfolded
/// queries.
rel::Database PackDatabaseAndInput(const rel::Database& db,
                                   const rel::InputSequence& input);

/// The unfolding of an SWS(CQ, UCQ) service for inputs of length n: an
/// equivalent UCQ^{≠} over R ∪ {In@1..In@n}. The construction referenced
/// by Theorem 4.1(2) ("SWS's in SWSnr(CQ, UCQ) can be converted to UCQ
/// queries with inequality", Section 5.2) — exponential in the depth of
/// the service.
///
/// Semantics preserved exactly, including the ∅-register rules: for every
/// database D and input I with |I| = n,
///   Run(sws, D, I).output == ucq.Evaluate(PackDatabaseAndInput(D, I)).
struct Unfolding {
  logic::UnionQuery ucq;
  /// True iff the end of the input cut no node of the execution tree. A
  /// node is cut when its timestamp j is past n and its register is not
  /// definitely empty, or when it is the root and n = 0 (the root needs a
  /// nonempty input). The unfolding reads n only in that test, so a
  /// complete unfolding at n equals the one at every m > n exactly: the
  /// same disjuncts in the same order, with the same variable numbering.
  /// The unfolding at n = 0 is never complete.
  bool complete = false;
};

/// Unfolds one SWS(CQ, UCQ) service at any input length; the service is
/// checked once, when the unfolder is built (aborts if it is not CQ/UCQ
/// or not well-formed). The service must outlive the unfolder.
///
/// Recursive services are supported for a *fixed* n: every level of the
/// execution tree consumes a timestamp, so the unfolding terminates at
/// depth n regardless of cycles in the dependency graph. (This is
/// exactly why the recursive decision problems are harder: no single n
/// covers all inputs.)
///
/// A nonrecursive service of depth d = MaxDepth() has its deepest nodes
/// at timestamp d − 1, so it reads at most I_{d−1}: its unfolding is
/// complete at some n ≤ max(1, d − 1), and the unfoldings up to the first
/// complete one characterize the service's full behavior. The decision
/// and composition procedures stop there.
class Unfolder {
 public:
  explicit Unfolder(const Sws& sws);

  Unfolding At(size_t n) const;

 private:
  const Sws& sws_;
};

/// Unfolder(sws).At(n).ucq, for a single length.
logic::UnionQuery UnfoldToUcq(const Sws& sws, size_t n);

/// Number of UCQ disjuncts the unfolding would produce before
/// unsatisfiable-disjunct pruning (growth statistic for the Table 1
/// benchmarks).
size_t UnfoldDisjunctBound(const Sws& sws, size_t n);

}  // namespace sws::core

#endif  // SWS_SWS_UNFOLD_H_
