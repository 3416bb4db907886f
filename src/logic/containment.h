#ifndef SWS_LOGIC_CONTAINMENT_H_
#define SWS_LOGIC_CONTAINMENT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "logic/cq.h"
#include "logic/ucq.h"

namespace sws::logic {

/// Effort counters for containment tests, reported by the Table 1
/// benchmarks (equivalence for SWS_nr(CQ, UCQ) is conexptime-complete;
/// the partition count is the exponential driver).
struct ContainmentStats {
  uint64_t partitions_checked = 0;
  uint64_t canonical_databases = 0;
};

/// Decides Q1 ⊆ Q2 for conjunctive queries with = and ≠, following Klug's
/// representative-database method extended to UCQ right-hand sides
/// (the engine behind Theorem 4.1(2) upper bounds):
///
///   Q1 ⊆ Q2 iff for every identification partition π of the variables of
///   (normalized) Q1 together with the constants of Q1 and Q2 — no two
///   distinct constants identified, no inequality of Q1 violated — the
///   frozen π-image of Q1's head belongs to Q2 evaluated on the π-image of
///   Q1's canonical database.
///
/// When no disjunct of Q2 uses comparisons, a single canonical-database
/// check suffices (CQs are monotone under homomorphisms) and is used as a
/// fast path. An unsatisfiable Q1 is contained in everything.
bool CqContainedIn(const ConjunctiveQuery& q1, const UnionQuery& q2,
                   ContainmentStats* stats = nullptr);
/// The same against a right-hand side prepared once, for callers that
/// test many left-hand sides against one union.
bool CqContainedIn(const ConjunctiveQuery& q1, const PreparedUcq& q2,
                   ContainmentStats* stats = nullptr);

/// Q1 ⊆ Q2 for UCQs: every disjunct of Q1 must be contained in Q2,
/// which is prepared once per call.
bool UcqContainedIn(const UnionQuery& q1, const UnionQuery& q2,
                    ContainmentStats* stats = nullptr);
bool UcqContainedIn(const UnionQuery& q1, const PreparedUcq& q2,
                    ContainmentStats* stats = nullptr);

/// Logical equivalence of UCQs (containment both ways).
bool UcqEquivalent(const UnionQuery& a, const UnionQuery& b,
                   ContainmentStats* stats = nullptr);

/// Containment of plain CQs (convenience wrapper).
bool CqContainedIn(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                   ContainmentStats* stats = nullptr);

/// Enumerates all partitions of `terms` into identification blocks:
/// constants are pre-placed in singleton blocks that variables may join
/// (two constants never share a block); variables may join any existing
/// block or start a new one. `on_partition` receives, indexed by variable
/// id, the representative term of each variable's block (ids up to the
/// largest variable of `terms`, which must be non-negative; ids not
/// among them map to themselves); returning false stops the enumeration.
/// Returns false iff stopped early.
bool EnumerateIdentifications(
    const std::vector<Term>& terms,
    const std::function<bool(const std::vector<Term>&)>& on_partition);

}  // namespace sws::logic

#endif  // SWS_LOGIC_CONTAINMENT_H_
