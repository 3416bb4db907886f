#ifndef SWS_SWS_EXECUTION_H_
#define SWS_SWS_EXECUTION_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "relational/database.h"
#include "relational/input_sequence.h"
#include "sws/fault.h"
#include "sws/governor.h"
#include "sws/status.h"
#include "sws/sws.h"

namespace sws::core {

/// A node of an execution tree (Section 2, "Runs of SWS's"): labeled with
/// a state, a timestamp, a message register and an action register.
/// Retained only when RunOptions::keep_tree is set.
struct ExecNode {
  int state = 0;
  size_t timestamp = 0;
  rel::Relation msg;
  rel::Relation act;
  std::vector<std::unique_ptr<ExecNode>> children;

  /// Pretty-prints the subtree (for examples and debugging).
  std::string ToString(const Sws& sws, int indent = 0) const;
};

struct RunOptions {
  /// Retain the full execution tree in RunResult::tree.
  bool keep_tree = false;
  /// Memoize identical subtrees within the run: given fixed (D, I), a
  /// node's action register is a deterministic function of its
  /// (state, timestamp, Msg) label, so repeated labels — ubiquitous in
  /// recursive services, whose trees otherwise grow exponentially — are
  /// evaluated once and replayed. Sound by construction (Section 2:
  /// runs are deterministic in (D, I)); the output never changes, only
  /// num_nodes. Ignored when keep_tree is set, since a retained tree
  /// must materialize every subtree. Hit/miss counts are reported in
  /// RunResult.
  bool memoize = true;
  /// Abort the run (kBudgetExceeded) if more nodes than this would be
  /// created — a guard for recursive services on long inputs.
  size_t max_nodes = 50'000'000;
  /// Fault-injection hook consulted at each run attempt; null = disabled
  /// (the only cost on the hot path is this null check).
  FaultInjector* fault_injector = nullptr;
  /// Retry of failed runs at the session layer (SessionRunner::Feed);
  /// the default (max_attempts = 1) never retries.
  RetryPolicy retry;
  /// Absolute deadline for the whole request. Enforced *inside* query
  /// evaluation (the engine installs a governor that cancels the run
  /// cooperatively, within a bounded number of tuples, once the deadline
  /// passes — kDeadlineExceeded) and by the retry loop (no backoff
  /// sleeps or re-attempts past the deadline); ::max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  // Resource governance (see DESIGN.md §10). All zero-valued caps mean
  // "unlimited"; with every cap unlimited, no deadline, and no governor,
  // runs pay nothing for governance.
  /// Evaluation-fuel budget: total steps (candidate tuples probed,
  /// active-domain values collected, tree nodes evaluated) before the
  /// run aborts with kFuelExhausted. 0 = unlimited.
  uint64_t max_eval_steps = 0;
  /// Cap on the run's memo-cache bytes; past it, least-recently-used
  /// entries are evicted (size-accounted LRU). 0 = unlimited.
  size_t max_memo_bytes = 0;
  /// Cap on the tracked cache bytes (the run's memo entries) attributed
  /// to the run's governor; past it, the run aborts with kFuelExhausted
  /// at its next tick. 0 = unlimited. Relation indexes are not charged:
  /// they belong to the relation version, not to the run.
  size_t max_tracked_bytes = 0;
  /// External governor for this run (not owned): the runtime threads a
  /// per-request governor here so a watchdog can cancel the run
  /// mid-query and so steps/bytes roll up to the runtime root. When
  /// null, the engine builds a local governor iff a deadline or a
  /// fuel/byte cap above is set.
  ExecutionGovernor* governor = nullptr;
};

/// Result of running an SWS on (D, I).
struct RunResult {
  /// ok() iff the run completed; on error (kBudgetExceeded,
  /// kInjectedFault, kDeadlineExceeded or kFuelExhausted) the output is
  /// empty, never partial.
  Status status;
  rel::Relation output;           // Act(root) = τ(D, I)
  size_t num_nodes = 0;           // nodes evaluated (hits count as one)
  size_t max_timestamp = 0;       // l: inputs I_1..I_l were consumed
  std::unique_ptr<ExecNode> tree; // populated iff keep_tree
  /// Memoization counters (all zero when RunOptions::memoize is off or
  /// keep_tree suppressed it). For a successful memoized run,
  /// num_nodes == 1 + memo_hits + memo_misses.
  size_t memo_hits = 0;    // subtrees replayed from the cache
  size_t memo_misses = 0;  // subtrees evaluated and cached
  size_t memo_entries = 0; // cache size at end of run
  /// Logical tree size: nodes the un-memoized tree would have (a memo
  /// hit charges its whole replayed subtree). Saturates at SIZE_MAX.
  /// RunOptions::max_nodes bounds *this* count, so the budget cannot be
  /// bypassed through the cache; for un-memoized runs it equals
  /// num_nodes.
  size_t logical_nodes = 0;
  // Governance counters (see DESIGN.md §10).
  size_t memo_evictions = 0;   // memo entries evicted under max_memo_bytes
  size_t memo_bytes_peak = 0;  // high-water of accounted memo bytes
};

/// The run of τ on (D, I): builds the execution tree top-down (one input
/// message per level, following the Generating rules) and gathers actions
/// bottom-up (Gathering rules). The output is Act(root).
///
/// Timestamps follow Example 2.2 of the paper: the root is at timestamp
/// 0, and a node at timestamp j had its message register computed from
/// I_j. Node semantics, with j the node's timestamp and n = |I|:
///  (1) if j > n, or Msg(v) = ∅ at a non-root node, Act(v) = ∅ — the
///      root's empty register does not stop the run unless I is empty
///      (the special case of Section 2);
///  (2) otherwise a non-final state spawns one child per successor entry,
///      child i carrying Msg = φ_i(D, I_{j+1}, Msg(v)) and timestamp j+1;
///  (3) a final state computes Act(v) = ψ(D, I_j, Msg(v)) — at the root,
///      I_0 is the empty message;
///  (4) a non-final state synthesizes Act(v) = ψ(Act(u_1), ..., Act(u_k)).
///
/// RunResult::max_timestamp is the largest j of a node that read an input
/// (so I_{max_timestamp+1} is the first unconsumed message — the l_i of
/// the mediator semantics, Section 5.1).
RunResult Run(const Sws& sws, const rel::Database& db,
              const rel::InputSequence& input, const RunOptions& options = {});

/// As Run, but the start state's message register is seeded with
/// `initial_msg` instead of ∅ — the mediator semantics of Section 5.1
/// ("the message register of the start state of τ_i is instantiated with
/// Msg(v)"). The root proceeds regardless of the seed's emptiness, as
/// long as I is nonempty.
RunResult RunSeeded(const Sws& sws, const rel::Database& db,
                    const rel::InputSequence& input,
                    const rel::Relation& initial_msg,
                    const RunOptions& options = {});

}  // namespace sws::core

#endif  // SWS_SWS_EXECUTION_H_
