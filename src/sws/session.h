#ifndef SWS_SWS_SESSION_H_
#define SWS_SWS_SESSION_H_

#include <optional>
#include <vector>

#include "relational/actions.h"
#include "relational/database.h"
#include "relational/input_sequence.h"
#include "sws/execution.h"
#include "sws/sws.h"

namespace sws::core {

/// Session management (Section 2, "An overview"): a long (possibly
/// unending) input stream is treated as a list of consecutive sessions
/// separated by a delimiter message '#'; at each delimiter the service is
/// run on the buffered session and its actions are committed — external
/// messages sent, updates applied to the local database. The database
/// stays fixed *within* a session, per the paper's assumption.
///
/// The runner's database is a copy of the one it was given, so it
/// shares that instance's relation storage and indexes (relation.h);
/// a commit clones only the relations it writes. Holding many runners
/// over one large seed therefore costs O(#relations) each, not O(|D|).
///
/// Thread-safety: a SessionRunner is a single conversation and must be
/// driven by one thread at a time. The pointed-to Sws is only read, so
/// any number of runners (on any threads) may share one service — the
/// basis of the concurrent runtime in src/runtime/.
class SessionRunner {
 public:
  SessionRunner(const Sws* sws, rel::Database initial_db);

  /// Restores a runner to a mid-stream point: `pending` is the buffered
  /// (uncommitted) prefix of the current session — exactly what
  /// pending() returned when the state was captured. Used by crash
  /// recovery (src/persistence/) to rebuild sessions from a snapshot.
  SessionRunner(const Sws* sws, rel::Database db, rel::InputSequence pending);

  /// The delimiter: a message containing exactly one tuple whose first
  /// attribute is the string "#" (remaining attributes are nulls).
  static rel::Relation DelimiterMessage(size_t arity);
  static bool IsDelimiter(const rel::Relation& message);

  /// The content check every fed message must pass: a delimiter, or a
  /// message of R_in's arity (Feed aborts on any other). ok() or
  /// kInvalidInput. Runtime admission refuses a message that fails it;
  /// crash recovery skips a journaled one (a follower journals what a
  /// peer ships, unchecked).
  static Status CheckMessage(const Sws& sws, const rel::Relation& message);

  struct SessionOutcome {
    /// ok() iff the run completed and committed. On error
    /// (kBudgetExceeded, kInjectedFault, or kDeadlineExceeded when the
    /// retry loop ran out of deadline) the output is empty, nothing is
    /// committed, and the buffered session is discarded so the stream
    /// can continue.
    Status status;
    rel::Relation output;       // τ(D, I_session)
    rel::CommitResult commit;   // applied to the local database
    size_t session_length = 0;  // messages in the session (delimiter excl.)
    /// Run attempts made (1 + retries). Retries happen only for
    /// transient errors under RunOptions::retry, and are replay-safe:
    /// a failed run commits nothing, so each attempt re-runs the same
    /// (D, I_session).
    uint32_t attempts = 1;
    /// Execution-tree accounting for the final run attempt (see
    /// RunResult): nodes evaluated and subtree-memoization hit/miss
    /// counts. For a successful memoized run,
    /// run_nodes == 1 + memo_hits + memo_misses.
    size_t run_nodes = 0;
    size_t memo_hits = 0;
    size_t memo_misses = 0;
    /// Governance accounting for the final run attempt (see RunResult):
    /// logical (un-memoized) tree size bounded by max_nodes, and memo
    /// evictions under the run's memo byte cap.
    size_t logical_nodes = 0;
    size_t memo_evictions = 0;
  };

  /// Feeds one message. A delimiter closes the current session: the
  /// service runs on the buffered messages against the current database
  /// under `options` (retrying transient failures per `options.retry`,
  /// within `options.deadline`), the output is committed, and the
  /// outcome is returned. Non-delimiter messages buffer and return
  /// nullopt.
  std::optional<SessionOutcome> Feed(rel::Relation message,
                                     const RunOptions& options = {});

  /// Drops the buffered (uncommitted) session, as a failed run would —
  /// used by the runtime's circuit breaker to shed an open session's
  /// stream without running it.
  void DiscardPending();

  /// Feeds a whole stream; returns one outcome per delimiter encountered.
  std::vector<SessionOutcome> FeedStream(
      const std::vector<rel::Relation>& stream,
      const RunOptions& options = {});

  const rel::Database& db() const { return db_; }
  size_t buffered() const { return pending_.size(); }
  /// The buffered (uncommitted) session prefix — snapshot material.
  const rel::InputSequence& pending() const { return pending_; }

 private:
  const Sws* sws_;
  rel::Database db_;
  rel::InputSequence pending_;
};

}  // namespace sws::core

#endif  // SWS_SWS_SESSION_H_
