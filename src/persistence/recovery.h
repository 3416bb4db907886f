#ifndef SWS_PERSISTENCE_RECOVERY_H_
#define SWS_PERSISTENCE_RECOVERY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "persistence/durability.h"
#include "persistence/snapshot.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "sws/fault.h"
#include "sws/status.h"
#include "sws/sws.h"

namespace sws::persistence {

/// An output recomputed during replay whose original callback never
/// fired (no outcome record was journaled before the crash). These are
/// the *unacknowledged* delimiter runs; the recovering caller delivers
/// them exactly once. Acknowledged outputs are replayed for state but
/// suppressed here.
struct ReplayedOutcome {
  std::string session_id;
  uint64_t seq = 0;  // seq of the delimiter input
  core::Status status;
  rel::Relation output;
};

struct RecoveryStats {
  uint64_t snapshots_loaded = 0;
  uint64_t segments_scanned = 0;
  uint64_t torn_tails_truncated = 0;
  uint64_t short_read_retries = 0;
  uint64_t records_scanned = 0;
  uint64_t duplicate_records = 0;
  uint64_t sessions_recovered = 0;
  uint64_t inputs_replayed = 0;
  /// Journaled inputs that fail SessionRunner::CheckMessage (admission
  /// would have refused them): skipped, their seq still consumed.
  uint64_t inputs_quarantined = 0;
  uint64_t acked_suppressed = 0;  // acknowledged outcomes not re-emitted
  uint64_t discards_applied = 0;
  uint64_t seq_gaps = 0;          // replay stopped early (should be 0)
  uint64_t output_mismatches = 0; // replay disagreed with the journal
};

struct RecoveryResult {
  core::Status status;
  /// Post-replay state per session: db and pending buffer as of the last
  /// journaled input, next_seq = the seq the session expects next (a
  /// resubmitting client continues from here).
  std::map<std::string, SessionImage> sessions;
  /// Unacknowledged outputs recomputed by replay, in (session_id, seq)
  /// order.
  std::vector<ReplayedOutcome> replayed;
  RecoveryStats stats;
  /// The incarnation a restarting runtime should write under.
  uint64_t next_incarnation = 1;
};

struct RecoveryOptions {
  /// Re-check acknowledged outputs against the journal (determinism
  /// audit); a mismatch sets stats.output_mismatches and fails recovery.
  bool verify_replay_outputs = true;
  /// Node budget for replay runs (matches RunOptions::max_nodes).
  size_t run_max_nodes = 50'000'000;
};

/// Deterministic crash recovery over a durable directory (DESIGN.md §9):
/// merge every snapshot (per session, the image with the largest
/// next_seq wins — later snapshots subsume earlier ones), scan every
/// journal segment, truncate torn tails, then per session replay the
/// records with seq >= the image's next_seq through SessionRunner::Feed.
/// τ's determinism (the paper's Section 2) makes the replay reproduce
/// the pre-crash registers exactly; journaled outcomes tell replay which
/// outputs were already acknowledged (suppressed) and which delimiter
/// runs failed (emulated as discards, never re-run — a transient fault
/// must not diverge on replay).
///
/// Recover() then writes one consolidated snapshot and deletes the files
/// it subsumes, so recovery is idempotent: a crash *during* recovery
/// just recovers again from either the old files or the consolidated
/// snapshot, never a mix.
class RecoveryManager {
 public:
  /// `seed_db` is the database a brand-new session starts from (the
  /// runtime's shared seed); sessions that appear only in the journal
  /// (never snapshotted) replay on top of it. `fault_injector` may be
  /// null (short-read hook).
  RecoveryManager(std::string dir, const core::Sws* sws, rel::Database seed_db,
                  RecoveryOptions options, core::FaultInjector* fault_injector);

  /// Full recovery: scan + truncate torn tails + replay + consolidated
  /// snapshot + GC of subsumed files.
  RecoveryResult Recover() { return Run(/*mutate=*/true); }

  /// Read-only recovery (no truncation, snapshot or GC) — what the
  /// durable dir *would* recover to; for inspection tooling.
  RecoveryResult Inspect() { return Run(/*mutate=*/false); }

 private:
  RecoveryResult Run(bool mutate);

  std::string dir_;
  const core::Sws* sws_;
  rel::Database seed_db_;
  RecoveryOptions options_;
  core::FaultInjector* fault_injector_;
};

}  // namespace sws::persistence

#endif  // SWS_PERSISTENCE_RECOVERY_H_
