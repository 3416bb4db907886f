#ifndef SWS_REPLICATION_FAILOVER_H_
#define SWS_REPLICATION_FAILOVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "persistence/snapshot.h"
#include "replication/replica_group.h"
#include "replication/transport.h"
#include "runtime/replication_hooks.h"
#include "sws/status.h"

namespace sws::replication {

/// A node's view of the group fencing epoch (DESIGN.md §13). The epoch
/// is a monotone counter bumped by every promotion; every shipment, ack
/// and heartbeat carries the sender's view. Safety invariants:
///
///  * a follower never applies a shipment stamped below its own epoch
///    (a deposed primary's stale traffic is rejected, not merged);
///  * a node never grants two election votes at the same epoch, even
///    across restarts — the vote is persisted before the grant leaves.
///
/// Adoption (raising the in-memory epoch on observing a higher one) is
/// persisted best-effort: losing the write only means a restarted node
/// briefly re-learns the epoch from the first heartbeat, never that it
/// regresses safety — rejects are driven by the in-memory value and
/// votes require the durable write to succeed.
///
/// Thread-safe; lives on the node across lives (an epoch survives
/// restarts by design).
class FencingEpoch {
 public:
  /// `dir` is the node's durable dir ("epoch.fence" lives there).
  explicit FencingEpoch(std::string dir);

  /// Loads persisted state; missing file leaves everything at zero.
  core::Status Load();

  uint64_t current() const { return epoch_.load(std::memory_order_acquire); }
  uint64_t last_vote() const {
    return last_vote_.load(std::memory_order_acquire);
  }

  /// Raises the epoch to `epoch` if higher (persisting best-effort).
  /// Returns true when the epoch moved.
  bool Adopt(uint64_t epoch);

  /// Records an election vote at `epoch`: fails (no vote) unless `epoch`
  /// exceeds every previous vote and the persist succeeds — a node with
  /// a dead disk cannot durably promise, so it abstains.
  bool TryVote(uint64_t epoch);

 private:
  const std::string dir_;
  mutable std::mutex mu_;  // serializes persistence
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> last_vote_{0};
};

/// What the coordinator needs from its node. Called from the
/// coordinator's worker thread with no coordinator lock held, so they
/// may take the node's lifecycle lock.
struct FailoverHooks {
  /// `peer` has been silent for the whole window: called once per
  /// silence episode (a sign of life, or ResetClocks, opens the next).
  /// Null = nobody listens.
  std::function<void(const std::string& peer)> suspected;
  /// Is this node fit to run for election right now? (running, and not
  /// itself mid-catch-up — a joiner with an incomplete prefix must not
  /// seize sessions it has not bootstrapped.)
  std::function<bool()> ready;
  /// Commit a won election: bump the fencing epoch to `epoch`, register
  /// the group override and restart the life over the merged journals
  /// (ReplicatedNode::PromoteWithEpoch). Null = detect only: the node
  /// never campaigns (manual failover), and `ready` is never called.
  std::function<core::Status(const std::string& dead, uint64_t epoch)> promote;
};

/// The node's failure detector, and under automatic failover its
/// election driver (DESIGN.md §13).
///
/// Detection: one liveness clock per peer (NoteAlive, ResetClocks). The
/// worker sleeps until the earliest moment a peer's silence can reach
/// `suspicion_timeout` and reports each silent peer through
/// FailoverHooks::suspected once per silence episode.
///
/// Election protocol (only with FailoverHooks::promote set): the
/// deterministic heir (ReplicaGroup::HeirOf — the next live owner
/// clockwise from the dead node's arc) campaigns for epoch current+1;
/// every node grants at most one vote per epoch (persisted first), and
/// only for a suspect its *own* liveness clock agrees is silent. A
/// majority of the whole group (candidate included) wins; the winner
/// bumps the epoch and runs the existing Promote/recovery path. Losers
/// retry with fresh epochs while the suspect stays silent, so duelling
/// candidates (asymmetric partitions) converge instead of
/// split-braining — at most one candidate can assemble a majority per
/// epoch.
///
/// Threading: NoteAlive / OnVote* arrive on the transport delivery
/// thread; they are brief and never touch the node. The worker thread
/// alone calls the hooks (promotion tears down and restarts the node's
/// life, which must not happen on the delivery thread), and never holds
/// the coordinator mutex while doing so.
class FailoverCoordinator {
 public:
  FailoverCoordinator(std::string self, ReplicaGroup* group,
                      ReplicationTransport* transport, FencingEpoch* fence,
                      ReplicationOptions options,
                      std::chrono::nanoseconds suspicion_timeout,
                      FailoverHooks hooks, rt::Counters* counters);
  ~FailoverCoordinator();

  FailoverCoordinator(const FailoverCoordinator&) = delete;
  FailoverCoordinator& operator=(const FailoverCoordinator&) = delete;

  /// Any receipt from `peer` (shipment, ack, heartbeat, vote, catch-up
  /// request) — a sign of life: restarts its silence clock and ends its
  /// silence episode.
  void NoteAlive(const std::string& peer);

  /// Re-arms every group member's liveness clock and forgets every
  /// suspicion (node restart: a long downtime must not read as
  /// everyone-is-dead, and a member that dies before its first
  /// heartbeat lands is still suspected one window later).
  void ResetClocks();

  /// The peers whose silence reached the window by `now` and has not
  /// been reported yet this episode; each is marked reported. The
  /// worker runs this scan at each wake-up and hands the result to
  /// FailoverHooks::suspected; a test passes its own `now`.
  std::vector<std::string> ReportSilent(
      std::chrono::steady_clock::time_point now);

  // Election wire (routed by the node's endpoint, transport thread).
  void OnVoteRequest(const VoteRequest& request);
  void OnVoteGrant(const VoteGrant& grant);

  // Telemetry.
  uint64_t elections_started() const;
  uint64_t votes_granted() const;
  /// Peers awaiting a candidacy attempt (automatic failover),
  /// comma-joined — chaos-harness diagnostics.
  std::string SuspectIds() const;

 private:
  struct PeerClock {
    std::chrono::steady_clock::time_point last_heard;
    bool reported = false;  // this silence episode already reported
  };

  bool PeerLooksDeadLocked(const std::string& peer,
                           std::chrono::steady_clock::time_point now) const;
  /// ReportSilent under mu_; also lists silent undeposed peers as
  /// suspects when campaigning is on, and lowers `*wake` to the earliest
  /// moment a peer still heard from could fall silent.
  std::vector<std::string> ReportSilentLocked(
      std::chrono::steady_clock::time_point now,
      std::chrono::steady_clock::time_point* wake);
  void WorkerLoop();

  const std::string self_;
  ReplicaGroup* const group_;
  ReplicationTransport* const transport_;
  FencingEpoch* const fence_;
  const ReplicationOptions options_;
  const std::chrono::nanoseconds suspicion_timeout_;
  const FailoverHooks hooks_;
  rt::Counters* const counters_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::map<std::string, PeerClock> clocks_;
  /// Suspect → earliest next candidacy attempt (retry backoff).
  std::map<std::string, std::chrono::steady_clock::time_point> suspects_;
  bool election_active_ = false;
  uint64_t election_epoch_ = 0;
  size_t grants_ = 0;
  size_t denials_ = 0;
  uint64_t elections_ = 0;
  uint64_t votes_granted_ = 0;
  uint64_t attempt_ = 0;  // jitter stream position

  std::thread worker_;
};

}  // namespace sws::replication

#endif  // SWS_REPLICATION_FAILOVER_H_
