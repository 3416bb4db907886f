#ifndef SWS_REPLICATION_NODE_H_
#define SWS_REPLICATION_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "persistence/recovery.h"
#include "relational/database.h"
#include "replication/failover.h"
#include "replication/follower.h"
#include "replication/replica_group.h"
#include "replication/replicator.h"
#include "replication/transport.h"
#include "runtime/runtime.h"
#include "sws/fault.h"
#include "sws/sws.h"

namespace sws::replication {

struct NodeOptions {
  std::string id;
  /// The node's own durable directory (journal + snapshots + replica
  /// journals + fencing state all live here; promotion is recovery over
  /// this dir).
  std::string dir;
  ReplicationOptions replication;
  /// Base runtime options; the node overrides durability.dir and the
  /// replication wiring per life. Governance is independent of
  /// failover: the node's FailoverCoordinator, not the runtime's
  /// watchdog, detects silent peers.
  rt::RuntimeOptions runtime;
  /// Silence window before a peer is suspected; > 0 arms the node's
  /// failure detector. 0 with auto_failover on derives
  /// replication.suspicion_misses × heartbeat_interval; 0 without it
  /// leaves detection off.
  std::chrono::nanoseconds failover_timeout{0};
  /// Self-healing mode (DESIGN.md §13): suspicion feeds this node's own
  /// FailoverCoordinator, which campaigns for a quorum-confirmed fenced
  /// promotion — no harness Promote() involved — and a fresh node
  /// bootstraps itself via catch-up before entering any ack quorum.
  bool auto_failover = false;
  /// Fired from the failover coordinator's thread, with no node lock
  /// held, when a peer has been silent for the whole failover_timeout
  /// (once per silence episode, only while this node runs).
  std::function<void(const std::string& node, const std::string& peer)>
      on_peer_suspected;
  /// Fired after a life comes up — Start(), Promote() and automatic
  /// promotions alike — with no node lock held, so the callback may call
  /// straight back into the node (submit, stats). The auto-failover
  /// chaos harness uses it to re-drive clients at the new primary.
  std::function<void(const std::string& node)> on_life_started;
  /// Per-life storage/run fault options (the transport's faults live on
  /// the transport's own injector).
  core::FaultOptions faults;
};

/// One in-process "node": a restartable ServiceRuntime over its own
/// durable dir, a Replicator for the sessions it serves, and a
/// FollowerApplier for the sessions it follows, all joined to the wire
/// by one transport binding. Every life gets a fresh FaultInjector
/// (injected storage death does not leak into the next life).
///
/// Lifecycle: Start → [Kill | Stop] → Start ... Kill models a crash —
/// storage dies first (every in-flight append tears), the transport cuts
/// the node off, barrier waiters are woken with failure, then the
/// runtime is torn down; nothing is flushed. Promote(dead) re-runs
/// recovery over the node's own dir — replica journals included — so
/// the node comes back serving the dead node's sessions with
/// deterministic state, never double-acking (acknowledged outcomes are
/// suppressed by replay) and never re-running failed outcomes.
///
/// Restart re-replication (DESIGN.md §11): a crash wipes the
/// replicator's retransmit buffers, so records committed locally but
/// never acked by followers would otherwise exist on this node alone —
/// and a *later* promotion would lose them (or re-deliver them: a
/// follower that never saw the outcome record re-runs the session on
/// its own promotion and re-emits). Every Start therefore re-ships the
/// un-consolidated journal tail of the sessions it owns before serving
/// (followers dedup by seq on recovery), and gates each replayed
/// outcome's re-emission on the same follower ack barrier as a live
/// commit: an outcome this node re-delivers is quorum-durable first, so
/// every future promotion candidate suppresses it. When the barrier
/// cannot be reached (a peer is down, or this node was deposed and its
/// stale-epoch re-ship was fenced), the re-emission is withheld — the
/// client saw an error for that outcome, so at-most-once resolution
/// applies, never a double delivery. FIFO links make the gate
/// sufficient: a follower's ack of the outcome's link_seq implies every
/// earlier tail record on that link is applied and durable there.
///
/// Threading: lifecycle transitions (Start/Stop/Kill/Promote — harness
/// calls, and the coordinator's automatic promotion) serialize on an
/// internal lifecycle lock, so auto_failover makes them safe from any
/// thread. The raw runtime()/applier()/replicator() accessors remain
/// harness-only (valid between transitions the harness itself drives);
/// concurrent drivers use runtime_snapshot(), which keeps the runtime
/// alive across a teardown (its Shutdown has already quiesced it). The
/// endpoint method (transport thread) never takes the lifecycle lock —
/// Kill holds it across Unbind, which waits out in-flight deliveries —
/// and only touch bound-stable pointers: Bind happens after the
/// applier/replicator exist, Unbind before they die.
class ReplicatedNode : public ReplicationEndpoint {
 public:
  ReplicatedNode(NodeOptions options, const core::Sws* sws,
                 rel::Database initial_db, ReplicaGroup* group,
                 ReplicationTransport* transport);
  ~ReplicatedNode() override;

  /// Brings up a life: recovery (via the runtime constructor), then
  /// replication wiring, then the transport binding. Fails if the
  /// durable dir is unrecoverable.
  core::Status Start();

  /// Crash. Idempotent; a killed node can Start() again.
  void Kill();

  /// Clean shutdown (drains admitted work, flushes). Idempotent.
  void Stop();

  /// Operator-driven takeover of `dead`'s sessions: bumps the fencing
  /// epoch (an operator override outranks the deposed primary exactly
  /// like a won election does), registers the group override, rebuilds
  /// this node's runtime from its own dir (replica journals make the
  /// state current), and exposes the ownership-filtered unacknowledged
  /// outcomes in replayed(). The node must be running.
  core::Status Promote(const std::string& dead);

  /// The quorum-election commit path (FailoverHooks::promote): same as
  /// Promote but adopting the exact epoch the votes were granted at.
  core::Status PromoteWithEpoch(const std::string& dead, uint64_t epoch);

  /// ReplicationEndpoint (transport delivery thread): notes the sender
  /// alive, then routes the message — shipments to the applier, acks to
  /// the replicator, votes to the coordinator, catch-up requests to the
  /// serve; a heartbeat only carries its epoch.
  void OnMessage(const Message& message) override;

  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& id() const { return options_.id; }
  const NodeOptions& options() const { return options_; }
  rt::ServiceRuntime* runtime() { return runtime_.get(); }
  core::FaultInjector* injector() { return injector_.get(); }
  FollowerApplier* applier() { return applier_.get(); }
  Replicator* replicator() { return replicator_.get(); }
  FencingEpoch* fence() { return &fence_; }
  FailoverCoordinator* coordinator() { return coordinator_.get(); }
  /// The node-owned counter set (promotions, shipping and failover
  /// metrics), which outlives every runtime life.
  rt::Counters* counters() { return &counters_; }
  uint64_t incarnation() const { return incarnation_; }
  /// Replayed outcomes the last Start()/Promote() withheld because their
  /// re-emission ack barrier failed (a follower was unreachable, or this
  /// node was fenced mid-re-ship). Their clients saw errors —
  /// withholding is at-most-once, not loss.
  uint64_t suppressed_reemissions() const { return suppressed_reemissions_; }

  /// The current runtime, kept alive for the caller even if an automatic
  /// promotion tears this life down concurrently (the runtime's own
  /// Submit/Drain reject cleanly after its Shutdown). Null when down.
  std::shared_ptr<rt::ServiceRuntime> runtime_snapshot() const;
  /// Thread-safe copy of replayed() for concurrent (auto-mode) drivers.
  std::vector<persistence::ReplayedOutcome> replayed_copy() const;

  /// Unacknowledged outcomes recomputed by the last Start()/Promote()
  /// recovery, filtered to sessions this node currently owns
  /// (group->PrimaryOf == id). A deposed primary restarting replays its
  /// journal for state but stays silent about sessions promoted away —
  /// re-emitting them would double-deliver what the heir already
  /// delivered. See DESIGN.md §11.
  const std::vector<persistence::ReplayedOutcome>& replayed() const {
    return replayed_;
  }

 private:
  /// One journal record read back off disk before recovery consolidated
  /// (and deleted) its segment, tagged with the segment identity the
  /// replicator's pin bookkeeping expects.
  struct TailRecord {
    persistence::JournalRecord record;
    uint64_t shard = 0;
    uint64_t segment_n = 0;
  };
  /// (session, seq): the order a follower applies a session's records in.
  static bool BySessionSeq(const TailRecord& a, const TailRecord& b);

  core::Status StartLife();
  core::Status PromoteLocked(const std::string& dead, uint64_t epoch);
  void Teardown(bool crash);
  /// The silence window in force (explicit, or derived from
  /// suspicion_misses × heartbeat_interval under auto_failover).
  std::chrono::nanoseconds EffectiveFailoverTimeout() const;
  /// FailoverHooks::suspected (coordinator thread): counts the
  /// suspicion, stops waiting on the peer's catch-up serve and fires
  /// NodeOptions::on_peer_suspected — only while the node runs.
  void OnPeerSuspected(const std::string& peer);
  /// FailoverHooks::ready — fit to campaign? Running, and not itself
  /// awaiting a catch-up serve (a joiner with an incomplete prefix must
  /// not seize sessions it has not bootstrapped).
  bool ReadyForElection() const;
  /// One pass over the durable dir, own shards and replica shards alike,
  /// keeping the sessions `keep` selects: each one's newest snapshot
  /// image (largest next_seq — recovery's merge rule) into `images`, and
  /// every journal record into `tail`, ordered (session, seq).
  /// Unreadable files are skipped: recovery decides their fate.
  void ReadDurableDir(const std::function<bool(const std::string&)>& keep,
                      std::map<std::string, persistence::SessionImage>* images,
                      std::vector<TailRecord>* tail) const;
  /// The records of sessions this node currently owns, ordered (session,
  /// seq), snapshot-pending inputs included. Must run before the runtime
  /// constructor: its recovery consolidates the dir and deletes the
  /// segments being read.
  void CollectOwnedTail(std::vector<TailRecord>* tail) const;
  /// Re-ships `tail` to this node's followers and runs the re-emission
  /// ack barrier over replayed_, dropping entries whose barrier fails.
  /// Requires the transport binding to be up (acks must flow back).
  void ReplicateRecoveredState(const std::vector<TailRecord>& tail);
  /// Serves a catch-up request from `requester` (transport thread): one
  /// snapshot-flagged shipment of every owned session the requester
  /// follows, then the matching journal tail, then the graduation fence.
  void ServeCatchup(const std::string& requester);

  NodeOptions options_;
  const core::Sws* const sws_;
  const rel::Database initial_db_;
  ReplicaGroup* const group_;
  ReplicationTransport* const transport_;

  /// Serializes lifecycle transitions (unique) against concurrent
  /// observers (shared). Endpoint handlers never take it — see class
  /// comment.
  mutable std::shared_mutex life_mu_;
  FencingEpoch fence_;
  bool fence_loaded_ = false;
  rt::Counters counters_;

  std::unique_ptr<core::FaultInjector> injector_;
  std::unique_ptr<FollowerApplier> applier_;
  std::unique_ptr<Replicator> replicator_;
  std::shared_ptr<rt::ServiceRuntime> runtime_;
  std::vector<persistence::ReplayedOutcome> replayed_;
  uint64_t incarnation_ = 0;
  uint64_t suppressed_reemissions_ = 0;
  std::atomic<bool> running_{false};

  /// The node's failure detector (and, under auto_failover, its election
  /// driver). Lives across lives (election state and liveness clocks
  /// must survive restarts). Created on the first Start with a nonzero
  /// EffectiveFailoverTimeout(); destroyed only by ~ReplicatedNode,
  /// after the transport binding is down.
  std::unique_ptr<FailoverCoordinator> coordinator_;
};

/// The promotion rule: among `candidates` (the live followers of the
/// dead node's sessions), pick the most caught-up — the one whose
/// durable dir would recover the largest total next_seq over the dead
/// node's sessions — breaking ties by node id. With ack_quorum ==
/// replicas every follower is in every acked outcome's quorum, so any
/// candidate preserves exactly-once; the most-caught-up rule additionally
/// minimizes re-run work (and is required for exactly-once when the
/// quorum is smaller — the most-caught-up follower has provably seen
/// every quorum-acked outcome when it is the only follower).
std::string ChoosePromotionCandidate(
    const std::vector<ReplicatedNode*>& candidates, const core::Sws* sws,
    const rel::Database& seed_db);

}  // namespace sws::replication

#endif  // SWS_REPLICATION_NODE_H_
