#ifndef SWS_REPLICATION_REPLICATOR_H_
#define SWS_REPLICATION_REPLICATOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "persistence/durability.h"
#include "replication/failover.h"
#include "replication/replica_group.h"
#include "replication/transport.h"
#include "runtime/replication_hooks.h"

namespace sws::replication {

/// Primary-side replication: ships this node's persisted journal records
/// to each session's followers over per-destination FIFO links, tracks
/// cumulative acks, retransmits, and implements the ack barrier the
/// shard drain path blocks on (rt::ReplicationClient).
///
/// Link protocol (DESIGN.md §11): shipments on a (source, dest) link
/// carry a monotone link_seq starting at 1 per source incarnation;
/// followers apply in link order and ack cumulatively after persisting.
/// Acked shipments leave the retransmit buffer; unacked ones are resent
/// every retransmit_interval with first_unacked refreshed, so a follower
/// that lost its in-memory link state can re-synchronize (see
/// Shipment::first_unacked).
///
/// Fencing (DESIGN.md §13): every shipment and heartbeat is stamped with
/// the node's current fencing epoch. When an ack carries a higher epoch
/// the replicator adopts it; if this node turns out to be deposed (its
/// ring arcs resolve elsewhere — a promotion happened behind its back),
/// the replicator fences itself: every retransmit buffer is dropped and
/// all shipping stops, so pending ack barriers fail fast instead of
/// timing out against followers that will reject the stale epoch anyway.
/// The fence is shared node-wide, so the epoch can also move under the
/// replicator's feet via an incoming message the node adopts it from
/// (heartbeat, shipment, catch-up request) or a local promotion; the
/// background loop therefore reconciles deposed-ness against the fence
/// whenever it observes the epoch moved, never only on the ack path.
/// Without that, a deposed primary that learned the new epoch from a
/// heartbeat would keep retransmitting its stale tail restamped with
/// the *current* epoch — which followers would accept, forking acked
/// history.
///
/// Catch-up (DESIGN.md §13): a link to a bootstrapping joiner is marked
/// not-caught-up and excluded from the ack quorum until the joiner has
/// acknowledged past the catch-up fence (the link position at which the
/// serve completed) — a follower missing the prefix must not vouch for
/// the suffix. The joiner side runs a broadcast-and-retry catch-up
/// request loop on the background thread.
///
/// Thread-safety: ShipRecord/ShipOutcomeAndWait are called by shard
/// drain workers, OnAck by the transport delivery thread, Abort by the
/// node teardown path; one mutex guards the link table. Lock order:
/// mu_ may be held while calling transport Send (the transport never
/// calls back into the replicator while holding its own lock).
class Replicator : public rt::ReplicationClient {
 public:
  /// `fence` may be null (tests exercising the pre-fencing link
  /// protocol): shipments then carry epoch 0 and acks never fence.
  /// `counters` (segments_shipped, follower_lag_hwm) may be null.
  Replicator(std::string node_id, const ReplicaGroup* group,
             ReplicationOptions options, ReplicationTransport* transport,
             uint64_t incarnation, FencingEpoch* fence = nullptr,
             rt::Counters* counters = nullptr);
  ~Replicator() override;

  // rt::ReplicationClient
  void ShipRecord(const persistence::JournalRecord& record, uint64_t shard,
                  uint64_t segment_n) override;
  core::Status ShipOutcomeAndWait(const persistence::JournalRecord& record,
                                  uint64_t shard,
                                  uint64_t segment_n) override;
  uint64_t MinUnackedSegment(uint64_t shard) const override;

  /// Ships one persisted record to a single explicit destination,
  /// bypassing placement — the catch-up serve path, which replays the
  /// primary's journal tail to a joiner the group already places as a
  /// follower.
  void ShipRecordTo(const std::string& dest,
                    const persistence::JournalRecord& record, uint64_t shard,
                    uint64_t segment_n);

  /// Ships a catch-up bootstrap payload (EncodeSnapshotPayload bytes) to
  /// `dest` as a snapshot-flagged link shipment: it occupies a link_seq
  /// and is retransmitted until acked like any record, so the catch-up
  /// fence covers it (see Shipment::snapshot).
  void ShipSnapshotTo(const std::string& dest, std::string payload);

  /// Transport ack, routed by the node's endpoint. Acks echoing a stale
  /// incarnation (a past life of this node) or past the last link_seq
  /// shipped on their link are ignored, but their epoch is adopted
  /// regardless — fencing news is never stale.
  void OnAck(const Ack& ack);

  // --- catch-up, serve side (called by the node's endpoint) ---

  /// A catch-up request from `dest` arrived: demote its link out of the
  /// ack quorum until FinishCatchupServe's fence is acknowledged.
  void BeginCatchup(const std::string& dest);

  /// The snapshot + tail serve to `dest` is fully buffered: records the
  /// graduation fence at the link's current tip.
  void FinishCatchupServe(const std::string& dest);

  /// While pinned, MinUnackedSegment reports segment 0 for every shard,
  /// holding snapshot GC off the whole journal for the duration of a
  /// catch-up serve (the serve reads segments from disk).
  void PinCatchup();
  void UnpinCatchup();

  // --- catch-up, joiner side ---

  /// Starts the broadcast catch-up loop: a request is sent to every
  /// source now and re-sent every ack_timeout until that source serves
  /// (NoteCatchupServed) or is suspected dead (CancelCatchup).
  void RequestCatchup(const std::vector<std::string>& sources);
  void NoteCatchupServed(const std::string& source);
  void CancelCatchup(const std::string& source);
  size_t pending_catchup_count() const;

  /// Node death: wakes every barrier waiter with failure and stops all
  /// shipping/retransmission permanently. Idempotent.
  void Abort();

  uint64_t incarnation() const { return incarnation_; }

  /// True once a higher-epoch ack revealed this node was deposed and its
  /// buffers were dropped.
  bool fenced() const;

 private:
  struct Link {
    uint64_t next_link_seq = 1;
    uint64_t acked = 0;  // cumulative: follower applied+persisted <= acked
    std::deque<Shipment> unacked;  // retransmit buffer, link_seq order
    std::chrono::steady_clock::time_point last_send{};
    /// False while the destination bootstraps: its acks advance the link
    /// but do not count toward any quorum until it graduates.
    bool caught_up = true;
    /// Graduation point: acked >= catchup_fence flips caught_up back.
    uint64_t catchup_fence = 0;
  };

  uint64_t CurrentEpoch() const {
    return fence_ == nullptr ? 0 : fence_->current();
  }

  /// Builds + buffers a shipment of `frame` on `dest`'s link and returns
  /// its link_seq. Caller holds mu_.
  uint64_t BufferLocked(const std::string& dest, const std::string& session_id,
                        const std::string& frame, uint64_t shard,
                        uint64_t segment_n, bool snapshot,
                        std::vector<Shipment>* to_send);
  void NoteSegmentLocked(uint64_t shard, uint64_t segment_n);
  /// Higher-epoch adoption (ack path): raises the fence, then
  /// reconciles. Caller must NOT hold mu_.
  void MaybeAdoptEpoch(uint64_t epoch);
  /// Brings the link table in line with the fence after the epoch moved
  /// by any route (ack, heartbeat adopted by the applier, local
  /// promotion): a deposed node drops every buffer and fences itself;
  /// anyone else restamps so retransmissions carry the new epoch. Runs
  /// the group-membership probe at most once per epoch. Caller must NOT
  /// hold mu_.
  void ReconcileEpoch();
  void BackgroundLoop();

  const std::string node_id_;
  const ReplicaGroup* const group_;
  const ReplicationOptions options_;
  ReplicationTransport* const transport_;
  const uint64_t incarnation_;
  FencingEpoch* const fence_;
  rt::Counters* const counters_;

  mutable std::mutex mu_;
  std::condition_variable ack_cv_;
  bool aborted_ = false;
  bool stop_ = false;
  bool fenced_ = false;
  /// Highest epoch the deposed-or-restamp reconciliation has run for;
  /// trails fence_->current() until the next ReconcileEpoch.
  uint64_t reconciled_epoch_ = 0;
  std::map<std::string, Link> links_;
  /// Last journal segment seen per shard (counts segment transitions
  /// into segments_shipped).
  std::map<uint64_t, uint64_t> last_segment_;
  int catchup_pins_ = 0;
  /// Sources this joiner still awaits a catch-up serve from.
  std::set<std::string> pending_catchup_;
  std::chrono::steady_clock::time_point last_catchup_send_{};

  std::thread background_;
};

}  // namespace sws::replication

#endif  // SWS_REPLICATION_REPLICATOR_H_
