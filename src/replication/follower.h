#ifndef SWS_REPLICATION_FOLLOWER_H_
#define SWS_REPLICATION_FOLLOWER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "persistence/durability.h"
#include "replication/failover.h"
#include "replication/transport.h"
#include "runtime/replication_hooks.h"

namespace sws::replication {

/// Shard index space for replica journals: records received from the
/// k-th distinct source this applier life are journaled under shard
/// kReplicaShardBase + k in the node's own durable dir. Disjoint from
/// the runtime's own shard indices (and from kRecoveryShard), so a
/// node's primary journal and its replica journals coexist in one dir
/// and RecoveryManager consolidates both — which is exactly what
/// promotion is: recover the dir, replica records included.
inline constexpr uint64_t kReplicaShardBase = 1ull << 40;

/// Follower-side replication: receives shipped journal records, applies
/// them in link order through the node's own journal writers (fsync
/// before ack — "acknowledged ⇒ durable" holds across the wire), and
/// acks cumulatively. Liveness is not its business: the node's
/// FailoverCoordinator keeps the one liveness clock.
///
/// Out-of-order shipments buffer until the gap fills (retransmission
/// guarantees it does); duplicates re-ack. A shipment whose
/// first_unacked is ahead of the local cursor fast-forwards it — those
/// records were acknowledged by a previous life of this node and are
/// already in its journal (see Shipment::first_unacked). A shipment
/// outside 1 <= first_unacked <= link_seq is malformed: rejected whole,
/// like a corrupt frame, before it can touch a link or the epoch.
///
/// Fencing (DESIGN.md §13): a shipment stamped with an epoch below this
/// node's adopted epoch is from a deposed primary — it is counted,
/// dropped without applying, and answered with a current-epoch ack so
/// the sender learns it was fenced. Higher epochs on any message are
/// adopted. This is what keeps a promoted heir's history from being
/// forked by the old primary's in-flight or restart-reshipped tail.
///
/// Thread-safety: OnShipment runs on the transport delivery thread; one
/// mutex guards everything. The ShardDurability writers are
/// created lazily per source under the mutex, so the "drain-role holder
/// only" contract those writers assume maps here to "delivery thread
/// under mu_".
class FollowerApplier {
 public:
  struct Options {
    /// The node's own durable dir (shared with its runtime).
    std::string dir;
    persistence::FsyncPolicy fsync = persistence::FsyncPolicy::kAlways;
    uint64_t segment_bytes = 4ull << 20;
    uint64_t service_fingerprint = 0;
  };

  /// `incarnation` is the node's current journal incarnation (replica
  /// segments are stamped with it, like the runtime's own segments).
  /// `fence` may be null (epoch checks off, acks carry epoch 0);
  /// `counters` may be null (fencing rejects only counted locally).
  FollowerApplier(std::string node_id, Options options,
                  ReplicationTransport* transport, uint64_t incarnation,
                  core::FaultInjector* injector,
                  FencingEpoch* fence = nullptr,
                  rt::Counters* counters = nullptr);

  /// Record shipments journal under the source's replica shard; a
  /// snapshot-flagged shipment (catch-up bootstrap) instead persists its
  /// payload as a snapshot file stamped with that shard — recovery then
  /// merges it exactly like a locally-captured snapshot (largest
  /// next_seq per session wins). Both ack only once durable.
  void OnShipment(const Shipment& shipment);

  // Telemetry.
  uint64_t applied() const;
  uint64_t duplicates() const;
  uint64_t rejected() const;  // malformed / corrupt shipments, failed appends
  uint64_t fencing_rejects() const;  // stale-epoch shipments dropped

 private:
  struct SourceLink {
    uint64_t source_incarnation = 0;
    /// Cumulative: every link_seq <= applied_seq is durably journaled.
    uint64_t applied_seq = 0;
    std::map<uint64_t, Shipment> pending;  // out-of-order buffer
    std::unique_ptr<persistence::ShardDurability> durability;
    uint64_t replica_shard = 0;
    uint64_t snapshots_absorbed = 0;  // names absorbed snapshot files
  };

  SourceLink& LinkFor(const std::string& source);
  /// Applies pending shipments in order until a gap or a failure;
  /// returns true if applied_seq advanced.
  bool DrainPendingLocked(SourceLink* link);
  /// Persists a snapshot-flagged shipment's payload as a snapshot file.
  /// False = transient storage failure (retry on retransmit).
  bool AbsorbSnapshotLocked(SourceLink* link, const Shipment& shipment,
                            bool* corrupt);
  uint64_t CurrentEpoch() const {
    return fence_ == nullptr ? 0 : fence_->current();
  }

  const std::string node_id_;
  const Options options_;
  ReplicationTransport* const transport_;
  const uint64_t incarnation_;
  core::FaultInjector* const injector_;
  FencingEpoch* const fence_;
  rt::Counters* const counters_;

  mutable std::mutex mu_;
  std::map<std::string, SourceLink> sources_;
  uint64_t next_ordinal_ = 0;
  uint64_t applied_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t rejected_ = 0;
  uint64_t fencing_rejects_ = 0;
};

}  // namespace sws::replication

#endif  // SWS_REPLICATION_FOLLOWER_H_
