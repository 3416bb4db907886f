#ifndef SWS_REPLICATION_REPLICA_GROUP_H_
#define SWS_REPLICATION_REPLICA_GROUP_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sws/status.h"

namespace sws::replication {

/// Replication knobs (DESIGN.md §11). replicas = 0 is replication off —
/// the runtime then carries a null ReplicationClient and the single-node
/// ack path is untouched.
struct ReplicationOptions {
  /// Follower nodes per session (beyond the primary). Capped by group
  /// size − 1 at placement time.
  size_t replicas = 0;
  /// Follower acks required before the client ack fires; 0 = all
  /// followers. Exactly-once across promotion is only guaranteed when
  /// the promoted follower was in the ack quorum of every acknowledged
  /// outcome — with ack_quorum == replicas any follower qualifies; with
  /// a smaller quorum the promotion rule must provably pick a quorum
  /// member (trivially so with a single follower). See DESIGN.md §11.
  size_t ack_quorum = 0;
  /// How long a delimiter ack may wait for the follower quorum before
  /// the client sees kReplicationTimeout.
  std::chrono::milliseconds ack_timeout{250};
  /// Unacknowledged shipments older than this are resent.
  std::chrono::milliseconds retransmit_interval{10};
  /// Liveness beacons to every peer (failover detection); 0 = none.
  std::chrono::milliseconds heartbeat_interval{20};
  /// Failure detector: consecutive missed heartbeat intervals before a
  /// peer is suspected. Under auto_failover a zero
  /// NodeOptions::failover_timeout is derived as suspicion_misses ×
  /// heartbeat_interval, the window the node's FailoverCoordinator uses.
  uint32_t suspicion_misses = 3;
  /// Fraction of heartbeat_interval each probe is jittered by (±), drawn
  /// from a per-node deterministic SplitMix64 stream — de-synchronizes
  /// the group's probes without losing seed reproducibility. In [0, 1).
  double heartbeat_jitter = 0.0;
  /// How long an election candidate waits for vote grants before
  /// retrying at a higher epoch (automatic failover).
  std::chrono::milliseconds election_timeout{100};

  size_t resolved_quorum() const {
    return ack_quorum == 0 ? replicas : ack_quorum;
  }
};

/// `group_size` is the number of nodes in the ReplicaGroup the options
/// will place sessions over.
core::Status ValidateReplicationOptions(const ReplicationOptions& options,
                                        size_t group_size);

/// Consistent-hash placement of sessions over a fixed set of nodes, plus
/// explicit promotion overrides. Each node owns `virtual_tokens` points
/// on a 64-bit ring; a session is served by the owner of the first token
/// at or after its hash, and its followers are the next distinct owners
/// clockwise — so node death moves only the dead node's arc, not the
/// whole placement. Promote(dead, heir) reroutes every session whose
/// resolved primary was `dead` to `heir` without re-hashing the ring
/// (placement history must stay stable for journals to stay meaningful).
///
/// Thread-safe: the ring is immutable after construction; overrides are
/// guarded by a mutex (clients resolve placement concurrently with a
/// promotion).
class ReplicaGroup {
 public:
  explicit ReplicaGroup(std::vector<std::string> nodes,
                        size_t virtual_tokens = 16);

  const std::vector<std::string>& nodes() const { return nodes_; }

  /// The node serving `session_id` (after promotion overrides).
  std::string PrimaryOf(const std::string& session_id) const;

  /// Primary followed by up to `replicas` distinct follower nodes, in
  /// ring order (fewer when the group is small).
  std::vector<std::string> ReplicasOf(const std::string& session_id,
                                      size_t replicas) const;

  /// ReplicasOf without the leading primary.
  std::vector<std::string> FollowersOf(const std::string& session_id,
                                       size_t replicas) const;

  /// Reroutes every session resolving to `dead` onto `heir`. Overrides
  /// chain (if `heir` is later promoted away, both hops follow) and are
  /// permanent: a restarted `dead` node rejoins as a follower only.
  void Promote(const std::string& dead, const std::string& heir);

  /// True when `node`'s arcs currently resolve to some other node — it
  /// was promoted away and owns no sessions (it can only follow).
  bool IsDeposed(const std::string& node) const;

  /// The deterministic election heir for `dead`: the first distinct
  /// resolved owner clockwise from `dead`'s lowest ring token, skipping
  /// `dead` itself and every node in `exclude` (the caller's locally-
  /// suspected set). Empty when no candidate remains. All nodes with the
  /// same override table and exclude set compute the same heir — vote
  /// quorums arbitrate when suspicion sets differ.
  std::string HeirOf(const std::string& dead,
                     const std::vector<std::string>& exclude = {}) const;

 private:
  std::string Resolve(const std::string& node) const;  // follow overrides

  std::vector<std::string> nodes_;
  /// (token hash, index into nodes_), sorted by hash.
  std::vector<std::pair<uint64_t, size_t>> ring_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::string> overrides_;
};

}  // namespace sws::replication

#endif  // SWS_REPLICATION_REPLICA_GROUP_H_
