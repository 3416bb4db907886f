#ifndef SWS_RUNTIME_REPLICATION_HOOKS_H_
#define SWS_RUNTIME_REPLICATION_HOOKS_H_

#include <cstdint>

#include "persistence/journal.h"
#include "runtime/runtime_stats.h"
#include "sws/status.h"

namespace sws::rt {

/// Primary-side replication hooks, implemented by
/// replication::Replicator and wired through RuntimeOptions. The shard
/// drain path calls these from the drain-role holder right after the
/// corresponding durable append, so shipments follow journal order per
/// shard. A null client is replication off — the hot path's only cost
/// is that null check (the replicas=0 contract in DESIGN.md §11).
class ReplicationClient {
 public:
  virtual ~ReplicationClient() = default;

  /// Ships one *persisted* input or discard record to the session's
  /// followers. Non-blocking: followers acknowledge asynchronously and
  /// the record is retransmitted until they do. `shard` and `segment_n`
  /// locate the record in the primary's journal — the replication
  /// cursor, which pins the segment against snapshot GC until every
  /// follower has acknowledged past it.
  virtual void ShipRecord(const persistence::JournalRecord& record,
                          uint64_t shard, uint64_t segment_n) = 0;

  /// The extended ack barrier (DESIGN.md §11): ships the persisted
  /// outcome record, then blocks until `ack_quorum` of the session's
  /// followers have durably acknowledged everything up to and including
  /// it, or `ack_timeout` passes. Ok ⇒ the callback may acknowledge the
  /// client; kReplicationTimeout ⇒ the ack must be withheld (the outcome
  /// is durable locally but not provably replicated).
  virtual core::Status ShipOutcomeAndWait(
      const persistence::JournalRecord& record, uint64_t shard,
      uint64_t segment_n) = 0;

  /// Smallest journal segment counter of `shard` that an unacknowledged
  /// shipment still references (the GC pin the shard installs before
  /// snapshotting), or persistence::ShardDurability::kNoSegmentPin when
  /// every shipment of that shard has been acknowledged.
  virtual uint64_t MinUnackedSegment(uint64_t shard) const = 0;
};

/// Replication wiring carried by RuntimeOptions::replication. All
/// defaults off: a runtime constructed without touching this struct is
/// byte-for-byte the unreplicated runtime.
struct ReplicationRuntimeOptions {
  /// Primary-side shipping + ack barrier; null = replication off.
  /// Must outlive the runtime.
  ReplicationClient* client = nullptr;
  /// The node-owned counter set ("node:" metrics in runtime_stats.h),
  /// shared across the node's lives so it survives the runtime rebuilds
  /// promotions and restarts perform. Stats() adds the set to the
  /// runtime's own. Null = none (those fields stay zero). Must outlive
  /// the runtime.
  Counters* counters = nullptr;
};

}  // namespace sws::rt

#endif  // SWS_RUNTIME_REPLICATION_HOOKS_H_
