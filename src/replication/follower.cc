#include "replication/follower.h"

#include <utility>

#include "persistence/journal.h"
#include "persistence/snapshot.h"

namespace sws::replication {

FollowerApplier::FollowerApplier(std::string node_id, Options options,
                                 ReplicationTransport* transport,
                                 uint64_t incarnation,
                                 core::FaultInjector* injector,
                                 FencingEpoch* fence,
                                 rt::Counters* counters)
    : node_id_(std::move(node_id)),
      options_(std::move(options)),
      transport_(transport),
      incarnation_(incarnation),
      injector_(injector),
      fence_(fence),
      counters_(counters) {}

FollowerApplier::SourceLink& FollowerApplier::LinkFor(
    const std::string& source) {
  SourceLink& link = sources_[source];
  if (link.replica_shard == 0) {
    link.replica_shard = kReplicaShardBase + next_ordinal_++;
  }
  return link;
}

bool FollowerApplier::DrainPendingLocked(SourceLink* link) {
  bool advanced = false;
  while (!link->pending.empty()) {
    auto it = link->pending.begin();
    if (it->first <= link->applied_seq) {
      // Subsumed by a fast-forward while buffered.
      link->pending.erase(it);
      continue;
    }
    if (it->first != link->applied_seq + 1) break;  // gap: wait for retransmit
    const Shipment& shipment = it->second;
    if (shipment.snapshot) {
      // Catch-up bootstrap riding the link: persist it as a snapshot
      // file before advancing — the ack must mean "durably absorbed"
      // exactly as it means "durably journaled" for records.
      bool corrupt = false;
      if (!AbsorbSnapshotLocked(link, shipment, &corrupt)) {
        ++rejected_;
        if (corrupt) {
          link->pending.erase(it);  // retransmit carries a clean copy
        }
        break;
      }
      link->applied_seq = it->first;
      link->pending.erase(it);
      ++applied_;
      advanced = true;
      continue;
    }
    persistence::JournalRecord record;
    if (!persistence::DecodeRecordFrame(shipment.frame, &record)) {
      // Corrupt in flight; drop it — the retransmit carries a clean copy.
      ++rejected_;
      link->pending.erase(it);
      break;
    }
    if (!link->durability) {
      persistence::DurabilityOptions durability_options;
      durability_options.dir = options_.dir;
      durability_options.fsync = options_.fsync;
      durability_options.segment_bytes = options_.segment_bytes;
      // The applier never snapshots: consolidation happens in recovery
      // (promotion / restart), which subsumes replica journals there.
      durability_options.snapshot_interval_appends = ~uint64_t{0};
      persistence::SegmentHeader header;
      header.incarnation = incarnation_;
      header.shard = link->replica_shard;
      header.service_fingerprint = options_.service_fingerprint;
      link->durability = std::make_unique<persistence::ShardDurability>(
          durability_options, header, /*first_segment_n=*/0, injector_);
    }
    persistence::AppendResult result;
    switch (record.type) {
      case persistence::JournalRecord::Type::kInput:
        result = link->durability->AppendInput(record);
        break;
      case persistence::JournalRecord::Type::kOutcome:
        result = link->durability->AppendOutcomeAndAck(record);
        break;
      case persistence::JournalRecord::Type::kDiscard:
        result = link->durability->AppendDiscard(record);
        break;
    }
    if (!result.persisted) {
      // Local storage trouble (torn write / dead disk). Keep the
      // shipment buffered and stop: the next arrival (or retransmit)
      // retries, by which time the poisoned segment has rotated away.
      ++rejected_;
      break;
    }
    link->applied_seq = it->first;
    link->pending.erase(it);
    ++applied_;
    advanced = true;
  }
  return advanced;
}

void FollowerApplier::OnShipment(const Shipment& shipment) {
  uint64_t ack = 0;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shipment.first_unacked == 0 ||
        shipment.first_unacked > shipment.link_seq) {
      // No sender builds this (first_unacked = its cumulative ack + 1,
      // and it only buffers seqs past that ack). Trusting it would move
      // the cursor to first_unacked - 1: past records never applied, or
      // to 2^64 - 1 on a wrap, after which the link drops every
      // shipment as a duplicate and acks what it does not have.
      ++rejected_;
      return;
    }
    SourceLink& link = LinkFor(shipment.from);
    if (fence_ != nullptr) {
      if (shipment.epoch > fence_->current()) {
        // News travels on every message: a shipment can be the first
        // carrier of a promotion this node missed.
        fence_->Adopt(shipment.epoch);
      } else if (shipment.epoch < fence_->current()) {
        // A deposed primary's stale traffic (in-flight at promotion, or
        // a restart re-shipping its un-consolidated tail). Never apply:
        // the promoted heir owns this history now, and merging the old
        // primary's divergent tail would fork acked state. The ack
        // carries our current epoch, which fences the sender.
        ++fencing_rejects_;
        if (counters_ != nullptr) {
          counters_->Add(rt::Counter::kEpochFencingRejects);
        }
        rejected = true;
        ack = link.applied_seq;
      }
    }
    if (!rejected) {
      if (shipment.source_incarnation < link.source_incarnation) {
        return;  // stale life
      }
      if (shipment.source_incarnation > link.source_incarnation) {
        // The source restarted: its links renumber from 1. Everything the
        // old life shipped and we acked is durable here; the new life's
        // first_unacked says where its stream begins.
        link.source_incarnation = shipment.source_incarnation;
        link.pending.clear();
        link.applied_seq = shipment.first_unacked - 1;
      }
      // Fast-forward: seqs below first_unacked were cumulatively acked —
      // by this node in a previous life if not this one — so they are in
      // the local journal already. Without this a restarted follower
      // would wait forever for records the primary no longer retains.
      if (link.applied_seq < shipment.first_unacked - 1) {
        link.applied_seq = shipment.first_unacked - 1;
      }
      if (shipment.link_seq <= link.applied_seq) {
        ++duplicates_;  // retransmit of something already applied: re-ack
      } else {
        link.pending.emplace(shipment.link_seq, shipment);
        DrainPendingLocked(&link);
      }
      ack = link.applied_seq;
    }
  }
  // Ack outside mu_ (transport takes its own lock). Cumulative, so
  // acking after every shipment — duplicates included — is harmless
  // and re-seeds a primary whose acks were dropped in flight.
  transport_->Send(Ack{node_id_, shipment.from, shipment.source_incarnation,
                       ack, CurrentEpoch()});
}

bool FollowerApplier::AbsorbSnapshotLocked(SourceLink* link,
                                           const Shipment& shipment,
                                           bool* corrupt) {
  *corrupt = false;
  persistence::SnapshotData snap;
  if (!persistence::DecodeSnapshotPayload(
           shipment.frame, "catch-up snapshot from " + shipment.from, &snap)
           .ok()) {
    *corrupt = true;  // damaged in flight; drop — retransmit is clean
    return false;
  }
  // Re-stamp to this node's identity: the file must read as ours (the
  // applier's shard space, our incarnation) so recovery consolidates it
  // alongside the link's tail records. Session images are carried
  // verbatim — next_seq is what recovery merges on. The name is unique
  // per (incarnation, shard, counter), so a re-absorbed retransmit
  // cannot clobber an earlier file.
  snap.header.incarnation = incarnation_;
  snap.header.shard = link->replica_shard;
  snap.header.service_fingerprint = options_.service_fingerprint;
  const std::string path =
      options_.dir + "/" +
      persistence::SnapFileName(incarnation_, link->replica_shard,
                                link->snapshots_absorbed);
  if (!persistence::WriteSnapshot(path, snap, injector_).ok()) return false;
  ++link->snapshots_absorbed;
  return true;
}

uint64_t FollowerApplier::applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_;
}

uint64_t FollowerApplier::duplicates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicates_;
}

uint64_t FollowerApplier::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

uint64_t FollowerApplier::fencing_rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fencing_rejects_;
}

}  // namespace sws::replication
