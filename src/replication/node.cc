#include "replication/node.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <variant>

#include "persistence/durability.h"
#include "persistence/journal.h"
#include "persistence/serde.h"
#include "persistence/snapshot.h"

namespace sws::replication {

ReplicatedNode::ReplicatedNode(NodeOptions options, const core::Sws* sws,
                               rel::Database initial_db, ReplicaGroup* group,
                               ReplicationTransport* transport)
    : options_(std::move(options)),
      sws_(sws),
      initial_db_(std::move(initial_db)),
      group_(group),
      transport_(transport),
      fence_(options_.dir) {}

ReplicatedNode::~ReplicatedNode() {
  // Stop() quiets the wire (Unbind waits out in-flight deliveries) and
  // flips running_, so a coordinator worker mid-promotion fails cleanly;
  // only then is the coordinator destroyed (joins its worker thread).
  Stop();
  coordinator_.reset();
}

std::chrono::nanoseconds ReplicatedNode::EffectiveFailoverTimeout() const {
  if (options_.failover_timeout.count() > 0) return options_.failover_timeout;
  if (options_.auto_failover) {
    return options_.replication.suspicion_misses *
           std::chrono::nanoseconds(options_.replication.heartbeat_interval);
  }
  return std::chrono::nanoseconds{0};
}

void ReplicatedNode::OnPeerSuspected(const std::string& peer) {
  {
    std::shared_lock<std::shared_mutex> lock(life_mu_);
    // A node that is down reports nothing: its clock went quiet with it,
    // and the next Start re-arms it.
    if (!running_.load(std::memory_order_acquire)) return;
    counters_.Add(rt::Counter::kPeerSuspicions);
    // A suspected peer cannot serve our catch-up; stop waiting on it
    // (its heir answers future requests under its own name).
    replicator_->CancelCatchup(peer);
  }
  if (options_.on_peer_suspected) options_.on_peer_suspected(options_.id, peer);
}

bool ReplicatedNode::ReadyForElection() const {
  std::shared_lock<std::shared_mutex> lock(life_mu_);
  return running_.load(std::memory_order_acquire) && replicator_ != nullptr &&
         replicator_->pending_catchup_count() == 0;
}

std::shared_ptr<rt::ServiceRuntime> ReplicatedNode::runtime_snapshot() const {
  std::shared_lock<std::shared_mutex> lock(life_mu_);
  return runtime_;
}

std::vector<persistence::ReplayedOutcome> ReplicatedNode::replayed_copy()
    const {
  std::shared_lock<std::shared_mutex> lock(life_mu_);
  return replayed_;
}

core::Status ReplicatedNode::Start() {
  core::Status status;
  {
    std::unique_lock<std::shared_mutex> lock(life_mu_);
    if (running_.load(std::memory_order_acquire)) return core::Status::Ok();
    status = StartLife();
  }
  if (status.ok() && options_.on_life_started) {
    options_.on_life_started(options_.id);
  }
  return status;
}

core::Status ReplicatedNode::StartLife() {
  core::Status status = persistence::EnsureDir(options_.dir);
  if (!status.ok()) return status;
  if (!fence_loaded_) {
    // Once per node object: the epoch lives across lives in memory and
    // the durable file only has to bridge process restarts. Corruption
    // is a hard failure — silently regressing the epoch would let a
    // deposed primary's writes back in.
    status = fence_.Load();
    if (!status.ok()) return status;
    fence_loaded_ = true;
  }
  // Every life gets a fresh injector: a previous life's injected storage
  // death (KillStorageAfter) must not follow the node into its restart.
  injector_ = std::make_unique<core::FaultInjector>(options_.faults);

  // The incarnation this life will journal under. The runtime
  // constructor's recovery recomputes the same value (nothing is written
  // to the dir in between), so the replica journals the applier writes
  // carry the same stamp as the runtime's own segments.
  uint64_t incarnation = 1;
  status = persistence::NextIncarnation(options_.dir, &incarnation);
  if (!status.ok()) return status;

  // Capture the un-consolidated journal tail of the sessions this node
  // owns *before* the runtime constructor runs: its recovery writes a
  // consolidated snapshot and deletes the segments. A crash wiped the
  // previous life's retransmit buffers, so anything in these segments
  // the followers never acked exists here alone until re-shipped.
  std::vector<TailRecord> tail;
  if (options_.replication.replicas > 0) CollectOwnedTail(&tail);

  FollowerApplier::Options applier_options;
  applier_options.dir = options_.dir;
  applier_options.fsync = persistence::FsyncPolicy::kAlways;
  applier_options.segment_bytes = options_.runtime.durability.segment_bytes;
  applier_options.service_fingerprint = persistence::SwsFingerprint(*sws_);
  applier_ = std::make_unique<FollowerApplier>(
      options_.id, applier_options, transport_, incarnation, injector_.get(),
      &fence_, &counters_);
  replicator_ = std::make_unique<Replicator>(
      options_.id, group_, options_.replication, transport_, incarnation,
      &fence_, &counters_);

  const std::chrono::nanoseconds failover_timeout = EffectiveFailoverTimeout();
  if (failover_timeout.count() > 0 && coordinator_ == nullptr) {
    // Created once, on the first life: election state and liveness
    // clocks must survive restarts (a node that crashes mid-election
    // must not forget the epoch arithmetic its durable vote implies).
    FailoverHooks hooks;
    hooks.suspected = [this](const std::string& peer) {
      OnPeerSuspected(peer);
    };
    if (options_.auto_failover) {
      hooks.ready = [this]() { return ReadyForElection(); };
      hooks.promote = [this](const std::string& dead, uint64_t epoch) {
        return PromoteWithEpoch(dead, epoch);
      };
    }
    coordinator_ = std::make_unique<FailoverCoordinator>(
        options_.id, group_, transport_, &fence_, options_.replication,
        failover_timeout, std::move(hooks), &counters_);
  }

  rt::RuntimeOptions runtime_options = options_.runtime;
  runtime_options.durability.dir = options_.dir;
  runtime_options.run_options.fault_injector = injector_.get();
  runtime_options.replication.client =
      options_.replication.replicas > 0 ? replicator_.get() : nullptr;
  runtime_options.replication.counters = &counters_;

  // The constructor recovers the dir: own journal *and* replica
  // journals consolidate into one snapshot, sessions install warm.
  runtime_ = std::make_shared<rt::ServiceRuntime>(sws_, initial_db_,
                                                  runtime_options);
  if (!runtime_->init_status().ok()) {
    status = runtime_->init_status();
    runtime_.reset();
    replicator_.reset();
    applier_.reset();
    return status;
  }
  if (runtime_->recovery() != nullptr) {
    incarnation_ = runtime_->recovery()->next_incarnation;
    // Ownership-gated re-emission (DESIGN.md §11): deliver only the
    // unacknowledged outcomes of sessions this node currently serves. A
    // deposed primary replays the rest for state but stays silent —
    // their heir already delivered (or will).
    replayed_.clear();
    for (const persistence::ReplayedOutcome& outcome :
         runtime_->recovery()->replayed) {
      if (group_->PrimaryOf(outcome.session_id) == options_.id) {
        replayed_.push_back(outcome);
      }
    }
  } else {
    incarnation_ = incarnation;
    replayed_.clear();
  }

  transport_->Rejoin(options_.id);
  transport_->Bind(options_.id, this);
  if (coordinator_ != nullptr) {
    // A long downtime must not read as everyone-is-dead the moment the
    // node returns; a peer that never speaks to this life is suspected
    // one window from now.
    coordinator_->ResetClocks();
  }
  // With the binding up (acks can flow back), converge the followers:
  // re-ship the pre-consolidation tail, then gate each replayed
  // outcome's re-emission on the follower ack barrier. FIFO links order
  // the barrier record after the tail, so a follower's ack of the
  // outcome implies the whole prefix is durable there.
  if (options_.replication.replicas > 0) ReplicateRecoveredState(tail);
  if (options_.auto_failover && options_.replication.replicas > 0 &&
      incarnation_ == 1) {
    // First life over an empty dir: this node may be joining a group
    // with history it never followed, so bootstrap from every peer
    // before vouching for anything (acks of later lives don't need
    // this — acked means durable here, so the dir carries the prefix).
    std::vector<std::string> sources;
    for (const std::string& peer : group_->nodes()) {
      if (peer != options_.id) sources.push_back(peer);
    }
    if (!sources.empty()) replicator_->RequestCatchup(sources);
  }
  running_.store(true, std::memory_order_release);
  return core::Status::Ok();
}

bool ReplicatedNode::BySessionSeq(const TailRecord& a, const TailRecord& b) {
  return std::tie(a.record.session_id, a.record.seq) <
         std::tie(b.record.session_id, b.record.seq);
}

void ReplicatedNode::ReadDurableDir(
    const std::function<bool(const std::string&)>& keep,
    std::map<std::string, persistence::SessionImage>* images,
    std::vector<TailRecord>* tail) const {
  std::vector<persistence::DurableFile> files;
  if (!persistence::ListDurableFiles(options_.dir, &files).ok()) return;
  // Segment order within a shard (incarnation, then n) is append order;
  // the final per-session sort below interleaves shards correctly.
  std::stable_sort(files.begin(), files.end(),
                   [](const persistence::DurableFile& a,
                      const persistence::DurableFile& b) {
                     return std::tie(a.shard, a.incarnation, a.n) <
                            std::tie(b.shard, b.incarnation, b.n);
                   });
  for (const persistence::DurableFile& file : files) {
    const std::string path = options_.dir + "/" + file.name;
    if (file.is_snapshot) {
      persistence::SnapshotData snap;
      if (!persistence::ReadSnapshot(path, nullptr, &snap).ok()) continue;
      for (persistence::SessionImage& image : snap.sessions) {
        if (!keep(image.session_id)) continue;
        auto [it, inserted] =
            images->try_emplace(image.session_id, std::move(image));
        if (!inserted && image.next_seq > it->second.next_seq) {
          it->second = std::move(image);
        }
      }
      continue;
    }
    persistence::SegmentContents contents;
    if (!persistence::ReadSegment(path, nullptr, &contents).ok()) continue;
    for (persistence::JournalRecord& record : contents.records) {
      if (!keep(record.session_id)) continue;
      tail->push_back({std::move(record), file.shard, file.n});
    }
  }
  // Ship in per-session seq order so a follower applies without gaps.
  // The same record may appear twice (own journal and a replica journal
  // both hold it); follower recovery dedups by seq.
  std::stable_sort(tail->begin(), tail->end(), BySessionSeq);
}

void ReplicatedNode::CollectOwnedTail(std::vector<TailRecord>* tail) const {
  std::map<std::string, persistence::SessionImage> images;
  ReadDurableDir(
      [&](const std::string& session_id) {
        return group_->PrimaryOf(session_id) == options_.id;
      },
      &images, tail);
  // Uncommitted inputs that were consolidated into a snapshot by a
  // previous life no longer exist as journal records, but a follower
  // that missed their original shipment still needs them — a replayed
  // outcome's ack is only as good as the input prefix shipped before it.
  // SessionImage::pending holds those messages verbatim (recovery
  // replays from them), so input records synthesized here are exact.
  const size_t from_segments = tail->size();
  for (const auto& [session_id, image] : images) {
    const size_t count = image.pending.size();
    for (size_t j = 1; j <= count; ++j) {
      persistence::JournalRecord record;
      record.type = persistence::JournalRecord::Type::kInput;
      record.session_id = session_id;
      // pending holds the messages at seqs [next_seq - n, next_seq).
      record.seq = image.next_seq - count + (j - 1);
      record.payload = image.pending.Message(j);
      // priority/deadline stay at defaults: they steer live admission,
      // never replay. A segment copy of the same seq may coexist;
      // follower recovery keeps the first and counts a duplicate.
      tail->push_back({std::move(record), /*shard=*/0, /*segment_n=*/0});
    }
  }
  // Both halves are in (session, seq) order; the merge is stable, so a
  // segment copy stays ahead of its synthesized twin.
  std::inplace_merge(tail->begin(), tail->begin() + from_segments,
                     tail->end(), BySessionSeq);
}

void ReplicatedNode::ReplicateRecoveredState(
    const std::vector<TailRecord>& tail) {
  for (const TailRecord& entry : tail) {
    // Fire-and-forget: the links buffer and retransmit until acked.
    // Client-acked outcomes in the tail are already quorum-durable
    // (that is what their barrier proved); everything else has an
    // ambiguous client, so durability convergence is all that is owed.
    replicator_->ShipRecord(entry.record, entry.shard, entry.segment_n);
  }
  // Replayed outcomes were recomputed — no outcome record exists on any
  // disk. Re-emitting one without quorum durability would let a later
  // heir (which cannot see it) re-run the session and deliver again, so
  // each re-emission pays the same ack barrier as a live commit first.
  // A failed barrier withholds the re-emission: legal, because a crash
  // fails every in-flight callback, leaving those clients ambiguous.
  // One failure mode is new here: if this node was deposed while it was
  // down, its stale-epoch re-ships are fenced by the followers and the
  // barrier fails fast — the withheld outcomes belong to the heir now.
  std::vector<persistence::ReplayedOutcome> deliverable;
  deliverable.reserve(replayed_.size());
  suppressed_reemissions_ = 0;
  for (persistence::ReplayedOutcome& outcome : replayed_) {
    persistence::JournalRecord record;
    record.type = persistence::JournalRecord::Type::kOutcome;
    record.session_id = outcome.session_id;
    record.seq = outcome.seq;
    record.status_code = static_cast<uint8_t>(outcome.status.code());
    if (outcome.status.ok()) record.payload = outcome.output;
    // The record belongs to no local segment (it was recomputed, not
    // read), so pin it to segment 0: MinUnackedSegment only ever
    // over-retains, and the pin clears with the ack.
    if (replicator_->ShipOutcomeAndWait(record, /*shard=*/0, /*segment_n=*/0)
            .ok()) {
      deliverable.push_back(std::move(outcome));
    } else {
      ++suppressed_reemissions_;
    }
  }
  replayed_ = std::move(deliverable);
}

void ReplicatedNode::Teardown(bool crash) {
  // The runtime references the replicator through its options; it dies
  // first. A runtime_snapshot() holder may outlive the reset — the
  // runtime it holds is already shut down and self-contained.
  runtime_.reset();
  replicator_.reset();
  applier_.reset();
  if (!crash) replayed_.clear();
  running_.store(false, std::memory_order_release);
}

void ReplicatedNode::Kill() {
  std::unique_lock<std::shared_mutex> lock(life_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  // Crash choreography: storage dies first (in-flight appends tear and
  // nothing more persists), the wire is cut (no deliveries in or out,
  // Unbind waits out the one in flight), barrier waiters wake with
  // failure, and only then is the runtime drained and destroyed. What
  // the callbacks report during the drain is what a client of a crashed
  // node sees: errors, never acks.
  injector_->KillStorageAfter(0);
  transport_->Isolate(options_.id);
  transport_->Unbind(options_.id);
  replicator_->Abort();
  runtime_->Shutdown();
  Teardown(/*crash=*/true);
}

void ReplicatedNode::Stop() {
  std::unique_lock<std::shared_mutex> lock(life_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  // Clean shutdown: drain with the wire still up, so outstanding ack
  // barriers resolve normally before the node leaves.
  runtime_->Shutdown();
  transport_->Unbind(options_.id);
  Teardown(/*crash=*/false);
}

core::Status ReplicatedNode::Promote(const std::string& dead) {
  core::Status status;
  {
    std::unique_lock<std::shared_mutex> lock(life_mu_);
    // The operator's override outranks the deposed primary exactly like
    // a won election does: one epoch past everything this node has seen.
    status = PromoteLocked(dead, fence_.current() + 1);
  }
  if (status.ok() && options_.on_life_started) {
    options_.on_life_started(options_.id);
  }
  return status;
}

core::Status ReplicatedNode::PromoteWithEpoch(const std::string& dead,
                                              uint64_t epoch) {
  core::Status status;
  {
    std::unique_lock<std::shared_mutex> lock(life_mu_);
    status = PromoteLocked(dead, epoch);
  }
  if (status.ok() && options_.on_life_started) {
    options_.on_life_started(options_.id);
  }
  return status;
}

core::Status ReplicatedNode::PromoteLocked(const std::string& dead,
                                           uint64_t epoch) {
  if (!running_.load(std::memory_order_acquire)) {
    return core::Status::Error(core::RunError::kShutdown,
                               "promote: node not running");
  }
  // Quiesce this life: finish local work, leave the wire (retransmission
  // covers the gap), drop the replication stack.
  runtime_->Shutdown();
  transport_->Unbind(options_.id);
  replicator_->Abort();
  Teardown(/*crash=*/false);
  // The epoch bump is what fences the deposed primary: its in-flight and
  // restart-re-shipped traffic is stamped below `epoch`, so every
  // follower (this node's next life included) rejects it. Adopt before
  // taking ownership — from the first shipment of the new life onward,
  // the stamp must already outrank the old primary's.
  fence_.Adopt(epoch);
  // Take ownership *before* the next life recovers, so the re-emission
  // filter sees the dead node's sessions as ours.
  group_->Promote(dead, options_.id);
  counters_.Add(rt::Counter::kPromotions);
  return StartLife();
}

void ReplicatedNode::ServeCatchup(const std::string& requester) {
  if (replicator_ == nullptr) return;
  // Demote the requester's link out of the ack quorum first: from here
  // to graduation its acks prove only link progress, not history
  // coverage. Then pin GC so the segments read below stay on disk.
  replicator_->BeginCatchup(requester);
  replicator_->PinCatchup();

  // Everything the requester should follow: sessions this node owns
  // whose follower set (under the current overrides) includes it. The
  // snapshot images carry consolidated state (pending buffers verbatim
  // — recovery replays from them); the journal tail covers what was
  // appended since. Extra overlap is harmless: follower recovery merges
  // images by next_seq and dedups records by seq.
  persistence::SnapshotData bootstrap;
  bootstrap.header.incarnation = incarnation_;
  bootstrap.header.shard = 0;
  bootstrap.header.service_fingerprint = persistence::SwsFingerprint(*sws_);
  std::map<std::string, persistence::SessionImage> images;
  std::vector<TailRecord> tail;
  ReadDurableDir(
      [&](const std::string& session_id) {
        if (group_->PrimaryOf(session_id) != options_.id) return false;
        const std::vector<std::string> followers =
            group_->FollowersOf(session_id, options_.replication.replicas);
        return std::find(followers.begin(), followers.end(), requester) !=
               followers.end();
      },
      &images, &tail);
  for (auto& [session_id, image] : images) {
    bootstrap.sessions.push_back(std::move(image));
  }

  // The snapshot ships even when empty: its arrival is what tells the
  // joiner this source has answered (NoteCatchupServed), and its link
  // position anchors the graduation fence.
  std::string payload;
  persistence::EncodeSnapshotPayload(bootstrap, &payload);
  counters_.Add(rt::Counter::kCatchupBytesShipped, payload.size());
  replicator_->ShipSnapshotTo(requester, std::move(payload));
  for (const TailRecord& entry : tail) {
    replicator_->ShipRecordTo(requester, entry.record, entry.shard,
                              entry.segment_n);
  }
  replicator_->FinishCatchupServe(requester);
  replicator_->UnpinCatchup();
}

void ReplicatedNode::OnMessage(const Message& message) {
  if (coordinator_ != nullptr) coordinator_->NoteAlive(From(message));
  if (const auto* shipment = std::get_if<Shipment>(&message)) {
    if (shipment->snapshot && replicator_ != nullptr) {
      // The bootstrap answer to our catch-up request — stop re-asking
      // this source. (The applier below is what durably absorbs it.)
      replicator_->NoteCatchupServed(shipment->from);
    }
    if (applier_ != nullptr) applier_->OnShipment(*shipment);
  } else if (const auto* ack = std::get_if<Ack>(&message)) {
    if (replicator_ != nullptr) replicator_->OnAck(*ack);
  } else if (const auto* heartbeat = std::get_if<Heartbeat>(&message)) {
    // News travels on every message: a heartbeat can be the first
    // carrier of a promotion this node missed.
    fence_.Adopt(heartbeat->epoch);
  } else if (const auto* request = std::get_if<VoteRequest>(&message)) {
    if (coordinator_ != nullptr) coordinator_->OnVoteRequest(*request);
  } else if (const auto* grant = std::get_if<VoteGrant>(&message)) {
    if (coordinator_ != nullptr) coordinator_->OnVoteGrant(*grant);
  } else if (const auto* catchup = std::get_if<CatchupRequest>(&message)) {
    // A refreshed joiner may know a newer epoch than we do (it heard the
    // promotion first).
    fence_.Adopt(catchup->epoch);
    // Serving on the delivery thread is deliberate: DeliveryLoop releases
    // the transport lock around endpoint calls, and the serve never takes
    // the node's lifecycle lock, so Kill/Unbind can always drain it.
    ServeCatchup(catchup->from);
  }
}

std::string ChoosePromotionCandidate(
    const std::vector<ReplicatedNode*>& candidates, const core::Sws* sws,
    const rel::Database& seed_db) {
  std::string best;
  uint64_t best_total = 0;
  for (ReplicatedNode* node : candidates) {
    if (node == nullptr) continue;
    persistence::RecoveryOptions options;
    options.verify_replay_outputs = false;  // caught-up-ness only
    persistence::RecoveryManager manager(node->options().dir, sws, seed_db,
                                         options, nullptr);
    persistence::RecoveryResult result = manager.Inspect();
    uint64_t total = 0;
    for (const auto& [session_id, image] : result.sessions) {
      total += image.next_seq;
    }
    if (best.empty() || total > best_total ||
        (total == best_total && node->id() < best)) {
      best = node->id();
      best_total = total;
    }
  }
  return best;
}

}  // namespace sws::replication
