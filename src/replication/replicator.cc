#include "replication/replicator.h"

#include <algorithm>

#include "persistence/journal.h"
#include "sws/fault.h"  // SplitMix64

namespace sws::replication {

Replicator::Replicator(std::string node_id, const ReplicaGroup* group,
                       ReplicationOptions options,
                       ReplicationTransport* transport, uint64_t incarnation,
                       FencingEpoch* fence, rt::Counters* counters)
    : node_id_(std::move(node_id)),
      group_(group),
      options_(options),
      transport_(transport),
      incarnation_(incarnation),
      fence_(fence),
      counters_(counters),
      background_([this] { BackgroundLoop(); }) {}

Replicator::~Replicator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    aborted_ = true;
  }
  ack_cv_.notify_all();
  background_.join();
}

uint64_t Replicator::BufferLocked(const std::string& dest,
                                  const std::string& session_id,
                                  const std::string& frame, uint64_t shard,
                                  uint64_t segment_n, bool snapshot,
                                  std::vector<Shipment>* to_send) {
  Link& link = links_[dest];
  Shipment shipment;
  shipment.from = node_id_;
  shipment.to = dest;
  shipment.source_incarnation = incarnation_;
  shipment.link_seq = link.next_link_seq++;
  shipment.first_unacked = link.acked + 1;
  shipment.epoch = CurrentEpoch();
  shipment.shard = shard;
  shipment.segment_n = segment_n;
  shipment.session_id = session_id;
  shipment.snapshot = snapshot;
  shipment.frame = frame;
  link.unacked.push_back(shipment);
  link.last_send = std::chrono::steady_clock::now();
  if (counters_ != nullptr) {
    counters_->Max(rt::Counter::kFollowerLagHwm, link.unacked.size());
  }
  to_send->push_back(std::move(shipment));
  return link.next_link_seq - 1;
}

void Replicator::NoteSegmentLocked(uint64_t shard, uint64_t segment_n) {
  auto it = last_segment_.find(shard);
  if (it == last_segment_.end() || it->second != segment_n) {
    last_segment_[shard] = segment_n;
    if (counters_ != nullptr) counters_->Add(rt::Counter::kSegmentsShipped);
  }
}

void Replicator::ShipRecord(const persistence::JournalRecord& record,
                            uint64_t shard, uint64_t segment_n) {
  const std::vector<std::string> followers =
      group_->FollowersOf(record.session_id, options_.replicas);
  if (followers.empty()) return;
  const std::string frame = persistence::EncodeRecordFrame(record);
  std::vector<Shipment> to_send;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (aborted_ || fenced_) return;
    NoteSegmentLocked(shard, segment_n);
    for (const std::string& dest : followers) {
      if (dest == node_id_) continue;
      BufferLocked(dest, record.session_id, frame, shard, segment_n,
                   /*snapshot=*/false, &to_send);
    }
  }
  for (Shipment& s : to_send) transport_->Send(std::move(s));
}

void Replicator::ShipRecordTo(const std::string& dest,
                              const persistence::JournalRecord& record,
                              uint64_t shard, uint64_t segment_n) {
  if (dest == node_id_) return;
  const std::string frame = persistence::EncodeRecordFrame(record);
  std::vector<Shipment> to_send;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (aborted_ || fenced_) return;
    NoteSegmentLocked(shard, segment_n);
    BufferLocked(dest, record.session_id, frame, shard, segment_n,
                 /*snapshot=*/false, &to_send);
  }
  for (Shipment& s : to_send) transport_->Send(std::move(s));
}

void Replicator::ShipSnapshotTo(const std::string& dest, std::string payload) {
  if (dest == node_id_) return;
  std::vector<Shipment> to_send;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (aborted_ || fenced_) return;
    // shard/segment 0: the payload was just encoded from disk state the
    // catch-up pin already retains, so the per-shipment pin is moot.
    BufferLocked(dest, /*session_id=*/"", payload, /*shard=*/0,
                 /*segment_n=*/0, /*snapshot=*/true, &to_send);
  }
  for (Shipment& s : to_send) transport_->Send(std::move(s));
}

core::Status Replicator::ShipOutcomeAndWait(
    const persistence::JournalRecord& record, uint64_t shard,
    uint64_t segment_n) {
  const std::vector<std::string> followers =
      group_->FollowersOf(record.session_id, options_.replicas);
  std::vector<std::pair<std::string, uint64_t>> targets;  // dest -> link_seq
  std::vector<Shipment> to_send;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (aborted_ || fenced_) {
      return core::Status::Error(core::RunError::kShutdown,
                                 fenced_ ? "replicator fenced (deposed)"
                                         : "replicator aborted");
    }
    NoteSegmentLocked(shard, segment_n);
    const std::string frame = persistence::EncodeRecordFrame(record);
    for (const std::string& dest : followers) {
      if (dest == node_id_) continue;
      targets.emplace_back(dest,
                           BufferLocked(dest, record.session_id, frame, shard,
                                        segment_n, /*snapshot=*/false,
                                        &to_send));
    }
  }
  for (Shipment& s : to_send) transport_->Send(std::move(s));

  // The barrier: quorum of the session's followers must cover the
  // outcome's link position. A group smaller than replicas+1 caps the
  // quorum at what exists (a 1-node "group" degenerates to local-only).
  const size_t quorum = std::min(options_.resolved_quorum(), targets.size());
  if (quorum == 0) return core::Status::Ok();

  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() + options_.ack_timeout;
  bool satisfied = false;
  bool impossible = false;
  ack_cv_.wait_until(lock, deadline, [&] {
    if (aborted_) return true;
    size_t acked = 0;
    size_t possible = 0;
    for (const auto& [dest, seq] : targets) {
      auto it = links_.find(dest);
      if (it == links_.end()) continue;
      const Link& link = it->second;
      // "Possible": the follower already covers seq, or the shipment is
      // still buffered for retransmission. A fenced link (buffers
      // dropped) makes the barrier fail fast instead of timing out.
      if (link.acked >= seq ||
          (!link.unacked.empty() && link.unacked.front().link_seq <= seq &&
           seq <= link.unacked.back().link_seq)) {
        ++possible;
      }
      // Only caught-up followers vouch for the quorum: a joiner that is
      // missing the prefix must not certify the suffix (DESIGN.md §13).
      if (link.caught_up && link.acked >= seq) ++acked;
    }
    satisfied = acked >= quorum;
    impossible = possible < quorum;
    return satisfied || impossible;
  });
  if (aborted_) {
    return core::Status::Error(core::RunError::kShutdown,
                               "replicator aborted");
  }
  if (!satisfied) {
    return core::Status::Error(
        core::RunError::kReplicationTimeout,
        impossible ? "follower ack quorum unreachable (link fenced)"
                   : "follower ack quorum not reached in time");
  }
  return core::Status::Ok();
}

uint64_t Replicator::MinUnackedSegment(uint64_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  // A catch-up serve in flight reads arbitrary old segments from disk:
  // pin the whole journal until it completes.
  if (catchup_pins_ > 0) return 0;
  uint64_t min_segment = persistence::ShardDurability::kNoSegmentPin;
  for (const auto& [dest, link] : links_) {
    for (const Shipment& s : link.unacked) {
      if (s.shard == shard) {
        min_segment = std::min(min_segment, s.segment_n);
        break;  // unacked is link_seq-ordered; ship order follows journal order per shard
      }
    }
  }
  return min_segment;
}

bool Replicator::fenced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fenced_;
}

void Replicator::MaybeAdoptEpoch(uint64_t epoch) {
  if (fence_ == nullptr) return;
  if (epoch > fence_->current()) fence_->Adopt(epoch);
  ReconcileEpoch();
}

void Replicator::ReconcileEpoch() {
  if (fence_ == nullptr) return;
  const uint64_t current = fence_->current();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fenced_ || reconciled_epoch_ >= current) return;
  }
  // The group moved on without us. If our arcs now resolve elsewhere, a
  // quorum promoted an heir over our sessions: everything still buffered
  // is stale history the followers will reject — drop it and stop
  // shipping, failing pending barriers fast (the node restarts this
  // life as a follower). Otherwise the promotion deposed someone else;
  // restamp the buffers so retransmissions carry the new epoch. The
  // group probe runs outside mu_ (lock order) and at most once per
  // epoch, gated by reconciled_epoch_.
  const bool deposed = group_->IsDeposed(node_id_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fenced_ || reconciled_epoch_ >= current) return;
    reconciled_epoch_ = current;
    if (deposed) {
      fenced_ = true;
      for (auto& [dest, link] : links_) link.unacked.clear();
    } else {
      for (auto& [dest, link] : links_) {
        for (Shipment& s : link.unacked) s.epoch = current;
      }
    }
  }
  ack_cv_.notify_all();
}

void Replicator::OnAck(const Ack& ack) {
  MaybeAdoptEpoch(ack.epoch);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ack.source_incarnation != incarnation_) return;  // a past life's ack
    auto it = links_.find(ack.from);
    if (it == links_.end()) return;
    Link& link = it->second;
    if (ack.acked_link_seq <= link.acked) return;  // duplicate / out of order
    // An ack past the last link_seq shipped vouches for records that do
    // not exist; counting it would let a barrier pass with no follower
    // holding the outcome.
    if (ack.acked_link_seq >= link.next_link_seq) return;
    link.acked = ack.acked_link_seq;
    while (!link.unacked.empty() &&
           link.unacked.front().link_seq <= link.acked) {
      link.unacked.pop_front();
    }
    if (!link.caught_up && link.catchup_fence != 0 &&
        link.acked >= link.catchup_fence) {
      link.caught_up = true;  // the joiner graduated into the quorum
    }
  }
  ack_cv_.notify_all();
}

void Replicator::BeginCatchup(const std::string& dest) {
  std::lock_guard<std::mutex> lock(mu_);
  Link& link = links_[dest];
  link.caught_up = false;
  link.catchup_fence = 0;
}

void Replicator::FinishCatchupServe(const std::string& dest) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Link& link = links_[dest];
    link.catchup_fence = link.next_link_seq - 1;
    if (link.acked >= link.catchup_fence) link.caught_up = true;
  }
  ack_cv_.notify_all();
}

void Replicator::PinCatchup() {
  std::lock_guard<std::mutex> lock(mu_);
  ++catchup_pins_;
}

void Replicator::UnpinCatchup() {
  std::lock_guard<std::mutex> lock(mu_);
  --catchup_pins_;
}

void Replicator::RequestCatchup(const std::vector<std::string>& sources) {
  const uint64_t epoch = CurrentEpoch();
  std::vector<std::string> to_ask;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& source : sources) {
      if (source == node_id_) continue;
      if (pending_catchup_.insert(source).second) to_ask.push_back(source);
    }
    last_catchup_send_ = std::chrono::steady_clock::now();
  }
  for (const std::string& source : to_ask) {
    transport_->Send(CatchupRequest{node_id_, source, epoch});
  }
}

void Replicator::NoteCatchupServed(const std::string& source) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_catchup_.erase(source);
  }
  ack_cv_.notify_all();
}

void Replicator::CancelCatchup(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  // A suspected-dead source can never serve; its sessions will be served
  // by whichever heir inherits them (still pending under its own name).
  pending_catchup_.erase(source);
}

size_t Replicator::pending_catchup_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_catchup_.size();
}

void Replicator::Abort() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
  }
  ack_cv_.notify_all();
}

void Replicator::BackgroundLoop() {
  // Deterministic per-node jitter stream (heartbeat_jitter): probes must
  // de-synchronize across the group without losing seed reproducibility.
  uint64_t jitter_seed = 0xcbf29ce484222325ULL;
  for (unsigned char c : node_id_) {
    jitter_seed = (jitter_seed ^ c) * 0x100000001b3ULL;
  }
  uint64_t draws = 0;
  const auto jittered_heartbeat = [&]() -> std::chrono::nanoseconds {
    const std::chrono::nanoseconds base = options_.heartbeat_interval;
    if (options_.heartbeat_jitter <= 0.0) return base;
    const uint64_t draw = core::SplitMix64(jitter_seed ^ ++draws);
    const double frac = (draw % 4096) / 4096.0 * 2.0 - 1.0;  // [-1, 1)
    const auto delta = std::chrono::duration_cast<std::chrono::nanoseconds>(
        base * options_.heartbeat_jitter * frac);
    return base + delta;  // positive: |delta| < base since jitter < 1
  };

  const bool heartbeats = options_.heartbeat_interval.count() > 0;
  auto tick = std::chrono::nanoseconds(options_.retransmit_interval);
  if (heartbeats) {
    tick = std::min(tick,
                    std::chrono::nanoseconds(options_.heartbeat_interval));
  }
  std::unique_lock<std::mutex> lock(mu_);
  auto next_heartbeat = std::chrono::steady_clock::now() + tick;
  while (!stop_) {
    // Wake for the next beat itself, not the first tick after it: a beat
    // due just past a tick would otherwise wait out a whole extra tick,
    // and gaps between beats would reach twice the interval. (An aborted
    // replicator sends no beats, so its past-due one must not wake it.)
    auto wake = std::chrono::steady_clock::now() + tick;
    if (heartbeats && !aborted_) wake = std::min(wake, next_heartbeat);
    ack_cv_.wait_until(lock, wake);
    if (stop_ || aborted_) {
      if (stop_) return;
      // Aborted but not destroyed: idle until destruction.
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    const uint64_t epoch = CurrentEpoch();
    if (fence_ != nullptr && !fenced_ && reconciled_epoch_ < epoch) {
      // The fence moved without an ack (an epoch the node adopted from a
      // heartbeat, shipment or catch-up request, or a local promotion).
      // Reconcile before retransmitting: a deposed node must never
      // restamp its stale tail with the new epoch — followers would
      // accept it (see class comment).
      lock.unlock();
      ReconcileEpoch();
      lock.lock();
      continue;
    }
    std::vector<Shipment> to_send;
    if (!fenced_) {
      for (auto& [dest, link] : links_) {
        if (link.unacked.empty()) continue;
        if (now - link.last_send < options_.retransmit_interval) continue;
        link.last_send = now;
        for (Shipment& s : link.unacked) {
          // Refresh the resync hint to the current cumulative ack: a
          // follower that lost its link state fast-forwards past what it
          // acknowledged in a previous life (those records are in its
          // journal) instead of deadlocking on seqs we no longer retain.
          s.first_unacked = link.acked + 1;
          s.epoch = epoch;  // retransmissions carry the newest epoch
          to_send.push_back(s);
        }
      }
    }
    std::vector<std::string> beat_peers;
    if (heartbeats && now >= next_heartbeat) {
      next_heartbeat = now + jittered_heartbeat();
      for (const std::string& peer : group_->nodes()) {
        if (peer != node_id_) beat_peers.push_back(peer);
      }
    }
    std::vector<std::string> catchup_peers;
    if (!pending_catchup_.empty() &&
        now - last_catchup_send_ >= options_.ack_timeout) {
      last_catchup_send_ = now;
      catchup_peers.assign(pending_catchup_.begin(), pending_catchup_.end());
    }
    lock.unlock();
    for (Shipment& s : to_send) transport_->Send(std::move(s));
    for (const std::string& peer : beat_peers) {
      transport_->Send(Heartbeat{node_id_, peer, incarnation_, epoch});
    }
    for (const std::string& peer : catchup_peers) {
      transport_->Send(CatchupRequest{node_id_, peer, epoch});
    }
    lock.lock();
  }
}

}  // namespace sws::replication
