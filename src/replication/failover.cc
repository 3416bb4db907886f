#include "replication/failover.h"

#include <algorithm>
#include <utility>

#include "sws/fault.h"  // SplitMix64

namespace sws::replication {

FencingEpoch::FencingEpoch(std::string dir) : dir_(std::move(dir)) {}

core::Status FencingEpoch::Load() {
  std::lock_guard<std::mutex> lock(mu_);
  persistence::FencingState state;
  core::Status status = persistence::ReadFencingState(dir_, &state);
  if (!status.ok()) return status;
  epoch_.store(state.epoch, std::memory_order_release);
  last_vote_.store(state.last_vote_epoch, std::memory_order_release);
  return core::Status::Ok();
}

bool FencingEpoch::Adopt(uint64_t epoch) {
  // Most messages carry the epoch already adopted, and the epoch only
  // rises: that case needs no lock (a vote may hold it across a write).
  if (epoch <= epoch_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch <= epoch_.load(std::memory_order_relaxed)) return false;
  // Publish before persisting: rejects must use the new epoch even if
  // the disk is dead. Losing the write cannot regress safety (see class
  // comment), so the persist result is advisory here.
  epoch_.store(epoch, std::memory_order_release);
  persistence::FencingState state{epoch,
                                  last_vote_.load(std::memory_order_relaxed)};
  (void)persistence::WriteFencingState(dir_, state, nullptr);
  return true;
}

bool FencingEpoch::TryVote(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch <= last_vote_.load(std::memory_order_relaxed)) return false;
  persistence::FencingState state{epoch_.load(std::memory_order_relaxed),
                                  epoch};
  if (!persistence::WriteFencingState(dir_, state, nullptr).ok()) {
    return false;  // cannot durably promise: abstain
  }
  last_vote_.store(epoch, std::memory_order_release);
  return true;
}

FailoverCoordinator::FailoverCoordinator(
    std::string self, ReplicaGroup* group, ReplicationTransport* transport,
    FencingEpoch* fence, ReplicationOptions options,
    std::chrono::nanoseconds suspicion_timeout, FailoverHooks hooks,
    rt::Counters* counters)
    : self_(std::move(self)),
      group_(group),
      transport_(transport),
      fence_(fence),
      options_(options),
      suspicion_timeout_(suspicion_timeout),
      hooks_(std::move(hooks)),
      counters_(counters) {
  ResetClocks();
  worker_ = std::thread([this] { WorkerLoop(); });
}

FailoverCoordinator::~FailoverCoordinator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void FailoverCoordinator::NoteAlive(const std::string& peer) {
  if (peer == self_) return;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, added] = clocks_.try_emplace(peer);
    it->second.last_heard = std::chrono::steady_clock::now();
    // The worker's sleep covers only peers it could still report: a new
    // one, or one whose episode just ended, needs a fresh deadline.
    wake = added || std::exchange(it->second.reported, false);
    wake |= suspects_.erase(peer) > 0;
  }
  if (wake) cv_.notify_all();
}

void FailoverCoordinator::ResetClocks() {
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& peer : group_->nodes()) {
      if (peer != self_) clocks_[peer] = PeerClock{now, false};
    }
    suspects_.clear();
  }
  cv_.notify_all();
}

std::vector<std::string> FailoverCoordinator::ReportSilent(
    std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  auto wake = now;
  return ReportSilentLocked(now, &wake);
}

std::vector<std::string> FailoverCoordinator::ReportSilentLocked(
    std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point* wake) {
  std::vector<std::string> silent;
  for (auto& [peer, clock] : clocks_) {
    const auto due = clock.last_heard + suspicion_timeout_;
    if (now < due) {
      *wake = std::min(*wake, due);
      continue;
    }
    if (!clock.reported) {
      clock.reported = true;
      silent.push_back(peer);
    }
    // try_emplace keeps the retry schedule of entries already present.
    if (hooks_.promote && !group_->IsDeposed(peer)) {
      suspects_.try_emplace(peer, now);
    }
  }
  return silent;
}

bool FailoverCoordinator::PeerLooksDeadLocked(
    const std::string& peer, std::chrono::steady_clock::time_point now) const {
  auto it = clocks_.find(peer);
  if (it == clocks_.end()) return false;  // unknown: assume alive
  return now - it->second.last_heard >= suspicion_timeout_;
}

void FailoverCoordinator::OnVoteRequest(const VoteRequest& request) {
  bool grant = false;
  {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    // Grant iff the claim is ahead of everything we have adopted AND our
    // own clock agrees the suspect is silent — a voter on the suspect's
    // side of an asymmetric partition still hears it and refuses, which
    // is what keeps a live primary from being deposed by one confused
    // observer.
    grant = request.from != self_ && request.suspect != self_ &&
            request.epoch > fence_->current() &&
            PeerLooksDeadLocked(request.suspect, now);
  }
  // The vote itself must be durable before the grant leaves (TryVote
  // also enforces one vote per epoch, including votes this node cast as
  // a candidate).
  if (grant) grant = fence_->TryVote(request.epoch);
  if (grant) {
    std::lock_guard<std::mutex> lock(mu_);
    ++votes_granted_;
  }
  transport_->Send(VoteGrant{self_, request.from, request.epoch, grant});
}

void FailoverCoordinator::OnVoteGrant(const VoteGrant& grant) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!election_active_ || grant.epoch != election_epoch_) return;
    if (grant.granted) {
      ++grants_;
    } else {
      ++denials_;
    }
  }
  cv_.notify_all();
}

uint64_t FailoverCoordinator::elections_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return elections_;
}

uint64_t FailoverCoordinator::votes_granted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return votes_granted_;
}

std::string FailoverCoordinator::SuspectIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [peer, at] : suspects_) {
    if (!out.empty()) out += ",";
    out += peer;
  }
  return out;
}

void FailoverCoordinator::WorkerLoop() {
  // Per-node deterministic jitter stream for retry staggering: duelling
  // candidates (after a vote split) must not retry in lock-step.
  uint64_t jitter_seed = 0xcbf29ce484222325ULL;
  for (unsigned char c : self_) jitter_seed = (jitter_seed ^ c) * 0x100000001b3ULL;

  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const auto now = std::chrono::steady_clock::now();
    auto wake = now + std::chrono::hours(24);
    const std::vector<std::string> silent = ReportSilentLocked(now, &wake);
    if (!silent.empty()) {
      lock.unlock();
      if (hooks_.suspected) {
        for (const std::string& peer : silent) hooks_.suspected(peer);
      }
      lock.lock();
      continue;
    }
    // Pick the suspect whose retry time is soonest due.
    std::string dead;
    auto soonest = wake;
    for (const auto& [peer, at] : suspects_) {
      if (at < soonest) {
        soonest = at;
        dead = peer;
      }
    }
    if (dead.empty() || soonest > now) {
      cv_.wait_until(lock, soonest);
      continue;
    }

    const auto retry_at = [&] {
      const auto base = options_.election_timeout;
      const uint64_t draw = core::SplitMix64(jitter_seed ^ ++attempt_);
      const auto jitter = base * (draw % 512) / 1024;  // [0, base/2)
      return std::chrono::steady_clock::now() + base + jitter;
    };

    std::vector<std::string> exclude;
    for (const auto& [peer, at] : suspects_) {
      if (peer != dead) exclude.push_back(peer);
    }
    lock.unlock();

    // Candidacy checks, outside the lock (group/hooks take their own).
    bool run = true;
    if (group_->IsDeposed(dead)) {
      // Someone already promoted it away; nothing to heal.
      lock.lock();
      suspects_.erase(dead);
      continue;
    }
    if (group_->HeirOf(dead, exclude) != self_) run = false;  // not our job
    if (run && !hooks_.ready()) run = false;
    uint64_t target = 0;
    if (run) {
      // Campaign above everything we have adopted AND everything we have
      // voted at — a failed candidacy burns its epoch (our own durable
      // vote), so retrying at current+1 alone would self-veto forever.
      target = std::max(fence_->current(), fence_->last_vote()) + 1;
      // Cast our own (durable) vote first; failing means our disk is
      // dead — stand down this round.
      if (!fence_->TryVote(target)) run = false;
    }
    if (!run) {
      lock.lock();
      if (suspects_.count(dead)) suspects_[dead] = retry_at();
      continue;
    }

    const std::vector<std::string> peers = group_->nodes();
    lock.lock();
    election_active_ = true;
    election_epoch_ = target;
    grants_ = 1;  // our own vote
    denials_ = 0;
    ++elections_;
    const size_t majority = peers.size() / 2 + 1;
    lock.unlock();
    for (const std::string& peer : peers) {
      if (peer != self_) {
        transport_->Send(VoteRequest{self_, peer, target, dead});
      }
    }

    lock.lock();
    const auto deadline =
        std::chrono::steady_clock::now() + options_.election_timeout;
    cv_.wait_until(lock, deadline, [&] {
      return stop_ || grants_ >= majority ||
             denials_ > peers.size() - majority;
    });
    const bool won = grants_ >= majority;
    election_active_ = false;
    if (stop_) return;
    if (!won) {
      if (suspects_.count(dead)) suspects_[dead] = retry_at();
      continue;
    }
    // Final revalidation before committing: the suspect may have revived
    // after the votes were cast, and NoteAlive then dropped it (fencing
    // keeps even the lost race safe, but deposing a live primary for
    // nothing is churn worth avoiding).
    const bool still_dead = suspects_.count(dead) > 0;
    lock.unlock();
    bool promoted = false;
    if (still_dead && !group_->IsDeposed(dead)) {
      promoted = hooks_.promote(dead, target).ok();
      if (promoted && counters_ != nullptr) {
        counters_->Add(rt::Counter::kAutoPromotions);
      }
    }
    lock.lock();
    if (promoted || !still_dead) {
      suspects_.erase(dead);
    } else if (suspects_.count(dead)) {
      suspects_[dead] = retry_at();
    }
  }
}

}  // namespace sws::replication
