#include "runtime/session_shard.h"

#include <utility>

#include "util/common.h"

namespace sws::rt {

SessionShard::SessionShard(size_t shard_index, const Config* config,
                           persistence::ShardDurability* durability)
    : shard_index_(shard_index), config_(config), durability_(durability) {
  SWS_CHECK(config != nullptr);
  SWS_CHECK(config->sws != nullptr);
  SWS_CHECK(config->initial_db != nullptr);
}

void SessionShard::InstallSession(const std::string& session_id,
                                  core::SessionRunner runner,
                                  uint64_t next_seq) {
  auto [it, inserted] = sessions_.try_emplace(
      session_id, SessionState{std::move(runner),
                               CircuitBreaker(config_->circuit_breaker),
                               next_seq});
  SWS_CHECK(inserted) << "session installed twice: " << session_id;
  num_sessions_.fetch_add(1, std::memory_order_relaxed);
}

bool SessionShard::Enqueue(Envelope envelope) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(std::move(envelope));
  if (scheduled_) return false;
  scheduled_ = true;
  return true;
}

void SessionShard::Drain(RuntimeStats* stats,
                         const std::function<void()>& on_done) {
  for (;;) {
    Envelope envelope;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) {
        scheduled_ = false;
        return;
      }
      envelope = std::move(queue_.front());
      queue_.pop_front();
    }
    // Fault injection at the scheduling layer: a stall holds this
    // shard's drain role (backing up its sessions) without touching any
    // other shard. Null injector = disabled (a single branch). Under
    // governance the stall sleeps interruptibly against the runtime's
    // root governor, so shutdown/watchdog cancellation is not blocked
    // behind an injected stall.
    if (config_->run_options.fault_injector) {
      config_->run_options.fault_injector->OnDrainStep(config_->root_governor);
    }
    Process(std::move(envelope), stats);
    if (durability_ != nullptr && durability_->ShouldSnapshot()) {
      MaybeSnapshot(stats);
    }
    stats->OnCompleted();
    if (on_done) on_done();
  }
}

void SessionShard::Process(Envelope envelope, RuntimeStats* stats) {
  const auto now = std::chrono::steady_clock::now();
  if (now > envelope.deadline) {
    stats->OnDeadlineExceeded();
    if (envelope.callback) {
      envelope.callback(
          Outcome{core::Status::Error(core::RunError::kDeadlineExceeded,
                                      "expired while queued"),
                  std::move(envelope.session_id), std::nullopt, 0});
    }
    return;
  }

  const bool is_delimiter = core::SessionRunner::IsDelimiter(envelope.message);

  core::RunOptions run_options = config_->run_options;
  run_options.deadline = envelope.deadline;

  // Graceful degradation under memory pressure (watchdog-driven): level
  // ≥1 stops new runs from building memo caches (level 2 sheds low
  // priority at admission). Shaping only *new* runs suffices because the
  // memo is per-run and released at the end of Execute.
  if (is_delimiter && config_->pressure_level != nullptr &&
      config_->pressure_level->load(std::memory_order_relaxed) >= 1) {
    run_options.memoize = false;
  }

  // Governed runtimes give each delimiter run its own governor, parented
  // to the runtime root (so steps/bytes roll up globally) and published
  // in the in-flight slot so the watchdog can cancel an overrunning run
  // from outside the strand. The slot is published before any further
  // per-envelope work (hook, breaker, journal, feed) so the watchdog
  // covers the whole service window, and cleared on every exit path.
  std::shared_ptr<core::ExecutionGovernor> governor;
  if (is_delimiter && config_->root_governor != nullptr) {
    core::ExecutionGovernor::Limits limits;
    limits.deadline = envelope.deadline;
    limits.max_eval_steps = run_options.max_eval_steps;
    limits.max_tracked_bytes = run_options.max_tracked_bytes;
    governor = std::make_shared<core::ExecutionGovernor>(
        limits, config_->root_governor);
    run_options.governor = governor.get();
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_ = InFlightRun{governor, now, envelope.deadline};
  }
  struct InFlightClear {
    SessionShard* shard;
    ~InFlightClear() {
      if (shard == nullptr) return;
      std::lock_guard<std::mutex> lock(shard->inflight_mu_);
      shard->inflight_.reset();
    }
  } inflight_clear{governor == nullptr ? nullptr : this};

  if (config_->before_process_hook) {
    config_->before_process_hook(envelope.session_id);
  }

  // Look the session up before building a runner: try_emplace would
  // construct (and discard) a runner over the seed on every envelope.
  auto it = sessions_.find(envelope.session_id);
  if (it == sessions_.end()) {
    SessionState fresh{core::SessionRunner(config_->sws, *config_->initial_db),
                       CircuitBreaker(config_->circuit_breaker)};
    it = sessions_.try_emplace(envelope.session_id, std::move(fresh)).first;
    num_sessions_.fetch_add(1, std::memory_order_relaxed);
  }
  SessionState& session = it->second;

  // Fast-fail a session whose runs keep tripping: while the breaker is
  // open, the session's stream is shed without running — buffered input
  // is discarded (nothing was committed) and only delimiters report, so
  // the callback contract stays "one outcome per delimiter".
  if (session.breaker.OnRequest(now) == CircuitBreaker::State::kOpen) {
    // The discard changes what replay must reproduce, so it is journaled
    // first (WAL discipline). The discard is applied iff the record
    // persisted — a persisted-but-unsynced marker will still be replayed
    // after a process crash, so disk and memory agree either way; only
    // when no record reached the disk is the buffer kept (discard
    // deferred).
    if (durability_ != nullptr && session.runner.buffered() > 0) {
      persistence::JournalRecord discard;
      discard.type = persistence::JournalRecord::Type::kDiscard;
      discard.session_id = envelope.session_id;
      discard.seq = session.next_seq;
      persistence::AppendResult journaled = durability_->AppendDiscard(discard);
      if (!journaled.ok()) stats->OnStorageFailure();
      if (!journaled.persisted) {
        if (!is_delimiter) return;
        if (envelope.callback) {
          envelope.callback(Outcome{std::move(journaled.status),
                                    std::move(envelope.session_id),
                                    std::nullopt, 0});
        }
        return;
      }
      stats->OnJournalAppends(1);
      // A discard changes what replay reproduces, so followers must see
      // it too (same order as the primary's journal).
      if (config_->replication != nullptr) {
        config_->replication->ShipRecord(discard, shard_index_,
                                         durability_->current_segment_n());
      }
    }
    session.runner.DiscardPending();
    if (!is_delimiter) return;
    stats->OnCircuitOpen();
    if (envelope.callback) {
      envelope.callback(
          Outcome{core::Status::Error(core::RunError::kCircuitOpen,
                                      "session circuit breaker is open"),
                  std::move(envelope.session_id), std::nullopt, 0});
    }
    return;
  }

  // Write-ahead: the input is journaled before it is fed, and the
  // feed/no-feed decision follows `persisted` exactly — the journal and
  // the live session must agree on the consumed-input sequence, which is
  // what makes replay exact. When no record reached the disk the message
  // is dropped un-fed (the callback reports it, the client may resubmit)
  // and its seq is safely reissued. When the record persisted but its
  // fsync failed, the message is still fed and the seq still advances:
  // recovery after a process crash WILL replay that record, so dropping
  // the message (or reusing its seq for a different payload) would fork
  // the journal from the live run. Only OS-crash durability of that one
  // record is forfeit; the failure is counted and the poisoned segment
  // rotates away at the next append.
  uint64_t seq = 0;
  if (durability_ != nullptr) {
    persistence::JournalRecord input;
    input.type = persistence::JournalRecord::Type::kInput;
    input.session_id = envelope.session_id;
    input.seq = session.next_seq;
    input.priority = static_cast<uint8_t>(envelope.priority);
    input.deadline_ns =
        envelope.deadline == std::chrono::steady_clock::time_point::max()
            ? -1
            : std::chrono::duration_cast<std::chrono::nanoseconds>(
                  envelope.deadline - now)
                  .count();
    input.payload = envelope.message;
    persistence::AppendResult journaled = durability_->AppendInput(input);
    if (!journaled.ok()) stats->OnStorageFailure();
    if (!journaled.persisted) {
      session.breaker.OnRunFailure(std::chrono::steady_clock::now());
      if (envelope.callback) {
        envelope.callback(Outcome{std::move(journaled.status),
                                  std::move(envelope.session_id),
                                  std::nullopt, 0});
      }
      return;
    }
    stats->OnJournalAppends(1);
    seq = session.next_seq++;
    // Ship the persisted input to the session's followers (async; the
    // quorum is only awaited at the delimiter's ack barrier below).
    if (config_->replication != nullptr) {
      config_->replication->ShipRecord(input, shard_index_,
                                       durability_->current_segment_n());
    }
  }

  const auto run_start = std::chrono::steady_clock::now();
  std::optional<core::SessionRunner::SessionOutcome> outcome =
      session.runner.Feed(std::move(envelope.message), run_options);

  if (!is_delimiter) return;  // buffered; nothing ran, nothing to report

  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - run_start);
  stats->RecordRunLatency(shard_index_,
                          static_cast<uint64_t>(elapsed.count()));
  SWS_CHECK(outcome.has_value());
  stats->OnEvictions(outcome->memo_evictions);

  // The ack barrier: the outcome record must be durable before the
  // callback fires, so an acknowledged output is always recoverable (and
  // recovery can suppress its re-emission). Exactly-once is guaranteed
  // for *acknowledged* outputs; a delimiter whose append fails gets
  // kStorageFailure instead of its output, and which way recovery
  // resolves it depends on whether the record reached the disk:
  //  * no record persisted — recovery re-runs the session
  //    deterministically and emits the output exactly once (via
  //    RecoveryResult::replayed);
  //  * record persisted but its fsync failed — recovery sees the record
  //    and treats the seq as acknowledged, so the output is re-emitted
  //    by neither path. The client saw an error, never an ack, so this
  //    is the standard at-most-once resolution of a storage-ambiguous
  //    request, not an exactly-once violation.
  if (durability_ != nullptr) {
    persistence::JournalRecord record;
    record.type = persistence::JournalRecord::Type::kOutcome;
    record.session_id = envelope.session_id;
    record.seq = seq;
    record.status_code = static_cast<uint8_t>(outcome->status.code());
    if (outcome->status.ok()) record.payload = outcome->output;
    persistence::AppendResult journaled =
        durability_->AppendOutcomeAndAck(record);
    if (journaled.persisted) stats->OnJournalAppends(1);
    if (!journaled.ok()) {
      stats->OnStorageFailure();
      session.breaker.OnRunFailure(std::chrono::steady_clock::now());
      if (envelope.callback) {
        const uint32_t attempts = outcome->attempts;
        envelope.callback(Outcome{std::move(journaled.status),
                                  std::move(envelope.session_id),
                                  std::nullopt, attempts});
      }
      return;
    }
    // The replicated ack barrier (DESIGN.md §11): with replication on,
    // local durability alone does not earn the ack — the outcome must
    // also be durable on a quorum of the session's followers, or a
    // primary death after the ack could promote a follower that never
    // saw it (a lost acknowledged output). On timeout the ack is
    // withheld and the client sees kReplicationTimeout: the outcome is
    // committed locally, so recovery treats the seq as acknowledged —
    // the same at-most-once resolution as a failed outcome fsync above.
    if (config_->replication != nullptr) {
      core::Status replicated = config_->replication->ShipOutcomeAndWait(
          record, shard_index_, durability_->current_segment_n());
      if (replicated.ok()) {
        stats->OnReplicationAck();
      } else {
        stats->OnReplicationTimeout();
        session.breaker.OnRunFailure(std::chrono::steady_clock::now());
        if (envelope.callback) {
          const uint32_t attempts = outcome->attempts;
          envelope.callback(Outcome{std::move(replicated),
                                    std::move(envelope.session_id),
                                    std::nullopt, attempts});
        }
        return;
      }
    }
  }

  if (outcome->attempts > 1) stats->OnRetries(outcome->attempts - 1);
  if (!outcome->status.ok()) {
    session.breaker.OnRunFailure(std::chrono::steady_clock::now());
    switch (outcome->status.code()) {
      case core::RunError::kBudgetExceeded:
        stats->OnBudgetExceeded();
        break;
      case core::RunError::kInjectedFault:
        stats->OnInjectedFault();
        break;
      case core::RunError::kDeadlineExceeded:  // in-run, watchdog, or retry
        stats->OnDeadlineExceeded();
        break;
      case core::RunError::kFuelExhausted:  // eval-step / byte budget
        stats->OnFuelExhausted();
        break;
      default:
        SWS_CHECK(false) << "unexpected run error: "
                         << outcome->status.ToString();
    }
    const uint32_t attempts = outcome->attempts;
    if (envelope.callback) {
      envelope.callback(Outcome{outcome->status,
                                std::move(envelope.session_id), std::nullopt,
                                attempts});
    }
    return;
  }
  session.breaker.OnRunSuccess();
  stats->OnSessionClosed();
  stats->OnMemo(outcome->memo_hits, outcome->memo_misses);
  if (envelope.callback) {
    const uint32_t attempts = outcome->attempts;
    envelope.callback(Outcome{core::Status::Ok(),
                              std::move(envelope.session_id),
                              std::move(outcome), attempts});
  }
}

std::optional<SessionShard::InFlightRun> SessionShard::CurrentRun() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return inflight_;
}

void SessionShard::MaybeSnapshot(RuntimeStats* stats) {
  // Refresh the replication GC pin first: the snapshot's segment GC must
  // not reclaim a segment an unacknowledged shipment still references
  // (the follower's retransmit source) — see ShardDurability's pin.
  if (config_->replication != nullptr) {
    durability_->PinSegmentsFrom(
        config_->replication->MinUnackedSegment(shard_index_));
  }
  std::vector<persistence::SessionImage> images;
  images.reserve(sessions_.size());
  for (const auto& [session_id, state] : sessions_) {
    images.push_back(persistence::SessionImage{
        session_id, state.runner.db(), state.runner.pending(),
        state.next_seq});
  }
  core::Status status = durability_->WriteShardSnapshot(std::move(images));
  if (status.ok()) {
    stats->OnSnapshot();
  } else {
    stats->OnStorageFailure();
  }
}

}  // namespace sws::rt
