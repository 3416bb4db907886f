#include "runtime/runtime.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "persistence/serde.h"
#include "util/common.h"

namespace sws::rt {

namespace {

size_t ResolveWorkers(size_t requested) {
  if (requested != 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

core::Status ValidateRuntimeOptions(const RuntimeOptions& options) {
  using core::RunError;
  using core::Status;
  auto invalid = [](std::string message) {
    return Status::Error(RunError::kQueueRejected, std::move(message));
  };
  if (options.queue_capacity == 0) {
    return invalid("queue_capacity must be >= 1 (0 admits nothing)");
  }
  if (options.shed.low_occupancy <= 0.0 || options.shed.low_occupancy > 1.0 ||
      options.shed.normal_occupancy <= 0.0 ||
      options.shed.normal_occupancy > 1.0) {
    return invalid("shed occupancy fractions must be in (0, 1]");
  }
  if (options.shed.low_occupancy > options.shed.normal_occupancy) {
    return invalid(
        "shed.low_occupancy must not exceed shed.normal_occupancy "
        "(low priority is shed first)");
  }
  if (options.default_deadline.count() < 0) {
    return invalid("default_deadline must be >= 0 (0 = none)");
  }
  if (options.circuit_breaker.failure_threshold > 0 &&
      options.circuit_breaker.open_duration.count() <= 0) {
    return invalid(
        "circuit_breaker.open_duration must be > 0 when breaking is "
        "enabled");
  }
  if (options.run_options.max_nodes == 0) {
    return invalid("run_options.max_nodes must be >= 1 (0 aborts every run)");
  }
  const core::RetryPolicy& retry = options.run_options.retry;
  if (retry.max_attempts == 0) {
    return invalid("retry.max_attempts must be >= 1 (1 = no retry)");
  }
  if (retry.initial_backoff.count() < 0 ||
      retry.max_backoff < retry.initial_backoff) {
    return invalid(
        "retry backoffs must satisfy 0 <= initial_backoff <= max_backoff");
  }
  if (const core::FaultInjector* fi = options.run_options.fault_injector) {
    const core::FaultOptions& fo = fi->options();
    if (fo.fail_rate < 0 || fo.fail_rate > 1 || fo.delay_rate < 0 ||
        fo.delay_rate > 1 || fo.stall_rate < 0 || fo.stall_rate > 1 ||
        fo.torn_write_rate < 0 || fo.torn_write_rate > 1 ||
        fo.sync_fail_rate < 0 || fo.sync_fail_rate > 1 ||
        fo.short_read_rate < 0 || fo.short_read_rate > 1) {
      return invalid("fault injector rates must be in [0, 1]");
    }
  }
  if (core::Status durability =
          persistence::ValidateDurabilityOptions(options.durability);
      !durability.ok()) {
    return invalid(durability.message());
  }
  const RuntimeOptions::GovernanceOptions& gov = options.governance;
  if (gov.enable_watchdog && gov.watchdog_interval.count() <= 0) {
    return invalid("governance.watchdog_interval must be > 0");
  }
  if (gov.deadline_grace < 1.0) {
    return invalid(
        "governance.deadline_grace must be >= 1 (the watchdog must not "
        "cancel before the deadline itself)");
  }
  if (gov.recovery_fraction <= 0.0 || gov.recovery_fraction > 1.0) {
    return invalid("governance.recovery_fraction must be in (0, 1]");
  }
  const ReplicationRuntimeOptions& repl = options.replication;
  if (repl.client != nullptr && !options.durability.enabled()) {
    return invalid(
        "replication.client requires durability (the replicated unit is "
        "the journal record; there is nothing to ship without a journal)");
  }
  if (repl.failover_timeout.count() < 0) {
    return invalid("replication.failover_timeout must be >= 0 (0 = off)");
  }
  if (repl.failover_timeout.count() > 0 &&
      (repl.monitor == nullptr || !gov.enable_watchdog)) {
    return invalid(
        "replication.failover_timeout requires a monitor and the watchdog "
        "(governance.enable_watchdog) — the watchdog thread polls it");
  }
  return Status::Ok();
}

ServiceRuntime::ServiceRuntime(const core::Sws* sws, rel::Database initial_db,
                               RuntimeOptions options)
    : initial_db_(std::move(initial_db)),
      options_(std::move(options)),
      stats_(options_.num_shards != 0
                 ? options_.num_shards
                 : 4 * ResolveWorkers(options_.num_workers)) {
  SWS_CHECK(sws != nullptr);
  core::Status valid = ValidateRuntimeOptions(options_);
  SWS_CHECK(valid.ok()) << "invalid RuntimeOptions — " << valid.message();
  const size_t workers = ResolveWorkers(options_.num_workers);
  const size_t shards =
      options_.num_shards != 0 ? options_.num_shards : 4 * workers;

  shard_config_.sws = sws;
  shard_config_.initial_db = &initial_db_;
  shard_config_.run_options = options_.run_options;
  shard_config_.circuit_breaker = options_.circuit_breaker;
  shard_config_.before_process_hook = options_.before_process_hook;
  if (options_.governance.enable_watchdog) {
    shard_config_.root_governor = &root_governor_;
    shard_config_.pressure_level = &pressure_level_;
  }
  shard_config_.replication = options_.replication.client;

  // Durable startup: recover the directory (replaying any previous
  // incarnation's journal) *before* any shard exists, then hand each
  // shard its durable state and its recovered sessions, and only then
  // start the workers. Recovery runs without the fault injector — it
  // models a fresh process; injected storage faults belong to the life
  // that crashed (tests drive RecoveryManager directly to fault it).
  if (options_.durability.enabled()) {
    // Durable-startup failures (unreachable dir, corrupt/foreign journal,
    // replay divergence) are environmental: aborting would crash-loop on
    // the same bad bytes at every restart. Instead the runtime comes up
    // in a failed state — workers run but every Submit is rejected with
    // init_status() — so the operator can inspect the durable dir.
    core::Status dir_status = persistence::EnsureDir(options_.durability.dir);
    if (!dir_status.ok()) {
      init_error_ = std::move(dir_status);
    } else {
      persistence::RecoveryOptions recovery_options;
      recovery_options.verify_replay_outputs =
          options_.durability.verify_replay_outputs;
      recovery_options.run_max_nodes = options_.run_options.max_nodes;
      persistence::RecoveryManager manager(options_.durability.dir, sws,
                                           initial_db_, recovery_options,
                                           /*fault_injector=*/nullptr);
      recovery_ =
          std::make_unique<persistence::RecoveryResult>(manager.Recover());
      if (!recovery_->status.ok()) {
        init_error_ = recovery_->status;
      }
    }
    if (init_error_.ok()) {
      const uint64_t fingerprint = persistence::SwsFingerprint(*sws);
      durability_.reserve(shards);
      for (size_t i = 0; i < shards; ++i) {
        durability_.push_back(std::make_unique<persistence::ShardDurability>(
            options_.durability,
            persistence::SegmentHeader{recovery_->next_incarnation, i,
                                       fingerprint},
            /*first_segment_n=*/0, options_.run_options.fault_injector));
      }
    }
  }

  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<SessionShard>(
        i, &shard_config_,
        durability_.empty() ? nullptr : durability_[i].get()));
  }
  if (recovery_ != nullptr && init_error_.ok()) {
    for (const auto& [session_id, image] : recovery_->sessions) {
      shards_[ShardOf(session_id)]->InstallSession(
          session_id, core::SessionRunner(sws, image.db, image.pending),
          image.next_seq);
    }
  }
  // The pool queue holds at most one drain task per shard (the scheduled
  // flag), so `shards` capacity guarantees drain-task submission never
  // blocks a client thread.
  pool_ = std::make_unique<ThreadPool>(workers, shards);
  if (options_.governance.enable_watchdog) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

ServiceRuntime::~ServiceRuntime() { Shutdown(); }

core::Status ServiceRuntime::Submit(std::string session_id,
                                    rel::Relation message,
                                    OutcomeCallback callback) {
  SubmitOptions options;
  options.callback = std::move(callback);
  return Submit(std::move(session_id), std::move(message),
                std::move(options));
}

core::Status ServiceRuntime::Submit(std::string session_id,
                                    rel::Relation message,
                                    std::chrono::nanoseconds deadline,
                                    OutcomeCallback callback) {
  SubmitOptions options;
  options.deadline = deadline;
  options.callback = std::move(callback);
  return Submit(std::move(session_id), std::move(message),
                std::move(options));
}

core::Status ServiceRuntime::Submit(std::string session_id,
                                    rel::Relation message,
                                    SubmitOptions options) {
  auto deadline = std::chrono::steady_clock::time_point::max();
  if (options.absolute_deadline.has_value()) {
    deadline = *options.absolute_deadline;
  } else {
    std::chrono::nanoseconds relative = options.deadline.count() > 0
                                            ? options.deadline
                                            : options_.default_deadline;
    if (relative.count() > 0) {
      deadline = std::chrono::steady_clock::now() + relative;
    }
  }
  return SubmitInternal(std::move(session_id), std::move(message),
                        options.priority, deadline,
                        std::move(options.callback));
}

size_t ServiceRuntime::LimitFor(Priority priority) const {
  const size_t cap = options_.queue_capacity;
  double fraction = 1.0;
  switch (priority) {
    case Priority::kHigh:
      return cap;
    case Priority::kNormal:
      fraction = options_.shed.normal_occupancy;
      break;
    case Priority::kLow:
      fraction = options_.shed.low_occupancy;
      break;
  }
  return std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(cap)));
}

core::Status ServiceRuntime::SubmitInternal(
    std::string session_id, rel::Relation message, Priority priority,
    std::chrono::steady_clock::time_point deadline, OutcomeCallback callback) {
  using core::RunError;
  using core::Status;
  // Failed-state runtime (durable startup failed): nothing is admitted.
  if (!init_error_.ok()) {
    stats_.OnRejected();
    return init_error_;
  }
  // The one admission check on message content, before the queue and
  // the journal: a message whose arity differs from R_in's would abort
  // the session's run, and once journaled every recovery replay with it.
  if (message.arity() != sws().rin_arity() &&
      !core::SessionRunner::IsDelimiter(message)) {
    stats_.OnRejected();
    return Status::Error(RunError::kInvalidInput,
                         "message arity " + std::to_string(message.arity()) +
                             " differs from the service's input arity " +
                             std::to_string(sws().rin_arity()));
  }
  // Dead on arrival: fast-fail without admitting or running anything.
  if (deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() > deadline) {
    stats_.OnExpiredAtEnqueue();
    return Status::Error(RunError::kDeadlineExceeded,
                         "deadline already expired at enqueue");
  }
  // Memory-pressure shedding (degradation level 2): while the ladder is
  // maxed, low-priority work is refused at the door — the cheapest way
  // to stop feeding a system already shedding caches.
  if (priority == Priority::kLow &&
      pressure_level_.load(std::memory_order_relaxed) >= 2) {
    stats_.OnRejected();
    stats_.OnShedLowPriority();
    return Status::Error(RunError::kQueueRejected,
                         "shed under memory pressure");
  }
  const size_t limit = LimitFor(priority);
  {
    std::unique_lock<std::mutex> lock(admission_mu_);
    // Low priority never blocks: under overload it is shed immediately so
    // that degraded service fails cheap work fast instead of stalling it
    // behind the very backlog that caused the degradation.
    if (options_.on_full == RuntimeOptions::OnFull::kBlock &&
        priority != Priority::kLow) {
      admission_cv_.wait(lock, [&] { return pending_ < limit || stopped_; });
    }
    if (stopped_) {
      lock.unlock();
      stats_.OnRejected();
      return Status::Error(RunError::kShutdown, "runtime is shut down");
    }
    if (pending_ >= limit) {
      const bool shed_before_full = pending_ < options_.queue_capacity;
      lock.unlock();
      stats_.OnRejected();
      if (priority == Priority::kLow && shed_before_full) {
        stats_.OnShedLowPriority();
      }
      return Status::Error(RunError::kQueueRejected,
                           shed_before_full ? "shed by priority policy"
                                            : "admission queue full");
    }
    ++pending_;
  }
  stats_.OnSubmitted();

  SessionShard& shard = *shards_[ShardOf(session_id)];
  const bool needs_scheduling = shard.Enqueue(Envelope{
      std::move(session_id), std::move(message), deadline, priority,
      std::move(callback)});
  if (needs_scheduling) {
    // Cannot fail: pool capacity == num_shards ≥ shards needing a drain
    // task, and the pool only closes after Shutdown()'s drain.
    SWS_CHECK(pool_->Submit([this, &shard] {
      shard.Drain(&stats_, [this] { OnEnvelopeDone(); });
    }));
  }
  return Status::Ok();
}

void ServiceRuntime::OnEnvelopeDone() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    SWS_CHECK_GT(pending_, 0u);
    --pending_;
  }
  admission_cv_.notify_all();
}

void ServiceRuntime::Drain() {
  std::unique_lock<std::mutex> lock(admission_mu_);
  admission_cv_.wait(lock, [&] { return pending_ == 0; });
}

void ServiceRuntime::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    stopped_ = true;
  }
  admission_cv_.notify_all();  // release submitters blocked on capacity
  Drain();
  // Safe under concurrent Shutdown: Close() is idempotent and Stop()
  // serializes the joins internally, so every caller returns only after
  // the workers are joined. The watchdog outlives the drain (it must be
  // able to cancel a wedged run that the drain is waiting on) and is
  // stopped last; its join is serialized by its own mutex.
  pool_->Stop();
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(watchdog_join_mu_);
    if (watchdog_.joinable()) watchdog_.join();
  }
}

void ServiceRuntime::WatchdogLoop() {
  const RuntimeOptions::GovernanceOptions& gov = options_.governance;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mu_);
      watchdog_cv_.wait_for(lock, gov.watchdog_interval,
                            [&] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    // Deadline backstop: cancel any in-flight run that has overrun its
    // deadline by the grace factor. Cancel() is sticky/first-writer-wins,
    // so repeated ticks over the same hog count one watchdog cancel.
    const auto now = std::chrono::steady_clock::now();
    for (const auto& shard : shards_) {
      std::optional<SessionShard::InFlightRun> run = shard->CurrentRun();
      if (!run.has_value() ||
          run->deadline == std::chrono::steady_clock::time_point::max()) {
        continue;
      }
      const auto budget = run->deadline - run->start;
      const auto graced =
          run->start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              budget * gov.deadline_grace);
      if (now > graced &&
          run->governor->Cancel(core::RunError::kDeadlineExceeded,
                                "cancelled by watchdog: run overran its "
                                "deadline past the grace factor")) {
        stats_.OnWatchdogCancel();
      }
    }
    // Failover trigger: a peer whose replication stream has gone silent
    // past the failover timeout is reported (once per silence episode by
    // the monitor's contract) so the node above can decide to promote.
    // Detection only — promotion itself tears this runtime down and
    // recovers the follower journal, which cannot happen on this thread.
    const ReplicationRuntimeOptions& repl = options_.replication;
    if (repl.monitor != nullptr && repl.failover_timeout.count() > 0 &&
        repl.on_peer_suspected) {
      for (const std::string& peer :
           repl.monitor->SuspectPeers(now, repl.failover_timeout)) {
        if (repl.counters != nullptr) {
          repl.counters->peer_suspicions.fetch_add(1,
                                                   std::memory_order_relaxed);
        }
        repl.on_peer_suspected(peer);
      }
    }
    // Memory-pressure ladder: one step per tick, up at ≥ threshold, down
    // at ≤ recovery_fraction × threshold (hysteresis in between).
    if (gov.memory_pressure_bytes > 0) {
      const uint64_t bytes =
          gov.pressure_probe
              ? gov.pressure_probe()
              : static_cast<uint64_t>(
                    std::max<int64_t>(0, root_governor_.tracked_bytes()));
      stats_.OnTrackedBytes(bytes);
      const int level = pressure_level_.load(std::memory_order_relaxed);
      if (bytes >= gov.memory_pressure_bytes && level < 2) {
        pressure_level_.store(level + 1, std::memory_order_relaxed);
        stats_.OnDegradation();
      } else if (bytes <= static_cast<uint64_t>(
                              gov.recovery_fraction *
                              static_cast<double>(gov.memory_pressure_bytes)) &&
                 level > 0) {
        pressure_level_.store(level - 1, std::memory_order_relaxed);
      }
    }
  }
}

StatsSnapshot ServiceRuntime::Stats() const {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    depth = pending_;
  }
  StatsSnapshot snap = stats_.Snapshot(
      depth, static_cast<uint64_t>(
                 pressure_level_.load(std::memory_order_relaxed)));
  // Replication-layer gauges live outside RuntimeStats: the promotion
  // counter survives the runtime rebuild a promotion performs, and the
  // shipping counters are owned by the replicator.
  snap.promotions = options_.replication.promotions;
  if (const ReplicationClient* client = options_.replication.client) {
    snap.segments_shipped = client->segments_shipped();
    snap.follower_lag_hwm = client->follower_lag_hwm();
  }
  if (const ReplicationCounters* counters = options_.replication.counters) {
    snap.peer_suspicions =
        counters->peer_suspicions.load(std::memory_order_relaxed);
    snap.auto_promotions =
        counters->auto_promotions.load(std::memory_order_relaxed);
    snap.epoch_fencing_rejects =
        counters->epoch_fencing_rejects.load(std::memory_order_relaxed);
    snap.catchup_bytes_shipped =
        counters->catchup_bytes_shipped.load(std::memory_order_relaxed);
  }
  return snap;
}

size_t ServiceRuntime::ShardOf(const std::string& session_id) const {
  return std::hash<std::string>{}(session_id) % shards_.size();
}

}  // namespace sws::rt
