#ifndef SWS_RUNTIME_RUNTIME_H_
#define SWS_RUNTIME_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "persistence/durability.h"
#include "persistence/recovery.h"
#include "relational/database.h"
#include "runtime/circuit_breaker.h"
#include "runtime/replication_hooks.h"
#include "runtime/runtime_stats.h"
#include "runtime/session_shard.h"
#include "runtime/thread_pool.h"
#include "sws/execution.h"
#include "sws/status.h"
#include "sws/sws.h"

namespace sws::rt {

struct RuntimeOptions {
  /// Worker threads. 0 → std::thread::hardware_concurrency() (min 1).
  size_t num_workers = 0;
  /// Session shards. 0 → 4× the worker count. More shards = finer-grained
  /// parallelism across sessions; sessions on one shard serialize.
  size_t num_shards = 0;
  /// Bound on admitted-but-unprocessed messages across all shards — the
  /// backpressure knob. Must be ≥ 1 (see ValidateRuntimeOptions).
  size_t queue_capacity = 1024;
  /// What Submit does when a priority class's admission limit is hit.
  enum class OnFull {
    kReject,  // Submit fails immediately (load shedding)
    kBlock,   // Submit waits for capacity (producer throttling); low
              // priority never blocks — it is shed instead, so degraded
              // service fails cheap work fast rather than stalling it
  };
  OnFull on_full = OnFull::kReject;
  /// Graceful degradation under overload: the fraction of queue_capacity
  /// each priority class may fill before its submissions are shed. High
  /// priority may always use the full queue, so as load rises the
  /// runtime sheds low- then (when normal_occupancy < 1) normal-priority
  /// work while high-priority work is still admitted. Each limit
  /// resolves to at least 1 slot. The default keeps normal priority at
  /// full capacity, so plain Submit behaves exactly as without shedding.
  struct ShedPolicy {
    double low_occupancy = 0.5;     // Priority::kLow admitted below this
    double normal_occupancy = 1.0;  // Priority::kNormal admitted below this
  };
  ShedPolicy shed;
  /// Deadline applied to every message from the moment it is admitted;
  /// zero means none. A message still queued past its deadline is dropped
  /// (callback gets kDeadlineExceeded) without running the service.
  std::chrono::nanoseconds default_deadline{0};
  /// Per-session circuit breaking: after `failure_threshold` consecutive
  /// failed runs a session fast-fails (kCircuitOpen) for `open_duration`,
  /// then gets a half-open trial. Threshold 0 disables.
  CircuitBreakerPolicy circuit_breaker;
  /// Per-run execution limits and fault-tolerance knobs: max_nodes (the
  /// node budget; a trip surfaces as kBudgetExceeded), fault_injector
  /// (null = disabled), and retry (transient-failure retry with capped
  /// backoff + decorrelated jitter, deadline-aware).
  core::RunOptions run_options;
  /// Durability (write-ahead journal + snapshots + crash recovery,
  /// DESIGN.md §9). Off by default (`dir` empty): the shards then carry
  /// a null durability pointer and the hot path is identical to a
  /// non-durable build. When set, the constructor first *recovers* the
  /// directory (replaying any prior incarnation's journal), installs the
  /// recovered sessions, and only then starts the workers.
  persistence::DurabilityOptions durability;
  /// Resource governance (DESIGN.md §10): per-run governors, a watchdog
  /// that externally cancels runs overrunning their deadline, and a
  /// memory-pressure ladder that degrades service gracefully instead of
  /// letting cache growth run away.
  struct GovernanceOptions {
    /// Master switch. When true every delimiter run gets an
    /// ExecutionGovernor parented to the runtime root (cooperative
    /// cancellation + budget enforcement inside query evaluation) and
    /// the watchdog thread runs. Off by default: the ungoverned hot
    /// path is unchanged.
    bool enable_watchdog = false;
    /// Watchdog tick period. Must be > 0 when the watchdog is enabled.
    std::chrono::microseconds watchdog_interval{1000};
    /// A governed run started at s with deadline d is cancelled from
    /// outside once now > s + deadline_grace × (d − s). Cooperative
    /// in-run cancellation should fire first; the watchdog is the
    /// backstop for runs wedged where no cancellation point runs.
    /// Must be ≥ 1.
    double deadline_grace = 2.0;
    /// Global governed-cache-bytes threshold that starts the
    /// degradation ladder; 0 disables pressure handling. Each watchdog
    /// tick at or above the threshold raises the level (max 2):
    ///   1 — new runs stop memoizing (memo caches shed);
    ///   2 — low-priority submissions are also shed at admission.
    /// Governed bytes are memo bytes only: relation indexes belong to
    /// the relation versions (bounded by D and the service), not to runs.
    /// Ticks at or below recovery_fraction × threshold step back down.
    size_t memory_pressure_bytes = 0;
    /// Hysteresis for stepping the ladder down. Must be in (0, 1].
    double recovery_fraction = 0.7;
    /// Overrides the pressure signal (tests inject synthetic pressure);
    /// null = the root governor's live tracked_bytes().
    std::function<uint64_t()> pressure_probe;
  };
  GovernanceOptions governance;
  /// Cross-node replication wiring (DESIGN.md §11): the primary-side
  /// shipper + quorum ack barrier, the follower-side silence monitor the
  /// watchdog polls for failover, and the promotion counter. All-default
  /// = replication off; `client` requires durability (the shipped unit
  /// is the journal record) and `failover_timeout` requires the watchdog.
  ReplicationRuntimeOptions replication;
  /// Test/bench instrumentation; see SessionShard::Config.
  std::function<void(const std::string& session_id)> before_process_hook;
};

/// Checks a RuntimeOptions for nonsense (zero queue bound, shed
/// fractions outside (0, 1], inverted shed ordering, zero retry
/// attempts, inverted backoff bounds, a zero node budget, an enabled
/// breaker with a non-positive open window, fault rates outside [0, 1]).
/// num_workers == 0 and num_shards == 0 are *valid* — they mean "auto"
/// and resolve to at least 1. The ServiceRuntime constructor enforces
/// this with a clear diagnostic instead of undefined behavior.
core::Status ValidateRuntimeOptions(const RuntimeOptions& options);

/// Per-request submission knobs (the long-form Submit overload).
struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Relative deadline; zero falls back to RuntimeOptions::default_deadline.
  std::chrono::nanoseconds deadline{0};
  /// Absolute deadline; overrides `deadline` when set. A deadline already
  /// expired at enqueue time fast-fails the submission (kDeadlineExceeded
  /// returned, nothing admitted, no callback) without running anything.
  std::optional<std::chrono::steady_clock::time_point> absolute_deadline;
  OutcomeCallback callback;
};

/// The concurrent multi-session runtime: clients Submit() messages tagged
/// with a session id; the runtime hashes each session to a shard, shards
/// drain on a fixed worker pool, and each session replays the classic
/// SessionRunner semantics — messages buffer until a '#' delimiter runs
/// the service and commits to that session's private database copy.
///
/// Threading model (see also DESIGN.md §6):
///  * shared-immutable: the Sws and the seed Database — read concurrently
///    by all workers, never written;
///  * shard-owned: every SessionRunner (session buffer + database copy) —
///    touched only by the worker currently draining its shard;
///  * per-session ordering: messages of one session are processed in
///    submission order; distinct sessions on distinct shards in parallel.
///
/// Submit() may be called from any number of threads concurrently.
class ServiceRuntime {
 public:
  /// `sws` must outlive the runtime and must not be mutated while the
  /// runtime exists. Every new session starts from a copy of
  /// `initial_db`.
  ServiceRuntime(const core::Sws* sws, rel::Database initial_db,
                 RuntimeOptions options = {});
  /// Shuts down (completing admitted work) if not already shut down.
  ~ServiceRuntime();

  ServiceRuntime(const ServiceRuntime&) = delete;
  ServiceRuntime& operator=(const ServiceRuntime&) = delete;

  /// Submits one message for `session_id`. ok() iff the message was
  /// admitted; otherwise the code says why: kQueueRejected (backpressure
  /// or priority shedding), kShutdown, kDeadlineExceeded (already
  /// expired at enqueue — fast-failed without running), or kInvalidInput
  /// (a non-delimiter message whose arity is not rin_arity()). A non-admitted
  /// message produces no callback. `callback`, if given, fires on the
  /// worker when the message closes a session, errors, or misses its
  /// deadline; buffered non-delimiter messages produce no callback.
  core::Status Submit(std::string session_id, rel::Relation message,
                      OutcomeCallback callback = nullptr);

  /// As above with a per-request deadline overriding the default.
  core::Status Submit(std::string session_id, rel::Relation message,
                      std::chrono::nanoseconds deadline,
                      OutcomeCallback callback);

  /// The long form: priority class, deadline (relative or absolute) and
  /// callback in one bag.
  core::Status Submit(std::string session_id, rel::Relation message,
                      SubmitOptions options);

  /// Blocks until every admitted message has been processed. Concurrent
  /// Submits may keep the runtime busy past the return; typical use is
  /// quiescing after producers stop. Idempotent and safe to call from
  /// any number of threads, before or after Shutdown.
  void Drain();

  /// Drains, then stops the workers. Subsequent Submits are rejected
  /// with kShutdown. Idempotent and safe to call concurrently: every
  /// caller returns only once all admitted work is complete and the
  /// workers are joined.
  void Shutdown();

  /// Point-in-time counters; safe to call at any time.
  StatsSnapshot Stats() const;

  /// The live counter sink. The network front door (net::RpcServer)
  /// stamps its connection/frame counters here so one Stats() call
  /// covers the whole serving stack. Valid for the runtime's lifetime;
  /// all mutators are relaxed atomics, safe from any thread.
  RuntimeStats* stats_sink() { return &stats_; }

  /// Which shard a session id maps to (stable for the runtime's life) —
  /// introspection for tests, benches and placement debugging.
  size_t ShardOf(const std::string& session_id) const;

  size_t num_workers() const { return pool_->num_threads(); }
  size_t num_shards() const { return shards_.size(); }
  const core::Sws& sws() const { return *shard_config_.sws; }

  /// The constructor-time recovery result (replayed outputs a client
  /// must deliver, per-session next_seq for resubmission), or null when
  /// durability is off. Valid for the runtime's lifetime.
  const persistence::RecoveryResult* recovery() const {
    return recovery_.get();
  }

  /// Ok unless durable startup failed (unreachable dir, corrupt or
  /// foreign journal, replay-divergence with verify_replay_outputs).
  /// These are environmental, not programmer errors, so construction
  /// surfaces them here instead of aborting: the runtime comes up in a
  /// failed state that rejects every Submit with this status, letting
  /// the operator inspect the durable dir and decide — an abort would
  /// just crash-loop on the same bad bytes. Check after constructing
  /// any runtime whose options enable durability.
  const core::Status& init_status() const { return init_error_; }

 private:
  core::Status SubmitInternal(std::string session_id, rel::Relation message,
                              Priority priority,
                              std::chrono::steady_clock::time_point deadline,
                              OutcomeCallback callback);
  /// Admission limit (in queue slots) for a priority class.
  size_t LimitFor(Priority priority) const;
  /// Called by a shard after each processed envelope: releases one unit
  /// of queue capacity and wakes blocked submitters/drainers.
  void OnEnvelopeDone();
  /// The watchdog thread body: each tick cancels overrunning in-flight
  /// runs and steps the memory-pressure ladder (see GovernanceOptions).
  void WatchdogLoop();

  rel::Database initial_db_;
  SessionShard::Config shard_config_;
  RuntimeOptions options_;
  RuntimeStats stats_;
  core::Status init_error_;  // set = failed-state runtime, see init_status()
  std::unique_ptr<persistence::RecoveryResult> recovery_;
  std::vector<std::unique_ptr<persistence::ShardDurability>> durability_;
  std::vector<std::unique_ptr<SessionShard>> shards_;
  std::unique_ptr<ThreadPool> pool_;

  /// Admission state: `pending_` counts admitted-but-unprocessed
  /// messages, bounded by options_.queue_capacity (per-priority limits
  /// below it implement the shedding policy).
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;  // capacity freed / drained
  size_t pending_ = 0;
  bool stopped_ = false;

  /// Governance state (enable_watchdog only). The root governor is the
  /// parent of every per-run governor, so its tracked_bytes() is the
  /// live global governed-cache gauge the pressure ladder samples.
  core::ExecutionGovernor root_governor_;
  std::atomic<int> pressure_level_{0};
  std::mutex watchdog_mu_;  // guards watchdog_stop_ + the tick cv
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::mutex watchdog_join_mu_;  // serializes concurrent Shutdown joins
  std::thread watchdog_;
};

}  // namespace sws::rt

#endif  // SWS_RUNTIME_RUNTIME_H_
