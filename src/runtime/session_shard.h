#ifndef SWS_RUNTIME_SESSION_SHARD_H_
#define SWS_RUNTIME_SESSION_SHARD_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "persistence/durability.h"
#include "relational/database.h"
#include "runtime/circuit_breaker.h"
#include "runtime/replication_hooks.h"
#include "runtime/runtime_stats.h"
#include "sws/fault.h"
#include "sws/governor.h"
#include "sws/session.h"
#include "sws/status.h"
#include "sws/sws.h"

namespace sws::rt {

/// Priority class of a submitted message. Priorities shape *admission
/// only* (graceful degradation: low-priority work is shed before
/// high-priority work blocks or bounces); once admitted, every message
/// obeys the same per-session FIFO order.
enum class Priority : uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

/// Delivered to the submitter's callback from a worker thread. Callbacks
/// for one session are invoked in submission order (the per-shard drain
/// serializes them); callbacks must not block for long — they run on pool
/// workers — and must not call back into ServiceRuntime::Submit when the
/// runtime uses blocking admission (deadlock: the worker the submit waits
/// on is the one running the callback).
struct Outcome {
  /// ok() ⇔ a delimiter ran and committed (`session` is set). Error
  /// codes: kDeadlineExceeded (sat in the queue past its deadline, or
  /// the retry loop ran out of deadline), kBudgetExceeded,
  /// kInjectedFault (final, after any retries), kCircuitOpen (the
  /// session's breaker fast-failed the delimiter without running).
  core::Status status;
  std::string session_id;
  /// Set iff status.ok().
  std::optional<core::SessionRunner::SessionOutcome> session;
  /// Run attempts made for this outcome (1 + retries); 0 when nothing
  /// ran (deadline drop, circuit fast-fail).
  uint32_t attempts = 0;
};

using OutcomeCallback = std::function<void(Outcome)>;

/// One admitted message, stamped by the admission layer.
struct Envelope {
  std::string session_id;
  rel::Relation message;
  std::chrono::steady_clock::time_point deadline;  // ::max() = none
  Priority priority = Priority::kNormal;
  OutcomeCallback callback;  // may be null
};

/// A shard of the session space: owns the SessionRunner (and therefore
/// the per-session database copy) of every session id hashing to it, plus
/// a FIFO of undelivered envelopes.
///
/// Concurrency protocol ("strand" scheduling): `mu_` guards only the
/// queue and the scheduled flag. At most one worker at a time holds the
/// *drain role* for a shard — Enqueue returns true exactly when it
/// transitions the shard from idle to scheduled, and the caller must then
/// post Drain() to the pool. Drain() processes envelopes one at a time
/// without holding `mu_` during the service run, and gives the role back
/// (scheduled_ = false) only after observing an empty queue under `mu_`.
/// Hence: messages of one shard — a fortiori of one session — are
/// processed in submission order by exactly one thread at a time, while
/// distinct shards drain on distinct workers in parallel. `runners_` is
/// only ever touched by the drain-role holder, so it needs no lock.
class SessionShard {
 public:
  /// Per-message hooks and run options shared by all shards. `sws` and
  /// `initial_db` must outlive the shard and stay unmodified (they are
  /// read concurrently by every shard; see the thread-safety notes in
  /// sws/sws.h and relational/database.h).
  struct Config {
    const core::Sws* sws = nullptr;
    const rel::Database* initial_db = nullptr;
    /// Carries the per-run limits plus the fault-tolerance knobs: the
    /// (nullable) fault injector — also consulted for shard-stall
    /// injection in Drain — and the retry policy. The per-envelope
    /// deadline overrides run_options.deadline for each message.
    core::RunOptions run_options;
    /// Per-session circuit breaking; failure_threshold 0 disables.
    CircuitBreakerPolicy circuit_breaker;
    /// Test/bench instrumentation: invoked on the worker right before
    /// each envelope is processed (after the deadline check).
    std::function<void(const std::string& session_id)> before_process_hook;
    /// Resource governance (see DESIGN.md §10). The runtime's root
    /// governor — parent of every per-request governor, so steps/bytes
    /// roll up to a live global gauge — or null when governance is off.
    core::ExecutionGovernor* root_governor = nullptr;
    /// The runtime watchdog's memory-pressure degradation level (0 =
    /// healthy). Read per delimiter: ≥1 disables run memoization (≥2
    /// sheds low priority at admission, in the runtime). Null = no
    /// degradation.
    const std::atomic<int>* pressure_level = nullptr;
    /// Primary-side replication (DESIGN.md §11): persisted records are
    /// shipped to followers and delimiter acks wait for the follower
    /// quorum. Null = replication off — the single-node ack path is
    /// untouched. Only meaningful with durability (there is no journal
    /// record to ship otherwise; ValidateRuntimeOptions enforces it).
    ReplicationClient* replication = nullptr;
  };

  /// What the runtime watchdog sees of a run in flight on this shard:
  /// the request's governor (cancellable from the watchdog thread) plus
  /// when it started and when it was due.
  struct InFlightRun {
    std::shared_ptr<core::ExecutionGovernor> governor;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point deadline;
  };

  /// `durability` is the shard's durable state (write-ahead journal +
  /// snapshots), or null when durability is off — the null check is the
  /// non-durable hot path's entire cost. Like `sessions_`, it is only
  /// ever touched by the drain-role holder.
  SessionShard(size_t shard_index, const Config* config,
               persistence::ShardDurability* durability = nullptr);

  /// Appends an envelope. Returns true iff the shard was idle — the
  /// caller must then schedule Drain() on a worker.
  bool Enqueue(Envelope envelope);

  /// Installs a recovered session (runner state + the journal seq it
  /// expects next). Pre-start only: must be called before any worker can
  /// drain this shard, since it touches `sessions_` without the role.
  void InstallSession(const std::string& session_id,
                      core::SessionRunner runner, uint64_t next_seq);

  /// Processes queued envelopes until empty; called only via the
  /// scheduling protocol above. Every processed envelope is counted via
  /// `stats` and `on_done` (the admission layer's queue-depth release).
  void Drain(RuntimeStats* stats, const std::function<void()>& on_done);

  /// Number of sessions ever materialized on this shard (approximate
  /// during a drain; exact when the shard is idle).
  size_t num_sessions() const {
    return num_sessions_.load(std::memory_order_relaxed);
  }

  /// The delimiter run currently in flight on this shard, if any —
  /// watchdog-safe (its own lock; never contends with the strand).
  std::optional<InFlightRun> CurrentRun() const;

 private:
  /// A session's shard-owned state: its runner (buffer + private
  /// database copy) and its circuit breaker. Touched only by the
  /// drain-role holder.
  struct SessionState {
    core::SessionRunner runner;
    CircuitBreaker breaker;
    /// Journal seq of the session's next input (durable runtimes only).
    uint64_t next_seq = 0;
  };

  void Process(Envelope envelope, RuntimeStats* stats);

  /// Captures all sessions into a shard snapshot (drain-role holder
  /// only). Failures are counted, not fatal: the journal still covers
  /// everything the snapshot would have.
  void MaybeSnapshot(RuntimeStats* stats);

  const size_t shard_index_;
  const Config* const config_;
  persistence::ShardDurability* const durability_;

  std::mutex mu_;
  std::deque<Envelope> queue_;
  bool scheduled_ = false;

  // Drain-role-owned; no lock (see class comment).
  std::unordered_map<std::string, SessionState> sessions_;
  std::atomic<size_t> num_sessions_{0};

  /// The in-flight slot: published by the drain-role holder around each
  /// delimiter run, read by the runtime watchdog. Guarded by its own
  /// mutex so the watchdog never touches the strand's state.
  mutable std::mutex inflight_mu_;
  std::optional<InFlightRun> inflight_;
};

}  // namespace sws::rt

#endif  // SWS_RUNTIME_SESSION_SHARD_H_
