#ifndef SWS_RUNTIME_RUNTIME_STATS_H_
#define SWS_RUNTIME_RUNTIME_STATS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sws::rt {

/// A lock-free latency histogram with power-of-two microsecond buckets:
/// bucket b counts samples in [2^b, 2^(b+1)) microseconds (bucket 0 also
/// absorbs sub-microsecond samples). Recording is a single relaxed
/// fetch_add — safe to call from every worker on every run.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Record(uint64_t micros);

  /// A plain (non-atomic) copy for reporting.
  std::array<uint64_t, kBuckets> Counts() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// Every exported metric, declared once as X(enumerator, name): `name` is
/// the StatsSnapshot field and the ToJson/ToString key, and list order is
/// export order. Adding a metric is one line here plus the code that
/// ticks it. All are monotonic counters except the *_hwm high-water marks
/// (Counters::Max) and the two trailing gauges, which the snapshot takes
/// as arguments. "node:" marks the replication metrics, ticked on the
/// node-owned set (ReplicationRuntimeOptions::counters) that outlives the
/// runtime's rebuilds; everything else is ticked on RuntimeStats.
#define SWS_STATS_COUNTERS(X)                                                  \
  X(kSubmitted, submitted) /* Submit() calls that were admitted */             \
  X(kCompleted, completed) /* messages fully processed by a worker */          \
  X(kRejected, rejected) /* Submit() calls bounced by backpressure */          \
  X(kSessionsClosed, sessions_closed) /* delimiter runs that committed */      \
  X(kDeadlineExceeded, deadline_exceeded) /* dropped past their deadline */    \
  X(kBudgetExceeded, budget_exceeded) /* session runs aborted by max_nodes */  \
  X(kInjectedFaults, injected_faults) /* runs failed by the fault injector */  \
  X(kCircuitOpen, circuit_open) /* delimiters fast-failed by a breaker */      \
  X(kRetries, retries) /* extra run attempts by the retry loop */              \
  X(kShedLowPriority, shed_low_priority) /* low priority shed before full */   \
  X(kExpiredAtEnqueue, expired_at_enqueue) /* dead on arrival, not admitted */ \
  X(kMemoHits, memo_hits) /* subtrees replayed from the memo cache */          \
  X(kMemoMisses, memo_misses) /* subtrees evaluated and cached */              \
  X(kStorageFailures, storage_failures) /* failed durable appends/snapshots */ \
  X(kJournalAppends, journal_appends) /* records appended to the WAL */        \
  X(kSnapshots, snapshots) /* shard snapshots captured */                      \
  X(kFuelExhausted, fuel_exhausted) /* runs aborted by a fuel/byte budget */   \
  X(kWatchdogCancels, watchdog_cancels) /* overrunning runs cancelled */       \
  X(kDegradations, degradations) /* pressure-ladder level increases */         \
  X(kMemoEvictions, memo_evictions) /* memo entries evicted by the byte cap */ \
  X(kTrackedBytesHwm, tracked_bytes_hwm) /* peak governed cache bytes */       \
  X(kReplicationAcks, replication_acks) /* ack barriers met by the quorum */   \
  X(kReplicationTimeouts, replication_timeouts) /* ack barriers timed out */   \
  X(kPromotions, promotions) /* node: follower->primary promotions */          \
  X(kSegmentsShipped, segments_shipped) /* node: journal segments shipped */   \
  X(kFollowerLagHwm, follower_lag_hwm) /* node: peak unacked shipments */      \
  X(kPeerSuspicions, peer_suspicions) /* node: silence episodes reported */    \
  X(kAutoPromotions, auto_promotions) /* node: quorum-elected promotions */    \
  X(kEpochFencingRejects, epoch_fencing_rejects) /* node: fenced shipments */  \
  X(kCatchupBytesShipped, catchup_bytes_shipped) /* node: bytes to joiners */  \
  X(kNetConnsAccepted, net_conns_accepted) /* TCP connections accepted */      \
  X(kNetConnsReaped, net_conns_reaped) /* closed as idle, wedged or excess */  \
  X(kNetFramesRejected, net_frames_rejected) /* malformed/oversize/corrupt */  \
  X(kNetBytesShed, net_bytes_shed) /* reply bytes dropped by backpressure */   \
  X(kPressureLevel, pressure_level) /* gauge: degradation level, 0-2 */        \
  X(kQueueDepth, queue_depth) /* gauge: admitted, not yet completed */

enum class Counter : size_t {
#define SWS_COUNTER_ENUM(id, name) id,
  SWS_STATS_COUNTERS(SWS_COUNTER_ENUM)
#undef SWS_COUNTER_ENUM
};
#define SWS_COUNTER_ONE(id, name) +1
inline constexpr size_t kNumCounters = 0 SWS_STATS_COUNTERS(SWS_COUNTER_ONE);
#undef SWS_COUNTER_ONE

/// A point-in-time copy of the metrics, safe to read and print while the
/// runtime keeps running.
struct StatsSnapshot {
#define SWS_COUNTER_FIELD(id, name) uint64_t name = 0;
  SWS_STATS_COUNTERS(SWS_COUNTER_FIELD)
#undef SWS_COUNTER_FIELD
  /// Per-shard session-run latency histograms (delimiter runs only; the
  /// buffering of a non-delimiter message is not a run).
  std::vector<std::array<uint64_t, LatencyHistogram::kBuckets>> shard_latency;

  /// Total recorded runs and a nearest-rank latency quantile (in
  /// microseconds, upper bucket bound) aggregated across shards.
  uint64_t total_runs() const;
  uint64_t ApproxLatencyMicros(double quantile) const;

  std::string ToString() const;
  /// One-line JSON object (for BENCH_*.json files and scraping). The
  /// output is guaranteed-valid JSON: keys go through full string
  /// escaping and every value is emitted as a plain integer.
  std::string ToJson() const;
};

/// One atomic slot per metric. Ticks use relaxed ordering — the stats
/// surface deliberately imposes no synchronization on the data path;
/// cross-thread visibility of the *work* itself is ordered by the shard
/// queues, not by these counters.
class Counters {
 public:
  /// Zero adds are skipped, so per-run ticks of usually-zero amounts
  /// (memo evictions, shed bytes) cost no atomic op.
  void Add(Counter c, uint64_t n = 1) {
    if (n != 0) slots_[Index(c)].fetch_add(n, std::memory_order_relaxed);
  }
  /// Raises a high-water-mark slot to at least `v`.
  void Max(Counter c, uint64_t v) {
    std::atomic<uint64_t>& slot = slots_[Index(c)];
    uint64_t prev = slot.load(std::memory_order_relaxed);
    while (prev < v && !slot.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t Load(Counter c) const {
    return slots_[Index(c)].load(std::memory_order_relaxed);
  }

 private:
  static size_t Index(Counter c) { return static_cast<size_t>(c); }

  std::array<std::atomic<uint64_t>, kNumCounters> slots_{};
};

/// The runtime's live metrics: its counter set plus per-shard run
/// latency histograms.
class RuntimeStats : public Counters {
 public:
  explicit RuntimeStats(size_t num_shards);

  void RecordRunLatency(size_t shard, uint64_t micros);

  /// Sums this set and `node` (the replication layer's set; may be null)
  /// slot by slot — each slot has one writer side, so the sum is that
  /// side's value. The queue-depth and pressure-level gauges are owned by
  /// the admission layer and the watchdog; the snapshot takes them as
  /// arguments.
  StatsSnapshot Snapshot(const Counters* node, uint64_t queue_depth,
                         uint64_t pressure_level) const;

 private:
  std::vector<LatencyHistogram> shard_latency_;
};

}  // namespace sws::rt

#endif  // SWS_RUNTIME_RUNTIME_STATS_H_
