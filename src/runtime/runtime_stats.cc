#include "runtime/runtime_stats.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <utility>

#include "util/common.h"

namespace sws::rt {

void LatencyHistogram::Record(uint64_t micros) {
  size_t bucket = micros == 0 ? 0 : std::bit_width(micros) - 1;
  bucket = std::min(bucket, kBuckets - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::array<uint64_t, LatencyHistogram::kBuckets> LatencyHistogram::Counts()
    const {
  std::array<uint64_t, kBuckets> out{};
  for (size_t i = 0; i < kBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t StatsSnapshot::total_runs() const {
  uint64_t total = 0;
  for (const auto& shard : shard_latency) {
    for (uint64_t c : shard) total += c;
  }
  return total;
}

uint64_t StatsSnapshot::ApproxLatencyMicros(double quantile) const {
  const uint64_t total = total_runs();
  if (total == 0) return 0;
  std::array<uint64_t, LatencyHistogram::kBuckets> merged{};
  for (const auto& shard : shard_latency) {
    for (size_t i = 0; i < merged.size(); ++i) merged[i] += shard[i];
  }
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(quantile * total));
  uint64_t seen = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    seen += merged[i];
    if (seen >= rank) return uint64_t{1} << (i + 1);  // upper bucket bound
  }
  return uint64_t{1} << LatencyHistogram::kBuckets;
}

std::string StatsSnapshot::ToString() const {
  std::ostringstream out;
  out << "submitted=" << submitted << " completed=" << completed
      << " rejected=" << rejected << " sessions_closed=" << sessions_closed
      << " deadline_exceeded=" << deadline_exceeded
      << " budget_exceeded=" << budget_exceeded
      << " injected_faults=" << injected_faults
      << " circuit_open=" << circuit_open << " retries=" << retries
      << " shed_low_priority=" << shed_low_priority
      << " expired_at_enqueue=" << expired_at_enqueue
      << " memo_hits=" << memo_hits << " memo_misses=" << memo_misses
      << " storage_failures=" << storage_failures
      << " journal_appends=" << journal_appends << " snapshots=" << snapshots
      << " fuel_exhausted=" << fuel_exhausted
      << " watchdog_cancels=" << watchdog_cancels
      << " degradations=" << degradations
      << " memo_evictions=" << memo_evictions
      << " tracked_bytes_hwm=" << tracked_bytes_hwm
      << " replication_acks=" << replication_acks
      << " replication_timeouts=" << replication_timeouts
      << " promotions=" << promotions
      << " segments_shipped=" << segments_shipped
      << " follower_lag_hwm=" << follower_lag_hwm
      << " peer_suspicions=" << peer_suspicions
      << " auto_promotions=" << auto_promotions
      << " epoch_fencing_rejects=" << epoch_fencing_rejects
      << " catchup_bytes_shipped=" << catchup_bytes_shipped
      << " net_conns_accepted=" << net_conns_accepted
      << " net_conns_reaped=" << net_conns_reaped
      << " net_frames_rejected=" << net_frames_rejected
      << " net_bytes_shed=" << net_bytes_shed
      << " pressure_level=" << pressure_level
      << " queue_depth=" << queue_depth << " runs=" << total_runs()
      << " p50_us<=" << ApproxLatencyMicros(0.5)
      << " p99_us<=" << ApproxLatencyMicros(0.99);
  return out.str();
}

namespace {

/// RFC 8259 string escaping: quotes, backslashes and control characters.
/// The keys below are all plain identifiers today, but the escaping is
/// unconditional so the emitter can never produce invalid JSON (the
/// output feeds scripts/bench_diff.py's strict parser).
void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string StatsSnapshot::ToJson() const {
  const std::pair<std::string_view, uint64_t> fields[] = {
      {"submitted", submitted},
      {"completed", completed},
      {"rejected", rejected},
      {"sessions_closed", sessions_closed},
      {"deadline_exceeded", deadline_exceeded},
      {"budget_exceeded", budget_exceeded},
      {"injected_faults", injected_faults},
      {"circuit_open", circuit_open},
      {"retries", retries},
      {"shed_low_priority", shed_low_priority},
      {"expired_at_enqueue", expired_at_enqueue},
      {"memo_hits", memo_hits},
      {"memo_misses", memo_misses},
      {"storage_failures", storage_failures},
      {"journal_appends", journal_appends},
      {"snapshots", snapshots},
      {"fuel_exhausted", fuel_exhausted},
      {"watchdog_cancels", watchdog_cancels},
      {"degradations", degradations},
      {"memo_evictions", memo_evictions},
      {"tracked_bytes_hwm", tracked_bytes_hwm},
      {"replication_acks", replication_acks},
      {"replication_timeouts", replication_timeouts},
      {"promotions", promotions},
      {"segments_shipped", segments_shipped},
      {"follower_lag_hwm", follower_lag_hwm},
      {"peer_suspicions", peer_suspicions},
      {"auto_promotions", auto_promotions},
      {"epoch_fencing_rejects", epoch_fencing_rejects},
      {"catchup_bytes_shipped", catchup_bytes_shipped},
      {"net_conns_accepted", net_conns_accepted},
      {"net_conns_reaped", net_conns_reaped},
      {"net_frames_rejected", net_frames_rejected},
      {"net_bytes_shed", net_bytes_shed},
      {"pressure_level", pressure_level},
      {"queue_depth", queue_depth},
      {"runs", total_runs()},
      {"p50_us", ApproxLatencyMicros(0.5)},
      {"p99_us", ApproxLatencyMicros(0.99)},
  };
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(key, &out);
    out.push_back(':');
    out += std::to_string(value);
  }
  out.push_back('}');
  return out;
}

RuntimeStats::RuntimeStats(size_t num_shards) : shard_latency_(num_shards) {
  SWS_CHECK_GE(num_shards, 1u);
}

void RuntimeStats::RecordRunLatency(size_t shard, uint64_t micros) {
  SWS_CHECK_LT(shard, shard_latency_.size());
  shard_latency_[shard].Record(micros);
}

StatsSnapshot RuntimeStats::Snapshot(uint64_t queue_depth,
                                     uint64_t pressure_level) const {
  StatsSnapshot snap;
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  snap.completed = completed_.load(std::memory_order_relaxed);
  snap.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  snap.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  snap.budget_exceeded = budget_exceeded_.load(std::memory_order_relaxed);
  snap.injected_faults = injected_faults_.load(std::memory_order_relaxed);
  snap.circuit_open = circuit_open_.load(std::memory_order_relaxed);
  snap.retries = retries_.load(std::memory_order_relaxed);
  snap.shed_low_priority =
      shed_low_priority_.load(std::memory_order_relaxed);
  snap.expired_at_enqueue =
      expired_at_enqueue_.load(std::memory_order_relaxed);
  snap.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  snap.memo_misses = memo_misses_.load(std::memory_order_relaxed);
  snap.storage_failures = storage_failures_.load(std::memory_order_relaxed);
  snap.journal_appends = journal_appends_.load(std::memory_order_relaxed);
  snap.snapshots = snapshots_.load(std::memory_order_relaxed);
  snap.fuel_exhausted = fuel_exhausted_.load(std::memory_order_relaxed);
  snap.watchdog_cancels = watchdog_cancels_.load(std::memory_order_relaxed);
  snap.degradations = degradations_.load(std::memory_order_relaxed);
  snap.memo_evictions = memo_evictions_.load(std::memory_order_relaxed);
  snap.tracked_bytes_hwm =
      tracked_bytes_hwm_.load(std::memory_order_relaxed);
  snap.replication_acks = replication_acks_.load(std::memory_order_relaxed);
  snap.replication_timeouts =
      replication_timeouts_.load(std::memory_order_relaxed);
  snap.net_conns_accepted =
      net_conns_accepted_.load(std::memory_order_relaxed);
  snap.net_conns_reaped = net_conns_reaped_.load(std::memory_order_relaxed);
  snap.net_frames_rejected =
      net_frames_rejected_.load(std::memory_order_relaxed);
  snap.net_bytes_shed = net_bytes_shed_.load(std::memory_order_relaxed);
  // promotions / segments_shipped / follower_lag_hwm and the failover
  // counters (peer_suspicions, auto_promotions, epoch_fencing_rejects,
  // catchup_bytes_shipped) are owned by the replication layer;
  // ServiceRuntime::Stats() stamps them afterwards.
  snap.pressure_level = pressure_level;
  snap.queue_depth = queue_depth;
  snap.shard_latency.reserve(shard_latency_.size());
  for (const LatencyHistogram& h : shard_latency_) {
    snap.shard_latency.push_back(h.Counts());
  }
  return snap;
}

}  // namespace sws::rt
