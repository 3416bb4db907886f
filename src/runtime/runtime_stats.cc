#include "runtime/runtime_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string_view>

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
  // Nearest rank: the ceil(q*N)-th smallest sample, clamped to [1, N].
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(quantile * static_cast<double>(total))),
      1, total);
  uint64_t seen = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    seen += merged[i];
    if (seen >= rank) return uint64_t{1} << (i + 1);  // upper bucket bound
  }
  return uint64_t{1} << LatencyHistogram::kBuckets;
}

namespace {

/// RFC 8259 string escaping: quotes, backslashes and control characters.
/// The keys are all plain identifiers today, but the escaping is
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

/// The list as a table, in export order: key and snapshot field.
struct CounterField {
  std::string_view key;
  uint64_t StatsSnapshot::*field;
};
constexpr CounterField kCounterFields[] = {
#define SWS_COUNTER_TABLE(id, name) {#name, &StatsSnapshot::name},
    SWS_STATS_COUNTERS(SWS_COUNTER_TABLE)
#undef SWS_COUNTER_TABLE
};
static_assert(std::size(kCounterFields) == kNumCounters);

}  // namespace

std::string StatsSnapshot::ToString() const {
  std::ostringstream out;
  for (const auto& [key, field] : kCounterFields) {
    out << key << '=' << this->*field << ' ';
  }
  out << "runs=" << total_runs() << " p50_us<=" << ApproxLatencyMicros(0.5)
      << " p99_us<=" << ApproxLatencyMicros(0.99);
  return out.str();
}

std::string StatsSnapshot::ToJson() const {
  std::string out = "{";
  auto append = [&out](std::string_view key, uint64_t value) {
    if (out.size() > 1) out.push_back(',');
    AppendJsonString(key, &out);
    out.push_back(':');
    out += std::to_string(value);
  };
  for (const auto& [key, field] : kCounterFields) append(key, this->*field);
  append("runs", total_runs());
  append("p50_us", ApproxLatencyMicros(0.5));
  append("p99_us", ApproxLatencyMicros(0.99));
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

StatsSnapshot RuntimeStats::Snapshot(const Counters* node,
                                     uint64_t queue_depth,
                                     uint64_t pressure_level) const {
  StatsSnapshot snap;
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    snap.*kCounterFields[i].field =
        Load(c) + (node != nullptr ? node->Load(c) : 0);
  }
  snap.pressure_level = pressure_level;
  snap.queue_depth = queue_depth;
  snap.shard_latency.reserve(shard_latency_.size());
  for (const LatencyHistogram& h : shard_latency_) {
    snap.shard_latency.push_back(h.Counts());
  }
  return snap;
}

}  // namespace sws::rt
