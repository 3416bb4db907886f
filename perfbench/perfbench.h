// Shared declarations of the end-to-end benchmark (LAYERS.md): command
// line, seeded inputs, the result record, and the span/sample recorders
// the traced run uses.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  /// Print the generated inputs and exit (the determinism tests).
  bool dump_inputs = false;
  /// Corrupt one expected output, so the oracle must fail the run (the
  /// oracle's own test).
  bool break_oracle = false;
  /// Identifies the sources measured (git commit, or a digest of src/).
  std::string source_id = "unknown";
  /// Scratch directory inside the checkout (journal files live here).
  std::string work_dir = ".bench_build/work";
};

// ---------------------------------------------------------------------------
// Timing helpers.

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system) in seconds, from getrusage.
double ProcessCpuSeconds();
/// A /proc/self/status field in kB (VmHWM, VmRSS); 0 if unreadable.
uint64_t ProcStatusKb(const char* field);

/// Nearest-rank percentile of an unsorted sample (copied, then sorted).
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Bytes of [data, data + bytes) resident in memory, by whole pages
/// (mincore). The benchmark's own per-session records are subtracted
/// from peak_rss_mb with it, so that the metric does not grow with the
/// number of sessions a run completes.
uint64_t ResidentBytes(const void* data, size_t bytes);

/// The timed window is cut into slices of about this length.
inline constexpr double kSliceSeconds = 0.125;
/// The window metrics pool this share of its slices, the fastest ones.
inline constexpr double kFastShare = 0.10;

/// A timed window's metrics, over the pooled sessions of its fastest
/// slices by throughput. A shared host's interference comes and goes
/// within a second and only ever slows the program down, so the slices it
/// spared are the steadiest estimate of what the program itself does
/// (LAYERS.md, "Slices").
struct SliceStats {
  double sessions_per_s = 0;
  double cpu_ms_per_session = 0;
  double p50_ms = 0;
  double p90_ms = 0;
};

/// Times a window of `seconds` in slices of about kSliceSeconds:
/// `until(cut)` must return once the clock passes `cut`; wall clock and
/// process CPU seconds are read at every slice boundary.
void TimeSlices(double seconds, const std::function<void(int64_t)>& until,
                std::vector<int64_t>* cut_ns, std::vector<double>* cut_cpu);

/// `cut_ns`/`cut_cpu`: wall clock and process CPU seconds at the slice
/// boundaries; `done`: (end time, latency ms) of each correct session.
/// Sessions ending outside the window are ignored.
SliceStats ReduceSlices(const std::vector<int64_t>& cut_ns,
                        const std::vector<double>& cut_cpu,
                        const std::vector<std::pair<int64_t, double>>& done);

// ---------------------------------------------------------------------------
// The result: one JSON line, printed last. Metrics keep insertion order.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failure/retry counts and the environment record, printed as their
  /// own JSON line ahead of the result.
  std::vector<std::pair<std::string, std::string>> info;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Info(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  void Info(std::string key, uint64_t value) {
    info.emplace_back(std::move(key), std::to_string(value));
  }
};

// ---------------------------------------------------------------------------
// Traced-run recorders (active only under --trace 1).

/// Named timing samples (µs or ms as the name says) and counters, merged
/// from any thread.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(value);
  }
  void Count(const std::string& name, double delta) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_[name] += delta;
  }
  std::vector<double> Get(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }
  double CountOf(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }
  double Mean(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;
};

/// One span: a named interval on one session, with its parent. Spans stay
/// in memory and are written out when the run ends.
struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  std::string session;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Records a finished span and returns its id (for children).
  int Record(int parent, std::string name, std::string session,
             int64_t start_ns, int64_t end_ns);
  size_t size() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Adds `<name>.p50`, `<name>.p90` and `<name>.n` for one timing.
void AddTiming(Result* result, const std::string& name,
               const std::vector<double>& values, const std::string& unit);

// ---------------------------------------------------------------------------
// Workload entry points (each fills `result`; false = could not run).

bool RunServedWorkload(const Args& args, Result* result);
bool RunAnalysisWorkload(const Args& args, Result* result);

/// The canonical text of a workload's generated inputs (determinism
/// tests compare it byte for byte across runs and seeds).
std::string DumpInputs(const std::string& workload, uint64_t seed);

/// Every per-layer metric name and unit, in output order. Metrics a
/// workload does not exercise are reported as 0 with n = 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerTimings();
const std::vector<std::pair<std::string, std::string>>& PerLayerCounts();

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
