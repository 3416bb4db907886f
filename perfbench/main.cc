// swsbench: the benchmark binary run.py builds and drives.
//
//   swsbench --workload travel_fo|catalog_ucq|cart_wal|analysis
//            --seed N --seconds S --trace 0|1
//            [--work-dir DIR] [--source-id ID] [--dump-inputs] [--break-oracle]
//
// Prints a JSON info line (failure counts, environment record) and, last,
// the result line {"correct", "attempted", "failed", "metrics"}. Exits 0
// iff every checked output was correct and no session failed.

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "inputs.h"
#include "perfbench.h"

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

uint64_t ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtoull(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return 0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Samples::Mean(const std::string& name) const {
  return perfbench::Mean(Get(name));
}

uint64_t ResidentBytes(const void* data, size_t bytes) {
  if (data == nullptr || bytes == 0) return 0;
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t begin = reinterpret_cast<uintptr_t>(data) & ~(page - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(data) + bytes;
  std::vector<unsigned char> resident((end - begin + page - 1) / page);
  if (mincore(reinterpret_cast<void*>(begin), end - begin, resident.data()) != 0) {
    return 0;
  }
  uint64_t pages = 0;
  for (unsigned char r : resident) pages += r & 1;
  return pages * page;
}

void TimeSlices(double seconds, const std::function<void(int64_t)>& until,
                std::vector<int64_t>* cut_ns, std::vector<double>* cut_cpu) {
  cut_ns->assign(1, NowNs());
  cut_cpu->assign(1, ProcessCpuSeconds());
  const int slices = std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
  const double slice_ns = seconds * 1e9 / slices;
  for (int i = 1; i <= slices; ++i) {
    until(cut_ns->front() + static_cast<int64_t>(i * slice_ns));
    cut_ns->push_back(NowNs());
    cut_cpu->push_back(ProcessCpuSeconds());
  }
}

SliceStats ReduceSlices(const std::vector<int64_t>& cut_ns,
                        const std::vector<double>& cut_cpu,
                        const std::vector<std::pair<int64_t, double>>& done) {
  const size_t slices = cut_ns.size() - 1;
  std::vector<std::vector<double>> latency(slices);
  for (const auto& [end_ns, ms] : done) {
    if (end_ns < cut_ns.front() || end_ns > cut_ns.back()) continue;
    const size_t i = static_cast<size_t>(
        std::upper_bound(cut_ns.begin() + 1, cut_ns.end() - 1, end_ns) -
        (cut_ns.begin() + 1));
    latency[i].push_back(ms);
  }
  auto seconds = [&](size_t i) {
    return static_cast<double>(cut_ns[i + 1] - cut_ns[i]) / 1e9;
  };
  std::vector<size_t> fastest(slices);
  for (size_t i = 0; i < slices; ++i) fastest[i] = i;
  std::stable_sort(fastest.begin(), fastest.end(), [&](size_t a, size_t b) {
    return static_cast<double>(latency[a].size()) / seconds(a) >
           static_cast<double>(latency[b].size()) / seconds(b);
  });
  fastest.resize(std::max<size_t>(
      1, static_cast<size_t>(std::lround(kFastShare * static_cast<double>(slices)))));
  std::vector<double> pooled;
  double wall = 0;
  double cpu = 0;
  for (size_t i : fastest) {
    pooled.insert(pooled.end(), latency[i].begin(), latency[i].end());
    wall += seconds(i);
    cpu += cut_cpu[i + 1] - cut_cpu[i];
  }
  if (pooled.empty()) return SliceStats{};
  const double n = static_cast<double>(pooled.size());
  return SliceStats{n / wall, cpu * 1e3 / n, Percentile(pooled, 0.50),
                    Percentile(pooled, 0.90)};
}

int SpanLog::Record(int parent, std::string name, std::string session,
                    int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{id, parent, std::move(name), std::move(session),
                        start_ns, end_ns});
  return id;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"session\":\"" << s.session
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

void AddTiming(Result* result, const std::string& name,
               const std::vector<double>& values, const std::string& unit) {
  result->Add(name + ".p50", Percentile(values, 0.50), unit);
  result->Add(name + ".p90", Percentile(values, 0.90), unit);
  result->Add(name + ".n", static_cast<double>(values.size()), "count");
}

const std::vector<std::pair<std::string, std::string>>& PerLayerTimings() {
  static const std::vector<std::pair<std::string, std::string>> kTimings = {
      {"net.submit_rtt_us", "us"},
      {"net.delimiter_rtt_us", "us"},
      {"net.frame_codec_us", "us"},
      {"runtime.submit_us", "us"},
      {"runtime.queue_wait_us", "us"},
      {"runtime.process_us", "us"},
      {"persistence.append_input_us", "us"},
      {"persistence.append_ack_us", "us"},
      {"sws.feed_us", "us"},
      {"sws.run_us", "us"},
      {"sws.commit_us", "us"},
      {"relational.db_copy_us", "us"},
      {"relational.adom_us", "us"},
      {"logic.fo_eval_us", "us"},
      {"logic.ucq_eval_us", "us"},
      {"logic.cq_eval_us", "us"},
      {"logic.containment_us", "us"},
      {"analysis.nonemptiness_ms", "ms"},
      {"analysis.equivalence_ms", "ms"},
      {"analysis.validation_ms", "ms"},
      {"mediator.compose_ms", "ms"},
  };
  return kTimings;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCounts() {
  static const std::vector<std::pair<std::string, std::string>> kCounts = {
      {"net.wire_bytes_per_session", "bytes"},
      {"net.reconnects", "count"},
      {"net.frames_rejected", "count"},
      {"net.conns_reaped", "count"},
      {"runtime.rejected", "count"},
      {"persistence.journal_bytes_per_session", "bytes"},
      {"persistence.appends_per_session", "count"},
      {"persistence.snapshots", "count"},
      {"persistence.storage_failures", "count"},
      {"sws.nodes_per_run", "count"},
      {"sws.memo_hit_ratio", "ratio"},
      {"relational.rss_per_session_kb", "kB"},
      {"relational.catalog_tuples", "count"},
      {"logic.partitions_checked", "count"},
      {"analysis.disjuncts_seen", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"self.net_pct", "%"},
      {"self.runtime_pct", "%"},
      {"self.persistence_pct", "%"},
      {"self.sws_pct", "%"},
      {"self.relational_pct", "%"},
      {"self.logic_pct", "%"},
      {"self.analysis_pct", "%"},
      {"self.mediator_pct", "%"},
      {"self.queue_wait_pct", "%"},
  };
  return kCounts;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string FsTypeName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      std::ostringstream out;
      out << "0x" << std::hex << fs.f_type;
      return out.str();
    }
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "swsbench: %s needs a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--workload") {
      if (!(v = next("--workload"))) return false;
      args->workload = v;
    } else if (arg == "--seed") {
      if (!(v = next("--seed"))) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      if (!(v = next("--seconds"))) return false;
      args->seconds = std::max(1, std::atoi(v));
    } else if (arg == "--trace") {
      if (!(v = next("--trace"))) return false;
      args->trace = std::atoi(v) != 0;
    } else if (arg == "--work-dir") {
      if (!(v = next("--work-dir"))) return false;
      args->work_dir = v;
    } else if (arg == "--source-id") {
      if (!(v = next("--source-id"))) return false;
      args->source_id = v;
    } else if (arg == "--dump-inputs") {
      args->dump_inputs = true;
    } else if (arg == "--break-oracle") {
      args->break_oracle = true;
    } else {
      std::fprintf(stderr, "swsbench: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (!IsServedWorkload(args->workload) && args->workload != "analysis") {
    std::fprintf(stderr, "swsbench: unknown workload '%s'\n",
                 args->workload.c_str());
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.dump_inputs) {
    std::cout << DumpInputs(args.workload, args.seed);
    return 0;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "swsbench: cannot create %s\n", args.work_dir.c_str());
    return 2;
  }

  Result result;
  const bool ran = args.workload == "analysis"
                       ? RunAnalysisWorkload(args, &result)
                       : RunServedWorkload(args, &result);
  if (!ran) return 1;

  result.Info("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  result.Info("build_type", PERFBENCH_BUILD_TYPE);
  result.Info("compiler", PERFBENCH_COMPILER);
  result.Info("source", args.source_id);
  result.Info("seed", args.seed);
  result.Info("seconds", static_cast<uint64_t>(args.seconds));
  result.Info("trace", args.trace ? "1" : "0");
  result.Info("journal_fs", FsTypeName(args.work_dir));

  std::ostringstream info;
  info << "{\"workload\":" << JsonString(args.workload);
  for (const auto& [key, value] : result.info) {
    info << "," << JsonString(key) << ":" << JsonString(value);
  }
  info << "}";
  std::cout << info.str() << "\n";

  std::ostringstream line;
  line << "{\"correct\":" << (result.correct ? "true" : "false")
       << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed << ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) line << ",";
    line << JsonString(m.name) << ":{\"value\":" << JsonNumber(m.value)
         << ",\"unit\":" << JsonString(m.unit) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return result.correct && result.failed == 0 ? 0 : 1;
}
