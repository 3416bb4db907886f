// The analysis workload: in-process, one thread, one analyst job after
// another on the travel services. A job is the Table 2 composition of
// Example 5.1 plus the Table 1 SWS_nr(CQ, UCQ) procedures (LAYERS.md).

#include <sched.h>

#include <filesystem>
#include <memory>
#include <optional>

#include "analysis/cq_analysis.h"
#include "inputs.h"
#include "logic/containment.h"
#include "logic/cq.h"
#include "logic/ucq.h"
#include "mediator/cq_composition.h"
#include "mediator/mediator_run.h"
#include "models/travel.h"
#include "perfbench.h"
#include "sws/execution.h"
#include "sws/unfold.h"
#include "util/common.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sws::core::Sws;
using sws::rel::Relation;

/// Set-ups per untraced run (setup_s is their median; each on the next
/// CPU, as the window's slices are) and the fixed warm-up each ends with.
constexpr int kSetups = 8;
constexpr int kWarmupJobs = 10;
/// Record capacity reserved per second of window: far above the job rate.
constexpr double kRecordsPerSecond = 20000;
/// Every this-many-th traced job also replays its containment checks.
constexpr int kReplayEvery = 4;

/// The services a job analyses, and its seeded validation targets.
struct Analyst {
  AnalysisInputs inputs;
  Sws goal = sws::models::MakeTravelServiceCqUcq().sws;
  Sws tickets_only = goal;
  sws::models::TravelService airfare = sws::models::MakeTravelComponentAirfare();
  sws::models::TravelService hotel_tickets =
      sws::models::MakeTravelComponentHotelTickets();
  sws::models::TravelService hotel_car =
      sws::models::MakeTravelComponentHotelCar();
  std::vector<const Sws*> components;
  std::vector<Relation> targets;  // real outputs, one per request

  explicit Analyst(uint64_t seed) : inputs(MakeAnalysisInputs(seed)) {
    // The goal without its car disjunct, as in analysis_cq_test.
    using sws::logic::Atom;
    using sws::logic::ConjunctiveQuery;
    using sws::logic::Term;
    auto v = [](int i) { return Term::Var(i); };
    sws::logic::UnionQuery tickets(4);
    tickets.Add(ConjunctiveQuery(
        {v(0), v(1), v(2), v(3)},
        {Atom{sws::core::ActRelation(1), {v(0), v(4), v(5), v(6)}},
         Atom{sws::core::ActRelation(2), {v(7), v(1), v(8), v(9)}},
         Atom{sws::core::ActRelation(3), {v(10), v(11), v(2), v(3)}}}));
    tickets_only.SetSynthesis(0, sws::core::RelQuery::Ucq(std::move(tickets)));
    components = {&airfare.sws, &hotel_tickets.sws, &hotel_car.sws};
    for (const Relation& request : inputs.requests) {
      targets.push_back(
          sws::core::Run(goal, inputs.catalog, Input(request)).output);
    }
  }

  static sws::rel::InputSequence Input(const Relation& request) {
    sws::rel::InputSequence input(request.arity());
    input.Append(request);
    return input;
  }
};

/// What one job produced.
struct JobProducts {
  std::optional<sws::med::CqCompositionResult> composition;
  sws::analysis::CqNonEmptinessResult nonemptiness;
  sws::analysis::CqEquivalenceResult self_equivalence;
  sws::analysis::CqEquivalenceResult variant_equivalence;
  sws::analysis::CqValidationResult validation;
};

/// A digest of everything the oracle checks in a job's products.
uint64_t Fingerprint(const JobProducts& p) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  auto witness = [&mix](const std::optional<sws::analysis::CqWitness>& w) {
    mix(w.has_value());
    if (w) {
      mix(w->db.Hash());
      mix(w->input.Encode().Hash());
    }
  };
  mix(p.composition->found);
  mix(std::hash<std::string>{}(p.composition->rewriting.ToString()));
  mix(p.nonemptiness.nonempty);
  witness(p.nonemptiness.witness);
  mix(p.self_equivalence.equivalent);
  mix(p.variant_equivalence.equivalent);
  mix(p.variant_equivalence.differing_length.value_or(~size_t{0}));
  mix(p.validation.validated);
  witness(p.validation.witness);
  return h;
}

/// One job, for the oracle. The first job of each request in a window
/// keeps its products for the full check; every job keeps their
/// fingerprint, which must match that first job's. Jobs are deterministic
/// functions of their request, and the records stay small, so they do
/// not weigh on the memory the run measures.
struct JobRecord {
  size_t request = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  uint64_t fingerprint = 0;
  std::unique_ptr<JobProducts> products;
};

double Ms(int64_t a, int64_t b) { return static_cast<double>(b - a) / 1e6; }

JobRecord RunJob(const Analyst& a, size_t job, SpanLog* spans,
                 Samples* samples) {
  JobRecord r;
  r.request = job % a.targets.size();
  auto p = std::make_unique<JobProducts>();
  int64_t t[6];
  t[0] = r.begin_ns = NowNs();
  p->composition = sws::med::ComposeCqOneLevel(a.goal, a.components);
  t[1] = NowNs();
  p->nonemptiness = sws::analysis::CqNonEmptinessNr(a.goal);
  t[2] = NowNs();
  p->self_equivalence = sws::analysis::CqEquivalenceNr(a.goal, a.goal);
  t[3] = NowNs();
  p->variant_equivalence =
      sws::analysis::CqEquivalenceNr(a.goal, a.tickets_only);
  t[4] = NowNs();
  p->validation = sws::analysis::CqValidation(a.goal, a.targets[r.request]);
  t[5] = r.end_ns = NowNs();
  r.fingerprint = Fingerprint(*p);
  r.products = std::move(p);
  if (spans != nullptr) {
    const std::string id = "job-" + std::to_string(job);
    const int root = spans->Record(-1, "job", id, t[0], t[5]);
    const char* names[5] = {"mediator.compose", "analysis.nonemptiness",
                            "analysis.equivalence", "analysis.equivalence",
                            "analysis.validation"};
    for (int i = 0; i < 5; ++i) {
      spans->Record(root, names[i], id, t[i], t[i + 1]);
      samples->Add(std::string(names[i]) + "_ms", Ms(t[i], t[i + 1]));
    }
    samples->Add("job.procedures_ms", Ms(t[1], t[5]));
    samples->Count("analysis.jobs", 1);
    samples->Count(
        "analysis.disjuncts",
        static_cast<double>(r.products->nonemptiness.stats.disjuncts_seen +
                            r.products->self_equivalence.stats.disjuncts_seen +
                            r.products->variant_equivalence.stats.disjuncts_seen +
                            r.products->validation.stats.disjuncts_seen));
  }
  return r;
}

/// Mirrors CqEquivalenceNr's loop for both pairs of a job, timing the
/// unfoldings and each logic::UcqEquivalent call on its own.
void ReplayContainment(const Analyst& a, size_t job, SpanLog* spans,
                       Samples* samples) {
  const std::string id = "job-" + std::to_string(job);
  const int64_t start = NowNs();
  const int root = spans->Record(-1, "replay", id, start, start);
  double unfold_ms = 0;
  double containment_us = 0;
  sws::logic::ContainmentStats stats;
  for (const Sws* other : {&a.goal, &a.tickets_only}) {
    const size_t depth = std::max(*a.goal.MaxDepth(), *other->MaxDepth());
    for (size_t n = 0; n <= depth; ++n) {
      const int64_t t0 = NowNs();
      sws::logic::UnionQuery ua = sws::core::UnfoldToUcq(a.goal, n);
      sws::logic::UnionQuery ub = sws::core::UnfoldToUcq(*other, n);
      const int64_t t1 = NowNs();
      const bool equivalent = sws::logic::UcqEquivalent(ua, ub, &stats);
      const int64_t t2 = NowNs();
      spans->Record(root, "sws.unfold", id, t0, t1);
      spans->Record(root, "logic.containment", id, t1, t2);
      unfold_ms += Ms(t0, t1);
      containment_us += static_cast<double>(t2 - t1) / 1e3;
      if (!equivalent) break;
    }
  }
  samples->Add("logic.containment_us", containment_us);
  samples->Add("sws.unfold_ms", unfold_ms);
  samples->Count("logic.partitions",
                 static_cast<double>(stats.partitions_checked));
  samples->Count("logic.replays", 1);
}

/// The oracle: the known verdicts, the composed mediator replayed against
/// the goal, and both witnesses re-run. `break_oracle` expects the wrong
/// verdict for the tickets-only variant.
bool CheckJob(const Analyst& a, size_t request, const JobProducts& r,
              bool break_oracle) {
  if (!(r.composition->found && r.nonemptiness.nonempty &&
        r.nonemptiness.witness.has_value() && r.self_equivalence.equivalent &&
        r.variant_equivalence.equivalent == break_oracle &&
        r.variant_equivalence.differing_length == std::optional<size_t>(1) &&
        r.validation.validated && r.validation.witness.has_value())) {
    return false;
  }
  const sws::rel::InputSequence input =
      Analyst::Input(a.inputs.requests[request]);
  const Relation goal_output =
      sws::core::Run(a.goal, a.inputs.catalog, input).output;
  const Relation mediator_output =
      sws::med::RunMediator(r.composition->mediator, a.components,
                            a.inputs.catalog, input)
          .output;
  const auto& valid = *r.validation.witness;
  const auto& nonempty = *r.nonemptiness.witness;
  return goal_output == mediator_output &&
         sws::core::Run(a.goal, valid.db, valid.input).output ==
             a.targets[request] &&
         !sws::core::Run(a.goal, nonempty.db, nonempty.input).output.empty();
}

struct Window {
  SliceStats stats;
  double peak_rss_mb = 0;
  size_t jobs = 0;  // correct jobs that ended in the window
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void AddTo(Result* result) const {
    result->attempted += attempted;
    result->failed += failed;
    result->correct = result->correct && failed == 0;
  }
};

/// Pins the calling thread to the allowed CPUs in turn, one per call, and
/// restores its mask when destroyed. The VM's vCPUs are slowed by work
/// outside it at different times, each for seconds at a stretch; a
/// single-threaded window that visits every vCPU has fast slices to
/// report whichever one is slowed (see "Slices" in LAYERS.md).
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Runs jobs back to back for `seconds`, then checks each one.
Window MeasureWindow(const Analyst& a, const Args& args, double seconds,
                     size_t* next_job, SpanLog* spans, Samples* samples) {
  std::vector<int64_t> cut_ns;
  std::vector<double> cut_cpu;
  std::vector<JobRecord> records;
  // Address space only: pages are touched as records are written, and the
  // vector never moves, so its resident pages can be left out of the peak.
  records.reserve(static_cast<size_t>(kRecordsPerSecond * seconds));
  std::vector<int> first(a.targets.size(), -1);  // request -> its first job
  {
    CpuRotation rotation;
    TimeSlices(
        seconds,
        [&](int64_t cut) {
          rotation.Next();
          while (NowNs() < cut) {
            JobRecord r = RunJob(a, (*next_job)++, spans, samples);
            if (first[r.request] >= 0) r.products.reset();
            else first[r.request] = static_cast<int>(records.size());
            records.push_back(std::move(r));
          }
        },
        &cut_ns, &cut_cpu);
  }
  Window window;
  window.peak_rss_mb =
      (static_cast<double>(ProcStatusKb("VmHWM")) * 1024.0 -
       static_cast<double>(ResidentBytes(
           records.data(), records.size() * sizeof(JobRecord)))) /
      (1024.0 * 1024.0);
  std::vector<std::pair<int64_t, double>> done;
  std::vector<bool> verdict(first.size(), false);
  for (size_t request = 0; request < first.size(); ++request) {
    if (first[request] < 0) continue;
    verdict[request] =
        CheckJob(a, request, *records[first[request]].products,
                 args.break_oracle && first[request] == 0);
  }
  for (const JobRecord& r : records) {
    ++window.attempted;
    if (!verdict[r.request] ||
        r.fingerprint != records[first[r.request]].fingerprint) {
      ++window.failed;
      continue;
    }
    done.emplace_back(r.end_ns, Ms(r.begin_ns, r.end_ns));
  }
  window.stats = ReduceSlices(cut_ns, cut_cpu, done);
  window.jobs = done.size();
  return window;
}

/// Input generation, the services, and the fixed warm-up.
std::unique_ptr<Analyst> SetUp(const Args& args, size_t* next_job) {
  auto a = std::make_unique<Analyst>(args.seed);
  for (int i = 0; i < kWarmupJobs; ++i) {
    RunJob(*a, (*next_job)++, nullptr, nullptr);
  }
  return a;
}

}  // namespace

bool RunAnalysisWorkload(const Args& args, Result* result) {
  result->Info("workers", 1);
  result->Info("connections", 0);
  result->Info("fsync", "off");
  size_t next_job = 0;
  if (!args.trace) {
    std::vector<double> setups;
    std::unique_ptr<Analyst> a;
    {
      CpuRotation rotation;
      for (int s = 0; s < kSetups; ++s) {
        a.reset();
        next_job = 0;
        rotation.Next();
        const int64_t t0 = NowNs();
        a = SetUp(args, &next_job);
        setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      }
    }
    const Window window =
        MeasureWindow(*a, args, args.seconds, &next_job, nullptr, nullptr);
    window.AddTo(result);
    result->Info("window_sessions", static_cast<uint64_t>(window.jobs));
    result->Add("setup_s", Median(setups), "s");
    result->Add("sessions_per_s", window.stats.sessions_per_s, "1/s");
    result->Add("session_p50_ms", window.stats.p50_ms, "ms");
    result->Add("session_p90_ms", window.stats.p90_ms, "ms");
    result->Add("cpu_ms_per_session", window.stats.cpu_ms_per_session, "ms");
    result->Add("peak_rss_mb", window.peak_rss_mb, "MB");
    return true;
  }

  // Traced: an untraced half-window, then a traced one with spans around
  // every procedure and a containment replay of every kReplayEvery-th job.
  const double half = static_cast<double>(args.seconds) / 2;
  std::unique_ptr<Analyst> a = SetUp(args, &next_job);
  const Window untraced =
      MeasureWindow(*a, args, half, &next_job, nullptr, nullptr);
  untraced.AddTo(result);
  Samples samples;
  SpanLog spans;
  const size_t first_traced = next_job;
  const Window traced =
      MeasureWindow(*a, args, half, &next_job, &spans, &samples);
  traced.AddTo(result);
  for (size_t job = first_traced; job < next_job; job += kReplayEvery) {
    ReplayContainment(*a, job, &spans, &samples);
  }

  for (const auto& [name, unit] : PerLayerTimings()) {
    AddTiming(result, name, samples.Get(name), unit);
  }
  auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  // Busy time per job by layer (ms): the procedures' own spans, with the
  // replayed unfoldings (sws) and containment checks (logic) taken out of
  // the analysis procedures that contain them.
  const double compose = samples.Mean("mediator.compose_ms");
  const double procedures = samples.Mean("job.procedures_ms");
  const double containment = samples.Mean("logic.containment_us") / 1e3;
  const double unfold = samples.Mean("sws.unfold_ms");
  const std::map<std::string, double> busy = {
      {"mediator", compose},
      {"logic", containment},
      {"sws", unfold},
      {"analysis", std::max(0.0, procedures - containment - unfold)},
  };
  double busy_total = 0;
  for (const auto& [layer, ms] : busy) busy_total += ms;
  std::map<std::string, double> counts = {
      {"logic.partitions_checked",
       ratio(samples.CountOf("logic.partitions"),
             samples.CountOf("logic.replays"))},
      {"analysis.disjuncts_seen",
       ratio(samples.CountOf("analysis.disjuncts"),
             samples.CountOf("analysis.jobs"))},
      {"trace.overhead_pct",
       ratio(untraced.stats.sessions_per_s - traced.stats.sessions_per_s,
             untraced.stats.sessions_per_s) *
           100},
      {"trace.spans", static_cast<double>(spans.size())},
  };
  for (const auto& [layer, ms] : busy) {
    counts["self." + layer + "_pct"] = ratio(ms, busy_total) * 100;
  }
  for (const auto& [name, unit] : PerLayerCounts()) {
    auto it = counts.find(name);
    result->Add(name, it == counts.end() ? 0.0 : it->second, unit);
  }
  const std::string trace_path =
      (fs::path(args.work_dir) /
       ("trace-analysis-seed" + std::to_string(args.seed) + ".jsonl"))
          .string();
  spans.WriteJsonLines(trace_path);
  result->Info("trace_file", trace_path);
  return true;
}

}  // namespace perfbench
