#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "logic/cq.h"
#include "models/travel.h"
#include "persistence/durability.h"
#include "runtime/runtime.h"
#include "runtime/thread_pool.h"
#include "util/common.h"

namespace sws::rt {
namespace {

using core::RunOptions;
using core::SessionRunner;
using core::Sws;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;
using rel::Relation;
using rel::Value;

// The two-level logger of session_test: each session inserts its first
// message's value into Log at commit (depth 2, so exactly I_1 lands).
Sws MakeTwoLevelLogger() {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("Log", {"x"}));
  Sws sws(schema, 1, 3);
  int q0 = sws.AddState("q0");
  int q1 = sws.AddState("q1");
  ConjunctiveQuery pass({Term::Var(0)},
                        {Atom{core::kInputRelation, {Term::Var(0)}}});
  sws.SetTransition(q0, {core::TransitionTarget{q1, core::RelQuery::Cq(pass)}});
  ConjunctiveQuery copy_up(
      {Term::Var(0), Term::Var(1), Term::Var(2)},
      {Atom{core::ActRelation(1), {Term::Var(0), Term::Var(1), Term::Var(2)}}});
  sws.SetSynthesis(q0, core::RelQuery::Cq(copy_up));
  sws.SetTransition(q1, {});
  ConjunctiveQuery log_msg(
      {Term::Str("ins"), Term::Str("Log"), Term::Var(0)},
      {Atom{core::kMsgRelation, {Term::Var(0)}}});
  sws.SetSynthesis(q1, core::RelQuery::Cq(log_msg));
  SWS_CHECK(!sws.Validate().has_value()) << *sws.Validate();
  return sws;
}

rel::Database LoggerDb() {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("Log", {"x"}));
  return rel::Database(schema);
}

Relation Msg(int64_t v) {
  Relation m(1);
  m.Insert({Value::Int(v)});
  return m;
}

Relation Delim() { return SessionRunner::DelimiterMessage(1); }

// Collects outcomes thread-safely and lets tests wait for a count.
class OutcomeCollector {
 public:
  OutcomeCallback Callback() {
    return [this](Outcome o) {
      std::lock_guard<std::mutex> lock(mu_);
      outcomes_.push_back(std::move(o));
      cv_.notify_all();
    };
  }
  std::vector<Outcome> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return outcomes_;
  }
  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outcomes_.size() >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Outcome> outcomes_;
};

// A gate for before_process_hook: blocks entrants until Open(); counts
// arrivals so tests can wait for k threads to be inside simultaneously.
class Gate {
 public:
  void Block(const std::string&) {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void WaitForArrivals(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t arrived_ = 0;
  bool open_ = false;
};

// Two session ids guaranteed to live on distinct shards.
std::pair<std::string, std::string> TwoDistinctShardIds(
    const ServiceRuntime& runtime) {
  std::string a = "client-0";
  for (int i = 1; i < 1000; ++i) {
    std::string b = "client-" + std::to_string(i);
    if (runtime.ShardOf(b) != runtime.ShardOf(a)) return {a, b};
  }
  SWS_CHECK(false) << "no second shard found";
  return {};
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4, 16);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(pool.Submit([&sum, i] { sum += i; }));
  }
  pool.Stop();
  EXPECT_EQ(sum.load(), 55);
  EXPECT_FALSE(pool.Submit([] {}));  // stopped pools reject
}

TEST(ThreadPoolTest, TrySubmitBouncesWhenFull) {
  ThreadPool pool(1, 1);
  Gate gate;
  ASSERT_TRUE(pool.Submit([&gate] { gate.Block(""); }));
  gate.WaitForArrivals(1);                       // worker is busy
  ASSERT_TRUE(pool.TrySubmit([] {}));            // fills the queue
  bool bounced = false;
  for (int i = 0; i < 100 && !bounced; ++i) {
    bounced = !pool.TrySubmit([] {});
  }
  EXPECT_TRUE(bounced);
  gate.Open();
  pool.Stop();
}

TEST(RuntimeTest, OrderingPerSession) {
  Sws sws = MakeTwoLevelLogger();
  RuntimeOptions options;
  options.num_workers = 4;
  ServiceRuntime runtime(&sws, LoggerDb(), options);
  OutcomeCollector collector;

  // Three sessions on one stream: each commits its first message.
  for (int64_t s = 0; s < 3; ++s) {
    runtime.Submit("alice", Msg(10 + s), collector.Callback());
    runtime.Submit("alice", Msg(100 + s), collector.Callback());
    runtime.Submit("alice", Delim(), collector.Callback());
  }
  runtime.Drain();

  std::vector<Outcome> outcomes = collector.Take();
  ASSERT_EQ(outcomes.size(), 3u);  // only delimiters produce callbacks
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
    ASSERT_TRUE(outcomes[i].session.has_value());
    EXPECT_EQ(outcomes[i].session->session_length, 2u);
    EXPECT_EQ(outcomes[i].session->commit.inserted, 1u);
    // FIFO per session: the i-th outcome is the i-th submitted session,
    // whose first message (the one the depth-2 logger commits) was 10+i.
    EXPECT_TRUE(outcomes[i].session->output.Contains(
        {Value::Str("ins"), Value::Str("Log"), Value::Int(10 + i)}))
        << outcomes[i].session->output.ToString();
  }
  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.submitted, 9u);
  EXPECT_EQ(stats.completed, 9u);
  EXPECT_EQ(stats.sessions_closed, 3u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(RuntimeTest, ParallelismAcrossSessions) {
  // Two sessions on distinct shards must be *in flight simultaneously*:
  // both block inside the pre-process hook, which can only happen if two
  // workers are draining two shards in parallel.
  Sws sws = MakeTwoLevelLogger();
  Gate gate;
  RuntimeOptions options;
  options.num_workers = 2;
  options.before_process_hook = [&gate](const std::string& id) {
    gate.Block(id);
  };
  ServiceRuntime runtime(&sws, LoggerDb(), options);
  auto [a, b] = TwoDistinctShardIds(runtime);

  runtime.Submit(a, Msg(1));
  runtime.Submit(b, Msg(2));
  gate.WaitForArrivals(2);  // both sessions entered processing concurrently
  gate.Open();
  runtime.Submit(a, Delim());
  runtime.Submit(b, Delim());
  runtime.Drain();

  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.sessions_closed, 2u);
}

TEST(RuntimeTest, SessionsAccumulateIndependently) {
  // 64 sessions, two committed sessions each; the per-session database
  // copies mean every second commit sees exactly one prior Log row.
  Sws sws = MakeTwoLevelLogger();
  RuntimeOptions options;
  options.num_workers = 4;
  options.queue_capacity = 4096;
  ServiceRuntime runtime(&sws, LoggerDb(), options);
  OutcomeCollector collector;

  const int kSessions = 64;
  for (int c = 0; c < kSessions; ++c) {
    std::string id = "client-" + std::to_string(c);
    runtime.Submit(id, Msg(c), collector.Callback());
    runtime.Submit(id, Delim(), collector.Callback());
    runtime.Submit(id, Msg(1000 + c), collector.Callback());
    runtime.Submit(id, Delim(), collector.Callback());
  }
  runtime.Drain();

  std::vector<Outcome> outcomes = collector.Take();
  ASSERT_EQ(outcomes.size(), 2u * kSessions);
  std::map<std::string, size_t> per_session_commits;
  for (const Outcome& o : outcomes) {
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
    EXPECT_EQ(o.session->commit.inserted, 1u);  // distinct values: all land
    ++per_session_commits[o.session_id];
  }
  EXPECT_EQ(per_session_commits.size(), static_cast<size_t>(kSessions));
  for (const auto& [id, n] : per_session_commits) EXPECT_EQ(n, 2u) << id;
}

TEST(RuntimeTest, BackpressureRejects) {
  Sws sws = MakeTwoLevelLogger();
  Gate gate;
  RuntimeOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.on_full = RuntimeOptions::OnFull::kReject;
  options.before_process_hook = [&gate](const std::string& id) {
    gate.Block(id);
  };
  ServiceRuntime runtime(&sws, LoggerDb(), options);

  ASSERT_TRUE(runtime.Submit("alice", Msg(1)));
  gate.WaitForArrivals(1);  // worker parked; capacity now covers 1 more
  ASSERT_TRUE(runtime.Submit("alice", Msg(2)));
  EXPECT_FALSE(runtime.Submit("alice", Msg(3)));  // over capacity: shed
  EXPECT_FALSE(runtime.Submit("bob", Msg(4)));    // other sessions too
  gate.Open();
  runtime.Drain();

  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(RuntimeTest, WrongArityMessageIsRejectedAtAdmission) {
  // A 2-ary message to the 1-ary logger comes back as kInvalidInput and
  // counts as a rejection; the session it named carries on unharmed.
  Sws sws = MakeTwoLevelLogger();
  ServiceRuntime runtime(&sws, LoggerDb(), RuntimeOptions{});
  OutcomeCollector collector;
  Relation wide(2);
  wide.Insert({Value::Int(1), Value::Int(2)});
  core::Status status = runtime.Submit("alice", wide, collector.Callback());
  EXPECT_EQ(status.code(), core::RunError::kInvalidInput) << status.ToString();
  ASSERT_TRUE(runtime.Submit("alice", Msg(7)).ok());
  ASSERT_TRUE(runtime.Submit("alice", Delim(), collector.Callback()).ok());
  collector.WaitFor(1);
  runtime.Drain();
  std::vector<Outcome> outcomes = collector.Take();
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_TRUE(outcomes[0].session->output.Contains(
      {Value::Str("ins"), Value::Str("Log"), Value::Int(7)}));
  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted, 2u);
}

TEST(RuntimeTest, BackpressureBlocksUntilCapacityFrees) {
  Sws sws = MakeTwoLevelLogger();
  Gate gate;
  RuntimeOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.on_full = RuntimeOptions::OnFull::kBlock;
  options.before_process_hook = [&gate](const std::string& id) {
    gate.Block(id);
  };
  ServiceRuntime runtime(&sws, LoggerDb(), options);

  ASSERT_TRUE(runtime.Submit("alice", Msg(1)));
  gate.WaitForArrivals(1);  // capacity exhausted, worker parked

  std::atomic<bool> second_admitted{false};
  std::thread submitter([&] {
    EXPECT_TRUE(runtime.Submit("alice", Msg(2)));  // blocks until released
    second_admitted = true;
  });
  // The submitter cannot have been admitted while the first message still
  // occupies the queue slot (the worker is parked in the hook).
  EXPECT_FALSE(second_admitted.load());
  gate.Open();
  submitter.join();
  EXPECT_TRUE(second_admitted.load());
  runtime.Drain();
  EXPECT_EQ(runtime.Stats().rejected, 0u);
  EXPECT_EQ(runtime.Stats().completed, 2u);
}

TEST(RuntimeTest, DeadlineExpiryDropsQueuedMessages) {
  Sws sws = MakeTwoLevelLogger();
  Gate gate;
  std::atomic<int> hook_calls{0};
  RuntimeOptions options;
  options.num_workers = 1;
  options.before_process_hook = [&](const std::string& id) {
    if (hook_calls.fetch_add(1) == 0) gate.Block(id);  // park 1st msg only
  };
  ServiceRuntime runtime(&sws, LoggerDb(), options);
  OutcomeCollector collector;

  ASSERT_TRUE(runtime.Submit("alice", Msg(1)));
  gate.WaitForArrivals(1);  // worker parked *inside* processing of msg 1
  // Submitted with a 1ms deadline while the only worker is parked: by the
  // time the worker reaches it, the deadline has passed.
  ASSERT_TRUE(runtime.Submit("alice", Delim(), std::chrono::milliseconds(1),
                             collector.Callback()));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  runtime.Drain();

  collector.WaitFor(1);
  std::vector<Outcome> outcomes = collector.Take();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status.code(), core::RunError::kDeadlineExceeded);
  EXPECT_FALSE(outcomes[0].session.has_value());
  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.sessions_closed, 0u);  // the delimiter never ran
  EXPECT_EQ(stats.completed, 2u);        // but both messages were consumed
}

TEST(RuntimeTest, NodeBudgetSurfacesAsPerRequestError) {
  // A recursive service with a tiny node budget: the session run aborts,
  // the client sees kBudgetExceeded, and the runtime keeps serving.
  models::TravelService recursive = models::MakeTravelServiceRecursive();
  RuntimeOptions options;
  options.num_workers = 2;
  options.run_options.max_nodes = 3;
  ServiceRuntime runtime(&recursive.sws, models::MakeTravelDatabase(),
                         options);
  OutcomeCollector collector;

  for (int i = 0; i < 4; ++i) {
    runtime.Submit("alice", models::MakeTravelRequest("orlando", 1000),
                   collector.Callback());
  }
  runtime.Submit("alice", SessionRunner::DelimiterMessage(3),
                 collector.Callback());
  runtime.Drain();

  std::vector<Outcome> outcomes = collector.Take();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status.code(), core::RunError::kBudgetExceeded);
  EXPECT_FALSE(outcomes[0].session.has_value());
  EXPECT_EQ(runtime.Stats().budget_exceeded, 1u);

  // The stream continues: an empty session on the same id still works.
  runtime.Submit("alice", SessionRunner::DelimiterMessage(3),
                 collector.Callback());
  runtime.Drain();
  outcomes = collector.Take();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[1].status.ok());
}

TEST(RuntimeTest, CleanShutdownCompletesAdmittedWork) {
  Sws sws = MakeTwoLevelLogger();
  RuntimeOptions options;
  options.num_workers = 4;
  options.queue_capacity = 4096;
  ServiceRuntime runtime(&sws, LoggerDb(), options);

  const int kSessions = 32;
  uint64_t admitted = 0;
  for (int c = 0; c < kSessions; ++c) {
    std::string id = "client-" + std::to_string(c);
    if (runtime.Submit(id, Msg(c))) ++admitted;
    if (runtime.Submit(id, Delim())) ++admitted;
  }
  runtime.Shutdown();

  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.submitted, admitted);
  EXPECT_EQ(stats.completed, admitted);  // graceful: nothing dropped
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_FALSE(runtime.Submit("late", Msg(1)));  // post-shutdown rejects
  runtime.Shutdown();                            // idempotent
}

TEST(RuntimeTest, ValidateRuntimeOptionsFlagsEachBadKnob) {
  EXPECT_TRUE(ValidateRuntimeOptions(RuntimeOptions{}).ok());

  {
    RuntimeOptions o;  // 0 workers / 0 shards mean "auto", not "invalid"
    o.num_workers = 0;
    o.num_shards = 0;
    EXPECT_TRUE(ValidateRuntimeOptions(o).ok());
  }
  auto expect_invalid = [](RuntimeOptions o, const char* what) {
    core::Status s = ValidateRuntimeOptions(o);
    EXPECT_EQ(s.code(), core::RunError::kQueueRejected) << what;
    EXPECT_FALSE(s.message().empty()) << what;
  };
  {
    RuntimeOptions o;
    o.queue_capacity = 0;
    expect_invalid(o, "zero queue");
  }
  {
    RuntimeOptions o;
    o.shed.low_occupancy = 0.0;
    expect_invalid(o, "zero shed fraction");
  }
  {
    RuntimeOptions o;
    o.shed.normal_occupancy = 1.5;
    expect_invalid(o, "shed fraction > 1");
  }
  {
    RuntimeOptions o;
    o.shed.low_occupancy = 0.9;
    o.shed.normal_occupancy = 0.5;
    expect_invalid(o, "low shed above normal");
  }
  {
    RuntimeOptions o;
    o.default_deadline = std::chrono::nanoseconds(-1);
    expect_invalid(o, "negative default deadline");
  }
  {
    RuntimeOptions o;
    o.circuit_breaker.failure_threshold = 3;
    o.circuit_breaker.open_duration = std::chrono::microseconds(0);
    expect_invalid(o, "breaker with zero open window");
  }
  {
    RuntimeOptions o;
    o.run_options.max_nodes = 0;
    expect_invalid(o, "zero node budget");
  }
  {
    RuntimeOptions o;
    o.run_options.retry.max_attempts = 0;
    expect_invalid(o, "zero retry attempts");
  }
  {
    RuntimeOptions o;
    o.run_options.retry.initial_backoff = std::chrono::microseconds(100);
    o.run_options.retry.max_backoff = std::chrono::microseconds(10);
    expect_invalid(o, "inverted backoff bounds");
  }
  {
    RuntimeOptions o;
    core::FaultOptions fo;
    fo.fail_rate = 1.0;  // boundary rates are valid
    core::FaultInjector injector(fo);
    o.run_options.fault_injector = &injector;
    EXPECT_TRUE(ValidateRuntimeOptions(o).ok());
  }
}

TEST(RuntimeTest, ShutdownIsIdempotentAndConcurrent) {
  Sws sws = MakeTwoLevelLogger();
  RuntimeOptions options;
  options.num_workers = 2;
  ServiceRuntime runtime(&sws, LoggerDb(), options);

  uint64_t admitted = 0;
  for (int c = 0; c < 16; ++c) {
    std::string id = "client-" + std::to_string(c);
    if (runtime.Submit(id, Msg(c))) ++admitted;
    if (runtime.Submit(id, Delim())) ++admitted;
  }
  // Four racing shutdowns: each must return only once all admitted work
  // is complete and the workers are joined, and none may crash or hang.
  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) {
    closers.emplace_back([&runtime] { runtime.Shutdown(); });
  }
  for (auto& t : closers) t.join();

  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.completed, admitted);
  EXPECT_EQ(stats.queue_depth, 0u);

  runtime.Shutdown();  // again, sequentially
  runtime.Drain();     // drain after shutdown is a no-op, not a hang
  core::Status late = runtime.Submit("late", Msg(1));
  EXPECT_EQ(late.code(), core::RunError::kShutdown);
  EXPECT_FALSE(late.message().empty());
}

TEST(RuntimeTest, ExpiredAtEnqueueFastFailsWithoutAdmitting) {
  Sws sws = MakeTwoLevelLogger();
  ServiceRuntime runtime(&sws, LoggerDb());
  OutcomeCollector collector;

  SubmitOptions options;
  options.absolute_deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  options.callback = collector.Callback();
  core::Status status = runtime.Submit("alice", Delim(), std::move(options));
  EXPECT_EQ(status.code(), core::RunError::kDeadlineExceeded);

  runtime.Drain();
  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.expired_at_enqueue, 1u);
  EXPECT_EQ(stats.submitted, 0u);   // never admitted
  EXPECT_EQ(stats.completed, 0u);   // never processed
  EXPECT_EQ(stats.deadline_exceeded, 0u);  // distinct from queued expiry
  EXPECT_TRUE(collector.Take().empty());   // fast-fail fires no callback
}

TEST(RuntimeTest, PrioritySheddingDegradesGracefully) {
  Sws sws = MakeTwoLevelLogger();
  Gate gate;
  RuntimeOptions options;
  options.num_workers = 1;
  options.queue_capacity = 10;
  options.shed.low_occupancy = 0.5;     // low admitted below 5 pending
  options.shed.normal_occupancy = 0.9;  // normal admitted below 9 pending
  options.on_full = RuntimeOptions::OnFull::kReject;
  options.before_process_hook = [&gate](const std::string& id) {
    gate.Block(id);
  };
  ServiceRuntime runtime(&sws, LoggerDb(), options);

  auto submit = [&](Priority p) {
    SubmitOptions so;
    so.priority = p;
    return runtime.Submit("alice", Msg(1), std::move(so));
  };

  ASSERT_TRUE(submit(Priority::kNormal));
  gate.WaitForArrivals(1);  // worker parked; the message still counts as
                            // pending until processed
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(submit(Priority::kNormal));
  // pending = 5 = low limit: low is shed while normal still gets in.
  core::Status low = submit(Priority::kLow);
  EXPECT_EQ(low.code(), core::RunError::kQueueRejected);
  EXPECT_NE(low.message().find("priority"), std::string::npos);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(submit(Priority::kNormal));
  // pending = 9 = normal limit: normal is shed while high still gets in.
  EXPECT_EQ(submit(Priority::kNormal).code(),
            core::RunError::kQueueRejected);
  ASSERT_TRUE(submit(Priority::kHigh));
  // pending = 10 = full queue: now even high is rejected.
  core::Status high = submit(Priority::kHigh);
  EXPECT_EQ(high.code(), core::RunError::kQueueRejected);
  EXPECT_NE(high.message().find("full"), std::string::npos);

  gate.Open();
  runtime.Drain();
  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.shed_low_priority, 1u);  // only the low one was a shed
}

TEST(RuntimeTest, LowPriorityNeverBlocksInBlockMode) {
  Sws sws = MakeTwoLevelLogger();
  Gate gate;
  RuntimeOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.shed.low_occupancy = 0.5;  // low limit = 1 slot
  options.on_full = RuntimeOptions::OnFull::kBlock;
  options.before_process_hook = [&gate](const std::string& id) {
    gate.Block(id);
  };
  ServiceRuntime runtime(&sws, LoggerDb(), options);

  ASSERT_TRUE(runtime.Submit("alice", Msg(1)));
  gate.WaitForArrivals(1);  // low limit reached (1 pending)
  SubmitOptions low;
  low.priority = Priority::kLow;
  // In kBlock mode this must return immediately (shed), not block the
  // producer behind the backlog.
  core::Status status = runtime.Submit("alice", Msg(2), std::move(low));
  EXPECT_EQ(status.code(), core::RunError::kQueueRejected);
  EXPECT_EQ(runtime.Stats().shed_low_priority, 1u);
  gate.Open();
  runtime.Drain();
}

TEST(RuntimeTest, InjectedFaultIsRetriedToSuccess) {
  Sws sws = MakeTwoLevelLogger();
  core::FaultOptions fo;
  fo.fail_first_runs = 1;
  core::FaultInjector injector(fo);
  RuntimeOptions options;
  options.num_workers = 1;
  options.run_options.fault_injector = &injector;
  options.run_options.retry.max_attempts = 3;
  options.run_options.retry.initial_backoff = std::chrono::microseconds(1);
  options.run_options.retry.max_backoff = std::chrono::microseconds(10);
  ServiceRuntime runtime(&sws, LoggerDb(), options);
  OutcomeCollector collector;

  runtime.Submit("alice", Msg(7), collector.Callback());
  runtime.Submit("alice", Delim(), collector.Callback());
  runtime.Drain();

  std::vector<Outcome> outcomes = collector.Take();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_EQ(outcomes[0].attempts, 2u);  // one injected failure + one retry
  ASSERT_TRUE(outcomes[0].session.has_value());
  EXPECT_EQ(outcomes[0].session->commit.inserted, 1u);  // committed once
  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.injected_faults, 0u);  // the request ultimately succeeded
  EXPECT_EQ(stats.sessions_closed, 1u);
}

TEST(RuntimeTest, CircuitBreakerFastFailsThenRecovers) {
  Sws sws = MakeTwoLevelLogger();
  core::FaultOptions fo;
  fo.fail_first_runs = 2;  // the first two runs fail, tripping the breaker
  core::FaultInjector injector(fo);
  RuntimeOptions options;
  options.num_workers = 1;
  options.run_options.fault_injector = &injector;
  options.circuit_breaker.failure_threshold = 2;
  options.circuit_breaker.open_duration = std::chrono::milliseconds(5);
  ServiceRuntime runtime(&sws, LoggerDb(), options);
  OutcomeCollector collector;

  // Two failing sessions open the breaker.
  runtime.Submit("alice", Delim(), collector.Callback());
  runtime.Submit("alice", Delim(), collector.Callback());
  runtime.Drain();
  // While open: fast-fail without running (the injector is healthy now,
  // so a kCircuitOpen outcome proves the run was skipped).
  runtime.Submit("alice", Delim(), collector.Callback());
  runtime.Drain();
  // After the cooldown, the half-open trial runs and closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  runtime.Submit("alice", Msg(9), collector.Callback());
  runtime.Submit("alice", Delim(), collector.Callback());
  runtime.Drain();

  std::vector<Outcome> outcomes = collector.Take();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].status.code(), core::RunError::kInjectedFault);
  EXPECT_EQ(outcomes[1].status.code(), core::RunError::kInjectedFault);
  EXPECT_EQ(outcomes[2].status.code(), core::RunError::kCircuitOpen);
  EXPECT_EQ(outcomes[2].attempts, 0u);  // nothing ran while open
  EXPECT_TRUE(outcomes[3].status.ok()) << outcomes[3].status.ToString();
  ASSERT_TRUE(outcomes[3].session.has_value());
  EXPECT_EQ(outcomes[3].session->commit.inserted, 1u);
  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.injected_faults, 2u);
  EXPECT_EQ(stats.circuit_open, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
}

TEST(RuntimeTest, OpenBreakerShedsBufferedInputOfTheSession) {
  Sws sws = MakeTwoLevelLogger();
  core::FaultOptions fo;
  fo.fail_first_runs = 1;
  core::FaultInjector injector(fo);
  RuntimeOptions options;
  options.num_workers = 1;
  options.run_options.fault_injector = &injector;
  options.circuit_breaker.failure_threshold = 1;
  options.circuit_breaker.open_duration = std::chrono::milliseconds(5);
  ServiceRuntime runtime(&sws, LoggerDb(), options);
  OutcomeCollector collector;

  // One failing session opens the breaker (threshold 1).
  runtime.Submit("alice", Delim(), collector.Callback());
  runtime.Drain();
  // These arrive while open: the non-delimiter is silently shed, the
  // delimiter reports kCircuitOpen.
  runtime.Submit("alice", Msg(1), collector.Callback());
  runtime.Submit("alice", Delim(), collector.Callback());
  runtime.Drain();
  // After the cooldown the session works again — and must NOT see the
  // shed Msg(1): its next session is empty.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  runtime.Submit("alice", Delim(), collector.Callback());
  runtime.Drain();

  std::vector<Outcome> outcomes = collector.Take();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].status.code(), core::RunError::kInjectedFault);
  EXPECT_EQ(outcomes[1].status.code(), core::RunError::kCircuitOpen);
  ASSERT_TRUE(outcomes[2].status.ok());
  EXPECT_EQ(outcomes[2].session->session_length, 0u);  // Msg(1) was shed
}

TEST(RuntimeTest, StatsSnapshotFormats) {
  Sws sws = MakeTwoLevelLogger();
  ServiceRuntime runtime(&sws, LoggerDb());
  runtime.Submit("alice", Msg(1));
  runtime.Submit("alice", Delim());
  runtime.Drain();
  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.total_runs(), 1u);
  EXPECT_GT(stats.ApproxLatencyMicros(0.5), 0u);
  EXPECT_NE(stats.ToString().find("sessions_closed=1"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"sessions_closed\":1"), std::string::npos);
}

TEST(RuntimeTest, MemoStatsAggregateAcrossSessions) {
  // A q0 with two identical successors: both children of the root carry
  // the same (state, timestamp, Msg) label, so every committed session
  // scores exactly one memo hit and one miss. The runtime must surface
  // the per-run counters through SessionOutcome and aggregate them into
  // the stats snapshot.
  rel::Schema schema;
  schema.Add(rel::RelationSchema("Log", {"x"}));
  Sws sws(schema, 1, 3);
  int q0 = sws.AddState("q0");
  int q1 = sws.AddState("q1");
  ConjunctiveQuery pass({Term::Var(0)},
                        {Atom{core::kInputRelation, {Term::Var(0)}}});
  sws.SetTransition(q0,
                    {core::TransitionTarget{q1, core::RelQuery::Cq(pass)},
                     core::TransitionTarget{q1, core::RelQuery::Cq(pass)}});
  ConjunctiveQuery copy_up(
      {Term::Var(0), Term::Var(1), Term::Var(2)},
      {Atom{core::ActRelation(1), {Term::Var(0), Term::Var(1), Term::Var(2)}}});
  sws.SetSynthesis(q0, core::RelQuery::Cq(copy_up));
  sws.SetTransition(q1, {});
  ConjunctiveQuery log_msg(
      {Term::Str("ins"), Term::Str("Log"), Term::Var(0)},
      {Atom{core::kMsgRelation, {Term::Var(0)}}});
  sws.SetSynthesis(q1, core::RelQuery::Cq(log_msg));
  ASSERT_FALSE(sws.Validate().has_value());

  ServiceRuntime runtime(&sws, LoggerDb());
  OutcomeCollector collector;
  for (const char* id : {"alice", "bob"}) {
    runtime.Submit(id, Msg(5), collector.Callback());
    runtime.Submit(id, Delim(), collector.Callback());
  }
  runtime.Drain();

  uint64_t hits = 0, misses = 0;
  for (const Outcome& o : collector.Take()) {
    if (!o.session.has_value()) continue;
    ASSERT_TRUE(o.status.ok());
    EXPECT_EQ(o.session->run_nodes,
              1 + o.session->memo_hits + o.session->memo_misses);
    hits += o.session->memo_hits;
    misses += o.session->memo_misses;
  }
  EXPECT_EQ(hits, 2u);    // one replayed child per session
  EXPECT_EQ(misses, 2u);  // one evaluated child per session

  StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.memo_hits, hits);
  EXPECT_EQ(stats.memo_misses, misses);
  EXPECT_NE(stats.ToString().find("memo_hits=2"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"memo_hits\":2"), std::string::npos);
}

TEST(RuntimeTest, WatchdogCancelsWedgedRunPastGrace) {
  // The cooperative deadline fires at the next cancellation point, so to
  // observe the watchdog *backstop* the run must wedge somewhere no
  // cancellation point executes. The process hook runs inside the
  // published in-flight window, which is exactly that: the watchdog sees
  // an overrunning governed run and cancels it from outside the strand,
  // and the run then fails typed at its first admission check.
  Sws sws = MakeTwoLevelLogger();
  RuntimeOptions options;
  options.num_workers = 1;
  options.num_shards = 1;
  options.governance.enable_watchdog = true;
  options.governance.watchdog_interval = std::chrono::milliseconds(1);
  options.governance.deadline_grace = 1.5;
  std::atomic<int> envelopes{0};
  options.before_process_hook = [&envelopes](const std::string&) {
    // Wedge only the delimiter (second envelope); the payload must be
    // consumed promptly so the delimiter does not expire while queued.
    if (envelopes.fetch_add(1) == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
  };
  ServiceRuntime runtime(&sws, LoggerDb(), options);

  OutcomeCollector collector;
  ASSERT_TRUE(runtime.Submit("wedged", Msg(1), SubmitOptions{}).ok());
  SubmitOptions submit;
  submit.deadline = std::chrono::milliseconds(40);
  submit.callback = collector.Callback();
  ASSERT_TRUE(runtime.Submit("wedged", Delim(), std::move(submit)).ok());
  collector.WaitFor(1);
  runtime.Drain();
  StatsSnapshot stats = runtime.Stats();
  runtime.Shutdown();

  std::vector<Outcome> outcomes = collector.Take();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status.code(), core::RunError::kDeadlineExceeded)
      << outcomes[0].status.ToString();
  EXPECT_NE(outcomes[0].status.message().find("watchdog"), std::string::npos)
      << outcomes[0].status.message();
  EXPECT_EQ(stats.watchdog_cancels, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
}

TEST(RuntimeTest, MemoryPressureLadderShedsAndRecovers) {
  // Synthetic pressure probe drives the degradation ladder
  // deterministically: above the threshold the watchdog ratchets one
  // step per tick up to level 2 (memo off → shed low priority); below
  // recovery_fraction × threshold it unwinds to 0.
  Sws sws = MakeTwoLevelLogger();
  std::atomic<uint64_t> synthetic_bytes{0};
  RuntimeOptions options;
  options.num_workers = 1;
  options.num_shards = 1;
  options.governance.enable_watchdog = true;
  options.governance.watchdog_interval = std::chrono::milliseconds(1);
  options.governance.memory_pressure_bytes = 1000;
  options.governance.recovery_fraction = 0.5;
  options.governance.pressure_probe = [&synthetic_bytes] {
    return synthetic_bytes.load();
  };
  ServiceRuntime runtime(&sws, LoggerDb(), options);

  auto wait_for_level = [&](uint64_t level) {
    for (int i = 0; i < 5000; ++i) {
      if (runtime.Stats().pressure_level == level) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };

  synthetic_bytes = 5000;
  ASSERT_TRUE(wait_for_level(2));

  // Maxed ladder: low-priority work is refused at the door, typed.
  SubmitOptions low;
  low.priority = Priority::kLow;
  core::Status shed = runtime.Submit("other", Delim(), std::move(low));
  EXPECT_EQ(shed.code(), core::RunError::kQueueRejected) << shed.ToString();
  EXPECT_NE(shed.message().find("memory pressure"), std::string::npos)
      << shed.message();

  // ...while normal traffic still commits, degraded (no memo cache).
  OutcomeCollector ok;
  ASSERT_TRUE(runtime.Submit("s", Msg(7), SubmitOptions{}).ok());
  SubmitOptions submit;
  submit.callback = ok.Callback();
  ASSERT_TRUE(runtime.Submit("s", Delim(), std::move(submit)).ok());
  ok.WaitFor(1);
  ASSERT_TRUE(ok.Take()[0].status.ok());

  // Pressure released: the ladder unwinds and low priority is admitted
  // again.
  synthetic_bytes = 100;
  ASSERT_TRUE(wait_for_level(0));
  SubmitOptions low_again;
  low_again.priority = Priority::kLow;
  EXPECT_TRUE(runtime.Submit("s", Msg(8), std::move(low_again)).ok());

  runtime.Drain();
  StatsSnapshot stats = runtime.Stats();
  runtime.Shutdown();
  EXPECT_GE(stats.degradations, 2u);
  EXPECT_GE(stats.tracked_bytes_hwm, 5000u);
  EXPECT_EQ(stats.pressure_level, 0u);
  EXPECT_GE(stats.shed_low_priority, 1u);
}

// A strict checker for the exact JSON subset StatsSnapshot::ToJson
// emits: one flat object of string keys and unsigned integer values, no
// trailing commas, no unescaped control characters, full input consumed.
// Returns the parsed object; fails the test on any deviation.
std::map<std::string, uint64_t> ParseFlatJsonObject(const std::string& json) {
  std::map<std::string, uint64_t> fields;
  size_t i = 0;
  auto fail = [&](const std::string& why) {
    ADD_FAILURE() << "invalid JSON at byte " << i << ": " << why << "\n"
                  << json;
  };
  if (i >= json.size() || json[i] != '{') {
    fail("expected '{'");
    return fields;
  }
  ++i;
  bool first = true;
  while (i < json.size() && json[i] != '}') {
    if (!first) {
      if (json[i] != ',') {
        fail("expected ','");
        return fields;
      }
      ++i;
    }
    first = false;
    if (i >= json.size() || json[i] != '"') {
      fail("expected '\"' opening a key");
      return fields;
    }
    ++i;
    std::string key;
    while (i < json.size() && json[i] != '"') {
      unsigned char c = json[i];
      if (c < 0x20) {
        fail("unescaped control character in key");
        return fields;
      }
      if (c == '\\') {
        if (i + 1 >= json.size()) {
          fail("truncated escape");
          return fields;
        }
        key.push_back(json[i + 1]);  // keeps the raw escaped char
        i += 2;
        continue;
      }
      key.push_back(static_cast<char>(c));
      ++i;
    }
    if (i >= json.size()) {
      fail("unterminated key");
      return fields;
    }
    ++i;  // closing quote
    if (i >= json.size() || json[i] != ':') {
      fail("expected ':'");
      return fields;
    }
    ++i;
    if (i >= json.size() || json[i] < '0' || json[i] > '9') {
      fail("expected an unsigned integer value");
      return fields;
    }
    uint64_t value = 0;
    while (i < json.size() && json[i] >= '0' && json[i] <= '9') {
      value = value * 10 + static_cast<uint64_t>(json[i] - '0');
      ++i;
    }
    if (!fields.emplace(key, value).second) {
      fail("duplicate key: " + key);
      return fields;
    }
  }
  if (i >= json.size() || json[i] != '}') {
    fail("expected '}'");
    return fields;
  }
  ++i;
  if (i != json.size()) fail("trailing bytes after the object");
  return fields;
}

TEST(RuntimeStatsTest, ToJsonIsStrictlyValidAndComplete) {
  Sws sws = MakeTwoLevelLogger();
  RuntimeOptions options;
  options.num_workers = 2;
  ServiceRuntime runtime(&sws, LoggerDb(), options);
  for (int i = 0; i < 5; ++i) {
    runtime.Submit("s" + std::to_string(i), Msg(i));
    runtime.Submit("s" + std::to_string(i), Delim());
  }
  runtime.Drain();

  StatsSnapshot stats = runtime.Stats();
  std::map<std::string, uint64_t> fields = ParseFlatJsonObject(stats.ToJson());
  // Every counter the snapshot carries must appear, with the value the
  // snapshot holds — ToJson must not drift from the struct.
  const std::pair<const char*, uint64_t> expected[] = {
      {"submitted", stats.submitted},
      {"rejected", stats.rejected},
      {"completed", stats.completed},
      {"sessions_closed", stats.sessions_closed},
      {"deadline_exceeded", stats.deadline_exceeded},
      {"budget_exceeded", stats.budget_exceeded},
      {"injected_faults", stats.injected_faults},
      {"circuit_open", stats.circuit_open},
      {"retries", stats.retries},
      {"shed_low_priority", stats.shed_low_priority},
      {"expired_at_enqueue", stats.expired_at_enqueue},
      {"memo_hits", stats.memo_hits},
      {"memo_misses", stats.memo_misses},
      {"storage_failures", stats.storage_failures},
      {"journal_appends", stats.journal_appends},
      {"snapshots", stats.snapshots},
      {"fuel_exhausted", stats.fuel_exhausted},
      {"watchdog_cancels", stats.watchdog_cancels},
      {"degradations", stats.degradations},
      {"memo_evictions", stats.memo_evictions},
      {"tracked_bytes_hwm", stats.tracked_bytes_hwm},
      {"pressure_level", stats.pressure_level},
      {"queue_depth", stats.queue_depth},
      {"replication_acks", stats.replication_acks},
      {"replication_timeouts", stats.replication_timeouts},
      {"promotions", stats.promotions},
      {"segments_shipped", stats.segments_shipped},
      {"follower_lag_hwm", stats.follower_lag_hwm},
      {"peer_suspicions", stats.peer_suspicions},
      {"auto_promotions", stats.auto_promotions},
      {"epoch_fencing_rejects", stats.epoch_fencing_rejects},
      {"catchup_bytes_shipped", stats.catchup_bytes_shipped},
      {"net_conns_accepted", stats.net_conns_accepted},
      {"net_conns_reaped", stats.net_conns_reaped},
      {"net_frames_rejected", stats.net_frames_rejected},
      {"net_bytes_shed", stats.net_bytes_shed},
      {"runs", stats.total_runs()},
  };
  for (const auto& [key, value] : expected) {
    ASSERT_EQ(fields.count(key), 1u) << "missing field: " << key;
    EXPECT_EQ(fields.at(key), value) << "wrong value for: " << key;
  }
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.sessions_closed, 5u);
  EXPECT_EQ(fields.count("p50_us"), 1u);
  EXPECT_EQ(fields.count("p99_us"), 1u);
  // ToString carries the replication counters too (all zero here —
  // replicas=0 leaves the single-node path alone).
  const std::string text = stats.ToString();
  for (const char* field :
       {"replication_acks=0", "replication_timeouts=0", "promotions=0",
        "segments_shipped=0", "follower_lag_hwm=0", "peer_suspicions=0",
        "auto_promotions=0", "epoch_fencing_rejects=0",
        "catchup_bytes_shipped=0", "net_conns_accepted=0",
        "net_conns_reaped=0", "net_frames_rejected=0", "net_bytes_shed=0"}) {
    EXPECT_NE(text.find(field), std::string::npos) << "missing: " << field;
  }
}

// Regression for the durable submit path: Drain() (and the shard
// snapshots it can trigger) racing Submit() of durable sessions from
// another thread must neither lose outcomes nor trip TSan — the drain
// role, not a lock, is what serializes `sessions_` and the shard's
// journal. Run under TSan via the tsan preset (runtime_test is in its
// filter).
TEST(RuntimeTest, DurableDrainRacesSubmit) {
  char tmpl[] = "/tmp/sws_runtime_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);

  Sws sws = MakeTwoLevelLogger();
  RuntimeOptions options;
  options.num_workers = 4;
  options.num_shards = 4;
  options.durability.dir = dir;
  // Snapshot on nearly every append so Drain's snapshot path runs
  // *while* the producer keeps submitting.
  options.durability.snapshot_interval_appends = 2;
  options.durability.segment_bytes = 4096;
  {
    ServiceRuntime runtime(&sws, LoggerDb(), options);
    OutcomeCollector collector;

    constexpr int kSessions = 64;
    std::thread producer([&] {
      for (int i = 0; i < kSessions; ++i) {
        const std::string id = "race-" + std::to_string(i);
        EXPECT_TRUE(runtime.Submit(id, Msg(i)).ok());
        EXPECT_TRUE(runtime.Submit(id, Delim(), collector.Callback()).ok());
      }
    });
    // Drain concurrently with the producer: each call must return (no
    // deadlock with snapshotting shards) and must never count work twice.
    for (int i = 0; i < 50; ++i) runtime.Drain();
    producer.join();
    runtime.Drain();

    std::vector<Outcome> outcomes = collector.Take();
    ASSERT_EQ(outcomes.size(), static_cast<size_t>(kSessions));
    for (const Outcome& o : outcomes) {
      EXPECT_TRUE(o.status.ok()) << o.status.ToString();
    }
    StatsSnapshot stats = runtime.Stats();
    EXPECT_EQ(stats.storage_failures, 0u);
    EXPECT_EQ(stats.sessions_closed, static_cast<uint64_t>(kSessions));
    EXPECT_GE(stats.snapshots, 1u);
    EXPECT_GE(stats.journal_appends, static_cast<uint64_t>(2 * kSessions));
    runtime.Shutdown();
  }

  // The durable directory must recover to exactly the submitted world.
  RuntimeOptions reopen = options;
  ServiceRuntime recovered(&sws, LoggerDb(), reopen);
  ASSERT_NE(recovered.recovery(), nullptr);
  EXPECT_TRUE(recovered.recovery()->status.ok());
  EXPECT_EQ(recovered.recovery()->sessions.size(), 64u);
  EXPECT_TRUE(recovered.recovery()->replayed.empty());
  recovered.Shutdown();

  std::vector<persistence::DurableFile> files;
  if (persistence::ListDurableFiles(dir, &files).ok()) {
    for (const persistence::DurableFile& f : files) {
      ::unlink((std::string(dir) + "/" + f.name).c_str());
    }
  }
  ::rmdir(dir);
}

}  // namespace
}  // namespace sws::rt
