// Deterministic unit tests for the fault-tolerance layer: the error
// taxonomy (Status/RunError), the seeded FaultInjector, retry with
// capped decorrelated-jitter backoff, and the per-session circuit
// breaker state machine. Everything here is single-threaded and seeded —
// the chaos harness (chaos_test.cc) covers the concurrent side.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "logic/cq.h"
#include "persistence/durability.h"
#include "relational/database.h"
#include "runtime/circuit_breaker.h"
#include "runtime/runtime.h"
#include "sws/fault.h"
#include "sws/governor.h"
#include "sws/session.h"
#include "sws/status.h"
#include "sws/sws.h"
#include "util/common.h"

namespace sws::core {
namespace {

using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;
using rel::Relation;
using rel::Value;
using rt::CircuitBreaker;
using rt::CircuitBreakerPolicy;

// The depth-2 logger of session_test: each session commits its first
// message's value into Log.
Sws MakeTwoLevelLogger() {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("Log", {"x"}));
  Sws sws(schema, 1, 3);
  int q0 = sws.AddState("q0");
  int q1 = sws.AddState("q1");
  ConjunctiveQuery pass({Term::Var(0)},
                        {Atom{kInputRelation, {Term::Var(0)}}});
  sws.SetTransition(q0, {TransitionTarget{q1, RelQuery::Cq(pass)}});
  ConjunctiveQuery copy_up(
      {Term::Var(0), Term::Var(1), Term::Var(2)},
      {Atom{ActRelation(1), {Term::Var(0), Term::Var(1), Term::Var(2)}}});
  sws.SetSynthesis(q0, RelQuery::Cq(copy_up));
  sws.SetTransition(q1, {});
  ConjunctiveQuery log_msg({Term::Str("ins"), Term::Str("Log"), Term::Var(0)},
                           {Atom{kMsgRelation, {Term::Var(0)}}});
  sws.SetSynthesis(q1, RelQuery::Cq(log_msg));
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

TEST(StatusTest, OkAndErrors) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(ok.code(), RunError::kNone);
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = Status::Error(RunError::kBudgetExceeded, "50 nodes");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), RunError::kBudgetExceeded);
  EXPECT_EQ(err.ToString(), "BUDGET_EXCEEDED: 50 nodes");
  EXPECT_STREQ(RunErrorName(RunError::kCircuitOpen), "CIRCUIT_OPEN");
  EXPECT_STREQ(RunErrorName(RunError::kInjectedFault), "INJECTED_FAULT");
}

TEST(StatusTest, RetryabilityIsTransientOnly) {
  EXPECT_TRUE(IsRetryable(RunError::kInjectedFault));
  // Budget trips are deterministic in (D, I); deadline/queue/shutdown
  // are terminal for the request — none of them may be retried.
  EXPECT_FALSE(IsRetryable(RunError::kBudgetExceeded));
  EXPECT_FALSE(IsRetryable(RunError::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryable(RunError::kQueueRejected));
  EXPECT_FALSE(IsRetryable(RunError::kShutdown));
  EXPECT_FALSE(IsRetryable(RunError::kCircuitOpen));
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultOptions options;
  options.seed = 1234;
  options.fail_rate = 0.3;
  FaultInjector a(options);
  FaultInjector b(options);
  std::vector<bool> da, db;
  for (int i = 0; i < 200; ++i) da.push_back(a.OnRunAttempt());
  for (int i = 0; i < 200; ++i) db.push_back(b.OnRunAttempt());
  EXPECT_EQ(da, db);
  EXPECT_EQ(a.injected_failures(), b.injected_failures());
  EXPECT_GT(a.injected_failures(), 0u);   // ~60 expected of 200
  EXPECT_LT(a.injected_failures(), 200u);
  EXPECT_EQ(a.run_attempts(), 200u);
}

TEST(FaultInjectorTest, RateEdges) {
  FaultOptions never;
  never.fail_rate = 0.0;
  FaultInjector off(never);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(off.OnRunAttempt());

  FaultOptions always;
  always.fail_rate = 1.0;
  FaultInjector on(always);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(on.OnRunAttempt());
  EXPECT_EQ(on.injected_failures(), 50u);
}

TEST(FaultInjectorTest, FailFirstRunsExactly) {
  FaultOptions options;
  options.fail_first_runs = 3;
  FaultInjector injector(options);
  EXPECT_TRUE(injector.OnRunAttempt());
  EXPECT_TRUE(injector.OnRunAttempt());
  EXPECT_TRUE(injector.OnRunAttempt());
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(injector.OnRunAttempt());
  EXPECT_EQ(injector.injected_failures(), 3u);
}

TEST(BackoffTest, BoundedDeterministicAndJittered) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::microseconds(100);
  policy.max_backoff = std::chrono::microseconds(2'000);
  policy.jitter_seed = 7;

  Backoff a(policy, /*stream=*/1);
  Backoff b(policy, /*stream=*/1);
  Backoff other(policy, /*stream=*/2);
  bool any_difference = false;
  for (int i = 0; i < 32; ++i) {
    auto wa = a.Next();
    EXPECT_EQ(wa, b.Next());  // deterministic per (seed, stream)
    EXPECT_GE(wa.count(), policy.initial_backoff.count());
    EXPECT_LE(wa.count(), policy.max_backoff.count());
    if (other.Next() != wa) any_difference = true;
  }
  EXPECT_TRUE(any_difference);  // distinct streams decorrelate
}

TEST(ExecutionFaultTest, InjectedFaultAbortsRunWithEmptyOutput) {
  Sws sws = MakeTwoLevelLogger();
  FaultOptions fo;
  fo.fail_first_runs = 1;
  FaultInjector injector(fo);
  RunOptions options;
  options.fault_injector = &injector;

  rel::InputSequence input(1);
  input.Append(Msg(7));
  RunResult failed = ::sws::core::Run(sws, LoggerDb(), input, options);
  EXPECT_EQ(failed.status.code(), RunError::kInjectedFault);
  EXPECT_TRUE(failed.output.empty());
  EXPECT_EQ(failed.num_nodes, 0u);  // aborted before any node

  RunResult healthy = ::sws::core::Run(sws, LoggerDb(), input, options);
  EXPECT_TRUE(healthy.status.ok());
  EXPECT_FALSE(healthy.output.empty());
}

TEST(SessionRetryTest, TransientFaultRetriedUntilSuccess) {
  Sws sws = MakeTwoLevelLogger();
  FaultOptions fo;
  fo.fail_first_runs = 2;
  FaultInjector injector(fo);
  RunOptions options;
  options.fault_injector = &injector;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = std::chrono::microseconds(1);
  options.retry.max_backoff = std::chrono::microseconds(10);

  SessionRunner runner(&sws, LoggerDb());
  runner.Feed(Msg(42), options);
  auto outcome = runner.Feed(SessionRunner::DelimiterMessage(1), options);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->status.ok()) << outcome->status.ToString();
  EXPECT_EQ(outcome->attempts, 3u);  // two injected failures, then success
  // Replay-safe: despite three run attempts, exactly one commit landed.
  EXPECT_EQ(outcome->commit.inserted, 1u);
  EXPECT_EQ(runner.db().Get("Log").size(), 1u);
}

TEST(SessionRetryTest, ExhaustedRetriesSurfaceInjectedFault) {
  Sws sws = MakeTwoLevelLogger();
  FaultOptions fo;
  fo.fail_first_runs = 10;
  FaultInjector injector(fo);
  RunOptions options;
  options.fault_injector = &injector;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = std::chrono::microseconds(1);
  options.retry.max_backoff = std::chrono::microseconds(10);

  SessionRunner runner(&sws, LoggerDb());
  runner.Feed(Msg(42), options);
  auto outcome = runner.Feed(SessionRunner::DelimiterMessage(1), options);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status.code(), RunError::kInjectedFault);
  EXPECT_EQ(outcome->attempts, 3u);
  EXPECT_TRUE(outcome->output.empty());
  EXPECT_EQ(outcome->commit.inserted, 0u);       // nothing committed
  EXPECT_TRUE(runner.db().Get("Log").empty());
  EXPECT_EQ(runner.buffered(), 0u);  // failed session discarded, stream lives

  // The stream continues once the fault clears (fail_first_runs exhausts
  // at attempt 10; the next delimiter's attempts get healthy draws).
  runner.Feed(Msg(43), options);
  runner.Feed(Msg(44), options);
  injector.OnRunAttempt();  // burn attempts 4..10 so the next run is clean
  for (int i = 0; i < 6; ++i) injector.OnRunAttempt();
  auto next = runner.Feed(SessionRunner::DelimiterMessage(1), options);
  ASSERT_TRUE(next.has_value());
  EXPECT_TRUE(next->status.ok());
}

TEST(SessionRetryTest, DeadlineStopsRetrying) {
  Sws sws = MakeTwoLevelLogger();
  FaultOptions fo;
  fo.fail_first_runs = 100;
  FaultInjector injector(fo);
  RunOptions options;
  options.fault_injector = &injector;
  options.retry.max_attempts = 50;
  options.retry.initial_backoff = std::chrono::microseconds(1);
  options.retry.max_backoff = std::chrono::microseconds(10);
  // The deadline is already over: the first failed attempt may not be
  // retried, and the request reports the deadline, not the fault.
  options.deadline = std::chrono::steady_clock::now();

  SessionRunner runner(&sws, LoggerDb());
  runner.Feed(Msg(1), options);
  auto outcome = runner.Feed(SessionRunner::DelimiterMessage(1), options);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status.code(), RunError::kDeadlineExceeded);
  EXPECT_EQ(outcome->attempts, 1u);  // no retry past the deadline
  EXPECT_EQ(outcome->commit.inserted, 0u);
}

TEST(SessionTest, DiscardPendingDropsBufferedInput) {
  Sws sws = MakeTwoLevelLogger();
  SessionRunner runner(&sws, LoggerDb());
  runner.Feed(Msg(1));
  runner.Feed(Msg(2));
  EXPECT_EQ(runner.buffered(), 2u);
  runner.DiscardPending();
  EXPECT_EQ(runner.buffered(), 0u);
  auto outcome = runner.Feed(SessionRunner::DelimiterMessage(1));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->session_length, 0u);  // discarded input never ran
  EXPECT_TRUE(runner.db().Get("Log").empty());
}

TEST(CircuitBreakerTest, DisabledBreakerNeverOpens) {
  CircuitBreaker breaker(CircuitBreakerPolicy{});  // threshold 0
  const auto now = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) breaker.OnRunFailure(now);
  EXPECT_EQ(breaker.OnRequest(now), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ClosedToOpenToHalfOpenLifecycle) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_duration = std::chrono::microseconds(1'000);
  CircuitBreaker breaker(policy);
  auto t0 = std::chrono::steady_clock::now();

  // Closed: failures below the threshold keep admitting.
  breaker.OnRunFailure(t0);
  breaker.OnRunFailure(t0);
  EXPECT_EQ(breaker.OnRequest(t0), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 2u);

  // A success resets the streak.
  breaker.OnRunSuccess();
  EXPECT_EQ(breaker.consecutive_failures(), 0u);

  // Threshold consecutive failures open the breaker.
  breaker.OnRunFailure(t0);
  breaker.OnRunFailure(t0);
  breaker.OnRunFailure(t0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.OnRequest(t0 + std::chrono::microseconds(500)),
            CircuitBreaker::State::kOpen);  // cooldown not yet over

  // After the cooldown, one half-open trial is admitted...
  auto t1 = t0 + std::chrono::microseconds(1'500);
  EXPECT_EQ(breaker.OnRequest(t1), CircuitBreaker::State::kHalfOpen);
  // ...whose failure re-opens immediately (no need to re-reach the
  // threshold)...
  breaker.OnRunFailure(t1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.OnRequest(t1 + std::chrono::microseconds(500)),
            CircuitBreaker::State::kOpen);

  // ...and a later successful trial closes the breaker for good.
  auto t2 = t1 + std::chrono::microseconds(1'500);
  EXPECT_EQ(breaker.OnRequest(t2), CircuitBreaker::State::kHalfOpen);
  breaker.OnRunSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
}

TEST(FaultInjectorTest, InjectedDelayInterruptedByCancelledGovernor) {
  // Regression: injected delays/stalls used to be plain sleep_for, so a
  // cancelled run (watchdog, deadline) still slept out the full injected
  // latency. Governed hooks must wake as soon as the governor cancels.
  FaultOptions fo;
  fo.delay_rate = 1.0;
  fo.delay = std::chrono::microseconds(2'000'000);  // 2s if uninterrupted
  fo.stall_rate = 1.0;
  fo.stall = std::chrono::microseconds(2'000'000);
  FaultInjector injector(fo);
  ExecutionGovernor gov;
  gov.Cancel(RunError::kDeadlineExceeded, "already cancelled");

  auto start = std::chrono::steady_clock::now();
  injector.OnRunAttempt(&gov);
  injector.OnDrainStep(&gov);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "injected sleeps ignored the cancelled governor";
}

TEST(FaultInjectorTest, InjectedDelayInterruptedMidSleep) {
  FaultOptions fo;
  fo.delay_rate = 1.0;
  fo.delay = std::chrono::microseconds(10'000'000);  // 10s if uninterrupted
  FaultInjector injector(fo);
  ExecutionGovernor gov;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gov.Cancel(RunError::kDeadlineExceeded, "watchdog");
  });
  const auto start = std::chrono::steady_clock::now();
  injector.OnRunAttempt(&gov);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(FaultInjectorTest, GovernedDelayStillWaitsWhenHealthy) {
  // The interruptible path must not turn injected latency into a no-op:
  // an uncancelled governor sleeps the full delay.
  FaultOptions fo;
  fo.delay_rate = 1.0;
  fo.delay = std::chrono::microseconds(30'000);
  FaultInjector injector(fo);
  ExecutionGovernor gov;
  const auto start = std::chrono::steady_clock::now();
  injector.OnRunAttempt(&gov);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(30));
  EXPECT_FALSE(gov.cancelled());
}

TEST(FaultInjectorTest, ArmedStorageFaultsFireExactly) {
  FaultInjector injector(FaultOptions{});  // all rates zero
  injector.ArmTornWrites(2);
  EXPECT_TRUE(injector.OnJournalAppend());
  EXPECT_TRUE(injector.OnJournalAppend());
  EXPECT_FALSE(injector.OnJournalAppend());  // armed count exhausted
  EXPECT_EQ(injector.injected_torn_writes(), 2u);

  injector.ArmShortReads(1);
  EXPECT_TRUE(injector.OnJournalRead());
  EXPECT_FALSE(injector.OnJournalRead());
  EXPECT_EQ(injector.injected_short_reads(), 1u);
}

TEST(FaultInjectorTest, StorageFaultStreamsAreSeededAndIndependent) {
  FaultOptions options;
  options.seed = 7;
  options.torn_write_rate = 0.5;
  options.short_read_rate = 0.5;
  FaultInjector a(options), b(options);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.OnJournalAppend(), b.OnJournalAppend());
    EXPECT_EQ(a.OnJournalRead(), b.OnJournalRead());
  }
  // Both rates 0.5 over 200 draws: each stream must fire at least once
  // and skip at least once, and the two streams must not be identical
  // (distinct salts).
  EXPECT_GT(a.injected_torn_writes(), 0u);
  EXPECT_LT(a.injected_torn_writes(), 200u);
  EXPECT_GT(a.injected_short_reads(), 0u);
  EXPECT_LT(a.injected_short_reads(), 200u);
}

// The seed-derivation rule documented on FaultInjector::Draw — the n-th
// arrival at point p decides from SplitMix64(seed ^ salt(p) ^ n·φ64),
// with n the point's own counter — makes every point an independent
// stream. This regression pins the property the replication transport
// leans on: its drop/duplicate/reorder/delay points interleave with the
// storage points arbitrarily under load, yet the same seed must yield
// the same per-point decision sequence no matter how draws on
// *different* points interleave.
TEST(FaultInjectorTest, CrossPointInterleavingNeverShiftsAPointsStream) {
  FaultOptions options;
  options.seed = 0xfeedface;
  constexpr double kRate = 0.5;
  const FaultPoint points[] = {
      FaultPoint::kTransportDrop, FaultPoint::kTransportDuplicate,
      FaultPoint::kTransportReorder, FaultPoint::kTransportDelay,
      FaultPoint::kTornWrite};
  constexpr size_t kPoints = 5;
  constexpr int kDraws = 100;

  // Three same-seed injectors, three interleavings: round-robin across
  // points, point-at-a-time, and a seeded shuffle.
  FaultInjector a(options), b(options), c(options);
  std::vector<bool> da[kPoints], db[kPoints], dc[kPoints];
  for (int i = 0; i < kDraws; ++i) {
    for (size_t p = 0; p < kPoints; ++p) {
      da[p].push_back(a.Draw(points[p], kRate));
    }
  }
  for (size_t p = 0; p < kPoints; ++p) {
    for (int i = 0; i < kDraws; ++i) {
      db[p].push_back(b.Draw(points[p], kRate));
    }
  }
  std::vector<size_t> order;
  for (size_t p = 0; p < kPoints; ++p) {
    order.insert(order.end(), kDraws, p);
  }
  uint64_t shuffle_state = 99;
  for (size_t i = order.size(); i > 1; --i) {
    shuffle_state = SplitMix64(shuffle_state);
    std::swap(order[i - 1], order[shuffle_state % i]);
  }
  for (size_t p : order) dc[p].push_back(c.Draw(points[p], kRate));

  for (size_t p = 0; p < kPoints; ++p) {
    EXPECT_EQ(da[p], db[p]) << "point " << p << " shifted by interleaving";
    EXPECT_EQ(da[p], dc[p]) << "point " << p << " shifted by interleaving";
    // At rate 0.5 over 100 draws each stream fires and skips; and the
    // streams differ pairwise (distinct salts), so the equality above is
    // not vacuous.
    const size_t fired = std::count(da[p].begin(), da[p].end(), true);
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, static_cast<size_t>(kDraws));
    if (p > 0) {
      EXPECT_NE(da[p], da[0]);
    }
  }
}

// The satellite regression of PR 4: a half-open breaker probe that hits
// an injected torn write on its *journal append* must count as a probe
// failure and re-trip the breaker to open — storage failures are
// failures, and a session whose journal cannot accept its inputs must
// not be half-open-probed into feeding unjournaled messages.
TEST(CircuitBreakerRuntimeTest, HalfOpenProbeTornWriteReTripsToOpen) {
  char tmpl[] = "/tmp/sws_fault_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);

  Sws sws = MakeTwoLevelLogger();
  FaultOptions fault_options;
  fault_options.fail_first_runs = 1;  // the run that opens the breaker
  FaultInjector injector(fault_options);

  rt::RuntimeOptions options;
  options.num_workers = 1;
  options.run_options.fault_injector = &injector;
  options.circuit_breaker.failure_threshold = 1;
  options.circuit_breaker.open_duration = std::chrono::milliseconds(50);
  options.durability.dir = dir;
  options.durability.fsync = persistence::FsyncPolicy::kAlways;
  rt::ServiceRuntime runtime(&sws, LoggerDb(), options);

  std::mutex mu;
  std::vector<RunError> codes;
  auto record = [&](rt::Outcome outcome) {
    std::lock_guard<std::mutex> lock(mu);
    codes.push_back(outcome.status.code());
  };

  // 1. One injected run failure opens the breaker (threshold 1).
  ASSERT_TRUE(runtime.Submit("alice", SessionRunner::DelimiterMessage(1),
                             record).ok());
  runtime.Drain();
  // 2. While open: fast-fail, nothing runs, nothing is journaled.
  ASSERT_TRUE(runtime.Submit("alice", SessionRunner::DelimiterMessage(1),
                             record).ok());
  runtime.Drain();
  // 3. After the cooldown the next delimiter is the half-open probe; its
  //    write-ahead input append is armed to tear.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  injector.ArmTornWrites(1);
  ASSERT_TRUE(runtime.Submit("alice", SessionRunner::DelimiterMessage(1),
                             record).ok());
  runtime.Drain();
  // 4. The probe's storage failure must have re-tripped the breaker:
  //    immediately after, the session is open again (fast-fail without
  //    touching the journal — nothing is buffered, so there is no
  //    discard to record).
  ASSERT_TRUE(runtime.Submit("alice", SessionRunner::DelimiterMessage(1),
                             record).ok());
  runtime.Drain();
  // 5. One torn write costs one record, not the shard: after another
  //    cooldown the next probe's append rotates the poisoned segment
  //    away and lands on a fresh one, so the probe runs and succeeds.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ASSERT_TRUE(runtime.Submit("alice", SessionRunner::DelimiterMessage(1),
                             record).ok());
  runtime.Drain();
  runtime.Shutdown();

  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(codes.size(), 5u);
    EXPECT_EQ(codes[0], RunError::kInjectedFault);
    EXPECT_EQ(codes[1], RunError::kCircuitOpen);
    EXPECT_EQ(codes[2], RunError::kStorageFailure);  // the torn probe
    EXPECT_EQ(codes[3], RunError::kCircuitOpen);     // re-tripped
    EXPECT_EQ(codes[4], RunError::kNone);            // healed by rotation
  }
  EXPECT_EQ(injector.injected_torn_writes(), 1u);
  EXPECT_GE(runtime.Stats().storage_failures, 1u);

  std::vector<persistence::DurableFile> files;
  if (persistence::ListDurableFiles(dir, &files).ok()) {
    for (const persistence::DurableFile& f : files) {
      ::unlink((std::string(dir) + "/" + f.name).c_str());
    }
  }
  ::rmdir(dir);
}

}  // namespace
}  // namespace sws::core
