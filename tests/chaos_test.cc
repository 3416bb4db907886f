// Chaos harness for the fault-tolerant runtime: many producer threads
// push >10k messages through a ServiceRuntime configured with a seeded
// fault injector (random run failures, artificial latency, shard
// stalls), retry, circuit breaking, per-message deadlines and mixed
// priorities — then every schedule-independent invariant is checked:
//
//  * per-session FIFO: callbacks for one session arrive in submission
//    order;
//  * no lost / no double-reported sessions: every admitted delimiter
//    produces exactly one outcome;
//  * stats totals are consistent with the per-outcome statuses.
//
// The injector's draw sequence is deterministic (seeded), the thread
// interleaving is not; the invariants hold for every schedule. Run under
// TSan (ctest label: chaos) this doubles as the data-race gate for the
// whole fault path.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "logic/cq.h"
#include "logic/fo.h"
#include "runtime/runtime.h"
#include "sws/execution.h"
#include "sws/session.h"
#include "util/common.h"

namespace sws::rt {
namespace {

using core::RunError;
using core::SessionRunner;
using core::Sws;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;
using rel::Relation;
using rel::Value;

// The depth-2 logger (see session_test.cc): cheap per-run, commits its
// first message per session.
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

// A two-level logger whose commit query is an FO ∀ tautology over the
// message: ∀x0..x_{d-1} (Msg(x0) ∧ … ∧ Msg(x_{d-1}) ∧ x0≠x1 ∧ … ∧
// x_{d-2}≠x_{d-1} → ∃z (Msg(z) ∧ z≠x_{d-1})), with d = `depth`.
// Evaluation walks every chain of distinct message values and checks the
// conclusion at each; the ≠ chain keeps the premise one connected
// component, so no split into components makes that cheap. A one-value
// message has no chain and costs microseconds, while a 40-value message
// costs 40·39^(d-1) checks — seconds — so a single session can hog the
// service without changing anything for its neighbours.
Sws MakeGovernedLogger(int depth) {
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
  auto msg = [](int v) {
    return logic::FoFormula::MakeAtom(core::kMsgRelation, {Term::Var(v)});
  };
  std::vector<logic::FoFormula> premise;
  std::vector<int> vars;
  for (int i = 0; i < depth; ++i) {
    premise.push_back(msg(i));
    if (i > 0) {
      premise.push_back(
          logic::FoFormula::Neq(Term::Var(i - 1), Term::Var(i)));
    }
    vars.push_back(i);
  }
  logic::FoFormula conclusion = logic::FoFormula::Exists(
      depth,
      logic::FoFormula::And(msg(depth), logic::FoFormula::Neq(
                                            Term::Var(depth),
                                            Term::Var(depth - 1))));
  logic::FoFormula body = logic::FoFormula::Forall(
      vars, logic::FoFormula::Implies(logic::FoFormula::And(std::move(premise)),
                                      std::move(conclusion)));
  sws.SetSynthesis(
      q1, core::RelQuery::Fo(logic::FoQuery(
              {Term::Str("ins"), Term::Str("Log"), Term::Int(1)},
              std::move(body))));
  SWS_CHECK(!sws.Validate().has_value()) << *sws.Validate();
  return sws;
}

struct Delivery {
  uint64_t seq;          // per-session submission sequence number
  bool is_delimiter;
  RunError code;
  uint32_t attempts;
  // Execution accounting from the committed run (ok outcomes only).
  uint64_t run_nodes = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
};

// Thread-safe record of every callback, keyed by session.
class DeliveryLog {
 public:
  void Record(const std::string& session_id, Delivery d) {
    std::lock_guard<std::mutex> lock(mu_);
    per_session_[session_id].push_back(d);
  }
  std::map<std::string, std::vector<Delivery>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return per_session_;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<Delivery>> per_session_;
};

// What one producer admitted, collected after the threads join (each
// producer owns its own sessions, so no locking is needed here).
struct AdmittedStream {
  std::map<std::string, std::vector<uint64_t>> delimiter_seqs;
  std::map<std::string, std::vector<uint64_t>> message_seqs;  // incl. delims
  uint64_t attempted = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
};

TEST(ChaosTest, InvariantsHoldUnderRandomizedFaults) {
  Sws sws = MakeTwoLevelLogger();

  core::FaultOptions fault_options;
  fault_options.seed = 20260806;
  fault_options.fail_rate = 0.15;
  fault_options.delay_rate = 0.01;
  fault_options.delay = std::chrono::microseconds(50);
  fault_options.stall_rate = 0.005;
  fault_options.stall = std::chrono::microseconds(100);
  core::FaultInjector injector(fault_options);

  RuntimeOptions options;
  options.num_workers = 4;
  options.num_shards = 16;
  options.queue_capacity = 1024;
  // kBlock throttles the producers so the bulk of the 11k messages is
  // actually processed (exercising the fault paths) while low-priority
  // traffic is still shed under backlog (exercising degradation).
  options.on_full = RuntimeOptions::OnFull::kBlock;
  options.run_options.fault_injector = &injector;
  options.run_options.retry.max_attempts = 2;
  options.run_options.retry.initial_backoff = std::chrono::microseconds(5);
  options.run_options.retry.max_backoff = std::chrono::microseconds(50);
  options.circuit_breaker.failure_threshold = 3;
  options.circuit_breaker.open_duration = std::chrono::microseconds(200);
  ServiceRuntime runtime(&sws, LoggerDb(), options);

  constexpr int kProducers = 4;
  constexpr int kSessionsPerProducer = 25;
  constexpr int kRoundsPerSession = 22;   // committed sessions per stream
  constexpr int kMessagesPerRound = 5;    // 4 payloads + 1 delimiter
  constexpr uint64_t kTotalMessages = static_cast<uint64_t>(kProducers) *
                                      kSessionsPerProducer * kRoundsPerSession *
                                      kMessagesPerRound;
  static_assert(kTotalMessages >= 10'000, "the harness must push >=10k");

  DeliveryLog log;
  std::vector<AdmittedStream> streams(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      AdmittedStream& stream = streams[p];
      std::map<std::string, uint64_t> next_seq;
      for (int round = 0; round < kRoundsPerSession; ++round) {
        for (int s = 0; s < kSessionsPerProducer; ++s) {
          const std::string id =
              "p" + std::to_string(p) + "-s" + std::to_string(s);
          for (int m = 0; m < kMessagesPerRound; ++m) {
            const bool is_delimiter = m == kMessagesPerRound - 1;
            const uint64_t seq = next_seq[id]++;
            SubmitOptions submit;
            // Mixed priority classes and an occasional tight deadline —
            // under load some of these expire while queued, which is part
            // of what the invariants must survive.
            submit.priority = static_cast<Priority>(seq % 3);
            if (seq % 13 == 0) {
              submit.deadline = std::chrono::milliseconds(5);
            }
            submit.callback = [&log, id, seq, is_delimiter](Outcome o) {
              Delivery d{seq, is_delimiter, o.status.code(), o.attempts};
              if (o.session.has_value()) {
                d.run_nodes = o.session->run_nodes;
                d.memo_hits = o.session->memo_hits;
                d.memo_misses = o.session->memo_misses;
              }
              log.Record(id, std::move(d));
            };
            ++stream.attempted;
            core::Status status =
                runtime.Submit(id, is_delimiter ? SessionRunner::DelimiterMessage(1)
                                                : Msg(static_cast<int64_t>(seq)),
                               std::move(submit));
            if (status.ok()) {
              ++stream.admitted;
              stream.message_seqs[id].push_back(seq);
              if (is_delimiter) stream.delimiter_seqs[id].push_back(seq);
            } else {
              // Relative deadlines are in the future at enqueue, so the
              // only possible Submit failure here is backpressure.
              ASSERT_EQ(status.code(), RunError::kQueueRejected);
              ++stream.rejected;
            }
          }
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  runtime.Drain();
  StatsSnapshot stats = runtime.Stats();
  runtime.Shutdown();

  // Aggregate the producer-side view.
  uint64_t attempted = 0, admitted = 0, rejected = 0;
  std::map<std::string, std::vector<uint64_t>> admitted_delims;
  std::map<std::string, std::vector<uint64_t>> admitted_msgs;
  for (const AdmittedStream& stream : streams) {
    attempted += stream.attempted;
    admitted += stream.admitted;
    rejected += stream.rejected;
    for (const auto& [id, seqs] : stream.delimiter_seqs) {
      admitted_delims[id] = seqs;  // session ids are producer-unique
    }
    for (const auto& [id, seqs] : stream.message_seqs) {
      admitted_msgs[id] = seqs;
    }
  }
  ASSERT_EQ(attempted, kTotalMessages);

  // Nothing admitted is lost: every admitted message was processed.
  EXPECT_EQ(stats.submitted, admitted);
  EXPECT_EQ(stats.completed, admitted);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.expired_at_enqueue, 0u);  // all deadlines were relative

  // Per-session invariants from the callback log.
  std::map<std::string, std::vector<Delivery>> delivered = log.Take();
  uint64_t ok_outcomes = 0, injected = 0, circuit_open = 0, deadline = 0,
           retries = 0, memo_hits = 0, memo_misses = 0;
  for (const auto& [id, deliveries] : delivered) {
    // FIFO: outcome order == submission order (strictly increasing seqs).
    for (size_t i = 1; i < deliveries.size(); ++i) {
      ASSERT_LT(deliveries[i - 1].seq, deliveries[i].seq)
          << "FIFO violated for session " << id;
    }
    // Every delivered seq was actually admitted; non-delimiters only
    // surface when they expired while queued.
    std::vector<uint64_t> delivered_delims;
    for (const Delivery& d : deliveries) {
      ASSERT_TRUE(std::binary_search(admitted_msgs[id].begin(),
                                     admitted_msgs[id].end(), d.seq))
          << "callback for a non-admitted message in session " << id;
      if (d.is_delimiter) {
        delivered_delims.push_back(d.seq);
      } else {
        ASSERT_EQ(d.code, RunError::kDeadlineExceeded)
            << "non-delimiter callback without queued expiry in " << id;
      }
      switch (d.code) {
        case RunError::kNone:
          ++ok_outcomes;
          // Memoized-run accounting: every evaluated node is either the
          // single root, a memo hit or a memo miss.
          ASSERT_EQ(d.run_nodes, 1 + d.memo_hits + d.memo_misses)
              << "memo accounting broken in session " << id;
          memo_hits += d.memo_hits;
          memo_misses += d.memo_misses;
          break;
        case RunError::kInjectedFault:
          ++injected;
          break;
        case RunError::kCircuitOpen:
          ++circuit_open;
          break;
        case RunError::kDeadlineExceeded:
          ++deadline;
          break;
        default:
          FAIL() << "unexpected outcome code " << core::RunErrorName(d.code)
                 << " in session " << id;
      }
      if (d.attempts > 1) retries += d.attempts - 1;
    }
    // No lost and no double-reported sessions: the delivered delimiters
    // are exactly the admitted delimiters, in order, once each.
    EXPECT_EQ(delivered_delims, admitted_delims[id])
        << "lost or duplicated session outcome in " << id;
  }

  // Stats totals agree with the sum of per-outcome statuses.
  EXPECT_EQ(stats.sessions_closed, ok_outcomes);
  EXPECT_EQ(stats.injected_faults, injected);
  EXPECT_EQ(stats.circuit_open, circuit_open);
  EXPECT_EQ(stats.deadline_exceeded, deadline);
  EXPECT_EQ(stats.retries, retries);
  EXPECT_EQ(stats.budget_exceeded, 0u);  // the logger never trips budgets
  // Memo counters are aggregated only from committed (ok) runs, so they
  // must match the callback-side sums exactly.
  EXPECT_EQ(stats.memo_hits, memo_hits);
  EXPECT_EQ(stats.memo_misses, memo_misses);

  // The injector actually exercised the fault paths (seeded rates on
  // thousands of runs make this deterministic in expectation and robust
  // in practice).
  EXPECT_GT(injector.run_attempts(), 0u);
  EXPECT_GT(injector.injected_failures(), 0u);
  std::cout << "[ chaos  ] " << admitted << "/" << attempted << " admitted, "
            << ok_outcomes << " sessions closed, " << injected
            << " injected faults surfaced, " << retries << " retries, "
            << circuit_open << " circuit-open sheds, " << deadline
            << " deadline drops\n";
}

// Resource-governance containment: one hog session repeatedly submits
// a round whose commit query would run for minutes, under a 100ms
// deadline, while healthy sessions share the runtime. The hog must be
// cancelled in-query (typed kDeadlineExceeded, not wedged), its breaker
// must open and fast-fail the later rounds, and the healthy sessions
// must keep FIFO order and exactly-once delimiter outcomes throughout.
TEST(ChaosTest, HogSessionIsContainedAndBreakerIsolated) {
  // depth 5: a healthy round's one-value message has no chain of two
  // distinct values; the hog's 40-value message has 40·39^4 ≈ 9×10^7
  // chains — seconds of work against a 100ms deadline.
  Sws sws = MakeGovernedLogger(/*depth=*/5);
  auto hog_message = [] {
    Relation m(1);
    for (int v = 0; v < 40; ++v) m.Insert({Value::Int(100 + v)});
    return m;
  };
  // The premise is one component, so the compiled join stays expensive:
  // a hog round does not finish on 10^5 steps of fuel.
  {
    rel::InputSequence input(1);
    input.Append(hog_message());
    core::RunOptions fuel;
    fuel.max_eval_steps = 100'000;
    ASSERT_EQ(core::Run(sws, LoggerDb(), input, fuel).status.code(),
              RunError::kFuelExhausted);
  }

  RuntimeOptions options;
  options.num_workers = 4;
  options.num_shards = 8;
  options.queue_capacity = 1024;
  options.on_full = RuntimeOptions::OnFull::kBlock;
  options.circuit_breaker.failure_threshold = 2;
  options.circuit_breaker.open_duration = std::chrono::seconds(30);
  options.governance.enable_watchdog = true;
  options.governance.watchdog_interval = std::chrono::milliseconds(1);
  options.governance.deadline_grace = 2.0;
  ServiceRuntime runtime(&sws, LoggerDb(), options);

  // Healthy traffic runs concurrently with the hog for the whole test.
  constexpr int kHealthySessions = 8;
  constexpr int kHealthyRounds = 6;
  DeliveryLog log;
  std::thread healthy([&] {
    for (int round = 0; round < kHealthyRounds; ++round) {
      for (int s = 0; s < kHealthySessions; ++s) {
        const std::string id = "h" + std::to_string(s);
        ASSERT_TRUE(
            runtime.Submit(id, Msg(round), SubmitOptions{}).ok());
        SubmitOptions submit;
        const uint64_t seq = static_cast<uint64_t>(round);
        submit.callback = [&log, id, seq](Outcome o) {
          log.Record(id, Delivery{seq, true, o.status.code(), o.attempts});
        };
        ASSERT_TRUE(runtime
                        .Submit(id, SessionRunner::DelimiterMessage(1),
                                std::move(submit))
                        .ok());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  // The hog: serialized rounds so each delimiter is picked up promptly
  // (its deadline budgets the run, not queue time).
  constexpr int kHogRounds = 5;
  std::mutex hog_mu;
  std::condition_variable hog_cv;
  std::vector<RunError> hog_codes;
  for (int r = 0; r < kHogRounds; ++r) {
    ASSERT_TRUE(runtime.Submit("hog", hog_message(), SubmitOptions{}).ok());
    SubmitOptions submit;
    submit.deadline = std::chrono::milliseconds(100);
    submit.callback = [&](Outcome o) {
      std::lock_guard<std::mutex> lock(hog_mu);
      hog_codes.push_back(o.status.code());
      hog_cv.notify_all();
    };
    ASSERT_TRUE(runtime
                    .Submit("hog", SessionRunner::DelimiterMessage(1),
                            std::move(submit))
                    .ok());
    std::unique_lock<std::mutex> lock(hog_mu);
    hog_cv.wait(lock, [&] { return hog_codes.size() > static_cast<size_t>(r); });
  }
  healthy.join();
  runtime.Drain();
  StatsSnapshot stats = runtime.Stats();
  runtime.Shutdown();

  // The hog was contained: every round failed typed — cancelled
  // in-query at its deadline until the breaker opened, fast-failed
  // after — and by the last round the breaker isolation had kicked in.
  ASSERT_EQ(hog_codes.size(), static_cast<size_t>(kHogRounds));
  uint64_t hog_deadline = 0, hog_circuit = 0;
  for (RunError code : hog_codes) {
    ASSERT_TRUE(code == RunError::kDeadlineExceeded ||
                code == RunError::kCircuitOpen)
        << core::RunErrorName(code);
    if (code == RunError::kDeadlineExceeded) ++hog_deadline;
    if (code == RunError::kCircuitOpen) ++hog_circuit;
  }
  EXPECT_GE(hog_deadline, 2u);  // breaker threshold was actually reached
  EXPECT_GE(hog_circuit, 1u);   // and later rounds were shed without running
  EXPECT_EQ(hog_codes.back(), RunError::kCircuitOpen);

  // Healthy sessions were unaffected: every delimiter committed ok,
  // exactly once, in FIFO order.
  std::map<std::string, std::vector<Delivery>> delivered = log.Take();
  uint64_t healthy_ok = 0;
  for (int s = 0; s < kHealthySessions; ++s) {
    const std::string id = "h" + std::to_string(s);
    const auto& deliveries = delivered[id];
    ASSERT_EQ(deliveries.size(), static_cast<size_t>(kHealthyRounds)) << id;
    for (int round = 0; round < kHealthyRounds; ++round) {
      EXPECT_EQ(deliveries[round].seq, static_cast<uint64_t>(round)) << id;
      EXPECT_EQ(deliveries[round].code, RunError::kNone)
          << id << ": " << core::RunErrorName(deliveries[round].code);
      ++healthy_ok;
    }
  }
  EXPECT_EQ(stats.sessions_closed, healthy_ok);
  EXPECT_EQ(stats.deadline_exceeded, hog_deadline);
  EXPECT_EQ(stats.circuit_open, hog_circuit);
  EXPECT_EQ(stats.budget_exceeded, 0u);
  EXPECT_EQ(stats.fuel_exhausted, 0u);
  std::cout << "[ chaos  ] hog contained: " << hog_deadline
            << " in-query deadline cancellations, " << hog_circuit
            << " breaker sheds, " << stats.watchdog_cancels
            << " watchdog cancels; " << healthy_ok
            << " healthy rounds unaffected\n";
}

}  // namespace
}  // namespace sws::rt
