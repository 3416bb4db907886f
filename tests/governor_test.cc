#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "logic/fo.h"
#include "models/sirup_sws.h"
#include "relational/relation.h"
#include "sws/execution.h"
#include "sws/governor.h"
#include "sws/session.h"
#include "sws/sws.h"

namespace sws {
namespace {

using core::ExecutionGovernor;
using core::RunError;
using logic::Term;
using rel::Database;
using rel::Relation;
using rel::Value;

Term V(int i) { return Term::Var(i); }

// ---------------------------------------------------------------------
// Governor unit tests
// ---------------------------------------------------------------------

TEST(GovernorTest, FuelBudgetTripsTyped) {
  ExecutionGovernor::Limits limits;
  limits.max_eval_steps = 100;
  ExecutionGovernor gov(limits);
  EXPECT_TRUE(gov.Admit(100));
  EXPECT_FALSE(gov.Admit(1));  // 101st step exhausts the fuel
  EXPECT_TRUE(gov.cancelled());
  EXPECT_EQ(gov.status().code(), RunError::kFuelExhausted);
  EXPECT_FALSE(gov.Admit(1));  // sticky
}

TEST(GovernorTest, ByteBudgetTripsAtNextAdmit) {
  ExecutionGovernor::Limits limits;
  limits.max_tracked_bytes = 1000;
  ExecutionGovernor gov(limits);
  gov.OnBytes(1500);  // attribution never cancels directly...
  EXPECT_FALSE(gov.cancelled());
  EXPECT_FALSE(gov.Admit(1));  // ...the next admission does
  EXPECT_EQ(gov.status().code(), RunError::kFuelExhausted);
  EXPECT_EQ(gov.tracked_bytes(), 1500);
  EXPECT_EQ(gov.tracked_bytes_peak(), 1500);
}

TEST(GovernorTest, CancelIsStickyFirstWriterWins) {
  ExecutionGovernor gov;
  EXPECT_TRUE(gov.Cancel(RunError::kDeadlineExceeded, "first"));
  EXPECT_FALSE(gov.Cancel(RunError::kFuelExhausted, "second"));
  EXPECT_EQ(gov.status().code(), RunError::kDeadlineExceeded);
  EXPECT_EQ(gov.status().message(), "first");
}

TEST(GovernorTest, ChildAdoptsParentCancellationAndChargesRollUp) {
  ExecutionGovernor parent;
  ExecutionGovernor child({}, &parent);
  EXPECT_TRUE(child.Admit(10));
  child.OnBytes(64);
  EXPECT_EQ(parent.steps(), 10u);        // charges propagate up
  EXPECT_EQ(parent.tracked_bytes(), 64);
  parent.Cancel(RunError::kDeadlineExceeded, "watchdog");
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(child.Admit(1));
  EXPECT_EQ(child.status().code(), RunError::kDeadlineExceeded);
}

TEST(GovernorTest, SleepInterruptibleWakesOnCancel) {
  ExecutionGovernor gov;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    gov.Cancel(RunError::kDeadlineExceeded, "cut short");
  });
  const auto start = std::chrono::steady_clock::now();
  const bool completed = gov.SleepInterruptible(std::chrono::seconds(10));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_FALSE(completed);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(GovernorTest, SleepInterruptibleSelfCancelsAtDeadline) {
  ExecutionGovernor::Limits limits;
  limits.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  ExecutionGovernor gov(limits);
  EXPECT_FALSE(gov.SleepInterruptible(std::chrono::seconds(10)));
  EXPECT_TRUE(gov.cancelled());
  EXPECT_EQ(gov.status().code(), RunError::kDeadlineExceeded);
}

// ---------------------------------------------------------------------
// Pathological services: the paper's intractable cores, used to prove
// the deadline aborts cooperatively inside query evaluation.
// ---------------------------------------------------------------------

/// SWSnr(FO, FO) with one final state whose synthesis is the closed-walk
/// tautology ∀x0..x_k (E(x0,x1) ∧ … ∧ E(x_{k-1},x_k) → E(x_k,x0)) with
/// k = `depth` edges. Over a complete digraph every walk closes, so no
/// counterexample cuts the search short, and the walk is connected, so
/// compiled evaluation is one join over n^(k+1) walks — the EXPSPACE core
/// of the paper's FO composition bounds, in miniature.
core::Sws FoAlternationService(int depth) {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("E", {"src", "dst"}));
  core::Sws sws(schema, /*rin_arity=*/1, /*rout_arity=*/1);
  const int q0 = sws.AddState("q0");
  sws.SetTransition(q0, {});
  std::vector<logic::FoFormula> walk;
  std::vector<int> vars = {0};
  for (int i = 0; i < depth; ++i) {
    walk.push_back(logic::FoFormula::MakeAtom("E", {V(i), V(i + 1)}));
    vars.push_back(i + 1);
  }
  logic::FoFormula body = logic::FoFormula::Forall(
      vars, logic::FoFormula::Implies(
                logic::FoFormula::And(std::move(walk)),
                logic::FoFormula::MakeAtom("E", {V(depth), V(0)})));
  sws.SetSynthesis(q0, core::RelQuery::Fo(
                           logic::FoQuery({Term::Int(1)}, std::move(body))));
  return sws;
}

/// SWS(CQ, CQ) with one final state whose synthesis is a length-`k`
/// chain join E(x0,x1) ∧ … ∧ E(x_{k-1},x_k) — over a complete digraph
/// the probe loops enumerate n^(k+1) assignments.
core::Sws CqChainService(int k) {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("E", {"src", "dst"}));
  core::Sws sws(schema, /*rin_arity=*/1, /*rout_arity=*/2);
  const int q0 = sws.AddState("q0");
  sws.SetTransition(q0, {});
  std::vector<logic::Atom> body;
  for (int i = 0; i < k; ++i) body.push_back(logic::Atom{"E", {V(i), V(i + 1)}});
  sws.SetSynthesis(
      q0, core::RelQuery::Cq(
              logic::ConjunctiveQuery({V(0), V(k)}, std::move(body))));
  return sws;
}

Database CompleteDigraph(int n) {
  Database db;
  Relation e(2);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) e.Insert({Value::Int(i), Value::Int(j)});
  }
  db.Set("E", e);
  return db;
}

rel::InputSequence OneMessage() {
  rel::InputSequence input(1);
  Relation m(1);
  m.Insert({Value::Int(0)});
  input.Append(std::move(m));
  return input;
}

/// Acceptance bound: a pathological run with a 50ms deadline must return
/// kDeadlineExceeded within 10× the deadline.
constexpr auto kDeadline = std::chrono::milliseconds(50);
constexpr auto kBound = 10 * kDeadline;

TEST(GovernorTest, DeadlineAbortsFoQuantifierRecursionWithinBound) {
  core::Sws sws = FoAlternationService(/*depth=*/7);
  Database db = CompleteDigraph(12);  // 12^8 ≈ 4×10^8 walks unbounded
  // The walk is one component, so the compiled join stays expensive: a
  // million steps of fuel do not finish it.
  core::RunOptions fuel;
  fuel.max_eval_steps = 1'000'000;
  ASSERT_EQ(core::Run(sws, db, OneMessage(), fuel).status.code(),
            RunError::kFuelExhausted);
  core::RunOptions options;
  options.deadline = std::chrono::steady_clock::now() + kDeadline;
  const auto start = std::chrono::steady_clock::now();
  core::RunResult run = core::Run(sws, db, OneMessage(), options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(run.status.code(), RunError::kDeadlineExceeded)
      << run.status.ToString();
  EXPECT_TRUE(run.output.empty());  // never partial
  EXPECT_LT(elapsed, kBound) << "cooperative cancellation took too long";
}

TEST(GovernorTest, DeadlineAbortsCqJoinProbeLoopsWithinBound) {
  core::Sws sws = CqChainService(/*k=*/10);
  Database db = CompleteDigraph(6);  // 6^11 ≈ 3.6×10^8 probe steps unbounded
  core::RunOptions options;
  options.deadline = std::chrono::steady_clock::now() + kDeadline;
  const auto start = std::chrono::steady_clock::now();
  core::RunResult run = core::Run(sws, db, OneMessage(), options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(run.status.code(), RunError::kDeadlineExceeded)
      << run.status.ToString();
  EXPECT_TRUE(run.output.empty());
  EXPECT_LT(elapsed, kBound) << "cooperative cancellation took too long";
}

TEST(GovernorTest, FuelBudgetAbortsRunTyped) {
  core::Sws sws = CqChainService(/*k=*/10);
  Database db = CompleteDigraph(6);
  core::RunOptions options;
  options.max_eval_steps = 10'000;
  core::RunResult run = core::Run(sws, db, OneMessage(), options);
  EXPECT_EQ(run.status.code(), RunError::kFuelExhausted)
      << run.status.ToString();
  EXPECT_TRUE(run.output.empty());
}

TEST(GovernorTest, ExternalCancelInterruptsRunMidQuery) {
  // Watchdog shape: a governor owned by the caller, cancelled from
  // another thread while the engine is deep inside the join.
  core::Sws sws = CqChainService(/*k=*/10);
  Database db = CompleteDigraph(6);
  ExecutionGovernor gov;
  core::RunOptions options;
  options.governor = &gov;
  std::thread watchdog([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gov.Cancel(RunError::kDeadlineExceeded, "cancelled by watchdog");
  });
  const auto start = std::chrono::steady_clock::now();
  core::RunResult run = core::Run(sws, db, OneMessage(), options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  watchdog.join();
  EXPECT_EQ(run.status.code(), RunError::kDeadlineExceeded);
  EXPECT_EQ(run.status.message(), "cancelled by watchdog");
  EXPECT_TRUE(run.output.empty());
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// ---------------------------------------------------------------------
// Bounded caches
// ---------------------------------------------------------------------

logic::Sirup RecursiveSirup() {
  logic::Sirup sirup;
  sirup.rule = logic::DatalogRule{
      logic::Atom{"P", {V(0), V(1)}},
      {logic::Atom{"P", {V(0), V(2)}}, logic::Atom{"P", {V(2), V(3)}},
       logic::Atom{"E", {V(3), V(1)}}}};
  sirup.ground_fact =
      logic::Atom{"P", {Term::Int(1), Term::Int(1)}};
  return sirup;
}

Database ChainDb(int n) {
  Database db;
  Relation e(2);
  for (int i = 1; i <= n; ++i) e.Insert({Value::Int(i), Value::Int(i + 1)});
  db.Set("E", e);
  return db;
}

TEST(GovernorTest, TrackedByteBudgetAbortsRunTyped) {
  // Tracked bytes are memo bytes (relation indexes belong to the
  // relation version, not to the run): the memoized sirup tree caches an
  // entry per distinct label, so a cap far below one entry's size trips
  // at the first governor check after the first insert.
  logic::Sirup sirup = RecursiveSirup();
  core::Sws sws = models::SirupToSws(sirup);
  Database db = ChainDb(64);
  rel::InputSequence fuel = models::SirupFuel(sirup, 12);
  core::RunResult uncapped = core::Run(sws, db, fuel);
  ASSERT_TRUE(uncapped.status.ok()) << uncapped.status.ToString();
  ASSERT_GT(uncapped.memo_bytes_peak, 64u);  // the cap is hit mid-run

  core::RunOptions options;
  options.max_tracked_bytes = 64;
  const auto start = std::chrono::steady_clock::now();
  core::RunResult run = core::Run(sws, db, fuel, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(run.status.code(), RunError::kFuelExhausted)
      << run.status.ToString();
  EXPECT_TRUE(run.output.empty());
  EXPECT_LT(elapsed, kBound);
}

TEST(GovernorTest, MemoCacheEvictsUnderByteCapWithIdenticalOutput) {
  logic::Sirup sirup = RecursiveSirup();
  core::Sws sws = models::SirupToSws(sirup);
  Database db = ChainDb(4);
  rel::InputSequence fuel = models::SirupFuel(sirup, 7);

  core::RunResult uncapped = core::Run(sws, db, fuel);
  ASSERT_TRUE(uncapped.status.ok());
  ASSERT_EQ(uncapped.memo_evictions, 0u);

  core::RunOptions capped;
  capped.max_memo_bytes = 1024;
  core::RunResult run = core::Run(sws, db, fuel, capped);
  ASSERT_TRUE(run.status.ok());
  EXPECT_EQ(run.output, uncapped.output);  // eviction is invisible semantically
  EXPECT_GT(run.memo_evictions, 0u);
  // The accounted bytes may overshoot the cap by at most one entry
  // (and the never-evicted most-recent entry can itself exceed a cap
  // this tiny) before eviction brings them back under.
  EXPECT_LT(run.memo_bytes_peak, capped.max_memo_bytes + 4096);
}

TEST(GovernorTest, SessionCacheBytesStayBoundedAcross10kMessages) {
  // Acceptance: with caps set, a session's governed cache bytes stay
  // under cap (+ one-entry slack) across ≥10k messages, with evictions
  // actually occurring — caches are bounded, not just released.
  logic::Sirup sirup = RecursiveSirup();
  core::Sws sws = models::SirupToSws(sirup);
  core::SessionRunner runner(&sws, ChainDb(4));

  ExecutionGovernor gov;
  core::RunOptions options;
  options.governor = &gov;
  options.max_memo_bytes = 512;

  rel::InputSequence fuel = models::SirupFuel(sirup, 3);
  const Relation delim =
      core::SessionRunner::DelimiterMessage(sws.rin_arity());

  uint64_t total_memo_evictions = 0;
  size_t messages = 0;
  while (messages < 10'000) {
    for (size_t j = 1; j <= fuel.size(); ++j) {
      runner.Feed(fuel.Message(j), options);
      ++messages;
    }
    auto outcome = runner.Feed(delim, options);
    ++messages;
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->status.ok());
    total_memo_evictions += outcome->memo_evictions;
    // Between runs every per-run cache has been released back to the
    // governor — the gauge must return to zero, or it is drifting.
    ASSERT_EQ(gov.tracked_bytes(), 0)
        << "tracked-byte gauge drifted after " << messages << " messages";
  }
  EXPECT_GE(messages, 10'000u);
  EXPECT_GT(total_memo_evictions, 0u);
  // Peak concurrent cache bytes: the memo cap plus one-entry overshoot.
  EXPECT_LE(gov.tracked_bytes_peak(),
            static_cast<int64_t>(8 * options.max_memo_bytes));
}

}  // namespace
}  // namespace sws
