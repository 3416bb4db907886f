// Runtime benchmark: messages/sec of the concurrent multi-session
// runtime (src/runtime) as a function of worker-thread count, on a
// 64-session mixed workload. Two services:
//  * travel  — the Figure 1 travel agency (SWS(FO,FO), depth 2),
//  * peer    — the web-store peer of Section 3 embedded via f_τ
//              (recursive SWS(FO,FO)).
//
// Each session is an independent client conversation: a few request
// messages followed by a '#' delimiter that runs the service and commits
// against that session's private database. Thread counts are the
// benchmark argument; speedup over threads:1 is the scaling headline
// (recorded in BENCH_runtime.json). On a single-core host the scheduler
// still interleaves sessions, but no speedup should be expected.

#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "models/peer.h"
#include "models/travel.h"
#include "runtime/runtime.h"
#include "sws/session.h"

namespace {

using sws::rt::RuntimeOptions;
using sws::rt::ServiceRuntime;

constexpr int kSessions = 64;
constexpr int kSessionsPerClient = 4;  // each client closes 4 sessions

struct Workload {
  const sws::core::Sws* sws;
  sws::rel::Database db;
  // One client conversation: the message stream replayed per session id
  // (requests + delimiters, kSessionsPerClient delimiters).
  std::vector<sws::rel::Relation> stream;
};

Workload MakeTravelWorkload(const sws::models::TravelService& service) {
  Workload w;
  w.sws = &service.sws;
  w.db = sws::models::MakeTravelDatabase();
  for (int s = 0; s < kSessionsPerClient; ++s) {
    // A mixed session: an Orlando request, a Paris retry, then commit.
    w.stream.push_back(sws::models::MakeTravelRequest("orlando", 1000));
    w.stream.push_back(sws::models::MakeTravelRequest("paris", 800));
    w.stream.push_back(sws::core::SessionRunner::DelimiterMessage(3));
  }
  return w;
}

// The web-store peer of examples/peer_store.cpp: requests go to a cart,
// re-requesting a carted item purchases it.
struct PeerFixture {
  sws::models::Peer peer;
  sws::core::Sws sws;
};

PeerFixture* MakePeerFixture() {
  using sws::logic::FoFormula;
  using sws::logic::Term;
  auto v = [](int i) { return Term::Var(i); };
  sws::rel::Schema schema;
  schema.Add(sws::rel::RelationSchema("Item", {"id", "price"}));
  sws::models::Peer shop(schema, 1, 1, 2);
  shop.set_state_rule(FoFormula::And(
      FoFormula::Or(
          FoFormula::MakeAtom(sws::models::Peer::kPeerState, {v(0)}),
          FoFormula::MakeAtom(sws::models::Peer::kPeerInput, {v(0)})),
      FoFormula::Exists(1, FoFormula::MakeAtom("Item", {v(0), v(1)}))));
  shop.set_action_rule(FoFormula::And(
      {FoFormula::MakeAtom(sws::models::Peer::kPeerState, {v(0)}),
       FoFormula::MakeAtom(sws::models::Peer::kPeerInput, {v(0)}),
       FoFormula::MakeAtom("Item", {v(0), v(1)})}));
  auto* fixture = new PeerFixture{shop, sws::models::PeerToSws(shop)};
  return fixture;
}

Workload MakePeerWorkload(const PeerFixture& fixture) {
  Workload w;
  w.sws = &fixture.sws;
  sws::rel::Relation items(2);
  items.Insert({sws::rel::Value::Int(1), sws::rel::Value::Int(10)});
  items.Insert({sws::rel::Value::Int(2), sws::rel::Value::Int(25)});
  w.db.Set("Item", items);

  auto request = [](std::vector<int64_t> ids) {
    sws::rel::Relation r(1);
    for (int64_t id : ids) r.Insert({sws::rel::Value::Int(id)});
    return r;
  };
  // Carted then purchased across steps; encoded for the f_τ service.
  sws::rel::InputSequence encoded = sws::models::EncodePeerInput(
      fixture.peer, {request({1, 2}), request({1})});
  for (int s = 0; s < kSessionsPerClient; ++s) {
    for (size_t j = 1; j <= encoded.size(); ++j) {
      w.stream.push_back(encoded.Message(j));
    }
    w.stream.push_back(
        sws::core::SessionRunner::DelimiterMessage(encoded.message_arity()));
  }
  return w;
}

void RunWorkload(benchmark::State& state, const Workload& workload,
                 const RuntimeOptions& base = {}) {
  const size_t workers = static_cast<size_t>(state.range(0));
  uint64_t messages = 0;
  for (auto _ : state) {
    RuntimeOptions options = base;
    options.num_workers = workers;
    options.queue_capacity = 1u << 16;
    ServiceRuntime runtime(workload.sws, workload.db, options);
    for (int c = 0; c < kSessions; ++c) {
      std::string id = "client-" + std::to_string(c);
      for (const sws::rel::Relation& message : workload.stream) {
        runtime.Submit(id, message);
      }
    }
    runtime.Drain();
    messages += static_cast<uint64_t>(kSessions) * workload.stream.size();
    benchmark::DoNotOptimize(runtime.Stats().sessions_closed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["msgs_per_sec"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(workers);
}

void BM_RuntimeTravel(benchmark::State& state) {
  static const auto* service =
      new sws::models::TravelService(sws::models::MakeTravelService());
  static const auto* workload = new Workload(MakeTravelWorkload(*service));
  RunWorkload(state, *workload);
}

void BM_RuntimePeerStore(benchmark::State& state) {
  static const auto* fixture = MakePeerFixture();
  static const auto* workload = new Workload(MakePeerWorkload(*fixture));
  RunWorkload(state, *workload);
}

// Hot-path cost of the fault-tolerance machinery when nothing fires:
// the same travel workload with a zero-rate fault injector attached,
// retry and the per-session circuit breaker enabled. Comparing against
// BM_RuntimeTravel (null injector, no retry, no breaker — the all-
// disabled default) measures the overhead of the fault path itself;
// it should be noise (a null check, a counter bump and an integer
// compare per run). Recorded in BENCH_runtime.json.
void BM_RuntimeTravelFaultsQuiescent(benchmark::State& state) {
  static const auto* service =
      new sws::models::TravelService(sws::models::MakeTravelService());
  static const auto* workload = new Workload(MakeTravelWorkload(*service));
  // Zero rates: every draw says "healthy", so no failure, delay or stall
  // is ever injected — but every run pays the injector consultation.
  static auto* injector =
      new sws::core::FaultInjector(sws::core::FaultOptions{});
  RuntimeOptions base;
  base.run_options.fault_injector = injector;
  base.run_options.retry.max_attempts = 3;
  base.circuit_breaker.failure_threshold = 5;
  base.circuit_breaker.open_duration = std::chrono::milliseconds(1);
  RunWorkload(state, *workload, base);
}

void ThreadCounts(benchmark::internal::Benchmark* bench) {
  bench->Arg(1)->Arg(2)->Arg(4);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 4) bench->Arg(static_cast<int>(hw));
  bench->Unit(benchmark::kMillisecond)->UseRealTime();
}

BENCHMARK(BM_RuntimeTravel)->Apply(ThreadCounts);
BENCHMARK(BM_RuntimePeerStore)->Apply(ThreadCounts);
BENCHMARK(BM_RuntimeTravelFaultsQuiescent)->Apply(ThreadCounts);

}  // namespace

BENCHMARK_MAIN();
