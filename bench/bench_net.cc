// Front-door benchmarks: what the TCP layer itself costs over loopback
// (src/net, DESIGN.md §14). One RpcServer on an ephemeral port backed by
// the cheap depth-2 logger service; per-thread blocking RpcClients drive
// it so the ->Threads(N) variants double as a concurrent-connection
// throughput measurement (N live connections, each pipelining nothing —
// the client protocol is strictly request/reply, so every item is one
// full RTT through epoll, the frame codec, and the runtime).
//
//  * BM_NetPingRtt — kPing/kPong echo: framing + CRC + epoll wakeup and
//    nothing else; the floor for any RPC on this transport.
//  * BM_NetSubmitAck — one plain message submit: adds runtime admission
//    (strand dispatch, WAL append) to the wire floor.
//  * BM_NetSessionCommit — message + delimiter + streamed outcome: the
//    full client-visible session commit over the socket.
//
// Recorded in BENCH_net.json; gated by scripts/check.sh bench mode
// against that baseline (loopback RTT on a shared host is
// scheduler-bound, so the gate is loose).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "logic/cq.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/runtime.h"
#include "sws/session.h"
#include "util/common.h"

namespace {

using sws::core::SessionRunner;
using sws::core::Sws;
using sws::logic::Atom;
using sws::logic::ConjunctiveQuery;
using sws::logic::Term;
using sws::rel::Relation;
using sws::rel::Value;

Sws MakeTwoLevelLogger() {
  sws::rel::Schema schema;
  schema.Add(sws::rel::RelationSchema("Log", {"x"}));
  Sws sws(schema, 1, 3);
  int q0 = sws.AddState("q0");
  int q1 = sws.AddState("q1");
  ConjunctiveQuery pass({Term::Var(0)},
                        {Atom{sws::core::kInputRelation, {Term::Var(0)}}});
  sws.SetTransition(
      q0, {sws::core::TransitionTarget{q1, sws::core::RelQuery::Cq(pass)}});
  ConjunctiveQuery copy_up(
      {Term::Var(0), Term::Var(1), Term::Var(2)},
      {Atom{sws::core::ActRelation(1),
            {Term::Var(0), Term::Var(1), Term::Var(2)}}});
  sws.SetSynthesis(q0, sws::core::RelQuery::Cq(copy_up));
  sws.SetTransition(q1, {});
  ConjunctiveQuery log_msg({Term::Str("ins"), Term::Str("Log"), Term::Var(0)},
                           {Atom{sws::core::kMsgRelation, {Term::Var(0)}}});
  sws.SetSynthesis(q1, sws::core::RelQuery::Cq(log_msg));
  SWS_CHECK(!sws.Validate().has_value()) << *sws.Validate();
  return sws;
}

sws::rel::Database LoggerDb() {
  sws::rel::Schema schema;
  schema.Add(sws::rel::RelationSchema("Log", {"x"}));
  return sws::rel::Database(schema);
}

Relation Msg(int64_t v) {
  Relation m(1);
  m.Insert({Value::Int(v)});
  return m;
}

// One server for the whole binary, leaked deliberately: benchmark
// functions run on many threads and the last reference order at exit is
// not worth reasoning about for a bench process.
struct Backend {
  Backend() : sws(MakeTwoLevelLogger()) {
    sws::rt::RuntimeOptions options;
    options.num_workers = 2;
    options.queue_capacity = 1u << 16;
    runtime = std::make_unique<sws::rt::ServiceRuntime>(&sws, LoggerDb(),
                                                        options);
    server = std::make_unique<sws::net::RpcServer>(
        runtime.get(), sws::net::RpcServer::Options{});
    SWS_CHECK(server->Start().ok());
  }
  Sws sws;
  std::unique_ptr<sws::rt::ServiceRuntime> runtime;
  std::unique_ptr<sws::net::RpcServer> server;
  std::atomic<uint64_t> next_session{0};
};

Backend* backend() {
  static Backend* instance = new Backend();
  return instance;
}

sws::net::RpcClient MakeClient() {
  sws::net::RpcClient::Options options;
  options.port = backend()->server->port();
  return sws::net::RpcClient(options);
}

void BM_NetPingRtt(benchmark::State& state) {
  sws::net::RpcClient client = MakeClient();
  const std::string payload(static_cast<size_t>(state.range(0)), 'p');
  SWS_CHECK(client.Ping(payload).ok());
  uint64_t pings = 0;
  for (auto _ : state) {
    SWS_CHECK(client.Ping(payload).ok());
    ++pings;
  }
  state.SetItemsProcessed(static_cast<int64_t>(pings));
  state.SetBytesProcessed(static_cast<int64_t>(pings * payload.size() * 2));
  state.counters["rtts_per_sec"] = benchmark::Counter(
      static_cast<double>(pings), benchmark::Counter::kIsRate);
}

void BM_NetSubmitAck(benchmark::State& state) {
  sws::net::RpcClient client = MakeClient();
  uint64_t submits = 0;
  // All plain messages land in one long-lived session per thread: no
  // delimiter ever closes it, so each submit is admission + WAL only.
  const std::string id =
      "bench-open-" + std::to_string(backend()->next_session.fetch_add(1));
  for (auto _ : state) {
    SWS_CHECK(client.Submit(client.NextRequestId(), id, Msg(7)).ok());
    ++submits;
  }
  state.SetItemsProcessed(static_cast<int64_t>(submits));
  state.counters["submits_per_sec"] = benchmark::Counter(
      static_cast<double>(submits), benchmark::Counter::kIsRate);
}

void BM_NetSessionCommit(benchmark::State& state) {
  sws::net::RpcClient client = MakeClient();
  uint64_t commits = 0;
  for (auto _ : state) {
    const std::string id =
        "bench-s" + std::to_string(backend()->next_session.fetch_add(1));
    SWS_CHECK(client.Submit(client.NextRequestId(), id, Msg(7)).ok());
    sws::net::OutcomeReply outcome;
    SWS_CHECK(client
                  .SubmitAndWait(client.NextRequestId(), id,
                                 SessionRunner::DelimiterMessage(1), &outcome)
                  .ok());
    SWS_CHECK(outcome.status_code == 0);
    ++commits;
  }
  state.SetItemsProcessed(static_cast<int64_t>(commits));
  state.counters["commits_per_sec"] = benchmark::Counter(
      static_cast<double>(commits), benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_NetPingRtt)
    ->Arg(64)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_NetPingRtt)
    ->Arg(64)
    ->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_NetSubmitAck)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_NetSubmitAck)
    ->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_NetSessionCommit)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_NetSessionCommit)
    ->Threads(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

BENCHMARK_MAIN();
