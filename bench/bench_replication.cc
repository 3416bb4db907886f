// Replication benchmark: commit latency of a replicated session as a
// function of the follower ack quorum, on a 3-node in-process cluster
// (src/replication). Each iteration runs one full session — a message
// plus the '#' delimiter — on the session's primary and waits for the
// client ack, so the measured latency includes local durability, the
// CRC-framed shipment to both followers, and the quorum ack barrier,
// which waits for a follower's fsync (see Cluster):
//  * quorum:0 — replicas=0, no replication wiring on the commit path,
//  * quorum:1 — replicas=2, ack_quorum=1 (first follower ack releases),
//  * quorum:2 — replicas=2, ack_quorum=2 (both followers must ack).
// The quorum:0 → quorum:1 step is the price of the barrier itself;
// quorum:1 → quorum:2 is the price of waiting for the slower follower.
// BM_ReplicatedCommitSocket repeats the quorum:1/2 points with the
// cluster joined by SocketTransport instead — every shipment, ack and
// heartbeat crosses real loopback TCP through the wire framing — so
// the socket tax on the commit path is the diff against the in-process
// rows.
//
// BM_RuntimeTravelReplicasZero re-runs the BENCH_runtime.json travel
// workload (bench_runtime_throughput.cc) through the same library so
// the non-replicated hot path can be diffed against that baseline: the
// replication hooks are a null check when no commit barrier is wired,
// so the numbers must agree within noise. Recorded in
// BENCH_replication.json.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "logic/cq.h"
#include "models/travel.h"
#include "net/socket_transport.h"
#include "persistence/durability.h"
#include "replication/node.h"
#include "replication/replica_group.h"
#include "replication/transport.h"
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
using sws::rt::RuntimeOptions;
using sws::rt::ServiceRuntime;

// The depth-2 logger from the replication tests: commits each session's
// first message into Log. Deliberately cheap — the service run is a few
// microseconds, so the commit path (durability + barrier) dominates.
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

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/sws_bench_replication_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    SWS_CHECK(made != nullptr);
    path_ = made;
  }
  ~TempDir() {
    std::vector<sws::persistence::DurableFile> files;
    if (sws::persistence::ListDurableFiles(path_, &files).ok()) {
      for (const sws::persistence::DurableFile& f : files) {
        ::unlink((path_ + "/" + f.name).c_str());
      }
    }
    // The fencing state is deliberately invisible to ListDurableFiles.
    ::unlink((path_ + "/epoch.fence").c_str());
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Three replicated nodes joined by a clean transport — in-process by
// default, or real loopback TCP (SocketTransport) so the shipment/ack
// path can be priced with actual sockets in it. The primary's journal
// runs without fsync, with large segments and snapshots effectively
// off, but each follower's applier always fsyncs
// (ReplicatedNode::StartLife fixes it at FsyncPolicy::kAlways), so a
// commit's barrier includes one follower fsync of its outcome record.
struct Cluster {
  explicit Cluster(sws::replication::ReplicationOptions replication,
                   bool auto_failover = false, bool socket_transport = false)
      : group({"n0", "n1", "n2"}), sws(MakeTwoLevelLogger()) {
    if (socket_transport) {
      transport = std::make_unique<sws::net::SocketTransport>(nullptr);
    } else {
      transport = std::make_unique<sws::replication::InProcessTransport>(
          nullptr);
    }
    for (size_t i = 0; i < 3; ++i) {
      sws::replication::NodeOptions options;
      options.id = "n" + std::to_string(i);
      options.dir = dirs[i].path();
      options.replication = replication;
      options.auto_failover = auto_failover;
      options.runtime.num_workers = 2;
      options.runtime.num_shards = 2;
      options.runtime.durability.fsync = sws::persistence::FsyncPolicy::kNever;
      options.runtime.durability.segment_bytes = 1u << 22;
      options.runtime.durability.snapshot_interval_appends = 1u << 20;
      // Governance stays at its defaults: the node's failover
      // coordinator, not the runtime's watchdog, notices silence.
      nodes[i] = std::make_unique<sws::replication::ReplicatedNode>(
          options, &sws, LoggerDb(), &group, transport.get());
    }
    for (auto& node : nodes) SWS_CHECK(node->Start().ok());
  }
  ~Cluster() {
    for (auto& node : nodes) node->Stop();
  }

  sws::replication::ReplicatedNode* node(const std::string& id) {
    for (auto& n : nodes) {
      if (n->id() == id) return n.get();
    }
    return nullptr;
  }

  // Next unused session id served by `primary`.
  std::string NextSessionOn(const std::string& primary) {
    for (;; ++next_session_) {
      const std::string id = "s" + std::to_string(next_session_);
      if (group.PrimaryOf(id) == primary) {
        ++next_session_;
        return id;
      }
    }
  }

  sws::replication::ReplicaGroup group;
  Sws sws;
  std::unique_ptr<sws::replication::ReplicationTransport> transport;
  TempDir dirs[3];
  std::unique_ptr<sws::replication::ReplicatedNode> nodes[3];
  uint64_t next_session_ = 0;
};

void BM_ReplicatedCommit(benchmark::State& state) {
  const size_t quorum = static_cast<size_t>(state.range(0));
  sws::replication::ReplicationOptions replication;
  replication.replicas = quorum == 0 ? 0 : 2;
  replication.ack_quorum = quorum;
  replication.ack_timeout = std::chrono::milliseconds(1000);
  Cluster cluster(replication);
  sws::replication::ReplicatedNode* primary = cluster.node("n0");

  uint64_t acked = 0;
  for (auto _ : state) {
    const std::string id = cluster.NextSessionOn("n0");
    std::atomic<int> ok{0};
    SWS_CHECK(primary->runtime()->Submit(id, Msg(7)).ok());
    SWS_CHECK(primary->runtime()
                  ->Submit(id, SessionRunner::DelimiterMessage(1),
                           [&](sws::rt::Outcome outcome) {
                             if (outcome.status.ok()) ok.fetch_add(1);
                           })
                  .ok());
    primary->runtime()->Drain();
    SWS_CHECK(ok.load() == 1) << "commit did not ack (quorum " << quorum
                              << ")";
    ++acked;
  }
  state.SetItemsProcessed(static_cast<int64_t>(acked));
  state.counters["commits_per_sec"] = benchmark::Counter(
      static_cast<double>(acked), benchmark::Counter::kIsRate);
  state.counters["quorum"] = static_cast<double>(quorum);
}

// The same commit measurement with the cluster joined by real loopback
// TCP: each shipment/ack crosses SocketTransport's epoll loop and the
// CRC wire framing. quorum:0 is omitted — with no replication wired the
// transport never touches the commit path and the number would just
// repeat BM_ReplicatedCommit/0.
void BM_ReplicatedCommitSocket(benchmark::State& state) {
  const size_t quorum = static_cast<size_t>(state.range(0));
  sws::replication::ReplicationOptions replication;
  replication.replicas = 2;
  replication.ack_quorum = quorum;
  replication.ack_timeout = std::chrono::milliseconds(1000);
  Cluster cluster(replication, /*auto_failover=*/false,
                  /*socket_transport=*/true);
  sws::replication::ReplicatedNode* primary = cluster.node("n0");

  uint64_t acked = 0;
  for (auto _ : state) {
    const std::string id = cluster.NextSessionOn("n0");
    std::atomic<int> ok{0};
    SWS_CHECK(primary->runtime()->Submit(id, Msg(7)).ok());
    SWS_CHECK(primary->runtime()
                  ->Submit(id, SessionRunner::DelimiterMessage(1),
                           [&](sws::rt::Outcome outcome) {
                             if (outcome.status.ok()) ok.fetch_add(1);
                           })
                  .ok());
    primary->runtime()->Drain();
    SWS_CHECK(ok.load() == 1)
        << "socket commit did not ack (quorum " << quorum << ")";
    ++acked;
  }
  state.SetItemsProcessed(static_cast<int64_t>(acked));
  state.counters["commits_per_sec"] = benchmark::Counter(
      static_cast<double>(acked), benchmark::Counter::kIsRate);
  state.counters["quorum"] = static_cast<double>(quorum);
}

// Downtime of a fully automatic failover: wall-clock from killing a
// primary to the first client-acked commit of one of its sessions on
// the self-elected heir. The measured window therefore spans detector
// silence (suspicion_misses missed heartbeats), the quorum election,
// the heir's promotion life (recovery plus tail re-ship), and one
// commit with its ack barrier. Every iteration builds a fresh cluster
// (untimed, via manual timing): depositions are permanent, so a killed
// primary cannot be measured twice in the same group.
void BM_FailoverDowntime(benchmark::State& state) {
  sws::replication::ReplicationOptions replication;
  replication.replicas = 2;
  replication.ack_quorum = 1;
  replication.ack_timeout = std::chrono::milliseconds(250);
  replication.retransmit_interval = std::chrono::milliseconds(2);
  replication.heartbeat_interval = std::chrono::milliseconds(2);
  replication.suspicion_misses = 3;
  replication.heartbeat_jitter = 0.25;
  replication.election_timeout = std::chrono::milliseconds(10);
  uint64_t failovers = 0;
  for (auto _ : state) {
    Cluster cluster(replication, /*auto_failover=*/true);
    // Prime one committed session on n0 so the heir adopts real state,
    // not an empty namespace.
    {
      const std::string warm = cluster.NextSessionOn("n0");
      std::atomic<int> ok{0};
      SWS_CHECK(cluster.node("n0")->runtime()->Submit(warm, Msg(1)).ok());
      SWS_CHECK(cluster.node("n0")
                    ->runtime()
                    ->Submit(warm, SessionRunner::DelimiterMessage(1),
                             [&](sws::rt::Outcome outcome) {
                               if (outcome.status.ok()) ok.fetch_add(1);
                             })
                    .ok());
      cluster.node("n0")->runtime()->Drain();
      SWS_CHECK(ok.load() == 1) << "warmup commit did not ack";
    }

    // Pre-generate n0-owned session ids: once the heir promotes itself,
    // n0 is deposed and PrimaryOf never maps a fresh id to it again, so
    // NextSessionOn("n0") would spin forever post-failover.
    std::vector<std::string> spares;
    for (int k = 0; k < 128; ++k) spares.push_back(cluster.NextSessionOn("n0"));
    const std::string outage = spares.back();
    // Settle before the kill: every first life asks its peers for
    // catch-up, a request sent before its peer was bound is dropped and
    // re-sent only every ack_timeout, and until it is served the heir
    // does not campaign (ReadyForElection). An unsettled kill would time
    // that retry, not the failover.
    const auto settle_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
      bool settled = true;
      for (auto& node : cluster.nodes) {
        settled &= node->replicator()->pending_catchup_count() == 0;
      }
      if (settled) break;
      SWS_CHECK(std::chrono::steady_clock::now() < settle_deadline)
          << "catch-up never settled";
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const auto t0 = std::chrono::steady_clock::now();
    cluster.node("n0")->Kill();
    // The outage ends at the first acked commit of an n0-owned session;
    // attempts before the election resolves simply fail and retry, each
    // burning a spare id (an abandoned half-submitted session must not
    // be reused).
    const auto deadline = t0 + std::chrono::seconds(20);
    bool acked = false;
    std::chrono::steady_clock::time_point t1;
    while (!acked) {
      SWS_CHECK(std::chrono::steady_clock::now() < deadline)
          << "failover never completed";
      SWS_CHECK(!spares.empty()) << "failover attempt budget exhausted";
      const std::string owner = cluster.group.PrimaryOf(outage);
      sws::replication::ReplicatedNode* primary = cluster.node(owner);
      if (owner == "n0" || primary == nullptr || !primary->running()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      auto runtime = primary->runtime_snapshot();
      if (runtime == nullptr) continue;
      const std::string id = spares.back();
      spares.pop_back();
      std::atomic<int> ok{0};
      if (!runtime->Submit(id, Msg(2)).ok()) continue;
      if (!runtime
               ->Submit(id, SessionRunner::DelimiterMessage(1),
                        [&](sws::rt::Outcome outcome) {
                          if (outcome.status.ok()) ok.fetch_add(1);
                        })
               .ok()) {
        continue;
      }
      runtime->Drain();
      if (ok.load() == 1) {
        t1 = std::chrono::steady_clock::now();
        acked = true;
      }
    }
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    ++failovers;
  }
  state.SetItemsProcessed(static_cast<int64_t>(failovers));
}

// The BENCH_runtime.json travel workload, verbatim, through the library
// that now carries the replication hooks — with no barrier wired the
// commit path must cost what it did before the hooks existed.
void BM_RuntimeTravelReplicasZero(benchmark::State& state) {
  static const auto* service =
      new sws::models::TravelService(sws::models::MakeTravelService());
  static const auto* db =
      new sws::rel::Database(sws::models::MakeTravelDatabase());
  constexpr int kSessions = 64;
  std::vector<Relation> stream;
  for (int s = 0; s < 4; ++s) {
    stream.push_back(sws::models::MakeTravelRequest("orlando", 1000));
    stream.push_back(sws::models::MakeTravelRequest("paris", 800));
    stream.push_back(SessionRunner::DelimiterMessage(3));
  }
  uint64_t messages = 0;
  for (auto _ : state) {
    RuntimeOptions options;
    options.num_workers = static_cast<size_t>(state.range(0));
    options.queue_capacity = 1u << 16;
    ServiceRuntime runtime(&service->sws, *db, options);
    for (int c = 0; c < kSessions; ++c) {
      std::string id = "client-" + std::to_string(c);
      for (const Relation& message : stream) runtime.Submit(id, message);
    }
    runtime.Drain();
    messages += static_cast<uint64_t>(kSessions) * stream.size();
    benchmark::DoNotOptimize(runtime.Stats().sessions_closed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["msgs_per_sec"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

BENCHMARK(BM_ReplicatedCommit)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_ReplicatedCommitSocket)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_FailoverDowntime)
    ->Iterations(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RuntimeTravelReplicasZero)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
