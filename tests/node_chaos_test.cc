// Whole-node kill/restart chaos over replicated sessions (ISSUE 7
// tentpole gate; DESIGN.md §11). Each trial runs M = 3 in-process nodes
// — own dirs, own runtimes, own fault injectors — joined by one
// InProcessTransport with randomized drop/duplicate/reorder/delay
// faults, and drives randomized whole-node kills and restarts,
// including primaries killed mid-ack-barrier (delimiters submitted,
// then the node killed after a random sleep, sometimes behind a
// partition so the outcome commits locally but never ships). After each
// kill the harness either promotes the most-caught-up live follower
// (ChoosePromotionCandidate) or restarts the victim in place, then
// finishes every session and checks the two invariants end to end:
//
//  * exactly-once: every session's outcome is delivered to the client
//    at most once — acks and replay re-emissions never double up; a
//    session whose ack was lost to a crash or a barrier timeout is
//    *ambiguous* (0 or 1 deliveries), everything else is exactly 1;
//  * oracle convergence: the final primary of every session recovers a
//    database byte-identical (operator== and Hash) to an unkilled
//    SessionRunner oracle fed the same stream, with next_seq == 2 and
//    an empty pending buffer.
//
// Trials use replicas = 2, ack_quorum = 2 in the 3-node group, so every
// client-acknowledged outcome is durable on every live non-deposed node
// — the quorum-intersection invariant that makes any such node a safe
// promotion target. Deposed nodes (promoted away) stop receiving the
// stream and are never promotion candidates again.
//
// The manual-mode TESTs together exercise >= 500 distinct randomized
// kill points (seeded, so failures reproduce). Run under ASan by
// `scripts/check.sh replication`.
//
// Fully-automatic mode (ISSUE 9 tentpole gate; DESIGN.md §13): the
// AutoTrial TESTs run the same invariants over auto_failover nodes and
// never call Promote() — each node's own failure detector feeds its
// FailoverCoordinator, the deterministic heir campaigns for a
// quorum-confirmed fenced promotion, and killed nodes rejoin via
// Start() (catch-up + epoch adoption). Extra chaos flavors target the
// fencing layer: one-way partitions (a live primary whose outbound
// heartbeats vanish is wrongfully deposed — safe, because ack_quorum ==
// replicas makes every acked outcome durable on the heir — and its
// stale-epoch traffic must be fenced), flapping (the victim dies,
// returns mid-election re-shipping its tail, dies again), and every
// cycle ends with the deposed primary returning. The automatic TESTs
// additionally assert that elections actually happened (auto_promotions
// > 0) and that stale-epoch traffic was actually rejected
// (epoch_fencing_rejects > 0) across each sweep.
//
// Socket mode (ISSUE 10 tentpole gate; DESIGN.md §14): the same
// AutoTrial invariants run with every replication verb crossing real
// loopback TCP through SocketTransport instead of the in-process queue.
// Chaos gains socket-native flavors on top of kills and partitions:
// frames garbled in flight (the receiver's CRC latches, the whole
// connection dies, and everything queued behind the bad frame dies with
// it — the Replicator's retransmission must resynchronize through a
// fresh dial), and sever-FD episodes (every TCP connection touching a
// random node is closed with no partition installed, so redial recovers
// transparently). Partitions here really refuse reconnection at the
// transport, not just drop messages. The socket TESTs are fully
// automatic — zero Promote() calls — and together drive >= 500
// randomized kill/sever/garble chaos points against the same unkilled
// SessionRunner oracle, byte-exact.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "logic/cq.h"
#include "net/socket_transport.h"
#include "persistence/recovery.h"
#include "replication/node.h"
#include "replication/replica_group.h"
#include "replication/transport.h"
#include "runtime/runtime.h"
#include "sws/session.h"
#include "util/common.h"

namespace sws::replication {
namespace {

using core::SessionRunner;
using core::Sws;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;
using rel::Relation;
using rel::Value;

// Sanitizer instrumentation dilates every operation (TSan 5-15x, ASan
// ~2x), which distorts every wall-clock ratio the auto-failover trials
// are tuned around. Worst on the socket transport's syscall path: under
// TSan the delivery latency of a heartbeat exceeds the entire
// native-tuned suspicion window, so all three nodes suspect each other
// permanently and the isolation episodes live-lock in duelling
// elections (hundreds of interleaved campaigns, zero promotions). The
// in-process trials suffer a milder form — election/ack-barrier race
// windows grow relative to the heartbeat cadence until rare interleavings
// become likely. Scale the failure-detection *clocks* so the
// detector-to-latency ratio matches the native build; chaos rates,
// counts, and assertions are untouched.
#if defined(__SANITIZE_THREAD__)
constexpr uint32_t kSanTimingScale = 5;
#elif defined(__SANITIZE_ADDRESS__)
constexpr uint32_t kSanTimingScale = 2;
#else
constexpr uint32_t kSanTimingScale = 1;
#endif

// The depth-2 logger service (as in crash_recovery_test): each
// session's first message is committed into Log by its delimiter run.
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

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/sws_node_chaos_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    SWS_CHECK(made != nullptr);
    path_ = made;
  }
  ~TempDir() {
    std::vector<persistence::DurableFile> files;
    if (persistence::ListDurableFiles(path_, &files).ok()) {
      for (const persistence::DurableFile& f : files) {
        ::unlink((path_ + "/" + f.name).c_str());
      }
    }
    // The fencing state is deliberately invisible to ParseDurableFileName.
    ::unlink((path_ + "/epoch.fence").c_str());
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One randomized trial: bring up the cluster, run sessions through
// kills/promotions/restarts, then settle and check the invariants.
class Trial {
 public:
  explicit Trial(uint64_t seed)
      : seed_(seed), rng_(seed), sws_(MakeTwoLevelLogger()) {}

  size_t kill_points() const { return kill_points_; }

  void Run() {
    Build();
    for (auto& node : nodes_) ASSERT_TRUE(node->Start().ok());

    // Open all sessions; close a random ~half immediately (their acks
    // must hold exactly-once through whatever chaos follows).
    const size_t n_sessions = 6 + rng_() % 6;
    for (size_t i = 0; i < n_sessions; ++i) {
      const std::string id = "s" + std::to_string(i);
      sessions_[id].value = static_cast<int64_t>(seed_ * 1000 + i);
    }
    for (auto& [id, client] : sessions_) {
      SubmitMsg(id);
      if (rng_() % 2 == 0) SubmitDelimiter(id);
    }
    DrainAll();

    const size_t cycles = 3;
    for (size_t cycle = 0; cycle < cycles && !::testing::Test::HasFatalFailure();
         ++cycle) {
      RunCycle();
    }
    if (::testing::Test::HasFatalFailure()) return;
    Settle();
    CheckExactlyOnce();
    CheckOracleConvergence();
  }

 private:
  struct ClientSession {
    int64_t value = 0;
    bool delimiter_sent = false;
    /// The client saw an error (or a crash ate the callback): the
    /// outcome may or may not have committed — 0 or 1 deliveries legal.
    bool ambiguous = false;
    bool done = false;
    int deliveries = 0;
  };

  void Build() {
    group_ = std::make_unique<ReplicaGroup>(
        std::vector<std::string>{"c0", "c1", "c2"});
    core::FaultOptions wire;
    wire.seed = seed_ ^ 0x7f4a7c15ull;
    const double drops[] = {0.0, 0.05, 0.15};
    wire.transport_drop_rate = drops[rng_() % 3];
    wire.transport_duplicate_rate = (rng_() % 2) * 0.1;
    wire.transport_reorder_rate = (rng_() % 2) * 0.1;
    wire.transport_delay_rate = (rng_() % 2) * 0.1;
    wire.transport_delay = std::chrono::microseconds(300);
    wire_injector_ = std::make_unique<core::FaultInjector>(wire);
    transport_ = std::make_unique<InProcessTransport>(wire_injector_.get());

    ReplicationOptions replication;
    replication.replicas = 2;
    replication.ack_quorum = 2;  // quorum-intersection: any live
                                 // non-deposed node is a safe heir
    replication.ack_timeout = std::chrono::milliseconds(40);
    replication.retransmit_interval = std::chrono::milliseconds(2);
    replication.heartbeat_interval = std::chrono::milliseconds(5);
    for (size_t i = 0; i < 3; ++i) {
      NodeOptions options;
      options.id = "c" + std::to_string(i);
      options.dir = dirs_[i].path();
      options.replication = replication;
      options.runtime.num_workers = 2;
      options.runtime.num_shards = 1 + rng_() % 3;
      options.runtime.durability.fsync = persistence::FsyncPolicy::kAlways;
      options.runtime.durability.segment_bytes = 4096;  // frequent rotation
      options.runtime.durability.snapshot_interval_appends = 4 + rng_() % 8;
      nodes_[i] = std::make_unique<ReplicatedNode>(options, &sws_, LoggerDb(),
                                                   group_.get(),
                                                   transport_.get());
    }
  }

  ReplicatedNode* node(const std::string& id) {
    for (auto& n : nodes_) {
      if (n->id() == id) return n.get();
    }
    return nullptr;
  }

  ReplicatedNode* PrimaryNode(const std::string& session) {
    return node(group_->PrimaryOf(session));
  }

  void RecordDelivery(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    ClientSession& client = sessions_[id];
    ++client.deliveries;
    client.done = true;
  }

  void SubmitMsg(const std::string& id) {
    ReplicatedNode* primary = PrimaryNode(id);
    ASSERT_TRUE(primary != nullptr && primary->running());
    int64_t value;
    {
      std::lock_guard<std::mutex> lock(mu_);
      value = sessions_[id].value;
    }
    core::Status admitted = primary->runtime()->Submit(id, Msg(value));
    ASSERT_TRUE(admitted.ok()) << admitted.ToString();
  }

  void SubmitDelimiter(const std::string& id) {
    ReplicatedNode* primary = PrimaryNode(id);
    ASSERT_TRUE(primary != nullptr && primary->running());
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_[id].delimiter_sent = true;
    }
    core::Status admitted = primary->runtime()->Submit(
        id, SessionRunner::DelimiterMessage(1), [this, id](rt::Outcome outcome) {
          if (outcome.status.ok()) {
            RecordDelivery(id);
          } else {
            std::lock_guard<std::mutex> lock(mu_);
            sessions_[id].ambiguous = true;
          }
        });
    ASSERT_TRUE(admitted.ok()) << admitted.ToString();
  }

  void DrainAll() {
    for (auto& n : nodes_) {
      if (n->running()) n->runtime()->Drain();
    }
  }

  /// After a node Start()/Promote(): deliver its replayed outcomes, then
  /// resolve every session it now owns against that life's recovery
  /// image — the only authoritative moment to resubmit (a stale image
  /// would re-run an already-committed delimiter and fork the state).
  void OnLifeEvent(ReplicatedNode* n) {
    for (const persistence::ReplayedOutcome& outcome : n->replayed()) {
      RecordDelivery(outcome.session_id);
    }
    const persistence::RecoveryResult* recovery = n->runtime()->recovery();
    for (auto& [id, client] : sessions_) {
      if (group_->PrimaryOf(id) != n->id()) continue;
      bool done, delimiter_sent, ambiguous;
      int deliveries;
      {
        std::lock_guard<std::mutex> lock(mu_);
        done = client.done;
        delimiter_sent = client.delimiter_sent;
        ambiguous = client.ambiguous;
        deliveries = client.deliveries;
      }
      uint64_t next_seq = 0;
      if (recovery != nullptr) {
        auto it = recovery->sessions.find(id);
        if (it != recovery->sessions.end()) next_seq = it->second.next_seq;
      }
      if (next_seq >= 2) {
        // Committed but never acknowledged to the client: legal only for
        // a session whose submission visibly failed (at-most-once).
        EXPECT_TRUE(ambiguous || deliveries > 0)
            << "session " << id << " (seed " << seed_
            << ") committed without the client ever seeing an ack or error";
        std::lock_guard<std::mutex> lock(mu_);
        client.done = true;
        continue;
      }
      // The authoritative owner does not have the commit. A *delivered*
      // outcome is quorum-durable on every node that can ever become
      // owner (the ack barrier gates both live commits and replay
      // re-emissions), so regression here proves the client was never
      // delivered — what it may have observed before was a local-only
      // commit that died with a deposed node. An ambiguous client
      // resolves the uncertainty by resubmitting; its earlier "done" was
      // provisional.
      EXPECT_EQ(deliveries, 0)
          << "session " << id << " (seed " << seed_
          << ") was delivered, yet the current owner recovered without the "
             "commit — a delivered outcome must be durable on every heir";
      if (deliveries > 0) continue;
      if (done) {
        std::lock_guard<std::mutex> lock(mu_);
        client.done = false;
      }
      if (next_seq == 0) SubmitMsg(id);
      if (delimiter_sent) SubmitDelimiter(id);
    }
  }

  void RunCycle() {
    // Every node is up at the top of a cycle.
    for (auto& n : nodes_) {
      if (!n->running()) {
        ASSERT_TRUE(n->Start().ok());
        OnLifeEvent(n.get());
      }
    }
    DrainAll();

    ReplicatedNode* victim = nodes_[rng_() % 3].get();

    // Chaos flavor: sometimes the victim's disk dies first (torn
    // appends), sometimes it is partitioned from the others so its last
    // outcome commits locally but never ships — the mid-ack-barrier
    // kill the heir must resolve by replay.
    if (rng_() % 3 == 0) {
      victim->injector()->KillStorageAfter(
          static_cast<uint32_t>(rng_() % 6));
    }
    const bool partitioned = rng_() % 3 == 0;
    if (partitioned) {
      for (auto& n : nodes_) {
        if (n->id() != victim->id()) transport_->Partition(victim->id(), n->id());
      }
    }

    // Fresh delimiters (never-sent only — resubmission is reserved for
    // life events with an authoritative recovery image), biased to the
    // victim so kills land mid-stream and mid-barrier.
    std::vector<std::string> fresh;
    for (auto& [id, client] : sessions_) {
      if (!client.delimiter_sent) fresh.push_back(id);
    }
    size_t sent = 0;
    for (const std::string& id : fresh) {
      const bool on_victim = group_->PrimaryOf(id) == victim->id();
      if (on_victim || (sent < 2 && rng_() % 2 == 0)) {
        SubmitDelimiter(id);
        if (::testing::Test::HasFatalFailure()) return;
        if (!on_victim) ++sent;
      }
    }

    // The kill point: a random slice into the in-flight work.
    std::this_thread::sleep_for(std::chrono::milliseconds(rng_() % 6));
    victim->Kill();
    ++kill_points_;
    if (partitioned) {
      for (auto& n : nodes_) {
        if (n->id() != victim->id()) transport_->Heal(victim->id(), n->id());
      }
    }
    DrainAll();  // surviving barriers resolve or time out

    // Recovery flavor: promote a live never-deposed follower, or restart
    // the victim in place (self-recovery, no promotion).
    std::vector<ReplicatedNode*> candidates;
    for (auto& n : nodes_) {
      if (n->running() && deposed_.count(n->id()) == 0) candidates.push_back(n.get());
    }
    if (!candidates.empty() && rng_() % 3 != 0) {
      const std::string heir_id =
          ChoosePromotionCandidate(candidates, &sws_, LoggerDb());
      ASSERT_FALSE(heir_id.empty());
      ReplicatedNode* heir = node(heir_id);
      ASSERT_TRUE(heir->Promote(victim->id()).ok());
      deposed_.insert(victim->id());
      OnLifeEvent(heir);
      if (rng_() % 2 == 0) {
        ASSERT_TRUE(victim->Start().ok());
        OnLifeEvent(victim);  // owns nothing: replay stays silent
      }
    } else {
      ASSERT_TRUE(victim->Start().ok());
      OnLifeEvent(victim);
    }
    DrainAll();
  }

  /// Final lifetime: clean-restart every node (authoritative recovery
  /// image for every session), finish what is unfinished, no more kills.
  void Settle() {
    for (auto& n : nodes_) {
      if (n->running()) n->Stop();
      ASSERT_TRUE(n->Start().ok());
    }
    for (auto& n : nodes_) OnLifeEvent(n.get());
    // Sessions whose delimiter was never sent close now.
    for (auto& [id, client] : sessions_) {
      bool needs_delimiter;
      {
        std::lock_guard<std::mutex> lock(mu_);
        needs_delimiter = !client.delimiter_sent;
      }
      if (needs_delimiter) {
        SubmitDelimiter(id);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    DrainAll();
  }

  void CheckExactlyOnce() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, client] : sessions_) {
      EXPECT_LE(client.deliveries, 1)
          << "session " << id << " (seed " << seed_ << ") delivered "
          << client.deliveries << " times — exactly-once violated";
      if (!client.ambiguous) {
        EXPECT_EQ(client.deliveries, 1)
            << "session " << id << " (seed " << seed_
            << ") was never delivered despite no visible failure";
      }
      EXPECT_TRUE(client.done)
          << "session " << id << " (seed " << seed_ << ") never settled";
    }
  }

  // Every session's final primary must have recovered state
  // byte-identical to an unkilled oracle fed the same stream.
  void CheckOracleConvergence() {
    for (auto& n : nodes_) {
      if (n->running()) n->Stop();
    }
    std::map<std::string, persistence::RecoveryResult> inspected;
    for (auto& n : nodes_) {
      persistence::RecoveryManager manager(n->options().dir, &sws_, LoggerDb(),
                                           persistence::RecoveryOptions{},
                                           nullptr);
      inspected.emplace(n->id(), manager.Inspect());
    }
    for (const auto& [id, client] : sessions_) {
      const persistence::RecoveryResult& state =
          inspected.at(group_->PrimaryOf(id));
      ASSERT_TRUE(state.status.ok()) << state.status.ToString();
      auto it = state.sessions.find(id);
      ASSERT_TRUE(it != state.sessions.end())
          << "session " << id << " (seed " << seed_
          << ") missing from its primary's durable state";
      SessionRunner oracle(&sws_, LoggerDb());
      oracle.Feed(Msg(client.value));
      auto outcome = oracle.Feed(SessionRunner::DelimiterMessage(1));
      ASSERT_TRUE(outcome.has_value() && outcome->status.ok());
      EXPECT_TRUE(it->second.db == oracle.db())
          << "session " << id << " (seed " << seed_ << ") diverged from "
          << "the unkilled oracle";
      EXPECT_EQ(it->second.db.Hash(), oracle.db().Hash());
      EXPECT_EQ(it->second.pending.size(), 0u);
      EXPECT_EQ(it->second.next_seq, 2u);
    }
  }

  const uint64_t seed_;
  std::mt19937_64 rng_;
  size_t kill_points_ = 0;

  Sws sws_;
  std::unique_ptr<ReplicaGroup> group_;
  std::unique_ptr<core::FaultInjector> wire_injector_;
  std::unique_ptr<InProcessTransport> transport_;
  TempDir dirs_[3];
  std::unique_ptr<ReplicatedNode> nodes_[3];
  std::set<std::string> deposed_;

  std::mutex mu_;
  std::map<std::string, ClientSession> sessions_;
};

// One randomized fully-automatic trial: auto_failover nodes, zero
// Promote() calls. Lifecycle transitions happen on background threads
// (the coordinator's promotion), so: submissions go through
// runtime_snapshot(), deliveries are recorded by the ack callback and
// the on_life_started callback (which reads the post-barrier
// replayed_copy()), and resubmission decisions are deferred to Settle(),
// where a clean sequential restart yields an authoritative recovery
// image per session — resubmitting against a stale image could re-run a
// committed delimiter and fork the state.
enum class TransportKind : uint8_t { kInProcess, kSocket };

class AutoTrial {
 public:
  explicit AutoTrial(uint64_t seed,
                     TransportKind kind = TransportKind::kInProcess)
      : seed_(seed), rng_(seed), kind_(kind), sws_(MakeTwoLevelLogger()) {}

  size_t kill_points() const { return kill_points_; }
  size_t sever_points() const { return sever_points_; }
  size_t isolation_points() const { return isolation_points_; }
  uint64_t garbled_frames() const {
    return socket_ != nullptr ? socket_->garbled() : 0;
  }
  uint64_t rejected_frames() const {
    return socket_ != nullptr ? socket_->rejected_frames() : 0;
  }
  uint64_t auto_promotions() const {
    uint64_t n = 0;
    for (auto& node : nodes_) {
      n += node->counters()->Load(rt::Counter::kAutoPromotions);
    }
    return n;
  }
  uint64_t fencing_rejects() const {
    uint64_t n = 0;
    for (auto& node : nodes_) {
      n += node->counters()->Load(rt::Counter::kEpochFencingRejects);
    }
    return n;
  }

  void Run() {
    Build();
    for (auto& node : nodes_) ASSERT_TRUE(node->Start().ok());

    const size_t n_sessions = 6 + rng_() % 6;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < n_sessions; ++i) {
        const std::string id = "s" + std::to_string(i);
        session_ids_.push_back(id);
        sessions_[id].value = static_cast<int64_t>(seed_ * 1000 + i);
      }
    }
    for (const std::string& id : session_ids_) {
      SubmitMsg(id);
      if (rng_() % 2 == 0) SubmitDelimiter(id);
    }
    DrainAll();
    // Plain messages carry no client-visible ack, so a message still in
    // flight when its primary is wrongfully deposed is legally lost
    // (at-most-once) — yet a later delimiter would then commit the
    // session EMPTY on the heir and fork it from the oracle. Quiesce the
    // links once, before any chaos: every message is durable on all of
    // its followers, so every possible future owner holds it.
    AwaitReplicationDrain();
    if (::testing::Test::HasFatalFailure()) return;

    const size_t cycles = 4;
    for (size_t cycle = 0; cycle < cycles && !::testing::Test::HasFatalFailure();
         ++cycle) {
      RunCycle();
    }
    if (::testing::Test::HasFatalFailure()) return;
    Settle();
    if (::testing::Test::HasFatalFailure()) return;
    CheckExactlyOnce();
    CheckOracleConvergence();
  }

 private:
  struct ClientSession {
    int64_t value = 0;
    bool delimiter_sent = false;
    bool ambiguous = false;
    bool done = false;
    /// The session's message was deliberately marooned on an isolated
    /// primary; only Settle() may close it, where the owner's recovery
    /// image says whether the message must be resubmitted first.
    bool settle_only = false;
    int deliveries = 0;
  };

  void Build() {
    group_ = std::make_unique<ReplicaGroup>(
        std::vector<std::string>{"a0", "a1", "a2"});
    core::FaultOptions wire;
    wire.seed = seed_ ^ 0x51a7ee75ull;
    if (kind_ == TransportKind::kSocket) {
      // Real loopback TCP. A garbled frame is costlier than a dropped
      // one: the receiver's CRC latches and the whole connection dies,
      // taking every queued frame behind it — so the rates stay below
      // in-process drop rates while still forcing hundreds of
      // connection kills per sweep.
      const double drops[] = {0.0, 0.005, 0.02};
      wire.transport_drop_rate = drops[rng_() % 3];
      const double garbles[] = {0.001, 0.003, 0.01};
      wire.transport_garble_rate = garbles[rng_() % 3];
      wire_injector_ = std::make_unique<core::FaultInjector>(wire);
      auto socket = std::make_unique<net::SocketTransport>(
          wire_injector_.get());
      socket_ = socket.get();
      transport_ = std::move(socket);
    } else {
      // Milder than manual mode: the election protocol itself already
      // contends with drops via retransmission, but a high drop rate on
      // vote traffic stretches every convergence window.
      const double drops[] = {0.0, 0.02, 0.05};
      wire.transport_drop_rate = drops[rng_() % 3];
      wire.transport_duplicate_rate = (rng_() % 2) * 0.05;
      wire.transport_reorder_rate = (rng_() % 2) * 0.05;
      wire_injector_ = std::make_unique<core::FaultInjector>(wire);
      transport_ = std::make_unique<InProcessTransport>(wire_injector_.get());
    }

    ReplicationOptions replication;
    replication.replicas = 2;
    replication.ack_quorum = 2;  // quorum-intersection: any live node
                                 // holds every acked outcome
    // Clocks stretch under sanitizers (kSanTimingScale): both transports
    // run the failure detector and the ack barrier against real wall
    // time, and instrumented execution shifts every race window's size
    // relative to the native-tuned cadence.
    const uint32_t scale = kSanTimingScale;
    replication.ack_timeout = std::chrono::milliseconds(40 * scale);
    replication.retransmit_interval = std::chrono::milliseconds(2 * scale);
    replication.heartbeat_interval = std::chrono::milliseconds(2 * scale);
    // Socket mode needs a deeper silence before suspicion: one garbled
    // frame kills the whole connection and every heartbeat queued
    // behind it, a burst loss the in-process transport cannot produce.
    // At 3 misses the two *survivors* of an isolation episode would
    // intermittently suspect each other and their interleaved elections
    // could race epochs forever without ever deposing the real victim.
    replication.suspicion_misses =
        kind_ == TransportKind::kSocket ? 5 : 3;
    replication.heartbeat_jitter = 0.5;
    replication.election_timeout = std::chrono::milliseconds(10 * scale);
    for (size_t i = 0; i < 3; ++i) {
      NodeOptions options;
      options.id = "a" + std::to_string(i);
      options.dir = dirs_[i].path();
      options.replication = replication;
      options.auto_failover = true;
      options.runtime.num_workers = 2;
      options.runtime.num_shards = 1 + rng_() % 3;
      options.runtime.durability.fsync = persistence::FsyncPolicy::kAlways;
      options.runtime.durability.segment_bytes = 4096;
      options.runtime.durability.snapshot_interval_appends = 4 + rng_() % 8;
      options.runtime.governance.enable_watchdog = true;
      options.runtime.governance.watchdog_interval =
          std::chrono::microseconds(300 + rng_() % 200);
      options.on_life_started = [this](const std::string& node_id) {
        // Fires after the life's replay re-emissions resolved their ack
        // barriers: replayed_copy() is exactly the delivered set. No
        // submissions from here — this thread may be the coordinator's.
        ReplicatedNode* n = node(node_id);
        for (const persistence::ReplayedOutcome& outcome : n->replayed_copy()) {
          RecordDelivery(outcome.session_id);
        }
      };
      nodes_[i] = std::make_unique<ReplicatedNode>(options, &sws_, LoggerDb(),
                                                   group_.get(),
                                                   transport_.get());
    }
  }

  ReplicatedNode* node(const std::string& id) {
    for (auto& n : nodes_) {
      if (n->id() == id) return n.get();
    }
    return nullptr;
  }

  void RecordDelivery(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    ClientSession& client = sessions_[id];
    ++client.deliveries;
    client.done = true;
  }

  bool SubmitMsg(const std::string& id) {
    ReplicatedNode* primary = node(group_->PrimaryOf(id));
    if (primary == nullptr || !primary->running()) return false;
    auto runtime = primary->runtime_snapshot();
    if (runtime == nullptr) return false;
    int64_t value;
    {
      std::lock_guard<std::mutex> lock(mu_);
      value = sessions_[id].value;
    }
    return runtime->Submit(id, Msg(value)).ok();
  }

  bool SubmitDelimiter(const std::string& id) {
    ReplicatedNode* primary = node(group_->PrimaryOf(id));
    if (primary == nullptr || !primary->running()) return false;
    auto runtime = primary->runtime_snapshot();
    if (runtime == nullptr) return false;
    // Mark before submitting — the ack can race the return — and roll
    // back on a refused submit (runtime already shutting down).
    bool prior;
    {
      std::lock_guard<std::mutex> lock(mu_);
      prior = sessions_[id].delimiter_sent;
      sessions_[id].delimiter_sent = true;
    }
    const bool ok =
        runtime
            ->Submit(id, SessionRunner::DelimiterMessage(1),
                     [this, id](rt::Outcome outcome) {
                       if (outcome.status.ok()) {
                         RecordDelivery(id);
                       } else {
                         std::lock_guard<std::mutex> lock(mu_);
                         sessions_[id].ambiguous = true;
                       }
                     })
            .ok();
    if (!ok) {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_[id].delimiter_sent = prior;
    }
    return ok;
  }

  void DrainAll() {
    for (auto& n : nodes_) {
      if (!n->running()) continue;
      auto runtime = n->runtime_snapshot();
      if (runtime != nullptr) runtime->Drain();
    }
  }

  /// Every running node's replication links fully acked: everything
  /// submitted so far is durable on every follower.
  void AwaitReplicationDrain() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    auto drained = [&] {
      for (auto& n : nodes_) {
        if (!n->running()) continue;
        for (uint64_t shard = 0; shard < 4; ++shard) {
          if (n->replicator()->MinUnackedSegment(shard) !=
              persistence::ShardDurability::kNoSegmentPin) {
            return false;
          }
        }
      }
      return true;
    };
    while (!drained() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    ASSERT_TRUE(drained())
        << "replication links never quiesced (seed " << seed_ << ")";
  }

  /// Wrongful deposition of a live, fully isolated primary — the main
  /// fencing_rejects source. Both directions are cut, so the victim
  /// keeps serving (and buffering shipments for a fresh session of its
  /// own) while the survivors suspect it and elect; it cannot learn the
  /// new epoch. Healing outbound FIRST lands its stale-epoch
  /// retransmissions on new-epoch followers (rejected, counted); healing
  /// inbound last lets the first returning ack fence its replicator for
  /// good. Safe despite the victim being live the whole time: ack_quorum
  /// == replicas means everything it ever acked is durable on the heir.
  void IsolationEpisode(ReplicatedNode* victim) {
    if (group_->IsDeposed(victim->id()) || !victim->running()) return;
    // Deposition is permanent, so once the other two nodes have been
    // promoted away every heir candidate resolves back to the victim:
    // no election is possible and the wait below could never finish.
    if (group_->HeirOf(victim->id(), {}).empty()) return;
    for (auto& n : nodes_) {
      if (n->id() == victim->id()) continue;
      transport_->Partition(victim->id(), n->id());
      transport_->Partition(n->id(), victim->id());
    }
    // Traffic that must be fenced later: a brand-new session owned by
    // the victim. Its input ships into the cut links and retransmits at
    // whatever epoch the victim believes in.
    std::string xid;
    for (int i = extra_sessions_; xid.empty() && i < extra_sessions_ + 500;
         ++i) {
      const std::string candidate = "x" + std::to_string(i);
      if (group_->PrimaryOf(candidate) == victim->id()) {
        xid = candidate;
        extra_sessions_ = i + 1;
      }
    }
    if (!xid.empty()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        session_ids_.push_back(xid);
        sessions_[xid].value =
            static_cast<int64_t>(seed_ * 1000 + 900 + extra_sessions_);
        // The message below ships into the cut links and dies with the
        // victim's epoch; a mid-cycle delimiter would reach the HEIR,
        // which assigns it seq 0 and commits the session empty.
        sessions_[xid].settle_only = true;
      }
      SubmitMsg(xid);
    }
    // The survivors still see each other: suspicion, campaign, quorum.
    // Wait for the deposition AND for every survivor's fence to pass the
    // victim's stale epoch — only then is the victim's old-epoch traffic
    // guaranteed to be *rejected* everywhere. (Healing earlier would let
    // a stale shipment land on a survivor that has not yet heard of the
    // promotion — an equal-epoch apply that leaves the session's input
    // prefix quorum-nonuniform.)
    const uint64_t stale_epoch = victim->fence()->current();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    auto survivors_fenced = [&] {
      if (!group_->IsDeposed(victim->id())) return false;
      for (auto& n : nodes_) {
        if (n->id() != victim->id() &&
            n->fence()->current() <= stale_epoch) {
          return false;
        }
      }
      return true;
    };
    while (!survivors_fenced() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    std::string diag;
    if (!survivors_fenced()) {
      diag = "victim=" + victim->id() +
             " deposed=" + (group_->IsDeposed(victim->id()) ? "y" : "n") +
             " stale_epoch=" + std::to_string(stale_epoch);
      for (auto& n : nodes_) {
        diag += " | " + n->id() + (n->running() ? " up" : " down") +
                " fence=" + std::to_string(n->fence()->current()) +
                " vote=" + std::to_string(n->fence()->last_vote()) +
                " catchup=" +
                std::to_string(n->replicator()->pending_catchup_count()) +
                " susp=" +
                std::to_string(
                    n->counters()->Load(rt::Counter::kPeerSuspicions)) +
                " promo=" +
                std::to_string(
                    n->counters()->Load(rt::Counter::kAutoPromotions)) +
                " elect=" +
                std::to_string(n->coordinator()->elections_started()) +
                " suspects=[" + n->coordinator()->SuspectIds() + "]";
      }
      if (socket_ != nullptr) diag += " | wire " + socket_->DebugString();
    }
    ASSERT_TRUE(survivors_fenced())
        << "survivors never deposed the isolated primary (seed " << seed_
        << "): " << diag;
    for (auto& n : nodes_) {
      if (n->id() != victim->id()) transport_->Heal(victim->id(), n->id());
    }
    // A few retransmit intervals of stale-epoch traffic before the
    // fencing news can travel back.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (auto& n : nodes_) {
      if (n->id() != victim->id()) transport_->Heal(n->id(), victim->id());
    }
  }

  /// Every session's current primary is a running node — the cluster
  /// self-healed (election completed, or the rejoined owner is back).
  void AwaitConvergence() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < deadline) {
      bool converged = true;
      for (const std::string& id : session_ids_) {
        ReplicatedNode* primary = node(group_->PrimaryOf(id));
        if (primary == nullptr || !primary->running()) {
          converged = false;
          break;
        }
      }
      if (converged) return;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    FAIL() << "cluster never converged on running primaries (seed " << seed_
           << ")";
  }

  void RunCycle() {
    // Downed nodes rejoin — Start() is a rejoin, never a promotion.
    for (auto& n : nodes_) {
      if (!n->running()) {
        ASSERT_TRUE(n->Start().ok());
      }
    }
    AwaitConvergence();
    if (::testing::Test::HasFatalFailure()) return;
    DrainAll();

    ReplicatedNode* victim = nodes_[rng_() % 3].get();
    if (rng_() % 3 == 0) {
      victim->injector()->KillStorageAfter(static_cast<uint32_t>(rng_() % 6));
    }
    if (socket_ != nullptr && rng_() % 2 == 0) {
      // Sever-FD chaos (socket mode only): every TCP connection touching
      // a random node dies — no partition installed, so lazy redial must
      // recover transparently, and anything queued on the dying links is
      // lost for the Replicator's retransmission to resynchronize.
      socket_->Sever(nodes_[rng_() % 3]->id());
      ++sever_points_;
    }
    if (rng_() % 4 == 0) {
      IsolationEpisode(victim);
      ++isolation_points_;
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Fresh delimiters (never-sent only), biased to the victim so kills
    // land mid-stream and mid-barrier.
    std::vector<std::string> fresh;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, client] : sessions_) {
        if (!client.delimiter_sent && !client.settle_only) {
          fresh.push_back(id);
        }
      }
    }
    size_t sent = 0;
    for (const std::string& id : fresh) {
      const bool on_victim = group_->PrimaryOf(id) == victim->id();
      if (on_victim || (sent < 2 && rng_() % 2 == 0)) {
        if (SubmitDelimiter(id) && !on_victim) ++sent;
      }
    }

    // The kill point: a random slice into the in-flight work.
    std::this_thread::sleep_for(std::chrono::milliseconds(rng_() % 6));
    victim->Kill();
    ++kill_points_;
    if (rng_() % 4 == 0 && victim->Start().ok()) {
      // Flap: the node comes straight back — usually deposed mid-restart,
      // re-shipping its stale tail into the new epoch — and dies again.
      std::this_thread::sleep_for(std::chrono::milliseconds(rng_() % 4));
      victim->Kill();
      ++kill_points_;
    }
    // The deposed primary returns while the survivors' election may
    // still be in flight; either outcome converges.
    ASSERT_TRUE(victim->Start().ok());
    AwaitConvergence();
    if (::testing::Test::HasFatalFailure()) return;
    DrainAll();
  }

  /// Clean sequential restarts (authoritative recovery image for every
  /// session), then resolve each client against its current owner;
  /// bounded retry rounds absorb barrier timeouts from residual wire
  /// faults.
  void Settle() {
    for (int round = 0; round < 4; ++round) {
      for (auto& n : nodes_) {
        if (n->running()) n->Stop();
        ASSERT_TRUE(n->Start().ok());
      }
      AwaitConvergence();
      if (::testing::Test::HasFatalFailure()) return;
      for (const std::string& id : session_ids_) {
        ResolveSession(id);
        if (::testing::Test::HasFatalFailure()) return;
      }
      DrainAll();
      bool all_done = true;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [id, client] : sessions_) {
          all_done = all_done && client.done;
        }
      }
      if (all_done) return;
    }
  }

  /// The per-session slice of the manual harness's OnLifeEvent logic,
  /// run only when the owner's recovery image is authoritative (fresh
  /// life, nothing submitted since).
  void ResolveSession(const std::string& id) {
    ReplicatedNode* owner = node(group_->PrimaryOf(id));
    ASSERT_TRUE(owner != nullptr && owner->running());
    const persistence::RecoveryResult* recovery = owner->runtime()->recovery();
    bool done, ambiguous;
    int deliveries;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const ClientSession& client = sessions_[id];
      done = client.done;
      ambiguous = client.ambiguous;
      deliveries = client.deliveries;
    }
    uint64_t next_seq = 0;
    if (recovery != nullptr) {
      auto it = recovery->sessions.find(id);
      if (it != recovery->sessions.end()) next_seq = it->second.next_seq;
    }
    if (next_seq >= 2) {
      // Committed but never acknowledged: legal only when the client
      // visibly failed (at-most-once).
      EXPECT_TRUE(ambiguous || deliveries > 0)
          << "session " << id << " (seed " << seed_
          << ") committed without the client ever seeing an ack or error";
      std::lock_guard<std::mutex> lock(mu_);
      sessions_[id].done = true;
      return;
    }
    // The authoritative owner lacks the commit; with ack_quorum ==
    // replicas a delivered outcome is durable on every possible owner,
    // so any recorded delivery would be a double-delivery in the making.
    EXPECT_EQ(deliveries, 0)
        << "session " << id << " (seed " << seed_
        << ") was delivered, yet the current owner recovered without the "
           "commit — a delivered outcome must be durable on every heir";
    if (deliveries > 0) return;
    if (done) {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_[id].done = false;
    }
    if (next_seq == 0) SubmitMsg(id);
    // Close it now whether or not it was ever closed before: Settle is
    // the final lifetime.
    SubmitDelimiter(id);
  }

  void CheckExactlyOnce() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, client] : sessions_) {
      EXPECT_LE(client.deliveries, 1)
          << "session " << id << " (seed " << seed_ << ") delivered "
          << client.deliveries << " times — exactly-once violated";
      if (!client.ambiguous) {
        EXPECT_EQ(client.deliveries, 1)
            << "session " << id << " (seed " << seed_
            << ") was never delivered despite no visible failure";
      }
      EXPECT_TRUE(client.done)
          << "session " << id << " (seed " << seed_ << ") never settled";
    }
  }

  void CheckOracleConvergence() {
    for (auto& n : nodes_) {
      if (n->running()) n->Stop();
    }
    std::map<std::string, persistence::RecoveryResult> inspected;
    for (auto& n : nodes_) {
      persistence::RecoveryManager manager(n->options().dir, &sws_, LoggerDb(),
                                           persistence::RecoveryOptions{},
                                           nullptr);
      inspected.emplace(n->id(), manager.Inspect());
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, client] : sessions_) {
      const persistence::RecoveryResult& state =
          inspected.at(group_->PrimaryOf(id));
      ASSERT_TRUE(state.status.ok()) << state.status.ToString();
      auto it = state.sessions.find(id);
      ASSERT_TRUE(it != state.sessions.end())
          << "session " << id << " (seed " << seed_
          << ") missing from its primary's durable state";
      SessionRunner oracle(&sws_, LoggerDb());
      oracle.Feed(Msg(client.value));
      auto outcome = oracle.Feed(SessionRunner::DelimiterMessage(1));
      ASSERT_TRUE(outcome.has_value() && outcome->status.ok());
      EXPECT_TRUE(it->second.db == oracle.db())
          << "session " << id << " (seed " << seed_ << ") diverged from "
          << "the unkilled oracle";
      EXPECT_EQ(it->second.db.Hash(), oracle.db().Hash());
      EXPECT_EQ(it->second.pending.size(), 0u);
      EXPECT_EQ(it->second.next_seq, 2u);
    }
  }

  const uint64_t seed_;
  std::mt19937_64 rng_;
  const TransportKind kind_;
  size_t kill_points_ = 0;
  size_t sever_points_ = 0;
  size_t isolation_points_ = 0;

  Sws sws_;
  std::unique_ptr<ReplicaGroup> group_;
  std::unique_ptr<core::FaultInjector> wire_injector_;
  std::unique_ptr<ReplicationTransport> transport_;
  net::SocketTransport* socket_ = nullptr;  // non-null in socket mode
  TempDir dirs_[3];
  std::unique_ptr<ReplicatedNode> nodes_[3];

  std::mutex mu_;
  std::map<std::string, ClientSession> sessions_;
  /// Grown only on the main thread (init + isolation episodes); the
  /// field mutations behind each id are what mu_ guards.
  std::vector<std::string> session_ids_;
  int extra_sessions_ = 0;  // next "x<n>" isolation-session candidate
};

TEST(NodeChaosTest, RandomizedKillsConvergeExactlyOnceLowSeeds) {
  size_t kill_points = 0;
  for (uint64_t seed = 1; seed <= 85; ++seed) {
    Trial trial(seed);
    trial.Run();
    kill_points += trial.kill_points();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting at seed " << seed;
    }
  }
  EXPECT_GE(kill_points, 250u);
}

TEST(NodeChaosTest, RandomizedKillsConvergeExactlyOnceHighSeeds) {
  size_t kill_points = 0;
  for (uint64_t seed = 501; seed <= 585; ++seed) {
    Trial trial(seed);
    trial.Run();
    kill_points += trial.kill_points();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting at seed " << seed;
    }
  }
  EXPECT_GE(kill_points, 250u);
}

TEST(AutoNodeChaosTest, SelfHealingKillsConvergeExactlyOnceLowSeeds) {
  size_t kill_points = 0;
  uint64_t auto_promotions = 0;
  uint64_t fencing_rejects = 0;
  for (uint64_t seed = 1; seed <= 63; ++seed) {
    AutoTrial trial(seed);
    trial.Run();
    kill_points += trial.kill_points();
    auto_promotions += trial.auto_promotions();
    fencing_rejects += trial.fencing_rejects();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting at seed " << seed;
    }
  }
  EXPECT_GE(kill_points, 250u);
  // The cluster healed itself: elections actually ran (no Promote() call
  // exists in AutoTrial), and deposed primaries' stale-epoch traffic was
  // actually rejected rather than merged.
  EXPECT_GT(auto_promotions, 0u);
  EXPECT_GT(fencing_rejects, 0u);
}

TEST(AutoNodeChaosTest, SelfHealingKillsConvergeExactlyOnceHighSeeds) {
  size_t kill_points = 0;
  uint64_t auto_promotions = 0;
  uint64_t fencing_rejects = 0;
  for (uint64_t seed = 701; seed <= 763; ++seed) {
    AutoTrial trial(seed);
    trial.Run();
    kill_points += trial.kill_points();
    auto_promotions += trial.auto_promotions();
    fencing_rejects += trial.fencing_rejects();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting at seed " << seed;
    }
  }
  EXPECT_GE(kill_points, 250u);
  EXPECT_GT(auto_promotions, 0u);
  EXPECT_GT(fencing_rejects, 0u);
}

// Socket-mode sweeps: the same self-healing invariants with replication
// over real loopback TCP. Chaos points are whole-node kills, sever-FD
// episodes, partition/isolation episodes, and connections killed by
// in-flight frame corruption (rejected_frames — each one is a TCP
// connection dying at a random byte position for retransmission to
// resynchronize through; since the header CRC this count is traffic-
// dependent but every rejection is immediate, never a stalled decoder).
// The two sweeps together exceed 500 such points, with zero harness
// promotions.
void RunSocketSweep(uint64_t seed_lo, uint64_t seed_hi) {
  size_t chaos_points = 0;
  uint64_t garbled = 0;
  uint64_t conn_kills = 0;
  uint64_t auto_promotions = 0;
  uint64_t fencing_rejects = 0;
  for (uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
    AutoTrial trial(seed, TransportKind::kSocket);
    trial.Run();
    chaos_points += trial.kill_points() + trial.sever_points() +
                    trial.isolation_points() + trial.rejected_frames();
    garbled += trial.garbled_frames();
    conn_kills += trial.rejected_frames();
    auto_promotions += trial.auto_promotions();
    fencing_rejects += trial.fencing_rejects();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting at seed " << seed;
    }
  }
  EXPECT_GE(chaos_points, 250u);
  // The garble path actually fired end to end: frames were corrupted in
  // flight AND receivers' CRCs caught them (killing the connection)
  // rather than delivering garbage.
  EXPECT_GT(garbled, 0u);
  EXPECT_GT(conn_kills, 0u);
  // Self-healing over real sockets: elections ran (AutoTrial never
  // calls Promote()) and stale-epoch traffic was fenced.
  EXPECT_GT(auto_promotions, 0u);
  EXPECT_GT(fencing_rejects, 0u);
}

TEST(SocketNodeChaosTest, SelfHealingSocketChaosConvergesLowSeeds) {
  RunSocketSweep(1, 32);
}

TEST(SocketNodeChaosTest, SelfHealingSocketChaosConvergesHighSeeds) {
  RunSocketSweep(901, 932);
}

}  // namespace
}  // namespace sws::replication
