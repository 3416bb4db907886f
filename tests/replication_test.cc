// Unit and small-integration coverage for src/replication/: consistent-
// hash placement and promotion overrides, the in-process transport (FIFO
// delivery, partitions, injected drop/duplicate faults), the link
// protocol (in-order apply, cumulative acks, duplicate re-acks,
// first_unacked fast-forward, source-incarnation resets), the quorum ack
// barrier (reach, timeout, heal-and-retransmit), GC-pin bookkeeping,
// manual-failover suspicion, and an end-to-end kill + promotion over
// real runtimes. The large randomized harness lives in
// node_chaos_test.cc.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "logic/cq.h"
#include "persistence/recovery.h"
#include "replication/follower.h"
#include "replication/node.h"
#include "replication/replica_group.h"
#include "replication/replicator.h"
#include "replication/transport.h"
#include "runtime/runtime.h"
#include "sws/session.h"
#include "util/common.h"

namespace sws::replication {
namespace {

using core::RunError;
using core::SessionRunner;
using core::Sws;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;
using rel::Relation;
using rel::Value;

// The depth-2 logger from session_test.cc / crash_recovery_test.cc:
// commits each session's first message into Log.
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
    char tmpl[] = "/tmp/sws_replication_XXXXXX";
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

persistence::JournalRecord InputRecord(const std::string& session,
                                       uint64_t seq, Relation payload) {
  persistence::JournalRecord record;
  record.type = persistence::JournalRecord::Type::kInput;
  record.session_id = session;
  record.seq = seq;
  record.payload = std::move(payload);
  return record;
}

Shipment MakeShipment(const std::string& source, const std::string& dest,
                      uint64_t incarnation, uint64_t link_seq,
                      uint64_t first_unacked,
                      const persistence::JournalRecord& record) {
  Shipment s;
  s.from = source;
  s.to = dest;
  s.source_incarnation = incarnation;
  s.link_seq = link_seq;
  s.first_unacked = first_unacked;
  s.shard = 0;
  s.segment_n = 0;
  s.frame = persistence::EncodeRecordFrame(record);
  return s;
}

// ---------------------------------------------------------------------
// Options validation

TEST(ReplicationOptionsTest, ValidatesAgainstGroupSize) {
  ReplicationOptions options;
  EXPECT_TRUE(ValidateReplicationOptions(options, 0).ok());  // off is off

  options.replicas = 2;
  EXPECT_TRUE(ValidateReplicationOptions(options, 3).ok());
  EXPECT_FALSE(ValidateReplicationOptions(options, 2).ok());  // > group-1
  EXPECT_FALSE(ValidateReplicationOptions(options, 0).ok());

  options.ack_quorum = 3;
  EXPECT_FALSE(ValidateReplicationOptions(options, 4).ok());  // > replicas
  options.ack_quorum = 2;
  EXPECT_TRUE(ValidateReplicationOptions(options, 4).ok());

  options.ack_timeout = std::chrono::milliseconds(0);
  EXPECT_FALSE(ValidateReplicationOptions(options, 4).ok());
  options.ack_timeout = std::chrono::milliseconds(10);
  options.retransmit_interval = std::chrono::milliseconds(-1);
  EXPECT_FALSE(ValidateReplicationOptions(options, 4).ok());
}

TEST(ReplicationOptionsTest, QuorumZeroResolvesToAllFollowers) {
  ReplicationOptions options;
  options.replicas = 3;
  EXPECT_EQ(options.resolved_quorum(), 3u);
  options.ack_quorum = 1;
  EXPECT_EQ(options.resolved_quorum(), 1u);
}

// ---------------------------------------------------------------------
// ReplicaGroup

TEST(ReplicaGroupTest, PlacementIsDeterministicDistinctAndCovering) {
  const std::vector<std::string> nodes = {"n0", "n1", "n2"};
  ReplicaGroup a(nodes);
  ReplicaGroup b(nodes);
  std::map<std::string, size_t> owned;
  for (int i = 0; i < 300; ++i) {
    const std::string id = "s" + std::to_string(i);
    EXPECT_EQ(a.PrimaryOf(id), b.PrimaryOf(id));  // pure function of inputs
    const std::vector<std::string> replicas = a.ReplicasOf(id, 2);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(std::set<std::string>(replicas.begin(), replicas.end()).size(),
              3u);
    EXPECT_EQ(replicas.front(), a.PrimaryOf(id));
    const std::vector<std::string> followers = a.FollowersOf(id, 2);
    ASSERT_EQ(followers.size(), 2u);
    EXPECT_EQ(followers[0], replicas[1]);
    ++owned[a.PrimaryOf(id)];
  }
  // Every node serves a non-trivial share (consistent hashing spreads).
  for (const std::string& node : nodes) {
    EXPECT_GT(owned[node], 30u) << node;
  }
}

TEST(ReplicaGroupTest, ReplicasCappedByGroupSize) {
  ReplicaGroup group({"n0", "n1"});
  EXPECT_EQ(group.ReplicasOf("s", 5).size(), 2u);
}

TEST(ReplicaGroupTest, PromoteReroutesDeadArcsAndChains) {
  ReplicaGroup group({"n0", "n1", "n2"});
  // Find a session served by n0.
  std::string victim_session;
  for (int i = 0; i < 200 && victim_session.empty(); ++i) {
    const std::string id = "s" + std::to_string(i);
    if (group.PrimaryOf(id) == "n0") victim_session = id;
  }
  ASSERT_FALSE(victim_session.empty());

  group.Promote("n0", "n1");
  EXPECT_EQ(group.PrimaryOf(victim_session), "n1");
  // n0 vanishes from every replica set (its tokens resolve to n1).
  for (int i = 0; i < 100; ++i) {
    const std::vector<std::string> replicas =
        group.ReplicasOf("s" + std::to_string(i), 2);
    for (const std::string& node : replicas) EXPECT_NE(node, "n0");
    EXPECT_LE(replicas.size(), 2u);  // only two live owners remain
  }
  // Chain: n1 dies too; n0's sessions follow to n2.
  group.Promote("n1", "n2");
  EXPECT_EQ(group.PrimaryOf(victim_session), "n2");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(group.PrimaryOf("s" + std::to_string(i)), "n2");
  }
}

// ---------------------------------------------------------------------
// InProcessTransport

class RecordingEndpoint : public ReplicationEndpoint {
 public:
  void OnMessage(const Message& message) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto* shipment = std::get_if<Shipment>(&message)) {
      shipments_.push_back(*shipment);
    } else if (const auto* ack = std::get_if<Ack>(&message)) {
      acks_.emplace_back(ack->from, ack->acked_link_seq);
    } else if (std::holds_alternative<Heartbeat>(message)) {
      heartbeat_times_.push_back(std::chrono::steady_clock::now());
    }
  }

  std::vector<Shipment> shipments() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shipments_;
  }
  std::vector<std::pair<std::string, uint64_t>> acks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acks_;
  }
  size_t heartbeats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return heartbeat_times_.size();
  }
  std::vector<std::chrono::steady_clock::time_point> heartbeat_times() const {
    std::lock_guard<std::mutex> lock(mu_);
    return heartbeat_times_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Shipment> shipments_;
  std::vector<std::pair<std::string, uint64_t>> acks_;
  std::vector<std::chrono::steady_clock::time_point> heartbeat_times_;
};

// Spin-waits (bounded) for an asynchronous delivery condition.
template <typename Predicate>
bool WaitFor(Predicate predicate,
             std::chrono::milliseconds budget = std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return predicate();
}

TEST(InProcessTransportTest, DeliversInOrderWithoutFaults) {
  InProcessTransport transport(nullptr);
  RecordingEndpoint follower;
  transport.Bind("f", &follower);
  const persistence::JournalRecord record = InputRecord("s", 0, Msg(1));
  for (uint64_t seq = 1; seq <= 8; ++seq) {
    transport.Send(MakeShipment("p", "f", 1, seq, 1, record));
  }
  ASSERT_TRUE(WaitFor([&] { return follower.shipments().size() == 8; }));
  const std::vector<Shipment> got = follower.shipments();
  for (uint64_t seq = 1; seq <= 8; ++seq) {
    EXPECT_EQ(got[seq - 1].link_seq, seq);
  }
  transport.Unbind("f");
}

TEST(InProcessTransportTest, PartitionsAndIsolationDrop) {
  InProcessTransport transport(nullptr);
  RecordingEndpoint follower;
  transport.Bind("f", &follower);
  const persistence::JournalRecord record = InputRecord("s", 0, Msg(1));

  transport.Partition("p", "f");
  transport.Send(MakeShipment("p", "f", 1, 1, 1, record));
  transport.Heal("p", "f");
  transport.Send(MakeShipment("p", "f", 1, 2, 1, record));
  ASSERT_TRUE(WaitFor([&] { return follower.shipments().size() == 1; }));
  EXPECT_EQ(follower.shipments()[0].link_seq, 2u);  // seq 1 vanished

  transport.Isolate("f");
  transport.Send(MakeShipment("p", "f", 1, 3, 1, record));
  transport.Rejoin("f");
  transport.Send(MakeShipment("p", "f", 1, 4, 1, record));
  ASSERT_TRUE(WaitFor([&] { return follower.shipments().size() == 2; }));
  EXPECT_EQ(follower.shipments()[1].link_seq, 4u);
  EXPECT_GE(transport.dropped(), 2u);
  transport.Unbind("f");
}

TEST(InProcessTransportTest, InjectedDropAndDuplicateFaults) {
  const persistence::JournalRecord record = InputRecord("s", 0, Msg(1));
  {
    core::FaultOptions fault_options;
    fault_options.transport_drop_rate = 1.0;
    core::FaultInjector injector(fault_options);
    InProcessTransport transport(&injector);
    RecordingEndpoint follower;
    transport.Bind("f", &follower);
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      transport.Send(MakeShipment("p", "f", 1, seq, 1, record));
    }
    EXPECT_FALSE(
        WaitFor([&] { return !follower.shipments().empty(); },
                std::chrono::milliseconds(50)));
    EXPECT_EQ(transport.dropped(), 5u);
    EXPECT_EQ(injector.hits(core::FaultPoint::kTransportDrop), 5u);
    transport.Unbind("f");
  }
  {
    core::FaultOptions fault_options;
    fault_options.transport_duplicate_rate = 1.0;
    core::FaultInjector injector(fault_options);
    InProcessTransport transport(&injector);
    RecordingEndpoint follower;
    transport.Bind("f", &follower);
    transport.Send(MakeShipment("p", "f", 1, 1, 1, record));
    ASSERT_TRUE(WaitFor([&] { return follower.shipments().size() == 2; }));
    EXPECT_EQ(transport.duplicated(), 1u);
    transport.Unbind("f");
  }
}

// ---------------------------------------------------------------------
// FollowerApplier link protocol

struct ApplierRig {
  explicit ApplierRig(uint64_t incarnation = 1)
      : applier("f", MakeOptions(dir.path()), &transport, incarnation,
                nullptr) {
    transport.Bind("p", &primary);  // receives the applier's acks
  }
  ~ApplierRig() { transport.Unbind("p"); }  // before `primary` dies
  static FollowerApplier::Options MakeOptions(const std::string& dir) {
    FollowerApplier::Options options;
    options.dir = dir;
    return options;
  }
  TempDir dir;
  InProcessTransport transport;
  RecordingEndpoint primary;
  FollowerApplier applier;
};

TEST(FollowerApplierTest, AppliesInLinkOrderAndBuffersGaps) {
  ApplierRig rig;
  const persistence::JournalRecord r1 = InputRecord("s", 0, Msg(1));
  const persistence::JournalRecord r2 = InputRecord("s", 1, Msg(2));
  const persistence::JournalRecord r3 = InputRecord("s", 2, Msg(3));

  // Out of order: 2 buffers (gap), 1 releases both, 3 extends.
  rig.applier.OnShipment(MakeShipment("p", "f", 1, 2, 1, r2));
  EXPECT_EQ(rig.applier.applied(), 0u);
  rig.applier.OnShipment(MakeShipment("p", "f", 1, 1, 1, r1));
  EXPECT_EQ(rig.applier.applied(), 2u);
  rig.applier.OnShipment(MakeShipment("p", "f", 1, 3, 1, r3));
  EXPECT_EQ(rig.applier.applied(), 3u);

  // Duplicate of an applied seq: re-acked, not re-applied.
  rig.applier.OnShipment(MakeShipment("p", "f", 1, 2, 1, r2));
  EXPECT_EQ(rig.applier.applied(), 3u);
  EXPECT_EQ(rig.applier.duplicates(), 1u);

  // The records are durably journaled in the applier's dir.
  std::vector<persistence::DurableFile> files;
  ASSERT_TRUE(persistence::ListDurableFiles(rig.dir.path(), &files).ok());
  EXPECT_FALSE(files.empty());
}

TEST(FollowerApplierTest, CorruptFrameIsRejectedNotApplied) {
  ApplierRig rig;
  Shipment bad = MakeShipment("p", "f", 1, 1, 1, InputRecord("s", 0, Msg(1)));
  bad.frame[bad.frame.size() - 1] ^= 0x5a;  // flip a payload byte: CRC fails
  rig.applier.OnShipment(bad);
  EXPECT_EQ(rig.applier.applied(), 0u);
  EXPECT_EQ(rig.applier.rejected(), 1u);
  // The clean retransmit applies.
  rig.applier.OnShipment(
      MakeShipment("p", "f", 1, 1, 1, InputRecord("s", 0, Msg(1))));
  EXPECT_EQ(rig.applier.applied(), 1u);
}

TEST(FollowerApplierTest, FastForwardsPastAckedPrefix) {
  // A fresh link (this applier life never saw the source) receiving
  // link_seq 5 with first_unacked 5 must not wait for 1..4: those were
  // cumulatively acked — i.e. durably applied by a previous life.
  ApplierRig rig;
  rig.applier.OnShipment(
      MakeShipment("p", "f", 1, 5, 5, InputRecord("s", 4, Msg(5))));
  EXPECT_EQ(rig.applier.applied(), 1u);

  // A later retransmit below the fast-forward point is a duplicate.
  rig.applier.OnShipment(
      MakeShipment("p", "f", 1, 3, 1, InputRecord("s", 2, Msg(3))));
  EXPECT_EQ(rig.applier.applied(), 1u);
  EXPECT_EQ(rig.applier.duplicates(), 1u);
}

TEST(FollowerApplierTest, SourceIncarnationBumpResetsTheLink) {
  ApplierRig rig;
  rig.applier.OnShipment(
      MakeShipment("p", "f", 1, 1, 1, InputRecord("s", 0, Msg(1))));
  rig.applier.OnShipment(
      MakeShipment("p", "f", 1, 2, 1, InputRecord("s", 1, Msg(2))));
  EXPECT_EQ(rig.applier.applied(), 2u);

  // The source restarts: new incarnation renumbers from 1.
  rig.applier.OnShipment(
      MakeShipment("p", "f", 2, 1, 1, InputRecord("t", 0, Msg(7))));
  EXPECT_EQ(rig.applier.applied(), 3u);

  // The old life's stragglers are stale, not applied.
  rig.applier.OnShipment(
      MakeShipment("p", "f", 1, 3, 1, InputRecord("s", 2, Msg(3))));
  EXPECT_EQ(rig.applier.applied(), 3u);
}

TEST(FollowerApplierTest, RejectsFirstUnackedOutsideTheLink) {
  // A sender sets first_unacked to its cumulative ack + 1 and ships only
  // past that ack, so 1 <= first_unacked <= link_seq. On a fresh link,
  // first_unacked 0 used to wrap the cursor to 2^64 - 1: the follower
  // acked records it never had, and every later shipment of that life
  // counted as a duplicate. One past link_seq fast-forwards over records
  // never applied.
  ApplierRig rig;
  rig.applier.OnShipment(MakeShipment("p", "f", 1, 1, /*first_unacked=*/0,
                                      InputRecord("s", 0, Msg(1))));
  rig.applier.OnShipment(MakeShipment("p", "f", 1, 2, /*first_unacked=*/5,
                                      InputRecord("s", 1, Msg(2))));
  EXPECT_EQ(rig.applier.rejected(), 2u);
  EXPECT_EQ(rig.applier.applied(), 0u);

  // The link was left untouched: the well-formed stream applies from 1,
  // and no ack claims more than was applied.
  for (int64_t seq = 1; seq <= 3; ++seq) {
    rig.applier.OnShipment(
        MakeShipment("p", "f", 1, static_cast<uint64_t>(seq), 1,
                     InputRecord("s", static_cast<uint64_t>(seq - 1),
                                 Msg(seq))));
  }
  EXPECT_EQ(rig.applier.applied(), 3u);
  EXPECT_EQ(rig.applier.duplicates(), 0u);
  ASSERT_TRUE(WaitFor([&] { return rig.primary.acks().size() >= 3; }));
  const std::vector<std::pair<std::string, uint64_t>> acks =
      rig.primary.acks();
  ASSERT_EQ(acks.size(), 3u);
  for (size_t i = 0; i < acks.size(); ++i) EXPECT_EQ(acks[i].second, i + 1);
}

// ---------------------------------------------------------------------
// Replicator: links, barrier, retransmission, pins

struct ReplicatorRig {
  ReplicatorRig(ReplicationOptions options, core::FaultInjector* injector =
                                                nullptr)
      : group({"p", "f1", "f2"}),
        transport(injector),
        replicator("p", &group, options, &transport, /*incarnation=*/1,
                   /*fence=*/nullptr, &counters) {}
  ReplicaGroup group;
  InProcessTransport transport;
  rt::Counters counters;
  Replicator replicator;
};

ReplicationOptions FastOptions(size_t replicas, size_t quorum) {
  ReplicationOptions options;
  options.replicas = replicas;
  options.ack_quorum = quorum;
  options.ack_timeout = std::chrono::milliseconds(150);
  options.retransmit_interval = std::chrono::milliseconds(3);
  options.heartbeat_interval = std::chrono::milliseconds(5);
  return options;
}

// A real applier per follower gives end-to-end acks over the transport.
struct FollowerRig {
  FollowerRig(const std::string& id, InProcessTransport* transport)
      : applier(id, ApplierRig::MakeOptions(dir.path()), transport,
                /*incarnation=*/1, nullptr) {}
  TempDir dir;
  FollowerApplier applier;
};

class FollowerEndpoint : public ReplicationEndpoint {
 public:
  explicit FollowerEndpoint(FollowerApplier* applier) : applier_(applier) {}
  void OnMessage(const Message& message) override {
    if (const auto* shipment = std::get_if<Shipment>(&message)) {
      applier_->OnShipment(*shipment);
    }
  }

 private:
  FollowerApplier* const applier_;
};

class ReplicatorEndpoint : public ReplicationEndpoint {
 public:
  explicit ReplicatorEndpoint(Replicator* replicator)
      : replicator_(replicator) {}
  void OnMessage(const Message& message) override {
    if (const auto* ack = std::get_if<Ack>(&message)) replicator_->OnAck(*ack);
  }

 private:
  Replicator* const replicator_;
};

TEST(ReplicatorTest, BarrierReachesQuorumThroughRealFollowers) {
  ReplicatorRig rig(FastOptions(2, 2));
  FollowerRig f1("f1", &rig.transport);
  FollowerRig f2("f2", &rig.transport);
  FollowerEndpoint e1(&f1.applier);
  FollowerEndpoint e2(&f2.applier);
  ReplicatorEndpoint ep(&rig.replicator);
  rig.transport.Bind("f1", &e1);
  rig.transport.Bind("f2", &e2);
  rig.transport.Bind("p", &ep);

  // A session this replicator serves: both other nodes are its followers.
  std::string session;
  for (int i = 0; i < 200 && session.empty(); ++i) {
    const std::string id = "s" + std::to_string(i);
    if (rig.group.PrimaryOf(id) == "p") session = id;
  }
  ASSERT_FALSE(session.empty());
  rig.replicator.ShipRecord(InputRecord(session, 0, Msg(1)), 0, 0);
  const core::Status barrier = rig.replicator.ShipOutcomeAndWait(
      InputRecord(session, 1, SessionRunner::DelimiterMessage(1)), 0, 0);
  EXPECT_TRUE(barrier.ok()) << barrier.ToString();
  EXPECT_EQ(f1.applier.applied() + f2.applier.applied(), 4u);

  // Everything acknowledged: no segment pinned anywhere.
  EXPECT_EQ(rig.replicator.MinUnackedSegment(0),
            persistence::ShardDurability::kNoSegmentPin);

  rig.transport.Unbind("p");
  rig.transport.Unbind("f1");
  rig.transport.Unbind("f2");
}

TEST(ReplicatorTest, BarrierTimesOutWithoutQuorum) {
  // Followers exist in the group but nothing is bound: acks never come.
  ReplicatorRig rig(FastOptions(2, 1));
  const auto start = std::chrono::steady_clock::now();
  const core::Status barrier = rig.replicator.ShipOutcomeAndWait(
      InputRecord("s1", 1, SessionRunner::DelimiterMessage(1)), 0, 7);
  EXPECT_EQ(barrier.code(), RunError::kReplicationTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(150));
  // The unacknowledged outcome pins its segment.
  EXPECT_EQ(rig.replicator.MinUnackedSegment(0), 7u);
  EXPECT_GE(rig.counters.Load(rt::Counter::kFollowerLagHwm), 1u);
}

TEST(ReplicatorTest, AckPastTheLastShippedSeqIsIgnored) {
  // One record shipped on each link and no follower bound. Acks claiming
  // link_seq 1000 vouch for records never shipped; counting them used to
  // release the buffer and let the next barrier pass at once, quorum
  // durability that no follower had.
  ReplicatorRig rig(FastOptions(2, 2));
  std::string session;
  for (int i = 0; i < 200 && session.empty(); ++i) {
    const std::string id = "s" + std::to_string(i);
    if (rig.group.PrimaryOf(id) == "p") session = id;
  }
  ASSERT_FALSE(session.empty());
  rig.replicator.ShipRecord(InputRecord(session, 0, Msg(1)), 0, 0);
  rig.replicator.OnAck({"f1", "p", /*source_incarnation=*/1, 1000, 0});
  rig.replicator.OnAck({"f2", "p", /*source_incarnation=*/1, 1000, 0});
  EXPECT_EQ(rig.replicator.MinUnackedSegment(0), 0u);  // still buffered
  const core::Status barrier = rig.replicator.ShipOutcomeAndWait(
      InputRecord(session, 1, SessionRunner::DelimiterMessage(1)), 0, 0);
  EXPECT_EQ(barrier.code(), RunError::kReplicationTimeout);

  // An ack of exactly the last link_seq shipped still counts.
  rig.replicator.OnAck({"f1", "p", 1, 2, 0});
  rig.replicator.OnAck({"f2", "p", 1, 2, 0});
  EXPECT_EQ(rig.replicator.MinUnackedSegment(0),
            persistence::ShardDurability::kNoSegmentPin);
}

TEST(ReplicatorTest, HeartbeatsLeaveWhenTheyAreDue) {
  // The background loop used to send a beat at the first retransmit tick
  // after its jittered due time: with the tick equal to the interval,
  // gaps averaged about 1.5 intervals and reached two.
  ReplicaGroup group({"p", "f"});
  InProcessTransport transport(nullptr);
  RecordingEndpoint follower;
  transport.Bind("f", &follower);
  ReplicationOptions options = FastOptions(1, 1);
  options.heartbeat_interval = std::chrono::milliseconds(40);
  options.retransmit_interval = std::chrono::milliseconds(40);
  options.heartbeat_jitter = 0.25;
  constexpr size_t kGaps = 20;
  {
    Replicator replicator("p", &group, options, &transport,
                          /*incarnation=*/1);
    ASSERT_TRUE(WaitFor([&] { return follower.heartbeats() > kGaps; },
                        std::chrono::seconds(10)));
  }
  transport.Unbind("f");
  const std::vector<std::chrono::steady_clock::time_point> times =
      follower.heartbeat_times();
  const double mean_gap_ms =
      std::chrono::duration<double, std::milli>(times[kGaps] - times[0])
          .count() /
      kGaps;
  std::printf("mean heartbeat gap over %zu beats: %.2f ms (interval 40 ms)\n",
              kGaps, mean_gap_ms);
  EXPECT_LE(mean_gap_ms, 1.15 * 40.0);
}

TEST(ReplicatorTest, RetransmissionCoversAHealedPartition) {
  ReplicatorRig rig(FastOptions(1, 1));
  // The single follower of each session is its ring successor; find a
  // session followed by f1.
  std::string session;
  for (int i = 0; i < 200 && session.empty(); ++i) {
    const std::string id = "s" + std::to_string(i);
    const std::vector<std::string> followers = rig.group.FollowersOf(id, 1);
    if (!followers.empty() && followers[0] == "f1" &&
        rig.group.PrimaryOf(id) == "p") {
      session = id;
    }
  }
  ASSERT_FALSE(session.empty());

  FollowerRig f1("f1", &rig.transport);
  FollowerEndpoint e1(&f1.applier);
  ReplicatorEndpoint ep(&rig.replicator);
  rig.transport.Bind("f1", &e1);
  rig.transport.Bind("p", &ep);

  rig.transport.Partition("p", "f1");
  std::thread healer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    rig.transport.Heal("p", "f1");
  });
  // The first transmission vanishes into the partition; the barrier is
  // saved by retransmission after the heal.
  const core::Status barrier = rig.replicator.ShipOutcomeAndWait(
      InputRecord(session, 1, SessionRunner::DelimiterMessage(1)), 0, 0);
  healer.join();
  EXPECT_TRUE(barrier.ok()) << barrier.ToString();
  EXPECT_GE(f1.applier.applied(), 1u);

  rig.transport.Unbind("p");
  rig.transport.Unbind("f1");
}

TEST(ReplicatorTest, AbortWakesBarrierWaiters) {
  ReplicatorRig rig(FastOptions(2, 2));
  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rig.replicator.Abort();
  });
  const auto start = std::chrono::steady_clock::now();
  const core::Status barrier = rig.replicator.ShipOutcomeAndWait(
      InputRecord("s1", 1, SessionRunner::DelimiterMessage(1)), 0, 0);
  aborter.join();
  EXPECT_EQ(barrier.code(), RunError::kShutdown);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(140));  // did not sit out ack_timeout
}

TEST(ReplicatorTest, CountsSegmentTransitions) {
  ReplicatorRig rig(FastOptions(2, 2));
  rig.replicator.ShipRecord(InputRecord("s1", 0, Msg(1)), 0, 0);
  rig.replicator.ShipRecord(InputRecord("s1", 1, Msg(2)), 0, 0);  // same seg
  rig.replicator.ShipRecord(InputRecord("s1", 2, Msg(3)), 0, 1);  // rotated
  rig.replicator.ShipRecord(InputRecord("s1", 3, Msg(4)), 1, 5);  // new shard
  EXPECT_EQ(rig.counters.Load(rt::Counter::kSegmentsShipped), 3u);
}

// ---------------------------------------------------------------------
// End to end: replicated nodes, kill, promotion

struct Cluster {
  explicit Cluster(ReplicationOptions replication,
                   std::chrono::nanoseconds failover = {})
      : group({"n0", "n1", "n2"}), sws(MakeTwoLevelLogger()) {
    for (size_t i = 0; i < 3; ++i) {
      NodeOptions options;
      options.id = "n" + std::to_string(i);
      options.dir = dirs[i].path();
      options.replication = replication;
      options.runtime.num_workers = 2;
      options.runtime.num_shards = 2;
      options.runtime.durability.fsync = persistence::FsyncPolicy::kAlways;
      options.runtime.durability.segment_bytes = 4096;
      options.runtime.durability.snapshot_interval_appends = 8;
      if (failover.count() > 0) {
        options.failover_timeout = failover;
        options.on_peer_suspected = [this](const std::string& node,
                                           const std::string& peer) {
          std::lock_guard<std::mutex> lock(mu);
          suspected.emplace_back(node, peer);
        };
      }
      nodes[i] = std::make_unique<ReplicatedNode>(options, &sws, LoggerDb(),
                                                  &group, &transport);
    }
  }

  ReplicatedNode* node(const std::string& id) {
    for (auto& n : nodes) {
      if (n->id() == id) return n.get();
    }
    return nullptr;
  }

  // First session id (s0, s1, ...) currently served by `primary`.
  std::string SessionOn(const std::string& primary, int salt = 0) {
    for (int i = salt; i < salt + 500; ++i) {
      const std::string id = "s" + std::to_string(i);
      if (group.PrimaryOf(id) == primary) return id;
    }
    return {};
  }

  ReplicaGroup group;
  Sws sws;
  InProcessTransport transport{nullptr};
  TempDir dirs[3];
  std::unique_ptr<ReplicatedNode> nodes[3];
  std::mutex mu;
  std::vector<std::pair<std::string, std::string>> suspected;
};

// Runs one full session (message + delimiter) on its primary; returns
// the number of ok-acks received.
int RunSession(Cluster& cluster, const std::string& id, int64_t value) {
  ReplicatedNode* primary = cluster.node(cluster.group.PrimaryOf(id));
  SWS_CHECK(primary != nullptr && primary->running());
  std::atomic<int> acked{0};
  std::atomic<int> errored{0};
  EXPECT_TRUE(primary->runtime()->Submit(id, Msg(value)).ok());
  EXPECT_TRUE(primary->runtime()
                  ->Submit(id, SessionRunner::DelimiterMessage(1),
                           [&](rt::Outcome outcome) {
                             if (outcome.status.ok()) {
                               acked.fetch_add(1);
                             } else {
                               errored.fetch_add(1);
                             }
                           })
                  .ok());
  primary->runtime()->Drain();
  EXPECT_EQ(errored.load(), 0);
  return acked.load();
}

TEST(ReplicatedNodeTest, AcksOnlyAfterFollowerQuorumAndExposesStats) {
  Cluster cluster(FastOptions(2, 2));
  for (auto& node : cluster.nodes) ASSERT_TRUE(node->Start().ok());

  const std::string s0 = cluster.SessionOn("n0");
  ASSERT_FALSE(s0.empty());
  EXPECT_EQ(RunSession(cluster, s0, 7), 1);

  const rt::StatsSnapshot stats = cluster.node("n0")->runtime()->Stats();
  EXPECT_EQ(stats.replication_acks, 1u);
  EXPECT_EQ(stats.replication_timeouts, 0u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_GE(stats.segments_shipped, 1u);

  // Both followers durably applied the session's three records (two
  // inputs + outcome).
  uint64_t applied = 0;
  for (auto& node : cluster.nodes) {
    if (node->id() != "n0") applied += node->applier()->applied();
  }
  EXPECT_EQ(applied, 6u);
  for (auto& node : cluster.nodes) node->Stop();
}

TEST(ReplicatedNodeTest, BarrierTimeoutWithholdsTheAck) {
  Cluster cluster(FastOptions(2, 2));
  for (auto& node : cluster.nodes) ASSERT_TRUE(node->Start().ok());
  const std::string s0 = cluster.SessionOn("n0");
  ASSERT_FALSE(s0.empty());

  // Cut the primary off from both followers: local persistence succeeds,
  // the quorum never acks, the client sees kReplicationTimeout.
  cluster.transport.Partition("n0", "n1");
  cluster.transport.Partition("n0", "n2");
  ReplicatedNode* primary = cluster.node("n0");
  std::atomic<int> timeouts{0};
  ASSERT_TRUE(primary->runtime()->Submit(s0, Msg(1)).ok());
  ASSERT_TRUE(primary->runtime()
                  ->Submit(s0, SessionRunner::DelimiterMessage(1),
                           [&](rt::Outcome outcome) {
                             if (outcome.status.code() ==
                                 RunError::kReplicationTimeout) {
                               timeouts.fetch_add(1);
                             }
                           })
                  .ok());
  primary->runtime()->Drain();
  EXPECT_EQ(timeouts.load(), 1);
  EXPECT_EQ(primary->runtime()->Stats().replication_timeouts, 1u);
  EXPECT_EQ(primary->runtime()->Stats().replication_acks, 0u);
  for (auto& node : cluster.nodes) node->Stop();
}

TEST(ReplicatedNodeTest, PromotionRecoversAckedSessionsWithoutDoubleAck) {
  Cluster cluster(FastOptions(2, 2));
  for (auto& node : cluster.nodes) ASSERT_TRUE(node->Start().ok());

  // One acked session and one half-submitted session on n0.
  const std::string acked_id = cluster.SessionOn("n0");
  ASSERT_FALSE(acked_id.empty());
  EXPECT_EQ(RunSession(cluster, acked_id, 41), 1);
  const std::string open_id = cluster.SessionOn("n0", 1000);
  ASSERT_FALSE(open_id.empty());
  ASSERT_NE(open_id, acked_id);
  ASSERT_TRUE(cluster.node("n0")->runtime()->Submit(open_id, Msg(42)).ok());
  cluster.node("n0")->runtime()->Drain();
  // Give the async input shipment time to land on the followers.
  ASSERT_TRUE(WaitFor([&] {
    uint64_t applied = 0;
    for (auto& node : cluster.nodes) {
      if (node->id() != "n0") applied += node->applier()->applied();
    }
    return applied >= 8;  // acked session 3x2 + open input x2
  }));

  cluster.node("n0")->Kill();
  const std::string heir = ChoosePromotionCandidate(
      {cluster.node("n1"), cluster.node("n2")}, &cluster.sws, LoggerDb());
  ASSERT_FALSE(heir.empty());
  ASSERT_TRUE(cluster.node(heir)->Promote("n0").ok());
  EXPECT_EQ(cluster.node(heir)->counters()->Load(rt::Counter::kPromotions),
            1u);
  EXPECT_EQ(cluster.node(heir)->runtime()->Stats().promotions, 1u);
  EXPECT_EQ(cluster.group.PrimaryOf(acked_id), heir);

  // The acked session was fully journaled on the heir: replay suppresses
  // its outcome (no double ack) and its state is current.
  for (const persistence::ReplayedOutcome& outcome :
       cluster.node(heir)->replayed()) {
    EXPECT_NE(outcome.session_id, acked_id)
        << "acknowledged outcome re-emitted after promotion";
  }
  const persistence::RecoveryResult* recovery =
      cluster.node(heir)->runtime()->recovery();
  ASSERT_TRUE(recovery != nullptr);
  auto acked_image = recovery->sessions.find(acked_id);
  ASSERT_TRUE(acked_image != recovery->sessions.end());
  EXPECT_EQ(acked_image->second.next_seq, 2u);
  SessionRunner oracle(&cluster.sws, LoggerDb());
  oracle.Feed(Msg(41));
  auto oracle_out = oracle.Feed(SessionRunner::DelimiterMessage(1));
  ASSERT_TRUE(oracle_out.has_value() && oracle_out->status.ok());
  EXPECT_TRUE(acked_image->second.db == oracle.db());
  EXPECT_EQ(acked_image->second.db.Hash(), oracle.db().Hash());

  // The open session lost nothing: its journaled input survived to the
  // heir; the client finishes it there exactly once.
  auto open_image = recovery->sessions.find(open_id);
  ASSERT_TRUE(open_image != recovery->sessions.end());
  EXPECT_EQ(open_image->second.next_seq, 1u);
  std::atomic<int> acks{0};
  ASSERT_TRUE(cluster.node(heir)
                  ->runtime()
                  ->Submit(open_id, SessionRunner::DelimiterMessage(1),
                           [&](rt::Outcome outcome) {
                             if (outcome.status.ok()) acks.fetch_add(1);
                           })
                  .ok());
  cluster.node(heir)->runtime()->Drain();
  EXPECT_EQ(acks.load(), 1);

  for (auto& node : cluster.nodes) node->Stop();
}

TEST(ReplicatedNodeTest, DeposedPrimaryNeverReEmitsPromotedSessions) {
  Cluster cluster(FastOptions(2, 2));
  for (auto& node : cluster.nodes) ASSERT_TRUE(node->Start().ok());
  const std::string id = cluster.SessionOn("n0");
  ASSERT_FALSE(id.empty());

  // Kill n0's disk after two more appends: both inputs persist (and
  // ship), the outcome append tears — the classic unacknowledged-outcome
  // crash. The client sees an error, never an ack.
  cluster.node("n0")->injector()->KillStorageAfter(2);
  std::atomic<int> errors{0};
  ASSERT_TRUE(cluster.node("n0")->runtime()->Submit(id, Msg(1)).ok());
  ASSERT_TRUE(cluster.node("n0")
                  ->runtime()
                  ->Submit(id, SessionRunner::DelimiterMessage(1),
                           [&](rt::Outcome outcome) {
                             if (!outcome.status.ok()) errors.fetch_add(1);
                           })
                  .ok());
  cluster.node("n0")->runtime()->Drain();
  EXPECT_EQ(errors.load(), 1);
  // Both shipped inputs must land on both followers before the crash.
  ASSERT_TRUE(WaitFor([&] {
    return cluster.node("n1")->applier()->applied() >= 2 &&
           cluster.node("n2")->applier()->applied() >= 2;
  }));
  cluster.node("n0")->Kill();

  // The heir replays the session — both inputs, no outcome — and
  // re-emits the recomputed outcome exactly once.
  ASSERT_TRUE(cluster.node("n1")->Promote("n0").ok());
  ASSERT_EQ(cluster.node("n1")->replayed().size(), 1u);
  EXPECT_EQ(cluster.node("n1")->replayed()[0].session_id, id);

  // The deposed primary restarts with the same unacknowledged outcome in
  // its own journal, but the ownership filter keeps it silent: the
  // session resolved away to the heir, which already delivered.
  ASSERT_TRUE(cluster.node("n0")->Start().ok());
  EXPECT_TRUE(cluster.node("n0")->replayed().empty());
  for (auto& node : cluster.nodes) node->Stop();
}

TEST(ReplicatedNodeTest, RestartedDeposedPrimaryTailReshipIsFenced) {
  // The race: a primary dies with an un-consolidated tail, restarts, and
  // re-ships that tail concurrently with a promotion it cannot see. Its
  // retransmissions are restamped with whatever epoch it knows — so the
  // fence must both (a) reject the stale-epoch traffic on the followers
  // and (b) fence the restarted node itself the moment any message
  // carries the promotion epoch back, even when no ack path exists yet.
  Cluster cluster(FastOptions(2, 2));
  for (auto& node : cluster.nodes) ASSERT_TRUE(node->Start().ok());
  const std::string id = cluster.SessionOn("n0");
  ASSERT_FALSE(id.empty());

  // Fully partition n0 both ways first: its session commits locally but
  // ships nowhere, and its fence provably stays at epoch 0. The outcome
  // append tears (KillStorageAfter), so the restart below has both a
  // journal tail to re-ship AND a recomputed outcome to re-emit.
  cluster.transport.Partition("n0", "n1");
  cluster.transport.Partition("n0", "n2");
  cluster.transport.Partition("n1", "n0");
  cluster.transport.Partition("n2", "n0");
  cluster.node("n0")->injector()->KillStorageAfter(2);
  std::atomic<int> errors{0};
  ASSERT_TRUE(cluster.node("n0")->runtime()->Submit(id, Msg(5)).ok());
  ASSERT_TRUE(cluster.node("n0")
                  ->runtime()
                  ->Submit(id, SessionRunner::DelimiterMessage(1),
                           [&](rt::Outcome outcome) {
                             if (!outcome.status.ok()) errors.fetch_add(1);
                           })
                  .ok());
  cluster.node("n0")->runtime()->Drain();
  EXPECT_EQ(errors.load(), 1);  // the client never saw an ack: ambiguous
  cluster.node("n0")->Kill();

  // Restart the old primary while it still owns the session (no Promote
  // yet): recovery re-ships the journaled tail at epoch 0 into the void
  // and withholds the replayed outcome (its re-emission barrier fails).
  ASSERT_TRUE(cluster.node("n0")->Start().ok());
  EXPECT_GE(cluster.node("n0")->suppressed_reemissions(), 1u);
  EXPECT_EQ(cluster.node("n0")->fence()->current(), 0u);

  // The promotion lands mid-re-ship.
  ASSERT_TRUE(cluster.node("n1")->Promote("n0").ok());

  // Heal only n0's outbound half: its epoch-0 retransmissions now reach
  // followers that adopted epoch 1 — rejected, never applied.
  cluster.transport.Heal("n0", "n1");
  cluster.transport.Heal("n0", "n2");
  ASSERT_TRUE(WaitFor([&] {
    return cluster.node("n1")->applier()->fencing_rejects() +
               cluster.node("n2")->applier()->fencing_rejects() >=
           1;
  })) << "no follower fenced the deposed primary's stale tail";

  // Heal the inbound half: the first epoch-1 ack deposes n0's replicator
  // for good — buffers dropped, shipping over.
  cluster.transport.Heal("n1", "n0");
  cluster.transport.Heal("n2", "n0");
  ASSERT_TRUE(WaitFor([&] { return cluster.node("n0")->replicator()->fenced(); }))
      << "the restarted primary never fenced itself";
  EXPECT_GE(cluster.node("n0")->fence()->current(), 1u);

  for (auto& node : cluster.nodes) node->Stop();

  // The heir's durable history never absorbed the fenced tail: the
  // session is simply absent there (its inputs never shipped), rather
  // than forked.
  persistence::RecoveryManager manager(cluster.dirs[1].path(), &cluster.sws,
                                       LoggerDb(),
                                       persistence::RecoveryOptions{}, nullptr);
  persistence::RecoveryResult recovered = manager.Inspect();
  ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  EXPECT_TRUE(recovered.sessions.find(id) == recovered.sessions.end())
      << "the deposed primary's stale tail reached the heir's journal";
}

// The README's manual-failover configuration: failover_timeout plus
// on_peer_suspected, governance left at its defaults. Every survivor
// reports the killed peer exactly once — its silence is one episode for
// as long as it stays dead — and the dead node reports nothing.
TEST(ReplicatedNodeTest, ManualFailoverReportsAKilledPeerOncePerSurvivor) {
  const auto window = std::chrono::milliseconds(60);
  Cluster cluster(FastOptions(2, 2), window);
  for (auto& node : cluster.nodes) ASSERT_TRUE(node->Start().ok());
  // Heartbeats flow; nobody is suspected while all three live.
  const std::string id = cluster.SessionOn("n0");
  ASSERT_FALSE(id.empty());
  EXPECT_EQ(RunSession(cluster, id, 9), 1);

  // Only reports after the kill count: a loaded host may stall a live
  // peer past the window before it, which is another episode.
  size_t before_kill = 0;
  {
    std::lock_guard<std::mutex> lock(cluster.mu);
    before_kill = cluster.suspected.size();
  }
  cluster.node("n1")->Kill();
  auto reports = [&](const std::string& node) {
    std::lock_guard<std::mutex> lock(cluster.mu);
    return std::count(cluster.suspected.begin() + before_kill,
                      cluster.suspected.end(),
                      std::make_pair(node, std::string("n1")));
  };
  // Suspicion needs no pre-kill heartbeat baseline: Start armed the
  // silence clock for every group member, so even a peer that never got
  // a heartbeat out (single-core schedules can starve it off the CPU
  // entirely) becomes suspect after the failover timeout.
  ASSERT_TRUE(
      WaitFor([&] { return reports("n0") >= 1 && reports("n2") >= 1; }))
      << "a survivor never suspected the killed node";
  std::this_thread::sleep_for(3 * window);
  EXPECT_EQ(reports("n0"), 1);
  EXPECT_EQ(reports("n2"), 1);
  {
    std::lock_guard<std::mutex> lock(cluster.mu);
    for (size_t i = before_kill; i < cluster.suspected.size(); ++i) {
      EXPECT_NE(cluster.suspected[i].first, "n1");  // the dead reports nothing
    }
  }
  for (auto& node : cluster.nodes) node->Stop();
}

TEST(ReplicatedNodeTest, ReplicasZeroLeavesTheSingleNodePathAlone) {
  ReplicaGroup group({"n0"});
  InProcessTransport transport(nullptr);
  Sws sws = MakeTwoLevelLogger();
  NodeOptions options;
  options.id = "n0";
  TempDir dir;
  options.dir = dir.path();
  options.replication.replicas = 0;
  options.runtime.num_workers = 1;
  options.runtime.num_shards = 1;
  options.runtime.durability.fsync = persistence::FsyncPolicy::kAlways;
  ReplicatedNode node(std::move(options), &sws, LoggerDb(), &group,
                      &transport);
  ASSERT_TRUE(node.Start().ok());
  std::atomic<int> acks{0};
  ASSERT_TRUE(node.runtime()->Submit("s", Msg(3)).ok());
  ASSERT_TRUE(node.runtime()
                  ->Submit("s", SessionRunner::DelimiterMessage(1),
                           [&](rt::Outcome outcome) {
                             if (outcome.status.ok()) acks.fetch_add(1);
                           })
                  .ok());
  node.runtime()->Drain();
  EXPECT_EQ(acks.load(), 1);
  const rt::StatsSnapshot stats = node.runtime()->Stats();
  EXPECT_EQ(stats.replication_acks, 0u);
  EXPECT_EQ(stats.segments_shipped, 0u);
  node.Stop();
}

// A run that retried and then failed its replicated ack barrier still
// made its attempts: retries are counted when the run ends, before the
// ack barrier can bail out.
TEST(ReplicationRuntimeOptionsTest, RetriesCountedWhenAckBarrierTimesOut) {
  class TimeoutClient : public rt::ReplicationClient {
   public:
    void ShipRecord(const persistence::JournalRecord&, uint64_t,
                    uint64_t) override {}
    core::Status ShipOutcomeAndWait(const persistence::JournalRecord&,
                                    uint64_t, uint64_t) override {
      return core::Status::Error(RunError::kReplicationTimeout,
                                 "no follower answered");
    }
    uint64_t MinUnackedSegment(uint64_t) const override {
      return persistence::ShardDurability::kNoSegmentPin;
    }
  };
  TimeoutClient client;
  core::FaultOptions faults;
  faults.fail_first_runs = 1;
  core::FaultInjector injector(faults);
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  rt::RuntimeOptions options;
  options.num_workers = 1;
  options.num_shards = 1;
  options.durability.dir = dir.path();
  options.replication.client = &client;
  options.run_options.fault_injector = &injector;
  options.run_options.retry.max_attempts = 2;
  options.run_options.retry.initial_backoff = std::chrono::microseconds(1);
  options.run_options.retry.max_backoff = std::chrono::microseconds(10);
  rt::ServiceRuntime runtime(&sws, LoggerDb(), options);
  ASSERT_TRUE(runtime.init_status().ok()) << runtime.init_status().ToString();

  std::atomic<int> timeouts{0};
  ASSERT_TRUE(runtime.Submit("s", Msg(1)).ok());
  ASSERT_TRUE(runtime
                  .Submit("s", SessionRunner::DelimiterMessage(1),
                          [&](rt::Outcome outcome) {
                            if (outcome.status.code() ==
                                    RunError::kReplicationTimeout &&
                                outcome.attempts == 2) {
                              timeouts.fetch_add(1);
                            }
                          })
                  .ok());
  runtime.Drain();
  EXPECT_EQ(timeouts.load(), 1);
  const rt::StatsSnapshot stats = runtime.Stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.replication_timeouts, 1u);
  runtime.Shutdown();
}

// Replication wiring is rejected without its prerequisites.
TEST(ReplicationRuntimeOptionsTest, ValidationRequiresDurability) {
  class NullClient : public rt::ReplicationClient {
   public:
    void ShipRecord(const persistence::JournalRecord&, uint64_t,
                    uint64_t) override {}
    core::Status ShipOutcomeAndWait(const persistence::JournalRecord&,
                                    uint64_t, uint64_t) override {
      return core::Status::Ok();
    }
    uint64_t MinUnackedSegment(uint64_t) const override {
      return persistence::ShardDurability::kNoSegmentPin;
    }
  };
  NullClient client;

  rt::RuntimeOptions options;
  options.replication.client = &client;
  EXPECT_FALSE(rt::ValidateRuntimeOptions(options).ok())
      << "a replication client without durability must be rejected";
  options.durability.dir = "/tmp/x";
  EXPECT_TRUE(rt::ValidateRuntimeOptions(options).ok());
}

}  // namespace
}  // namespace sws::replication
