// Coverage for the self-healing replication layer (DESIGN.md §13):
// durable fencing epochs (monotone adoption, one vote per epoch across
// restarts, corrupt-state hard errors), the deterministic election heir,
// follower-side stale-epoch rejection, catch-up bootstrap absorption
// (snapshot-on-the-link), the replicator's catch-up quorum gate and
// joiner broadcast loop, deposed-replicator self-fencing on *both* epoch
// discovery paths (ack and heartbeat-adopted fence), coordinator vote
// grant rules, the coordinator's failure detector on synthetic time, and
// three end-to-end automatic-failover node tests: a quorum election
// promoting the heir with no harness Promote call, a fresh joiner
// bootstrapping via catch-up before entering any quorum, and suspicion
// ending a catch-up wait on a peer that never starts.
// The randomized kill-point harness lives in node_chaos_test.cc.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "logic/cq.h"
#include "persistence/recovery.h"
#include "persistence/serde.h"
#include "persistence/snapshot.h"
#include "replication/failover.h"
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

// The depth-2 logger from session_test.cc / replication_test.cc: commits
// each session's first message into Log.
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
    char tmpl[] = "/tmp/sws_failover_XXXXXX";
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
                      uint64_t incarnation, uint64_t link_seq, uint64_t epoch,
                      const persistence::JournalRecord& record) {
  Shipment s;
  s.from = source;
  s.to = dest;
  s.source_incarnation = incarnation;
  s.link_seq = link_seq;
  s.first_unacked = 1;
  s.epoch = epoch;
  s.session_id = record.session_id;
  s.frame = persistence::EncodeRecordFrame(record);
  return s;
}

// Spin-waits (bounded) for an asynchronous condition.
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

ReplicationOptions FastOptions(size_t replicas, size_t quorum) {
  ReplicationOptions options;
  options.replicas = replicas;
  options.ack_quorum = quorum;
  options.ack_timeout = std::chrono::milliseconds(150);
  options.retransmit_interval = std::chrono::milliseconds(3);
  options.heartbeat_interval = std::chrono::milliseconds(5);
  return options;
}

// ---------------------------------------------------------------------
// FencingEpoch

TEST(FencingEpochTest, AdoptIsMonotoneAndDurable) {
  TempDir dir;
  {
    FencingEpoch fence(dir.path());
    ASSERT_TRUE(fence.Load().ok());
    EXPECT_EQ(fence.current(), 0u);
    EXPECT_TRUE(fence.Adopt(5));
    EXPECT_EQ(fence.current(), 5u);
    EXPECT_FALSE(fence.Adopt(3));  // never regresses
    EXPECT_FALSE(fence.Adopt(5));  // never re-adopts
    EXPECT_EQ(fence.current(), 5u);
  }
  // A restarted node reloads the adopted epoch from disk.
  FencingEpoch reloaded(dir.path());
  ASSERT_TRUE(reloaded.Load().ok());
  EXPECT_EQ(reloaded.current(), 5u);
}

TEST(FencingEpochTest, VotesAreSingleUsePerEpochAndDurable) {
  TempDir dir;
  {
    FencingEpoch fence(dir.path());
    ASSERT_TRUE(fence.Load().ok());
    EXPECT_TRUE(fence.TryVote(2));
    EXPECT_FALSE(fence.TryVote(2));  // one vote per epoch
    EXPECT_FALSE(fence.TryVote(1));  // votes are monotone
    EXPECT_TRUE(fence.TryVote(3));
    EXPECT_EQ(fence.last_vote(), 3u);
  }
  // The promise survives a restart: no double vote at epoch <= 3 ever.
  FencingEpoch reloaded(dir.path());
  ASSERT_TRUE(reloaded.Load().ok());
  EXPECT_EQ(reloaded.last_vote(), 3u);
  EXPECT_FALSE(reloaded.TryVote(3));
  EXPECT_TRUE(reloaded.TryVote(4));
}

TEST(FencingEpochTest, CorruptStateIsAHardError) {
  TempDir dir;
  {
    FencingEpoch fence(dir.path());
    ASSERT_TRUE(fence.Load().ok());
    ASSERT_TRUE(fence.Adopt(7));
  }
  {
    // Scribble over the persisted state: a silently-regressed epoch
    // could re-admit a deposed primary's writes, so loading must fail
    // loudly instead.
    FILE* f = std::fopen((dir.path() + "/epoch.fence").c_str(), "wb");
    ASSERT_TRUE(f != nullptr);
    std::fputs("not a fencing state", f);
    std::fclose(f);
  }
  FencingEpoch corrupt(dir.path());
  EXPECT_FALSE(corrupt.Load().ok());
}

// ---------------------------------------------------------------------
// Deterministic election heir

TEST(ReplicaGroupHeirTest, HeirIsDeterministicExcludableAndNeverTheDead) {
  const std::vector<std::string> nodes = {"n0", "n1", "n2"};
  ReplicaGroup a(nodes);
  ReplicaGroup b(nodes);
  const std::string heir = a.HeirOf("n0");
  ASSERT_FALSE(heir.empty());
  EXPECT_NE(heir, "n0");
  // Identical across instances: every node computes the same candidate.
  EXPECT_EQ(heir, b.HeirOf("n0"));

  // Excluding the heir yields the remaining node; excluding both leaves
  // no candidate.
  const std::string third = a.HeirOf("n0", {heir});
  ASSERT_FALSE(third.empty());
  EXPECT_NE(third, "n0");
  EXPECT_NE(third, heir);
  EXPECT_TRUE(a.HeirOf("n0", {heir, third}).empty());

  // After the promotion the dead node is deposed and owns nothing; the
  // heir inherits its arcs.
  a.Promote("n0", heir);
  EXPECT_TRUE(a.IsDeposed("n0"));
  EXPECT_FALSE(a.IsDeposed(heir));
  EXPECT_TRUE(a.HeirOf("n0") != "n0");
}

// ---------------------------------------------------------------------
// Follower-side fencing

// Records acks with their epochs (the stock recorder in
// replication_test.cc drops the epoch).
class AckRecordingEndpoint : public ReplicationEndpoint {
 public:
  void OnMessage(const Message& message) override {
    if (const auto* ack = std::get_if<Ack>(&message)) {
      std::lock_guard<std::mutex> lock(mu_);
      acks_.emplace_back(ack->acked_link_seq, ack->epoch);
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> acks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acks_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<uint64_t, uint64_t>> acks_;  // (acked, epoch)
};

FollowerApplier::Options ApplierOptions(const std::string& dir,
                                        uint64_t fingerprint = 0) {
  FollowerApplier::Options options;
  options.dir = dir;
  options.service_fingerprint = fingerprint;
  return options;
}

TEST(FollowerFencingTest, RejectsStaleEpochAndAdoptsHigher) {
  TempDir dir;
  FencingEpoch fence(dir.path());
  ASSERT_TRUE(fence.Load().ok());
  ASSERT_TRUE(fence.Adopt(5));
  InProcessTransport transport(nullptr);
  AckRecordingEndpoint primary;
  transport.Bind("p", &primary);
  rt::Counters counters;
  FollowerApplier applier("f", ApplierOptions(dir.path()), &transport,
                          /*incarnation=*/1, nullptr, &fence, &counters);

  // A deposed primary's stale-epoch shipment: dropped without applying,
  // counted, and answered with a current-epoch ack so the sender learns
  // it was fenced.
  applier.OnShipment(
      MakeShipment("p", "f", 1, 1, /*epoch=*/3, InputRecord("s", 0, Msg(1))));
  EXPECT_EQ(applier.applied(), 0u);
  EXPECT_EQ(applier.fencing_rejects(), 1u);
  EXPECT_EQ(counters.Load(rt::Counter::kEpochFencingRejects), 1u);
  ASSERT_TRUE(WaitFor([&] { return !primary.acks().empty(); }));
  EXPECT_EQ(primary.acks()[0].first, 0u);   // nothing applied
  EXPECT_EQ(primary.acks()[0].second, 5u);  // the fencing news

  // The current epoch applies; a higher one applies and is adopted.
  applier.OnShipment(
      MakeShipment("p", "f", 1, 1, /*epoch=*/5, InputRecord("s", 0, Msg(1))));
  EXPECT_EQ(applier.applied(), 1u);
  applier.OnShipment(
      MakeShipment("p", "f", 1, 2, /*epoch=*/8, InputRecord("s", 1, Msg(2))));
  EXPECT_EQ(applier.applied(), 2u);
  EXPECT_EQ(fence.current(), 8u);
  EXPECT_EQ(applier.fencing_rejects(), 1u);
  transport.Unbind("p");
}

// ---------------------------------------------------------------------
// Catch-up bootstrap absorption (snapshot-on-the-link)

TEST(FollowerSnapshotTest, AbsorbsCatchupBootstrapDurably) {
  const Sws sws = MakeTwoLevelLogger();
  // The image a primary would serve: one completed session.
  SessionRunner oracle(&sws, LoggerDb());
  oracle.Feed(Msg(7));  // outcomes only surface at the delimiter
  auto out = oracle.Feed(SessionRunner::DelimiterMessage(1));
  ASSERT_TRUE(out.has_value() && out->status.ok());
  persistence::SnapshotData bootstrap;
  bootstrap.header.incarnation = 1;
  bootstrap.header.shard = 0;
  bootstrap.header.service_fingerprint = persistence::SwsFingerprint(sws);
  persistence::SessionImage image;
  image.session_id = "s-boot";
  image.db = oracle.db();
  image.next_seq = 2;
  bootstrap.sessions.push_back(std::move(image));
  std::string payload;
  persistence::EncodeSnapshotPayload(bootstrap, &payload);

  TempDir dir;
  InProcessTransport transport(nullptr);
  AckRecordingEndpoint primary;
  transport.Bind("p", &primary);
  FollowerApplier applier(
      "f", ApplierOptions(dir.path(), persistence::SwsFingerprint(sws)),
      &transport, /*incarnation=*/1, nullptr);
  Shipment shipment;
  shipment.from = "p";
  shipment.to = "f";
  shipment.source_incarnation = 1;
  shipment.link_seq = 1;
  shipment.first_unacked = 1;
  shipment.snapshot = true;
  shipment.frame = payload;
  applier.OnShipment(shipment);
  EXPECT_EQ(applier.applied(), 1u);
  ASSERT_TRUE(WaitFor([&] { return !primary.acks().empty(); }));
  EXPECT_EQ(primary.acks()[0].first, 1u);  // ack only once durable

  // The payload landed as a snapshot file and recovery rebuilds the
  // session from it, bit-identical to the primary's state.
  std::vector<persistence::DurableFile> files;
  ASSERT_TRUE(persistence::ListDurableFiles(dir.path(), &files).ok());
  bool snapshot_file = false;
  for (const persistence::DurableFile& f : files) {
    snapshot_file = snapshot_file || f.is_snapshot;
  }
  EXPECT_TRUE(snapshot_file);
  persistence::RecoveryManager manager(dir.path(), &sws, LoggerDb(),
                                       persistence::RecoveryOptions{}, nullptr);
  persistence::RecoveryResult recovered = manager.Inspect();
  ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  auto it = recovered.sessions.find("s-boot");
  ASSERT_TRUE(it != recovered.sessions.end());
  EXPECT_EQ(it->second.next_seq, 2u);
  EXPECT_TRUE(it->second.db == oracle.db());
  EXPECT_EQ(it->second.db.Hash(), oracle.db().Hash());
  transport.Unbind("p");
}

TEST(FollowerSnapshotTest, CorruptBootstrapPayloadIsRejected) {
  const Sws sws = MakeTwoLevelLogger();
  persistence::SnapshotData bootstrap;
  bootstrap.header.incarnation = 1;
  bootstrap.header.service_fingerprint = persistence::SwsFingerprint(sws);
  std::string payload;
  persistence::EncodeSnapshotPayload(bootstrap, &payload);

  TempDir dir;
  InProcessTransport transport(nullptr);
  FollowerApplier applier("f", ApplierOptions(dir.path()), &transport,
                          /*incarnation=*/1, nullptr);
  Shipment shipment;
  shipment.from = "p";
  shipment.to = "f";
  shipment.source_incarnation = 1;
  shipment.link_seq = 1;
  shipment.first_unacked = 1;
  shipment.snapshot = true;
  shipment.frame = payload;
  Shipment corrupt = shipment;
  // Damage the payload proper (the leading segment header is restamped
  // by the absorbing follower and deliberately outside the checksum).
  corrupt.frame.back() ^= 0x5a;  // CRC fails
  applier.OnShipment(corrupt);
  EXPECT_EQ(applier.applied(), 0u);
  EXPECT_GE(applier.rejected(), 1u);
  // The clean retransmit (same link_seq) absorbs: the cursor did not
  // advance past the corrupt delivery.
  applier.OnShipment(shipment);
  EXPECT_EQ(applier.applied(), 1u);
}

// ---------------------------------------------------------------------
// Replicator: catch-up gate and joiner loop

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

TEST(ReplicatorCatchupTest, CatchupGatedLinkExcludedFromQuorumUntilGraduation) {
  ReplicaGroup group({"p", "f1"});
  InProcessTransport transport(nullptr);
  Replicator replicator("p", &group, FastOptions(1, 1), &transport,
                        /*incarnation=*/1);
  TempDir fdir;
  FollowerApplier applier("f1", ApplierOptions(fdir.path()), &transport,
                          /*incarnation=*/1, nullptr);
  FollowerEndpoint fe(&applier);
  ReplicatorEndpoint pe(&replicator);
  transport.Bind("f1", &fe);
  transport.Bind("p", &pe);

  std::string session;
  for (int i = 0; i < 200 && session.empty(); ++i) {
    const std::string id = "s" + std::to_string(i);
    if (group.PrimaryOf(id) == "p") session = id;
  }
  ASSERT_FALSE(session.empty());

  // f1 is bootstrapping: its acks advance the link but must not satisfy
  // the quorum — a follower missing the prefix cannot vouch for the
  // suffix.
  replicator.BeginCatchup("f1");
  const core::Status gated = replicator.ShipOutcomeAndWait(
      InputRecord(session, 1, SessionRunner::DelimiterMessage(1)), 0, 0);
  EXPECT_EQ(gated.code(), RunError::kReplicationTimeout);
  EXPECT_GE(applier.applied(), 1u);  // it did apply — just not quorum-worthy

  // Graduation: the serve is complete and f1's cumulative ack covers the
  // fence, so the next barrier counts it again.
  replicator.FinishCatchupServe("f1");
  const core::Status barrier = replicator.ShipOutcomeAndWait(
      InputRecord(session, 2, SessionRunner::DelimiterMessage(1)), 0, 0);
  EXPECT_TRUE(barrier.ok()) << barrier.ToString();

  transport.Unbind("p");
  transport.Unbind("f1");
}

class CatchupCountingEndpoint : public ReplicationEndpoint {
 public:
  void OnMessage(const Message& message) override {
    if (std::holds_alternative<CatchupRequest>(message)) {
      requests_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> requests_{0};
};

TEST(ReplicatorCatchupTest, JoinerBroadcastsAndRetriesUntilServed) {
  ReplicaGroup group({"j", "a", "b"});
  InProcessTransport transport(nullptr);
  ReplicationOptions options = FastOptions(2, 2);
  options.ack_timeout = std::chrono::milliseconds(30);  // the retry cadence
  Replicator replicator("j", &group, options, &transport, /*incarnation=*/1);
  CatchupCountingEndpoint a;
  CatchupCountingEndpoint b;
  transport.Bind("a", &a);
  transport.Bind("b", &b);

  replicator.RequestCatchup({"a", "b", "j"});  // self is skipped
  EXPECT_EQ(replicator.pending_catchup_count(), 2u);
  // An unanswered source is re-asked every ack_timeout.
  ASSERT_TRUE(WaitFor([&] { return a.requests() >= 2 && b.requests() >= 2; }));

  replicator.NoteCatchupServed("a");
  EXPECT_EQ(replicator.pending_catchup_count(), 1u);
  // A suspected-dead source is cancelled (its sessions pend under the
  // heir's name after promotion).
  replicator.CancelCatchup("b");
  EXPECT_EQ(replicator.pending_catchup_count(), 0u);

  // The loop goes quiet: no further requests once nothing is pending
  // (allow in-flight stragglers to land first).
  std::this_thread::sleep_for(2 * options.ack_timeout);
  const uint64_t a_settled = a.requests();
  const uint64_t b_settled = b.requests();
  std::this_thread::sleep_for(3 * options.ack_timeout);
  EXPECT_EQ(a.requests(), a_settled);
  EXPECT_EQ(b.requests(), b_settled);
  transport.Unbind("a");
  transport.Unbind("b");
}

// ---------------------------------------------------------------------
// Replicator self-fencing

TEST(ReplicatorFencingTest, DeposedReplicatorFencesItselfOnHigherEpochAck) {
  TempDir fdir;
  FencingEpoch fence(fdir.path());
  ASSERT_TRUE(fence.Load().ok());
  ReplicaGroup group({"p", "f1", "f2"});
  InProcessTransport transport(nullptr);
  Replicator replicator("p", &group, FastOptions(2, 2), &transport,
                        /*incarnation=*/1, &fence);
  std::string session;
  for (int i = 0; i < 200 && session.empty(); ++i) {
    const std::string id = "s" + std::to_string(i);
    if (group.PrimaryOf(id) == "p") session = id;
  }
  ASSERT_FALSE(session.empty());
  replicator.ShipRecord(InputRecord(session, 0, Msg(1)), 0, 0);
  EXPECT_EQ(replicator.MinUnackedSegment(0), 0u);  // buffered, pinned

  // A promotion happened behind p's back; the first higher-epoch ack is
  // how it finds out. Fence: buffers dropped, barriers fail fast.
  group.Promote("p", "f1");
  replicator.OnAck({"f1", "p", 1, 0, /*epoch=*/1});
  EXPECT_TRUE(replicator.fenced());
  EXPECT_EQ(fence.current(), 1u);
  EXPECT_EQ(replicator.MinUnackedSegment(0),
            persistence::ShardDurability::kNoSegmentPin);
  const auto start = std::chrono::steady_clock::now();
  const core::Status barrier = replicator.ShipOutcomeAndWait(
      InputRecord(session, 1, SessionRunner::DelimiterMessage(1)), 0, 0);
  EXPECT_EQ(barrier.code(), RunError::kShutdown);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(140));
}

TEST(ReplicatorFencingTest, FencesWhenEpochIsLearnedOutsideTheAckPath) {
  // Regression for the deposed-primary tail-reship race: the fence is
  // shared node-wide, so an incoming *heartbeat* (adopted by the node)
  // can raise the epoch without any ack ever reaching
  // MaybeAdoptEpoch. The replicator must still notice it was deposed and
  // drop its stale buffers — were it to keep retransmitting, the
  // background loop's epoch refresh would stamp the stale tail with the
  // heir's epoch and followers would accept the fork.
  TempDir fdir;
  FencingEpoch fence(fdir.path());
  ASSERT_TRUE(fence.Load().ok());
  ReplicaGroup group({"p", "f1", "f2"});
  InProcessTransport transport(nullptr);
  Replicator replicator("p", &group, FastOptions(2, 2), &transport,
                        /*incarnation=*/1, &fence);
  std::string session;
  for (int i = 0; i < 200 && session.empty(); ++i) {
    const std::string id = "s" + std::to_string(i);
    if (group.PrimaryOf(id) == "p") session = id;
  }
  ASSERT_FALSE(session.empty());
  replicator.ShipRecord(InputRecord(session, 0, Msg(1)), 0, 0);
  EXPECT_EQ(replicator.MinUnackedSegment(0), 0u);

  group.Promote("p", "f1");
  // What the node does on a higher-epoch heartbeat: adopt into the
  // shared fence. No ack flows to the replicator at all.
  ASSERT_TRUE(fence.Adopt(1));
  ASSERT_TRUE(WaitFor([&] { return replicator.fenced(); }))
      << "replicator never reconciled a heartbeat-adopted epoch";
  EXPECT_EQ(replicator.MinUnackedSegment(0),
            persistence::ShardDurability::kNoSegmentPin);
}

// ---------------------------------------------------------------------
// Coordinator vote grants

class GrantRecordingEndpoint : public ReplicationEndpoint {
 public:
  void OnMessage(const Message& message) override {
    if (const auto* grant = std::get_if<VoteGrant>(&message)) {
      std::lock_guard<std::mutex> lock(mu_);
      grants_.emplace_back(grant->epoch, grant->granted);
    }
  }
  std::vector<std::pair<uint64_t, bool>> grants() const {
    std::lock_guard<std::mutex> lock(mu_);
    return grants_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<uint64_t, bool>> grants_;
};

TEST(CoordinatorVoteTest, GrantsRequireSilenceAndOneVotePerEpoch) {
  TempDir dir;
  FencingEpoch fence(dir.path());
  ASSERT_TRUE(fence.Load().ok());
  ReplicaGroup group({"n0", "n1", "n2"});
  InProcessTransport transport(nullptr);
  GrantRecordingEndpoint candidate;
  transport.Bind("n0", &candidate);
  rt::Counters counters;
  FailoverHooks hooks;
  hooks.ready = [] { return false; };
  hooks.promote = [](const std::string&, uint64_t) {
    return core::Status::Error(RunError::kShutdown, "not under test");
  };
  const auto suspicion = std::chrono::milliseconds(25);
  FailoverCoordinator coordinator("n1", &group, &transport, &fence,
                                  FastOptions(2, 2), suspicion,
                                  std::move(hooks), &counters);

  // 1. The construction-time clock reset says everyone is alive: deny.
  coordinator.OnVoteRequest({"n0", "n1", 1, "n2"});
  // 2. After the silence window the same suspect is grantable — and the
  //    vote is persisted before the grant leaves.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  coordinator.OnVoteRequest({"n0", "n1", 2, "n2"});
  // 3. One vote per epoch, even for the same candidate: deny.
  coordinator.OnVoteRequest({"n0", "n1", 2, "n2"});
  // 4. Nobody votes for their own deposition: deny.
  coordinator.OnVoteRequest({"n0", "n1", 3, "n1"});
  // 5. A sign of life from the suspect refreshes the clock: deny.
  coordinator.NoteAlive("n2");
  coordinator.OnVoteRequest({"n0", "n1", 4, "n2"});
  // 6. A claim not ahead of the adopted epoch is stale: deny.
  ASSERT_TRUE(fence.Adopt(10));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  coordinator.OnVoteRequest({"n0", "n1", 10, "n2"});

  // Denials are messaged too (the candidate tallies them to give up
  // early), in request order on the FIFO in-process wire.
  ASSERT_TRUE(WaitFor([&] { return candidate.grants().size() == 6; }));
  const std::vector<std::pair<uint64_t, bool>> grants = candidate.grants();
  EXPECT_EQ(grants[0], (std::pair<uint64_t, bool>{1, false}));
  EXPECT_EQ(grants[1], (std::pair<uint64_t, bool>{2, true}));
  EXPECT_EQ(grants[2], (std::pair<uint64_t, bool>{2, false}));
  EXPECT_EQ(grants[3], (std::pair<uint64_t, bool>{3, false}));
  EXPECT_EQ(grants[4], (std::pair<uint64_t, bool>{4, false}));
  EXPECT_EQ(grants[5], (std::pair<uint64_t, bool>{10, false}));
  EXPECT_EQ(coordinator.votes_granted(), 1u);
  EXPECT_EQ(fence.last_vote(), 2u);
  transport.Unbind("n0");
}

// ---------------------------------------------------------------------
// Coordinator failure detector (one clock, synthetic time)

// The window is long enough that the worker thread, on real time, never
// reports anything itself: every report below comes from ReportSilent
// at the `now` the test passes in.
constexpr std::chrono::seconds kLongWindow{10};

TEST(CoordinatorDetectorTest, ReportsASilentPeerOncePerEpisode) {
  TempDir dir;
  FencingEpoch fence(dir.path());
  ReplicaGroup group({"n0", "n1"});
  InProcessTransport transport(nullptr);
  FailoverCoordinator coordinator("n1", &group, &transport, &fence,
                                  FastOptions(1, 1), kLongWindow,
                                  FailoverHooks{}, nullptr);
  const auto start = std::chrono::steady_clock::now();
  coordinator.NoteAlive("n0");
  EXPECT_TRUE(coordinator.ReportSilent(start).empty());
  const auto later = start + 2 * kLongWindow;
  EXPECT_EQ(coordinator.ReportSilent(later), std::vector<std::string>{"n0"});
  // Same silence episode: not reported again, however long it lasts.
  EXPECT_TRUE(coordinator.ReportSilent(later).empty());
  EXPECT_TRUE(coordinator.ReportSilent(later + kLongWindow).empty());
  // A sign of life, then silence again: a fresh episode is reported.
  coordinator.NoteAlive("n0");
  const auto much_later = std::chrono::steady_clock::now() + 2 * kLongWindow;
  EXPECT_EQ(coordinator.ReportSilent(much_later),
            std::vector<std::string>{"n0"});
  // A restart re-arms the clock and opens a fresh episode too.
  coordinator.ResetClocks();
  const auto restarted = std::chrono::steady_clock::now();
  EXPECT_TRUE(coordinator.ReportSilent(restarted).empty());
  EXPECT_EQ(coordinator.ReportSilent(restarted + 2 * kLongWindow),
            std::vector<std::string>{"n0"});
}

TEST(CoordinatorDetectorTest, SuspectsAGroupMemberNeverHeardFrom) {
  TempDir dir;
  FencingEpoch fence(dir.path());
  ReplicaGroup group({"n0", "n1", "n2"});
  InProcessTransport transport(nullptr);
  // Construction arms the clock for every group member but self.
  FailoverCoordinator coordinator("n1", &group, &transport, &fence,
                                  FastOptions(2, 2), kLongWindow,
                                  FailoverHooks{}, nullptr);
  const auto armed = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  coordinator.NoteAlive("n0");  // n2 never speaks
  coordinator.NoteAlive("n1");  // self: ignored
  EXPECT_TRUE(coordinator.ReportSilent(armed).empty());
  // One window after the arming: the member never heard from is suspect;
  // the one heard since is not, and self never is.
  EXPECT_EQ(coordinator.ReportSilent(armed + kLongWindow),
            std::vector<std::string>{"n2"});
}

// ---------------------------------------------------------------------
// End to end: automatic failover nodes

struct AutoCluster {
  explicit AutoCluster(ReplicationOptions replication,
                       std::chrono::nanoseconds failover_timeout = {})
      : group({"n0", "n1", "n2"}), sws(MakeTwoLevelLogger()) {
    for (size_t i = 0; i < 3; ++i) {
      NodeOptions options;
      options.id = "n" + std::to_string(i);
      options.dir = dirs[i].path();
      options.replication = replication;
      options.auto_failover = true;
      options.failover_timeout = failover_timeout;  // 0: derived from misses
      options.runtime.num_workers = 2;
      options.runtime.num_shards = 2;
      options.runtime.durability.fsync = persistence::FsyncPolicy::kAlways;
      options.runtime.durability.segment_bytes = 1 << 20;
      // Keep the journal tail (no snapshot consolidation): the joiner
      // test wants the catch-up serve to ship real records.
      options.runtime.durability.snapshot_interval_appends = 1 << 30;
      // Governance stays at its defaults: failover needs no watchdog.
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
};

// Runs one full session (message + delimiter) on `node`; returns the
// number of ok-acks. Uses runtime_snapshot(): in auto mode a promotion
// may tear a life down concurrently with the submit.
int RunSessionOnNode(ReplicatedNode* node, const std::string& id,
                     int64_t value) {
  auto runtime = node->runtime_snapshot();
  if (runtime == nullptr) return -1;
  std::atomic<int> acked{0};
  std::atomic<int> errored{0};
  EXPECT_TRUE(runtime->Submit(id, Msg(value)).ok());
  EXPECT_TRUE(runtime
                  ->Submit(id, SessionRunner::DelimiterMessage(1),
                           [&](rt::Outcome outcome) {
                             if (outcome.status.ok()) {
                               acked.fetch_add(1);
                             } else {
                               errored.fetch_add(1);
                             }
                           })
                  .ok());
  runtime->Drain();
  EXPECT_EQ(errored.load(), 0);
  return acked.load();
}

TEST(AutoFailoverNodeTest, QuorumElectionPromotesHeirNoHarnessPromote) {
  ReplicationOptions replication = FastOptions(2, 2);
  replication.heartbeat_interval = std::chrono::milliseconds(5);
  replication.suspicion_misses = 4;  // 20ms silence window
  replication.heartbeat_jitter = 0.25;
  replication.election_timeout = std::chrono::milliseconds(25);
  AutoCluster cluster(replication);
  for (auto& node : cluster.nodes) ASSERT_TRUE(node->Start().ok());
  // Every first life broadcasts a catch-up request; wait until all three
  // are mutually served and back in each other's quorums.
  ASSERT_TRUE(WaitFor([&] {
    for (auto& node : cluster.nodes) {
      if (node->replicator()->pending_catchup_count() != 0) return false;
    }
    return true;
  }));

  const std::string s0 = cluster.SessionOn("n0");
  ASSERT_FALSE(s0.empty());
  EXPECT_EQ(RunSessionOnNode(cluster.node("n0"), s0, 7), 1);
  // A session that will need a new home after the kill.
  const std::string s1 = cluster.SessionOn("n0", 2000);
  ASSERT_FALSE(s1.empty());

  cluster.node("n0")->Kill();
  // No Promote() call anywhere below: the survivors' failure detectors
  // feed their coordinators, the heir campaigns, a quorum confirms, and
  // the heir promotes itself.
  ASSERT_TRUE(WaitFor([&] { return cluster.group.IsDeposed("n0"); },
                      std::chrono::seconds(15)))
      << "no automatic promotion deposed the killed node";
  // The node counts kPromotions inside the promote hook; the coordinator
  // counts kAutoPromotions only after the hook returns, so wait for both.
  ASSERT_TRUE(WaitFor([&] {
    bool promoted = false;
    uint64_t auto_promotions = 0;
    for (auto& node : cluster.nodes) {
      promoted |= node->id() != "n0" &&
                  node->counters()->Load(rt::Counter::kPromotions) >= 1 &&
                  node->running();
      auto_promotions += node->counters()->Load(rt::Counter::kAutoPromotions);
    }
    return promoted && auto_promotions >= 1;
  }));
  uint64_t auto_promotions = 0;
  uint64_t suspicions = 0;
  for (auto& node : cluster.nodes) {
    auto_promotions += node->counters()->Load(rt::Counter::kAutoPromotions);
    suspicions += node->counters()->Load(rt::Counter::kPeerSuspicions);
  }
  EXPECT_GE(auto_promotions, 1u);
  EXPECT_GE(suspicions, 1u);

  // The dead node's sessions have a live primary again; a client retry
  // lands there and completes exactly once.
  const std::string new_primary = cluster.group.PrimaryOf(s1);
  ASSERT_NE(new_primary, "n0");
  ASSERT_TRUE(WaitFor([&] { return cluster.node(new_primary)->running(); }));
  EXPECT_EQ(RunSessionOnNode(cluster.node(new_primary), s1, 11), 1);

  // The deposed node rejoins as a follower and learns the epoch from the
  // first messages it hears — it can never again ack as a primary.
  ASSERT_TRUE(cluster.node("n0")->Start().ok());
  EXPECT_TRUE(cluster.group.IsDeposed("n0"));
  ASSERT_TRUE(WaitFor([&] { return cluster.node("n0")->fence()->current() >= 1; }))
      << "rejoined node never adopted the promotion epoch";
  for (auto& node : cluster.nodes) node->Stop();
}

TEST(AutoFailoverNodeTest, JoinerBootstrapsViaCatchupBeforeQuorum) {
  ReplicationOptions replication = FastOptions(2, 1);
  // Suspicion must never fire here: the late joiner stays an undeposed
  // group member so the primaries still place it as a follower — the
  // catch-up serve ships it the real backlog, not an empty bootstrap.
  AutoCluster cluster(replication, /*failover_timeout=*/std::chrono::seconds(60));
  ASSERT_TRUE(cluster.node("n0")->Start().ok());
  ASSERT_TRUE(cluster.node("n1")->Start().ok());

  // History the joiner missed: six sessions on the two live nodes (the
  // ack quorum of 1 is satisfied by the other live follower).
  std::map<std::string, int64_t> sessions;
  for (int i = 0; sessions.size() < 6 && i < 2000; ++i) {
    const std::string id = "s" + std::to_string(i);
    const std::string primary = cluster.group.PrimaryOf(id);
    if (primary == "n2") continue;  // its primary is not up yet
    const int64_t value = 100 + static_cast<int64_t>(sessions.size());
    ASSERT_EQ(RunSessionOnNode(cluster.node(primary), id, value), 1)
        << "session " << id << " did not ack";
    sessions.emplace(id, value);
  }
  ASSERT_EQ(sessions.size(), 6u);
  const uint64_t served_before =
      cluster.node("n0")->counters()->Load(rt::Counter::kCatchupBytesShipped) +
      cluster.node("n1")->counters()->Load(rt::Counter::kCatchupBytesShipped);

  // The fresh node joins: its first life broadcasts catch-up requests
  // and bootstraps from each primary's snapshot + journal tail over the
  // link before it counts in any quorum.
  ASSERT_TRUE(cluster.node("n2")->Start().ok());
  ASSERT_TRUE(WaitFor(
      [&] {
        return cluster.node("n2")->replicator()->pending_catchup_count() == 0;
      },
      std::chrono::seconds(15)))
      << "joiner was never served by every live primary";
  const uint64_t served_after =
      cluster.node("n0")->counters()->Load(rt::Counter::kCatchupBytesShipped) +
      cluster.node("n1")->counters()->Load(rt::Counter::kCatchupBytesShipped);
  EXPECT_GT(served_after, served_before);
  // Every missed record lands durably (via the serve's tail and/or the
  // links' retransmit backlog): both primaries' retransmit buffers fully
  // drain only once n2 persisted and acked everything they shipped.
  ASSERT_TRUE(WaitFor(
      [&] {
        for (const char* id : {"n0", "n1"}) {
          for (uint64_t shard = 0; shard < 2; ++shard) {
            if (cluster.node(id)->replicator()->MinUnackedSegment(shard) !=
                persistence::ShardDurability::kNoSegmentPin) {
              return false;
            }
          }
        }
        return true;
      },
      std::chrono::seconds(15)))
      << "a primary still holds unacked shipments for the joiner";
  EXPECT_GE(cluster.node("n2")->applier()->applied(), 18u);

  for (auto& node : cluster.nodes) node->Stop();

  // The joiner's durable dir alone now recovers every missed session to
  // the oracle state: catch-up made it a real promotion candidate.
  persistence::RecoveryManager manager(cluster.dirs[2].path(), &cluster.sws,
                                       LoggerDb(),
                                       persistence::RecoveryOptions{}, nullptr);
  persistence::RecoveryResult recovered = manager.Inspect();
  ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  std::string found;
  for (const auto& [id, image] : recovered.sessions) {
    found += id + "(next_seq=" + std::to_string(image.next_seq) + ") ";
  }
  for (const auto& [id, value] : sessions) {
    auto it = recovered.sessions.find(id);
    ASSERT_TRUE(it != recovered.sessions.end())
        << "joiner missed " << id << "; recovered: " << found
        << "; applied=" << cluster.node("n2")->applier()->applied()
        << " dup=" << cluster.node("n2")->applier()->duplicates()
        << " rej=" << cluster.node("n2")->applier()->rejected();
    EXPECT_EQ(it->second.next_seq, 2u) << id;
    SessionRunner oracle(&cluster.sws, LoggerDb());
    oracle.Feed(Msg(value));
    auto out = oracle.Feed(SessionRunner::DelimiterMessage(1));
    ASSERT_TRUE(out.has_value() && out->status.ok());
    EXPECT_TRUE(it->second.db == oracle.db()) << id;
    EXPECT_EQ(it->second.db.Hash(), oracle.db().Hash()) << id;
  }
}

// A first life asks every peer for catch-up and waits on each answer. A
// peer that never starts never answers: only its suspicion ends the
// wait. The heir campaigns only once its own wait is over
// (ReadyForElection), so the dead peer's deposition proves the
// suspicion cancelled it.
TEST(AutoFailoverNodeTest, SuspicionCancelsTheCatchupWaitOnASilentPeer) {
  AutoCluster cluster(FastOptions(2, 2));
  ASSERT_TRUE(cluster.node("n0")->Start().ok());
  ASSERT_TRUE(cluster.node("n1")->Start().ok());
  // n2 never starts.
  ASSERT_TRUE(WaitFor([&] { return cluster.group.IsDeposed("n2"); },
                      std::chrono::seconds(15)))
      << "the heir still waits on a peer that never started";
  EXPECT_GE(cluster.node("n0")->counters()->Load(rt::Counter::kPeerSuspicions) +
                cluster.node("n1")->counters()->Load(
                    rt::Counter::kPeerSuspicions),
            2u);
  for (auto& node : cluster.nodes) node->Stop();
}

}  // namespace
}  // namespace sws::replication
