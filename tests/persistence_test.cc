// Unit tests for the durability subsystem (src/persistence/): binary
// serde roundtrips and corruption rejection, journal framing + torn-tail
// handling, atomic snapshots, shard-level rotation/GC, and the recovery
// protocol's replay rules (ack suppression, failed-outcome emulation,
// discard markers, consolidation idempotence).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "logic/cq.h"
#include "logic/fo.h"
#include "logic/ucq.h"
#include "persistence/durability.h"
#include "persistence/journal.h"
#include "persistence/recovery.h"
#include "persistence/serde.h"
#include "persistence/snapshot.h"
#include "runtime/runtime.h"
#include "sws/session.h"
#include "util/common.h"

namespace sws::persistence {
namespace {

using core::RunError;
using core::SessionRunner;
using core::Sws;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::FoFormula;
using logic::FoQuery;
using logic::Term;
using logic::UnionQuery;
using rel::Relation;
using rel::Value;

/// An RAII temp directory under /tmp, removed with its contents.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/sws_persistence_test_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    SWS_CHECK(made != nullptr);
    path_ = made;
  }
  ~TempDir() {
    std::vector<DurableFile> files;
    if (ListDurableFiles(path_, &files).ok()) {
      for (const DurableFile& f : files) {
        ::unlink((path_ + "/" + f.name).c_str());
      }
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The depth-2 logger from session_test/chaos_test: one non-delimiter
// message per session is committed into Log.
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

JournalRecord InputRecord(const std::string& session_id, uint64_t seq,
                          Relation payload) {
  JournalRecord r;
  r.type = JournalRecord::Type::kInput;
  r.session_id = session_id;
  r.seq = seq;
  r.payload = std::move(payload);
  return r;
}

// ---------------------------------------------------------------------------
// Serde.

TEST(SerdeTest, ValueRoundtripIncludingEmbeddedNul) {
  const Value values[] = {Value::Int(0),  Value::Int(-7),
                          Value::Int(1'234'567'890'123),
                          Value::Str(""), Value::Str(std::string("a\0b", 3)),
                          Value::Null(3)};
  for (const Value& v : values) {
    ByteWriter w;
    EncodeValue(v, &w);
    ByteReader r(w.str());
    auto decoded = DecodeValue(&r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(v, *decoded);
  }
}

TEST(SerdeTest, RelationAndDatabaseRoundtrip) {
  Relation rel(2);
  rel.Insert({Value::Int(1), Value::Str("x")});
  rel.Insert({Value::Int(2), Value::Null(0)});
  rel::Database db;
  db.Set("R", rel);
  db.Set("Empty", Relation(3));

  ByteWriter w;
  EncodeDatabase(db, &w);
  ByteReader r(w.str());
  auto decoded = DecodeDatabase(&r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(db, *decoded);
  EXPECT_EQ(db.Hash(), decoded->Hash());
}

TEST(SerdeTest, InternedDatabaseEncodesByteIdenticallyToPreInterningFormat) {
  // Golden bytes captured from the PR 6 build (boxed Values, std::set
  // relations) encoding this exact database. The PR 7 interning/columnar
  // refactor must keep the persisted format — and printed forms — byte
  // identical, or journals and snapshots written before the upgrade
  // would stop recovering. Covers both int extremes (interned big-int
  // path), the empty string, negative/zero/large null labels (the
  // beyond-inline-range label takes the interned path) and a nullary
  // relation holding the empty tuple.
  rel::Database db;
  Relation flight(3);
  flight.Insert({Value::Int(-7), Value::Str("orlando"), Value::Null(42)});
  flight.Insert({Value::Int(9223372036854775807LL), Value::Str(""),
                 Value::Null(-1)});
  flight.Insert({Value::Int(-9223372036854775807LL - 1), Value::Str("a"),
                 Value::Null(0)});
  db.Set("Flight", flight);
  Relation hotel(1);
  hotel.Insert({Value::Str("h")});
  hotel.Insert({Value::Int(0)});
  hotel.Insert({Value::Null(1152921504606846976LL)});  // 2^60: not inline
  db.Set("Hotel", hotel);
  Relation nullary(0);
  nullary.Insert({});
  db.Set("Z", nullary);

  ByteWriter w;
  EncodeDatabase(db, &w);
  std::string hex;
  for (unsigned char c : w.str()) {
    static const char kDigits[] = "0123456789abcdef";
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xF]);
  }
  EXPECT_EQ(hex,
            "0300000006000000466c69676874030000000300000000000000000000008001"
            "010000006102000000000000000000f9ffffffffffffff01070000006f726c61"
            "6e646f022a0000000000000000ffffffffffffff7f010000000002ffffffffff"
            "ffffff05000000486f74656c0100000003000000000000000000000000010100"
            "000068020000000000000010010000005a0000000001000000");
  EXPECT_EQ(db.ToString(),
            "Flight = {(-9223372036854775808, 'a', _N0), (-7, 'orlando', "
            "_N42), (9223372036854775807, '', _N-1)}\n"
            "Hotel = {(0), ('h'), (_N1152921504606846976)}\n"
            "Z = {()}");

  ByteReader r(w.str());
  auto decoded = DecodeDatabase(&r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(db, *decoded);
}

TEST(SerdeTest, InputSequenceRoundtrip) {
  rel::InputSequence seq(1);
  seq.Append(Msg(4));
  seq.Append(Msg(9));
  ByteWriter w;
  EncodeInputSequence(seq, &w);
  ByteReader r(w.str());
  auto decoded = DecodeInputSequence(&r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(seq, *decoded);
}

TEST(SerdeTest, SwsRoundtripCanonical) {
  Sws sws = MakeTwoLevelLogger();
  ByteWriter w;
  EncodeSws(sws, &w);
  ByteReader r(w.str());
  auto decoded = DecodeSws(&r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.AtEnd());
  // Canonical encoding: re-encoding the decoded service is bit-identical,
  // and the fingerprint (which recovery compares) agrees.
  ByteWriter w2;
  EncodeSws(*decoded, &w2);
  EXPECT_EQ(w.str(), w2.str());
  EXPECT_EQ(SwsFingerprint(sws), SwsFingerprint(*decoded));
  EXPECT_EQ(sws.num_states(), decoded->num_states());
  EXPECT_EQ(sws.StateName(0), decoded->StateName(0));
}

TEST(SerdeTest, RelQueryRoundtripAllLanguages) {
  ConjunctiveQuery cq({Term::Var(0)},
                      {Atom{"R", {Term::Var(0), Term::Int(3)}}},
                      {logic::Comparison{Term::Var(0), Term::Int(5), false}});
  UnionQuery ucq(1);
  ucq.Add(cq);
  ucq.Add(ConjunctiveQuery({Term::Str("c")}, {Atom{"S", {Term::Var(1)}}}));
  FoQuery fo({Term::Var(0)},
             FoFormula::Exists(
                 1, FoFormula::And(
                        FoFormula::MakeAtom("R", {Term::Var(0), Term::Var(1)}),
                        FoFormula::Not(FoFormula::Eq(Term::Var(0),
                                                     Term::Var(1))))));
  const core::RelQuery queries[] = {core::RelQuery::Cq(cq),
                                    core::RelQuery::Ucq(ucq),
                                    core::RelQuery::Fo(fo)};
  for (const core::RelQuery& q : queries) {
    ByteWriter w;
    EncodeRelQuery(q, &w);
    ByteReader r(w.str());
    auto decoded = DecodeRelQuery(&r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(q.language(), decoded->language());
    ByteWriter w2;
    EncodeRelQuery(*decoded, &w2);
    EXPECT_EQ(w.str(), w2.str());
  }
}

TEST(SerdeTest, DecodersRejectCorruptionWithoutAborting) {
  Relation rel(2);
  rel.Insert({Value::Int(1), Value::Str("x")});
  ByteWriter w;
  EncodeRelation(rel, &w);
  const std::string good = w.str();
  // Flipping any single byte must never abort; most flips must fail the
  // decode, and a flip that still decodes must change the value (tag or
  // payload) — the CRC layer above catches those in real files.
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x7f);
    ByteReader r(bad);
    auto decoded = DecodeRelation(&r);
    if (decoded.has_value() && r.AtEnd()) {
      EXPECT_FALSE(*decoded == rel) << "undetected flip at byte " << i;
    }
  }
}

TEST(SerdeTest, CheckCountGuardsCorruptCounts) {
  // A relation claiming 4 billion tuples in an 8-byte buffer must fail
  // fast, not allocate.
  ByteWriter w;
  w.PutU32(1);           // arity
  w.PutU32(0xFFFFFFFF);  // tuple count (lie)
  ByteReader r(w.str());
  auto decoded = DecodeRelation(&r);
  EXPECT_FALSE(decoded.has_value());
}

// ---------------------------------------------------------------------------
// Journal.

TEST(JournalTest, AppendReadRoundtrip) {
  TempDir dir;
  const std::string path = dir.path() + "/" + WalFileName(1, 0, 0);
  JournalWriter writer(path, SegmentHeader{1, 0, 42}, nullptr);
  ASSERT_TRUE(writer.Open().ok());

  JournalRecord input = InputRecord("alice", 0, Msg(7));
  input.priority = 2;
  input.deadline_ns = 123456;
  ASSERT_TRUE(writer.Append(input).ok());

  JournalRecord outcome;
  outcome.type = JournalRecord::Type::kOutcome;
  outcome.session_id = "alice";
  outcome.seq = 1;
  outcome.status_code = static_cast<uint8_t>(RunError::kBudgetExceeded);
  ASSERT_TRUE(writer.Append(outcome).ok());

  JournalRecord discard;
  discard.type = JournalRecord::Type::kDiscard;
  discard.session_id = "bob";
  discard.seq = 3;
  ASSERT_TRUE(writer.Append(discard).ok());
  ASSERT_TRUE(writer.Sync().ok());
  writer.Close();

  SegmentContents seg;
  ASSERT_TRUE(ReadSegment(path, nullptr, &seg).ok());
  EXPECT_FALSE(seg.torn);
  EXPECT_EQ(seg.header.incarnation, 1u);
  EXPECT_EQ(seg.header.service_fingerprint, 42u);
  ASSERT_EQ(seg.records.size(), 3u);
  EXPECT_EQ(seg.records[0].type, JournalRecord::Type::kInput);
  EXPECT_EQ(seg.records[0].session_id, "alice");
  EXPECT_EQ(seg.records[0].priority, 2);
  EXPECT_EQ(seg.records[0].deadline_ns, 123456);
  EXPECT_EQ(seg.records[0].payload, Msg(7));
  EXPECT_EQ(seg.records[1].type, JournalRecord::Type::kOutcome);
  EXPECT_EQ(seg.records[1].status_code,
            static_cast<uint8_t>(RunError::kBudgetExceeded));
  EXPECT_EQ(seg.records[2].type, JournalRecord::Type::kDiscard);
  EXPECT_EQ(seg.records[2].seq, 3u);
}

TEST(JournalTest, TornTailDetectedAtEveryTruncationPoint) {
  TempDir dir;
  const std::string path = dir.path() + "/" + WalFileName(1, 0, 0);
  uint64_t full_bytes;
  {
    JournalWriter writer(path, SegmentHeader{1, 0, 7}, nullptr);
    ASSERT_TRUE(writer.Open().ok());
    for (uint64_t s = 0; s < 3; ++s) {
      ASSERT_TRUE(writer.Append(InputRecord("s", s, Msg(s))).ok());
    }
    full_bytes = writer.bytes_written();
  }
  // Reference read of the intact file.
  SegmentContents intact;
  ASSERT_TRUE(ReadSegment(path, nullptr, &intact).ok());
  ASSERT_EQ(intact.records.size(), 3u);
  ASSERT_EQ(intact.valid_bytes, full_bytes);

  // Simulate a crash at *every* byte boundary: the valid prefix must be
  // exactly the whole records that fit, and truncating the torn tail
  // must yield a clean re-read.
  for (uint64_t cut = full_bytes; cut-- > 0;) {
    ASSERT_TRUE(TruncateTornTail(path, cut).ok());
    SegmentContents seg;
    ASSERT_TRUE(ReadSegment(path, nullptr, &seg).ok());
    EXPECT_LE(seg.valid_bytes, cut);
    for (size_t i = 0; i < seg.records.size(); ++i) {
      EXPECT_EQ(seg.records[i].seq, intact.records[i].seq);
      EXPECT_EQ(seg.records[i].payload, intact.records[i].payload);
    }
    // Torn iff there is trailing garbage past the last whole record; a
    // cut landing exactly on a record boundary is a clean shorter file.
    // The empty file (cut 0) has no header and always reads as torn.
    EXPECT_EQ(seg.torn, cut == 0 || seg.valid_bytes != cut)
        << "cut at byte " << cut;
    if (seg.valid_bytes > 0) {
      // Repairing the torn tail makes the file clean again. (A cut
      // inside the header itself has no valid prefix to repair to.)
      ASSERT_TRUE(TruncateTornTail(path, seg.valid_bytes).ok());
      SegmentContents repaired;
      ASSERT_TRUE(ReadSegment(path, nullptr, &repaired).ok());
      EXPECT_FALSE(repaired.torn);
      EXPECT_EQ(repaired.records.size(), seg.records.size());
    }
  }
}

TEST(JournalTest, InjectedTornWritePoisonsWriter) {
  TempDir dir;
  const std::string path = dir.path() + "/" + WalFileName(1, 0, 0);
  core::FaultInjector injector(core::FaultOptions{});
  JournalWriter writer(path, SegmentHeader{1, 0, 7}, &injector);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append(InputRecord("s", 0, Msg(1))).ok());

  injector.ArmTornWrites(1);
  core::Status torn = writer.Append(InputRecord("s", 1, Msg(2)));
  EXPECT_EQ(torn.code(), RunError::kStorageFailure);
  EXPECT_TRUE(writer.poisoned());
  EXPECT_EQ(injector.injected_torn_writes(), 1u);
  // Poisoned: all later appends fail fast without touching the file.
  EXPECT_EQ(writer.Append(InputRecord("s", 2, Msg(3))).code(),
            RunError::kStorageFailure);
  writer.Close();

  // On disk: record 0 intact, then a torn frame — exactly what a crash
  // in mid-append leaves. The reader stops at the valid prefix.
  SegmentContents seg;
  ASSERT_TRUE(ReadSegment(path, nullptr, &seg).ok());
  EXPECT_TRUE(seg.torn);
  ASSERT_EQ(seg.records.size(), 1u);
  EXPECT_EQ(seg.records[0].payload, Msg(1));
}

TEST(JournalTest, InjectedSyncFailurePoisonsWriterButKeepsTheRecord) {
  TempDir dir;
  const std::string path = dir.path() + "/" + WalFileName(1, 0, 0);
  core::FaultInjector injector(core::FaultOptions{});
  JournalWriter writer(path, SegmentHeader{1, 0, 7}, &injector);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append(InputRecord("s", 0, Msg(1))).ok());

  // fsync EIO: the appended frame is intact in the file, but the fd can
  // no longer be trusted (Linux marks the dirty pages clean), so the
  // writer must poison itself.
  injector.ArmSyncFailures(1);
  EXPECT_EQ(writer.Sync().code(), RunError::kStorageFailure);
  EXPECT_TRUE(writer.poisoned());
  EXPECT_EQ(injector.injected_sync_failures(), 1u);
  EXPECT_EQ(writer.Append(InputRecord("s", 1, Msg(2))).code(),
            RunError::kStorageFailure);
  writer.Close();

  // Unlike a torn write, the record itself is whole: a process crash
  // after the failed fsync still recovers it.
  SegmentContents seg;
  ASSERT_TRUE(ReadSegment(path, nullptr, &seg).ok());
  EXPECT_FALSE(seg.torn);
  ASSERT_EQ(seg.records.size(), 1u);
  EXPECT_EQ(seg.records[0].payload, Msg(1));
}

TEST(JournalTest, InjectedShortReadIsTransient) {
  TempDir dir;
  const std::string path = dir.path() + "/" + WalFileName(1, 0, 0);
  {
    JournalWriter writer(path, SegmentHeader{1, 0, 7}, nullptr);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append(InputRecord("s", 0, Msg(1))).ok());
  }
  core::FaultInjector injector(core::FaultOptions{});
  injector.ArmShortReads(1);
  SegmentContents seg;
  EXPECT_EQ(ReadSegment(path, &injector, &seg).code(),
            RunError::kStorageFailure);
  // The retry succeeds: nothing was actually lost.
  ASSERT_TRUE(ReadSegment(path, &injector, &seg).ok());
  EXPECT_EQ(seg.records.size(), 1u);
}

TEST(JournalTest, ForeignFileRejected) {
  TempDir dir;
  const std::string path = dir.path() + "/" + WalFileName(1, 0, 0);
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a journal segment, padded to header size......",
             f);
  std::fclose(f);
  SegmentContents seg;
  EXPECT_EQ(ReadSegment(path, nullptr, &seg).code(),
            RunError::kStorageFailure);
}

// ---------------------------------------------------------------------------
// Snapshots.

TEST(SnapshotTest, RoundtripAndTmpIgnored) {
  TempDir dir;
  SnapshotData data;
  data.header = SegmentHeader{3, 1, 99};
  SessionImage image;
  image.session_id = "alice";
  image.db = LoggerDb();
  image.db.GetMutable("Log")->Insert({Value::Int(5)});
  image.pending = rel::InputSequence(1);
  image.pending.Append(Msg(8));
  image.next_seq = 4;
  data.sessions.push_back(image);

  const std::string path = dir.path() + "/" + SnapFileName(3, 1, 0);
  ASSERT_TRUE(WriteSnapshot(path, data, nullptr).ok());
  // No .tmp leftover after a successful rename.
  EXPECT_NE(::access(path.c_str(), F_OK), -1);
  EXPECT_EQ(::access((path + ".tmp").c_str(), F_OK), -1);

  SnapshotData read;
  ASSERT_TRUE(ReadSnapshot(path, nullptr, &read).ok());
  EXPECT_EQ(read.header.incarnation, 3u);
  ASSERT_EQ(read.sessions.size(), 1u);
  EXPECT_EQ(read.sessions[0].session_id, "alice");
  EXPECT_EQ(read.sessions[0].next_seq, 4u);
  EXPECT_EQ(read.sessions[0].db, image.db);
  EXPECT_EQ(read.sessions[0].pending, image.pending);

  // A .tmp leftover (crash before rename) is not a durable file.
  FILE* f = std::fopen((path + ".tmp").c_str(), "w");
  std::fputs("partial", f);
  std::fclose(f);
  std::vector<DurableFile> files;
  ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].name, SnapFileName(3, 1, 0));
  ::unlink((path + ".tmp").c_str());
}

TEST(SnapshotTest, TornSnapshotWriteLeavesNoDurableFile) {
  TempDir dir;
  core::FaultInjector injector(core::FaultOptions{});
  injector.ArmTornWrites(1);
  SnapshotData data;
  data.header = SegmentHeader{1, 0, 7};
  const std::string path = dir.path() + "/" + SnapFileName(1, 0, 0);
  EXPECT_EQ(WriteSnapshot(path, data, &injector).code(),
            RunError::kStorageFailure);
  EXPECT_EQ(::access(path.c_str(), F_OK), -1);
  std::vector<DurableFile> files;
  ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
  EXPECT_TRUE(files.empty());
  ::unlink((path + ".tmp").c_str());
}

TEST(SnapshotTest, CorruptSnapshotIsHardError) {
  TempDir dir;
  SnapshotData data;
  data.header = SegmentHeader{1, 0, 7};
  const std::string path = dir.path() + "/" + SnapFileName(1, 0, 0);
  ASSERT_TRUE(WriteSnapshot(path, data, nullptr).ok());
  // Flip one payload byte: the CRC must catch it.
  FILE* f = std::fopen(path.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -1, SEEK_END);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_END);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  SnapshotData read;
  EXPECT_EQ(ReadSnapshot(path, nullptr, &read).code(),
            RunError::kStorageFailure);
}

// ---------------------------------------------------------------------------
// Shard durability: rotation + GC.

TEST(ShardDurabilityTest, SegmentRotationAndSnapshotGc) {
  TempDir dir;
  DurabilityOptions options;
  options.dir = dir.path();
  options.fsync = FsyncPolicy::kNever;
  options.segment_bytes = 4096;  // minimum: rotate quickly
  ShardDurability shard(options, SegmentHeader{1, 0, 7}, 0, nullptr);

  Relation big(1);
  for (int i = 0; i < 64; ++i) big.Insert({Value::Int(i)});
  for (uint64_t s = 0; s < 64; ++s) {
    ASSERT_TRUE(shard.AppendInput(InputRecord("s", s, big)).ok());
  }
  std::vector<DurableFile> files;
  ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
  EXPECT_GT(files.size(), 1u) << "expected at least one rotation";

  // A snapshot subsumes the journal so far: all older files of this
  // shard are GC'd, leaving the snapshot and one fresh segment.
  ASSERT_TRUE(shard.WriteShardSnapshot({}).ok());
  ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
  size_t snaps = 0, wals = 0;
  for (const DurableFile& f : files) (f.is_snapshot ? snaps : wals)++;
  EXPECT_EQ(snaps, 1u);
  EXPECT_EQ(wals, 1u);
}

// A shard snapshot must not GC journal segments an in-flight replication
// cursor still retransmits from: the runtime refreshes the pin from
// Replicator::MinUnackedSegment before every snapshot (session_shard.cc),
// and the GC spares every segment at or past it. Without the pin, a
// snapshot racing a slow follower would unlink the very segment whose
// records are still unacked on the wire — the retransmit source would be
// gone before the follower ever durably applied them.
TEST(ShardDurabilityTest, ReplicationPinExemptsSegmentsFromSnapshotGc) {
  TempDir dir;
  DurabilityOptions options;
  options.dir = dir.path();
  options.fsync = FsyncPolicy::kNever;
  options.segment_bytes = 4096;  // minimum: rotate quickly
  ShardDurability shard(options, SegmentHeader{1, 0, 7}, 0, nullptr);

  Relation big(1);
  for (int i = 0; i < 64; ++i) big.Insert({Value::Int(i)});
  for (uint64_t s = 0; s < 64; ++s) {
    ASSERT_TRUE(shard.AppendInput(InputRecord("s", s, big)).ok());
  }
  std::vector<DurableFile> files;
  ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
  ASSERT_GT(files.size(), 2u) << "expected several rotations";

  // The replication cursor still holds unacked shipments from segment 1:
  // the snapshot GC must spare segments 1.. even though the snapshot
  // subsumes them, and they must stay readable (the retransmit source).
  shard.PinSegmentsFrom(1);
  ASSERT_TRUE(shard.WriteShardSnapshot({}).ok());
  ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
  size_t snaps = 0;
  std::vector<uint64_t> wal_ns;
  for (const DurableFile& f : files) {
    if (f.is_snapshot) {
      ++snaps;
    } else {
      wal_ns.push_back(f.n);
      SegmentContents seg;
      ASSERT_TRUE(ReadSegment(dir.path() + "/" + f.name, nullptr, &seg).ok());
      EXPECT_FALSE(seg.torn);
    }
  }
  EXPECT_EQ(snaps, 1u);
  std::sort(wal_ns.begin(), wal_ns.end());
  ASSERT_GE(wal_ns.size(), 2u);
  EXPECT_EQ(wal_ns.front(), 1u) << "segment 0 was unpinned and GC-able; "
                                   "segment 1 onward must survive the pin";

  // The follower acked everything: the cursor releases the pin and the
  // next snapshot collects the previously pinned segments.
  shard.PinSegmentsFrom(ShardDurability::kNoSegmentPin);
  ASSERT_TRUE(shard.WriteShardSnapshot({}).ok());
  ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
  size_t wals = 0;
  snaps = 0;
  for (const DurableFile& f : files) (f.is_snapshot ? snaps : wals)++;
  EXPECT_EQ(snaps, 1u);
  EXPECT_EQ(wals, 1u) << "released pin: only the live segment remains";
}

TEST(ShardDurabilityTest, PoisonedSegmentRotatesAway) {
  TempDir dir;
  core::FaultInjector injector(core::FaultOptions{});
  DurabilityOptions options;
  options.dir = dir.path();
  options.fsync = FsyncPolicy::kNever;
  ShardDurability shard(options, SegmentHeader{1, 0, 7}, 0, &injector);

  ASSERT_TRUE(shard.AppendInput(InputRecord("s", 0, Msg(0))).ok());
  injector.ArmTornWrites(1);
  AppendResult torn = shard.AppendInput(InputRecord("s", 1, Msg(1)));
  EXPECT_EQ(torn.status.code(), RunError::kStorageFailure);
  EXPECT_FALSE(torn.persisted);
  EXPECT_TRUE(shard.poisoned());

  // One storage incident costs one record, not the shard: the next
  // append abandons the poisoned segment and lands on a fresh one.
  AppendResult healed = shard.AppendInput(InputRecord("s", 1, Msg(1)));
  EXPECT_TRUE(healed.ok()) << healed.status.ToString();
  EXPECT_TRUE(healed.persisted);
  EXPECT_FALSE(shard.poisoned());

  std::vector<DurableFile> files;
  ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
  ASSERT_EQ(files.size(), 2u) << "expected the poisoned + the fresh segment";
  // Across both segments each seq appears exactly once: seq 0 before the
  // torn tail, the retried seq 1 on the fresh segment.
  std::vector<uint64_t> seqs;
  for (const DurableFile& f : files) {
    SegmentContents seg;
    ASSERT_TRUE(ReadSegment(dir.path() + "/" + f.name, nullptr, &seg).ok());
    for (const JournalRecord& r : seg.records) seqs.push_back(r.seq);
  }
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{0, 1}));
}

TEST(ShardDurabilityTest, SyncFailureStillPersistsTheRecord) {
  TempDir dir;
  core::FaultInjector injector(core::FaultOptions{});
  DurabilityOptions options;
  options.dir = dir.path();
  options.fsync = FsyncPolicy::kAlways;
  ShardDurability shard(options, SegmentHeader{1, 0, 7}, 0, &injector);

  // The append lands, its fsync fails: the caller must learn both — the
  // error (no OS-crash durability) and that the record IS on disk, so
  // the message must still be fed and the seq must not be reused.
  injector.ArmSyncFailures(1);
  AppendResult result = shard.AppendInput(InputRecord("s", 0, Msg(0)));
  EXPECT_EQ(result.status.code(), RunError::kStorageFailure);
  EXPECT_TRUE(result.persisted);
  EXPECT_EQ(shard.sync_failures(), 1u);

  // The shard heals by rotation and the journal has no duplicate seq.
  AppendResult next = shard.AppendInput(InputRecord("s", 1, Msg(1)));
  EXPECT_TRUE(next.ok()) << next.status.ToString();
  std::vector<DurableFile> files;
  ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
  std::vector<uint64_t> seqs;
  for (const DurableFile& f : files) {
    SegmentContents seg;
    ASSERT_TRUE(ReadSegment(dir.path() + "/" + f.name, nullptr, &seg).ok());
    for (const JournalRecord& r : seg.records) seqs.push_back(r.seq);
  }
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{0, 1}));
}

TEST(ShardDurabilityTest, FailedSnapshotReArmsTheInterval) {
  TempDir dir;
  core::FaultInjector injector(core::FaultOptions{});
  DurabilityOptions options;
  options.dir = dir.path();
  options.fsync = FsyncPolicy::kNever;
  options.snapshot_interval_appends = 4;
  ShardDurability shard(options, SegmentHeader{1, 0, 7}, 0, &injector);

  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(shard.AppendInput(InputRecord("s", s, Msg(0))).ok());
  }
  ASSERT_TRUE(shard.ShouldSnapshot());
  injector.ArmTornWrites(1);  // tears the snapshot's own write
  EXPECT_EQ(shard.WriteShardSnapshot({}).code(), RunError::kStorageFailure);
  // A failed snapshot must not be retried after every envelope — that is
  // exactly the load a failing disk cannot absorb. The interval re-arms:
  // only after another full interval does ShouldSnapshot fire again.
  EXPECT_FALSE(shard.ShouldSnapshot());
  for (uint64_t s = 4; s < 7; ++s) {
    ASSERT_TRUE(shard.AppendInput(InputRecord("s", s, Msg(0))).ok());
    EXPECT_FALSE(shard.ShouldSnapshot());
  }
  ASSERT_TRUE(shard.AppendInput(InputRecord("s", 7, Msg(0))).ok());
  EXPECT_TRUE(shard.ShouldSnapshot());
  EXPECT_TRUE(shard.WriteShardSnapshot({}).ok());
  EXPECT_EQ(shard.snapshots_written(), 1u);
}

// ---------------------------------------------------------------------------
// Recovery.

RecoveryResult RecoverLogger(const std::string& dir, const Sws& sws) {
  RecoveryManager manager(dir, &sws, LoggerDb(), RecoveryOptions{}, nullptr);
  return manager.Recover();
}

/// Journals a full session (value, then delimiter) for `session_id`
/// starting at seq, optionally with the outcome record.
void JournalSession(ShardDurability* shard, const Sws& sws,
                    const std::string& session_id, uint64_t seq, int64_t value,
                    bool with_outcome, uint8_t status_code = 0) {
  ASSERT_TRUE(shard->AppendInput(InputRecord(session_id, seq, Msg(value))).ok());
  ASSERT_TRUE(
      shard
          ->AppendInput(InputRecord(session_id, seq + 1,
                                    SessionRunner::DelimiterMessage(1)))
          .ok());
  if (with_outcome) {
    JournalRecord outcome;
    outcome.type = JournalRecord::Type::kOutcome;
    outcome.session_id = session_id;
    outcome.seq = seq + 1;
    outcome.status_code = status_code;
    if (status_code == 0) {
      // The logger's committed output for Msg(value).
      SessionRunner oracle(&sws, LoggerDb());
      oracle.Feed(Msg(value));
      auto res = oracle.Feed(SessionRunner::DelimiterMessage(1));
      ASSERT_TRUE(res.has_value() && res->status.ok());
      outcome.payload = res->output;
    }
    ASSERT_TRUE(shard->AppendOutcomeAndAck(outcome).ok());
  }
}

TEST(RecoveryTest, UnacknowledgedDelimiterReplaysExactlyOnce) {
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  DurabilityOptions options;
  options.dir = dir.path();
  {
    ShardDurability shard(
        options, SegmentHeader{1, 0, SwsFingerprint(sws)}, 0, nullptr);
    JournalSession(&shard, sws, "alice", 0, 7, /*with_outcome=*/false);
  }
  RecoveryResult result = RecoverLogger(dir.path(), sws);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.replayed.size(), 1u);
  EXPECT_EQ(result.replayed[0].session_id, "alice");
  EXPECT_EQ(result.replayed[0].seq, 1u);
  EXPECT_TRUE(result.replayed[0].status.ok());

  // Convergence with the uncrashed oracle.
  SessionRunner oracle(&sws, LoggerDb());
  oracle.Feed(Msg(7));
  auto oracle_out = oracle.Feed(SessionRunner::DelimiterMessage(1));
  ASSERT_TRUE(oracle_out.has_value());
  EXPECT_EQ(result.replayed[0].output, oracle_out->output);
  ASSERT_EQ(result.sessions.count("alice"), 1u);
  EXPECT_EQ(result.sessions.at("alice").db, oracle.db());
  EXPECT_EQ(result.sessions.at("alice").next_seq, 2u);
  EXPECT_EQ(result.stats.acked_suppressed, 0u);
}

TEST(RecoveryTest, AcknowledgedOutcomeIsSuppressed) {
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  DurabilityOptions options;
  options.dir = dir.path();
  {
    ShardDurability shard(
        options, SegmentHeader{1, 0, SwsFingerprint(sws)}, 0, nullptr);
    JournalSession(&shard, sws, "alice", 0, 7, /*with_outcome=*/true);
  }
  RecoveryResult result = RecoverLogger(dir.path(), sws);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.replayed.empty()) << "acked output must not re-emit";
  EXPECT_EQ(result.stats.acked_suppressed, 1u);
  EXPECT_EQ(result.stats.output_mismatches, 0u);
  // State still replayed: the commit is in the recovered database.
  SessionRunner oracle(&sws, LoggerDb());
  oracle.Feed(Msg(7));
  oracle.Feed(SessionRunner::DelimiterMessage(1));
  EXPECT_EQ(result.sessions.at("alice").db, oracle.db());
}

TEST(RecoveryTest, FailedOutcomeIsNotReRun) {
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  DurabilityOptions options;
  options.dir = dir.path();
  {
    ShardDurability shard(
        options, SegmentHeader{1, 0, SwsFingerprint(sws)}, 0, nullptr);
    // The live run failed (e.g. a transient injected fault after
    // retries): committed nothing, dropped the buffer.
    JournalSession(&shard, sws, "alice", 0, 7, /*with_outcome=*/true,
                   static_cast<uint8_t>(RunError::kInjectedFault));
  }
  RecoveryResult result = RecoverLogger(dir.path(), sws);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.replayed.empty());
  // Replay must reproduce the *failure's* effect (no commit), not re-run
  // the session to a success the client never saw.
  EXPECT_EQ(result.sessions.at("alice").db, LoggerDb());
  EXPECT_EQ(result.sessions.at("alice").next_seq, 2u);
  EXPECT_EQ(result.sessions.at("alice").pending.size(), 0u);
}

TEST(RecoveryTest, DiscardMarkerShedsBufferedInputs) {
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  DurabilityOptions options;
  options.dir = dir.path();
  {
    ShardDurability shard(
        options, SegmentHeader{1, 0, SwsFingerprint(sws)}, 0, nullptr);
    // Two buffered inputs, then a breaker discard at seq 2, then a fresh
    // session that commits.
    ASSERT_TRUE(shard.AppendInput(InputRecord("alice", 0, Msg(1))).ok());
    ASSERT_TRUE(shard.AppendInput(InputRecord("alice", 1, Msg(2))).ok());
    JournalRecord discard;
    discard.type = JournalRecord::Type::kDiscard;
    discard.session_id = "alice";
    discard.seq = 2;
    ASSERT_TRUE(shard.AppendDiscard(discard).ok());
    JournalSession(&shard, sws, "alice", 2, 9, /*with_outcome=*/false);
  }
  RecoveryResult result = RecoverLogger(dir.path(), sws);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.stats.discards_applied, 1u);
  ASSERT_EQ(result.replayed.size(), 1u);
  // Only Msg(9) survives: the discard shed Msg(1), Msg(2).
  SessionRunner oracle(&sws, LoggerDb());
  oracle.Feed(Msg(9));
  auto oracle_out = oracle.Feed(SessionRunner::DelimiterMessage(1));
  EXPECT_EQ(result.replayed[0].output, oracle_out->output);
  EXPECT_EQ(result.sessions.at("alice").db, oracle.db());
}

TEST(RecoveryTest, TornTailTruncatedAndConsolidationIdempotent) {
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  DurabilityOptions options;
  options.dir = dir.path();
  std::string wal_path;
  {
    ShardDurability shard(
        options, SegmentHeader{1, 0, SwsFingerprint(sws)}, 0, nullptr);
    JournalSession(&shard, sws, "alice", 0, 7, /*with_outcome=*/false);
    std::vector<DurableFile> files;
    ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
    ASSERT_EQ(files.size(), 1u);
    wal_path = dir.path() + "/" + files[0].name;
  }
  // Tear the tail: chop 3 bytes off the delimiter record.
  SegmentContents seg;
  ASSERT_TRUE(ReadSegment(wal_path, nullptr, &seg).ok());
  ASSERT_TRUE(TruncateTornTail(wal_path, seg.valid_bytes - 3).ok());

  RecoveryResult first = RecoverLogger(dir.path(), sws);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.stats.torn_tails_truncated, 1u);
  // The delimiter was torn: only the buffered input survives.
  EXPECT_TRUE(first.replayed.empty());
  EXPECT_EQ(first.sessions.at("alice").pending.size(), 1u);
  EXPECT_EQ(first.sessions.at("alice").next_seq, 1u);

  // Recovery consolidated: exactly one snapshot remains, and a second
  // recovery converges to the identical state.
  std::vector<DurableFile> files;
  ASSERT_TRUE(ListDurableFiles(dir.path(), &files).ok());
  ASSERT_EQ(files.size(), 1u);
  EXPECT_TRUE(files[0].is_snapshot);
  EXPECT_EQ(files[0].shard, kRecoveryShard);

  RecoveryResult second = RecoverLogger(dir.path(), sws);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.sessions.at("alice").next_seq, 1u);
  EXPECT_EQ(second.sessions.at("alice").pending,
            first.sessions.at("alice").pending);
  EXPECT_EQ(second.sessions.at("alice").db, first.sessions.at("alice").db);
  EXPECT_TRUE(second.replayed.empty());
  EXPECT_GT(second.next_incarnation, first.next_incarnation);
}

TEST(RecoveryTest, ForeignServiceFingerprintRejected) {
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  DurabilityOptions options;
  options.dir = dir.path();
  {
    ShardDurability shard(options, SegmentHeader{1, 0, /*fingerprint=*/123},
                          0, nullptr);
    JournalSession(&shard, sws, "alice", 0, 7, /*with_outcome=*/false);
  }
  RecoveryResult result = RecoverLogger(dir.path(), sws);
  EXPECT_EQ(result.status.code(), RunError::kStorageFailure);
}

// ---------------------------------------------------------------------------
// End-to-end: a durable runtime restarts into its own state.

TEST(DurableRuntimeTest, RestartRecoversSessionsAndSuppressesAckedOutputs) {
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  rt::RuntimeOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  options.durability.dir = dir.path();
  options.durability.fsync = FsyncPolicy::kAlways;

  // Life 1: two sessions close (acked), one stays mid-stream.
  {
    rt::ServiceRuntime runtime(&sws, LoggerDb(), options);
    ASSERT_TRUE(runtime.recovery() != nullptr);
    EXPECT_TRUE(runtime.recovery()->sessions.empty());
    for (int64_t i = 0; i < 2; ++i) {
      const std::string id = "closed-" + std::to_string(i);
      ASSERT_TRUE(runtime.Submit(id, Msg(i)).ok());
      ASSERT_TRUE(
          runtime.Submit(id, SessionRunner::DelimiterMessage(1)).ok());
    }
    ASSERT_TRUE(runtime.Submit("open", Msg(42)).ok());
    runtime.Drain();
    auto stats = runtime.Stats();
    EXPECT_EQ(stats.storage_failures, 0u);
    EXPECT_GE(stats.journal_appends, 5u);
    runtime.Shutdown();
  }

  // Life 2: recovery must rebuild all three sessions, re-emit nothing
  // (the closed sessions' outputs were acked), and the open session must
  // continue exactly where it stopped.
  rt::ServiceRuntime runtime(&sws, LoggerDb(), options);
  const persistence::RecoveryResult& recovery = *runtime.recovery();
  ASSERT_TRUE(recovery.status.ok()) << recovery.status.ToString();
  EXPECT_EQ(recovery.sessions.size(), 3u);
  EXPECT_TRUE(recovery.replayed.empty());
  EXPECT_EQ(recovery.stats.acked_suppressed, 2u);
  EXPECT_EQ(recovery.sessions.at("open").pending.size(), 1u);

  // Closing the recovered open session commits Msg(42).
  core::Status ok = runtime.Submit("open", SessionRunner::DelimiterMessage(1));
  ASSERT_TRUE(ok.ok());
  runtime.Drain();
  runtime.Shutdown();

  SessionRunner oracle(&sws, LoggerDb());
  oracle.Feed(Msg(42));
  oracle.Feed(SessionRunner::DelimiterMessage(1));
  RecoveryResult final_state = RecoverLogger(dir.path(), sws);
  ASSERT_TRUE(final_state.status.ok());
  EXPECT_EQ(final_state.sessions.at("open").db, oracle.db());
}

TEST(DurableRuntimeTest, WrongAritySubmitNeverReachesTheJournal) {
  // A wrong-arity submit is refused before the journal, so a kAlways
  // durable runtime restarts cleanly after one and replays nothing bad.
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  rt::RuntimeOptions options;
  options.num_workers = 1;
  options.num_shards = 2;
  options.durability.dir = dir.path();
  options.durability.fsync = FsyncPolicy::kAlways;
  Relation wide(2);
  wide.Insert({Value::Int(1), Value::Int(2)});
  {
    rt::ServiceRuntime runtime(&sws, LoggerDb(), options);
    EXPECT_EQ(runtime.Submit("alice", wide).code(), RunError::kInvalidInput);
    ASSERT_TRUE(runtime.Submit("alice", Msg(3)).ok());
    runtime.Drain();
    runtime.Shutdown();
  }
  rt::ServiceRuntime runtime(&sws, LoggerDb(), options);
  const persistence::RecoveryResult& recovery = *runtime.recovery();
  ASSERT_TRUE(recovery.status.ok()) << recovery.status.ToString();
  ASSERT_EQ(recovery.sessions.size(), 1u);
  EXPECT_EQ(recovery.sessions.at("alice").pending.size(), 1u);
  EXPECT_EQ(runtime.Submit("alice", wide).code(), RunError::kInvalidInput);
  ASSERT_TRUE(
      runtime.Submit("alice", SessionRunner::DelimiterMessage(1)).ok());
  runtime.Drain();
  runtime.Shutdown();

  SessionRunner oracle(&sws, LoggerDb());
  oracle.Feed(Msg(3));
  oracle.Feed(SessionRunner::DelimiterMessage(1));
  RecoveryResult final_state = RecoverLogger(dir.path(), sws);
  ASSERT_TRUE(final_state.status.ok());
  EXPECT_EQ(final_state.sessions.at("alice").db, oracle.db());
}

// The high-severity regression of the PR-4 review: an input append
// whose fsync fails must still feed the message and consume its seq —
// the record is on disk and recovery WILL replay it. Treating it as
// absent would re-journal the same seq with the next payload, and the
// restart's replay (keep-first dedup) would feed the never-fed first
// record: divergence, and with verify_replay_outputs a permanently
// unrecoverable directory.
TEST(DurableRuntimeTest, InputSyncFailureDoesNotForkTheJournal) {
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  core::FaultInjector injector(core::FaultOptions{});
  rt::RuntimeOptions options;
  options.num_workers = 1;
  options.num_shards = 1;
  options.durability.dir = dir.path();
  options.durability.fsync = FsyncPolicy::kAlways;
  options.durability.verify_replay_outputs = true;
  options.run_options.fault_injector = &injector;

  // Life 1: the first input's fsync fails mid-session; the session then
  // closes normally (the outcome lands on a fresh, healthy segment).
  {
    rt::ServiceRuntime runtime(&sws, LoggerDb(), options);
    injector.ArmSyncFailures(1);
    ASSERT_TRUE(runtime.Submit("alice", Msg(7)).ok());
    ASSERT_TRUE(
        runtime.Submit("alice", SessionRunner::DelimiterMessage(1)).ok());
    runtime.Drain();
    auto stats = runtime.Stats();
    EXPECT_GE(stats.storage_failures, 1u) << "the failed fsync must surface";
    runtime.Shutdown();
  }
  EXPECT_EQ(injector.injected_sync_failures(), 1u);

  // Life 2: recovery must verify cleanly — one record per seq, replay
  // byte-identical to the journaled output, acked output suppressed.
  options.run_options.fault_injector = nullptr;
  rt::ServiceRuntime runtime(&sws, LoggerDb(), options);
  ASSERT_TRUE(runtime.init_status().ok()) << runtime.init_status().ToString();
  const RecoveryResult& recovery = *runtime.recovery();
  ASSERT_TRUE(recovery.status.ok()) << recovery.status.ToString();
  EXPECT_EQ(recovery.stats.duplicate_records, 0u);
  EXPECT_EQ(recovery.stats.output_mismatches, 0u);
  EXPECT_EQ(recovery.stats.seq_gaps, 0u);
  EXPECT_EQ(recovery.stats.acked_suppressed, 1u);
  ASSERT_EQ(recovery.sessions.count("alice"), 1u);
  EXPECT_EQ(recovery.sessions.at("alice").next_seq, 2u);
  SessionRunner oracle(&sws, LoggerDb());
  oracle.Feed(Msg(7));
  oracle.Feed(SessionRunner::DelimiterMessage(1));
  EXPECT_EQ(recovery.sessions.at("alice").db, oracle.db());
  runtime.Shutdown();
}

// A durable dir that cannot be recovered (here: a journal written for a
// different service) must not abort construction — that would just
// crash-loop on the same bad bytes. The runtime comes up in a failed
// state: init_status() carries the recovery error and every Submit is
// rejected with it.
TEST(DurableRuntimeTest, RecoveryFailureSurfacesAsFailedState) {
  TempDir dir;
  Sws sws = MakeTwoLevelLogger();
  {
    DurabilityOptions options;
    options.dir = dir.path();
    ShardDurability shard(options, SegmentHeader{1, 0, /*fingerprint=*/123},
                          0, nullptr);
    JournalSession(&shard, sws, "alice", 0, 7, /*with_outcome=*/false);
  }
  rt::RuntimeOptions options;
  options.num_workers = 1;
  options.durability.dir = dir.path();
  rt::ServiceRuntime runtime(&sws, LoggerDb(), options);
  EXPECT_EQ(runtime.init_status().code(), RunError::kStorageFailure);
  core::Status submitted = runtime.Submit("bob", Msg(1));
  EXPECT_EQ(submitted.code(), RunError::kStorageFailure);
  EXPECT_GE(runtime.Stats().rejected, 1u);
  runtime.Shutdown();  // shutdown of a failed-state runtime is clean
}

}  // namespace
}  // namespace sws::persistence
