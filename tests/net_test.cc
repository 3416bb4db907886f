#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "logic/cq.h"
#include "net/client.h"
#include "persistence/serde.h"
#include "net/messages.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "net/wire.h"
#include "runtime/runtime.h"
#include "sws/fault.h"
#include "util/common.h"

namespace sws::net {
namespace {

using core::RunError;
using core::SessionRunner;
using core::Sws;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;
using rel::Relation;
using rel::Value;

// ---------------------------------------------------------------------------
// Shared fixtures: the two-level logger SWS of runtime_test (each
// session commits its first message into Log at the delimiter).

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

Relation Delim() { return SessionRunner::DelimiterMessage(1); }

int OpenFdCount() {
  int count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count - 1;  // the dirfd itself
}

// A raw blocking TCP connection for speaking hostile bytes at the
// server (the RpcClient refuses to misbehave).
class RawConn {
 public:
  bool Connect(uint16_t port, int rcvbuf = 0) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0) {
      setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    timeval tv{5, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  bool Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
  bool SendHello() {
    Hello hello;
    hello.role = Hello::Role::kClient;
    hello.source = "raw";
    return Send(EncodeFrame(MsgType::kHello, EncodeHello(hello)));
  }
  /// Reads until EOF (or error/timeout); returns everything received.
  std::string DrainToEof() {
    std::string all;
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = read(fd_, buf, sizeof(buf));
      if (n <= 0) break;
      all.append(buf, static_cast<size_t>(n));
    }
    return all;
  }
  /// True iff the peer has closed (EOF within the socket timeout).
  bool AtEof() {
    char c;
    return read(fd_, &c, 1) == 0;
  }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }
  ~RawConn() { Close(); }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Decodes every frame in `bytes`; fails the test on any decode error.
std::vector<std::pair<MsgType, std::string>> DecodeAll(
    const std::string& bytes) {
  FrameDecoder decoder;
  EXPECT_TRUE(decoder.Feed(bytes));
  std::vector<std::pair<MsgType, std::string>> frames;
  Frame frame;
  for (;;) {
    auto result = decoder.Next(&frame);
    if (result != FrameDecoder::Result::kFrame) {
      EXPECT_EQ(result, FrameDecoder::Result::kNeedMore);
      return frames;
    }
    frames.emplace_back(frame.type, std::string(frame.payload));
  }
}

// ---------------------------------------------------------------------------
// FrameDecoder: the defensive core.

TEST(WireTest, RoundtripAndIncrementalFeed) {
  const std::string a = EncodeFrame(MsgType::kPing, "hello");
  const std::string b = EncodeFrame(MsgType::kPong, "");
  const std::string c =
      EncodeFrame(MsgType::kSubmit, std::string(100'000, 'x'));

  FrameDecoder decoder;
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore);

  // Byte-at-a-time: kNeedMore until each frame completes, then kFrame.
  const std::string stream = a + b + c;
  std::vector<std::pair<MsgType, std::string>> got;
  for (char ch : stream) {
    ASSERT_TRUE(decoder.Feed(std::string_view(&ch, 1)));
    for (;;) {
      auto result = decoder.Next(&frame);
      if (result == FrameDecoder::Result::kNeedMore) break;
      ASSERT_EQ(result, FrameDecoder::Result::kFrame);
      got.emplace_back(frame.type, std::string(frame.payload));
    }
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, MsgType::kPing);
  EXPECT_EQ(got[0].second, "hello");
  EXPECT_EQ(got[1].first, MsgType::kPong);
  EXPECT_EQ(got[1].second, "");
  EXPECT_EQ(got[2].first, MsgType::kSubmit);
  EXPECT_EQ(got[2].second.size(), 100'000u);
  EXPECT_EQ(decoder.rejected(), 0u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

// Recomputes a frame's header CRC after the test has tampered with the
// type or length fields — for forging headers that pass header
// validation, so the check *behind* the header CRC is the one on trial.
void PatchHeaderCrc(std::string* frame) {
  const uint32_t crc =
      persistence::Crc32({frame->data(), kFrameHeaderCrcSpan});
  for (int i = 0; i < 4; ++i) {
    (*frame)[kFrameHeaderCrcSpan + i] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

TEST(WireTest, BadMagicLatches) {
  FrameDecoder decoder;
  std::string frame = EncodeFrame(MsgType::kPing, "x");
  frame[0] ^= 0xFF;
  ASSERT_TRUE(decoder.Feed(frame));
  Frame out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error(), WireError::kBadMagic);
  EXPECT_EQ(decoder.rejected(), 1u);
  // Latched: even fresh valid bytes can't revive the stream — there is
  // deliberately no resync inside untrusted bytes. Feed refuses them.
  EXPECT_FALSE(decoder.Feed(EncodeFrame(MsgType::kPing, "y")));
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error(), WireError::kBadMagic);
}

TEST(WireTest, BadTypeRejected) {
  // A hostile peer can ship any type byte under a self-consistent header
  // CRC, so the type check must hold on its own.
  FrameDecoder decoder;
  std::string frame = EncodeFrame(MsgType::kPing, "x");
  frame[4] = static_cast<char>(200);  // unassigned type byte
  PatchHeaderCrc(&frame);
  ASSERT_TRUE(decoder.Feed(frame));
  Frame out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error(), WireError::kBadType);
}

TEST(WireTest, HeaderCorruptionRejectedFromHeaderAlone) {
  // The killer case the header CRC exists for: one flipped bit in a
  // middle byte of payload_len yields a huge length still under the
  // payload cap. Without the header CRC the decoder would sit in
  // kNeedMore waiting for megabytes of phantom body — a silent
  // one-directional blackhole on an otherwise healthy connection. It
  // must instead die inside the 17 header bytes.
  {
    FrameDecoder decoder;  // default 32 MiB cap
    std::string frame = EncodeFrame(MsgType::kHeartbeat, "hb");
    frame[7] ^= static_cast<char>(0xA5);  // len += ~10.8 MiB, under cap
    ASSERT_TRUE(decoder.Feed(frame));
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
    EXPECT_EQ(decoder.error(), WireError::kBadHeaderCrc);
  }
  // A flip in the type byte is equally fatal at the header.
  {
    FrameDecoder decoder;
    std::string frame = EncodeFrame(MsgType::kPing, "x");
    frame[4] ^= 0x01;
    ASSERT_TRUE(decoder.Feed(frame));
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
    EXPECT_EQ(decoder.error(), WireError::kBadHeaderCrc);
  }
  // And a flip inside the header CRC field itself.
  {
    FrameDecoder decoder;
    std::string frame = EncodeFrame(MsgType::kPing, "x");
    frame[kFrameHeaderCrcSpan + 2] ^= 0x40;
    ASSERT_TRUE(decoder.Feed(frame));
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
    EXPECT_EQ(decoder.error(), WireError::kBadHeaderCrc);
  }
}

TEST(WireTest, CrcMismatchRejected) {
  FrameDecoder decoder;
  std::string frame = EncodeFrame(MsgType::kPing, "payload");
  frame[kFrameHeaderSize + 3] ^= 0x01;  // flip one payload bit
  ASSERT_TRUE(decoder.Feed(frame));
  Frame out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error(), WireError::kBadCrc);
}

TEST(WireTest, HostileLengthFields) {
  // Zero-length payload is legal (kPong heartbeats use it).
  {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(EncodeFrame(MsgType::kPong, "")));
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.payload.size(), 0u);
  }
  // Maximal length field (under a self-consistent header CRC, as a
  // hostile peer would send it): rejected from the header alone — the
  // body is never buffered, so a one-packet attacker can't reserve 4 GiB.
  {
    FrameDecoder decoder(FrameDecoder::Options{.max_payload = 1024});
    std::string frame = EncodeFrame(MsgType::kPing, "x");
    frame[5] = frame[6] = frame[7] = frame[8] = static_cast<char>(0xFF);
    PatchHeaderCrc(&frame);
    ASSERT_TRUE(decoder.Feed(frame));
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
    EXPECT_EQ(decoder.error(), WireError::kOversize);
  }
  // Off-by-one over the cap: rejected; exactly at the cap: accepted.
  {
    FrameDecoder decoder(FrameDecoder::Options{.max_payload = 1024});
    ASSERT_TRUE(decoder.Feed(EncodeFrame(MsgType::kPing,
                                         std::string(1024, 'a'))));
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.payload.size(), 1024u);
    ASSERT_TRUE(decoder.Feed(EncodeFrame(MsgType::kPing,
                                         std::string(1025, 'a'))));
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
    EXPECT_EQ(decoder.error(), WireError::kOversize);
  }
  // Length tampered after encoding (claims 4, delivers 3): caught by
  // the header CRC before the decoder can start waiting for the
  // phantom byte.
  {
    FrameDecoder decoder;
    std::string frame = EncodeFrame(MsgType::kPing, "abc");
    frame[5] = 4;
    ASSERT_TRUE(decoder.Feed(frame));
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
    EXPECT_EQ(decoder.error(), WireError::kBadHeaderCrc);
  }
  // An *honest* short frame — a sender that died mid-write, header
  // intact: the decoder just waits (kNeedMore). Starvation is the sweep
  // tick's problem (idle reap), not a parser crash.
  {
    FrameDecoder decoder;
    std::string frame = EncodeFrame(MsgType::kPing, "abcd");
    frame.pop_back();  // body one byte short of the declared length
    ASSERT_TRUE(decoder.Feed(frame));
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kNeedMore);
    EXPECT_EQ(decoder.buffered(), frame.size());
  }
  // A hostile peer re-CRCing a shortened length: the header passes, but
  // the payload CRC (computed over the claimed span) exposes the lie.
  {
    FrameDecoder decoder;
    std::string frame = EncodeFrame(MsgType::kPing, "abc");
    frame[5] = 2;
    PatchHeaderCrc(&frame);
    ASSERT_TRUE(decoder.Feed(frame));
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
    EXPECT_EQ(decoder.error(), WireError::kBadCrc);
  }
}

TEST(WireTest, BufferCapOverflows) {
  FrameDecoder decoder(
      FrameDecoder::Options{.max_payload = 64, .max_buffer = 256});
  // A flood of headerless trash larger than the cap: Feed refuses and
  // latches kOverflow instead of growing without bound.
  EXPECT_FALSE(decoder.Feed(std::string(257, 'z')));
  EXPECT_EQ(decoder.error(), WireError::kOverflow);
  Frame out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kError);
}

// ---------------------------------------------------------------------------
// RPC front door: end-to-end over loopback.

class NetServerTest : public ::testing::Test {
 protected:
  void StartAll(RpcServer::Options sopts = {},
                rt::RuntimeOptions ropts = {}) {
    sws_ = MakeTwoLevelLogger();
    ropts.num_workers = ropts.num_workers ? ropts.num_workers : 4;
    runtime_ = std::make_unique<rt::ServiceRuntime>(&sws_, LoggerDb(), ropts);
    server_ = std::make_unique<RpcServer>(runtime_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }
  void TearDown() override {
    if (server_) server_->Stop();
    if (runtime_) runtime_->Shutdown();
  }
  RpcClient MakeClient() {
    RpcClient::Options copts;
    copts.port = server_->port();
    return RpcClient(copts);
  }
  /// Waits until `pred` is true or ~2 s elapse.
  template <typename Pred>
  bool Eventually(Pred pred) {
    for (int i = 0; i < 400; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  Sws sws_{rel::Schema(), 1, 1};
  std::unique_ptr<rt::ServiceRuntime> runtime_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(NetServerTest, SubmitRoundtripAndAdmin) {
  StartAll();
  RpcClient client = MakeClient();
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping("echo-me").ok());

  ASSERT_TRUE(client.Submit(client.NextRequestId(), "alice", Msg(42)).ok());
  ASSERT_TRUE(client.Submit(client.NextRequestId(), "alice", Msg(43)).ok());
  OutcomeReply outcome;
  const uint64_t delim_id = client.NextRequestId();
  ASSERT_TRUE(client.SubmitAndWait(delim_id, "alice", Delim(), &outcome).ok());
  EXPECT_EQ(outcome.request_id, delim_id);
  EXPECT_EQ(outcome.session_id, "alice");
  EXPECT_EQ(outcome.status_code, 0u);
  ASSERT_TRUE(outcome.has_output);
  // The depth-2 logger commits the first message: output carries 42.
  EXPECT_TRUE(outcome.output.Contains(
      {Value::Str("ins"), Value::Str("Log"), Value::Int(42)}))
      << outcome.output.ToString();

  InspectReply inspect;
  ASSERT_TRUE(client.Inspect("alice", &inspect).ok());
  EXPECT_EQ(inspect.shard, runtime_->ShardOf("alice"));
  EXPECT_EQ(inspect.num_shards, runtime_->num_shards());
  EXPECT_EQ(inspect.num_workers, runtime_->num_workers());

  std::string json;
  ASSERT_TRUE(client.GetStats(&json).ok());
  EXPECT_NE(json.find("\"net_conns_accepted\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"submitted\":3"), std::string::npos) << json;
  client.Close();
}

TEST_F(NetServerTest, InterleavedOutcomesAreCorrelated) {
  StartAll();
  RpcClient client = MakeClient();
  // Two sessions interleaved on one connection: outcome frames arrive
  // in completion order, but WaitOutcome hands each caller its own.
  ASSERT_TRUE(client.Submit(1, "alice", Msg(7)).ok());
  ASSERT_TRUE(client.Submit(2, "bob", Msg(8)).ok());
  ASSERT_TRUE(client.Submit(3, "alice", Delim()).ok());
  ASSERT_TRUE(client.Submit(4, "bob", Delim()).ok());
  OutcomeReply bob, alice;
  ASSERT_TRUE(client.WaitOutcome(4, &bob).ok());
  ASSERT_TRUE(client.WaitOutcome(3, &alice).ok());  // buffered while waiting
  EXPECT_EQ(bob.session_id, "bob");
  EXPECT_EQ(alice.session_id, "alice");
  EXPECT_TRUE(alice.output.Contains(
      {Value::Str("ins"), Value::Str("Log"), Value::Int(7)}));
  EXPECT_TRUE(bob.output.Contains(
      {Value::Str("ins"), Value::Str("Log"), Value::Int(8)}));
}

TEST_F(NetServerTest, WrongAritySubmitGetsTypedRejection) {
  // A well-framed submit whose message does not fit R_in must come back
  // as kInvalidInput, and the server must keep serving.
  StartAll();
  RpcClient client = MakeClient();
  Relation wide(2);
  wide.Insert({Value::Int(1), Value::Int(2)});
  core::Status status = client.Submit(client.NextRequestId(), "alice", wide);
  EXPECT_EQ(status.code(), core::RunError::kInvalidInput) << status.ToString();
  ASSERT_TRUE(client.Submit(client.NextRequestId(), "alice", Msg(5)).ok());
  OutcomeReply outcome;
  ASSERT_TRUE(client
                  .SubmitAndWait(client.NextRequestId(), "alice", Delim(),
                                 &outcome)
                  .ok());
  EXPECT_EQ(outcome.status_code, 0u);
  EXPECT_TRUE(outcome.output.Contains(
      {Value::Str("ins"), Value::Str("Log"), Value::Int(5)}));
  EXPECT_EQ(runtime_->Stats().rejected, 1u);
}

TEST_F(NetServerTest, HelloIsEnforcedFirst) {
  StartAll();
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  // A well-formed frame, but not a hello: typed goodbye + close.
  ASSERT_TRUE(raw.Send(EncodeFrame(MsgType::kPing, "premature")));
  const std::string bytes = raw.DrainToEof();
  auto frames = DecodeAll(bytes);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, MsgType::kError);
  auto error = DecodeErrorReply(frames[0].second);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->request_id, 0u);  // connection-level
  EXPECT_EQ(error->code, static_cast<uint8_t>(RunError::kProtocolError));
  EXPECT_EQ(runtime_->Stats().net_frames_rejected, 1u);
}

TEST_F(NetServerTest, WrongProtocolVersionRejected) {
  StartAll();
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  Hello hello;
  hello.role = Hello::Role::kClient;
  hello.protocol_version = kProtocolVersion + 1;
  ASSERT_TRUE(raw.Send(EncodeFrame(MsgType::kHello, EncodeHello(hello))));
  auto frames = DecodeAll(raw.DrainToEof());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, MsgType::kError);
}

TEST_F(NetServerTest, MalformedBytesCloseWithTypedError) {
  StartAll();
  {
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    ASSERT_TRUE(raw.SendHello());
    ASSERT_TRUE(raw.Send("this is not a frame at all, just trash"));
    auto frames = DecodeAll(raw.DrainToEof());
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].first, MsgType::kError);
    auto error = DecodeErrorReply(frames[0].second);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->message, "bad_magic");
  }
  {
    // A hostile length field under a self-consistent header CRC:
    // oversize rejection without buffering.
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    ASSERT_TRUE(raw.SendHello());
    std::string frame = EncodeFrame(MsgType::kPing, "x");
    frame[5] = frame[6] = frame[7] = frame[8] = static_cast<char>(0xFF);
    PatchHeaderCrc(&frame);
    ASSERT_TRUE(raw.Send(frame));
    auto frames = DecodeAll(raw.DrainToEof());
    ASSERT_EQ(frames.size(), 1u);
    auto error = DecodeErrorReply(frames[0].second);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->message, "oversize");
  }
  {
    // A truncated frame mid-payload followed by close: no reply owed,
    // no crash, no leak — the server just drops the half-frame.
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    ASSERT_TRUE(raw.SendHello());
    std::string frame = EncodeFrame(MsgType::kPing, std::string(1000, 'p'));
    ASSERT_TRUE(raw.Send(std::string_view(frame).substr(0, 200)));
  }
  EXPECT_TRUE(Eventually([&] { return server_->num_connections() == 0; }));
  EXPECT_EQ(runtime_->Stats().net_frames_rejected, 2u);
}

TEST_F(NetServerTest, GarbledSubmitPayloadRejected) {
  StartAll();
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  ASSERT_TRUE(raw.SendHello());
  // Frame-valid (CRC recomputed) but payload-invalid submit: the total
  // message decoder rejects it and the connection dies typed.
  ASSERT_TRUE(raw.Send(EncodeFrame(MsgType::kSubmit, "not a submit")));
  auto frames = DecodeAll(raw.DrainToEof());
  ASSERT_EQ(frames.size(), 1u);
  auto error = DecodeErrorReply(frames[0].second);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->message, "bad submit");
  EXPECT_EQ(runtime_->Stats().net_frames_rejected, 1u);
}

TEST_F(NetServerTest, IdleConnectionsReaped) {
  RpcServer::Options sopts;
  sopts.idle_timeout = std::chrono::milliseconds(100);
  sopts.sweep_interval = std::chrono::milliseconds(20);
  StartAll(sopts);
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  ASSERT_TRUE(raw.SendHello());
  // Say nothing: the slow-loris posture — the sweep cuts us loose.
  EXPECT_TRUE(raw.AtEof());
  EXPECT_TRUE(Eventually([&] { return server_->num_connections() == 0; }));
  rt::StatsSnapshot stats = runtime_->Stats();
  EXPECT_EQ(stats.net_conns_accepted, 1u);
  EXPECT_EQ(stats.net_conns_reaped, 1u);
}

TEST_F(NetServerTest, AcceptOverloadClosesImmediately) {
  RpcServer::Options sopts;
  sopts.max_connections = 1;
  StartAll(sopts);
  RpcClient first = MakeClient();
  ASSERT_TRUE(first.Connect().ok());
  ASSERT_TRUE(first.Ping().ok());  // occupies the single slot
  RawConn second;
  ASSERT_TRUE(second.Connect(server_->port()));
  EXPECT_TRUE(second.AtEof());  // accepted and immediately cut
  EXPECT_TRUE(Eventually([&] {
    rt::StatsSnapshot stats = runtime_->Stats();
    return stats.net_conns_accepted == 2 && stats.net_conns_reaped == 1;
  }));
  ASSERT_TRUE(first.Ping().ok());  // the in-cap connection is unharmed
}

TEST_F(NetServerTest, HardWatermarkRejectsAndWedgedWriterReaped) {
  RpcServer::Options sopts;
  sopts.send_hard_bytes = 64 * 1024;
  sopts.send_soft_bytes = 32 * 1024;
  sopts.write_timeout = std::chrono::milliseconds(300);
  sopts.sweep_interval = std::chrono::milliseconds(20);
  StartAll(sopts);
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server_->port(), /*rcvbuf=*/4096));
  ASSERT_TRUE(raw.SendHello());
  // Ask for ~8 MiB of pongs and read none of them: the kernel windows
  // fill, the server's send queue backs up past the hard watermark.
  const std::string ping = EncodeFrame(MsgType::kPing,
                                       std::string(256 * 1024, 'q'));
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(raw.Send(ping));
  // Now submits bounce at the door instead of buffering unboundedly.
  SubmitRequest request;
  request.request_id = 77;
  request.session_id = "alice";
  request.message = Msg(1);
  ASSERT_TRUE(raw.Send(EncodeFrame(MsgType::kSubmit,
                                   EncodeSubmitRequest(request))));
  // Keep not reading: the writer is wedged, and the sweep reaps it.
  EXPECT_TRUE(Eventually([&] { return server_->num_connections() == 0; }));
  rt::StatsSnapshot stats = runtime_->Stats();
  EXPECT_EQ(stats.net_conns_reaped, 1u);
  EXPECT_GT(stats.net_bytes_shed, 0u);
  // The flood never became admitted work.
  EXPECT_EQ(stats.submitted, 0u);
  // The tail of the stream (what the kernel let through before the cut)
  // must contain the typed rejection for request 77 — unless the queue
  // died before it flushed, in which case its bytes are in the shed
  // count. Either way: bounded memory, honest accounting.
  const std::string bytes = raw.DrainToEof();
  FrameDecoder decoder;
  bool saw_reject = false;
  if (decoder.Feed(bytes)) {
    Frame frame;
    while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
      if (frame.type != MsgType::kError) continue;
      auto error = DecodeErrorReply(frame.payload);
      if (error && error->request_id == 77 &&
          error->code == static_cast<uint8_t>(RunError::kQueueRejected)) {
        saw_reject = true;
      }
    }
  }
  EXPECT_TRUE(saw_reject || stats.net_bytes_shed > 0);
}

TEST_F(NetServerTest, ClientReconnectsAfterServerRestart) {
  StartAll();
  const uint16_t port = server_->port();
  RpcClient client = MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  server_->Stop();
  EXPECT_FALSE(client.Ping().ok());  // the link died mid-conversation
  // Same port, fresh server: the next call redials via core::Backoff.
  RpcServer::Options sopts;
  sopts.port = port;
  server_ = std::make_unique<RpcServer>(runtime_.get(), sopts);
  ASSERT_TRUE(server_->Start().ok());
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_GE(client.reconnects(), 1u);
}

TEST_F(NetServerTest, DrainAndShutdownOrderingWithLiveConnections) {
  StartAll();
  RpcClient client = MakeClient();
  for (int i = 0; i < 10; ++i) {
    const std::string id = "s" + std::to_string(i);
    ASSERT_TRUE(client.Submit(client.NextRequestId(), id, Msg(i)).ok());
    ASSERT_TRUE(client.Submit(client.NextRequestId(), id, Delim()).ok());
  }
  // Drain with the connection live: every outcome must reach the wire.
  runtime_->Drain();
  for (uint64_t id = 2; id <= 20; id += 2) {
    OutcomeReply outcome;
    ASSERT_TRUE(client.WaitOutcome(id, &outcome).ok()) << id;
    EXPECT_EQ(outcome.status_code, 0u);
  }
  // Stop the server *before* the runtime: the documented order. A
  // subsequent runtime Shutdown (TearDown) must not touch freed server
  // state — the weak_ptr<Core> in callbacks guards it.
  server_->Stop();
  EXPECT_FALSE(client.Ping().ok());
}

TEST_F(NetServerTest, StopWithInFlightOutcomesShedsSafely) {
  // Hold all work hostage in the pool until the server is stopped, so
  // every outcome callback fires against a closed connection.
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int arrived = 0;
  rt::RuntimeOptions ropts;
  ropts.before_process_hook = [&](const std::string&) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  };
  StartAll({}, ropts);
  RpcClient client = MakeClient();
  ASSERT_TRUE(client.Submit(1, "alice", Msg(5)).ok());
  ASSERT_TRUE(client.Submit(2, "alice", Delim()).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return arrived >= 1; });
  }
  server_->Stop();  // connection closes with the outcome still in flight
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
  runtime_->Drain();  // the callback fires, finds closed, sheds
  EXPECT_TRUE(Eventually([&] { return runtime_->Stats().net_bytes_shed > 0; }));
}

TEST_F(NetServerTest, LifecycleLeaksNoFds) {
  // Warm up long-lived allocations (epoll instances are per-server so
  // they must be released; GTest and the runtime keep their own fds).
  StartAll();
  {
    RpcClient client = MakeClient();
    ASSERT_TRUE(client.Ping().ok());
    client.Close();
  }
  server_->Stop();
  const int baseline = OpenFdCount();
  ASSERT_GT(baseline, 0);
  for (int round = 0; round < 3; ++round) {
    RpcServer::Options sopts;
    RpcServer server(runtime_.get(), sopts);
    ASSERT_TRUE(server.Start().ok());
    RpcClient::Options copts;
    copts.port = server.port();
    RpcClient client(copts);
    ASSERT_TRUE(client.Ping().ok());
    RawConn hostile;
    ASSERT_TRUE(hostile.Connect(server.port()));
    ASSERT_TRUE(hostile.Send("garbage"));
    client.Close();
    hostile.Close();
    server.Stop();
  }
  EXPECT_EQ(OpenFdCount(), baseline);
}

// ---------------------------------------------------------------------------
// SocketTransport: replication verbs over real sockets.

/// Records every delivery; thread-safe (deliveries come off the
/// transport's loop thread).
class RecordingEndpoint : public replication::ReplicationEndpoint {
 public:
  void OnShipment(const replication::Shipment& shipment) override {
    std::lock_guard<std::mutex> lock(mu_);
    shipments.push_back(shipment);
    cv_.notify_all();
  }
  void OnAck(const std::string& from, uint64_t source_incarnation,
             uint64_t acked_link_seq, uint64_t epoch) override {
    std::lock_guard<std::mutex> lock(mu_);
    acks.push_back({from, source_incarnation, acked_link_seq, epoch});
    cv_.notify_all();
  }
  void OnHeartbeat(const std::string& from, uint64_t incarnation,
                   uint64_t epoch) override {
    std::lock_guard<std::mutex> lock(mu_);
    heartbeats.push_back({from, incarnation, epoch});
    cv_.notify_all();
  }
  void OnVoteRequest(const std::string& from, uint64_t epoch,
                     const std::string& suspect) override {
    std::lock_guard<std::mutex> lock(mu_);
    vote_requests.push_back({from, suspect, epoch});
    cv_.notify_all();
  }
  void OnVoteGrant(const std::string& from, uint64_t epoch,
                   bool granted) override {
    std::lock_guard<std::mutex> lock(mu_);
    vote_grants.push_back({from, epoch, granted});
    cv_.notify_all();
  }
  void OnCatchupRequest(const std::string& from, uint64_t epoch) override {
    std::lock_guard<std::mutex> lock(mu_);
    catchups.push_back({from, epoch});
    cv_.notify_all();
  }

  /// `pred` runs with mu_ held — touch the vectors directly inside
  /// it, never the locking accessors (self-deadlock).
  template <typename Pred>
  bool WaitFor(Pred pred, int timeout_ms = 2000) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return pred(); });
  }
  size_t HeartbeatCount() {
    std::lock_guard<std::mutex> lock(mu_);
    return heartbeats.size();
  }

  // Guarded by mu_; inspect via WaitFor's predicate or after quiescence.
  std::mutex mu_;
  std::vector<replication::Shipment> shipments;
  struct AckRec {
    std::string from;
    uint64_t incarnation, seq, epoch;
  };
  std::vector<AckRec> acks;
  struct HbRec {
    std::string from;
    uint64_t incarnation, epoch;
  };
  std::vector<HbRec> heartbeats;
  struct VoteReqRec {
    std::string from, suspect;
    uint64_t epoch;
  };
  std::vector<VoteReqRec> vote_requests;
  struct VoteGrantRec {
    std::string from;
    uint64_t epoch;
    bool granted;
  };
  std::vector<VoteGrantRec> vote_grants;
  struct CatchupRec {
    std::string from;
    uint64_t epoch;
  };
  std::vector<CatchupRec> catchups;

 private:
  std::condition_variable cv_;
};

TEST(SocketTransportTest, AllVerbsDeliverByteExact) {
  SocketTransport transport;
  RecordingEndpoint a, b;
  transport.Bind("A", &a);
  transport.Bind("B", &b);
  EXPECT_GT(transport.ListenPort("A"), 0);
  EXPECT_GT(transport.ListenPort("B"), 0);

  replication::Shipment shipment;
  shipment.source = "A";
  shipment.dest = "B";
  shipment.source_incarnation = 3;
  shipment.link_seq = 17;
  shipment.first_unacked = 9;
  shipment.epoch = 2;
  shipment.shard = 1;
  shipment.segment_n = 5;
  shipment.snapshot = true;
  shipment.frame = std::string("\x00\x01garbled\xff journal bytes", 23);
  transport.Ship(shipment);
  transport.SendHeartbeat("A", "B", 7, 2);
  transport.SendVoteRequest("A", "B", 4, "C");
  transport.SendVoteGrant("A", "B", 4, true);
  transport.SendCatchupRequest("A", "B", 2);
  transport.SendAck("B", "A", 3, 17, 2);

  ASSERT_TRUE(b.WaitFor([&] {
    return b.shipments.size() == 1 && b.heartbeats.size() == 1 &&
           b.vote_requests.size() == 1 && b.vote_grants.size() == 1 &&
           b.catchups.size() == 1;
  }));
  ASSERT_TRUE(a.WaitFor([&] { return a.acks.size() == 1; }));
  {
    std::lock_guard<std::mutex> lock(b.mu_);
    const replication::Shipment& got = b.shipments[0];
    EXPECT_EQ(got.source, "A");
    EXPECT_EQ(got.dest, "B");
    EXPECT_EQ(got.source_incarnation, 3u);
    EXPECT_EQ(got.link_seq, 17u);
    EXPECT_EQ(got.first_unacked, 9u);
    EXPECT_EQ(got.epoch, 2u);
    EXPECT_EQ(got.shard, 1u);
    EXPECT_EQ(got.segment_n, 5u);
    EXPECT_TRUE(got.snapshot);
    EXPECT_EQ(got.frame, shipment.frame);  // byte-exact, CRC included
    EXPECT_EQ(b.vote_requests[0].suspect, "C");
    EXPECT_TRUE(b.vote_grants[0].granted);
  }
  {
    std::lock_guard<std::mutex> lock(a.mu_);
    EXPECT_EQ(a.acks[0].from, "B");
    EXPECT_EQ(a.acks[0].seq, 17u);
  }
  EXPECT_GE(transport.delivered(), 6u);
  transport.Unbind("A");
  transport.Unbind("B");
}

TEST(SocketTransportTest, PartitionIsolateAndHeal) {
  SocketTransport transport;
  RecordingEndpoint a, b;
  transport.Bind("A", &a);
  transport.Bind("B", &b);
  transport.SendHeartbeat("A", "B", 1, 1);
  ASSERT_TRUE(b.WaitFor([&] { return !b.heartbeats.empty(); }));

  transport.Partition("A", "B");
  const uint64_t dropped_before = transport.dropped();
  for (int i = 0; i < 5; ++i) transport.SendHeartbeat("A", "B", 1, 1);
  EXPECT_TRUE(b.WaitFor([&] { return transport.dropped() >= dropped_before + 5; }));
  const size_t during = b.HeartbeatCount();
  // Reverse direction stays up: partitions are ordered pairs.
  transport.SendHeartbeat("B", "A", 1, 1);
  ASSERT_TRUE(a.WaitFor([&] { return !a.heartbeats.empty(); }));
  EXPECT_EQ(b.HeartbeatCount(), during);

  transport.Heal("A", "B");
  transport.SendHeartbeat("A", "B", 1, 1);
  ASSERT_TRUE(b.WaitFor([&] { return b.heartbeats.size() > during; }));

  transport.Isolate("B");
  const size_t before_isolate = b.HeartbeatCount();
  for (int i = 0; i < 5; ++i) transport.SendHeartbeat("A", "B", 1, 1);
  transport.Rejoin("B");
  transport.SendHeartbeat("A", "B", 1, 1);
  ASSERT_TRUE(b.WaitFor([&] { return b.heartbeats.size() > before_isolate; }));
  transport.Unbind("A");
  transport.Unbind("B");
}

TEST(SocketTransportTest, SeverHealsTransparently) {
  SocketTransport transport;
  RecordingEndpoint a, b;
  transport.Bind("A", &a);
  transport.Bind("B", &b);
  transport.SendHeartbeat("A", "B", 1, 1);
  ASSERT_TRUE(b.WaitFor([&] { return b.heartbeats.size() >= 1; }));
  // Kill every socket with no block installed: the next send must
  // re-dial and deliver without any outside help.
  transport.SeverAll();
  EXPECT_GE(transport.severed(), 1u);
  ASSERT_TRUE(b.WaitFor([&] {
    transport.SendHeartbeat("A", "B", 1, 1);
    return b.heartbeats.size() >= 2;
  }));
  transport.Unbind("A");
  transport.Unbind("B");
}

TEST(SocketTransportTest, GarbledFramesAreRejectedNeverDelivered) {
  core::FaultOptions fopts;
  fopts.seed = 0xfeedface;
  fopts.transport_garble_rate = 0.5;
  core::FaultInjector injector(fopts);
  SocketTransport transport(&injector);
  RecordingEndpoint a, b;
  transport.Bind("A", &a);
  transport.Bind("B", &b);
  // Drive heartbeats with small gaps so the sender notices each kill
  // and redials: one garbled frame latches the receiver's decoder and
  // cuts the connection, taking the rest of that burst with it — the
  // replication protocol's retransmit loop is what heals that in
  // production, and here the steady send stream plays that role.
  for (int i = 0; i < 2000; ++i) {
    transport.SendHeartbeat("A", "B", static_cast<uint64_t>(i), 1);
    if (transport.rejected_frames() >= 25 &&
        b.WaitFor([&] { return b.heartbeats.size() >= 5; }, 1)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Every garbled frame that reached the decoder was rejected by a CRC
  // — header or payload, whichever the flipped byte landed in — killing
  // its connection; clean frames on live connections got through
  // intact. No crashes, no trash reaching the endpoint.
  EXPECT_GE(transport.rejected_frames(), 25u);
  EXPECT_GE(transport.garbled(), 25u);
  EXPECT_TRUE(b.WaitFor([&] { return b.heartbeats.size() >= 5; }));
  {
    std::lock_guard<std::mutex> lock(b.mu_);
    for (const auto& hb : b.heartbeats) {
      EXPECT_EQ(hb.from, "A");
      EXPECT_EQ(hb.epoch, 1u);
    }
  }
  transport.Unbind("A");
  transport.Unbind("B");
}

TEST(SocketTransportTest, UnbindStopsDeliveriesAndRebindResumes) {
  SocketTransport transport;
  RecordingEndpoint b1;
  {
    RecordingEndpoint a;
    transport.Bind("A", &a);
    transport.Bind("B", &b1);
    transport.SendHeartbeat("A", "B", 1, 1);
    ASSERT_TRUE(b1.WaitFor([&] { return b1.heartbeats.size() >= 1; }));
    // After Unbind returns, the endpoint must never be called again —
    // destroying it (scope exit) is safe even with sends still flowing.
    transport.Unbind("B");
    for (int i = 0; i < 5; ++i) transport.SendHeartbeat("A", "B", 1, 1);
  }
  RecordingEndpoint b2;
  transport.Bind("B", &b2);  // fresh ephemeral port
  ASSERT_TRUE(b2.WaitFor([&] {
    transport.SendHeartbeat("A", "B", 2, 2);
    return b2.heartbeats.size() >= 1;
  }));
  transport.Unbind("A");
  transport.Unbind("B");
}

TEST(SocketTransportTest, LifecycleLeaksNoFds) {
  const int baseline = OpenFdCount();
  for (int round = 0; round < 3; ++round) {
    SocketTransport transport;
    RecordingEndpoint a, b;
    transport.Bind("A", &a);
    transport.Bind("B", &b);
    transport.SendHeartbeat("A", "B", 1, 1);
    ASSERT_TRUE(b.WaitFor([&] { return b.heartbeats.size() >= 1; }));
    transport.Unbind("A");
    transport.Unbind("B");
  }
  EXPECT_EQ(OpenFdCount(), baseline);
}

}  // namespace
}  // namespace sws::net
