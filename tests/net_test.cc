#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
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
using replication::Heartbeat;

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
  // Two sessions interleaved on each of 2 × num_workers() connections,
  // driven at once, so every loop owns two of them. Outcome frames arrive
  // in completion order, but WaitOutcome hands each caller its own; each
  // session keeps its FIFO (the logger commits the session's first
  // message) and gets one outcome per '#'.
  const size_t num_conns = 2 * runtime_->num_workers();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_conns; ++c) {
    threads.emplace_back([this, c] {
      RpcClient client = MakeClient();
      const std::string alice = "alice" + std::to_string(c);
      const std::string bob = "bob" + std::to_string(c);
      const int64_t base = 100 * static_cast<int64_t>(c);
      ASSERT_TRUE(client.Submit(1, alice, Msg(base + 1)).ok());
      ASSERT_TRUE(client.Submit(2, bob, Msg(base + 2)).ok());
      ASSERT_TRUE(client.Submit(3, alice, Msg(base + 3)).ok());
      ASSERT_TRUE(client.Submit(4, alice, Delim()).ok());
      ASSERT_TRUE(client.Submit(5, bob, Delim()).ok());
      ASSERT_TRUE(client.Submit(6, alice, Msg(base + 6)).ok());
      ASSERT_TRUE(client.Submit(7, alice, Delim()).ok());
      OutcomeReply bob_out, alice_first, alice_second;
      ASSERT_TRUE(client.WaitOutcome(7, &alice_second).ok());
      ASSERT_TRUE(client.WaitOutcome(5, &bob_out).ok());  // buffered
      ASSERT_TRUE(client.WaitOutcome(4, &alice_first).ok());
      EXPECT_EQ(alice_first.session_id, alice);
      EXPECT_EQ(bob_out.session_id, bob);
      EXPECT_EQ(alice_second.session_id, alice);
      auto logged = [](const OutcomeReply& outcome, int64_t v) {
        return outcome.output.Contains(
            {Value::Str("ins"), Value::Str("Log"), Value::Int(v)});
      };
      EXPECT_TRUE(logged(alice_first, base + 1))
          << alice_first.output.ToString();
      EXPECT_FALSE(logged(alice_first, base + 3));
      EXPECT_TRUE(logged(bob_out, base + 2)) << bob_out.output.ToString();
      EXPECT_TRUE(logged(alice_second, base + 6))
          << alice_second.output.ToString();
    });
  }
  for (std::thread& thread : threads) thread.join();
  rt::StatsSnapshot stats = runtime_->Stats();
  EXPECT_EQ(stats.net_conns_accepted, num_conns);
  EXPECT_EQ(stats.sessions_closed, 3 * num_conns);
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

TEST_F(NetServerTest, HugeDeadlineSubmitRunsNormally) {
  // A kSubmit frame's deadline_ns is any positive i64; INT64_MAX must
  // saturate in the runtime instead of overflowing now() + deadline, and
  // the session must complete as if it had no deadline.
  StartAll();
  RpcClient client = MakeClient();
  const std::chrono::nanoseconds huge(INT64_MAX);
  ASSERT_TRUE(
      client.Submit(client.NextRequestId(), "alice", Msg(9), 1, huge).ok());
  const uint64_t delim_id = client.NextRequestId();
  ASSERT_TRUE(client.Submit(delim_id, "alice", Delim(), 1, huge).ok());
  OutcomeReply outcome;
  ASSERT_TRUE(client.WaitOutcome(delim_id, &outcome).ok());
  EXPECT_EQ(outcome.status_code, 0u);
  EXPECT_TRUE(outcome.output.Contains(
      {Value::Str("ins"), Value::Str("Log"), Value::Int(9)}))
      << outcome.output.ToString();
  EXPECT_EQ(runtime_->Stats().deadline_exceeded, 0u);
  EXPECT_EQ(runtime_->Stats().expired_at_enqueue, 0u);
}

TEST_F(NetServerTest, NegativeDeadlineSubmitGetsTypedRejection) {
  // A negative deadline_ns is the runtime's kInvalidInput for that
  // request alone: the connection stays open and keeps serving.
  StartAll();
  RpcClient client = MakeClient();
  core::Status status = client.Submit(client.NextRequestId(), "alice", Msg(3),
                                      1, std::chrono::nanoseconds(-1));
  EXPECT_EQ(status.code(), core::RunError::kInvalidInput) << status.ToString();
  ASSERT_TRUE(client.Submit(client.NextRequestId(), "alice", Msg(4)).ok());
  OutcomeReply outcome;
  ASSERT_TRUE(client
                  .SubmitAndWait(client.NextRequestId(), "alice", Delim(),
                                 &outcome)
                  .ok());
  EXPECT_EQ(outcome.status_code, 0u);
  EXPECT_TRUE(outcome.output.Contains(
      {Value::Str("ins"), Value::Str("Log"), Value::Int(4)}))
      << outcome.output.ToString();
  EXPECT_EQ(client.reconnects(), 0u);
  rt::StatsSnapshot stats = runtime_->Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.net_conns_accepted, 1u);
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

TEST_F(NetServerTest, EveryLoopReapsItsIdleConnections) {
  RpcServer::Options sopts;
  sopts.idle_timeout = std::chrono::milliseconds(100);
  sopts.sweep_interval = std::chrono::milliseconds(20);
  StartAll(sopts);
  // One loop per worker, handed connections in turn: one connection more
  // than there are loops leaves every loop owning at least one.
  const size_t n = runtime_->num_workers() + 1;
  std::vector<RawConn> silent(n);
  for (RawConn& raw : silent) ASSERT_TRUE(raw.Connect(server_->port()));
  for (RawConn& raw : silent) EXPECT_TRUE(raw.AtEof());
  EXPECT_TRUE(Eventually([&] { return server_->num_connections() == 0; }));
  rt::StatsSnapshot stats = runtime_->Stats();
  EXPECT_EQ(stats.net_conns_accepted, n);
  EXPECT_EQ(stats.net_conns_reaped, n);
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

TEST_F(NetServerTest, AcceptOverloadCountsEveryLoop) {
  RpcServer::Options sopts;
  sopts.max_connections = 3;
  StartAll(sopts);
  // Handed out in turn, the three live connections sit on three loops;
  // the cap counts them all.
  std::vector<std::unique_ptr<RpcClient>> live;
  for (int i = 0; i < 3; ++i) {
    RpcClient::Options copts;
    copts.port = server_->port();
    live.push_back(std::make_unique<RpcClient>(copts));
    ASSERT_TRUE(live.back()->Ping().ok());
  }
  RawConn fourth;
  ASSERT_TRUE(fourth.Connect(server_->port()));
  EXPECT_TRUE(fourth.AtEof());  // accepted and immediately cut
  EXPECT_TRUE(Eventually([&] {
    rt::StatsSnapshot stats = runtime_->Stats();
    return stats.net_conns_accepted == 4 && stats.net_conns_reaped == 1;
  }));
  for (auto& client : live) EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(server_->num_connections(), 3u);
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
  // state: Stop marks every connection closed, so late callbacks shed.
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

std::string SubmitFrame(uint64_t request_id, const std::string& session_id,
                        Relation message) {
  SubmitRequest request;
  request.request_id = request_id;
  request.session_id = session_id;
  request.message = std::move(message);
  return EncodeFrame(MsgType::kSubmit, EncodeSubmitRequest(request));
}

TEST_F(NetServerTest, PeerClosingBeforeItsRepliesCannotKillTheServer) {
  // Each peer sends its requests and closes at once, so the server's
  // replies (pongs on the connection's loop, outcomes on a worker) meet a
  // reset socket. A write that raised SIGPIPE would end the process.
  StartAll();
  for (int round = 0; round < 20; ++round) {
    Hello hello;
    hello.role = Hello::Role::kClient;
    std::string bytes = EncodeFrame(MsgType::kHello, EncodeHello(hello));
    if (round % 2 == 0) {
      for (int i = 0; i < 64; ++i) {
        bytes += EncodeFrame(MsgType::kPing, std::string(512, 'p'));
      }
    } else {
      const std::string session = "peer" + std::to_string(round);
      bytes += SubmitFrame(1, session, Msg(round));
      bytes += SubmitFrame(2, session, Delim());
    }
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    ASSERT_TRUE(raw.Send(bytes));
    raw.Close();
  }
  EXPECT_TRUE(Eventually([&] { return server_->num_connections() == 0; }));
  runtime_->Drain();
  RpcClient client = MakeClient();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetServerTest, OutcomeForClosedConnectionNeverReachesItsFdSuccessor) {
  // A's outcome is produced after the server closed A and accepted B,
  // which most likely reuses A's fd number: the outcome must be shed,
  // not written to that fd.
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
  RawConn a;
  ASSERT_TRUE(a.Connect(server_->port()));
  ASSERT_TRUE(a.SendHello());
  ASSERT_TRUE(a.Send(SubmitFrame(1, "a", Delim())));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return arrived >= 1; });
  }
  a.Close();
  ASSERT_TRUE(Eventually([&] { return server_->num_connections() == 0; }));
  RawConn b;
  ASSERT_TRUE(b.Connect(server_->port()));
  ASSERT_TRUE(b.SendHello());
  ASSERT_TRUE(Eventually([&] { return server_->num_connections() == 1; }));
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
  runtime_->Drain();
  ASSERT_TRUE(b.Send(EncodeFrame(MsgType::kPing, "b")));
  shutdown(b.fd(), SHUT_WR);  // the server closes B after its pong
  auto frames = DecodeAll(b.DrainToEof());
  ASSERT_EQ(frames.size(), 1u) << "b received a foreign frame";
  EXPECT_EQ(frames[0].first, MsgType::kPong);
  EXPECT_EQ(frames[0].second, "b");
  EXPECT_GT(runtime_->Stats().net_bytes_shed, 0u);
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

TEST_F(NetServerTest, AcceptsRacingStopLeakNoFds) {
  // A peer dials in a loop while Stop runs, so accepts and hand-offs to
  // the other loops race the loops' shutdown. No accepted fd may be left
  // open: not one handed to a loop that already stopped, nor one adopted
  // by a loop's last queue drain.
  StartAll();
  server_->Stop();
  const int baseline = OpenFdCount();
  ASSERT_GT(baseline, 0);
  for (int round = 0; round < 20; ++round) {
    RpcServer server(runtime_.get(), RpcServer::Options{});
    ASSERT_TRUE(server.Start().ok());
    const uint16_t port = server.port();
    std::atomic<bool> done{false};
    std::atomic<int> dialed{0};
    std::thread dialer([&] {
      while (!done.load()) {
        RawConn raw;
        if (raw.Connect(port)) dialed.fetch_add(1);
      }
    });
    while (dialed.load() < 8) std::this_thread::yield();
    server.Stop();
    done = true;
    dialer.join();
    EXPECT_EQ(server.num_connections(), 0u);
  }
  EXPECT_EQ(OpenFdCount(), baseline);
}

// ---------------------------------------------------------------------------
// Replication wire format.

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

// One fully populated message of each kind, framed, byte for byte: the
// 17-byte header (magic, type kShipment + kind, payload length, header
// CRC, payload CRC), then the payload — strings as u32 length + bytes,
// integers as little-endian u64, flags as one byte. Peers of different
// builds agree only while these hold.
TEST(ReplicationWireTest, FramesArePinned) {
  replication::Shipment shipment;
  shipment.from = "n1";
  shipment.to = "n2";
  shipment.source_incarnation = 3;
  shipment.link_seq = 0x0102030405060708ull;
  shipment.first_unacked = 9;
  shipment.epoch = 2;
  shipment.shard = (1ull << 40) + 1;
  shipment.segment_n = 5;
  shipment.session_id = "s-off-the-wire";
  shipment.snapshot = true;
  shipment.frame = std::string("\x00\x01journal\xff", 10);
  const std::pair<replication::Message, std::string> cases[] = {
      {shipment,
       "5357534e" "20" "4b000000" "ccfb8e58" "e6701b81"  // header
       "02000000" "6e31"                                  // from
       "02000000" "6e32"                                  // to
       "0300000000000000"                                 // source_incarnation
       "0807060504030201"                                 // link_seq
       "0900000000000000"                                 // first_unacked
       "0200000000000000"                                 // epoch
       "0100000000010000"                                 // shard
       "0500000000000000"                                 // segment_n
       "01"                                               // snapshot
       "0a000000" "00016a6f75726e616cff"},                // frame
      {replication::Ack{"n2", "n1", 3, 17, 2},
       "5357534e" "21" "24000000" "2935ab06" "190168cc"
       "02000000" "6e32"
       "02000000" "6e31"
       "0300000000000000"   // source_incarnation
       "1100000000000000"   // acked_link_seq
       "0200000000000000"},  // epoch
      {replication::Heartbeat{"n1", "n2", 7, 2},
       "5357534e" "22" "1c000000" "b79f9474" "e3506123"
       "02000000" "6e31"
       "02000000" "6e32"
       "0700000000000000"   // incarnation
       "0200000000000000"},  // epoch
      {replication::VoteRequest{"n1", "n2", 4, "n3"},
       "5357534e" "23" "1a000000" "dbe99f6c" "bc98d5d7"
       "02000000" "6e31"
       "02000000" "6e32"
       "0400000000000000"  // epoch
       "02000000" "6e33"},  // suspect
      {replication::VoteGrant{"n2", "n1", 4, true},
       "5357534e" "24" "15000000" "9d25dc86" "dd8f47e6"
       "02000000" "6e32"
       "02000000" "6e31"
       "0400000000000000"  // epoch
       "01"},               // granted
      {replication::CatchupRequest{"n1", "n2", 2},
       "5357534e" "25" "14000000" "486b0003" "53f326c5"
       "02000000" "6e31"
       "02000000" "6e32"
       "0200000000000000"},  // epoch
  };
  for (const auto& [message, hex] : cases) {
    const std::string bytes = EncodeReplication(message);
    EXPECT_EQ(Hex(bytes), hex) << "kind " << message.index();
    // And the pinned bytes decode back to the same message.
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(bytes));
    Frame frame;
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
    const std::optional<replication::Message> decoded =
        DecodeReplication(frame);
    ASSERT_TRUE(decoded.has_value()) << "kind " << message.index();
    EXPECT_EQ(EncodeReplication(*decoded), bytes);
  }
}

// ---------------------------------------------------------------------------
// SocketTransport: replication verbs over real sockets.

/// Records every delivery; thread-safe (deliveries come off the
/// transport's loop thread).
class RecordingEndpoint : public replication::ReplicationEndpoint {
 public:
  void OnMessage(const replication::Message& message) override {
    std::lock_guard<std::mutex> lock(mu_);
    messages.push_back(message);
    if (const auto* beat = std::get_if<replication::Heartbeat>(&message)) {
      heartbeats.push_back(*beat);
    }
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
  std::vector<replication::Message> messages;
  std::vector<replication::Heartbeat> heartbeats;

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
  shipment.from = "A";
  shipment.to = "B";
  shipment.source_incarnation = 3;
  shipment.link_seq = 17;
  shipment.first_unacked = 9;
  shipment.epoch = 2;
  shipment.shard = 1;
  shipment.segment_n = 5;
  shipment.snapshot = true;
  shipment.frame = std::string("\x00\x01garbled\xff journal bytes", 23);
  // One message of each kind. All but the ack travel A→B on one FIFO
  // connection, so B receives them in send order.
  const std::vector<replication::Message> to_b = {
      shipment,
      replication::Heartbeat{"A", "B", 7, 2},
      replication::VoteRequest{"A", "B", 4, "C"},
      replication::VoteGrant{"A", "B", 4, true},
      replication::CatchupRequest{"A", "B", 2},
  };
  const replication::Message ack = replication::Ack{"B", "A", 3, 17, 2};
  for (const replication::Message& message : to_b) transport.Send(message);
  transport.Send(ack);

  ASSERT_TRUE(b.WaitFor([&] { return b.messages.size() == to_b.size(); }));
  ASSERT_TRUE(a.WaitFor([&] { return a.messages.size() == 1; }));
  {
    std::lock_guard<std::mutex> lock(b.mu_);
    const auto& got = std::get<replication::Shipment>(b.messages[0]);
    EXPECT_EQ(got.from, "A");
    EXPECT_EQ(got.to, "B");
    EXPECT_EQ(got.source_incarnation, 3u);
    EXPECT_EQ(got.link_seq, 17u);
    EXPECT_EQ(got.first_unacked, 9u);
    EXPECT_EQ(got.epoch, 2u);
    EXPECT_EQ(got.shard, 1u);
    EXPECT_EQ(got.segment_n, 5u);
    EXPECT_TRUE(got.snapshot);
    EXPECT_EQ(got.frame, shipment.frame);  // byte-exact, CRC included
    EXPECT_EQ(std::get<replication::VoteRequest>(b.messages[2]).suspect, "C");
    EXPECT_TRUE(std::get<replication::VoteGrant>(b.messages[3]).granted);
    // Every kind arrives field for field: what B received frames to the
    // bytes A sent.
    for (size_t i = 0; i < to_b.size(); ++i) {
      EXPECT_EQ(EncodeReplication(b.messages[i]), EncodeReplication(to_b[i]))
          << "kind " << to_b[i].index();
    }
  }
  {
    std::lock_guard<std::mutex> lock(a.mu_);
    const auto& got = std::get<replication::Ack>(a.messages[0]);
    EXPECT_EQ(got.from, "B");
    EXPECT_EQ(got.acked_link_seq, 17u);
    EXPECT_EQ(EncodeReplication(a.messages[0]), EncodeReplication(ack));
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
  transport.Send(Heartbeat{"A", "B", 1, 1});
  ASSERT_TRUE(b.WaitFor([&] { return !b.heartbeats.empty(); }));

  transport.Partition("A", "B");
  const uint64_t dropped_before = transport.dropped();
  for (int i = 0; i < 5; ++i) transport.Send(Heartbeat{"A", "B", 1, 1});
  EXPECT_TRUE(b.WaitFor([&] { return transport.dropped() >= dropped_before + 5; }));
  const size_t during = b.HeartbeatCount();
  // Reverse direction stays up: partitions are ordered pairs.
  transport.Send(Heartbeat{"B", "A", 1, 1});
  ASSERT_TRUE(a.WaitFor([&] { return !a.heartbeats.empty(); }));
  EXPECT_EQ(b.HeartbeatCount(), during);

  transport.Heal("A", "B");
  transport.Send(Heartbeat{"A", "B", 1, 1});
  ASSERT_TRUE(b.WaitFor([&] { return b.heartbeats.size() > during; }));

  transport.Isolate("B");
  const size_t before_isolate = b.HeartbeatCount();
  for (int i = 0; i < 5; ++i) transport.Send(Heartbeat{"A", "B", 1, 1});
  transport.Rejoin("B");
  transport.Send(Heartbeat{"A", "B", 1, 1});
  ASSERT_TRUE(b.WaitFor([&] { return b.heartbeats.size() > before_isolate; }));
  transport.Unbind("A");
  transport.Unbind("B");
}

TEST(SocketTransportTest, SeverHealsTransparently) {
  SocketTransport transport;
  RecordingEndpoint a, b;
  transport.Bind("A", &a);
  transport.Bind("B", &b);
  transport.Send(Heartbeat{"A", "B", 1, 1});
  ASSERT_TRUE(b.WaitFor([&] { return b.heartbeats.size() >= 1; }));
  // Kill every socket with no block installed: the next send must
  // re-dial and deliver without any outside help.
  transport.SeverAll();
  EXPECT_GE(transport.severed(), 1u);
  ASSERT_TRUE(b.WaitFor([&] {
    transport.Send(Heartbeat{"A", "B", 1, 1});
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
    transport.Send(Heartbeat{"A", "B", static_cast<uint64_t>(i), 1});
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
    transport.Send(Heartbeat{"A", "B", 1, 1});
    ASSERT_TRUE(b1.WaitFor([&] { return b1.heartbeats.size() >= 1; }));
    // After Unbind returns, the endpoint must never be called again —
    // destroying it (scope exit) is safe even with sends still flowing.
    transport.Unbind("B");
    for (int i = 0; i < 5; ++i) transport.Send(Heartbeat{"A", "B", 1, 1});
  }
  RecordingEndpoint b2;
  transport.Bind("B", &b2);  // fresh ephemeral port
  ASSERT_TRUE(b2.WaitFor([&] {
    transport.Send(Heartbeat{"A", "B", 2, 2});
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
    transport.Send(Heartbeat{"A", "B", 1, 1});
    ASSERT_TRUE(b.WaitFor([&] { return b.heartbeats.size() >= 1; }));
    transport.Unbind("A");
    transport.Unbind("B");
  }
  EXPECT_EQ(OpenFdCount(), baseline);
}

}  // namespace
}  // namespace sws::net
