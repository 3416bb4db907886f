// Fuzz harness for the persistence serde decoders, the wire-frame
// decoder and the socket payload decoders. One entry point, FuzzOne,
// drives every byte-level decoder (values through full service
// definitions, the incremental TCP frame decoder, the replication
// message and the RPC payloads) from attacker-controlled bytes and
// enforces the decoder contract: malformed input is rejected cleanly
// (no crash, no UB, no giant allocation), and anything that decodes
// re-encodes to a stable normal form (encode∘decode is idempotent).
//
// Two build modes share this file:
//  * default (gtest): a deterministic corpus is swept through FuzzOne —
//    every truncation, single-byte mutations, crafted count overflows,
//    seeded random blobs — plus file-level journal-segment checks
//    (truncation at every offset, single-bit CRC flips). This runs in
//    the ordinary test suite, no fuzzer runtime needed.
//  * -DSWS_FUZZ_STANDALONE (clang, -fsanitize=fuzzer): the same FuzzOne
//    becomes LLVMFuzzerTestOneInput for open-ended libFuzzer runs.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "logic/cq.h"
#include "logic/fo.h"
#include "net/messages.h"
#include "net/wire.h"
#include "persistence/serde.h"
#include "relational/relation.h"
#include "sws/query.h"
#include "sws/sws.h"
#include "util/common.h"

namespace sws::persistence {
namespace {

// Decode from `body`; when the decode accepts, its re-encoding must
// decode again and re-encode to the identical bytes. A decoder that
// crashes, loops or breaks this normal-form property is the bug class
// this harness exists to catch.
template <typename DecodeFn, typename EncodeFn>
void FuzzDecoder(std::string_view body, DecodeFn decode, EncodeFn encode) {
  ByteReader reader(body);
  auto decoded = decode(&reader);
  if (!decoded.has_value() || !reader.ok()) return;  // rejected cleanly
  ByteWriter first;
  encode(*decoded, &first);
  ByteReader reread(first.str());
  auto redecoded = decode(&reread);
  SWS_CHECK(redecoded.has_value() && reread.ok() && reread.AtEnd())
      << "re-encoding of an accepted input failed to decode";
  ByteWriter second;
  encode(*redecoded, &second);
  SWS_CHECK(first.str() == second.str())
      << "encode\xE2\x88\x98" "decode is not idempotent";
}

// Drives the incremental wire-frame decoder (net/wire.h) from
// attacker-controlled bytes. The first body byte picks the feed chunk
// size so the same stream is replayed under different socket-read
// segmentations. The contract checked is totality plus the no-resync
// latch: every frame that decodes must re-encode byte-identically; the
// first malformed byte latches a typed error; and after the latch Feed
// refuses further input and Next returns the same error forever — the
// decoder never hunts for a plausible magic inside hostile bytes.
void FuzzWireDecoder(std::string_view body) {
  if (body.empty()) return;
  const size_t chunk = 1 + static_cast<uint8_t>(body[0]) % 64;
  body.remove_prefix(1);
  // A small payload cap keeps the sweep's allocations bounded while
  // still exercising the oversize rejection path from hostile lengths.
  net::FrameDecoder decoder(
      net::FrameDecoder::Options{.max_payload = 1u << 16});
  bool dead = false;
  for (size_t off = 0; off < body.size() && !dead;) {
    const size_t n = std::min(chunk, body.size() - off);
    if (!decoder.Feed(body.substr(off, n))) {
      SWS_CHECK(decoder.error() != net::WireError::kNone);
      dead = true;
      break;
    }
    off += n;
    net::Frame frame;
    for (;;) {
      const auto result = decoder.Next(&frame);
      if (result == net::FrameDecoder::Result::kNeedMore) break;
      if (result == net::FrameDecoder::Result::kError) {
        SWS_CHECK(decoder.error() != net::WireError::kNone);
        dead = true;
        break;
      }
      // An accepted frame must survive the encode∘decode normal form.
      const std::string bytes = net::EncodeFrame(frame.type, frame.payload);
      net::FrameDecoder redecode;
      SWS_CHECK(redecode.Feed(bytes));
      net::Frame again;
      SWS_CHECK(redecode.Next(&again) == net::FrameDecoder::Result::kFrame)
          << "re-encoding of an accepted frame failed to decode";
      SWS_CHECK(again.type == frame.type && again.payload == frame.payload)
          << "frame encode\xE2\x88\x98" "decode is not idempotent";
    }
  }
  if (dead) {
    // The latch: no resync, no acceptance of later bytes — even a
    // pristine frame after the error must be refused.
    SWS_CHECK(!decoder.Feed(net::EncodeFrame(net::MsgType::kPing, "x")));
    net::Frame frame;
    SWS_CHECK(decoder.Next(&frame) == net::FrameDecoder::Result::kError);
    SWS_CHECK(decoder.rejected() >= 1);
  }
}

// The socket payload decoders (net/messages.h) take a payload whole;
// same contract. Returns whether `body` decoded.
template <typename DecodeFn, typename EncodeFn>
bool FuzzPayload(std::string_view body, DecodeFn decode, EncodeFn encode) {
  const auto decoded = decode(body);
  if (!decoded.has_value()) return false;  // rejected cleanly
  const std::string first = encode(*decoded);
  const auto redecoded = decode(first);
  SWS_CHECK(redecoded.has_value())
      << "re-encoding of an accepted payload failed to decode";
  SWS_CHECK(encode(*redecoded) == first)
      << "payload encode\xE2\x88\x98" "decode is not idempotent";
  return true;
}

// The replication codec works on frames: as a payload here, a message is
// its frame type byte followed by the frame's payload. The type byte may
// be anything, RPC types included, which the decoder must refuse.
std::optional<replication::Message> DecodeTypedReplication(
    std::string_view body) {
  if (body.empty()) return std::nullopt;
  return net::DecodeReplication(
      net::Frame{static_cast<net::MsgType>(body[0]), body.substr(1)});
}

std::string EncodeTypedReplication(const replication::Message& message) {
  const std::string bytes = net::EncodeReplication(message);
  net::FrameDecoder decoder;
  net::Frame frame;
  SWS_CHECK(decoder.Feed(bytes) &&
            decoder.Next(&frame) == net::FrameDecoder::Result::kFrame)
      << "EncodeReplication produced no valid frame";
  return std::string(1, static_cast<char>(frame.type)) +
         std::string(frame.payload);
}

// FuzzOne's dispatch byte, modulo kDecoders: 0-7 the serde decoders, 8
// the frame decoder, kFirstPayload (9) the replication message, 10-17
// the RPC payloads.
constexpr uint8_t kDecoders = 18;
constexpr uint8_t kFirstPayload = 9;

bool FuzzSocketPayload(uint8_t dispatch, std::string_view body) {
  switch (dispatch) {
    case 9:
      return FuzzPayload(body, DecodeTypedReplication, EncodeTypedReplication);
    case 10:
      return FuzzPayload(body, net::DecodeHello, net::EncodeHello);
    case 11:
      return FuzzPayload(body, net::DecodeSubmitRequest,
                         net::EncodeSubmitRequest);
    case 12:
      return FuzzPayload(body, net::DecodeSubmitAck, net::EncodeSubmitAck);
    case 13:
      return FuzzPayload(body, net::DecodeErrorReply, net::EncodeErrorReply);
    case 14:
      return FuzzPayload(body, net::DecodeOutcomeReply,
                         net::EncodeOutcomeReply);
    case 15:
      return FuzzPayload(body, net::DecodeStatsReply, net::EncodeStatsReply);
    case 16:
      return FuzzPayload(body, net::DecodeInspectRequest,
                         net::EncodeInspectRequest);
    case 17:
      return FuzzPayload(body, net::DecodeInspectReply,
                         net::EncodeInspectReply);
  }
  SWS_CHECK(false) << "no payload decoder at dispatch " << int{dispatch};
  return false;
}

int FuzzOne(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const std::string_view body(reinterpret_cast<const char*>(data) + 1,
                              size - 1);
  const uint8_t dispatch = data[0] % kDecoders;
  if (dispatch >= kFirstPayload) {
    FuzzSocketPayload(dispatch, body);
    return 0;
  }
  switch (dispatch) {
    case 0:
      FuzzDecoder(body, [](ByteReader* r) { return DecodeValue(r); },
                  [](const rel::Value& v, ByteWriter* w) { EncodeValue(v, w); });
      break;
    case 1:
      FuzzDecoder(body, [](ByteReader* r) { return DecodeTuple(r); },
                  [](const rel::Tuple& t, ByteWriter* w) { EncodeTuple(t, w); });
      break;
    case 2:
      FuzzDecoder(
          body, [](ByteReader* r) { return DecodeRelation(r); },
          [](const rel::Relation& rel, ByteWriter* w) { EncodeRelation(rel, w); });
      break;
    case 3:
      FuzzDecoder(
          body, [](ByteReader* r) { return DecodeDatabase(r); },
          [](const rel::Database& db, ByteWriter* w) { EncodeDatabase(db, w); });
      break;
    case 4:
      FuzzDecoder(body, [](ByteReader* r) { return DecodeInputSequence(r); },
                  [](const rel::InputSequence& seq, ByteWriter* w) {
                    EncodeInputSequence(seq, w);
                  });
      break;
    case 5:
      FuzzDecoder(body, [](ByteReader* r) { return DecodeSchema(r); },
                  [](const rel::Schema& schema, ByteWriter* w) {
                    EncodeSchema(schema, w);
                  });
      break;
    case 6:
      FuzzDecoder(body, [](ByteReader* r) { return DecodeRelQuery(r); },
                  [](const core::RelQuery& q, ByteWriter* w) {
                    EncodeRelQuery(q, w);
                  });
      break;
    case 7:
      FuzzDecoder(body, [](ByteReader* r) { return DecodeSws(r); },
                  [](const core::Sws& sws, ByteWriter* w) { EncodeSws(sws, w); });
      break;
    case 8:
      FuzzWireDecoder(body);
      break;
  }
  return 0;
}

}  // namespace
}  // namespace sws::persistence

#ifdef SWS_FUZZ_STANDALONE

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return sws::persistence::FuzzOne(data, size);
}

#else  // deterministic-corpus mode (gtest)

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>

#include "persistence/durability.h"
#include "persistence/journal.h"

namespace sws::persistence {
namespace {

using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;
using rel::Relation;
using rel::Value;

// One valid encoding per socket payload decoder, each prefixed with its
// FuzzOne dispatch byte: every replication kind, then every RPC payload.
std::vector<std::string> BuildPayloadCorpus() {
  std::vector<std::string> corpus;
  auto add = [&corpus](uint8_t dispatch, const std::string& payload) {
    corpus.push_back(std::string(1, static_cast<char>(dispatch)) + payload);
  };
  replication::Shipment shipment;
  shipment.from = "n1";
  shipment.to = "n2";
  shipment.source_incarnation = 3;
  shipment.link_seq = 17;
  shipment.first_unacked = 9;
  shipment.epoch = 2;
  shipment.shard = 1;
  shipment.segment_n = 5;
  shipment.snapshot = true;
  shipment.frame = std::string("\x00\x01journal\xff", 10);
  const replication::Message messages[] = {
      shipment,
      replication::Ack{"n2", "n1", 3, 17, 2},
      replication::Heartbeat{"n1", "n2", 7, 2},
      replication::VoteRequest{"n1", "n2", 4, "n3"},
      replication::VoteGrant{"n2", "n1", 4, true},
      replication::CatchupRequest{"n1", "n2", 2},
  };
  for (const replication::Message& message : messages) {
    add(kFirstPayload, EncodeTypedReplication(message));
  }
  Relation message(2);
  message.Insert({Value::Int(7), Value::Str("orlando")});
  add(10, net::EncodeHello(
              {net::Hello::Role::kReplication, "n1", net::kProtocolVersion}));
  add(11, net::EncodeSubmitRequest({42, "s1", 2, -5, message}));
  add(12, net::EncodeSubmitAck({42}));
  add(13, net::EncodeErrorReply({42, 3, "overloaded"}));
  add(14, net::EncodeOutcomeReply({42, "s1", 0, "", 2, true, message}));
  add(15, net::EncodeStatsReply({"{\"submitted\":1}"}));
  add(16, net::EncodeInspectRequest({"s1"}));
  add(17, net::EncodeInspectReply({"s1", 3, 8, 4}));
  return corpus;
}

// One valid encoding per decoder, each prefixed with its FuzzOne
// dispatch byte — the seed corpus the deterministic sweeps mutate.
std::vector<std::string> BuildCorpus() {
  std::vector<std::string> corpus;
  auto add = [&corpus](uint8_t dispatch, const ByteWriter& w) {
    std::string blob(1, static_cast<char>(dispatch));
    blob += w.str();
    corpus.push_back(std::move(blob));
  };

  for (const Value& v :
       {Value::Int(-42), Value::Str("hello\0world"), Value::Null(3)}) {
    ByteWriter w;
    EncodeValue(v, &w);
    add(0, w);
  }
  {
    ByteWriter w;
    EncodeTuple({Value::Int(1), Value::Str("x"), Value::Null(0)}, &w);
    add(1, w);
  }
  Relation edges(2);
  edges.Insert({Value::Int(1), Value::Int(2)});
  edges.Insert({Value::Int(2), Value::Str("three")});
  {
    ByteWriter w;
    EncodeRelation(edges, &w);
    add(2, w);
  }
  {
    rel::Database db;
    db.Set("E", edges);
    Relation log(1);
    log.Insert({Value::Str("entry")});
    db.Set("Log", log);
    ByteWriter w;
    EncodeDatabase(db, &w);
    add(3, w);
  }
  {
    Relation m1(1), m2(1);
    m1.Insert({Value::Int(7)});
    m2.Insert({Value::Int(8)});
    rel::InputSequence seq(1, {m1, m2});
    ByteWriter w;
    EncodeInputSequence(seq, &w);
    add(4, w);
  }
  {
    rel::Schema schema;
    schema.Add(rel::RelationSchema("E", {"src", "dst"}));
    schema.Add(rel::RelationSchema("Log", {"x"}));
    ByteWriter w;
    EncodeSchema(schema, &w);
    add(5, w);
  }
  {
    ConjunctiveQuery cq({Term::Var(0), Term::Str("tag")},
                        {Atom{"E", {Term::Var(0), Term::Var(1)}}});
    ByteWriter w;
    EncodeRelQuery(core::RelQuery::Cq(cq), &w);
    add(6, w);
  }
  {
    logic::FoFormula atom =
        logic::FoFormula::MakeAtom("E", {Term::Var(0), Term::Var(1)});
    logic::FoFormula body = logic::FoFormula::Forall(
        0, logic::FoFormula::Forall(
               1, logic::FoFormula::Or(atom, logic::FoFormula::Not(atom))));
    ByteWriter w;
    EncodeRelQuery(
        core::RelQuery::Fo(logic::FoQuery({Term::Int(1)}, std::move(body))), &w);
    add(6, w);
  }
  {
    rel::Schema schema;
    schema.Add(rel::RelationSchema("Log", {"x"}));
    core::Sws sws(schema, 1, 3);
    int q0 = sws.AddState("q0");
    int q1 = sws.AddState("q1");
    ConjunctiveQuery pass({Term::Var(0)},
                          {Atom{core::kInputRelation, {Term::Var(0)}}});
    sws.SetTransition(q0,
                      {core::TransitionTarget{q1, core::RelQuery::Cq(pass)}});
    ConjunctiveQuery copy_up({Term::Var(0), Term::Var(1), Term::Var(2)},
                             {Atom{core::ActRelation(1),
                                   {Term::Var(0), Term::Var(1), Term::Var(2)}}});
    sws.SetSynthesis(q0, core::RelQuery::Cq(copy_up));
    sws.SetTransition(q1, {});
    ConjunctiveQuery log_msg({Term::Str("ins"), Term::Str("Log"), Term::Var(0)},
                             {Atom{core::kMsgRelation, {Term::Var(0)}}});
    sws.SetSynthesis(q1, core::RelQuery::Cq(log_msg));
    SWS_CHECK(!sws.Validate().has_value());
    ByteWriter w;
    EncodeSws(sws, &w);
    add(7, w);
  }
  // Wire-frame streams (dispatch 8 routes through FuzzWireDecoder; its
  // first body byte picks the feed chunk size, so the same stream is
  // swept under byte-at-a-time, mid-size, and large-read segmentation).
  std::string frames = net::EncodeFrame(net::MsgType::kPing, "ping me");
  frames += net::EncodeFrame(net::MsgType::kSubmit, std::string(96, 'x'));
  frames += net::EncodeFrame(net::MsgType::kHeartbeat, {});
  frames += net::EncodeFrame(net::MsgType::kOutcome, "final outcome\0!");
  for (uint8_t chunk_byte : {0x00, 0x06, 0x3F}) {
    std::string blob;
    blob.push_back(8);
    blob.push_back(static_cast<char>(chunk_byte));
    blob += frames;
    corpus.push_back(std::move(blob));
  }
  for (std::string& blob : BuildPayloadCorpus()) {
    corpus.push_back(std::move(blob));
  }
  return corpus;
}

void Fuzz(const std::string& blob) {
  FuzzOne(reinterpret_cast<const uint8_t*>(blob.data()), blob.size());
}

// Builds a raw 17-byte wire header with magic/type/len/payload-CRC
// attacker-chosen — combinations EncodeFrame can never produce but a
// hostile peer can. The header CRC is computed honestly (a hostile peer
// controls it too), so the semantic checks behind it are what's probed.
std::string WireHeader(uint32_t magic, uint8_t type, uint32_t len,
                       uint32_t payload_crc) {
  std::string h;
  auto put32 = [&h](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put32(magic);
  h.push_back(static_cast<char>(type));
  put32(len);
  put32(Crc32({h.data(), net::kFrameHeaderCrcSpan}));
  put32(payload_crc);
  return h;
}

// Routes `stream` through FuzzOne's wire dispatch with a chosen feed
// chunk size.
void FuzzWire(std::string_view stream, uint8_t chunk_byte) {
  std::string blob;
  blob.push_back(8);
  blob.push_back(static_cast<char>(chunk_byte));
  blob.append(stream);
  Fuzz(blob);
}

TEST(SerdeFuzzTest, CorpusDecodesAndRoundTrips) {
  for (const std::string& blob : BuildCorpus()) {
    // The corpus entries are valid encodings, so each must take the
    // round-trip branch of FuzzDecoder; reaching here means the
    // normal-form SWS_CHECKs held.
    Fuzz(blob);
    const uint8_t dispatch = static_cast<uint8_t>(blob[0]) % kDecoders;
    // Payload entries: WirePayloadCorpusDecodesAndRoundTrips checks them.
    if (dispatch >= kFirstPayload) continue;
    if (dispatch == 8) {
      // Wire entries: a chunk-size byte then whole frames, every one of
      // which must decode (the error latch must never trip on them).
      net::FrameDecoder decoder;
      ASSERT_TRUE(decoder.Feed(std::string_view(blob).substr(2)));
      net::Frame frame;
      int frames = 0;
      while (decoder.Next(&frame) == net::FrameDecoder::Result::kFrame) {
        ++frames;
      }
      EXPECT_EQ(decoder.error(), net::WireError::kNone);
      EXPECT_EQ(decoder.buffered(), 0u);
      EXPECT_GT(frames, 1);
      continue;
    }
    ByteReader reader(std::string_view(blob).substr(1));
    switch (dispatch) {
      case 0: EXPECT_TRUE(DecodeValue(&reader).has_value()); break;
      case 1: EXPECT_TRUE(DecodeTuple(&reader).has_value()); break;
      case 2: EXPECT_TRUE(DecodeRelation(&reader).has_value()); break;
      case 3: EXPECT_TRUE(DecodeDatabase(&reader).has_value()); break;
      case 4: EXPECT_TRUE(DecodeInputSequence(&reader).has_value()); break;
      case 5: EXPECT_TRUE(DecodeSchema(&reader).has_value()); break;
      case 6: EXPECT_TRUE(DecodeRelQuery(&reader).has_value()); break;
      case 7: EXPECT_TRUE(DecodeSws(&reader).has_value()); break;
    }
    EXPECT_TRUE(reader.ok());
  }
}

TEST(SerdeFuzzTest, EveryTruncationIsHandledCleanly) {
  for (const std::string& blob : BuildCorpus()) {
    for (size_t len = 0; len < blob.size(); ++len) {
      Fuzz(blob.substr(0, len));
    }
  }
}

TEST(SerdeFuzzTest, SingleByteMutationsAreHandledCleanly) {
  for (const std::string& blob : BuildCorpus()) {
    for (size_t i = 0; i < blob.size(); ++i) {
      for (uint8_t mask : {0x01, 0x80, 0xFF}) {
        std::string mutated = blob;
        mutated[i] = static_cast<char>(mutated[i] ^ mask);
        Fuzz(mutated);
      }
    }
  }
}

TEST(SerdeFuzzTest, CountOverflowIsRejectedBeforeAllocating) {
  {
    // A relation claiming 2^32-1 tuples in a few bytes: CheckCount must
    // reject before the tuple vector reserves anything.
    ByteWriter w;
    w.PutU32(2);
    w.PutU32(0xFFFFFFFFu);
    ByteReader r(w.str());
    EXPECT_FALSE(DecodeRelation(&r).has_value());
    EXPECT_FALSE(r.ok());
  }
  {
    // Arity above the hard cap is rejected outright.
    ByteWriter w;
    w.PutU32((1u << 20) + 1);
    w.PutU32(0);
    ByteReader r(w.str());
    EXPECT_FALSE(DecodeRelation(&r).has_value());
  }
  {
    ByteWriter w;
    w.PutU32(0xFFFFFFFFu);  // database relation count
    ByteReader r(w.str());
    EXPECT_FALSE(DecodeDatabase(&r).has_value());
    EXPECT_FALSE(r.ok());
  }
  {
    ByteWriter w;
    w.PutU32(1);
    w.PutU32(0xFFFFFFFFu);  // input-sequence message count
    ByteReader r(w.str());
    EXPECT_FALSE(DecodeInputSequence(&r).has_value());
    EXPECT_FALSE(r.ok());
  }
  {
    ByteWriter w;
    w.PutU32(0xFFFFFFFFu);  // schema relation count
    ByteReader r(w.str());
    EXPECT_FALSE(DecodeSchema(&r).has_value());
    EXPECT_FALSE(r.ok());
  }
  {
    ByteWriter w;
    w.PutU32(0xFFFFFFFFu);  // tuple width
    ByteReader r(w.str());
    EXPECT_FALSE(DecodeTuple(&r).has_value());
    EXPECT_FALSE(r.ok());
  }
}

TEST(SerdeFuzzTest, SeededRandomBlobsAreHandledCleanly) {
  // A tiny deterministic generator (not std::mt19937 to keep the draw
  // sequence stable across standard libraries).
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() -> uint8_t {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint8_t>(state >> 33);
  };
  std::vector<uint8_t> blob;
  for (int iter = 0; iter < 4000; ++iter) {
    blob.assign(1 + next() % 255, 0);
    for (uint8_t& b : blob) b = next();
    FuzzOne(blob.data(), blob.size());
  }
}

TEST(SerdeFuzzTest, WirePayloadCorpusDecodesAndRoundTrips) {
  // Every socket payload decoder accepts its valid encoding (and the
  // round trip's SWS_CHECKs hold on it).
  const std::vector<std::string> corpus = BuildPayloadCorpus();
  std::vector<int> accepted(kDecoders, 0);
  for (const std::string& blob : corpus) {
    const uint8_t dispatch = static_cast<uint8_t>(blob[0]);
    EXPECT_TRUE(FuzzSocketPayload(dispatch, std::string_view(blob).substr(1)))
        << "dispatch " << int{dispatch};
    ++accepted[dispatch];
  }
  EXPECT_EQ(accepted[kFirstPayload], 6);  // one message of each kind
  for (uint8_t dispatch = kFirstPayload + 1; dispatch < kDecoders; ++dispatch) {
    EXPECT_EQ(accepted[dispatch], 1) << "dispatch " << int{dispatch};
  }
}

TEST(SerdeFuzzTest, WirePayloadRandomCorruptionSweep) {
  // Multi-bit flips of the valid payloads (likely to survive the first
  // fields and die deeper in), plus random bodies at every payload
  // dispatch, each through FuzzOne's contract checks.
  uint64_t state = 0x5EEDF00DBAADC0DEull;
  auto next = [&state]() -> uint8_t {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint8_t>(state >> 33);
  };
  const std::vector<std::string> corpus = BuildPayloadCorpus();
  for (int iter = 0; iter < 6000; ++iter) {
    std::string blob = corpus[static_cast<size_t>(iter) % corpus.size()];
    const int flips = 1 + next() % 4;
    for (int i = 0; i < flips; ++i) {
      const size_t pos = 1 + next() % (blob.size() - 1);  // keep dispatch
      blob[pos] = static_cast<char>(blob[pos] ^ (1u << (next() % 8)));
    }
    Fuzz(blob);
  }
  std::string blob;
  for (int iter = 0; iter < 4000; ++iter) {
    blob.assign(2 + next() % 120, '\0');
    blob[0] = static_cast<char>(kFirstPayload +
                                iter % (kDecoders - kFirstPayload));
    // Half the replication bodies get a valid frame type byte, so the
    // random bytes reach the field decoders.
    if (blob[0] == kFirstPayload && iter % 2 == 0) {
      blob[1] = static_cast<char>(
          static_cast<uint8_t>(net::MsgType::kShipment) + next() % 6);
    } else {
      blob[1] = static_cast<char>(next());
    }
    for (size_t i = 2; i < blob.size(); ++i) {
      blob[i] = static_cast<char>(next());
    }
    Fuzz(blob);
  }
}

TEST(SerdeFuzzTest, WireHostileLengthFieldsAreRejectedBeforeAllocating) {
  using net::FrameDecoder;
  const std::string valid = net::EncodeFrame(net::MsgType::kPing, "payload");
  {
    // Zero-length frames are legal (heartbeats are header-only).
    FrameDecoder d;
    ASSERT_TRUE(d.Feed(net::EncodeFrame(net::MsgType::kHeartbeat, {})));
    net::Frame f;
    EXPECT_EQ(d.Next(&f), FrameDecoder::Result::kFrame);
    EXPECT_TRUE(f.payload.empty());
  }
  {
    // A claimed length of 2^32-1 must be rejected from the 17 header
    // bytes alone — no buffering a body that can never fit the cap.
    FrameDecoder d(FrameDecoder::Options{.max_payload = 1u << 16});
    ASSERT_TRUE(d.Feed(WireHeader(net::kWireMagic, 8, 0xFFFFFFFFu, 0)));
    net::Frame f;
    EXPECT_EQ(d.Next(&f), FrameDecoder::Result::kError);
    EXPECT_EQ(d.error(), net::WireError::kOversize);
  }
  {
    // Length corrupted after encoding (one more than the real payload):
    // the header CRC catches it immediately. Pre-header-CRC this was
    // the livelock case — the decoder sat in kNeedMore waiting for a
    // phantom byte while every later frame on the stream rotted behind
    // it.
    std::string over = valid;
    over[5] = static_cast<char>(over[5] + 1);  // LE low byte of len
    FrameDecoder d;
    ASSERT_TRUE(d.Feed(over));
    net::Frame f;
    EXPECT_EQ(d.Next(&f), FrameDecoder::Result::kError);
    EXPECT_EQ(d.error(), net::WireError::kBadHeaderCrc);
  }
  {
    // Length one less, corrupted in flight: same immediate death.
    std::string under = valid;
    under[5] = static_cast<char>(under[5] - 1);
    FrameDecoder d;
    ASSERT_TRUE(d.Feed(under));
    net::Frame f;
    EXPECT_EQ(d.Next(&f), FrameDecoder::Result::kError);
    EXPECT_EQ(d.error(), net::WireError::kBadHeaderCrc);
  }
  {
    // A hostile peer re-CRCing a shortened length field: the header is
    // self-consistent, so the payload CRC (computed over the claimed
    // span) is what exposes the lie instead of a shifted payload.
    std::string under = valid;
    under[5] = static_cast<char>(under[5] - 1);
    const uint32_t hcrc = Crc32({under.data(), net::kFrameHeaderCrcSpan});
    for (int i = 0; i < 4; ++i) {
      under[net::kFrameHeaderCrcSpan + i] =
          static_cast<char>((hcrc >> (8 * i)) & 0xFF);
    }
    FrameDecoder d;
    ASSERT_TRUE(d.Feed(under));
    net::Frame f;
    EXPECT_EQ(d.Next(&f), FrameDecoder::Result::kError);
    EXPECT_EQ(d.error(), net::WireError::kBadCrc);
  }
  // The same hostile headers through the fuzz entry point at every
  // chunk size, so segmentation can't change the verdict.
  for (int chunk = 0; chunk < 64; ++chunk) {
    for (uint32_t len : {0u, 1u, 6u, 8u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
      FuzzWire(WireHeader(net::kWireMagic, 8, len, 0) + "payload",
               static_cast<uint8_t>(chunk));
    }
  }
}

TEST(SerdeFuzzTest, WireMidStreamGarbageNeverResyncs) {
  const std::string good = net::EncodeFrame(net::MsgType::kPing, "first");
  const std::string tail = net::EncodeFrame(net::MsgType::kPing, "after");
  // Garbage followed by a pristine frame — the real magic is sitting a
  // few bytes downstream, and the decoder must not hunt for it.
  net::FrameDecoder d;
  ASSERT_TRUE(d.Feed(good + "trash" + tail));
  net::Frame f;
  ASSERT_EQ(d.Next(&f), net::FrameDecoder::Result::kFrame);
  EXPECT_EQ(f.payload, "first");
  EXPECT_EQ(d.Next(&f), net::FrameDecoder::Result::kError);
  EXPECT_EQ(d.error(), net::WireError::kBadMagic);
  // Latched: the buffered pristine frame is never delivered, repeat
  // calls return the same error, and later feeds are refused outright.
  EXPECT_EQ(d.Next(&f), net::FrameDecoder::Result::kError);
  EXPECT_FALSE(d.Feed(tail));
  EXPECT_EQ(d.Next(&f), net::FrameDecoder::Result::kError);
  EXPECT_EQ(d.error(), net::WireError::kBadMagic);
}

TEST(SerdeFuzzTest, WireRandomCorruptionSweep) {
  // 10k+ hostile wire inputs: bit-flipped mutations of a valid
  // multi-frame stream (likely to pass the magic and die deeper in the
  // header or CRC) plus pure-noise blobs, each replayed under a
  // pseudo-random feed segmentation.
  uint64_t state = 0xC0FFEE123456789Bull;
  auto next = [&state]() -> uint8_t {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint8_t>(state >> 33);
  };
  std::string stream;
  stream += net::EncodeFrame(net::MsgType::kHello, "hello");
  stream += net::EncodeFrame(net::MsgType::kSubmit, std::string(64, 's'));
  stream += net::EncodeFrame(net::MsgType::kShipment, "\x01\x02\x03");
  stream += net::EncodeFrame(net::MsgType::kHeartbeat, {});
  for (int iter = 0; iter < 6000; ++iter) {
    std::string mutated = stream;
    const int flips = 1 + next() % 4;
    for (int i = 0; i < flips; ++i) {
      mutated[next() % mutated.size()] ^=
          static_cast<char>(1u << (next() % 8));
    }
    FuzzWire(mutated, next());
  }
  std::vector<uint8_t> blob;
  for (int iter = 0; iter < 4000; ++iter) {
    blob.assign(2 + next() % 200, 0);
    blob[0] = 8;  // dispatch straight at the wire decoder
    for (size_t i = 1; i < blob.size(); ++i) blob[i] = next();
    FuzzOne(blob.data(), blob.size());
  }
}

TEST(SerdeFuzzTest, HostileBlobsNeverMintAliasingInternIds) {
  // Value decoding re-interns payload bytes through the same canonical
  // path as construction, so a decoded id can only alias a constant
  // whose payload is byte-identical. This sweep asserts that invariant
  // holds under hostile input: every accepted decode must rebuild to
  // the identical packed word, and equality with a pre-interned
  // sentinel must imply payload equality — never a bare id collision.
  const std::vector<Value> sentinels = {
      Value::Str("orlando"),      Value::Str(""),
      Value::Str({"\0", 1}),      Value::Str("orland"),
      Value::Null(0),             Value::Null(-1),
      Value::Int(42)};
  auto check_canonical = [&sentinels](const Value& v) {
    switch (v.kind()) {
      case Value::Kind::kInt:
        ASSERT_EQ(Value::Int(v.AsInt()), v);
        break;
      case Value::Kind::kString:
        ASSERT_EQ(Value::Str(v.AsString()), v);
        break;
      case Value::Kind::kNull:
        ASSERT_EQ(Value::Null(v.null_label()), v);
        break;
    }
    for (const Value& s : sentinels) {
      if (v == s) {
        ASSERT_EQ(v.kind(), s.kind());
        if (v.kind() == Value::Kind::kString) {
          ASSERT_EQ(v.AsString(), s.AsString());
        } else if (v.kind() == Value::Kind::kNull) {
          ASSERT_EQ(v.null_label(), s.null_label());
        }
      }
    }
  };
  uint64_t state = 0xDEADBEEFCAFEF00Dull;
  auto next = [&state]() -> uint8_t {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint8_t>(state >> 33);
  };
  // Pass 1: mutated encodings of the sentinels themselves — near-miss
  // payloads are the likeliest way a buggy decoder could alias an id.
  std::vector<std::string> seeds;
  for (const Value& s : sentinels) {
    ByteWriter w;
    EncodeValue(s, &w);
    seeds.push_back(w.str());
  }
  for (int iter = 0; iter < 2000; ++iter) {
    std::string blob = seeds[static_cast<size_t>(iter) % seeds.size()];
    const size_t flips = 1 + next() % 3;
    for (size_t f = 0; f < flips; ++f) {
      blob[next() % blob.size()] =
          static_cast<char>(blob[next() % blob.size()] ^ (1u << (next() % 8)));
    }
    ByteReader r(blob);
    std::optional<Value> v = DecodeValue(&r);
    if (v.has_value() && r.ok()) check_canonical(*v);
  }
  // Pass 2: unstructured random blobs decoded as tuples, so string
  // payloads of arbitrary bytes flow through the intern table.
  for (int iter = 0; iter < 2000; ++iter) {
    std::string blob(1 + next() % 64, '\0');
    for (char& b : blob) b = static_cast<char>(next());
    ByteReader r(blob);
    std::optional<rel::Tuple> t = DecodeTuple(&r);
    if (t.has_value() && r.ok()) {
      for (const Value& v : *t) check_canonical(v);
    }
  }
  // The hostile traffic must not have perturbed the sentinels.
  for (size_t i = 0; i < sentinels.size(); ++i) {
    for (size_t j = i + 1; j < sentinels.size(); ++j) {
      EXPECT_NE(sentinels[i], sentinels[j]) << i << " vs " << j;
    }
  }
}

// ---------------------------------------------------------------------
// File-level checks on the CRC32-framed journal segment format.
// ---------------------------------------------------------------------

class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/sws_serde_fuzz_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    SWS_CHECK(made != nullptr);
    path_ = made;
  }
  ~ScratchDir() {
    for (const std::string& f : files_) ::unlink(f.c_str());
    ::rmdir(path_.c_str());
  }
  std::string File(const std::string& name) {
    files_.push_back(path_ + "/" + name);
    return files_.back();
  }

 private:
  std::string path_;
  std::vector<std::string> files_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SWS_CHECK(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  SWS_CHECK(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SWS_CHECK(out.good()) << path;
}

// Writes a three-record segment and returns its bytes.
std::string WriteSampleSegment(const std::string& path) {
  JournalWriter writer(path, SegmentHeader{1, 0, 42}, nullptr);
  SWS_CHECK(writer.Open().ok());
  for (uint64_t seq = 0; seq < 3; ++seq) {
    JournalRecord record;
    record.type = seq == 2 ? JournalRecord::Type::kOutcome
                           : JournalRecord::Type::kInput;
    record.session_id = "fuzz";
    record.seq = seq;
    Relation payload(1);
    payload.Insert({Value::Int(static_cast<int64_t>(seq))});
    record.payload = payload;
    SWS_CHECK(writer.Append(record).ok());
  }
  SWS_CHECK(writer.Sync().ok());
  writer.Close();
  return ReadFileBytes(path);
}

// Smallest prefix length at which ReadSegment yields a complete,
// untorn header — i.e. the header size, discovered behaviourally so the
// test does not bake in the frame layout. (Shorter prefixes read as
// Ok-with-torn: a crash mid-header-write is a normal artifact.)
size_t ProbeHeaderSize(ScratchDir& dir, const std::string& bytes) {
  const std::string probe = dir.File("probe.bin");
  for (size_t o = 0; o <= bytes.size(); ++o) {
    WriteFileBytes(probe, std::string_view(bytes).substr(0, o));
    SegmentContents out;
    if (ReadSegment(probe, nullptr, &out).ok() && !out.torn) return o;
  }
  SWS_CHECK(false) << "full segment did not parse";
  return bytes.size();
}

TEST(SerdeFuzzTest, JournalTruncationAtEveryOffsetStopsCleanly) {
  ScratchDir dir;
  const std::string path = dir.File("segment.bin");
  const std::string bytes = WriteSampleSegment(path);

  SegmentContents base;
  ASSERT_TRUE(ReadSegment(path, nullptr, &base).ok());
  ASSERT_EQ(base.records.size(), 3u);
  ASSERT_FALSE(base.torn);

  const std::string trunc = dir.File("trunc.bin");
  size_t clean_reads = 0;
  for (size_t o = 0; o <= bytes.size(); ++o) {
    WriteFileBytes(trunc, std::string_view(bytes).substr(0, o));
    SegmentContents out;
    core::Status status = ReadSegment(trunc, nullptr, &out);
    if (!status.ok()) continue;  // header cut short: a hard error is fine
    ++clean_reads;
    // A truncated tail is a normal crash artifact: the valid prefix
    // must parse, never more records than were written, never bytes
    // beyond the file.
    EXPECT_LE(out.records.size(), 3u) << "offset " << o;
    EXPECT_LE(out.valid_bytes, o) << "offset " << o;
    if (o < bytes.size()) {
      EXPECT_TRUE(out.torn || out.records.size() < 3u) << "offset " << o;
    }
  }
  EXPECT_GT(clean_reads, 0u);
}

TEST(SerdeFuzzTest, JournalSingleBitFlipsNeverYieldPhantomRecords) {
  ScratchDir dir;
  const std::string path = dir.File("segment.bin");
  const std::string bytes = WriteSampleSegment(path);
  const size_t header_size = ProbeHeaderSize(dir, bytes);
  ASSERT_LT(header_size, bytes.size());

  const std::string flipped = dir.File("flipped.bin");
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ (1u << bit));
      WriteFileBytes(flipped, mutated);
      SegmentContents out;
      core::Status status = ReadSegment(flipped, nullptr, &out);
      // Header flips are out of scope here: magic/version flips hard-
      // error, and the identity fields (incarnation/shard/fingerprint)
      // are validated by RecoveryManager, not ReadSegment.
      if (i < header_size) continue;
      // CRC32 detects every single-bit flip inside a record frame: the
      // flipped record (and everything after it) must be dropped as a
      // torn tail, never surfaced as data.
      EXPECT_TRUE(!status.ok() || out.records.size() < 3u)
          << "bit " << bit << " at offset " << i << " went undetected";
    }
  }
}

}  // namespace
}  // namespace sws::persistence

#endif  // SWS_FUZZ_STANDALONE
