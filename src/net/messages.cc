#include "net/messages.h"

#include <type_traits>
#include <utility>
#include <variant>

#include "persistence/serde.h"

namespace sws::net {

using persistence::ByteReader;
using persistence::ByteWriter;

namespace {

/// Shared epilogue of every decoder: a message is valid only when the
/// reader never failed *and* consumed the whole payload (trailing bytes
/// mean a framing confusion — reject, do not guess).
bool Done(const ByteReader& r) { return r.ok() && r.AtEnd(); }

}  // namespace

std::string EncodeHello(const Hello& hello) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(hello.role));
  w.PutString(hello.source);
  w.PutU32(hello.protocol_version);
  return w.Take();
}

std::optional<Hello> DecodeHello(std::string_view payload) {
  ByteReader r(payload);
  Hello hello;
  uint8_t role = r.GetU8();
  if (role > static_cast<uint8_t>(Hello::Role::kReplication)) return std::nullopt;
  hello.role = static_cast<Hello::Role>(role);
  hello.source = r.GetString();
  hello.protocol_version = r.GetU32();
  if (!Done(r)) return std::nullopt;
  return hello;
}

std::string EncodeSubmitRequest(const SubmitRequest& request) {
  ByteWriter w;
  w.PutU64(request.request_id);
  w.PutString(request.session_id);
  w.PutU8(request.priority);
  w.PutI64(request.deadline_ns);
  persistence::EncodeRelation(request.message, &w);
  return w.Take();
}

std::optional<SubmitRequest> DecodeSubmitRequest(std::string_view payload) {
  ByteReader r(payload);
  SubmitRequest request;
  request.request_id = r.GetU64();
  request.session_id = r.GetString();
  request.priority = r.GetU8();
  if (request.priority > 2) return std::nullopt;  // rt::Priority::kLow
  request.deadline_ns = r.GetI64();
  auto message = persistence::DecodeRelation(&r);
  if (!message || !Done(r)) return std::nullopt;
  request.message = std::move(*message);
  return request;
}

std::string EncodeSubmitAck(const SubmitAck& ack) {
  ByteWriter w;
  w.PutU64(ack.request_id);
  return w.Take();
}

std::optional<SubmitAck> DecodeSubmitAck(std::string_view payload) {
  ByteReader r(payload);
  SubmitAck ack;
  ack.request_id = r.GetU64();
  if (!Done(r)) return std::nullopt;
  return ack;
}

std::string EncodeErrorReply(const ErrorReply& error) {
  ByteWriter w;
  w.PutU64(error.request_id);
  w.PutU8(error.code);
  w.PutString(error.message);
  return w.Take();
}

std::optional<ErrorReply> DecodeErrorReply(std::string_view payload) {
  ByteReader r(payload);
  ErrorReply error;
  error.request_id = r.GetU64();
  error.code = r.GetU8();
  error.message = r.GetString();
  if (!Done(r)) return std::nullopt;
  return error;
}

std::string EncodeOutcomeReply(const OutcomeReply& outcome) {
  ByteWriter w;
  w.PutU64(outcome.request_id);
  w.PutString(outcome.session_id);
  w.PutU8(outcome.status_code);
  w.PutString(outcome.status_message);
  w.PutU32(outcome.attempts);
  w.PutU8(outcome.has_output ? 1 : 0);
  if (outcome.has_output) persistence::EncodeRelation(outcome.output, &w);
  return w.Take();
}

std::optional<OutcomeReply> DecodeOutcomeReply(std::string_view payload) {
  ByteReader r(payload);
  OutcomeReply outcome;
  outcome.request_id = r.GetU64();
  outcome.session_id = r.GetString();
  outcome.status_code = r.GetU8();
  outcome.status_message = r.GetString();
  outcome.attempts = r.GetU32();
  uint8_t has_output = r.GetU8();
  if (has_output > 1) return std::nullopt;
  outcome.has_output = has_output == 1;
  if (outcome.has_output) {
    auto output = persistence::DecodeRelation(&r);
    if (!output) return std::nullopt;
    outcome.output = std::move(*output);
  }
  if (!Done(r)) return std::nullopt;
  return outcome;
}

std::string EncodeStatsReply(const StatsReply& stats) {
  ByteWriter w;
  w.PutString(stats.json);
  return w.Take();
}

std::optional<StatsReply> DecodeStatsReply(std::string_view payload) {
  ByteReader r(payload);
  StatsReply stats;
  stats.json = r.GetString();
  if (!Done(r)) return std::nullopt;
  return stats;
}

std::string EncodeInspectRequest(const InspectRequest& request) {
  ByteWriter w;
  w.PutString(request.session_id);
  return w.Take();
}

std::optional<InspectRequest> DecodeInspectRequest(std::string_view payload) {
  ByteReader r(payload);
  InspectRequest request;
  request.session_id = r.GetString();
  if (!Done(r)) return std::nullopt;
  return request;
}

std::string EncodeInspectReply(const InspectReply& reply) {
  ByteWriter w;
  w.PutString(reply.session_id);
  w.PutU64(reply.shard);
  w.PutU64(reply.num_shards);
  w.PutU64(reply.num_workers);
  return w.Take();
}

std::optional<InspectReply> DecodeInspectReply(std::string_view payload) {
  ByteReader r(payload);
  InspectReply reply;
  reply.session_id = r.GetString();
  reply.shard = r.GetU64();
  reply.num_shards = r.GetU64();
  reply.num_workers = r.GetU64();
  if (!Done(r)) return std::nullopt;
  return reply;
}

// ---------------------------------------------------------------------------
// Replication protocol.

namespace {

/// The two directions of the replication codec. Both walk the same
/// field list (WireFields), so encoder and decoder cannot drift apart.
struct FieldWriter {
  ByteWriter w;
  void operator()(const std::string& s) { w.PutString(s); }
  void operator()(uint64_t v) { w.PutU64(v); }
  void operator()(bool b) { w.PutU8(b ? 1 : 0); }
};

struct FieldReader {
  ByteReader r;
  void operator()(std::string& s) { s = r.GetString(); }
  void operator()(uint64_t& v) { v = r.GetU64(); }
  void operator()(bool& b) {
    const uint8_t byte = r.GetU8();
    if (byte > 1) r.MarkFailed();
    b = byte == 1;
  }
};

/// Each kind's wire fields, in wire order. `M` is const when encoding.
template <typename Io, typename M>
void WireFields(Io& io, M& m) {
  using Kind = std::remove_const_t<M>;
  io(m.from);
  io(m.to);
  if constexpr (std::is_same_v<Kind, replication::Shipment>) {
    io(m.source_incarnation);
    io(m.link_seq);
    io(m.first_unacked);
    io(m.epoch);
    io(m.shard);
    io(m.segment_n);
    io(m.snapshot);
    io(m.frame);
  } else if constexpr (std::is_same_v<Kind, replication::Ack>) {
    io(m.source_incarnation);
    io(m.acked_link_seq);
    io(m.epoch);
  } else if constexpr (std::is_same_v<Kind, replication::Heartbeat>) {
    io(m.incarnation);
    io(m.epoch);
  } else if constexpr (std::is_same_v<Kind, replication::VoteRequest>) {
    io(m.epoch);
    io(m.suspect);
  } else if constexpr (std::is_same_v<Kind, replication::VoteGrant>) {
    io(m.epoch);
    io(m.granted);
  } else {
    static_assert(std::is_same_v<Kind, replication::CatchupRequest>);
    io(m.epoch);
  }
}

/// Default-constructs alternative `kind` of `*message`; false when the
/// variant has no such alternative.
template <size_t I = 0>
bool EmplaceKind(size_t kind, replication::Message* message) {
  if constexpr (I < std::variant_size_v<replication::Message>) {
    if (kind == I) {
      message->emplace<I>();
      return true;
    }
    return EmplaceKind<I + 1>(kind, message);
  } else {
    return false;
  }
}

}  // namespace

std::string EncodeReplication(const replication::Message& message) {
  FieldWriter writer;
  std::visit([&](const auto& m) { WireFields(writer, m); }, message);
  const auto type = static_cast<MsgType>(
      static_cast<size_t>(MsgType::kShipment) + message.index());
  return EncodeFrame(type, writer.w.str());
}

std::optional<replication::Message> DecodeReplication(const Frame& frame) {
  replication::Message message;
  if (frame.type < MsgType::kShipment ||
      !EmplaceKind(static_cast<size_t>(frame.type) -
                       static_cast<size_t>(MsgType::kShipment),
                   &message)) {
    return std::nullopt;  // an RPC frame type
  }
  FieldReader reader{ByteReader(frame.payload)};
  std::visit([&](auto& m) { WireFields(reader, m); }, message);
  if (!Done(reader.r)) return std::nullopt;
  return message;
}

}  // namespace sws::net
