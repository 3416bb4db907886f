#ifndef SWS_NET_MESSAGES_H_
#define SWS_NET_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/wire.h"
#include "relational/relation.h"
#include "replication/transport.h"
#include "sws/status.h"

namespace sws::net {

/// Frame payloads for the RPC front door and the socket replication
/// transport. Every encoding rides the persistence ByteWriter/ByteReader
/// (PR 4 serde), and every Decode is *total*: any short read, bad tag or
/// implausible count yields nullopt — never a crash, never an allocation
/// sized by attacker bytes (relation decoding inherits serde's CheckCount
/// guard). Decoders additionally require the payload be fully consumed,
/// so trailing garbage is rejected rather than silently ignored.

/// Protocol revision carried in every Hello; a peer speaking a different
/// revision is rejected before any other frame is interpreted.
inline constexpr uint32_t kProtocolVersion = 1;

/// First frame on every connection, both directions' identity contract.
struct Hello {
  enum class Role : uint8_t { kClient = 0, kReplication = 1 };
  Role role = Role::kClient;
  /// For kReplication: the sending node's name (the socket transport
  /// routes by node, not by address). Free-form for kClient.
  std::string source;
  uint32_t protocol_version = kProtocolVersion;
};
std::string EncodeHello(const Hello& hello);
std::optional<Hello> DecodeHello(std::string_view payload);

/// Client → server: run one message on a session. `request_id` is
/// client-chosen and echoed on the ack, on any error, and on the
/// eventual outcome frame — the client's correlation key.
struct SubmitRequest {
  uint64_t request_id = 0;
  std::string session_id;
  uint8_t priority = 1;  // rt::Priority numeric value; validated on decode
  /// Relative deadline in nanoseconds; 0 = server default.
  int64_t deadline_ns = 0;
  rel::Relation message;
};
std::string EncodeSubmitRequest(const SubmitRequest& request);
std::optional<SubmitRequest> DecodeSubmitRequest(std::string_view payload);

struct SubmitAck {
  uint64_t request_id = 0;
};
std::string EncodeSubmitAck(const SubmitAck& ack);
std::optional<SubmitAck> DecodeSubmitAck(std::string_view payload);

/// Server → client: a typed rejection. `request_id` 0 = connection-level
/// (e.g. a malformed frame notice sent just before the server closes).
struct ErrorReply {
  uint64_t request_id = 0;
  uint8_t code = 0;  // core::RunError numeric value
  std::string message;
};
std::string EncodeErrorReply(const ErrorReply& error);
std::optional<ErrorReply> DecodeErrorReply(std::string_view payload);

/// Server → client: a finished request's outcome (the rt::Outcome a
/// worker delivered), streamed when the session's delimiter ran.
struct OutcomeReply {
  uint64_t request_id = 0;
  std::string session_id;
  uint8_t status_code = 0;  // core::RunError numeric value
  std::string status_message;
  uint32_t attempts = 0;
  bool has_output = false;
  rel::Relation output;  // meaningful iff has_output
};
std::string EncodeOutcomeReply(const OutcomeReply& outcome);
std::optional<OutcomeReply> DecodeOutcomeReply(std::string_view payload);

/// Admin: stats. The response carries StatsSnapshot::ToJson verbatim —
/// strict JSON, so operators can pipe it straight into tooling.
struct StatsReply {
  std::string json;
};
std::string EncodeStatsReply(const StatsReply& stats);
std::optional<StatsReply> DecodeStatsReply(std::string_view payload);

/// Admin: placement introspection for one session id.
struct InspectRequest {
  std::string session_id;
};
std::string EncodeInspectRequest(const InspectRequest& request);
std::optional<InspectRequest> DecodeInspectRequest(std::string_view payload);

struct InspectReply {
  std::string session_id;
  uint64_t shard = 0;
  uint64_t num_shards = 0;
  uint64_t num_workers = 0;
};
std::string EncodeInspectReply(const InspectReply& reply);
std::optional<InspectReply> DecodeInspectReply(std::string_view payload);

// ---------------------------------------------------------------------------
// Replication protocol (SocketTransport): one codec for every
// replication::Message. Kind i travels as frame type kShipment + i, its
// fields in declaration order; Shipment::session_id stays off the wire.
// `to` is carried so a transport hosting several nodes behind one
// listener can route after accept.

/// The whole frame (header included) carrying `message`.
std::string EncodeReplication(const replication::Message& message);
/// nullopt for a malformed payload and for a frame type outside
/// kShipment..kCatchupRequest.
std::optional<replication::Message> DecodeReplication(const Frame& frame);

}  // namespace sws::net

#endif  // SWS_NET_MESSAGES_H_
