#ifndef SWS_REPLICATION_TRANSPORT_H_
#define SWS_REPLICATION_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "sws/fault.h"

namespace sws::replication {

// The replication protocol: one Message, six kinds. Every kind names
// its endpoints `from`/`to` and carries the sender's fencing epoch plus
// only its own fields, declared in wire order (net/messages.cc).

/// One journal record in flight on a (from, to) link. `frame` is the
/// exact CRC-framed byte string the primary's JournalWriter appended
/// (persistence::EncodeRecordFrame) — the follower re-verifies the CRC
/// on apply, so transport corruption surfaces exactly like torn storage.
struct Shipment {
  std::string from;
  std::string to;
  /// The source node's journal incarnation; bumps when the source
  /// restarts, resetting the link (link_seq restarts at 1).
  uint64_t source_incarnation = 0;
  /// 1-based FIFO position on the (from, to, source_incarnation) link.
  /// Followers apply in link order and ack cumulatively.
  uint64_t link_seq = 0;
  /// Lowest link_seq the source may still retransmit (its cumulative
  /// ack + 1 at last send), so 1 <= first_unacked <= link_seq; a
  /// follower rejects any other. Everything below was acknowledged —
  /// i.e. durably applied by some follower life — so a follower that
  /// lost its in-memory link state (restart, promotion) may
  /// fast-forward to it.
  uint64_t first_unacked = 1;
  /// The sender's view of the group fencing epoch at (re)transmit time.
  /// A follower rejects shipments below its own epoch (a deposed
  /// primary's stale traffic) and adopts higher ones. See DESIGN.md §13.
  uint64_t epoch = 0;
  /// Where the record sits in the source's journal: shard index and
  /// segment counter — the replication cursor that pins the segment
  /// against snapshot GC until acknowledged.
  uint64_t shard = 0;
  uint64_t segment_n = 0;
  /// The session the record belongs to — sender-side bookkeeping used to
  /// re-check ownership when the group epoch moves while the shipment is
  /// buffered. Redundant with the frame contents, so the socket
  /// transport does not put it on the wire.
  std::string session_id;
  /// True for a catch-up bootstrap shipment: `frame` then holds
  /// persistence::EncodeSnapshotPayload bytes (not a record frame), which
  /// the follower persists as a snapshot file before acking. Riding the
  /// FIFO link gives the bootstrap payload the same retransmit-until-
  /// acked durability as records, so a joiner's cumulative ack past the
  /// catch-up fence proves the whole bootstrap landed (DESIGN.md §13).
  bool snapshot = false;
  std::string frame;
};

/// Cumulative: `acked_link_seq` and everything below it is durably
/// applied by `from`. `source_incarnation` echoes the shipments being
/// acknowledged, so a restarted source ignores its past life's acks.
/// `epoch` is the acker's — how a deposed primary learns it was fenced.
struct Ack {
  std::string from;
  std::string to;
  uint64_t source_incarnation = 0;
  uint64_t acked_link_seq = 0;
  uint64_t epoch = 0;
};

/// A node's periodic sign of life to every peer; the receiver adopts a
/// higher epoch. `incarnation` rides the wire, but no receiver reads it.
struct Heartbeat {
  std::string from;
  std::string to;
  uint64_t incarnation = 0;
  uint64_t epoch = 0;
};

/// Election traffic (DESIGN.md §13): `epoch` is the epoch the candidate
/// wants to claim, `suspect` the node it wants to depose.
struct VoteRequest {
  std::string from;
  std::string to;
  uint64_t epoch = 0;
  std::string suspect;
};

struct VoteGrant {
  std::string from;
  std::string to;
  uint64_t epoch = 0;
  bool granted = false;
};

/// Join/rejoin catch-up. A joining node broadcasts a request; each
/// primary answers on the regular shipment link — a snapshot-flagged
/// shipment of the sessions the requester follows, then the journal
/// tail (see Shipment::snapshot).
struct CatchupRequest {
  std::string from;
  std::string to;
  uint64_t epoch = 0;
};

/// The alternative order is wire format: kind i travels as frame type
/// net::MsgType::kShipment + i. Append only.
using Message = std::variant<Shipment, Ack, Heartbeat, VoteRequest, VoteGrant,
                             CatchupRequest>;

inline const std::string& From(const Message& message) {
  return std::visit([](const auto& m) -> const std::string& { return m.from; },
                    message);
}

inline const std::string& To(const Message& message) {
  return std::visit([](const auto& m) -> const std::string& { return m.to; },
                    message);
}

/// A node's receive surface. OnMessage is invoked from the transport's
/// delivery thread, one delivery at a time per node; it must not call
/// back into the transport while blocking (sending replies is fine).
class ReplicationEndpoint {
 public:
  virtual ~ReplicationEndpoint() = default;
  virtual void OnMessage(const Message& message) = 0;
};

/// The wire between nodes: addressed, fire-and-forget, loss and
/// reordering allowed. Two implementations — InProcessTransport below
/// (one delivery thread, injected faults, link lag) and
/// net::SocketTransport (loopback TCP, DESIGN.md §14) — and
/// Replicator, FollowerApplier and FailoverCoordinator run unchanged
/// over either.
class ReplicationTransport {
 public:
  virtual ~ReplicationTransport() = default;
  virtual void Bind(const std::string& node, ReplicationEndpoint* endpoint) = 0;
  /// Blocks until no delivery into `node` is in flight; after return the
  /// endpoint is never called again (safe to destroy).
  virtual void Unbind(const std::string& node) = 0;
  /// Sends `message` from From(message) to To(message).
  virtual void Send(Message message) = 0;

  /// Chaos / ops controls, shared by every transport so harnesses and the
  /// node lifecycle (Kill isolates, Start rejoins) need not know which
  /// transport they drive. Default no-ops: a transport that cannot model
  /// a control simply ignores it.
  ///
  /// One-way partition: messages src→dst vanish until healed. A socket
  /// transport severs the live connection and refuses re-establishment.
  virtual void Partition(const std::string& src, const std::string& dst) {
    (void)src, (void)dst;
  }
  virtual void Heal(const std::string& src, const std::string& dst) {
    (void)src, (void)dst;
  }
  /// Both-ways cut from everyone (node death); Rejoin restores.
  virtual void Isolate(const std::string& node) { (void)node; }
  virtual void Rejoin(const std::string& node) { (void)node; }
  /// Fixed extra latency on one link (follower lag).
  virtual void SetLinkLag(const std::string& src, const std::string& dst,
                          std::chrono::microseconds lag) {
    (void)src, (void)dst, (void)lag;
  }
};

/// In-process transport: one delivery thread draining a due-time queue.
/// Fault injection (drop / duplicate / reorder / delay) reuses the
/// FaultInjector's per-point deterministic streams — FaultPoint::
/// kTransport* — so a seed reproduces the same loss/reorder schedule
/// without perturbing the storage or run fault schedules. Partitions and
/// isolation are evaluated at send time; a message already in flight to
/// a node that dies mid-flight is dropped by the unbound check at
/// delivery (exactly what a crashed receiver does to a packet).
class InProcessTransport : public ReplicationTransport {
 public:
  /// `injector` may be null (no injected faults). Reorder holds a
  /// message back by 4× the delay penalty; the penalty is
  /// options().transport_delay, or 200µs when that is zero.
  explicit InProcessTransport(core::FaultInjector* injector = nullptr);
  ~InProcessTransport() override;

  void Bind(const std::string& node, ReplicationEndpoint* endpoint) override;
  void Unbind(const std::string& node) override;
  void Send(Message message) override;

  void Partition(const std::string& src, const std::string& dst) override;
  void Heal(const std::string& src, const std::string& dst) override;
  void Isolate(const std::string& node) override;
  void Rejoin(const std::string& node) override;
  void SetLinkLag(const std::string& src, const std::string& dst,
                  std::chrono::microseconds lag) override;

  // Telemetry.
  uint64_t delivered() const { return delivered_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t duplicated() const { return duplicated_.load(std::memory_order_relaxed); }
  uint64_t reordered() const { return reordered_.load(std::memory_order_relaxed); }

 private:
  struct Event {
    Message message;
    std::chrono::steady_clock::time_point due;
    uint64_t order;  // tie-break: submission order
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.due != b.due ? a.due > b.due : a.order > b.order;
    }
  };
  /// Per-node delivery slot: its mutex serializes deliveries into the
  /// endpoint and lets Unbind wait out an in-flight one.
  struct Slot {
    std::mutex mu;
    ReplicationEndpoint* endpoint = nullptr;
  };

  bool Blocked(const std::string& src, const std::string& dst) const;
  void DeliveryLoop();

  core::FaultInjector* const injector_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t next_order_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  std::set<std::pair<std::string, std::string>> partitions_;
  std::set<std::string> isolated_;
  std::map<std::pair<std::string, std::string>, std::chrono::microseconds>
      link_lag_;
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> duplicated_{0};
  std::atomic<uint64_t> reordered_{0};
  std::thread thread_;
};

}  // namespace sws::replication

#endif  // SWS_REPLICATION_TRANSPORT_H_
