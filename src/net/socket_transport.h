#ifndef SWS_NET_SOCKET_TRANSPORT_H_
#define SWS_NET_SOCKET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "net/event_loop.h"
#include "net/wire.h"
#include "replication/transport.h"
#include "sws/fault.h"

namespace sws::net {

/// ReplicationTransport over real loopback TCP (DESIGN.md §14). Each
/// Bind opens a listener on an ephemeral port; each ordered (src, dst)
/// pair gets one lazily-dialed outgoing connection carrying src's
/// messages, one EncodeReplication frame each, opened with a
/// kReplication Hello naming the source node. The receiving side runs
/// every frame through the same defensive FrameDecoder as the RPC front
/// door: a corrupt frame kills the connection — the sender re-dials on
/// its next send, and the replication protocol's retransmit/heartbeat
/// machinery supplies the redelivery. Everything is fire-and-forget:
/// no send ever blocks the caller, and a connection's queued bytes die
/// with it (exactly the loss model Replicator is built for).
///
/// Delivery contract: all endpoint calls happen inline on the single
/// loop thread, so "one delivery at a time per node" holds trivially,
/// and Unbind — which runs as a synchronous closure on that same
/// thread — returns only when no delivery can be in flight.
///
/// Chaos surface: Partition/Isolate sever the live FDs *and* drop
/// matching traffic until healed; Sever/SeverAll close FDs without
/// installing a block (transparent-recovery drills); FaultPoint::
/// kTransportDrop skips sends and kTransportGarble flips one byte of
/// the outgoing frame (the receiver's CRC turns that into a connection
/// kill). Fault decisions draw from the injector's per-point streams at
/// submit time, like InProcessTransport.
class SocketTransport : public replication::ReplicationTransport {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    size_t max_frame_payload = 32u << 20;
    /// Per-link queued-bytes cap; a message that would exceed it is
    /// dropped whole (retransmission heals).
    size_t max_link_queue = 16u << 20;
    std::chrono::milliseconds connect_timeout{500};
    std::chrono::milliseconds sweep_interval{50};
  };

  explicit SocketTransport(core::FaultInjector* injector = nullptr);
  SocketTransport(core::FaultInjector* injector, Options options);
  ~SocketTransport() override;

  void Bind(const std::string& node,
            replication::ReplicationEndpoint* endpoint) override;
  void Unbind(const std::string& node) override;
  void Send(replication::Message message) override;

  void Partition(const std::string& src, const std::string& dst) override;
  void Heal(const std::string& src, const std::string& dst) override;
  void Isolate(const std::string& node) override;
  void Rejoin(const std::string& node) override;
  // SetLinkLag is inherited as a no-op: a real socket has no tunable
  // delay knob; lag drills belong to InProcessTransport.

  /// Chaos: closes every connection touching `node` (or all of them)
  /// WITHOUT blocking traffic — the transport must recover on its own.
  void Sever(const std::string& node);
  void SeverAll();

  /// The port `node`'s listener is bound to (0 = not bound) — for
  /// wiring external processes at this transport.
  uint16_t ListenPort(const std::string& node);

  /// One-line dump of the live wire state (links with connect state and
  /// queue depth, accepted conns, partitions, isolation set) — chaos
  /// diagnostics and ops introspection.
  std::string DebugString();

  // Telemetry.
  uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t garbled() const { return garbled_.load(std::memory_order_relaxed); }
  uint64_t rejected_frames() const {
    return rejected_frames_.load(std::memory_order_relaxed);
  }
  uint64_t severed() const { return severed_.load(std::memory_order_relaxed); }

 private:
  struct NodeState;
  struct Link;
  struct InConn;

  /// Runs `fn` on the loop thread and waits for it (inline when already
  /// on the loop thread). All maps below are loop-thread-owned.
  void RunSync(std::function<void()> fn);
  /// Loop thread: queue bytes on the (src, dst) link, dialing it first
  /// if needed.
  void SendOnLink(const std::string& src, const std::string& dst,
                  std::string bytes);
  void FlushLink(Link* link);
  void CloseLink(const std::pair<std::string, std::string>& key,
                 bool count_severed);
  void CloseInConn(int fd, bool count_severed);
  void AcceptReady(const std::string& node);
  void InConnReadable(int fd);
  /// Loop thread: decodes and delivers one received frame to the bound
  /// endpoint, honoring partitions/isolation at delivery time. Returns
  /// false on a protocol violation — undecodable, or naming another
  /// sender than the connection's Hello or another receiver than
  /// `local` — and the caller kills the connection.
  bool Deliver(const std::string& peer, const std::string& local,
               const Frame& frame);
  bool Blocked(const std::string& src, const std::string& dst) const;
  void Sweep();

  core::FaultInjector* const injector_;
  const Options options_;
  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;

  // Loop-thread-owned state.
  std::map<std::string, std::unique_ptr<NodeState>> nodes_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Link>> links_;
  std::map<int, std::unique_ptr<InConn>> in_conns_;
  std::set<std::pair<std::string, std::string>> partitions_;
  std::set<std::string> isolated_;

  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> garbled_{0};
  std::atomic<uint64_t> rejected_frames_{0};
  std::atomic<uint64_t> severed_{0};
  std::atomic<uint64_t> garble_cursor_{0};
};

}  // namespace sws::net

#endif  // SWS_NET_SOCKET_TRANSPORT_H_
