#ifndef SWS_NET_SERVER_H_
#define SWS_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/messages.h"
#include "net/wire.h"
#include "runtime/runtime.h"

namespace sws::net {

/// The TCP front door (DESIGN.md §14): epoll loops accepting framed RPC
/// connections and mapping them onto a ServiceRuntime. There is one
/// loop per runtime worker. Loop 0 also accepts, and hands each new
/// connection to the loops in turn; the chosen loop then owns the
/// connection's reads, its close and its sweep. Robustness posture:
///
///  * total decoding — every frame runs through FrameDecoder's caps and
///    CRC; a malformed/oversize/truncated frame closes the connection
///    with a typed kError reply and bumps net_frames_rejected;
///  * backpressure — a connection whose send queue passes the soft
///    watermark has its submits demoted to Priority::kLow, where the
///    runtime's ShedPolicy sheds them first; past the hard watermark
///    submits are rejected outright and replies to a consumer that
///    stopped reading are dropped (net_bytes_shed);
///  * slow-loris defense — idle connections (no readable bytes for
///    idle_timeout) and wedged writers (no send-queue progress for
///    write_timeout) are reaped on the sweep tick;
///  * accept overload — past max_connections new peers are accepted and
///    immediately closed (cheapest honest signal), counted as reaped.
///
/// Replies leave on one send path: the thread that produces a frame
/// (the owning loop for acks and admin replies, a runtime worker for an
/// outcome) appends it to the connection's send buffer under the
/// connection's mutex and writes what the socket takes, without
/// blocking; EPOLLOUT finishes the rest on the owning loop's thread.
class RpcServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral; see RpcServer::port()
    size_t max_connections = 1024;
    /// FrameDecoder caps (per connection).
    size_t max_frame_payload = 32u << 20;
    /// Send-queue watermarks (bytes queued to one connection).
    size_t send_soft_bytes = 1u << 20;
    size_t send_hard_bytes = 8u << 20;
    /// Reap a connection with no readable bytes for this long.
    std::chrono::milliseconds idle_timeout{30'000};
    /// Close a connection whose send queue made no progress for this
    /// long (the peer stopped reading).
    std::chrono::milliseconds write_timeout{10'000};
    std::chrono::milliseconds sweep_interval{250};
  };

  /// `runtime` must outlive Stop(). The server ticks its counters on
  /// runtime->stats_sink().
  RpcServer(rt::ServiceRuntime* runtime, Options options);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and starts the loop threads. ok() or the reason
  /// (address in use, etc. — environmental, so a Status not a check).
  core::Status Start();

  /// Stops the loops and joins them, then closes every connection
  /// (shedding unsent replies). Outcome callbacks still in flight in the
  /// runtime find their connection closed and count their bytes as shed
  /// — safe to call while the runtime is busy; idempotent.
  void Stop();

  /// The bound port (after Start); 0 before.
  uint16_t port() const { return port_; }

  /// Live connection count over all loops: raised on accept, lowered
  /// when a connection closes.
  size_t num_connections() const {
    return num_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;
  /// One event loop and the connections it owns.
  struct Loop {
    EventLoop events;
    /// This loop's thread only (Stop's, once the loop has exited).
    std::unordered_map<int, std::shared_ptr<Connection>> conns;
    std::thread thread;
  };

  /// Loop 0's thread: accepts, and hands each connection to a loop.
  void AcceptReady();
  /// On `loop`'s thread: registers the accepted `fd` as its connection.
  void Adopt(Loop* loop, int fd);
  void ConnReadable(const std::shared_ptr<Connection>& conn);
  /// Parses and dispatches every complete frame; returns false when the
  /// connection was closed (decoder error or protocol violation).
  bool DispatchFrames(const std::shared_ptr<Connection>& conn);
  void HandleSubmit(const std::shared_ptr<Connection>& conn,
                    std::string_view payload);
  /// Typed-error close: best-effort kError frame, then CloseConn.
  void RejectConn(const std::shared_ptr<Connection>& conn, uint8_t code,
                  const std::string& message);
  /// Runs on the connection's own loop (or in Stop, once it exited).
  void CloseConn(const std::shared_ptr<Connection>& conn);
  void Sweep(Loop* loop);

  rt::ServiceRuntime* const runtime_;
  rt::Counters* const stats_;
  const Options options_;
  /// max(1, runtime->num_workers()) loops; loops_[0] holds the listener.
  std::vector<std::unique_ptr<Loop>> loops_;
  size_t next_loop_ = 0;  // loops_[0]'s thread only: the round-robin turn
  int listen_fd_ = -1;
  std::atomic<uint16_t> port_{0};
  std::atomic<size_t> num_connections_{0};
  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace sws::net

#endif  // SWS_NET_SERVER_H_
