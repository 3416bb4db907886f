#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/socket_util.h"
#include "util/common.h"

namespace sws::net {

/// One accepted connection. Split ownership: everything except `mu`'s
/// little island belongs to the loop thread; runtime workers append
/// reply bytes to `staged` under `mu` and never touch the socket.
struct RpcServer::Connection {
  int fd = -1;
  FrameDecoder decoder;
  bool hello_done = false;
  bool gone = false;  // loop-side: removed from the map, fd closed
  bool want_write = false;
  std::string out;  // loop-owned write buffer; [out_off, end) unsent
  size_t out_off = 0;
  std::chrono::steady_clock::time_point last_read;
  std::chrono::steady_clock::time_point last_progress;

  std::mutex mu;
  std::string staged;  // worker-appended encoded frames
  bool closed = false;  // workers observe this and shed instead

  /// Bytes queued and not yet on the wire (out remainder + staged);
  /// read lock-free on the submit path for the backpressure decision.
  std::atomic<size_t> queued{0};
};

/// Shared with outcome callbacks (weak), so a destroyed server turns
/// their wakeups into no-ops instead of use-after-free.
struct RpcServer::Core {
  EventLoop loop;
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
};

RpcServer::RpcServer(rt::ServiceRuntime* runtime, Options options)
    : runtime_(runtime), stats_(runtime->stats_sink()), options_(options) {}

RpcServer::~RpcServer() { Stop(); }

core::Status RpcServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  SWS_CHECK(!started_) << "RpcServer::Start called twice";
  std::string error;
  listen_fd_ = ListenOn(options_.host, options_.port, &error);
  if (listen_fd_ < 0) {
    return core::Status::Error(core::RunError::kNetworkError, error);
  }
  port_.store(BoundPort(listen_fd_), std::memory_order_relaxed);
  core_ = std::make_shared<Core>();
  core_->loop.AddFd(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); });
  core_->loop.SetTick(options_.sweep_interval, [this] { Sweep(); });
  loop_thread_ = std::thread([core = core_] { core->loop.Run(); });
  started_ = true;
  return core::Status::Ok();
}

void RpcServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  core_->loop.Stop();
  loop_thread_.join();
  // Loop is dead: connection teardown is single-threaded now. Workers
  // may still hold Connection pointers; marking closed under mu makes
  // their late outcome deliveries count as shed.
  for (auto& [fd, conn] : core_->conns) {
    size_t shed;
    {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      conn->closed = true;
      shed = (conn->out.size() - conn->out_off) + conn->staged.size();
    }
    stats_->Add(rt::Counter::kNetBytesShed, shed);
    conn->gone = true;
    close(conn->fd);
  }
  core_->conns.clear();
  num_connections_.store(0, std::memory_order_relaxed);
  close(listen_fd_);
  listen_fd_ = -1;
}

void RpcServer::AcceptReady() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error — nothing to do
    stats_->Add(rt::Counter::kNetConnsAccepted);
    if (core_->conns.size() >= options_.max_connections) {
      // Overload: the cheapest honest signal is an immediate close —
      // accepting and holding would hand a flooder our memory.
      stats_->Add(rt::Counter::kNetConnsReaped);
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->decoder = FrameDecoder(
        FrameDecoder::Options{.max_payload = options_.max_frame_payload});
    conn->last_read = conn->last_progress = std::chrono::steady_clock::now();
    core_->conns.emplace(fd, conn);
    num_connections_.store(core_->conns.size(), std::memory_order_relaxed);
    core_->loop.AddFd(fd, EPOLLIN, [this, conn](uint32_t events) {
      if (events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn);
        return;
      }
      if (events & EPOLLIN) ConnReadable(conn);
      if (!conn->gone && (events & EPOLLOUT)) ConnWritable(conn);
    });
  }
}

void RpcServer::ConnReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->last_read = std::chrono::steady_clock::now();
      if (!conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)))) {
        stats_->Add(rt::Counter::kNetFramesRejected);
        RejectConn(conn, static_cast<uint8_t>(core::RunError::kProtocolError),
                   WireErrorName(conn->decoder.error()));
        return;
      }
      if (!DispatchFrames(conn)) return;
      continue;
    }
    if (n == 0) {  // orderly peer close
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    CloseConn(conn);
    return;
  }
}

bool RpcServer::DispatchFrames(const std::shared_ptr<Connection>& conn) {
  Frame frame;
  for (;;) {
    switch (conn->decoder.Next(&frame)) {
      case FrameDecoder::Result::kNeedMore:
        return true;
      case FrameDecoder::Result::kError:
        stats_->Add(rt::Counter::kNetFramesRejected);
        RejectConn(conn, static_cast<uint8_t>(core::RunError::kProtocolError),
                   WireErrorName(conn->decoder.error()));
        return false;
      case FrameDecoder::Result::kFrame:
        break;
    }
    if (!conn->hello_done) {
      auto hello = frame.type == MsgType::kHello ? DecodeHello(frame.payload)
                                                 : std::nullopt;
      if (!hello || hello->role != Hello::Role::kClient ||
          hello->protocol_version != kProtocolVersion) {
        stats_->Add(rt::Counter::kNetFramesRejected);
        RejectConn(conn, static_cast<uint8_t>(core::RunError::kProtocolError),
                   "bad hello");
        return false;
      }
      conn->hello_done = true;
      continue;
    }
    switch (frame.type) {
      case MsgType::kSubmit:
        HandleSubmit(conn, frame.payload);
        break;
      case MsgType::kPing:
        SendFrame(conn, MsgType::kPong, std::string(frame.payload));
        break;
      case MsgType::kStatsRequest:
        SendFrame(conn, MsgType::kStatsResponse,
                  EncodeStatsReply({runtime_->Stats().ToJson()}));
        break;
      case MsgType::kInspectRequest: {
        auto request = DecodeInspectRequest(frame.payload);
        if (!request) {
          stats_->Add(rt::Counter::kNetFramesRejected);
          RejectConn(conn,
                     static_cast<uint8_t>(core::RunError::kProtocolError),
                     "bad inspect");
          return false;
        }
        InspectReply reply;
        reply.session_id = request->session_id;
        reply.shard = runtime_->ShardOf(request->session_id);
        reply.num_shards = runtime_->num_shards();
        reply.num_workers = runtime_->num_workers();
        SendFrame(conn, MsgType::kInspectResponse, EncodeInspectReply(reply));
        break;
      }
      default:
        // Server-to-client or replication types arriving at the RPC
        // port: a confused or hostile peer — cut it.
        stats_->Add(rt::Counter::kNetFramesRejected);
        RejectConn(conn, static_cast<uint8_t>(core::RunError::kProtocolError),
                   "unexpected frame type");
        return false;
    }
    if (conn->gone) return false;
  }
}

void RpcServer::HandleSubmit(const std::shared_ptr<Connection>& conn,
                             std::string_view payload) {
  auto request = DecodeSubmitRequest(payload);
  if (!request) {
    stats_->Add(rt::Counter::kNetFramesRejected);
    RejectConn(conn, static_cast<uint8_t>(core::RunError::kProtocolError),
               "bad submit");
    return;
  }
  const uint64_t request_id = request->request_id;
  const size_t queued = conn->queued.load(std::memory_order_relaxed);
  if (queued > options_.send_hard_bytes) {
    // The peer is not draining its replies; admitting more work would
    // buffer unboundedly. Reject at the door.
    stats_->Add(rt::Counter::kNetBytesShed, payload.size());
    SendFrame(conn, MsgType::kError,
              EncodeErrorReply(
                  {request_id,
                   static_cast<uint8_t>(core::RunError::kQueueRejected),
                   "send queue full"}));
    return;
  }
  rt::SubmitOptions sopts;
  sopts.priority = static_cast<rt::Priority>(request->priority);
  if (queued > options_.send_soft_bytes) {
    // Soft backpressure: a slow consumer's work competes as kLow, so
    // the runtime's ShedPolicy sheds it before well-behaved traffic.
    sopts.priority = rt::Priority::kLow;
  }
  if (request->deadline_ns > 0) {
    sopts.deadline = std::chrono::nanoseconds(request->deadline_ns);
  }
  // The callback runs on a pool worker, possibly after this server is
  // stopped (the runtime outlives it): it touches only the connection's
  // staging island and a weak Core. stats outlives both (runtime-owned).
  rt::Counters* stats = stats_;
  std::weak_ptr<Core> weak_core = core_;
  sopts.callback = [stats, weak_core, conn, request_id](rt::Outcome outcome) {
    OutcomeReply reply;
    reply.request_id = request_id;
    reply.session_id = outcome.session_id;
    reply.status_code = static_cast<uint8_t>(outcome.status.code());
    reply.status_message = outcome.status.message();
    reply.attempts = outcome.attempts;
    reply.has_output = outcome.status.ok() && outcome.session.has_value();
    if (reply.has_output) reply.output = outcome.session->output;
    std::string bytes =
        EncodeFrame(MsgType::kOutcome, EncodeOutcomeReply(reply));
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed) {
        stats->Add(rt::Counter::kNetBytesShed, bytes.size());
        return;
      }
      conn->staged.append(bytes);
      conn->queued.fetch_add(bytes.size(), std::memory_order_relaxed);
    }
    if (auto core = weak_core.lock()) {
      core->loop.RunInLoop([core, conn] {
        // Flush inline: splice staged bytes and write (same logic as
        // FlushConn, but without touching the possibly-dead server).
        if (conn->gone) return;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          if (!conn->staged.empty()) {
            conn->out.append(conn->staged);
            conn->staged.clear();
          }
        }
        while (conn->out_off < conn->out.size()) {
          ssize_t n = write(conn->fd, conn->out.data() + conn->out_off,
                            conn->out.size() - conn->out_off);
          if (n > 0) {
            conn->out_off += static_cast<size_t>(n);
            conn->last_progress = std::chrono::steady_clock::now();
            continue;
          }
          break;  // EAGAIN (EPOLLOUT below) or a dead peer (sweep reaps)
        }
        if (conn->out_off >= conn->out.size()) {
          conn->out.clear();
          conn->out_off = 0;
        }
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->queued.store(
              (conn->out.size() - conn->out_off) + conn->staged.size(),
              std::memory_order_relaxed);
        }
        const bool want = conn->out_off < conn->out.size();
        if (want != conn->want_write) {
          conn->want_write = want;
          core->loop.ModFd(conn->fd, want ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
        }
      });
    }
  };
  core::Status status = runtime_->Submit(std::move(request->session_id),
                                         std::move(request->message),
                                         std::move(sopts));
  if (conn->gone) return;
  if (status.ok()) {
    SendFrame(conn, MsgType::kSubmitAck, EncodeSubmitAck({request_id}));
  } else {
    SendFrame(conn, MsgType::kError,
              EncodeErrorReply({request_id,
                                static_cast<uint8_t>(status.code()),
                                status.message()}));
  }
}

void RpcServer::SendFrame(const std::shared_ptr<Connection>& conn,
                          MsgType type, const std::string& payload) {
  if (conn->gone) return;
  std::string bytes = EncodeFrame(type, payload);
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) {
      stats_->Add(rt::Counter::kNetBytesShed, bytes.size());
      return;
    }
    conn->staged.append(bytes);
    conn->queued.fetch_add(bytes.size(), std::memory_order_relaxed);
  }
  FlushConn(conn);
}

void RpcServer::FlushConn(const std::shared_ptr<Connection>& conn) {
  if (conn->gone) return;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->staged.empty()) {
      conn->out.append(conn->staged);
      conn->staged.clear();
    }
  }
  while (conn->out_off < conn->out.size()) {
    ssize_t n = write(conn->fd, conn->out.data() + conn->out_off,
                      conn->out.size() - conn->out_off);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      conn->last_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    CloseConn(conn);  // peer is gone; unsent bytes are shed by the close
    return;
  }
  if (conn->out_off >= conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->queued.store((conn->out.size() - conn->out_off) +
                           conn->staged.size(),
                       std::memory_order_relaxed);
  }
  const bool want = conn->out_off < conn->out.size();
  if (want != conn->want_write) {
    conn->want_write = want;
    core_->loop.ModFd(conn->fd, want ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  }
}

void RpcServer::ConnWritable(const std::shared_ptr<Connection>& conn) {
  FlushConn(conn);
}

void RpcServer::RejectConn(const std::shared_ptr<Connection>& conn,
                           uint8_t code, const std::string& message) {
  if (conn->gone) return;
  // Best-effort typed goodbye: one nonblocking write, no queueing — the
  // connection is being cut either way.
  std::string bytes =
      EncodeFrame(MsgType::kError, EncodeErrorReply({0, code, message}));
  [[maybe_unused]] ssize_t n = write(conn->fd, bytes.data(), bytes.size());
  CloseConn(conn);
}

void RpcServer::CloseConn(const std::shared_ptr<Connection>& conn) {
  if (conn->gone) return;
  conn->gone = true;
  size_t shed;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    shed = (conn->out.size() - conn->out_off) + conn->staged.size();
    conn->queued.store(0, std::memory_order_relaxed);
  }
  stats_->Add(rt::Counter::kNetBytesShed, shed);
  core_->loop.DelFd(conn->fd);
  close(conn->fd);
  core_->conns.erase(conn->fd);
  num_connections_.store(core_->conns.size(), std::memory_order_relaxed);
}

void RpcServer::Sweep() {
  const auto now = std::chrono::steady_clock::now();
  // CloseConn mutates the map; sweep over a snapshot of the values.
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(core_->conns.size());
  for (const auto& [fd, conn] : core_->conns) conns.push_back(conn);
  for (const auto& conn : conns) {
    if (conn->gone) continue;
    const auto last_activity = std::max(conn->last_read, conn->last_progress);
    const bool has_backlog = conn->queued.load(std::memory_order_relaxed) > 0;
    if (has_backlog && now - conn->last_progress > options_.write_timeout) {
      // Writer wedged: the peer took our acks' TCP window to zero and
      // sat on it. Classic slow-loris read variant.
      stats_->Add(rt::Counter::kNetConnsReaped);
      CloseConn(conn);
      continue;
    }
    if (now - last_activity > options_.idle_timeout) {
      stats_->Add(rt::Counter::kNetConnsReaped);
      CloseConn(conn);
    }
  }
}

}  // namespace sws::net
