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

/// One accepted connection. The read side belongs to the loop thread;
/// the send side is `mu` and what it guards, shared by the loop (acks,
/// admin replies, EPOLLOUT) and the runtime workers (outcomes).
///
/// Fd safety: every write to `fd` and every ModFd happens under `mu`
/// while `closed` is false, and CloseConn sets `closed` under `mu`
/// before it closes the fd. So no thread writes to a closed fd or to the
/// connection that reuses its number. Stop closes every connection
/// before it returns, so an open connection also proves `loop` alive.
struct RpcServer::Connection {
  /// The one send path, callable from any thread: appends `frame` (one
  /// whole frame; empty on an EPOLLOUT wakeup), sends until the socket
  /// would block, and arms EPOLLOUT while bytes remain. A closed
  /// connection counts the frame as shed instead.
  void Send(std::string_view frame);
  /// Bytes not yet on the wire, which both send watermarks read; mu held.
  size_t queued() const { return out.size() - out_off; }

  int fd = -1;
  EventLoop* loop = nullptr;
  rt::Counters* stats = nullptr;  // runtime-owned: outlives every callback

  // Loop-thread only.
  FrameDecoder decoder;
  bool hello_done = false;
  std::chrono::steady_clock::time_point last_read;

  std::mutex mu;
  /// Guarded by mu. Written only on the loop thread (or by Stop after
  /// the loop has exited), so the loop may read it without the lock.
  bool closed = false;
  std::string out;  // [out_off, end) not yet on the wire
  size_t out_off = 0;
  bool want_write = false;  // EPOLLOUT armed
  std::chrono::steady_clock::time_point last_progress;
};

void RpcServer::Connection::Send(std::string_view frame) {
  std::lock_guard<std::mutex> lock(mu);
  if (closed) {
    stats->Add(rt::Counter::kNetBytesShed, frame.size());
    return;
  }
  out.append(frame);
  while (out_off < out.size()) {
    const ssize_t n = send(fd, out.data() + out_off, out.size() - out_off,
                           MSG_NOSIGNAL);
    // EAGAIN or EINTR: EPOLLOUT finishes the write. A hard error: the
    // loop sees EPOLLHUP/EPOLLERR and closes the connection.
    if (n <= 0) break;
    out_off += static_cast<size_t>(n);
    last_progress = std::chrono::steady_clock::now();
  }
  const bool want = queued() > 0;
  if (!want) {
    out.clear();
    out_off = 0;
  }
  if (want != want_write) {
    want_write = want;
    loop->ModFd(fd, want ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  }
}

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
  loop_.AddFd(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); });
  loop_.SetTick(options_.sweep_interval, [this] { Sweep(); });
  loop_thread_ = std::thread([this] { loop_.Run(); });
  started_ = true;
  return core::Status::Ok();
}

void RpcServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  loop_.Stop();
  loop_thread_.join();
  // The loop has exited, so its state is this thread's now. Workers may
  // still hold connections: CloseConn marks each closed under its mutex,
  // so their late outcomes count as shed instead of reaching the fd.
  while (!conns_.empty()) {
    std::shared_ptr<Connection> conn = conns_.begin()->second;
    CloseConn(conn);
  }
  close(listen_fd_);
  listen_fd_ = -1;
}

void RpcServer::AcceptReady() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error — nothing to do
    stats_->Add(rt::Counter::kNetConnsAccepted);
    if (conns_.size() >= options_.max_connections) {
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
    conn->loop = &loop_;
    conn->stats = stats_;
    conn->decoder = FrameDecoder(
        FrameDecoder::Options{.max_payload = options_.max_frame_payload});
    conn->last_read = conn->last_progress = std::chrono::steady_clock::now();
    conns_.emplace(fd, conn);
    num_connections_.store(conns_.size(), std::memory_order_relaxed);
    loop_.AddFd(fd, EPOLLIN, [this, conn](uint32_t events) {
      if (events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn);
        return;
      }
      if (events & EPOLLIN) ConnReadable(conn);
      if (!conn->closed && (events & EPOLLOUT)) conn->Send({});
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
        conn->Send(EncodeFrame(MsgType::kPong, frame.payload));
        break;
      case MsgType::kStatsRequest:
        conn->Send(EncodeFrame(MsgType::kStatsResponse,
                               EncodeStatsReply({runtime_->Stats().ToJson()})));
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
        conn->Send(
            EncodeFrame(MsgType::kInspectResponse, EncodeInspectReply(reply)));
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
    if (conn->closed) return false;
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
  size_t queued;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    queued = conn->queued();
  }
  if (queued > options_.send_hard_bytes) {
    // The peer is not draining its replies; admitting more work would
    // buffer unboundedly. Reject at the door.
    stats_->Add(rt::Counter::kNetBytesShed, payload.size());
    conn->Send(EncodeFrame(
        MsgType::kError,
        EncodeErrorReply({request_id,
                          static_cast<uint8_t>(core::RunError::kQueueRejected),
                          "send queue full"})));
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
  // The callback runs on a pool worker, possibly after this server has
  // stopped (the runtime outlives it), so it touches only the connection.
  sopts.callback = [conn, request_id](rt::Outcome outcome) {
    OutcomeReply reply;
    reply.request_id = request_id;
    reply.session_id = outcome.session_id;
    reply.status_code = static_cast<uint8_t>(outcome.status.code());
    reply.status_message = outcome.status.message();
    reply.attempts = outcome.attempts;
    reply.has_output = outcome.status.ok() && outcome.session.has_value();
    if (reply.has_output) reply.output = outcome.session->output;
    conn->Send(EncodeFrame(MsgType::kOutcome, EncodeOutcomeReply(reply)));
  };
  core::Status status = runtime_->Submit(std::move(request->session_id),
                                         std::move(request->message),
                                         std::move(sopts));
  if (status.ok()) {
    conn->Send(EncodeFrame(MsgType::kSubmitAck, EncodeSubmitAck({request_id})));
  } else {
    conn->Send(EncodeFrame(
        MsgType::kError,
        EncodeErrorReply({request_id, static_cast<uint8_t>(status.code()),
                          status.message()})));
  }
}

void RpcServer::RejectConn(const std::shared_ptr<Connection>& conn,
                           uint8_t code, const std::string& message) {
  if (conn->closed) return;
  // Best-effort typed goodbye, queued behind any partly sent frame: what
  // the socket does not take now, CloseConn counts as shed.
  conn->Send(
      EncodeFrame(MsgType::kError, EncodeErrorReply({0, code, message})));
  CloseConn(conn);
}

void RpcServer::CloseConn(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  size_t shed;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    shed = conn->queued();
  }
  stats_->Add(rt::Counter::kNetBytesShed, shed);
  loop_.DelFd(conn->fd);
  close(conn->fd);
  conns_.erase(conn->fd);
  num_connections_.store(conns_.size(), std::memory_order_relaxed);
}

void RpcServer::Sweep() {
  const auto now = std::chrono::steady_clock::now();
  // CloseConn mutates the map; sweep over a snapshot of the values.
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) conns.push_back(conn);
  for (const auto& conn : conns) {
    if (conn->closed) continue;
    bool has_backlog;
    std::chrono::steady_clock::time_point last_progress;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      has_backlog = conn->queued() > 0;
      last_progress = conn->last_progress;
    }
    const auto last_activity = std::max(conn->last_read, last_progress);
    if (has_backlog && now - last_progress > options_.write_timeout) {
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
