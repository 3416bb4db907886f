#include "net/socket_transport.h"

#include <linux/sockios.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <utility>
#include <vector>

#include "net/messages.h"
#include "net/socket_util.h"
#include "util/common.h"

namespace sws::net {

/// A bound node: its listener and receive endpoint.
struct SocketTransport::NodeState {
  int listen_fd = -1;
  uint16_t port = 0;
  replication::ReplicationEndpoint* endpoint = nullptr;
};

/// One outgoing connection for the ordered pair (src, dst). Carries only
/// src→dst traffic; the reverse direction dials its own link.
struct SocketTransport::Link {
  std::string src;
  std::string dst;
  int fd = -1;
  bool connecting = false;
  std::string out;  // [off, end) unsent
  size_t off = 0;
  std::chrono::steady_clock::time_point dialed;
};

/// One accepted connection at a node's listener. Pure receive side.
struct SocketTransport::InConn {
  int fd = -1;
  std::string local;  // the node whose listener accepted
  std::string peer;   // from the Hello; empty until then
  FrameDecoder decoder;
  bool hello_done = false;
};

SocketTransport::SocketTransport(core::FaultInjector* injector)
    : SocketTransport(injector, Options()) {}

SocketTransport::SocketTransport(core::FaultInjector* injector,
                                 Options options)
    : injector_(injector), options_(options) {
  loop_ = std::make_unique<EventLoop>();
  loop_->SetTick(options_.sweep_interval, [this] { Sweep(); });
  loop_thread_ = std::thread([this] { loop_->Run(); });
}

SocketTransport::~SocketTransport() {
  RunSync([this] {
    SeverAll();
    for (auto& [node, state] : nodes_) {
      if (state->listen_fd >= 0) {
        loop_->DelFd(state->listen_fd);
        close(state->listen_fd);
      }
    }
    nodes_.clear();
  });
  loop_->Stop();
  loop_thread_.join();
}

void SocketTransport::RunSync(std::function<void()> fn) {
  if (std::this_thread::get_id() == loop_thread_.get_id()) {
    fn();
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  loop_->RunInLoop([&] {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

bool SocketTransport::Blocked(const std::string& src,
                              const std::string& dst) const {
  return isolated_.count(src) > 0 || isolated_.count(dst) > 0 ||
         partitions_.count({src, dst}) > 0;
}

void SocketTransport::Bind(const std::string& node,
                           replication::ReplicationEndpoint* endpoint) {
  RunSync([&] {
    auto state = std::make_unique<NodeState>();
    std::string error;
    state->listen_fd = ListenOn(options_.host, 0, &error);
    SWS_CHECK(state->listen_fd >= 0)
        << "SocketTransport::Bind(" << node << "): " << error;
    state->port = BoundPort(state->listen_fd);
    state->endpoint = endpoint;
    loop_->AddFd(state->listen_fd, EPOLLIN,
                 [this, node](uint32_t) { AcceptReady(node); });
    nodes_[node] = std::move(state);
  });
}

void SocketTransport::Unbind(const std::string& node) {
  // Synchronous on the loop thread: deliveries also run there, so when
  // this returns no delivery into `node` is or can be in flight.
  RunSync([&] {
    auto it = nodes_.find(node);
    if (it == nodes_.end()) return;
    if (it->second->listen_fd >= 0) {
      loop_->DelFd(it->second->listen_fd);
      close(it->second->listen_fd);
    }
    nodes_.erase(it);
    // The node's receive surface is gone; drop its accepted conns and
    // its own outgoing links (a dead process holds neither).
    std::vector<int> dead_in;
    for (const auto& [fd, in] : in_conns_) {
      if (in->local == node) dead_in.push_back(fd);
    }
    for (int fd : dead_in) CloseInConn(fd, /*count_severed=*/false);
    std::vector<std::pair<std::string, std::string>> dead_links;
    for (const auto& [key, link] : links_) {
      if (key.first == node || key.second == node) dead_links.push_back(key);
    }
    for (const auto& key : dead_links) {
      CloseLink(key, /*count_severed=*/false);
    }
  });
}

void SocketTransport::Send(replication::Message message) {
  // Fault decisions draw on the caller thread (the submit-time schedule,
  // like InProcessTransport) so a seed reproduces the same drop/garble
  // sequence regardless of loop timing.
  if (injector_ != nullptr) {
    const auto& opts = injector_->options();
    if (injector_->Draw(core::FaultPoint::kTransportDrop,
                        opts.transport_drop_rate)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  std::string bytes = EncodeReplication(message);
  if (injector_ != nullptr) {
    const auto& opts = injector_->options();
    if (injector_->Draw(core::FaultPoint::kTransportGarble,
                        opts.transport_garble_rate)) {
      // One byte anywhere in the frame — header or payload. CRC-32
      // catches every single-byte corruption, so the receiver always
      // rejects; the interesting behavior is the kill + redial.
      const size_t pos =
          garble_cursor_.fetch_add(0x9e37, std::memory_order_relaxed) %
          bytes.size();
      bytes[pos] = static_cast<char>(bytes[pos] ^ 0xA5);
      garbled_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  loop_->RunInLoop([this, src = replication::From(message),
                    dst = replication::To(message),
                    bytes = std::move(bytes)]() mutable {
    SendOnLink(src, dst, std::move(bytes));
  });
}

void SocketTransport::SendOnLink(const std::string& src,
                                 const std::string& dst, std::string bytes) {
  if (Blocked(src, dst)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::pair<std::string, std::string> key{src, dst};
  auto it = links_.find(key);
  if (it == links_.end()) {
    auto dst_it = nodes_.find(dst);
    if (dst_it == nodes_.end() || dst_it->second->port == 0) {
      dropped_.fetch_add(1, std::memory_order_relaxed);  // no listener yet
      return;
    }
    bool in_progress = false;
    int fd = DialNonBlocking(options_.host, dst_it->second->port,
                             &in_progress);
    if (fd < 0) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto link = std::make_unique<Link>();
    link->src = src;
    link->dst = dst;
    link->fd = fd;
    link->connecting = in_progress;
    link->dialed = std::chrono::steady_clock::now();
    Hello hello;
    hello.role = Hello::Role::kReplication;
    hello.source = src;
    link->out = EncodeFrame(MsgType::kHello, EncodeHello(hello));
    Link* raw = link.get();
    loop_->AddFd(fd, EPOLLOUT | EPOLLRDHUP, [this, key, raw](uint32_t events) {
      if (events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP)) {
        CloseLink(key, /*count_severed=*/false);
        return;
      }
      if (raw->connecting) {
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        getsockopt(raw->fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
        if (soerr != 0) {
          CloseLink(key, /*count_severed=*/false);
          return;
        }
        raw->connecting = false;
      }
      FlushLink(raw);
    });
    it = links_.emplace(key, std::move(link)).first;
  }
  Link* link = it->second.get();
  if ((link->out.size() - link->off) + bytes.size() >
      options_.max_link_queue) {
    // The link is backed up past the cap: drop this message whole. The
    // replication protocol retransmits; unbounded buffering is the one
    // thing we refuse to do.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  link->out.append(bytes);
  if (!link->connecting) FlushLink(link);
}

void SocketTransport::FlushLink(Link* link) {
  while (link->off < link->out.size()) {
    ssize_t n = send(link->fd, link->out.data() + link->off,
                     link->out.size() - link->off, MSG_NOSIGNAL);
    if (n > 0) {
      link->off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      break;
    }
    // Peer killed the connection (garble rejection, chaos, death). The
    // queued bytes die with it; redial happens on the next send.
    CloseLink({link->src, link->dst}, /*count_severed=*/false);
    return;
  }
  if (link->off >= link->out.size()) {
    link->out.clear();
    link->off = 0;
  }
  const uint32_t events =
      (link->connecting || link->off < link->out.size() ? EPOLLOUT : 0u) |
      EPOLLRDHUP;
  loop_->ModFd(link->fd, events);
}

void SocketTransport::CloseLink(
    const std::pair<std::string, std::string>& key, bool count_severed) {
  auto it = links_.find(key);
  if (it == links_.end()) return;
  loop_->DelFd(it->second->fd);
  close(it->second->fd);
  links_.erase(it);
  if (count_severed) severed_.fetch_add(1, std::memory_order_relaxed);
}

void SocketTransport::CloseInConn(int fd, bool count_severed) {
  auto it = in_conns_.find(fd);
  if (it == in_conns_.end()) return;
  loop_->DelFd(fd);
  close(fd);
  in_conns_.erase(it);
  if (count_severed) severed_.fetch_add(1, std::memory_order_relaxed);
}

void SocketTransport::AcceptReady(const std::string& node) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  for (;;) {
    int fd = accept4(it->second->listen_fd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    auto in = std::make_unique<InConn>();
    in->fd = fd;
    in->local = node;
    in->decoder = FrameDecoder(
        FrameDecoder::Options{.max_payload = options_.max_frame_payload});
    in_conns_[fd] = std::move(in);
    loop_->AddFd(fd, EPOLLIN, [this, fd](uint32_t events) {
      if (events & (EPOLLERR | EPOLLHUP)) {
        CloseInConn(fd, /*count_severed=*/false);
        return;
      }
      if (events & EPOLLIN) InConnReadable(fd);
    });
  }
}

void SocketTransport::InConnReadable(int fd) {
  auto it = in_conns_.find(fd);
  if (it == in_conns_.end()) return;
  InConn* in = it->second.get();
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n == 0) {
      CloseInConn(fd, /*count_severed=*/false);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      CloseInConn(fd, /*count_severed=*/false);
      return;
    }
    if (!in->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)))) {
      rejected_frames_.fetch_add(1, std::memory_order_relaxed);
      CloseInConn(fd, /*count_severed=*/false);
      return;
    }
    Frame frame;
    for (;;) {
      auto result = in->decoder.Next(&frame);
      if (result == FrameDecoder::Result::kNeedMore) break;
      if (result == FrameDecoder::Result::kError) {
        // Corruption on the wire (garble chaos or a real fault): the
        // stream is untrustworthy from here — kill the connection and
        // let the sender redial. Retransmission redelivers.
        rejected_frames_.fetch_add(1, std::memory_order_relaxed);
        CloseInConn(fd, /*count_severed=*/false);
        return;
      }
      if (!in->hello_done) {
        auto hello = frame.type == MsgType::kHello
                         ? DecodeHello(frame.payload)
                         : std::nullopt;
        if (!hello || hello->role != Hello::Role::kReplication ||
            hello->protocol_version != kProtocolVersion) {
          rejected_frames_.fetch_add(1, std::memory_order_relaxed);
          CloseInConn(fd, /*count_severed=*/false);
          return;
        }
        in->peer = hello->source;
        in->hello_done = true;
        continue;
      }
      if (!Deliver(in->peer, in->local, frame)) {
        rejected_frames_.fetch_add(1, std::memory_order_relaxed);
        CloseInConn(fd, /*count_severed=*/false);
        return;
      }
      // Deliver may have triggered lifecycle activity that closed this
      // very connection (e.g. an endpoint reacting to a shipment while
      // a concurrent Unbind queued our node's teardown ran inline).
      it = in_conns_.find(fd);
      if (it == in_conns_.end() || it->second.get() != in) return;
    }
  }
}

bool SocketTransport::Deliver(const std::string& peer,
                              const std::string& local, const Frame& frame) {
  if (Blocked(peer, local)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return true;  // partitioned traffic vanishes; the conn itself is cut
                  // by Partition/Isolate, this is the in-flight tail
  }
  auto it = nodes_.find(local);
  replication::ReplicationEndpoint* endpoint =
      it != nodes_.end() ? it->second->endpoint : nullptr;
  if (endpoint == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);  // receiver died
    return true;
  }
  const std::optional<replication::Message> message = DecodeReplication(frame);
  if (!message || replication::From(*message) != peer ||
      replication::To(*message) != local) {
    return false;
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  endpoint->OnMessage(*message);
  return true;
}

void SocketTransport::Partition(const std::string& src,
                                const std::string& dst) {
  RunSync([&] {
    partitions_.insert({src, dst});
    CloseLink({src, dst}, /*count_severed=*/true);
    std::vector<int> cut;
    for (const auto& [fd, in] : in_conns_) {
      if (in->peer == src && in->local == dst) cut.push_back(fd);
    }
    for (int fd : cut) CloseInConn(fd, /*count_severed=*/true);
  });
}

void SocketTransport::Heal(const std::string& src, const std::string& dst) {
  RunSync([&] { partitions_.erase({src, dst}); });
}

void SocketTransport::Isolate(const std::string& node) {
  RunSync([&] {
    isolated_.insert(node);
    std::vector<std::pair<std::string, std::string>> dead_links;
    for (const auto& [key, link] : links_) {
      if (key.first == node || key.second == node) dead_links.push_back(key);
    }
    for (const auto& key : dead_links) CloseLink(key, /*count_severed=*/true);
    std::vector<int> cut;
    for (const auto& [fd, in] : in_conns_) {
      if (in->local == node || in->peer == node) cut.push_back(fd);
    }
    for (int fd : cut) CloseInConn(fd, /*count_severed=*/true);
  });
}

void SocketTransport::Rejoin(const std::string& node) {
  RunSync([&] { isolated_.erase(node); });
}

void SocketTransport::Sever(const std::string& node) {
  RunSync([&] {
    std::vector<std::pair<std::string, std::string>> dead_links;
    for (const auto& [key, link] : links_) {
      if (key.first == node || key.second == node) dead_links.push_back(key);
    }
    for (const auto& key : dead_links) CloseLink(key, /*count_severed=*/true);
    std::vector<int> cut;
    for (const auto& [fd, in] : in_conns_) {
      if (in->local == node || in->peer == node) cut.push_back(fd);
    }
    for (int fd : cut) CloseInConn(fd, /*count_severed=*/true);
  });
}

void SocketTransport::SeverAll() {
  RunSync([&] {
    std::vector<std::pair<std::string, std::string>> dead_links;
    for (const auto& [key, link] : links_) dead_links.push_back(key);
    for (const auto& key : dead_links) CloseLink(key, /*count_severed=*/true);
    std::vector<int> cut;
    for (const auto& [fd, in] : in_conns_) cut.push_back(fd);
    for (int fd : cut) CloseInConn(fd, /*count_severed=*/true);
  });
}

uint16_t SocketTransport::ListenPort(const std::string& node) {
  uint16_t port = 0;
  RunSync([&] {
    auto it = nodes_.find(node);
    if (it != nodes_.end()) port = it->second->port;
  });
  return port;
}

std::string SocketTransport::DebugString() {
  // 5-tuple + kernel queue depths per fd: `lp`/`rp` are the local and
  // remote ports (ties a link to the in-conn carrying its bytes), `inq`
  // and `outq` the unread receive / unsent send bytes (SIOCINQ /
  // SIOCOUTQ) — a sink shows up as inq piling on a conn nobody reads.
  auto conn_info = [](int fd) {
    sockaddr_in local{};
    sockaddr_in remote{};
    socklen_t len = sizeof(local);
    std::string out;
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) == 0) {
      out += ":lp" + std::to_string(ntohs(local.sin_port));
    }
    len = sizeof(remote);
    if (getpeername(fd, reinterpret_cast<sockaddr*>(&remote), &len) == 0) {
      out += ":rp" + std::to_string(ntohs(remote.sin_port));
    }
    int pending = 0;
    if (ioctl(fd, SIOCINQ, &pending) == 0) {
      out += ":inq" + std::to_string(pending);
    }
    if (ioctl(fd, SIOCOUTQ, &pending) == 0) {
      out += ":outq" + std::to_string(pending);
    }
    return out;
  };
  std::string out;
  RunSync([&] {
    out += "nodes{";
    for (const auto& [id, state] : nodes_) {
      out += id + ":" + std::to_string(state->port) + " ";
    }
    out += "} links{";
    for (const auto& [key, link] : links_) {
      out += key.first + ">" + key.second +
             (link->connecting ? ":dialing" : ":up") + ":q" +
             std::to_string(link->out.size() - link->off) +
             conn_info(link->fd) + " ";
    }
    out += "} in{";
    for (const auto& [fd, in] : in_conns_) {
      out += in->peer + ">" + in->local + conn_info(fd) + " ";
    }
    out += "} cut{";
    for (const auto& [src, dst] : partitions_) {
      out += src + ">" + dst + " ";
    }
    out += "} iso{";
    for (const std::string& id : isolated_) out += id + " ";
    out += "}";
  });
  return out;
}

void SocketTransport::Sweep() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::pair<std::string, std::string>> stale;
  for (const auto& [key, link] : links_) {
    if (link->connecting && now - link->dialed > options_.connect_timeout) {
      stale.push_back(key);
    }
  }
  for (const auto& key : stale) CloseLink(key, /*count_severed=*/false);
}

}  // namespace sws::net
