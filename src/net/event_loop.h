#ifndef SWS_NET_EVENT_LOOP_H_
#define SWS_NET_EVENT_LOOP_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace sws::net {

/// A minimal epoll reactor: one owner thread calls Run(); fd handlers,
/// queued closures and the periodic tick all execute on that thread, so
/// everything the loop owns (its handler map, its owners' connection
/// maps) is single-threaded by construction. The cross-thread surface
/// is RunInLoop/Stop, which are mutex-guarded and wake the loop via an
/// eventfd, and ModFd. Both the RPC server and the socket replication
/// transport run one of these.
class EventLoop {
 public:
  /// Called with the epoll event mask (EPOLLIN/EPOLLOUT/EPOLLHUP/...).
  using FdHandler = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Fd registration. AddFd and DelFd are loop-thread only (or while Run
  /// is not running). The handler is copied out before each invocation,
  /// so it may DelFd its own fd (typical close-on-error path).
  void AddFd(int fd, uint32_t events, FdHandler handler);
  /// Safe from any thread: epoll_ctl is thread-safe and this touches no
  /// loop-owned state. The caller must keep `fd` registered meanwhile;
  /// the RPC server arms EPOLLOUT from runtime workers under the
  /// connection's mutex, which it takes before DelFd.
  void ModFd(int fd, uint32_t events);
  void DelFd(int fd);

  /// Runs until Stop(). The calling thread becomes the loop thread.
  void Run();

  /// Requests exit; safe from any thread. Run returns after finishing
  /// the current dispatch batch (queued closures included).
  void Stop();

  /// Enqueues a closure for the loop thread and wakes it; safe from any
  /// thread, including fd handlers. This is how non-loop threads touch
  /// loop-owned state. Closures enqueued after Stop() are discarded.
  void RunInLoop(std::function<void()> fn);

  /// Periodic housekeeping (idle reaping, deadline sweeps). One tick
  /// function; set before Run.
  void SetTick(std::chrono::milliseconds period, std::function<void()> fn);

 private:
  void Wake();
  void DrainQueue();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  // Loop-thread-owned.
  std::unordered_map<int, FdHandler> handlers_;
  std::chrono::milliseconds tick_period_{0};
  std::function<void()> tick_;
  // Cross-thread surface.
  std::mutex mu_;
  bool stop_ = false;
  std::vector<std::function<void()>> queue_;
};

}  // namespace sws::net

#endif  // SWS_NET_EVENT_LOOP_H_
