#include "replication/transport.h"

namespace sws::replication {

using core::FaultPoint;

InProcessTransport::InProcessTransport(core::FaultInjector* injector)
    : injector_(injector), thread_([this] { DeliveryLoop(); }) {}

InProcessTransport::~InProcessTransport() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void InProcessTransport::Bind(const std::string& node,
                              ReplicationEndpoint* endpoint) {
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& entry = slots_[node];
    if (!entry) entry = std::make_shared<Slot>();
    slot = entry;
  }
  std::lock_guard<std::mutex> slot_lock(slot->mu);
  slot->endpoint = endpoint;
}

void InProcessTransport::Unbind(const std::string& node) {
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(node);
    if (it == slots_.end()) return;
    slot = it->second;
  }
  // Taking the slot mutex waits out any delivery in flight; clearing the
  // endpoint under it guarantees no call after we return.
  std::lock_guard<std::mutex> slot_lock(slot->mu);
  slot->endpoint = nullptr;
}

bool InProcessTransport::Blocked(const std::string& src,
                                 const std::string& dst) const {
  return isolated_.count(src) > 0 || isolated_.count(dst) > 0 ||
         partitions_.count({src, dst}) > 0;
}

void InProcessTransport::Send(Message message) {
  const auto now = std::chrono::steady_clock::now();
  std::chrono::microseconds extra{0};
  bool duplicate = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string& src = From(message);
    const std::string& dst = To(message);
    if (stop_ || Blocked(src, dst)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (injector_ != nullptr) {
      const core::FaultOptions& fo = injector_->options();
      if (injector_->Draw(FaultPoint::kTransportDrop, fo.transport_drop_rate)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      duplicate = injector_->Draw(FaultPoint::kTransportDuplicate,
                                  fo.transport_duplicate_rate);
      std::chrono::microseconds penalty = fo.transport_delay;
      if (penalty.count() == 0) penalty = std::chrono::microseconds(200);
      if (injector_->Draw(FaultPoint::kTransportDelay,
                          fo.transport_delay_rate)) {
        extra += penalty;
      }
      if (injector_->Draw(FaultPoint::kTransportReorder,
                          fo.transport_reorder_rate)) {
        extra += 4 * penalty;
        reordered_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    auto lag = link_lag_.find({src, dst});
    if (lag != link_lag_.end()) extra += lag->second;
    const auto due = now + extra;
    if (duplicate) {
      duplicated_.fetch_add(1, std::memory_order_relaxed);
      queue_.push(Event{message, due, next_order_++});
    }
    queue_.push(Event{std::move(message), due, next_order_++});
  }
  cv_.notify_all();
}

void InProcessTransport::Partition(const std::string& src,
                                   const std::string& dst) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.insert({src, dst});
}

void InProcessTransport::Heal(const std::string& src, const std::string& dst) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.erase({src, dst});
}

void InProcessTransport::Isolate(const std::string& node) {
  std::lock_guard<std::mutex> lock(mu_);
  isolated_.insert(node);
}

void InProcessTransport::Rejoin(const std::string& node) {
  std::lock_guard<std::mutex> lock(mu_);
  isolated_.erase(node);
}

void InProcessTransport::SetLinkLag(const std::string& src,
                                    const std::string& dst,
                                    std::chrono::microseconds lag) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lag.count() <= 0) {
    link_lag_.erase({src, dst});
  } else {
    link_lag_[{src, dst}] = lag;
  }
}

void InProcessTransport::DeliveryLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (queue_.empty()) {
      if (stop_) return;
      cv_.wait(lock);
      continue;
    }
    const auto due = queue_.top().due;
    const auto now = std::chrono::steady_clock::now();
    if (due > now && !stop_) {
      cv_.wait_until(lock, due);
      continue;
    }
    Event event = queue_.top();
    queue_.pop();
    // A killed node is isolated *and* unbound; drop in-flight messages
    // to it like a crashed receiver drops packets. Re-check under mu_
    // because the partition may have been installed after submission.
    std::shared_ptr<Slot> slot;
    const std::string& dst = To(event.message);
    auto it = slots_.find(dst);
    if (it != slots_.end() && !Blocked(From(event.message), dst)) {
      slot = it->second;
    }
    lock.unlock();
    if (slot != nullptr) {
      std::lock_guard<std::mutex> slot_lock(slot->mu);
      if (slot->endpoint != nullptr) {
        delivered_.fetch_add(1, std::memory_order_relaxed);
        slot->endpoint->OnMessage(event.message);
      } else {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    lock.lock();
  }
}

}  // namespace sws::replication
