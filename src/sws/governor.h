#ifndef SWS_SWS_GOVERNOR_H_
#define SWS_SWS_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "sws/status.h"
#include "util/cancellation.h"

namespace sws::core {

/// A cancellation token plus a hierarchy of resource budgets for one
/// governed scope of work (typically one Engine::Execute run, parented
/// to a runtime-wide root governor).
///
/// Three budgets, all optional (zero / time_point::max() = unlimited):
///   - deadline:        a steady-clock point after which Admit cancels
///                      the run with kDeadlineExceeded;
///   - max_eval_steps:  "fuel" — total evaluation steps (candidate
///                      tuples probed, active-domain values collected,
///                      …) before Admit cancels with kFuelExhausted;
///   - max_tracked_bytes: cache bytes attributed to this governor
///                      (memo entries + relation indexes) before the
///                      *next* Admit cancels with kFuelExhausted.
///
/// Cancellation is sticky and first-writer-wins: the first Cancel()
/// (internal from a tripped budget, or external from a watchdog) fixes
/// the status every later observer sees. Steps and bytes propagate to
/// the parent so a runtime root governor sees live global usage, and a
/// cancelled parent cancels every child at the child's next Admit.
///
/// Thread-safety: fully thread-safe. Admit/OnBytes are called from the
/// worker thread running the evaluation; Cancel/SleepInterruptible/
/// status/tracked_bytes may race from watchdog or client threads.
class ExecutionGovernor final : public util::StepGate {
 public:
  struct Limits {
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    uint64_t max_eval_steps = 0;   // 0 = unlimited
    uint64_t max_tracked_bytes = 0;  // 0 = unlimited
  };

  // (A default argument of Limits{} trips a gcc quirk — NSDMI of a
  // nested class in an enclosing class's default argument — so the
  // unlimited case gets its own delegating constructor.)
  ExecutionGovernor() : ExecutionGovernor(Limits{}, nullptr) {}
  explicit ExecutionGovernor(Limits limits,
                             ExecutionGovernor* parent = nullptr)
      : limits_(limits), parent_(parent) {}

  // StepGate -----------------------------------------------------------

  /// Charges `steps` against fuel, checks deadline / byte budget /
  /// external cancellation, and propagates the charge to the parent.
  /// Returns false iff this governor (or an ancestor) is cancelled.
  bool Admit(uint64_t steps) override;

  /// Attributes cache bytes (delta may be negative on release) to this
  /// governor and every ancestor. Never blocks, never cancels directly;
  /// an exceeded byte budget trips at the next Admit.
  void OnBytes(int64_t delta) override;

  // Cancellation -------------------------------------------------------

  /// Cancels this scope with the given typed error. Sticky: only the
  /// first call records its error; later calls are no-ops. Returns true
  /// iff this call was the one that cancelled (so callers can count
  /// "watchdog cancels" without double-counting). Wakes any
  /// SleepInterruptible waiter.
  bool Cancel(RunError error, std::string message);

  bool cancelled() const {
    return code_.load(std::memory_order_acquire) != RunError::kNone ||
           (parent_ != nullptr && parent_->cancelled());
  }

  /// Ok() until cancelled; afterwards the sticky typed error. If only an
  /// ancestor is cancelled, returns the ancestor's status.
  Status status() const;

  // Interruptible waiting ---------------------------------------------

  /// Sleeps up to `duration`, waking early when this governor (or an
  /// ancestor) is cancelled. Also enforces the deadline: if it passes
  /// mid-sleep the governor self-cancels with kDeadlineExceeded and the
  /// sleep returns. Returns true iff the full duration elapsed without
  /// cancellation — i.e. the caller may proceed.
  bool SleepInterruptible(std::chrono::nanoseconds duration);

  // Introspection ------------------------------------------------------

  /// Live cache bytes currently attributed to this governor (including
  /// descendants' charges, which propagate up).
  int64_t tracked_bytes() const {
    return tracked_bytes_.load(std::memory_order_relaxed);
  }
  /// High-water mark of tracked_bytes() over this governor's lifetime.
  int64_t tracked_bytes_peak() const {
    return tracked_bytes_peak_.load(std::memory_order_relaxed);
  }
  uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }
  const Limits& limits() const { return limits_; }
  ExecutionGovernor* parent() const { return parent_; }

 private:
  const Limits limits_;
  ExecutionGovernor* const parent_;

  // kNone until the first Cancel; the winning error code. message_ is
  // written once under mu_ by the winner before code_ is published.
  std::atomic<RunError> code_{RunError::kNone};
  std::string message_;

  std::atomic<uint64_t> steps_{0};
  std::atomic<int64_t> tracked_bytes_{0};
  std::atomic<int64_t> tracked_bytes_peak_{0};

  mutable std::mutex mu_;  // guards message_ and the sleep cv
  std::condition_variable cv_;
};

}  // namespace sws::core

#endif  // SWS_SWS_GOVERNOR_H_
