#ifndef SWS_UTIL_CANCELLATION_H_
#define SWS_UTIL_CANCELLATION_H_

#include <cstdint>

namespace sws::util {

/// The cooperative-interruption seam between the query-evaluation layer
/// (logic/, relational/) and the resource-governance layer (sws/,
/// runtime/). The lower layers cannot depend on sws::core, so they talk
/// to an abstract gate installed in thread-local state: evaluation loops
/// call StepTick() per unit of work (one candidate tuple of the join
/// bytecode, one active-domain value) and unwind when it returns
/// false. The concrete gate — sws::core::ExecutionGovernor — charges the
/// batched steps against its fuel budget and in-query deadline.
///
/// Paying sites keep the fast path to a thread-local load, a decrement
/// and a branch: the gate's Admit() runs only once per kStepBatch ticks.
/// Code that runs with no gate installed (analysis, tests, plain query
/// evaluation) pays a thread-local load and a null check.
class StepGate {
 public:
  virtual ~StepGate() = default;

  /// Charges `steps` units of evaluation work. Returns false iff
  /// evaluation must stop (budget exhausted, deadline passed, or an
  /// external cancellation). Once false, every later call must also
  /// return false (cancellation is sticky) so unwinding loops stop at
  /// their first tick.
  virtual bool Admit(uint64_t steps) = 0;

  /// Tracks cache-byte usage (positive = allocated, negative =
  /// released). Purely accounting — never vetoes; the gate may react on
  /// the next Admit (e.g. cancel a run over its tracked-byte budget).
  virtual void OnBytes(int64_t delta) = 0;
};

/// Ticks between two Admit() calls. Chosen so the slow path (a clock
/// read in the governor) amortizes to noise against per-tuple work while
/// still bounding cancellation latency to a few hundred tuples.
inline constexpr uint32_t kStepBatch = 256;

struct StepGateState {
  StepGate* gate = nullptr;
  uint32_t countdown = 0;  // ticks left before the next Admit
  bool stopped = false;    // the gate said stop; sticky until reinstall
};

inline StepGateState& ThreadStepGate() {
  thread_local StepGateState state;
  return state;
}

/// Per-unit-of-work tick. Returns false iff the installed gate stopped
/// evaluation; callers unwind (their partial results are discarded by
/// the governed caller). With no gate installed, always true.
inline bool StepTick() {
  StepGateState& s = ThreadStepGate();
  if (s.gate == nullptr) return true;
  if (s.stopped) return false;
  if (--s.countdown != 0) return true;
  s.countdown = kStepBatch;
  if (s.gate->Admit(kStepBatch)) return true;
  s.stopped = true;
  return false;
}

/// True iff a gate is installed and has stopped evaluation — for code
/// that must not publish partially-built derived state (e.g. the
/// active-domain cache) after a cancelled build.
inline bool StepGateStopped() {
  const StepGateState& s = ThreadStepGate();
  return s.gate != nullptr && s.stopped;
}

/// Reports cache bytes to the installed gate; no-op without one.
inline void ChargeGateBytes(int64_t delta) {
  StepGateState& s = ThreadStepGate();
  if (s.gate != nullptr && delta != 0) s.gate->OnBytes(delta);
}

/// RAII installer. Scopes nest: the previous gate is restored on exit,
/// and the partially-consumed tick batch is flushed to the outgoing gate
/// so fuel accounting stays accurate to the batch across scopes.
class ScopedStepGate {
 public:
  explicit ScopedStepGate(StepGate* gate) : saved_(ThreadStepGate()) {
    StepGateState& s = ThreadStepGate();
    s.gate = gate;
    s.countdown = kStepBatch;
    s.stopped = false;
  }
  ~ScopedStepGate() {
    StepGateState& s = ThreadStepGate();
    if (s.gate != nullptr && !s.stopped && s.countdown < kStepBatch) {
      s.gate->Admit(kStepBatch - s.countdown);  // flush the partial batch
    }
    s = saved_;
  }

  ScopedStepGate(const ScopedStepGate&) = delete;
  ScopedStepGate& operator=(const ScopedStepGate&) = delete;

 private:
  StepGateState saved_;
};

}  // namespace sws::util

#endif  // SWS_UTIL_CANCELLATION_H_
