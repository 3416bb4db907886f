#ifndef SWS_SWS_STATUS_H_
#define SWS_SWS_STATUS_H_

#include <cstdint>
#include <string>

namespace sws::core {

/// The error taxonomy of the serving stack. The paper's execution model
/// is all-or-nothing — a run either completes and yields τ(D, I) or it
/// does not — so every failure mode below is a *serving* condition
/// layered on top of the paper's semantics, never a partial result:
/// a failed run commits nothing and produces an empty output.
enum class RunError : uint8_t {
  kNone = 0,          // success
  kBudgetExceeded,    // the run tripped RunOptions::max_nodes
  kInjectedFault,     // a FaultInjector aborted the run (tests/chaos)
  kDeadlineExceeded,  // the request missed its deadline
  kQueueRejected,     // admission refused the request (full queue / shed)
  kCircuitOpen,       // the session's circuit breaker is fast-failing
  kShutdown,          // the runtime is shut down
  kStorageFailure,    // the durability layer could not journal/persist
  kFuelExhausted,     // the run tripped an evaluation-fuel / byte budget
  kReplicationTimeout,  // the follower ack quorum was not reached in time
  kProtocolError,     // a peer sent a malformed/invalid wire frame
  kNetworkError,      // a socket operation failed (bind, connect, send)
  kInvalidInput,      // a submitted message does not fit the input schema
};

const char* RunErrorName(RunError error);

/// A Status-style result: ok() or a RunError plus an optional message.
/// The library does not use exceptions (Google style); fallible
/// operations return a Status (or embed one in their outcome struct).
/// The default-constructed Status is OK and allocates nothing.
class Status {
 public:
  Status() = default;  // OK
  static Status Ok() { return Status(); }
  static Status Error(RunError code, std::string message = {}) {
    Status s;
    s.code_ = code;
    s.message_ = std::move(message);
    return s;
  }

  bool ok() const { return code_ == RunError::kNone; }
  explicit operator bool() const { return ok(); }
  RunError code() const { return code_; }
  const std::string& message() const { return message_; }
  /// "OK" or "<error name>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  RunError code_ = RunError::kNone;
  std::string message_;
};

}  // namespace sws::core

#endif  // SWS_SWS_STATUS_H_
