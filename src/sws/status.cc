#include "sws/status.h"

namespace sws::core {

const char* RunErrorName(RunError error) {
  switch (error) {
    case RunError::kNone:
      return "OK";
    case RunError::kBudgetExceeded:
      return "BUDGET_EXCEEDED";
    case RunError::kInjectedFault:
      return "INJECTED_FAULT";
    case RunError::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case RunError::kQueueRejected:
      return "QUEUE_REJECTED";
    case RunError::kCircuitOpen:
      return "CIRCUIT_OPEN";
    case RunError::kShutdown:
      return "SHUTDOWN";
    case RunError::kStorageFailure:
      return "STORAGE_FAILURE";
    case RunError::kFuelExhausted:
      return "FUEL_EXHAUSTED";
    case RunError::kReplicationTimeout:
      return "REPLICATION_TIMEOUT";
    case RunError::kProtocolError:
      return "PROTOCOL_ERROR";
    case RunError::kNetworkError:
      return "NETWORK_ERROR";
    case RunError::kInvalidInput:
      return "INVALID_INPUT";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = RunErrorName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace sws::core
