#include "sws/session.h"

#include <algorithm>
#include <thread>

#include "util/common.h"

namespace sws::core {

SessionRunner::SessionRunner(const Sws* sws, rel::Database initial_db)
    : sws_(sws), db_(std::move(initial_db)), pending_(sws->rin_arity()) {
  SWS_CHECK(sws != nullptr);
}

SessionRunner::SessionRunner(const Sws* sws, rel::Database db,
                             rel::InputSequence pending)
    : sws_(sws), db_(std::move(db)), pending_(std::move(pending)) {
  SWS_CHECK(sws != nullptr);
  SWS_CHECK_EQ(pending_.message_arity(), sws->rin_arity())
      << "restored pending buffer has the wrong message arity";
}

rel::Relation SessionRunner::DelimiterMessage(size_t arity) {
  SWS_CHECK_GE(arity, 1u) << "delimiters need at least one attribute";
  rel::Tuple t;
  t.push_back(rel::Value::Str("#"));
  for (size_t i = 1; i < arity; ++i) t.push_back(rel::Value::Null(0));
  rel::Relation message(arity);
  message.Insert(std::move(t));
  return message;
}

bool SessionRunner::IsDelimiter(const rel::Relation& message) {
  if (message.size() != 1 || message.arity() == 0) return false;
  const rel::Value& v = message.At(0, 0);
  return v.is_string() && v.AsString() == "#";
}

std::optional<SessionRunner::SessionOutcome> SessionRunner::Feed(
    rel::Relation message, const RunOptions& options) {
  if (!IsDelimiter(message)) {
    pending_.Append(std::move(message));
    return std::nullopt;
  }
  SessionOutcome outcome;
  outcome.session_length = pending_.size();
  RunResult run = Run(*sws_, db_, pending_, options);
  // Retry transient failures with capped backoff + decorrelated jitter,
  // never past the deadline. Replay-safe: a failed run committed nothing
  // and `pending_` is still intact, so each attempt re-runs the same
  // (D, I_session) — by the paper's determinism, an idempotent replay.
  Backoff backoff(options.retry, outcome.session_length);
  while (!run.status.ok() && IsRetryable(run.status.code()) &&
         outcome.attempts < options.retry.max_attempts) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= options.deadline) {
      run.status = Status::Error(RunError::kDeadlineExceeded,
                                 "deadline expired during retry");
      break;
    }
    auto wait = backoff.Next();
    if (options.deadline != std::chrono::steady_clock::time_point::max()) {
      wait = std::min(wait, std::chrono::duration_cast<std::chrono::microseconds>(
                                options.deadline - now));
    }
    if (wait.count() > 0) {
      // Governed requests sleep interruptibly: a watchdog cancel (or the
      // deadline passing mid-backoff) ends the retry loop immediately
      // with the governor's typed status instead of sleeping it out.
      if (options.governor != nullptr) {
        if (!options.governor->SleepInterruptible(wait)) {
          run.status = options.governor->status();
          break;
        }
      } else {
        std::this_thread::sleep_for(wait);
      }
    }
    run = Run(*sws_, db_, pending_, options);
    ++outcome.attempts;
  }
  outcome.status = run.status;
  outcome.run_nodes = run.num_nodes;
  outcome.memo_hits = run.memo_hits;
  outcome.memo_misses = run.memo_misses;
  outcome.logical_nodes = run.logical_nodes;
  outcome.memo_evictions = run.memo_evictions;
  if (run.status.ok()) {
    outcome.output = run.output;
    outcome.commit = rel::CommitOutput(run.output, &db_);
  } else {
    outcome.output = rel::Relation(sws_->rout_arity());
  }
  pending_ = rel::InputSequence(sws_->rin_arity());
  return outcome;
}

void SessionRunner::DiscardPending() {
  pending_ = rel::InputSequence(sws_->rin_arity());
}

std::vector<SessionRunner::SessionOutcome> SessionRunner::FeedStream(
    const std::vector<rel::Relation>& stream, const RunOptions& options) {
  std::vector<SessionOutcome> outcomes;
  for (const rel::Relation& message : stream) {
    if (auto outcome = Feed(message, options); outcome.has_value()) {
      outcomes.push_back(std::move(*outcome));
    }
  }
  return outcomes;
}

}  // namespace sws::core
