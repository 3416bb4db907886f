#include "persistence/recovery.h"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "persistence/serde.h"
#include "sws/execution.h"
#include "sws/session.h"

namespace sws::persistence {

namespace {

/// Retries for transiently failing segment reads (injected short reads)
/// before giving up.
constexpr uint32_t kMaxReadRetries = 3;

/// Journaled history of one session, keyed by seq with keep-first dedup
/// (a record can at most repeat across a consolidation crash window; the
/// first copy is as good as any — they are byte-identical).
struct SessionEvents {
  std::map<uint64_t, JournalRecord> inputs;
  std::map<uint64_t, JournalRecord> outcomes;
  std::map<uint64_t, JournalRecord> discards;
};

bool InsertKeepFirst(std::map<uint64_t, JournalRecord>* events,
                     JournalRecord record) {
  return events->emplace(record.seq, std::move(record)).second;
}

}  // namespace

RecoveryManager::RecoveryManager(std::string dir, const core::Sws* sws,
                                 rel::Database seed_db,
                                 RecoveryOptions options,
                                 core::FaultInjector* fault_injector)
    : dir_(std::move(dir)),
      sws_(sws),
      seed_db_(std::move(seed_db)),
      options_(options),
      fault_injector_(fault_injector) {}

RecoveryResult RecoveryManager::Run(bool mutate) {
  RecoveryResult result;
  const uint64_t fingerprint = SwsFingerprint(*sws_);

  auto read_with_retry = [&](auto&& read) {
    core::Status status;
    for (uint32_t attempt = 0;; ++attempt) {
      status = read();
      if (status.ok() || attempt >= kMaxReadRetries) return status;
      ++result.stats.short_read_retries;
    }
  };

  std::vector<DurableFile> files;
  result.status = ListDurableFiles(dir_, &files);
  if (!result.status.ok()) return result;

  // Phase 1 — merge snapshots. Per session the image with the largest
  // next_seq wins: a later snapshot subsumes an earlier one, and across
  // a consolidation crash window both the consolidated and the subsumed
  // per-shard snapshots may coexist.
  uint64_t max_incarnation = 0;
  for (const DurableFile& file : files) {
    if (!file.is_snapshot) continue;
    const std::string path = dir_ + "/" + file.name;
    SnapshotData snap;
    result.status = read_with_retry(
        [&] { return ReadSnapshot(path, fault_injector_, &snap); });
    if (!result.status.ok()) return result;
    if (snap.header.service_fingerprint != fingerprint) {
      result.status = core::Status::Error(
          core::RunError::kStorageFailure,
          "snapshot " + file.name + " was written by a different service");
      return result;
    }
    max_incarnation = std::max(max_incarnation, snap.header.incarnation);
    ++result.stats.snapshots_loaded;
    for (SessionImage& image : snap.sessions) {
      auto [it, inserted] =
          result.sessions.try_emplace(image.session_id, std::move(image));
      if (!inserted && image.next_seq > it->second.next_seq) {
        it->second = std::move(image);
      }
    }
  }

  // Phase 2 — scan journal segments, truncating torn tails.
  std::map<std::string, SessionEvents> events;
  for (const DurableFile& file : files) {
    if (file.is_snapshot) continue;
    const std::string path = dir_ + "/" + file.name;
    SegmentContents seg;
    result.status = read_with_retry(
        [&] { return ReadSegment(path, fault_injector_, &seg); });
    if (!result.status.ok()) return result;
    ++result.stats.segments_scanned;
    if (seg.valid_bytes > 0 &&
        seg.header.service_fingerprint != fingerprint) {
      result.status = core::Status::Error(
          core::RunError::kStorageFailure,
          "segment " + file.name + " was written by a different service");
      return result;
    }
    max_incarnation = std::max(max_incarnation, seg.header.incarnation);
    if (seg.torn && mutate) {
      result.status = TruncateTornTail(path, seg.valid_bytes);
      if (!result.status.ok()) return result;
      ++result.stats.torn_tails_truncated;
    }
    for (JournalRecord& record : seg.records) {
      ++result.stats.records_scanned;
      SessionEvents& se = events[record.session_id];
      std::map<uint64_t, JournalRecord>* bucket = nullptr;
      switch (record.type) {
        case JournalRecord::Type::kInput:
          bucket = &se.inputs;
          break;
        case JournalRecord::Type::kOutcome:
          bucket = &se.outcomes;
          break;
        case JournalRecord::Type::kDiscard:
          bucket = &se.discards;
          break;
      }
      if (!InsertKeepFirst(bucket, std::move(record))) {
        ++result.stats.duplicate_records;
      }
    }
  }
  result.next_incarnation = max_incarnation + 1;

  // Phase 3 — deterministic replay. Events at seq < the merged image's
  // next_seq are already reflected in the snapshot; the rest re-run
  // through the same SessionRunner::Feed path the live runtime uses,
  // with a clean RunOptions (no injector, no retry, no deadline —
  // replay must be the pure τ).
  core::RunOptions run_options;
  run_options.memoize = true;
  run_options.max_nodes = options_.run_max_nodes;
  for (auto& [session_id, se] : events) {
    auto [it, inserted] = result.sessions.try_emplace(
        session_id,
        SessionImage{session_id, seed_db_,
                     rel::InputSequence(sws_->rin_arity()), 0});
    SessionImage& image = it->second;
    core::SessionRunner runner(sws_, std::move(image.db),
                               std::move(image.pending));
    uint64_t next_seq = image.next_seq;

    // Merge inputs and discards in (seq, discard-before-input) order: a
    // discard at seq s happened after inputs [0, s) and before input s.
    auto input_it = se.inputs.lower_bound(next_seq);
    auto discard_it = se.discards.lower_bound(next_seq);
    bool gap = false;
    while (!gap && (input_it != se.inputs.end() ||
                    discard_it != se.discards.end())) {
      const bool discard_first =
          discard_it != se.discards.end() &&
          (input_it == se.inputs.end() ||
           discard_it->first <= input_it->first);
      if (discard_first) {
        // Idempotent: if the snapshot already reflects the discard the
        // pending buffer is simply empty here.
        runner.DiscardPending();
        ++result.stats.discards_applied;
        ++discard_it;
        continue;
      }
      const uint64_t seq = input_it->first;
      if (seq != next_seq) {
        // A hole in the input history — the WAL discipline makes this
        // impossible (inputs journal before seqs advance); stop rather
        // than replay a wrong suffix.
        ++result.stats.seq_gaps;
        gap = true;
        break;
      }
      const JournalRecord& input = input_it->second;
      if (!core::SessionRunner::CheckMessage(*sws_, input.payload).ok()) {
        // Feeding it would abort; the live runtime never admits one, but
        // a follower journals what a peer ships. Skip it, consuming its seq.
        ++result.stats.inputs_quarantined;
        next_seq = seq + 1;
        ++input_it;
        continue;
      }
      auto outcome_it = se.outcomes.find(seq);
      if (!core::SessionRunner::IsDelimiter(input.payload)) {
        runner.Feed(input.payload, run_options);
      } else if (outcome_it == se.outcomes.end()) {
        // Unacknowledged delimiter: the crash ate its callback. Re-run
        // and emit exactly once.
        auto outcome = runner.Feed(input.payload, run_options);
        result.replayed.push_back(ReplayedOutcome{
            session_id, seq, outcome->status, std::move(outcome->output)});
      } else if (outcome_it->second.status_code == 0) {
        // Acknowledged success: replay for state, suppress re-emission,
        // and audit determinism against the journaled output.
        auto outcome = runner.Feed(input.payload, run_options);
        ++result.stats.acked_suppressed;
        if (options_.verify_replay_outputs &&
            (!outcome->status.ok() ||
             !(outcome->output == outcome_it->second.payload))) {
          ++result.stats.output_mismatches;
          result.status = core::Status::Error(
              core::RunError::kStorageFailure,
              "replay of " + session_id + " seq " + std::to_string(seq) +
                  " diverged from the journaled output");
          return result;
        }
      } else {
        // Acknowledged failure: the live run committed nothing and
        // dropped the buffer. Do NOT re-run — a transient fault there
        // must not become a success on replay. Emulate the effect.
        runner.DiscardPending();
        ++result.stats.acked_suppressed;
      }
      ++result.stats.inputs_replayed;
      next_seq = seq + 1;
      ++input_it;
    }

    image.db = runner.db();
    image.pending = runner.pending();
    image.next_seq = next_seq;
  }
  result.stats.sessions_recovered = result.sessions.size();

  // Phase 4 — consolidate: one snapshot that subsumes everything read,
  // then delete the subsumed files. Ordering makes a crash here benign:
  // until the rename lands the old files fully describe the state, and
  // after it the consolidated snapshot wins every next_seq merge.
  if (mutate && !files.empty()) {
    SnapshotData snap;
    snap.header = SegmentHeader{result.next_incarnation, kRecoveryShard,
                                fingerprint};
    snap.sessions.reserve(result.sessions.size());
    for (const auto& [session_id, image] : result.sessions) {
      snap.sessions.push_back(image);
    }
    const std::string snap_path =
        dir_ + "/" +
        SnapFileName(result.next_incarnation, kRecoveryShard, 0);
    result.status = WriteSnapshot(snap_path, snap, fault_injector_);
    if (!result.status.ok()) return result;
    for (const DurableFile& file : files) {
      ::unlink((dir_ + "/" + file.name).c_str());
    }
  }
  return result;
}

}  // namespace sws::persistence
