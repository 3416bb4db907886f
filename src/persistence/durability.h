#ifndef SWS_PERSISTENCE_DURABILITY_H_
#define SWS_PERSISTENCE_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "persistence/journal.h"
#include "persistence/snapshot.h"
#include "sws/fault.h"
#include "sws/status.h"

namespace sws::persistence {

/// Durability knobs, carried by rt::RuntimeOptions::durability. An empty
/// dir disables the whole subsystem — the shards then hold a null
/// ShardDurability pointer and the non-durable hot path is untouched.
struct DurabilityOptions {
  /// Directory for journal segments and snapshots; "" = durability off.
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Under kBatch: sync after this many un-synced input appends (outcome
  /// appends always sync before the ack, under kBatch and kAlways alike).
  uint32_t fsync_batch_appends = 64;
  /// Rotate to a fresh journal segment past this many bytes.
  uint64_t segment_bytes = 4ull << 20;
  /// Capture a shard snapshot (and GC its older files) every this many
  /// journal appends.
  uint64_t snapshot_interval_appends = 1024;

  bool enabled() const { return !dir.empty(); }
};

core::Status ValidateDurabilityOptions(const DurabilityOptions& options);

/// Durable-file naming: wal-i<incarnation>-s<shard>-n<counter>.log and
/// snap-i<incarnation>-s<shard>-n<counter>.snap under options.dir.
std::string WalFileName(uint64_t incarnation, uint64_t shard, uint64_t n);
std::string SnapFileName(uint64_t incarnation, uint64_t shard, uint64_t n);

struct DurableFile {
  std::string name;  // basename within the durable dir
  bool is_snapshot = false;
  uint64_t incarnation = 0;
  uint64_t shard = 0;
  uint64_t n = 0;
};

/// Parses a durable-file basename; returns false for foreign files
/// (including .tmp leftovers), which recovery ignores.
bool ParseDurableFileName(const std::string& name, DurableFile* out);

/// All recognized durable files in `dir`, name-sorted (deterministic).
core::Status ListDurableFiles(const std::string& dir,
                              std::vector<DurableFile>* out);

/// 1 + the largest incarnation among existing durable files (1 for an
/// empty dir) — the incarnation a restarting runtime writes under.
core::Status NextIncarnation(const std::string& dir, uint64_t* out);

/// Creates `dir` if absent (one level).
core::Status EnsureDir(const std::string& dir);

/// Outcome of one durable append. `persisted` is the caller's
/// feed/apply decision: true means the whole CRC-framed record reached
/// the segment file, so recovery WILL replay it — even when `status`
/// carries a sync error (the record is in the page cache; a process
/// crash still recovers it, only its OS-crash durability is forfeit).
/// false means no intact frame exists on disk (nothing was written, the
/// partial frame was truncated away, or what remains is CRC-invalid),
/// so recovery will never see it and its seq may be safely reissued.
/// The two must never be conflated: acting as if a persisted record
/// were absent forks the journal — the same seq gets re-journaled with
/// a different payload and replay diverges from the live run.
struct AppendResult {
  core::Status status;
  bool persisted = false;
  bool ok() const { return status.ok(); }
};

/// One shard's durable state: the current journal segment plus rotation,
/// fsync batching, and snapshot bookkeeping. Like the shard's session
/// map, it is only ever touched by the shard's drain-role holder, so it
/// needs no lock (see runtime/session_shard.h).
///
/// The write-ahead contract it maintains:
///  * AppendInput runs *before* the message is fed to the session; the
///    message is fed iff the record persisted (the journal and the live
///    session always agree on the consumed-input sequence);
///  * AppendOutcomeAndAck runs after a delimiter run and *before* the
///    callback — under kAlways/kBatch it syncs, so an acknowledged
///    output is always recoverable (and recovery suppresses its
///    re-emission).
///
/// A poisoned segment (torn write, failed append truncation, failed
/// fsync) is abandoned at the next append: the shard rotates to a fresh
/// segment and the torn tail is left for recovery to truncate, so one
/// storage incident costs one record, never the shard.
class ShardDurability {
 public:
  ShardDurability(const DurabilityOptions& options, SegmentHeader header,
                  uint64_t first_segment_n, core::FaultInjector* fault_injector);

  /// Journals one input record (and possibly rotates / batch-syncs).
  /// The caller feeds the message iff `persisted`, regardless of
  /// `status` — see AppendResult.
  AppendResult AppendInput(const JournalRecord& record);

  /// Journals an outcome record and makes it durable per the fsync
  /// policy; only after this returns ok() may the callback acknowledge.
  /// When `persisted` but not ok() (append landed, fsync failed) the
  /// caller must still withhold the ack — but recovery may see the
  /// record and treat the seq as acknowledged; see the ack-barrier
  /// comment in runtime/session_shard.cc for the resulting semantics.
  AppendResult AppendOutcomeAndAck(const JournalRecord& record);

  /// Journals a discard marker (circuit-breaker shed of buffered input).
  /// The caller applies the discard iff `persisted`.
  AppendResult AppendDiscard(const JournalRecord& record);

  /// True once enough appends have accumulated that the shard should
  /// capture a snapshot at its next safe point.
  bool ShouldSnapshot() const;

  /// Writes the shard's snapshot atomically, rotates to a fresh journal
  /// segment, and garbage-collects this shard's older segments and
  /// snapshots (safe: the new snapshot subsumes them).
  core::Status WriteShardSnapshot(std::vector<SessionImage> sessions);

  /// Replication GC pin. A snapshot normally subsumes this shard's older
  /// segments, but a replication cursor may still be shipping records out
  /// of them — reclaiming such a segment would strand a lagging follower
  /// with no retransmit source. WriteShardSnapshot therefore never
  /// unlinks a journal segment with counter >= `segment_n`; pass
  /// kNoSegmentPin (the default) to release the pin. Snapshot files are
  /// never pinned (followers receive records, not snapshots). Thread-safe
  /// (an atomic): the replicator publishes, the drain-role holder reads.
  static constexpr uint64_t kNoSegmentPin = ~uint64_t{0};
  void PinSegmentsFrom(uint64_t segment_n) {
    gc_pin_.store(segment_n, std::memory_order_relaxed);
  }
  uint64_t segment_pin() const {
    return gc_pin_.load(std::memory_order_relaxed);
  }

  /// Counter of the currently open segment — the one the last persisted
  /// append landed in (the next segment to open, if none is). The
  /// replication cursor stamps this into each shipment.
  uint64_t current_segment_n() const {
    return writer_ ? segment_n_ - 1 : segment_n_;
  }

  uint64_t appends() const { return appends_; }
  uint64_t snapshots_written() const { return snapshots_written_; }
  /// Failed fsyncs (appends, ack barriers, rotation flushes). Each one
  /// forfeits the OS-crash durability of one segment's unsynced tail;
  /// process-crash recoverability is unaffected.
  uint64_t sync_failures() const { return sync_failures_; }
  /// True while the *current* segment is poisoned; the next append
  /// rotates it away, so this is transient, not a terminal shard state.
  bool poisoned() const { return writer_ && writer_->poisoned(); }

 private:
  core::Status EnsureWriter();
  AppendResult Append(const JournalRecord& record);
  core::Status RotateSegment();

  DurabilityOptions options_;
  SegmentHeader header_;
  core::FaultInjector* fault_injector_;
  std::unique_ptr<JournalWriter> writer_;
  uint64_t segment_n_;        // counter for the *next* segment to open
  uint64_t snapshot_n_ = 0;   // counter for the next snapshot
  uint64_t appends_ = 0;      // lifetime appends (all record types)
  uint64_t appends_since_snapshot_ = 0;
  uint32_t unsynced_inputs_ = 0;
  uint64_t snapshots_written_ = 0;
  uint64_t sync_failures_ = 0;
  std::atomic<uint64_t> gc_pin_{kNoSegmentPin};
};

}  // namespace sws::persistence

#endif  // SWS_PERSISTENCE_DURABILITY_H_
