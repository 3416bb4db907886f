// The durable front desk: the concurrent travel desk of
// concurrent_frontdesk.cpp, now with the write-ahead journal and
// snapshots of src/persistence underneath (DESIGN.md §9). Act I opens
// the desk with durability on, books a batch of conversations and then
// "crashes" with several conversations still mid-session. Act II
// re-opens the same directory: the constructor-time recovery replays
// the journal, reinstalls every session exactly where it stopped, and
// the half-finished conversations book successfully on their recovered
// state — no client resends a message the journal already consumed.
//
// Also a small recovery CLI:
//   durable_frontdesk [dir]            # run the crash/recover demo in dir
//   durable_frontdesk --inspect [dir]  # read-only: what would dir recover to?
// With no dir the demo clears its own default directory first, so every
// run starts empty and prints the same; a dir given is used as it is.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>

#include "models/travel.h"
#include "persistence/recovery.h"
#include "runtime/runtime.h"
#include "sws/session.h"

using namespace sws;

namespace {

constexpr const char* kDefaultDir = "/tmp/sws_durable_frontdesk";

void PrintRecovery(const persistence::RecoveryResult& recovery) {
  const persistence::RecoveryStats& s = recovery.stats;
  std::printf(
      "recovery: %" PRIu64 " snapshots + %" PRIu64
      " segments scanned (%" PRIu64 " records, %" PRIu64
      " torn tails truncated)\n",
      s.snapshots_loaded, s.segments_scanned, s.records_scanned,
      s.torn_tails_truncated);
  std::printf(
      "          %" PRIu64 " sessions rebuilt, %" PRIu64
      " inputs replayed, %" PRIu64 " acked outputs suppressed, %zu "
      "unacked outputs re-emitted\n",
      s.sessions_recovered, s.inputs_replayed, s.acked_suppressed,
      recovery.replayed.size());
  for (const auto& [id, image] : recovery.sessions) {
    std::printf("          %-12s next_seq=%" PRIu64 " buffered=%zu\n",
                id.c_str(), image.next_seq, image.pending.size());
  }
}

// The desk's work counters. Stats().ToString() also prints latency
// quantiles, which vary from run to run; these counters do not.
void PrintCounters(const char* label, const rt::StatsSnapshot& s) {
  std::printf("%s submitted=%" PRIu64 " completed=%" PRIu64
              " sessions_closed=%" PRIu64 " journal_appends=%" PRIu64
              " snapshots=%" PRIu64 " storage_failures=%" PRIu64 "\n",
              label, s.submitted, s.completed, s.sessions_closed,
              s.journal_appends, s.snapshots, s.storage_failures);
}

int Inspect(const std::string& dir) {
  models::TravelService service = models::MakeTravelService();
  persistence::RecoveryManager manager(dir, &service.sws,
                                       models::MakeTravelDatabase(),
                                       persistence::RecoveryOptions{}, nullptr);
  persistence::RecoveryResult result = manager.Inspect();
  if (!result.status.ok()) {
    std::printf("inspect failed: %s\n", result.status.ToString().c_str());
    return 1;
  }
  std::printf("inspect of %s (read-only):\n", dir.c_str());
  PrintRecovery(result);
  return 0;
}

rt::RuntimeOptions DeskOptions(const std::string& dir) {
  rt::RuntimeOptions options;
  options.num_workers = 4;
  options.num_shards = 8;
  options.durability.dir = dir;
  // Batch fsync: inputs sync every 64 appends, every acknowledged
  // outcome syncs before its callback — the exactly-once ack barrier.
  options.durability.fsync = persistence::FsyncPolicy::kBatch;
  options.durability.snapshot_interval_appends = 64;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = kDefaultDir;
  if (argc > 1 && std::strcmp(argv[1], "--inspect") == 0) {
    return Inspect(argc > 2 ? argv[2] : dir);
  }
  if (argc > 1) {
    dir = argv[1];
  } else {
    std::filesystem::remove_all(dir);
  }

  models::TravelService service = models::MakeTravelService();
  rel::Database catalog = models::MakeTravelDatabase();

  // --- Act I: a durable desk, crashed mid-conversation. ---------------
  {
    rt::ServiceRuntime runtime(&service.sws, catalog, DeskOptions(dir));
    std::printf("desk open (durable, dir=%s): recovered %zu sessions\n",
                dir.c_str(), runtime.recovery()->sessions.size());
    // Eight conversations book and commit...
    for (int c = 0; c < 8; ++c) {
      const std::string id = "client-" + std::to_string(c);
      runtime.Submit(id, models::MakeTravelRequest("orlando", 1000));
      runtime.Submit(id, core::SessionRunner::DelimiterMessage(3));
    }
    // ...and three more stop mid-session: requests submitted, no '#'.
    for (int c = 0; c < 3; ++c) {
      const std::string id = "open-" + std::to_string(c);
      runtime.Submit(id, models::MakeTravelRequest("paris", 800));
    }
    runtime.Drain();
    PrintCounters("act I done: ", runtime.Stats());
    // The runtime object dying here is the crash: only what the WAL
    // discipline already persisted survives — which is everything the
    // desk acknowledged, plus the buffered open conversations.
  }

  // --- Act II: reopen the same directory. -----------------------------
  {
    rt::ServiceRuntime runtime(&service.sws, catalog, DeskOptions(dir));
    std::printf("desk reopened:\n");
    PrintRecovery(*runtime.recovery());
    // The open conversations resume exactly where they stopped: the
    // recovered buffer already holds the paris request, so one '#'
    // books it. Outcomes arrive on the workers in any order; they are
    // printed by session id once the desk has drained.
    std::mutex mu;
    std::map<std::string, std::string> booked;
    for (int c = 0; c < 3; ++c) {
      const std::string id = "open-" + std::to_string(c);
      runtime.Submit(id, core::SessionRunner::DelimiterMessage(3),
                     [&mu, &booked](rt::Outcome outcome) {
                       std::lock_guard<std::mutex> lock(mu);
                       booked[outcome.session_id] =
                           outcome.status.ok() ? "ok"
                                               : outcome.status.ToString();
                     });
    }
    runtime.Drain();  // returns after every callback has run
    for (const auto& [id, status] : booked) {
      std::printf("          %s booked on recovered state: %s\n", id.c_str(),
                  status.c_str());
    }
    PrintCounters("act II done:", runtime.Stats());
  }

  std::printf("inspect the directory any time:\n  %s --inspect %s\n", argv[0],
              dir.c_str());
  return 0;
}
