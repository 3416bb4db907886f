// Relation storage sharing above the relational layer: session runners,
// runs and copies of one seed database share its column storage and
// indexes, writes clone only what they touch, and many sessions over a
// large catalog cost memory per session, not per tuple.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "logic/cq.h"
#include "models/travel.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "sws/execution.h"
#include "sws/session.h"
#include "util/common.h"

namespace sws {
namespace {

using core::SessionRunner;
using core::Sws;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;
using rel::Database;
using rel::Relation;
using rel::Value;

/// True iff every relation of `a` shares its column storage with the
/// same-named relation of `b` (empty relations have none to share).
bool SharesAllStorage(const Database& a, const Database& b) {
  if (a.relations().size() != b.relations().size()) return false;
  for (const auto& [name, relation] : a.relations()) {
    if (!b.Contains(name)) return false;
    const Relation& other = b.Get(name);
    if (relation.arity() == 0 || relation.empty()) continue;
    if (relation.ColumnData(0) != other.ColumnData(0)) return false;
  }
  return true;
}

// A two-level logger that logs each message value the catalog lists:
// the run probes Catalog, and the commit writes Log only.
Sws MakeCatalogLogger() {
  rel::Schema schema;
  schema.Add(rel::RelationSchema("Log", {"x"}));
  schema.Add(rel::RelationSchema("Catalog", {"x"}));
  Sws sws(schema, /*rin_arity=*/1, /*rout_arity=*/3);
  const int q0 = sws.AddState("q0");
  const int q1 = sws.AddState("q1");
  const ConjunctiveQuery pass({Term::Var(0)},
                              {Atom{core::kInputRelation, {Term::Var(0)}}});
  sws.SetTransition(q0, {core::TransitionTarget{q1, core::RelQuery::Cq(pass)}});
  sws.SetSynthesis(
      q0, core::RelQuery::Cq(ConjunctiveQuery(
              {Term::Var(0), Term::Var(1), Term::Var(2)},
              {Atom{core::ActRelation(1),
                    {Term::Var(0), Term::Var(1), Term::Var(2)}}})));
  sws.SetTransition(q1, {});
  sws.SetSynthesis(
      q1, core::RelQuery::Cq(ConjunctiveQuery(
              {Term::Str("ins"), Term::Str("Log"), Term::Var(0)},
              {Atom{core::kMsgRelation, {Term::Var(0)}},
               Atom{"Catalog", {Term::Var(0)}}})));
  SWS_CHECK(!sws.Validate().has_value()) << *sws.Validate();
  return sws;
}

Relation Msg(int64_t v) {
  Relation m(1);
  m.Insert({Value::Int(v)});
  return m;
}

TEST(SessionSharingTest, RunnerSharesSeedStorageUntilItCommits) {
  const Sws sws = MakeCatalogLogger();
  Database seed;
  seed.Set("Log", Relation(1, {{Value::Int(0)}}));
  Relation catalog(1);
  for (int i = 1; i <= 32; ++i) catalog.Insert({Value::Int(i)});
  seed.Set("Catalog", catalog);
  const Database pristine = seed;

  SessionRunner runner(&sws, seed);
  EXPECT_TRUE(SharesAllStorage(runner.db(), seed));
  runner.Feed(Msg(7));
  EXPECT_TRUE(SharesAllStorage(runner.db(), seed));  // buffered, no run

  auto outcome =
      runner.Feed(SessionRunner::DelimiterMessage(sws.rin_arity()));
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->status.ok()) << outcome->status.ToString();
  ASSERT_EQ(outcome->commit.inserted, 1u);

  // Only the written relation diverged; the probed catalog is still the
  // seed's storage, and so is the index the run built on it.
  EXPECT_NE(runner.db().Get("Log").ColumnData(0),
            seed.Get("Log").ColumnData(0));
  EXPECT_TRUE(runner.db().Get("Log").Contains({Value::Int(7)}));
  EXPECT_EQ(runner.db().Get("Catalog").ColumnData(0),
            seed.Get("Catalog").ColumnData(0));
  EXPECT_EQ(runner.db().Get("Catalog").GetIndex(0b1).get(),
            seed.Get("Catalog").GetIndex(0b1).get());
  EXPECT_EQ(seed, pristine);  // the seed never sees the commit
}

#if defined(__SANITIZE_ADDRESS__)
extern "C" size_t __sanitizer_get_current_allocated_bytes();
#endif

/// Memory the process holds, in kB: VmRSS. Under ASan, whose quarantine
/// keeps up to 256 MB of *freed* blocks resident by design, RSS tracks
/// allocation churn instead, so the allocator's live-byte count stands
/// in for it there.
uint64_t HeldKb() {
#if defined(__SANITIZE_ADDRESS__)
  return __sanitizer_get_current_allocated_bytes() / 1024;
#else
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      uint64_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
#endif
}

/// The travel catalog with `extra` cities added to each of the four
/// offer relations, built in bulk (one FromRowMajor per relation).
Database BulkTravelCatalog(int extra) {
  const Database seed = models::MakeTravelDatabase();
  Database db = seed;
  for (const auto& [name, base] : seed.relations()) {
    std::vector<Value> rows;
    rows.reserve(2 * (base.size() + static_cast<size_t>(extra)));
    for (size_t r = 0; r < base.size(); ++r) {
      rows.push_back(base.At(r, 0));
      rows.push_back(base.At(r, 1));
    }
    for (int i = 0; i < extra; ++i) {
      rows.push_back(Value::Str("city" + std::to_string(i)));
      rows.push_back(Value::Int(100 + i % 500));
    }
    db.Set(name, Relation::FromRowMajor(2, rows));
  }
  return db;
}

rel::Relation Delimiter(const Sws& sws) {
  return SessionRunner::DelimiterMessage(sws.rin_arity());
}

TEST(SessionSharingTest, TenThousandSessionsOverA262kTupleCatalog) {
  // ROADMAP item 1's acceptance: per-session memory is O(#relations),
  // not O(|D|). Unshared copies of this catalog would take ~42 GB.
  const models::TravelService service = models::MakeTravelServiceCqUcq();
  const Sws& sws = service.sws;
  const Database catalog = BulkTravelCatalog(65536);
  size_t tuples = 0;
  for (const auto& [name, relation] : catalog.relations()) {
    tuples += relation.size();
  }
  ASSERT_EQ(tuples, 262'152u);
  const Relation request = models::MakeTravelRequest("orlando", 1000);

  // Warm the catalog's indexes once; they belong to its relation
  // versions and are shared by every session from here on.
  const Relation expected = [&] {
    SessionRunner warm(&sws, catalog);
    warm.Feed(request);
    return warm.Feed(Delimiter(sws))->output;
  }();
  ASSERT_FALSE(expected.empty());

  const uint64_t held_before = HeldKb();
  std::vector<SessionRunner> sessions;
  sessions.reserve(10'000);
  for (int i = 0; i < 10'000; ++i) {
    sessions.emplace_back(&sws, catalog);
    SessionRunner& session = sessions.back();
    session.Feed(request);
    auto outcome = session.Feed(Delimiter(sws));
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->status.ok()) << outcome->status.ToString();
    ASSERT_EQ(outcome->output, expected);
    session.Feed(request);  // each session also holds a buffered message
  }
  const uint64_t held_after = HeldKb();

  for (const SessionRunner& session : sessions) {
    ASSERT_TRUE(SharesAllStorage(session.db(), catalog));
  }
  const uint64_t grown_kb =
      held_after > held_before ? held_after - held_before : 0;
  EXPECT_LT(grown_kb, 64u * 1024u)
      << "10k sessions grew held memory by " << grown_kb << " kB";
}

TEST(SharingConcurrencyTest, RunsOverCopiesOfOneSeedBuildIndexesOnce) {
  // Readers copy one shared seed and run on their copies, racing to
  // build the same catalog indexes; a writer mutates its own copy; every
  // thread drops its copies as it goes. Run under TSan via the presets.
  const models::TravelService service = models::MakeTravelServiceCqUcq();
  const Sws& sws = service.sws;
  const Database seed = BulkTravelCatalog(512);
  const Database reference = BulkTravelCatalog(512);  // separate storage
  rel::InputSequence input(sws.rin_arity());
  input.Append(models::MakeTravelRequest("orlando", 1000));
  const Relation expected = core::Run(sws, reference, input).output;
  ASSERT_FALSE(expected.empty());

  constexpr int kReaders = 4;
  constexpr int kRuns = 25;
  std::latch start(kReaders + 1);
  std::atomic<int> mismatches{0};
  std::vector<const Relation::Index*> seen(kReaders, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kRuns; ++i) {
        const Database copy = seed;
        if (core::Run(sws, copy, input).output != expected) ++mismatches;
        seen[t] = copy.Get("Ra").GetIndex(0b01).get();
      }
    });
  }
  threads.emplace_back([&] {
    start.arrive_and_wait();
    Database mine = seed;
    for (int i = 0; i < kRuns; ++i) {
      Relation* ra = mine.GetMutable("Ra");
      ra->Insert({Value::Str("orlando"), Value::Int(1000 + i)});
      ra->Erase({Value::Str("city" + std::to_string(i)),
                 Value::Int(100 + i % 500)});
      // Each new Orlando airfare adds bookings on top of the seed's.
      const Relation output = core::Run(sws, mine, input).output;
      if (!expected.SubsetOf(output) || output.size() <= expected.size()) {
        ++mismatches;
      }
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(seed, reference);  // no write reached the shared seed
  // Every reader's copy probed one index, built once, and it lives on in
  // the seed's storage.
  for (const Relation::Index* index : seen) {
    EXPECT_EQ(index, seed.Get("Ra").GetIndex(0b01).get());
  }
}

}  // namespace
}  // namespace sws
