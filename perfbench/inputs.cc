#include "inputs.h"

#include <map>
#include <sstream>

#include "logic/cq.h"
#include "logic/ucq.h"
#include "models/travel.h"
#include "sws/session.h"
#include "util/common.h"

namespace perfbench {

using sws::core::ActRelation;
using sws::core::kInputRelation;
using sws::core::kMsgRelation;
using sws::core::RelQuery;
using sws::core::Sws;
using sws::core::TransitionTarget;
using sws::logic::Atom;
using sws::logic::ConjunctiveQuery;
using sws::logic::Term;
using sws::logic::UnionQuery;
using sws::rel::Database;
using sws::rel::Relation;
using sws::rel::Value;

Rng::Rng(uint64_t seed, uint64_t stream)
    : state_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xD1B54A32D192ED03ull) {}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

// Random streams, one per consumer, so adding draws to one never shifts
// another.
enum Stream : uint64_t {
  kCatalogStream = 1,
  kScriptStream = 100,  // + connection
  kAnalysisStream = 200,
};

constexpr const char* kTravelRelations[] = {"Ra", "Rh", "Rt", "Rc"};

std::string CityName(uint64_t k) { return "city" + std::to_string(k); }

// The Figure 1 catalog plus `per_relation` seeded cities in each offer
// relation, drawn from a pool 1.5x as large — so a city is missing from
// any one relation a third of the time, and a request books tickets, a
// car, or nothing.
Database MakeCatalog(uint64_t seed, uint64_t per_relation,
                     std::vector<std::string>* destinations) {
  Database db = sws::models::MakeTravelDatabase();
  const uint64_t pool = per_relation + per_relation / 2;
  Rng rng(seed, kCatalogStream);
  for (const char* relation : kTravelRelations) {
    // A seeded subset of exactly `per_relation` pool cities (partial
    // Fisher-Yates over the pool indices).
    std::vector<uint64_t> order(pool);
    for (uint64_t i = 0; i < pool; ++i) order[i] = i;
    for (uint64_t i = 0; i < per_relation; ++i) {
      std::swap(order[i], order[i + rng.Below(pool - i)]);
      db.GetMutable(relation)->Insert(
          {Value::Str(CityName(order[i])),
           Value::Int(static_cast<int64_t>(50 + rng.Below(950)))});
    }
  }
  destinations->clear();
  for (const char* fixed : {"orlando", "paris", "tokyo"}) {
    destinations->push_back(fixed);
  }
  for (uint64_t i = 0; i < pool; ++i) destinations->push_back(CityName(i));
  return db;
}

// Which offer relations list a destination, as a bit mask over
// (Ra, Rh, Rt, Rc). The mask fixes what a request for it books and how
// much work the root synthesis does: ψ0 ranges over the values of every
// nonempty leaf register.
enum Offers : unsigned {
  kAll = 0b1111,          // tickets and a car on offer (tickets win)
  kTicketsOnly = 0b1110,  // books tickets
  kCarOnly = 0b1101,      // books a car
  kAirfareOnly = 0b1000,  // books nothing
};

// Destinations grouped by offer mask. Sessions take their mask from a
// fixed rotation and their destination by seed, so the mix of cheap and
// expensive runs is the same for every seed. The Figure 1 cities fill
// kAll (orlando), kCarOnly (paris) and kAirfareOnly (tokyo), so those
// groups are never empty.
std::vector<std::vector<std::string>> ByOffers(
    const Database& db, const std::vector<std::string>& destinations) {
  std::map<std::string, unsigned> mask;
  for (int r = 0; r < 4; ++r) {
    for (const sws::rel::Tuple& t : db.Get(kTravelRelations[r])) {
      mask[t[0].AsString()] |= 0b1000u >> r;
    }
  }
  std::vector<std::vector<std::string>> groups(16);
  for (const std::string& d : destinations) groups[mask[d]].push_back(d);
  return groups;
}

constexpr Offers kRotation[] = {kAll, kTicketsOnly, kCarOnly, kAirfareOnly,
                                kAll, kCarOnly,     kTicketsOnly, kAll};

Relation TravelRequest(const std::vector<std::vector<std::string>>& groups,
                       Offers offers, Rng* rng) {
  const std::vector<std::string>& group =
      groups[groups[offers].empty() ? kAll : offers];
  return sws::models::MakeTravelRequest(
      group[rng->Below(group.size())],
      static_cast<int64_t>(500 + rng->Below(1500)));
}

constexpr int kCartItems = 16;

Relation CartMessage(const char* op, uint64_t item) {
  Relation message(2);
  message.Insert({Value::Str(op), Value::Str("i" + std::to_string(item))});
  return message;
}

}  // namespace

Sws MakeCartService() {
  sws::rel::Schema schema;
  schema.Add(sws::rel::RelationSchema("Cart", {"item"}));
  Sws sws(schema, /*rin_arity=*/2, /*rout_arity=*/3);
  const int q0 = sws.AddState("q0");
  const int q1 = sws.AddState("q1");      // holds the first message
  const int second = sws.AddState("q2");  // acts on the second message
  const int first = sws.AddState("q3");   // acts on the first message
  auto v = [](int i) { return Term::Var(i); };
  const ConjunctiveQuery from_input({v(0), v(1)},
                                    {Atom{kInputRelation, {v(0), v(1)}}});
  const ConjunctiveQuery from_msg({v(0), v(1)},
                                  {Atom{kMsgRelation, {v(0), v(1)}}});
  sws.SetTransition(q0, {TransitionTarget{q1, RelQuery::Cq(from_input)}});
  sws.SetSynthesis(q0, RelQuery::Cq(ConjunctiveQuery(
                           {v(0), v(1), v(2)},
                           {Atom{ActRelation(1), {v(0), v(1), v(2)}}})));
  sws.SetTransition(q1, {TransitionTarget{second, RelQuery::Cq(from_input)},
                         TransitionTarget{first, RelQuery::Cq(from_msg)}});
  UnionQuery both(3);
  both.Add(ConjunctiveQuery({v(0), v(1), v(2)},
                            {Atom{ActRelation(1), {v(0), v(1), v(2)}}}));
  both.Add(ConjunctiveQuery({v(0), v(1), v(2)},
                            {Atom{ActRelation(2), {v(0), v(1), v(2)}}}));
  sws.SetSynthesis(q1, RelQuery::Ucq(both));
  UnionQuery act(3);
  act.Add(ConjunctiveQuery({Term::Str("ins"), Term::Str("Cart"), v(0)},
                           {Atom{kMsgRelation, {Term::Str("add"), v(0)}}}));
  act.Add(ConjunctiveQuery({Term::Str("del"), Term::Str("Cart"), v(0)},
                           {Atom{kMsgRelation, {Term::Str("rm"), v(0)}},
                            Atom{"Cart", {v(0)}}}));
  for (int leaf : {second, first}) {
    sws.SetTransition(leaf, {});
    sws.SetSynthesis(leaf, RelQuery::Ucq(act));
  }
  SWS_CHECK(!sws.Validate().has_value()) << *sws.Validate();
  return sws;
}

bool IsServedWorkload(const std::string& name) {
  return name == "travel_fo" || name == "catalog_ucq" || name == "cart_wal";
}

ServedWorkload MakeServedWorkload(const std::string& name, uint64_t seed) {
  SWS_CHECK(IsServedWorkload(name)) << name;
  ServedWorkload w{name, name == "travel_fo"
                             ? sws::models::MakeTravelService().sws
                             : name == "catalog_ucq"
                                   ? sws::models::MakeTravelServiceCqUcq().sws
                                   : MakeCartService(),
                   Database(), {}, {}, false, false};
  std::vector<std::string> destinations;
  std::vector<std::vector<std::string>> groups;
  if (name == "travel_fo") {
    w.catalog = MakeCatalog(seed, 64, &destinations);
    groups = ByOffers(w.catalog, destinations);
  } else if (name == "catalog_ucq") {
    w.catalog = MakeCatalog(seed, 4096, &destinations);
    groups = ByOffers(w.catalog, destinations);
  } else {
    w.catalog = Database(w.sws.db_schema());
    w.durable = true;
    w.stateful = true;
  }
  w.scripts.resize(kConnections);
  w.session_ids.resize(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    for (int k = 0; k < kIdsPerConnection; ++k) {
      w.session_ids[c].push_back("c" + std::to_string(c) + "-s" +
                                 std::to_string(k));
    }
    Rng rng(seed, kScriptStream + static_cast<uint64_t>(c));
    for (int k = 0; k < kScriptLength; ++k) {
      Session session;
      const Offers offers = kRotation[k % std::size(kRotation)];
      if (name == "travel_fo") {
        // The service reads the first request; the others only travel
        // the wire (and the journal, were it on).
        session.messages.push_back(TravelRequest(groups, offers, &rng));
        const uint64_t extra = rng.Below(3);
        for (uint64_t r = 0; r < extra; ++r) {
          session.messages.push_back(
              TravelRequest(groups, kRotation[rng.Below(8)], &rng));
        }
      } else if (name == "catalog_ucq") {
        session.messages.push_back(TravelRequest(groups, offers, &rng));
      } else {
        session.messages.push_back(CartMessage("add", rng.Below(kCartItems)));
        session.messages.push_back(CartMessage(
            rng.Below(2) == 0 ? "add" : "rm", rng.Below(kCartItems)));
      }
      w.scripts[c].push_back(std::move(session));
    }
  }
  return w;
}

AnalysisInputs MakeAnalysisInputs(uint64_t seed) {
  AnalysisInputs inputs;
  std::vector<std::string> destinations;
  inputs.catalog = MakeCatalog(seed, 16, &destinations);
  // Requests whose real output has two tuples (tickets, and a car) and
  // one (a car), alternating, so every validation has tuples to explain
  // and the mix of validation costs is the same for every seed.
  const auto groups = ByOffers(inputs.catalog, destinations);
  Rng rng(seed, kAnalysisStream);
  for (int i = 0; i < 64; ++i) {
    inputs.requests.push_back(
        TravelRequest(groups, i % 2 == 0 ? kAll : kCarOnly, &rng));
  }
  return inputs;
}

std::string CanonicalText(const Database& db) {
  std::ostringstream out;
  for (const auto& [name, relation] : db.relations()) {
    out << name << " " << relation.ToString() << "\n";
  }
  return out.str();
}

std::string DumpInputs(const std::string& workload, uint64_t seed) {
  std::ostringstream out;
  out << "workload " << workload << " seed " << seed << "\n";
  if (IsServedWorkload(workload)) {
    const ServedWorkload w = MakeServedWorkload(workload, seed);
    out << CanonicalText(w.catalog);
    for (int c = 0; c < kConnections; ++c) {
      for (int k = 0; k < kScriptLength; ++k) {
        out << w.session_ids[c][k % kIdsPerConnection];
        for (const Relation& m : w.scripts[c][k].messages) {
          out << " " << m.ToString();
        }
        out << "\n";
      }
    }
  } else {
    const AnalysisInputs inputs = MakeAnalysisInputs(seed);
    out << CanonicalText(inputs.catalog);
    for (const Relation& r : inputs.requests) out << r.ToString() << "\n";
  }
  return out.str();
}

}  // namespace perfbench
