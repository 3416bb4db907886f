// Seeded inputs and services of the served workloads. Everything here is
// a pure function of (workload, seed): the program under test receives
// only what these functions generate.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/database.h"
#include "relational/relation.h"
#include "sws/sws.h"

namespace perfbench {

/// The closed loop: one blocking client per core, each cycling through
/// its own fixed pool of returning session ids.
inline constexpr int kConnections = 4;
inline constexpr int kIdsPerConnection = 64;
/// Sessions in one connection's script; the script repeats.
inline constexpr int kScriptLength = 256;
/// Runtime workers (the closed loop's bottleneck on the engine-bound
/// workloads; see LAYERS.md).
inline constexpr int kWorkers = 2;

/// A seeded random stream: splitmix64 over (seed, stream), so every
/// consumer draws from its own reproducible sequence.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream);
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// One session: the messages before the closing '#'.
struct Session {
  std::vector<sws::rel::Relation> messages;
};

struct ServedWorkload {
  std::string name;
  sws::core::Sws sws;
  sws::rel::Database catalog;  // the initial D of every session
  /// scripts[c][k]: the k-th session of connection c (cycled).
  std::vector<std::vector<Session>> scripts;
  /// session_ids[c][k % kIdsPerConnection] serves scripts[c][k].
  std::vector<std::vector<std::string>> session_ids;
  /// The journal is on (cart_wal only).
  bool durable = false;
  /// Sessions commit to their private D, so a session's output depends on
  /// that session id's history (cart_wal only).
  bool stateful = false;
};

bool IsServedWorkload(const std::string& name);

/// Builds the service, catalog and scripts of a served workload.
ServedWorkload MakeServedWorkload(const std::string& name, uint64_t seed);

/// The depth-2 SWS(CQ, UCQ) cart: each of a session's two (op, item)
/// messages becomes ("ins", "Cart", item) for op "add" and
/// ("del", "Cart", item) for op "rm" of an item in the cart.
sws::core::Sws MakeCartService();

/// Inputs of the analysis workload: a catalog and, per job, one request
/// whose real output the job validates.
struct AnalysisInputs {
  sws::rel::Database catalog;
  std::vector<sws::rel::Relation> requests;  // cycled over jobs
};
AnalysisInputs MakeAnalysisInputs(uint64_t seed);

/// Canonical text of a database (relations and tuples in sorted order).
std::string CanonicalText(const sws::rel::Database& db);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
