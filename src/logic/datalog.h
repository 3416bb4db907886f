#ifndef SWS_LOGIC_DATALOG_H_
#define SWS_LOGIC_DATALOG_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "logic/cq.h"
#include "relational/database.h"

namespace sws::logic {

/// Positive datalog: rules head :- body over EDB and IDB predicates,
/// evaluated by naive fixpoint iteration. The paper uses *sirups*
/// (single-rule programs with one ground fact, [19]) as the
/// exptime-complete source of the SWS(CQ, UCQ) non-emptiness lower
/// bound (Theorem 4.1(2)); models/sirup_sws.h gives the constructive
/// embedding of sirups into recursive SWS's.
struct DatalogRule {
  Atom head;
  std::vector<Atom> body;

  std::string ToString() const;
};

class DatalogProgram {
 public:
  DatalogProgram() = default;

  void AddRule(DatalogRule rule);
  /// A ground fact (an atom with constant arguments only).
  void AddFact(Atom fact);

  const std::vector<DatalogRule>& rules() const { return rules_; }
  const std::vector<Atom>& facts() const { return facts_; }

  /// Safety (head variables bound in the body; facts ground) and arity
  /// consistency.
  std::optional<std::string> Validate() const;

  struct FixpointResult {
    rel::Database idb;          // one relation per IDB predicate
    size_t iterations = 0;
    bool converged = true;      // false iff max_iterations was hit
  };

  /// Naive bottom-up fixpoint over the EDB (IDB relations grow
  /// monotonically until stable or max_iterations rounds).
  FixpointResult Evaluate(const rel::Database& edb,
                          size_t max_iterations = 10000) const;

  std::string ToString() const;

 private:
  std::vector<DatalogRule> rules_;
  std::vector<Atom> facts_;
};

/// A sirup: a single rule plus a single ground fact over one IDB
/// predicate [19].
struct Sirup {
  DatalogRule rule;
  Atom ground_fact;

  DatalogProgram AsProgram() const;
  std::optional<std::string> Validate() const;
};

}  // namespace sws::logic

#endif  // SWS_LOGIC_DATALOG_H_
