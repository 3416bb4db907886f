#ifndef SWS_RELATIONAL_DATABASE_H_
#define SWS_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "relational/relation.h"
#include "relational/schema.h"

namespace sws::rel {

/// A database instance: a mapping from relation names to relation
/// instances. Per the paper, the local database D stays fixed during a
/// run of an SWS; updates are committed only at the end of a session
/// (see relational/actions.h and sws/session.h).
///
/// Copying a Database is O(#relations): each Relation is a handle over
/// shared column storage (see relation.h), so a copy shares every
/// relation's tuples and cached indexes, and a later write clones only
/// the relation it touches.
///
/// Thread-safety (audited for src/runtime): all const members are pure
/// reads or internally-synchronized caches (ActiveDomainShared guards
/// its lazy rebuild with a mutex), so a Database may be read from any
/// number of threads concurrently as long as no thread calls
/// Set/GetMutable — the concurrent runtime shares one immutable seed
/// instance across workers and gives each session its own copy. The
/// run engine (sws/execution.cc) copies the database into its per-run
/// environment, so core::Run itself never writes the caller's instance.
/// Copies may be written concurrently with reads of the instance they
/// were copied from. Relation and Value are likewise safe const readers.
class Database {
 public:
  Database() = default;

  /// An empty instance of every relation in the schema.
  explicit Database(const Schema& schema);

  /// Copies/moves transfer the relations (sharing their storage) but not
  /// the active-domain cache (rebuilt on demand).
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&& other) noexcept;
  Database& operator=(Database&& other) noexcept;

  /// Sets (replaces) the instance of the named relation.
  void Set(const std::string& name, Relation relation);

  /// Instance of the named relation; aborts if absent.
  const Relation& Get(const std::string& name) const;
  Relation* GetMutable(const std::string& name);

  /// Instance of the named relation, or an empty relation of the given
  /// arity if absent.
  Relation GetOrEmpty(const std::string& name, size_t arity) const;

  bool Contains(const std::string& name) const {
    return relations_.count(name) > 0;
  }
  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }
  bool empty() const;

  /// The active domain: every value occurring in some relation instance.
  std::set<Value> ActiveDomain() const;

  /// Shared snapshot of the active domain, cached per database
  /// generation: a Set call or any relation mutation (tracked through
  /// Relation::generation, so mutations via GetMutable pointers are
  /// seen) invalidates the cache. The returned set stays valid as a
  /// snapshot even if the database mutates afterwards.
  std::shared_ptr<const std::set<Value>> ActiveDomainShared() const;

  std::string ToString() const;

  /// Structural hash over the (name, Relation::Hash) pairs in canonical
  /// (name-sorted) order — cheap convergence checks for crash-recovery
  /// tests. Equal databases hash equal; collisions are possible but not
  /// adversarial here.
  uint64_t Hash() const;

  friend bool operator==(const Database& a, const Database& b) {
    return a.relations_ == b.relations_;
  }

 private:
  /// Version key for derived-state caches: (structural changes, sum of
  /// relation generations). Both components only grow between structural
  /// changes, so key equality means "unchanged".
  std::pair<uint64_t, uint64_t> Generation() const;

  std::map<std::string, Relation> relations_;
  uint64_t structural_gen_ = 0;
  mutable std::mutex adom_mu_;
  mutable std::shared_ptr<const std::set<Value>> adom_cache_;
  mutable std::pair<uint64_t, uint64_t> adom_key_{~uint64_t{0}, ~uint64_t{0}};
};

}  // namespace sws::rel

#endif  // SWS_RELATIONAL_DATABASE_H_
