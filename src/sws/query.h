#ifndef SWS_SWS_QUERY_H_
#define SWS_SWS_QUERY_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>

#include "logic/cq.h"
#include "logic/fo.h"
#include "logic/ucq.h"

namespace sws::core {

/// Names under which the run engine exposes the evaluation environment to
/// rule queries (Definition 2.1): the local database relations keep their
/// own names; additionally:
///  * kInputRelation — the current input message I_j,
///  * kMsgRelation   — the node's message register Msg(q),
///  * kActRelation(i) — "Act1", "Act2", ...: the successors' action
///    registers, positional, available to synthesis rules of non-final
///    states only.
inline constexpr const char* kInputRelation = "In";
inline constexpr const char* kMsgRelation = "Msg";
std::string ActRelation(size_t successor_index_1based);
/// The i of an action register named ActRelation(i); 0 for any other
/// name ("Act0", "Act01", "In", ...).
size_t ActIndex(const std::string& relation);

/// A relational query usable in SWS transition/synthesis rules: a CQ, a
/// UCQ, or an FO query. The variant kind determines which SWS class
/// (Section 2) a service belongs to.
///
/// A CQ or UCQ is prepared once, at construction (logic::PreparedUcq),
/// as an FO query lowers its bodies at construction; copies share the
/// immutable prepared form, so Evaluate only binds relations and runs.
class RelQuery {
 public:
  enum class Language { kCq, kUcq, kFo };

  static RelQuery Cq(logic::ConjunctiveQuery q) { return RelQuery(std::move(q)); }
  static RelQuery Ucq(logic::UnionQuery q) { return RelQuery(std::move(q)); }
  static RelQuery Fo(logic::FoQuery q) { return RelQuery(std::move(q)); }

  Language language() const;
  bool is_cq() const { return language() == Language::kCq; }
  bool is_ucq() const { return language() == Language::kUcq; }
  bool is_fo() const { return language() == Language::kFo; }

  const logic::ConjunctiveQuery& cq() const;
  const logic::UnionQuery& ucq() const;
  const logic::FoQuery& fo() const;

  /// The query as a UCQ: a CQ converts exactly; an FO query aborts.
  logic::UnionQuery AsUcq() const;
  /// The query as FO (always possible).
  logic::FoQuery AsFo() const;

  size_t head_arity() const;

  /// Relation names the query reads.
  std::set<std::string> ReadRelations() const;
  /// The lexicographically first relation the query reads for which
  /// `allowed` is false (the first such in ReadRelations()), or nullopt.
  template <typename Allowed>
  std::optional<std::string> FirstDisallowed(Allowed allowed) const {
    std::optional<std::string> first;
    ForEachReadRelation([&](const std::string& r) {
      if (!allowed(r) && (!first.has_value() || r < *first)) first = r;
    });
    return first;
  }

  /// Well-formedness of the underlying query.
  std::optional<std::string> Validate() const;

  rel::Relation Evaluate(const rel::Database& env) const;
  bool EvaluatesNonempty(const rel::Database& env) const;

  std::string ToString() const;

 private:
  /// Calls f on the relation of each atom the query reads, without
  /// building a set: a name may come more than once, in any order.
  template <typename F>
  void ForEachReadRelation(F f) const;

  explicit RelQuery(logic::ConjunctiveQuery q);
  explicit RelQuery(logic::UnionQuery q);
  explicit RelQuery(logic::FoQuery q) : query_(std::move(q)) {}

  std::variant<logic::ConjunctiveQuery, logic::UnionQuery, logic::FoQuery>
      query_;
  /// The CQ/UCQ prepared for evaluation; null for FO.
  std::shared_ptr<const logic::PreparedUcq> prepared_;
};

template <typename F>
void RelQuery::ForEachReadRelation(F f) const {
  switch (language()) {
    case Language::kCq:
      for (const logic::Atom& a : cq().body()) f(a.relation);
      return;
    case Language::kUcq:
      for (const logic::ConjunctiveQuery& d : ucq().disjuncts()) {
        for (const logic::Atom& a : d.body()) f(a.relation);
      }
      return;
    case Language::kFo:
      for (const auto& [name, arity] : fo().formula().RelationArities()) {
        f(name);
      }
      return;
  }
}

}  // namespace sws::core

#endif  // SWS_SWS_QUERY_H_
