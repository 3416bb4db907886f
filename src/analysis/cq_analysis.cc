#include "analysis/cq_analysis.h"

#include <algorithm>

#include "sws/execution.h"
#include "util/common.h"

namespace sws::analysis {

using core::Sws;
using logic::Comparison;
using logic::ConjunctiveQuery;
using logic::Term;
using logic::UnionQuery;

namespace {

// "In@<j>" → j, or 0 if not an input relation.
size_t ParseInputLevel(const std::string& name) {
  if (name.size() <= 3 || name.compare(0, 3, "In@") != 0) return 0;
  size_t j = 0;
  for (size_t pos = 3; pos < name.size(); ++pos) {
    char c = name[pos];
    if (c < '0' || c > '9') return 0;
    j = j * 10 + static_cast<size_t>(c - '0');
  }
  return j;
}

int64_t MaxIntValue(const rel::Database& db) {
  int64_t max_int = 0;
  for (const rel::Value& v : db.ActiveDomain()) {
    if (v.is_int()) max_int = std::max(max_int, v.AsInt());
  }
  return max_int;
}

}  // namespace

CqWitness SplitPackedDatabase(const Sws& sws, const rel::Database& packed,
                              size_t input_length) {
  // Ground labeled nulls to fresh integers so the witness is an ordinary
  // instance (grounding is an isomorphism onto fresh constants, which
  // preserves CQ/UCQ results).
  int64_t next_fresh = MaxIntValue(packed) + 1;
  std::map<int64_t, rel::Value> null_map;
  auto ground = [&](const rel::Value& v) {
    if (!v.is_null()) return v;
    auto [it, inserted] = null_map.emplace(v.null_label(), rel::Value());
    if (inserted) it->second = rel::Value::Int(next_fresh++);
    return it->second;
  };

  CqWitness witness;
  witness.input = rel::InputSequence(sws.rin_arity());
  std::vector<rel::Relation> messages(input_length,
                                      rel::Relation(sws.rin_arity()));
  for (const auto& [name, relation] : packed.relations()) {
    size_t level = ParseInputLevel(name);
    rel::Relation grounded(relation.arity());
    for (const rel::Tuple& t : relation) {
      rel::Tuple g;
      g.reserve(t.size());
      for (const rel::Value& v : t) g.push_back(ground(v));
      grounded.Insert(std::move(g));
    }
    if (level >= 1) {
      SWS_CHECK_LE(level, input_length);
      messages[level - 1] = std::move(grounded);
    } else {
      witness.db.Set(name, std::move(grounded));
    }
  }
  for (auto& m : messages) witness.input.Append(std::move(m));
  return witness;
}

CqNonEmptinessResult CqNonEmptiness(const Sws& sws, size_t max_length) {
  CqNonEmptinessResult result;
  const core::Unfolder unfolder(sws);
  bool complete = false;  // every longer length unfolds as the last one
  for (size_t n = 1; n <= max_length && !complete; ++n) {
    ++result.stats.lengths_tried;
    core::Unfolding unfolded = unfolder.At(n);
    complete = unfolded.complete;
    result.stats.disjuncts_seen += unfolded.ucq.size();
    if (unfolded.ucq.empty()) continue;
    // Unfolded disjuncts are normalized and satisfiable: the canonical
    // database of the first one is a witness.
    rel::Tuple head;
    rel::Database packed =
        unfolded.ucq.disjuncts()[0].CanonicalDatabase(&head);
    CqWitness witness = SplitPackedDatabase(sws, packed, n);
    // Verify (soundness check: the run must actually produce actions).
    core::RunResult run = core::Run(sws, witness.db, witness.input);
    SWS_CHECK(!run.output.empty())
        << "internal error: canonical witness failed for\n" << sws.ToString();
    result.nonempty = true;
    result.witness = std::move(witness);
    return result;
  }
  return result;
}

CqNonEmptinessResult CqNonEmptinessNr(const Sws& sws) {
  auto depth = sws.MaxDepth();
  SWS_CHECK(depth.has_value()) << "CqNonEmptinessNr needs a nonrecursive "
                                  "service; use CqNonEmptiness";
  return CqNonEmptiness(sws, std::max<size_t>(*depth, 1));
}

namespace {

CqEquivalenceResult EquivalenceUpTo(const Sws& a, const Sws& b,
                                    size_t max_length) {
  SWS_CHECK_EQ(a.rin_arity(), b.rin_arity());
  SWS_CHECK_EQ(a.rout_arity(), b.rout_arity());
  CqEquivalenceResult result;
  const core::Unfolder unfold_a(a);
  const core::Unfolder unfold_b(b);
  bool complete = false;  // every longer length unfolds as the last one
  for (size_t n = 0; n <= max_length && !complete; ++n) {
    ++result.stats.lengths_tried;
    core::Unfolding ua = unfold_a.At(n);
    core::Unfolding ub = unfold_b.At(n);
    complete = ua.complete && ub.complete;
    result.stats.disjuncts_seen += ua.ucq.size() + ub.ucq.size();
    if (!logic::UcqEquivalent(ua.ucq, ub.ucq, &result.stats.containment)) {
      result.equivalent = false;
      result.differing_length = n;
      return result;
    }
  }
  result.equivalent = true;
  return result;
}

}  // namespace

CqEquivalenceResult CqEquivalenceNr(const Sws& a, const Sws& b) {
  auto da = a.MaxDepth();
  auto db = b.MaxDepth();
  SWS_CHECK(da.has_value() && db.has_value())
      << "CqEquivalenceNr needs nonrecursive services";
  return EquivalenceUpTo(a, b, std::max(*da, *db));
}

CqEquivalenceResult CqEquivalenceBounded(const Sws& a, const Sws& b,
                                         size_t max_length) {
  return EquivalenceUpTo(a, b, max_length);
}

namespace {

// A candidate way to produce one output tuple: a disjunct whose head has
// been unified with the tuple's constants and normalized.
std::vector<ConjunctiveQuery> TupleCandidates(const UnionQuery& unfolded,
                                              const rel::Tuple& o) {
  std::vector<ConjunctiveQuery> candidates;
  for (const ConjunctiveQuery& d : unfolded.disjuncts()) {
    ConjunctiveQuery unified = d;
    for (size_t i = 0; i < o.size(); ++i) {
      unified.mutable_comparisons()->push_back(
          Comparison{d.head()[i], Term::Const(o[i]), /*is_equality=*/true});
    }
    if (auto norm = unified.Normalize(); norm.has_value()) {
      candidates.push_back(std::move(*norm));
    }
  }
  return candidates;
}

// Merges the canonical database of `fragment` (variables offset to stay
// disjoint across fragments) into `packed`.
void AddFragment(const ConjunctiveQuery& fragment, int var_offset,
                 rel::Database* packed) {
  ConjunctiveQuery shifted = fragment.ShiftVars(var_offset);
  rel::Database canon = shifted.CanonicalDatabase();
  for (const auto& [name, relation] : canon.relations()) {
    if (!packed->Contains(name)) {
      packed->Set(name, rel::Relation(relation.arity()));
    }
    rel::Relation* target = packed->GetMutable(name);
    for (const rel::Tuple& t : relation) target->Insert(t);
  }
}

}  // namespace

CqValidationResult CqValidation(const Sws& sws,
                                const rel::Relation& desired_output,
                                const CqValidationOptions& options) {
  SWS_CHECK_EQ(desired_output.arity(), sws.rout_arity());
  CqValidationResult result;

  // The empty output is always reachable: τ(D, ε) = ∅.
  if (desired_output.empty()) {
    result.validated = true;
    result.witness = CqWitness{rel::Database(sws.db_schema()),
                               rel::InputSequence(sws.rin_arity())};
    return result;
  }

  size_t max_length = options.max_length;
  if (max_length == 0) {
    auto depth = sws.MaxDepth();
    SWS_CHECK(depth.has_value())
        << "recursive service: set CqValidationOptions::max_length";
    max_length = std::max<size_t>(*depth, 1);
  }

  std::vector<rel::Tuple> tuples(desired_output.begin(),
                                 desired_output.end());
  uint64_t budget = options.max_candidates;
  const core::Unfolder unfolder(sws);
  bool complete = false;  // every longer length unfolds as the last one
  for (size_t n = 1; n <= max_length && !complete; ++n) {
    ++result.stats.lengths_tried;
    core::Unfolding unfolding = unfolder.At(n);
    complete = unfolding.complete;
    const UnionQuery& unfolded = unfolding.ucq;
    result.stats.disjuncts_seen += unfolded.size();
    if (unfolded.empty()) continue;
    // Per-tuple candidate lists.
    std::vector<std::vector<ConjunctiveQuery>> candidates;
    bool feasible = true;
    for (const rel::Tuple& o : tuples) {
      candidates.push_back(TupleCandidates(unfolded, o));
      if (candidates.back().empty()) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;

    // Cartesian search over per-tuple candidates, verified by running.
    std::vector<size_t> choice(tuples.size(), 0);
    while (true) {
      if (budget == 0) {
        result.budget_exhausted = true;
        return result;
      }
      --budget;
      rel::Database packed;
      int var_offset = 0;
      for (size_t i = 0; i < tuples.size(); ++i) {
        const ConjunctiveQuery& fragment = candidates[i][choice[i]];
        AddFragment(fragment, var_offset, &packed);
        var_offset += fragment.MaxVar() + 1;
      }
      CqWitness witness = SplitPackedDatabase(sws, packed, n);
      core::RunResult run = core::Run(sws, witness.db, witness.input);
      if (run.output == desired_output) {
        result.validated = true;
        result.witness = std::move(witness);
        return result;
      }
      // Next combination.
      size_t i = 0;
      while (i < choice.size() && ++choice[i] == candidates[i].size()) {
        choice[i] = 0;
        ++i;
      }
      if (i == choice.size()) break;
    }
  }
  return result;
}

}  // namespace sws::analysis
