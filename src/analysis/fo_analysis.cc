#include "analysis/fo_analysis.h"

#include <functional>

#include "sws/execution.h"
#include "util/common.h"

namespace sws::analysis {

using core::RelQuery;
using core::Sws;
using logic::FoFormula;
using logic::FoQuery;
using logic::Term;

namespace {

// φ relativized to the unary relation `dom`: ∃y ψ becomes
// ∃y (dom(y) ∧ ψ) and ∀y ψ becomes ∀y (dom(y) → ψ).
FoFormula Relativize(const FoFormula& f, const std::string& dom) {
  using Kind = FoFormula::Kind;
  std::vector<FoFormula> c;
  for (const FoFormula& child : f.children()) {
    c.push_back(Relativize(child, dom));
  }
  switch (f.kind()) {
    case Kind::kNot:
      return FoFormula::Not(c[0]);
    case Kind::kAnd:
      return FoFormula::And(std::move(c));
    case Kind::kOr:
      return FoFormula::Or(std::move(c));
    case Kind::kExists:
    case Kind::kForall: {
      const int y = f.bound_var();
      FoFormula in_dom = FoFormula::MakeAtom(dom, {Term::Var(y)});
      return f.kind() == Kind::kExists
                 ? FoFormula::Exists(y, FoFormula::And(in_dom, c[0]))
                 : FoFormula::Forall(y, FoFormula::Implies(in_dom, c[0]));
    }
    default:  // atoms and equalities
      return f;
  }
}

}  // namespace

core::Sws FoSatToSws(const FoFormula& sentence) {
  SWS_CHECK(sentence.FreeVars().empty()) << "the reduction needs a sentence";
  std::map<std::string, size_t> arities = sentence.RelationArities();
  std::string dom = "Dom";
  while (arities.count(dom) > 0) dom += "'";
  arities[dom] = 1;
  rel::Schema schema;
  for (const auto& [name, arity] : arities) {
    std::vector<std::string> attrs;
    for (size_t i = 0; i < arity; ++i) attrs.push_back("a" + std::to_string(i));
    schema.Add(rel::RelationSchema(name, attrs));
  }
  // The structure's domain is the nonempty relation Dom, which holds
  // every constant of φ; the run's active domain only has to contain it.
  std::vector<FoFormula> conjuncts = {
      Relativize(sentence, dom),
      FoFormula::Exists(0, FoFormula::MakeAtom(dom, {Term::Var(0)}))};
  for (const rel::Value& c : sentence.Constants()) {
    conjuncts.push_back(FoFormula::MakeAtom(dom, {Term::Const(c)}));
  }
  Sws sws(schema, /*rin_arity=*/1, /*rout_arity=*/1);
  sws.AddState("q0");
  sws.SetTransition(0, {});
  // Act(q0) = {(1)} iff D ⊨ φ relativized to Dom. The final-state root
  // reads I_0 = ∅ and the (irrelevant) message register; only D matters.
  FoFormula body = FoFormula::And(std::move(conjuncts));
  sws.SetSynthesis(0, RelQuery::Fo(FoQuery({Term::Int(1)}, std::move(body))));
  SWS_CHECK(!sws.Validate().has_value()) << *sws.Validate();
  return sws;
}

core::Sws EmptyServiceLike(const Sws& like) {
  Sws sws(like.db_schema(), like.rin_arity(), like.rout_arity());
  sws.AddState("q0");
  sws.SetTransition(0, {});
  // The always-empty synthesis: an empty UCQ.
  sws.SetSynthesis(0, RelQuery::Ucq(logic::UnionQuery(like.rout_arity())));
  SWS_CHECK(!sws.Validate().has_value()) << *sws.Validate();
  return sws;
}

namespace {

// Enumerates (D, I) pairs over the integer domain {1..k} for k up to
// max_domain_size, with |I| up to max_input_length messages of up to
// max_tuples_per_message tuples. Stops when `visit` returns true (found)
// or the instance budget runs out.
struct EnumerationState {
  uint64_t checked = 0;
  bool exhausted = false;
};

bool EnumerateInstances(
    const Sws& sws, const FoBoundedOptions& options, EnumerationState* state,
    const std::function<bool(const rel::Database&, const rel::InputSequence&)>&
        visit) {
  for (size_t k = 1; k <= options.max_domain_size; ++k) {
    // Universe of tuples per arity, over {1..k}.
    auto tuple_universe = [&](size_t arity) {
      std::vector<rel::Tuple> tuples;
      rel::Tuple current(arity);
      std::function<void(size_t)> fill = [&](size_t i) {
        if (i == arity) {
          tuples.push_back(current);
          return;
        }
        for (size_t v = 1; v <= k; ++v) {
          current[i] = rel::Value::Int(static_cast<int64_t>(v));
          fill(i + 1);
        }
      };
      fill(0);
      return tuples;
    };

    // Enumerate databases: per relation, any subset of its universe.
    std::vector<std::pair<std::string, std::vector<rel::Tuple>>> universes;
    for (const auto& r : sws.db_schema().relations()) {
      universes.emplace_back(r.name(), tuple_universe(r.arity()));
    }
    std::vector<rel::Tuple> input_universe = tuple_universe(sws.rin_arity());

    rel::Database db(sws.db_schema());
    // Input messages are built as index-subsets of the input universe of
    // size ≤ max_tuples_per_message.
    std::function<bool(size_t)> choose_db;
    std::function<bool(rel::InputSequence*)> choose_input =
        [&](rel::InputSequence* input) -> bool {
      // Visit the current (db, input).
      if (state->checked >= options.max_instances) {
        state->exhausted = true;
        return true;  // stop enumeration
      }
      ++state->checked;
      if (visit(db, *input)) return true;
      if (input->size() == options.max_input_length) return false;
      // Extend with one more message (all small subsets).
      std::vector<size_t> picked;
      std::function<bool(size_t)> pick = [&](size_t from) -> bool {
        {
          rel::Relation message(sws.rin_arity());
          for (size_t idx : picked) message.Insert(input_universe[idx]);
          rel::InputSequence extended = *input;
          extended.Append(std::move(message));
          if (choose_input(&extended)) return true;
        }
        if (picked.size() == options.max_tuples_per_message) return false;
        for (size_t i = from; i < input_universe.size(); ++i) {
          picked.push_back(i);
          if (pick(i + 1)) return true;
          picked.pop_back();
        }
        return false;
      };
      return pick(0);
    };
    choose_db = [&](size_t rel_index) -> bool {
      if (rel_index == universes.size()) {
        rel::InputSequence empty(sws.rin_arity());
        return choose_input(&empty);
      }
      const auto& [name, tuples] = universes[rel_index];
      std::function<bool(size_t)> pick = [&](size_t t_index) -> bool {
        if (t_index == tuples.size()) return choose_db(rel_index + 1);
        if (pick(t_index + 1)) return true;  // exclude
        db.GetMutable(name)->Insert(tuples[t_index]);
        bool stop = pick(t_index + 1);       // include
        db.GetMutable(name)->Erase(tuples[t_index]);
        return stop;
      };
      return pick(0);
    };
    if (choose_db(0)) return true;
  }
  return false;
}

}  // namespace

FoBoundedResult FoBoundedNonEmptiness(const Sws& sws,
                                      const FoBoundedOptions& options) {
  FoBoundedResult result;
  EnumerationState state;
  EnumerateInstances(
      sws, options, &state,
      [&](const rel::Database& db, const rel::InputSequence& input) {
        if (core::Run(sws, db, input).output.empty()) return false;
        result.found = true;
        result.witness_db = db;
        result.witness_input = input;
        return true;
      });
  result.instances_checked = state.checked;
  result.budget_exhausted = state.exhausted;
  return result;
}

FoBoundedResult FoBoundedInequivalence(const Sws& a, const Sws& b,
                                       const FoBoundedOptions& options) {
  SWS_CHECK_EQ(a.rin_arity(), b.rin_arity());
  SWS_CHECK_EQ(a.rout_arity(), b.rout_arity());
  FoBoundedResult result;
  EnumerationState state;
  EnumerateInstances(
      a, options, &state,
      [&](const rel::Database& db, const rel::InputSequence& input) {
        if (core::Run(a, db, input).output == core::Run(b, db, input).output) {
          return false;
        }
        result.found = true;
        result.witness_db = db;
        result.witness_input = input;
        return true;
      });
  result.instances_checked = state.checked;
  result.budget_exhausted = state.exhausted;
  return result;
}

}  // namespace sws::analysis
