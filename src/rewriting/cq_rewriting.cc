#include "rewriting/cq_rewriting.h"

#include <set>

#include "logic/containment.h"
#include "util/common.h"

namespace sws::rw {

using logic::Atom;
using logic::Comparison;
using logic::ConjunctiveQuery;
using logic::Term;
using logic::UnionQuery;

namespace {

const View* FindView(const std::vector<View>& views, const std::string& name) {
  for (const View& v : views) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

// The view atom for a tuple of `view` on a frozen goal disjunct: each
// labeled null becomes the variable it froze, other values stay constants.
Atom ViewAtom(const std::string& view, const rel::Tuple& tuple) {
  Atom atom{view, {}};
  atom.args.reserve(tuple.size());
  for (const rel::Value& value : tuple) {
    atom.args.push_back(value.is_null()
                            ? Term::Var(static_cast<int>(value.null_label()))
                            : Term::Const(value));
  }
  return atom;
}

// The relation over which a view's '≠' are lowered to atoms, holding the
// pairs of values a frozen goal disjunct keeps apart.
constexpr char kUnequal[] = "≠";

// A target prepared once: its views to run on frozen goal disjuncts, its
// goal for containment, and the rewriting's expansion over its views.
struct PreparedTarget {
  explicit PreparedTarget(const RewritingTarget& target)
      : target(target),
        goal(target.goal),
        expansion(target.goal.head_arity()) {
    for (const View& view : target.views) {
      ConjunctiveQuery lowered(view.definition.head(), view.definition.body());
      for (const Comparison& c : view.definition.comparisons()) {
        if (c.is_equality) {
          lowered.mutable_comparisons()->push_back(c);
        } else {
          lowered.mutable_body()->push_back(Atom{kUnequal, {c.lhs, c.rhs}});
          compares = true;
        }
      }
      views.emplace_back(lowered);
      const std::vector<rel::Value>& constants = views.back().constants();
      view_constants.insert(constants.begin(), constants.end());
    }
  }

  // The canonical database of the normalized disjunct `q`; if some view
  // has a '≠', with the pairs `q` keeps apart as kUnequal: its own '≠',
  // both ways, and every two distinct constants of `q` and the views.
  rel::Database Frozen(const ConjunctiveQuery& q) const {
    if (!compares) return q.CanonicalDatabase();
    ConjunctiveQuery apart = q;
    for (const Comparison& c : q.comparisons()) {
      apart.mutable_body()->push_back(Atom{kUnequal, {c.lhs, c.rhs}});
      apart.mutable_body()->push_back(Atom{kUnequal, {c.rhs, c.lhs}});
    }
    std::set<rel::Value> constants = view_constants;
    for (const Term& t : q.AllTerms()) {
      if (t.is_const()) constants.insert(t.value());
    }
    for (const rel::Value& a : constants) {
      for (const rel::Value& b : constants) {
        if (a == b) continue;
        apart.mutable_body()->push_back(
            Atom{kUnequal, {Term::Const(a), Term::Const(b)}});
      }
    }
    return apart.CanonicalDatabase();
  }

  // The canonical rewriting of the normalized disjunct `q`, or nullopt if
  // no view exports one of its head variables.
  std::optional<ConjunctiveQuery> CanonicalRewriting(
      const ConjunctiveQuery& q) const {
    const rel::Database frozen = Frozen(q);
    ConjunctiveQuery rewriting(q.head(), {});
    std::set<Term> exported;
    for (size_t i = 0; i < views.size(); ++i) {
      for (const rel::Tuple& tuple : views[i].Evaluate(frozen)) {
        Atom atom = ViewAtom(target.views[i].name, tuple);
        exported.insert(atom.args.begin(), atom.args.end());
        rewriting.mutable_body()->push_back(std::move(atom));
      }
    }
    for (const Comparison& c : q.comparisons()) {
      if ((c.lhs.is_const() || exported.count(c.lhs) > 0) &&
          (c.rhs.is_const() || exported.count(c.rhs) > 0)) {
        rewriting.mutable_comparisons()->push_back(c);
      }
    }
    if (rewriting.Validate().has_value()) return std::nullopt;
    return rewriting;
  }

  const RewritingTarget& target;
  std::vector<logic::PreparedCq> views;
  std::set<rel::Value> view_constants;
  bool compares = false;  // some view has a '≠'
  const logic::PreparedUcq goal;
  logic::PreparedUcq expansion;
};

}  // namespace

ConjunctiveQuery ExpandViewAtoms(const ConjunctiveQuery& rewriting,
                                 const std::vector<View>& views) {
  ConjunctiveQuery out(rewriting.head(), {}, rewriting.comparisons());
  int next_var = rewriting.MaxVar() + 1;
  for (const Atom& atom : rewriting.body()) {
    const View* view = FindView(views, atom.relation);
    if (view == nullptr) {
      out.mutable_body()->push_back(atom);
      continue;
    }
    SWS_CHECK_EQ(view->definition.head_arity(), atom.args.size())
        << "view " << view->name << " arity mismatch";
    ConjunctiveQuery fresh = view->definition.ShiftVars(next_var);
    next_var = fresh.MaxVar() + 1;
    for (const Atom& a : fresh.body()) out.mutable_body()->push_back(a);
    for (const Comparison& c : fresh.comparisons()) {
      out.mutable_comparisons()->push_back(c);
    }
    for (size_t i = 0; i < atom.args.size(); ++i) {
      out.mutable_comparisons()->push_back(
          Comparison{fresh.head()[i], atom.args[i], /*is_equality=*/true});
    }
  }
  return out;
}

UnionQuery ExpandViewAtoms(const UnionQuery& rewriting,
                           const std::vector<View>& views) {
  UnionQuery out(rewriting.head_arity());
  for (const ConjunctiveQuery& d : rewriting.disjuncts()) {
    out.Add(ExpandViewAtoms(d, views));
  }
  return out;
}

std::optional<UnionQuery> EquivalentRewriting(
    const std::vector<RewritingTarget>& targets) {
  SWS_CHECK(!targets.empty());
  std::vector<PreparedTarget> prepared(targets.begin(), targets.end());
  UnionQuery rewriting(targets.front().goal.head_arity());
  for (PreparedTarget& current : prepared) {
    for (const ConjunctiveQuery& disjunct : current.target.goal.disjuncts()) {
      std::optional<ConjunctiveQuery> normalized = disjunct.Normalize();
      if (!normalized.has_value()) continue;  // unsatisfiable: no answers
      if (logic::CqContainedIn(*normalized, current.expansion)) continue;
      std::optional<ConjunctiveQuery> canonical =
          current.CanonicalRewriting(*normalized);
      if (!canonical.has_value()) return std::nullopt;
      for (PreparedTarget& other : prepared) {
        ConjunctiveQuery expansion =
            ExpandViewAtoms(*canonical, other.target.views);
        if (!logic::CqContainedIn(expansion, other.goal)) return std::nullopt;
        other.expansion.Add(expansion);
      }
      rewriting.Add(std::move(*canonical));
    }
  }
  return rewriting;
}

std::optional<UnionQuery> EquivalentRewriting(const UnionQuery& goal,
                                              const std::vector<View>& views) {
  return EquivalentRewriting({RewritingTarget{goal, views}});
}

}  // namespace sws::rw
