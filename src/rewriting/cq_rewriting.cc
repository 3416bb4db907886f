#include "rewriting/cq_rewriting.h"

#include <algorithm>
#include <functional>

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

namespace {

// Enumerates candidate rewritings over the views: view-atom multisets of
// size 1..max_atoms, identification patterns over their argument
// positions (constants of the goal may be used), and head assignments.
// Returns false iff the candidate budget ran out.
bool EnumerateCandidates(
    size_t head_arity, const std::set<rel::Value>& constants,
    const std::vector<View>& views, size_t max_atoms, uint64_t* budget,
    const std::function<bool(const ConjunctiveQuery&)>& on_candidate) {

  std::vector<size_t> chosen;  // view indices, nondecreasing
  std::function<bool()> instantiate = [&]() -> bool {
    // Argument positions of the chosen atoms.
    size_t positions = 0;
    for (size_t v : chosen) positions += views[v].definition.head_arity();
    std::vector<Term> items;
    for (const rel::Value& c : constants) items.push_back(Term::Const(c));
    for (size_t i = 0; i < positions; ++i) {
      items.push_back(Term::Var(static_cast<int>(i)));
    }
    bool keep_going = true;
    logic::EnumerateIdentifications(
        items, [&](const std::vector<Term>& ident) {
          // Build the candidate body.
          std::vector<Atom> body;
          size_t pos = 0;
          std::vector<Term> block_list;
          for (size_t v : chosen) {
            std::vector<Term> args;
            for (size_t i = 0; i < views[v].definition.head_arity(); ++i) {
              Term rep = ident[pos++];
              block_list.push_back(rep);
              args.push_back(rep);
            }
            body.push_back(Atom{views[v].name, std::move(args)});
          }
          for (const rel::Value& c : constants) {
            block_list.push_back(Term::Const(c));
          }
          // Head assignments: every head position takes any block.
          std::sort(block_list.begin(), block_list.end());
          block_list.erase(std::unique(block_list.begin(), block_list.end()),
                           block_list.end());
          std::vector<Term> head(head_arity, Term::Int(0));
          std::function<bool(size_t)> assign_head = [&](size_t i) -> bool {
            if (i == head_arity) {
              if (*budget == 0) return false;
              --*budget;
              return on_candidate(ConjunctiveQuery(head, body));
            }
            for (const Term& b : block_list) {
              // Head variables must occur in the body (safety).
              if (b.is_var()) {
                bool in_body = false;
                for (const Atom& a : body) {
                  for (const Term& t : a.args) {
                    if (t == b) in_body = true;
                  }
                }
                if (!in_body) continue;
              }
              head[i] = b;
              if (!assign_head(i + 1)) return false;
            }
            return true;
          };
          if (!assign_head(0)) {
            keep_going = false;
            return false;
          }
          return true;
        });
    return keep_going;
  };

  std::function<bool(size_t, size_t)> choose = [&](size_t count,
                                                   size_t min_view) -> bool {
    if (count > 0 && !instantiate()) return false;
    if (count == max_atoms) return true;
    for (size_t v = min_view; v < views.size(); ++v) {
      chosen.push_back(v);
      bool ok = choose(count + 1, v);
      chosen.pop_back();
      if (!ok) return false;
    }
    return true;
  };
  return choose(0, 0);
}

// Constants of a query, as identification blocks for candidates.
std::set<rel::Value> QueryConstants(const ConjunctiveQuery& q) {
  std::set<rel::Value> constants;
  for (const Term& t : q.AllTerms()) {
    if (t.is_const()) constants.insert(t.value());
  }
  return constants;
}

}  // namespace

CqRewriteResult FindEquivalentCqRewriting(const ConjunctiveQuery& goal,
                                          const std::vector<View>& views,
                                          const CqRewriteOptions& options) {
  CqRewriteResult result;
  size_t max_atoms =
      options.max_atoms > 0 ? options.max_atoms : goal.body().size();
  uint64_t budget = options.max_candidates;
  const logic::PreparedUcq prepared_goal(UnionQuery::Single(goal));
  bool completed = EnumerateCandidates(
      goal.head_arity(), QueryConstants(goal), views, max_atoms, &budget,
      [&](const ConjunctiveQuery& candidate) {
        ++result.candidates_tried;
        ConjunctiveQuery expansion = ExpandViewAtoms(candidate, views);
        if (logic::CqContainedIn(expansion, prepared_goal) &&
            logic::CqContainedIn(goal, expansion)) {
          result.found = true;
          result.rewriting = candidate;
          result.expansion = expansion;
          return false;  // stop
        }
        return true;
      });
  result.budget_exhausted = !completed && !result.found;
  return result;
}

UnionQuery MaximallyContainedRewriting(const ConjunctiveQuery& goal,
                                       const std::vector<View>& views,
                                       const CqRewriteOptions& options) {
  CqRewriteOptions opts = options;
  if (opts.max_atoms == 0) opts.max_atoms = goal.body().size();
  return MaximallyContainedRewriting(UnionQuery::Single(goal), views, opts);
}

namespace {

// Body-driven enumeration with goal-driven head discovery: for each
// candidate *body* over the views, candidate heads are read off the goal
// evaluated on the canonical database of the body's expansion (exact for
// comparison-free queries; every head is re-verified by containment, so
// soundness never depends on the shortcut). The goal is prepared once
// per search, and the union of accepted expansions grows prepared.
class UnionRewriter {
 public:
  UnionRewriter(const UnionQuery& goal, const std::vector<View>& views,
                const CqRewriteOptions& options)
      : goal_(goal), prepared_goal_(goal), views_(views), options_(options),
        rewriting_(goal.head_arity()), expansion_union_(goal.head_arity()) {}

  UnionQuery Run() {
    size_t max_atoms = options_.max_atoms;
    std::set<rel::Value> constants;
    for (const ConjunctiveQuery& d : goal_.disjuncts()) {
      if (options_.max_atoms == 0) {
        max_atoms = std::max(max_atoms, d.body().size());
      }
      for (const rel::Value& c : QueryConstants(d)) constants.insert(c);
    }
    if (max_atoms == 0) max_atoms = 1;
    budget_ = options_.max_candidates;

    std::vector<size_t> chosen;
    std::function<bool(size_t, size_t)> choose = [&](size_t count,
                                                     size_t min_view) {
      if (count > 0 && !TryBodies(chosen, constants)) return false;
      if (count == max_atoms) return true;
      for (size_t v = min_view; v < views_.size(); ++v) {
        chosen.push_back(v);
        bool keep_going = choose(count + 1, v);
        chosen.pop_back();
        if (!keep_going) return false;
      }
      return true;
    };
    choose(0, 0);
    return std::move(rewriting_);
  }

 private:
  // Enumerates identification patterns for one view multiset.
  bool TryBodies(const std::vector<size_t>& chosen,
                 const std::set<rel::Value>& constants) {
    size_t positions = 0;
    for (size_t v : chosen) positions += views_[v].definition.head_arity();
    if (!options_.merge_variables) {
      // Identity pattern only: all positions distinct fresh variables.
      std::vector<Term> ident;
      for (size_t i = 0; i < positions; ++i) {
        ident.push_back(Term::Var(static_cast<int>(i)));
      }
      if (budget_ == 0) return false;
      --budget_;
      return TryIdentification(chosen, ident);
    }
    std::vector<Term> items;
    for (const rel::Value& c : constants) items.push_back(Term::Const(c));
    for (size_t i = 0; i < positions; ++i) {
      items.push_back(Term::Var(static_cast<int>(i)));
    }
    bool keep_going = true;
    logic::EnumerateIdentifications(
        items, [&](const std::vector<Term>& ident) {
          if (budget_ == 0) {
            keep_going = false;
            return false;
          }
          --budget_;
          if (!TryIdentification(chosen, ident)) {
            keep_going = false;
            return false;
          }
          return true;
        });
    return keep_going;
  }

  bool TryIdentification(const std::vector<size_t>& chosen,
                         const std::vector<Term>& ident) {
    std::vector<Atom> body;
    size_t pos = 0;
    std::vector<Term> blocks;
    for (size_t v : chosen) {
      std::vector<Term> args;
      for (size_t i = 0; i < views_[v].definition.head_arity(); ++i) {
        Term rep = ident[pos++];
        if (std::find(blocks.begin(), blocks.end(), rep) == blocks.end()) {
          blocks.push_back(rep);
        }
        args.push_back(rep);
      }
      body.push_back(Atom{views_[v].name, std::move(args)});
    }
    return TryHeads(body, blocks);
  }

  bool TryHeads(const std::vector<Atom>& body,
                const std::vector<Term>& blocks) {
    // Probe expansion with all blocks as the head.
    ConjunctiveQuery probe(blocks, body);
    auto expanded = ExpandViewAtoms(probe, views_).Normalize();
    if (!expanded.has_value()) return true;  // unsatisfiable body
    rel::Tuple frozen_blocks;
    rel::Database canon = expanded->CanonicalDatabase(&frozen_blocks);
    rel::Relation heads = prepared_goal_.Evaluate(canon);
    for (const rel::Tuple& h : heads) {
      std::vector<Term> head;
      bool ok = true;
      for (const rel::Value& value : h) {
        // Map the value back to a block term (or keep it as a constant).
        size_t k = 0;
        while (k < blocks.size() && !(frozen_blocks[k] == value)) ++k;
        if (k < blocks.size()) {
          head.push_back(blocks[k]);
        } else if (!value.is_null()) {
          head.push_back(Term::Const(value));
        } else {
          ok = false;  // a view-internal null: not expressible in the head
          break;
        }
      }
      if (!ok) continue;
      ConjunctiveQuery candidate(head, body);
      ConjunctiveQuery expansion = ExpandViewAtoms(candidate, views_);
      if (!logic::CqContainedIn(expansion, prepared_goal_)) continue;
      if (logic::CqContainedIn(expansion, expansion_union_)) continue;
      rewriting_.Add(candidate);
      expansion_union_.Add(expansion);
      if (options_.stop_when_covering &&
          logic::UcqContainedIn(goal_, expansion_union_)) {
        return false;  // covered: stop the whole enumeration
      }
    }
    return true;
  }

  const UnionQuery& goal_;
  const logic::PreparedUcq prepared_goal_;
  const std::vector<View>& views_;
  const CqRewriteOptions& options_;
  UnionQuery rewriting_;
  logic::PreparedUcq expansion_union_;  // the accepted expansions
  uint64_t budget_ = 0;
};

}  // namespace

UnionQuery MaximallyContainedRewriting(const UnionQuery& goal,
                                       const std::vector<View>& views,
                                       const CqRewriteOptions& options) {
  UnionRewriter rewriter(goal, views, options);
  return rewriter.Run();
}

}  // namespace sws::rw
