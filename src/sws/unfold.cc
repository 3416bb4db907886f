#include "sws/unfold.h"

#include <algorithm>
#include <optional>

#include "util/common.h"

namespace sws::core {

std::string InputRelationAt(size_t j) {
  SWS_CHECK_GE(j, 1u);
  return "In@" + std::to_string(j);
}

rel::Database PackDatabaseAndInput(const rel::Database& db,
                                   const rel::InputSequence& input) {
  rel::Database packed = db;
  for (size_t j = 1; j <= input.size(); ++j) {
    packed.Set(InputRelationAt(j), input.Message(j));
  }
  return packed;
}

namespace {

using logic::Atom;
using logic::Comparison;
using logic::ConjunctiveQuery;
using logic::UnionQuery;

// Parses "Act<i>" into i; 0 if the name is not an Act register.
size_t ParseActIndex(const std::string& relation) {
  if (relation.size() <= 3 || relation.compare(0, 3, "Act") != 0) return 0;
  size_t i = 0;
  for (size_t pos = 3; pos < relation.size(); ++pos) {
    char c = relation[pos];
    if (c < '0' || c > '9') return 0;
    i = i * 10 + static_cast<size_t>(c - '0');
  }
  return i;
}

// The unfolding for inputs of length exactly n, noting whether the end
// of the input cut a node of the execution tree.
class LengthUnfolder {
 public:
  LengthUnfolder(const Sws& sws, size_t n) : sws_(sws), n_(n) {}

  Unfolding Root() {
    UnionQuery ucq =
        ActQuery(sws_.start_state(), 0, std::nullopt, /*is_root=*/true);
    return Unfolding{std::move(ucq), !cut_};
  }

 private:
  // Rewrites q's variables, in ascending id order, to globally fresh
  // ones.
  ConjunctiveQuery Freshen(const ConjunctiveQuery& q) {
    ConjunctiveQuery fresh = q.Renumbered(next_var_);
    next_var_ = std::max(next_var_, fresh.MaxVar() + 1);
    return fresh;
  }

  // Inlines a rule CQ written over R ∪ {In, Msg} reading input message
  // I_{input_level}: "In" atoms become "In@level"; "Msg" atoms are
  // replaced by the node's msg-defining query (body copied, head unified
  // via '=' comparisons). Returns nullopt if the CQ reads Msg but the
  // register is definitely empty, or reads In at level 0 (the root's
  // empty message I_0).
  std::optional<ConjunctiveQuery> InlineBase(
      const ConjunctiveQuery& rule, size_t input_level,
      const std::optional<ConjunctiveQuery>& msg) {
    ConjunctiveQuery q = Freshen(rule);
    ConjunctiveQuery out(q.head(), {}, q.comparisons());
    for (const Atom& atom : q.body()) {
      if (atom.relation == kInputRelation) {
        if (input_level == 0) return std::nullopt;
        out.mutable_body()->push_back(
            Atom{InputRelationAt(input_level), atom.args});
      } else if (atom.relation == kMsgRelation) {
        if (!msg.has_value()) return std::nullopt;
        ConjunctiveQuery m = Freshen(*msg);
        SWS_CHECK_EQ(m.head_arity(), atom.args.size());
        for (const Atom& a : m.body()) out.mutable_body()->push_back(a);
        for (const Comparison& c : m.comparisons()) {
          out.mutable_comparisons()->push_back(c);
        }
        for (size_t l = 0; l < atom.args.size(); ++l) {
          out.mutable_comparisons()->push_back(
              Comparison{m.head()[l], atom.args[l], /*is_equality=*/true});
        }
      } else {
        out.mutable_body()->push_back(atom);
      }
    }
    return out;
  }

  // Conjoins the nonemptiness guard "∃ msg": a copy of the msg-defining
  // body (head ignored) — the Msg(v) = ∅ ⇒ Act(v) = ∅ run rule.
  void ConjoinGuard(ConjunctiveQuery* q, const ConjunctiveQuery& msg) {
    ConjunctiveQuery m = Freshen(msg);
    for (const Atom& a : m.body()) q->mutable_body()->push_back(a);
    for (const Comparison& c : m.comparisons()) {
      q->mutable_comparisons()->push_back(c);
    }
  }

  void FinalizeDisjunct(ConjunctiveQuery disjunct, bool is_root,
                        const std::optional<ConjunctiveQuery>& msg,
                        UnionQuery* out) {
    if (!is_root && msg.has_value()) ConjoinGuard(&disjunct, *msg);
    if (auto norm = disjunct.Normalize(); norm.has_value()) {
      out->Add(*norm);
    }
  }

  // Expands the Act atoms of a synthesis disjunct by all combinations of
  // child-act disjuncts.
  void ExpandSynth(const ConjunctiveQuery& d, size_t atom_index,
                   ConjunctiveQuery acc,
                   const std::vector<UnionQuery>& child_acts, bool is_root,
                   const std::optional<ConjunctiveQuery>& msg,
                   UnionQuery* out) {
    if (atom_index == d.body().size()) {
      FinalizeDisjunct(std::move(acc), is_root, msg, out);
      return;
    }
    const Atom& atom = d.body()[atom_index];
    size_t act_index = ParseActIndex(atom.relation);
    SWS_CHECK(act_index >= 1 && act_index <= child_acts.size())
        << "internal synthesis atom reads " << atom.relation;
    for (const ConjunctiveQuery& choice :
         child_acts[act_index - 1].disjuncts()) {
      ConjunctiveQuery c = Freshen(choice);
      SWS_CHECK_EQ(c.head_arity(), atom.args.size());
      ConjunctiveQuery next = acc;
      for (const Atom& a : c.body()) next.mutable_body()->push_back(a);
      for (const Comparison& cmp : c.comparisons()) {
        next.mutable_comparisons()->push_back(cmp);
      }
      for (size_t l = 0; l < atom.args.size(); ++l) {
        next.mutable_comparisons()->push_back(
            Comparison{c.head()[l], atom.args[l], /*is_equality=*/true});
      }
      ExpandSynth(d, atom_index + 1, std::move(next), child_acts, is_root,
                  msg, out);
    }
  }

  // The UCQ defining Act(q) for a node at timestamp j whose message
  // register is defined by `msg` (nullopt = definitely empty). The root
  // is at timestamp 0; a node at timestamp j reads I_j in a final state
  // and spawns children whose registers read I_{j+1}.
  UnionQuery ActQuery(int state, size_t j,
                      const std::optional<ConjunctiveQuery>& msg,
                      bool is_root) {
    UnionQuery out(sws_.rout_arity());
    if (!is_root && !msg.has_value()) return out;  // empty register
    // n is read only here: a node the end of the input cuts would run on
    // a longer input, so the unfolding is complete only if none is cut.
    if (j > n_) {  // input exhausted
      cut_ = true;
      return out;
    }
    if (is_root && n_ == 0) {  // root needs nonempty I
      cut_ = true;
      return out;
    }

    const auto& successors = sws_.Successors(state);
    if (successors.empty()) {
      // Final state: Act = ψ(D, I_j, Msg).
      UnionQuery psi = sws_.Synthesis(state).AsUcq();
      for (const ConjunctiveQuery& d : psi.disjuncts()) {
        auto inlined = InlineBase(d, j, msg);
        if (!inlined.has_value()) continue;
        FinalizeDisjunct(std::move(*inlined), is_root, msg, &out);
      }
      return out;
    }

    // Child registers, then child action queries.
    std::vector<UnionQuery> child_acts;
    for (const TransitionTarget& t : successors) {
      std::optional<ConjunctiveQuery> child_msg =
          InlineBase(t.query.cq(), j + 1, msg);
      if (child_msg.has_value()) {
        // Prune definitely-empty registers early.
        child_msg = child_msg->Normalize();
      }
      child_acts.push_back(
          ActQuery(t.state, j + 1, child_msg, /*is_root=*/false));
    }

    UnionQuery psi = sws_.Synthesis(state).AsUcq();
    for (const ConjunctiveQuery& d_raw : psi.disjuncts()) {
      ConjunctiveQuery d = Freshen(d_raw);
      ConjunctiveQuery acc(d.head(), {}, d.comparisons());
      ExpandSynth(d, 0, std::move(acc), child_acts, is_root, msg, &out);
    }
    return out;
  }

  const Sws& sws_;
  const size_t n_;
  int next_var_ = 0;
  bool cut_ = false;
};

}  // namespace

Unfolder::Unfolder(const Sws& sws) : sws_(sws) {
  SWS_CHECK(sws.IsCqUcq()) << "unfolding needs an SWS(CQ, UCQ) service";
  SWS_CHECK(!sws.Validate().has_value()) << *sws.Validate();
}

Unfolding Unfolder::At(size_t n) const {
  return LengthUnfolder(sws_, n).Root();
}

UnionQuery UnfoldToUcq(const Sws& sws, size_t n) {
  return Unfolder(sws).At(n).ucq;
}

namespace {

size_t DisjunctBound(const Sws& sws, int state, size_t j, size_t n) {
  if (j > n || n == 0) return 0;
  const auto& successors = sws.Successors(state);
  UnionQuery psi = sws.Synthesis(state).AsUcq();
  if (successors.empty()) return psi.size();
  std::vector<size_t> child_bounds;
  for (const TransitionTarget& t : successors) {
    child_bounds.push_back(DisjunctBound(sws, t.state, j + 1, n));
  }
  size_t total = 0;
  for (const ConjunctiveQuery& d : psi.disjuncts()) {
    size_t product = 1;
    for (const Atom& atom : d.body()) {
      size_t act_index = ParseActIndex(atom.relation);
      if (act_index >= 1 && act_index <= child_bounds.size()) {
        product *= child_bounds[act_index - 1];
      }
      if (product == 0) break;
    }
    total += product;
  }
  return total;
}

}  // namespace

size_t UnfoldDisjunctBound(const Sws& sws, size_t n) {
  return DisjunctBound(sws, sws.start_state(), 0, n);
}

}  // namespace sws::core
