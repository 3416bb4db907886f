// Reference unfolding of an SWS(CQ, UCQ) service, the oracle for
// core::Unfolder (sws/unfold.h): the construction written as directly as
// possible. Every rule, message register and child disjunct is copied
// and renamed apart (Freshen) at each use, the synthesis accumulator is
// copied for each choice of child disjunct, and each finished disjunct
// is normalized into a copy. core::Unfolder must produce exactly this:
// the same disjuncts in the same order, the same variable numbering and
// the same `complete` flag.
//
// A leaf rule that reads Msg inlines a copy of its register, into which
// the nonemptiness guard ∃msg (the Msg(v) = ∅ ⇒ Act(v) = ∅ run rule)
// maps, so it gets no guard. Guards::kAlways conjoins the guard anyway,
// the construction before that rule, which the tests compare by
// containment.

#ifndef SWS_TESTS_UNFOLD_ORACLE_H_
#define SWS_TESTS_UNFOLD_ORACLE_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "sws/unfold.h"
#include "util/common.h"

namespace sws::core::oracle {

/// Which disjuncts of a node below the root get the guard ∃msg.
enum class Guards {
  kUnlessInlined,  // all but leaf rules that read Msg (core::Unfolder)
  kAlways,         // all of them
};

// The unfolding for inputs of length exactly n, noting whether the end
// of the input cut a node of the execution tree.
class LengthUnfolder {
 public:
  LengthUnfolder(const Sws& sws, size_t n, Guards guards, int* dropped)
      : sws_(sws), n_(n), guards_(guards), dropped_(dropped) {}

  Unfolding Root() {
    logic::UnionQuery ucq =
        ActQuery(sws_.start_state(), 0, std::nullopt, /*is_root=*/true);
    return Unfolding{std::move(ucq), !cut_};
  }

 private:
  using Atom = logic::Atom;
  using Comparison = logic::Comparison;
  using ConjunctiveQuery = logic::ConjunctiveQuery;
  using UnionQuery = logic::UnionQuery;

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
  // via '=' comparisons), and sets *read_msg (if non-null) when there was
  // one. Returns nullopt if the CQ reads Msg but the register is
  // definitely empty, or reads In at level 0 (the root's empty message
  // I_0).
  std::optional<ConjunctiveQuery> InlineBase(
      const ConjunctiveQuery& rule, size_t input_level,
      const std::optional<ConjunctiveQuery>& msg, bool* read_msg = nullptr) {
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
        if (read_msg != nullptr) *read_msg = true;
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
    size_t act_index = ActIndex(atom.relation);
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
      // Final state: Act = ψ(D, I_j, Msg). A rule that reads Msg holds a
      // copy of the register, into which the guard maps.
      UnionQuery psi = sws_.Synthesis(state).AsUcq();
      for (const ConjunctiveQuery& d : psi.disjuncts()) {
        bool read_msg = false;
        auto inlined = InlineBase(d, j, msg, &read_msg);
        if (!inlined.has_value()) continue;
        const bool guarded = !read_msg || guards_ == Guards::kAlways;
        if (!guarded) ++*dropped_;
        FinalizeDisjunct(std::move(*inlined), is_root,
                         guarded ? msg : std::nullopt, &out);
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
  const Guards guards_;
  int* const dropped_;
  int next_var_ = 0;
  bool cut_ = false;
};

/// The unfolding of `sws` (a well-formed SWS(CQ, UCQ) service, not
/// checked here) for inputs of length n, with the guards `guards`;
/// adds the number of guards it leaves out to `*dropped` if non-null.
inline Unfolding Unfold(const Sws& sws, size_t n,
                        Guards guards = Guards::kUnlessInlined,
                        int* dropped = nullptr) {
  int ignored = 0;
  return LengthUnfolder(sws, n, guards, dropped != nullptr ? dropped : &ignored)
      .Root();
}

}  // namespace sws::core::oracle

#endif  // SWS_TESTS_UNFOLD_ORACLE_H_
