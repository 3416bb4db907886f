#include "sws/unfold.h"

#include <algorithm>
#include <optional>
#include <span>

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
using logic::Term;
using logic::UnionQuery;

// The disjuncts of a CQ or UCQ rule, read in place.
std::span<const ConjunctiveQuery> Disjuncts(const RelQuery& rule) {
  if (rule.is_cq()) return {&rule.cq(), 1};
  return rule.ucq().disjuncts();
}

// The distinct variables of a query, ascending, in a buffer reused from
// query to query: Fresh(t, first) renames the i-th to first + i, as
// ConjunctiveQuery::Renumbered(first) does.
class VarRanks {
 public:
  void Assign(const ConjunctiveQuery& q) {
    ids_.clear();
    q.ForEachTerm([this](const Term& t) {
      if (t.is_var()) ids_.push_back(t.var());
    });
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  }
  int size() const { return static_cast<int>(ids_.size()); }
  Term Fresh(const Term& t, int first) const {
    if (t.is_const()) return t;
    auto it = std::lower_bound(ids_.begin(), ids_.end(), t.var());
    return Term::Var(first + static_cast<int>(it - ids_.begin()));
  }

 private:
  std::vector<int> ids_;
};

// Renumbers q's variables densely, 0, 1, ..., in ascending id order, in
// place: a fresh copy of a dense query is then a shift (Shifted).
void Densify(ConjunctiveQuery* q, VarRanks* ranks) {
  ranks->Assign(*q);
  q->ForEachTerm([ranks](Term& t) { t = ranks->Fresh(t, 0); });
}

// The number of variables of a dense query.
int NumVars(const ConjunctiveQuery& dense) { return dense.MaxVar() + 1; }

Term Shifted(const Term& t, int first) {
  return t.is_var() ? Term::Var(t.var() + first) : t;
}

// Atom `relation`(args of a), each argument renamed by `fresh`.
template <typename Fresh>
Atom RenamedAtom(const std::string& relation, const Atom& a, Fresh fresh) {
  Atom out{relation, {}};
  out.args.reserve(a.args.size());
  for (const Term& t : a.args) out.args.push_back(fresh(t));
  return out;
}

// Appends rule's head and comparisons, each term renamed by `fresh`.
template <typename Fresh>
void AppendHeadAndComparisons(const ConjunctiveQuery& rule, Fresh fresh,
                              ConjunctiveQuery* out) {
  for (const Term& t : rule.head()) out->mutable_head()->push_back(fresh(t));
  for (const Comparison& c : rule.comparisons()) {
    out->mutable_comparisons()->push_back(
        Comparison{fresh(c.lhs), fresh(c.rhs), c.is_equality});
  }
}

// Appends the body and comparisons of a dense query, shifted by `first`.
void AppendShifted(const ConjunctiveQuery& dense, int first,
                   ConjunctiveQuery* out) {
  auto shift = [first](const Term& t) { return Shifted(t, first); };
  for (const Atom& a : dense.body()) {
    out->mutable_body()->push_back(RenamedAtom(a.relation, a, shift));
  }
  for (const Comparison& c : dense.comparisons()) {
    out->mutable_comparisons()->push_back(
        Comparison{shift(c.lhs), shift(c.rhs), c.is_equality});
  }
}

// Stands a dense query, shifted by `first`, in for `atom`: appends its
// body and comparisons, then '=' comparisons unifying its head with the
// atom's arguments renamed by `fresh`.
template <typename Fresh>
void InlineAt(const Atom& atom, Fresh fresh, const ConjunctiveQuery& dense,
              int first, ConjunctiveQuery* out) {
  AppendShifted(dense, first, out);
  for (size_t l = 0; l < atom.args.size(); ++l) {
    out->mutable_comparisons()->push_back(
        Comparison{Shifted(dense.head()[l], first), fresh(atom.args[l]),
                   /*is_equality=*/true});
  }
}

// The unfolding for inputs of length exactly n, noting whether the end
// of the input cut a node of the execution tree. Each disjunct is built
// once, in place. A rule of the service is read where it stands, its
// variables renamed through a rank of its ids; a message register or a
// child's disjunct is numbered densely once, when it is made, and each
// use takes a shifted copy. Fresh ids are handed out in one order, the
// order of the uses, which fixes the numbering of the result.
class LengthUnfolder {
 public:
  LengthUnfolder(const Sws& sws, size_t n) : sws_(sws), n_(n) {}

  Unfolding Root() {
    UnionQuery ucq = ActQuery(sws_.start_state(), 0, nullptr);
    return Unfolding{std::move(ucq), !cut_};
  }

 private:
  // A child disjunct chosen for an Act atom, and its first fresh id.
  struct Choice {
    const ConjunctiveQuery* dense;
    int first;
  };

  // Takes `count` fresh ids; returns the first.
  int Take(int count) { return (next_var_ += count) - count; }

  // Inlines a rule CQ written over R ∪ {In, Msg} reading input message
  // I_{input_level} into *out: "In" atoms become "In@level"; "Msg" atoms
  // are replaced by the node's dense register `msg` (body copied, head
  // unified via '=' comparisons), and sets *read_msg (if non-null) when
  // there was one. Returns false if the CQ reads Msg but the register is
  // definitely empty (null), or reads In at level 0 (the root's empty
  // message I_0).
  bool InlineBase(const ConjunctiveQuery& rule, size_t input_level,
                  const ConjunctiveQuery* msg, ConjunctiveQuery* out,
                  bool* read_msg = nullptr) {
    ranks_.Assign(rule);
    const int first = Take(ranks_.size());
    auto fresh = [this, first](const Term& t) {
      return ranks_.Fresh(t, first);
    };
    // Room for the rule and one copy of the register: inlined, or the
    // guard Finalize appends.
    const size_t msg_body = msg != nullptr ? msg->body().size() : 0;
    const size_t msg_comparisons =
        msg != nullptr ? msg->comparisons().size() + msg->head_arity() : 0;
    out->mutable_head()->reserve(rule.head_arity());
    out->mutable_body()->reserve(rule.body().size() + msg_body);
    out->mutable_comparisons()->reserve(rule.comparisons().size() +
                                        msg_comparisons);
    AppendHeadAndComparisons(rule, fresh, out);
    for (const Atom& atom : rule.body()) {
      if (atom.relation == kInputRelation) {
        if (input_level == 0) return false;
        out->mutable_body()->push_back(
            RenamedAtom(InputRelationAt(input_level), atom, fresh));
      } else if (atom.relation == kMsgRelation) {
        if (msg == nullptr) return false;
        SWS_CHECK_EQ(msg->head_arity(), atom.args.size());
        InlineAt(atom, fresh, *msg, Take(NumVars(*msg)), out);
        if (read_msg != nullptr) *read_msg = true;
      } else {
        out->mutable_body()->push_back(
            RenamedAtom(atom.relation, atom, fresh));
      }
    }
    return true;
  }

  // Conjoins the nonemptiness guard "∃ msg" of a node below the root (a
  // copy of the register's body, head ignored: the Msg(v) = ∅ ⇒
  // Act(v) = ∅ run rule), normalizes the disjunct in place and adds it
  // unless it is unsatisfiable.
  void Finalize(ConjunctiveQuery disjunct, const ConjunctiveQuery* msg,
                UnionQuery* out) {
    if (msg != nullptr) AppendShifted(*msg, Take(NumVars(*msg)), &disjunct);
    if (auto norm = std::move(disjunct).Normalize(); norm.has_value()) {
      out->Add(std::move(*norm));
    }
  }

  // Expands the Act atoms of synthesis disjunct d (its ids ranked in
  // ranks_, renamed from `first`) by all combinations of child-act
  // disjuncts: one choice per atom on choices_, popped on backtrack.
  void ExpandSynth(const ConjunctiveQuery& d, int first,
                   const std::vector<UnionQuery>& child_acts,
                   const ConjunctiveQuery* msg, UnionQuery* out) {
    if (choices_.size() == d.body().size()) {
      Finalize(EmitChoices(d, first, msg), msg, out);
      return;
    }
    const Atom& atom = d.body()[choices_.size()];
    const size_t act_index = ActIndex(atom.relation);
    SWS_CHECK(act_index >= 1 && act_index <= child_acts.size())
        << "internal synthesis atom reads " << atom.relation;
    for (const ConjunctiveQuery& choice :
         child_acts[act_index - 1].disjuncts()) {
      SWS_CHECK_EQ(choice.head_arity(), atom.args.size());
      choices_.push_back(Choice{&choice, Take(NumVars(choice))});
      ExpandSynth(d, first, child_acts, msg, out);
      choices_.pop_back();
    }
  }

  // The disjunct of d under the choices on choices_: d's head and
  // comparisons, then per Act atom the chosen body and comparisons and
  // the '=' comparisons unifying its head with the atom's arguments.
  ConjunctiveQuery EmitChoices(const ConjunctiveQuery& d, int first,
                               const ConjunctiveQuery* msg) {
    auto fresh = [this, first](const Term& t) {
      return ranks_.Fresh(t, first);
    };
    size_t body = msg != nullptr ? msg->body().size() : 0;
    size_t comparisons = d.comparisons().size() +
                         (msg != nullptr ? msg->comparisons().size() : 0);
    for (const Choice& c : choices_) {
      body += c.dense->body().size();
      comparisons += c.dense->comparisons().size() + c.dense->head_arity();
    }
    ConjunctiveQuery out;
    out.mutable_head()->reserve(d.head_arity());
    out.mutable_body()->reserve(body);
    out.mutable_comparisons()->reserve(comparisons);
    AppendHeadAndComparisons(d, fresh, &out);
    for (size_t i = 0; i < choices_.size(); ++i) {
      InlineAt(d.body()[i], fresh, *choices_[i].dense, choices_[i].first,
               &out);
    }
    return out;
  }

  // The UCQ defining Act(q) for a node at timestamp j whose message
  // register is the dense query `msg` (null: definitely empty, or the
  // root). The root is at timestamp 0; a node at timestamp j reads I_j
  // in a final state and spawns children whose registers read I_{j+1}.
  UnionQuery ActQuery(int state, size_t j, const ConjunctiveQuery* msg) {
    const bool is_root = j == 0;
    UnionQuery out(sws_.rout_arity());
    if (!is_root && msg == nullptr) return out;  // empty register
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
      // Final state: Act = ψ(D, I_j, Msg). A rule that reads Msg holds a
      // copy of the register, into which the guard maps, so it gets none.
      for (const ConjunctiveQuery& d : Disjuncts(sws_.Synthesis(state))) {
        ConjunctiveQuery inlined;
        bool read_msg = false;
        if (!InlineBase(d, j, msg, &inlined, &read_msg)) continue;
        Finalize(std::move(inlined), read_msg ? nullptr : msg, &out);
      }
      return out;
    }

    // Child registers, then child action queries, both dense.
    std::vector<UnionQuery> child_acts;
    child_acts.reserve(successors.size());
    for (const TransitionTarget& t : successors) {
      std::optional<ConjunctiveQuery> child_msg;
      ConjunctiveQuery inlined;
      if (InlineBase(t.query.cq(), j + 1, msg, &inlined)) {
        // Prune definitely-empty registers early.
        child_msg = std::move(inlined).Normalize();
        if (child_msg.has_value()) Densify(&*child_msg, &ranks_);
      }
      child_acts.push_back(ActQuery(
          t.state, j + 1, child_msg.has_value() ? &*child_msg : nullptr));
      for (ConjunctiveQuery& d : *child_acts.back().mutable_disjuncts()) {
        Densify(&d, &ranks_);
      }
    }

    // ranks_ holds d's ids through the expansion: nothing else is
    // ranked until it ends.
    for (const ConjunctiveQuery& d : Disjuncts(sws_.Synthesis(state))) {
      ranks_.Assign(d);
      ExpandSynth(d, Take(ranks_.size()), child_acts, msg, &out);
    }
    return out;
  }

  const Sws& sws_;
  const size_t n_;
  int next_var_ = 0;
  bool cut_ = false;
  VarRanks ranks_;
  std::vector<Choice> choices_;
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
  const std::span<const ConjunctiveQuery> psi =
      Disjuncts(sws.Synthesis(state));
  if (successors.empty()) return psi.size();
  std::vector<size_t> child_bounds;
  for (const TransitionTarget& t : successors) {
    child_bounds.push_back(DisjunctBound(sws, t.state, j + 1, n));
  }
  size_t total = 0;
  for (const ConjunctiveQuery& d : psi) {
    size_t product = 1;
    for (const Atom& atom : d.body()) {
      const size_t act_index = ActIndex(atom.relation);
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
