#include "sws/pl_sws.h"

#include <functional>
#include <sstream>

#include "logic/fo.h"
#include "util/common.h"

namespace sws::core {

PlSws::PlSws(int num_input_vars) : num_input_vars_(num_input_vars) {
  SWS_CHECK_GE(num_input_vars, 0);
}

std::optional<std::string> PlSws::Validate() const {
  if (auto err = ValidateGraph("service"); err.has_value()) return err;
  for (const State& rules : states()) {
    for (const auto& s : rules.successors) {
      for (int v : s.guard.Vars()) {
        if (v > msg_var()) {
          return "transition formula of " + rules.name +
                 " uses out-of-range variable x" + std::to_string(v);
        }
      }
    }
    for (int v : rules.synthesis->Vars()) {
      if (rules.successors.empty()) {
        if (v > msg_var()) {
          return "final synthesis of " + rules.name +
                 " uses out-of-range variable x" + std::to_string(v);
        }
      } else if (v >= static_cast<int>(rules.successors.size())) {
        return "synthesis of " + rules.name + " references successor " +
               std::to_string(v) + " but rule has only " +
               std::to_string(rules.successors.size()) + " successors";
      }
    }
  }
  return std::nullopt;
}

std::string PlSws::Classify() const {
  return IsRecursive() ? "SWS(PL, PL)" : "SWSnr(PL, PL)";
}

bool PlSws::FinalValue(int state, const Symbol& a, bool msg) const {
  SWS_CHECK(IsFinalState(state));
  return Synthesis(state).EvalWith([this, &a, msg](int v) {
    if (v == msg_var()) return msg;
    return a.count(v) > 0;
  });
}

bool PlSws::InternalValue(int state, const Symbol& a, bool msg,
                          const std::vector<bool>& next_values) const {
  const State& rules = states()[state];
  SWS_CHECK(!rules.successors.empty());
  auto input_assignment = [this, &a, msg](int v) {
    if (v == msg_var()) return msg;
    return a.count(v) > 0;
  };
  std::vector<bool> child_values(rules.successors.size());
  for (size_t i = 0; i < rules.successors.size(); ++i) {
    const Successor& s = rules.successors[i];
    bool child_msg = s.guard.EvalWith(input_assignment);
    child_values[i] = child_msg && next_values[s.state];
  }
  return Synthesis(state).EvalWith(
      [&child_values](int i) { return child_values[i]; });
}

std::vector<bool> PlSws::ValuesAt(const std::vector<bool>& carry,
                                  const Symbol& a) const {
  SWS_CHECK_EQ(carry.size(), static_cast<size_t>(num_states()));
  std::vector<bool> values(num_states());
  for (int q = 0; q < num_states(); ++q) {
    values[q] = IsFinalState(q) ? FinalValue(q, a, /*msg=*/true) : carry[q];
  }
  return values;
}

std::vector<bool> PlSws::InitialCarry() const {
  // Internal states whose children live past the end of the input: the
  // children's values are all false.
  std::vector<bool> all_false(num_states(), false);
  std::vector<bool> carry(num_states(), false);
  for (int q = 0; q < num_states(); ++q) {
    if (!IsFinalState(q)) {
      // The input message is irrelevant: children are dead regardless.
      carry[q] = InternalValue(q, Symbol{}, /*msg=*/true, all_false);
    }
  }
  return carry;
}

std::vector<bool> PlSws::StepBack(const std::vector<bool>& carry,
                                  const Symbol& a) const {
  std::vector<bool> values = ValuesAt(carry, a);
  std::vector<bool> out(num_states(), false);
  for (int q = 0; q < num_states(); ++q) {
    if (!IsFinalState(q)) {
      out[q] = InternalValue(q, a, /*msg=*/true, values);
    }
  }
  return out;
}

bool PlSws::RootValue(const std::vector<bool>& carry, const Symbol& a,
                      bool root_msg) const {
  if (IsFinalState(start_state())) {
    // A final-state root reads I_0, the empty message.
    return FinalValue(start_state(), Symbol{}, root_msg);
  }
  std::vector<bool> values = ValuesAt(carry, a);
  return InternalValue(start_state(), a, root_msg, values);
}

bool PlSws::Run(const Word& input) const {
  return RunSeeded(input, false);
}

bool PlSws::RunSeeded(const Word& input, bool initial_msg) const {
  if (input.empty() && !initial_msg) return false;  // Act(r) = ∅
  if (input.empty()) {
    // Seeded register, no input: only a final-state root can act.
    if (!IsFinalState(start_state())) {
      // Children would live past the end of the input.
      return InternalValue(start_state(), Symbol{}, initial_msg,
                           std::vector<bool>(num_states(), false));
    }
    return FinalValue(start_state(), Symbol{}, initial_msg);
  }
  std::vector<bool> carry = InitialCarry();
  for (size_t j = input.size(); j >= 2; --j) {
    carry = StepBack(carry, input[j - 1]);
  }
  return RootValue(carry, input[0], initial_msg);
}

namespace {
// Mirrors the relational engine's consumption accounting (execution.cc).
struct TreeEval {
  const PlSws& sws;
  const PlSws::Word& input;
  size_t max_consumed = 0;

  bool Eval(int state, size_t j, bool msg, bool is_root) {
    const size_t n = input.size();
    if (j > n) return false;
    if (!msg && !is_root) return false;
    if (is_root && !msg && n == 0) return false;
    if (j >= 1) max_consumed = std::max(max_consumed, j);
    const PlSws::Symbol empty;
    const PlSws::Symbol& here = (j >= 1 && j <= n) ? input[j - 1] : empty;
    if (sws.Successors(state).empty()) {
      return FinalValueOf(state, here, msg);
    }
    if (j + 1 <= n) max_consumed = std::max(max_consumed, j + 1);
    const PlSws::Symbol& next = (j + 1 <= n) ? input[j] : empty;
    const auto& successors = sws.Successors(state);
    std::vector<bool> child_values(successors.size());
    for (size_t i = 0; i < successors.size(); ++i) {
      bool child_msg = successors[i].guard.EvalWith([&](int v) {
        if (v == sws.msg_var()) return msg;
        return next.count(v) > 0;
      });
      child_values[i] =
          Eval(successors[i].state, j + 1, child_msg, /*is_root=*/false);
    }
    return sws.Synthesis(state).EvalWith(
        [&child_values](int i) { return child_values[i]; });
  }

  bool FinalValueOf(int state, const PlSws::Symbol& a, bool msg) const {
    return sws.Synthesis(state).EvalWith([&](int v) {
      if (v == sws.msg_var()) return msg;
      return a.count(v) > 0;
    });
  }
};
}  // namespace

PlSws::RunInfo PlSws::RunWithInfo(const Word& input, bool initial_msg) const {
  TreeEval eval{*this, input};
  RunInfo info;
  info.value = eval.Eval(start_state(), 0, initial_msg, /*is_root=*/true);
  info.max_consumed = eval.max_consumed;
  return info;
}

std::set<int> PlSws::RelevantInputVars() const {
  std::set<int> vars;
  for (const State& rules : states()) {
    for (const auto& s : rules.successors) {
      for (int v : s.guard.Vars()) {
        if (v < num_input_vars_) vars.insert(v);
      }
    }
    if (rules.synthesis.has_value() && rules.successors.empty()) {
      for (int v : rules.synthesis->Vars()) {
        if (v < num_input_vars_) vars.insert(v);
      }
    }
  }
  return vars;
}

std::string PlSws::ToString(const logic::PlVarPool* pool) const {
  std::function<std::string(int)> name;
  if (pool != nullptr) {
    auto namer = pool->Namer();
    int msg = msg_var();
    name = [namer, msg](int v) {
      if (v == msg) return std::string("Msg");
      return namer(v);
    };
  }
  std::ostringstream out;
  out << Classify() << " with " << num_input_vars_ << " input variables\n";
  for (const State& rules : states()) {
    out << "  " << rules.name << " ->";
    if (rules.successors.empty()) {
      out << " .";
    } else {
      for (const auto& s : rules.successors) {
        out << " (" << StateName(s.state) << ", "
            << s.guard.ToString(name) << ")";
      }
    }
    out << "\n    Act(" << rules.name << ") <- ";
    const logic::PlFormula synthesis =
        rules.synthesis.value_or(logic::PlFormula());
    if (rules.successors.empty()) {
      out << synthesis.ToString(name) << "\n";
    } else {
      out << synthesis.ToString() << "  /* vars = successor acts */\n";
    }
  }
  return out.str();
}

namespace {

// FO rendition of a PL formula under the relational encoding: input
// variable v becomes the ground atom In(v); msg_var becomes Ex Msg(x).
logic::FoFormula PlToFo(const logic::PlFormula& f, int msg_var,
                        const std::string& msg_relation) {
  using Kind = logic::PlFormula::Kind;
  switch (f.kind()) {
    case Kind::kConst:
      return f.const_value() ? logic::FoFormula::True()
                             : logic::FoFormula::False();
    case Kind::kVar:
      if (f.var() == msg_var) {
        // Ex x: Msg(x). Variable id 0 is safe: the formula is closed.
        return logic::FoFormula::Exists(
            0, logic::FoFormula::MakeAtom(msg_relation,
                                          {logic::Term::Var(0)}));
      }
      return logic::FoFormula::MakeAtom(
          kInputRelation, {logic::Term::Int(f.var())});
    case Kind::kNot:
      return logic::FoFormula::Not(
          PlToFo(f.children()[0], msg_var, msg_relation));
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<logic::FoFormula> children;
      children.reserve(f.children().size());
      for (const auto& c : f.children()) {
        children.push_back(PlToFo(c, msg_var, msg_relation));
      }
      return f.kind() == Kind::kAnd
                 ? logic::FoFormula::And(std::move(children))
                 : logic::FoFormula::Or(std::move(children));
    }
  }
  return logic::FoFormula::False();
}

// Internal-synthesis formulas: variable i refers to Act{i+1}.
logic::FoFormula SynthToFo(const logic::PlFormula& f) {
  using Kind = logic::PlFormula::Kind;
  switch (f.kind()) {
    case Kind::kConst:
      return f.const_value() ? logic::FoFormula::True()
                             : logic::FoFormula::False();
    case Kind::kVar:
      return logic::FoFormula::Exists(
          0, logic::FoFormula::MakeAtom(ActRelation(f.var() + 1),
                                        {logic::Term::Var(0)}));
    case Kind::kNot:
      return logic::FoFormula::Not(SynthToFo(f.children()[0]));
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<logic::FoFormula> children;
      children.reserve(f.children().size());
      for (const auto& c : f.children()) {
        children.push_back(SynthToFo(c));
      }
      return f.kind() == Kind::kAnd
                 ? logic::FoFormula::And(std::move(children))
                 : logic::FoFormula::Or(std::move(children));
    }
  }
  return logic::FoFormula::False();
}

logic::FoQuery BoolQuery(logic::FoFormula condition) {
  // Output tuple (1) iff the closed condition holds.
  return logic::FoQuery({logic::Term::Int(1)}, std::move(condition));
}

}  // namespace

Sws PlSwsToRelational(const PlSws& pl) {
  Sws out(rel::Schema{}, /*rin_arity=*/1, /*rout_arity=*/1);
  for (int q = 0; q < pl.num_states(); ++q) {
    out.AddState(pl.StateName(q));
  }
  for (int q = 0; q < pl.num_states(); ++q) {
    std::vector<TransitionTarget> successors;
    for (const auto& s : pl.Successors(q)) {
      successors.push_back(TransitionTarget{
          s.state, RelQuery::Fo(BoolQuery(
                       PlToFo(s.guard, pl.msg_var(), kMsgRelation)))});
    }
    bool is_final = successors.empty();
    out.SetTransition(q, std::move(successors));
    if (is_final) {
      out.SetSynthesis(q, RelQuery::Fo(BoolQuery(PlToFo(
                              pl.Synthesis(q), pl.msg_var(), kMsgRelation))));
    } else {
      out.SetSynthesis(q, RelQuery::Fo(BoolQuery(SynthToFo(pl.Synthesis(q)))));
    }
  }
  return out;
}

rel::InputSequence EncodePlWord(const PlSws::Word& word) {
  rel::InputSequence out(1);
  for (const auto& symbol : word) {
    rel::Relation message(1);
    for (int v : symbol) {
      message.Insert({rel::Value::Int(v)});
    }
    out.Append(std::move(message));
  }
  return out;
}

}  // namespace sws::core
