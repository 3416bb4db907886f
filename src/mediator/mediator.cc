#include "mediator/mediator.h"

#include <functional>
#include <sstream>

namespace sws::med {

Mediator::Mediator(size_t rin_arity, size_t rout_arity)
    : rin_arity_(rin_arity), rout_arity_(rout_arity) {}

std::optional<std::string> Mediator::Validate(
    const std::vector<const core::Sws*>& components) const {
  if (auto err = ValidateGraph("mediator"); err.has_value()) return err;
  for (const core::Sws* c : components) {
    if (c->rin_arity() != rin_arity_ || c->rout_arity() != rout_arity_) {
      return "component schema mismatch";
    }
  }
  for (const State& rules : states()) {
    for (const auto& t : rules.successors) {
      if (t.component >= components.size()) {
        return "state " + rules.name + " invokes unknown component";
      }
    }
    if (rules.synthesis->head_arity() != rout_arity_) {
      return "synthesis of " + rules.name + " must produce R_out arity";
    }
    // Final synthesis reads Msg only; internal synthesis Act1..Actk.
    const size_t k = rules.successors.size();
    std::optional<std::string> r =
        rules.synthesis->FirstDisallowed([k](const std::string& name) {
          const size_t i = core::ActIndex(name);
          return k == 0 ? name == core::kMsgRelation : i >= 1 && i <= k;
        });
    if (r.has_value()) {
      return "synthesis of " + rules.name + " reads disallowed relation " +
             *r + " (mediators never access the database or input)";
    }
  }
  return std::nullopt;
}

std::string Mediator::ToString(
    const std::vector<const core::Sws*>& components) const {
  std::ostringstream out;
  out << (IsRecursive() ? "MDT" : "MDTnr") << " with " << num_states()
      << " states\n";
  for (const State& rules : states()) {
    out << "  " << rules.name << " ->";
    if (rules.successors.empty()) {
      out << " .";
    } else {
      for (const auto& t : rules.successors) {
        out << " (" << StateName(t.state) << ", eval(";
        if (t.component < components.size()) {
          out << "tau_" << t.component;
        } else {
          out << "c" << t.component;
        }
        out << "))";
      }
    }
    out << "\n";
    if (rules.synthesis.has_value()) {
      out << "    Act <- " << rules.synthesis->ToString() << "\n";
    }
  }
  return out.str();
}

std::optional<std::string> PlMediator::Validate(
    const std::vector<const core::PlSws*>& components) const {
  if (auto err = ValidateGraph("mediator"); err.has_value()) return err;
  for (const State& rules : states()) {
    for (const auto& t : rules.successors) {
      if (t.component >= components.size()) {
        return "state " + rules.name + " invokes unknown component";
      }
    }
    int max_var = rules.successors.empty()
                      ? kMsgVar
                      : static_cast<int>(rules.successors.size()) - 1;
    for (int v : rules.synthesis->Vars()) {
      if (v > max_var) {
        return "synthesis of " + rules.name + " uses out-of-range variable";
      }
    }
  }
  return std::nullopt;
}

bool PlMediator::IsDisjunctionOnly() const {
  using Kind = logic::PlFormula::Kind;
  for (const State& rules : states()) {
    if (!rules.synthesis.has_value()) continue;
    std::function<bool(const logic::PlFormula&)> pure =
        [&](const logic::PlFormula& f) {
          switch (f.kind()) {
            case Kind::kVar:
              return true;
            case Kind::kConst:
              return !f.const_value();  // false = empty disjunction
            case Kind::kOr: {
              for (const auto& c : f.children()) {
                if (!pure(c)) return false;
              }
              return true;
            }
            default:
              return false;
          }
        };
    if (!pure(*rules.synthesis)) return false;
  }
  return true;
}

std::string PlMediator::ToString() const {
  std::ostringstream out;
  out << (IsRecursive() ? "MDT(PL)" : "MDTnr(PL)") << " with " << num_states()
      << " states\n";
  for (const State& rules : states()) {
    out << "  " << rules.name << " ->";
    if (rules.successors.empty()) {
      out << " .";
    } else {
      for (const auto& t : rules.successors) {
        out << " (" << StateName(t.state) << ", eval(tau_" << t.component
            << "))";
      }
    }
    out << "\n    Act <- "
        << rules.synthesis.value_or(logic::PlFormula()).ToString() << "\n";
  }
  return out.str();
}

}  // namespace sws::med
