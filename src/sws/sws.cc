#include "sws/sws.h"

#include <sstream>

namespace sws::core {

Sws::Sws(rel::Schema db_schema, size_t rin_arity, size_t rout_arity)
    : db_schema_(std::move(db_schema)),
      rin_arity_(rin_arity),
      rout_arity_(rout_arity) {}

std::optional<std::string> Sws::Validate() const {
  if (auto err = ValidateGraph("service"); err.has_value()) return err;
  // Transition rules and final synthesis read DB ∪ {In, Msg}; internal
  // synthesis reads Act1..Actk only.
  auto reads_base = [this](const std::string& r) {
    return r == kInputRelation || r == kMsgRelation || db_schema_.Contains(r);
  };
  for (const State& rules : states()) {
    // Transition queries: head arity R_in.
    for (const auto& t : rules.successors) {
      if (auto err = t.query.Validate(); err.has_value()) {
        return "transition query of " + rules.name + ": " + *err;
      }
      if (t.query.head_arity() != rin_arity_) {
        return "transition query of " + rules.name +
               " must produce R_in arity " + std::to_string(rin_arity_);
      }
      if (auto r = t.query.FirstDisallowed(reads_base); r.has_value()) {
        return "transition query of " + rules.name +
               " reads unknown relation " + *r;
      }
    }
    // Synthesis query: head arity R_out.
    const RelQuery& synthesis = *rules.synthesis;
    if (auto err = synthesis.Validate(); err.has_value()) {
      return "synthesis query of " + rules.name + ": " + *err;
    }
    if (synthesis.head_arity() != rout_arity_) {
      return "synthesis query of " + rules.name +
             " must produce R_out arity " + std::to_string(rout_arity_);
    }
    const size_t k = rules.successors.size();
    auto reads_act = [k](const std::string& r) {
      const size_t i = ActIndex(r);
      return i >= 1 && i <= k;
    };
    std::optional<std::string> r = k == 0
                                       ? synthesis.FirstDisallowed(reads_base)
                                       : synthesis.FirstDisallowed(reads_act);
    if (r.has_value()) {
      return "synthesis query of " + rules.name +
             " reads disallowed relation " + *r;
    }
  }
  return std::nullopt;
}

namespace {
int LanguageRank(RelQuery::Language lang) {
  switch (lang) {
    case RelQuery::Language::kCq:
      return 0;
    case RelQuery::Language::kUcq:
      return 1;
    case RelQuery::Language::kFo:
      return 2;
  }
  return 2;
}
const char* LanguageName(int rank) {
  switch (rank) {
    case 0:
      return "CQ";
    case 1:
      return "UCQ";
    default:
      return "FO";
  }
}
}  // namespace

std::string Sws::Classify() const {
  int msg_rank = 0;
  int act_rank = 0;
  for (const State& rules : states()) {
    for (const auto& t : rules.successors) {
      msg_rank = std::max(msg_rank, LanguageRank(t.query.language()));
    }
    if (rules.synthesis.has_value()) {
      act_rank = std::max(act_rank, LanguageRank(rules.synthesis->language()));
    }
  }
  std::string name = IsRecursive() ? "SWS(" : "SWSnr(";
  name += LanguageName(msg_rank);
  name += ", ";
  name += LanguageName(act_rank);
  name += ")";
  return name;
}

bool Sws::IsCqUcq() const {
  for (const State& rules : states()) {
    for (const auto& t : rules.successors) {
      if (!t.query.is_cq()) return false;
    }
    if (rules.synthesis.has_value() && rules.synthesis->is_fo()) return false;
  }
  return true;
}

bool Sws::UsesFo() const {
  for (const State& rules : states()) {
    for (const auto& t : rules.successors) {
      if (t.query.is_fo()) return true;
    }
    if (rules.synthesis.has_value() && rules.synthesis->is_fo()) return true;
  }
  return false;
}

std::string Sws::ToString() const {
  std::ostringstream out;
  out << Classify() << " over R=" << db_schema_.ToString() << ", |R_in|="
      << rin_arity_ << ", |R_out|=" << rout_arity_ << "\n";
  for (const State& rules : states()) {
    out << "  " << rules.name << " ->";
    if (rules.successors.empty()) {
      out << " .";
    } else {
      for (const auto& t : rules.successors) {
        out << " (" << StateName(t.state) << ", " << t.query.ToString()
            << ")";
      }
    }
    out << "\n";
    if (rules.synthesis.has_value()) {
      out << "    Act(" << rules.name << ") <- " << rules.synthesis->ToString()
          << "\n";
    }
  }
  return out.str();
}

}  // namespace sws::core
