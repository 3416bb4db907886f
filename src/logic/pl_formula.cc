#include "logic/pl_formula.h"

#include <sstream>

#include "util/common.h"

namespace sws::logic {

struct PlFormula::Node {
  Kind kind;
  bool const_value = false;
  int var = -1;
  std::vector<PlFormula> children;
};

PlFormula PlFormula::Constant(bool value) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kConst;
  node->const_value = value;
  return PlFormula(std::move(node));
}

PlFormula PlFormula::Var(int id) {
  SWS_CHECK_GE(id, 0) << "PL variable ids must be non-negative";
  auto node = std::make_shared<Node>();
  node->kind = Kind::kVar;
  node->var = id;
  return PlFormula(std::move(node));
}

PlFormula PlFormula::Not(PlFormula f) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->children.push_back(std::move(f));
  return PlFormula(std::move(node));
}

PlFormula PlFormula::And(std::vector<PlFormula> fs) {
  if (fs.empty()) return True();
  if (fs.size() == 1) return fs[0];
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->children = std::move(fs);
  return PlFormula(std::move(node));
}

PlFormula PlFormula::Or(std::vector<PlFormula> fs) {
  if (fs.empty()) return False();
  if (fs.size() == 1) return fs[0];
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->children = std::move(fs);
  return PlFormula(std::move(node));
}

PlFormula PlFormula::And(PlFormula a, PlFormula b) {
  return And(std::vector<PlFormula>{std::move(a), std::move(b)});
}

PlFormula PlFormula::Or(PlFormula a, PlFormula b) {
  return Or(std::vector<PlFormula>{std::move(a), std::move(b)});
}

PlFormula PlFormula::Implies(PlFormula a, PlFormula b) {
  return Or(Not(std::move(a)), std::move(b));
}

PlFormula PlFormula::Iff(PlFormula a, PlFormula b) {
  return And(Implies(a, b), Implies(b, a));
}

PlFormula::Kind PlFormula::kind() const { return node_->kind; }

bool PlFormula::const_value() const {
  SWS_CHECK(node_->kind == Kind::kConst);
  return node_->const_value;
}

int PlFormula::var() const {
  SWS_CHECK(node_->kind == Kind::kVar);
  return node_->var;
}

const std::vector<PlFormula>& PlFormula::children() const {
  return node_->children;
}

bool PlFormula::Eval(const std::set<int>& true_vars) const {
  return EvalWith([&true_vars](int id) { return true_vars.count(id) > 0; });
}

bool PlFormula::EvalWith(const std::function<bool(int)>& assignment) const {
  switch (node_->kind) {
    case Kind::kConst:
      return node_->const_value;
    case Kind::kVar:
      return assignment(node_->var);
    case Kind::kNot:
      return !node_->children[0].EvalWith(assignment);
    case Kind::kAnd:
      for (const auto& c : node_->children) {
        if (!c.EvalWith(assignment)) return false;
      }
      return true;
    case Kind::kOr:
      for (const auto& c : node_->children) {
        if (c.EvalWith(assignment)) return true;
      }
      return false;
  }
  return false;
}

void PlFormula::CollectVars(std::set<int>* out) const {
  switch (node_->kind) {
    case Kind::kConst:
      return;
    case Kind::kVar:
      out->insert(node_->var);
      return;
    default:
      for (const auto& c : node_->children) c.CollectVars(out);
  }
}

std::set<int> PlFormula::Vars() const {
  std::set<int> vars;
  CollectVars(&vars);
  return vars;
}

PlFormula PlFormula::Substitute(const std::map<int, PlFormula>& map) const {
  switch (node_->kind) {
    case Kind::kConst:
      return *this;
    case Kind::kVar: {
      auto it = map.find(node_->var);
      return it == map.end() ? *this : it->second;
    }
    case Kind::kNot:
      return Not(node_->children[0].Substitute(map));
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<PlFormula> children;
      children.reserve(node_->children.size());
      for (const auto& c : node_->children) {
        children.push_back(c.Substitute(map));
      }
      return node_->kind == Kind::kAnd ? And(std::move(children))
                                       : Or(std::move(children));
    }
  }
  return *this;
}

PlFormula PlFormula::Simplify() const {
  switch (node_->kind) {
    case Kind::kConst:
    case Kind::kVar:
      return *this;
    case Kind::kNot: {
      PlFormula c = node_->children[0].Simplify();
      if (c.is_const()) return Constant(!c.const_value());
      if (c.kind() == Kind::kNot) return c.children()[0];
      return Not(std::move(c));
    }
    case Kind::kAnd:
    case Kind::kOr: {
      const bool is_and = node_->kind == Kind::kAnd;
      std::vector<PlFormula> flat;
      for (const auto& child : node_->children) {
        PlFormula c = child.Simplify();
        if (c.is_const()) {
          if (c.const_value() == is_and) continue;  // neutral element
          return Constant(!is_and);                 // absorbing element
        }
        if (c.kind() == node_->kind) {
          for (const auto& gc : c.children()) flat.push_back(gc);
        } else {
          flat.push_back(std::move(c));
        }
      }
      return is_and ? And(std::move(flat)) : Or(std::move(flat));
    }
  }
  return *this;
}

size_t PlFormula::Size() const {
  size_t n = 1;
  for (const auto& c : node_->children) n += c.Size();
  return n;
}

std::string PlFormula::ToString(
    const std::function<std::string(int)>& name) const {
  switch (node_->kind) {
    case Kind::kConst:
      return node_->const_value ? "true" : "false";
    case Kind::kVar:
      return name ? name(node_->var) : "x" + std::to_string(node_->var);
    case Kind::kNot:
      return "!" + node_->children[0].ToString(name);
    case Kind::kAnd:
    case Kind::kOr: {
      std::ostringstream out;
      out << "(";
      const char* sep = node_->kind == Kind::kAnd ? " & " : " | ";
      for (size_t i = 0; i < node_->children.size(); ++i) {
        if (i > 0) out << sep;
        out << node_->children[i].ToString(name);
      }
      out << ")";
      return out.str();
    }
  }
  return "?";
}

int PlVarPool::Id(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  int id = static_cast<int>(names_.size());
  ids_.emplace(name, id);
  names_.push_back(name);
  return id;
}

PlFormula PlVarPool::Var(const std::string& name) {
  return PlFormula::Var(Id(name));
}

std::string PlVarPool::Name(int id) const {
  if (id >= 0 && id < static_cast<int>(names_.size())) return names_[id];
  return "x" + std::to_string(id);
}

std::function<std::string(int)> PlVarPool::Namer() const {
  // Copy the names so the functor does not dangle if the pool dies first.
  std::vector<std::string> names = names_;
  return [names](int id) {
    if (id >= 0 && id < static_cast<int>(names.size())) return names[id];
    return "x" + std::to_string(id);
  };
}

}  // namespace sws::logic
