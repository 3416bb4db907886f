#ifndef SWS_LOGIC_PL_FORMULA_H_
#define SWS_LOGIC_PL_FORMULA_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace sws::logic {

/// An immutable propositional-logic formula over integer-identified
/// variables. PL is the query language of SWS(PL, PL): transition queries
/// read input messages that are truth assignments, and synthesis queries
/// combine the Boolean action registers of successor states (Section 2).
///
/// Formulas are shared immutable trees; copying is cheap.
class PlFormula {
 public:
  enum class Kind { kConst, kVar, kNot, kAnd, kOr };

  /// Default-constructed formula is the constant false.
  PlFormula() : PlFormula(False()) {}

  static PlFormula True() { return Constant(true); }
  static PlFormula False() { return Constant(false); }
  static PlFormula Constant(bool value);
  static PlFormula Var(int id);
  static PlFormula Not(PlFormula f);
  static PlFormula And(std::vector<PlFormula> fs);
  static PlFormula Or(std::vector<PlFormula> fs);
  static PlFormula And(PlFormula a, PlFormula b);
  static PlFormula Or(PlFormula a, PlFormula b);
  /// a → b, i.e. ¬a ∨ b.
  static PlFormula Implies(PlFormula a, PlFormula b);
  /// a ↔ b.
  static PlFormula Iff(PlFormula a, PlFormula b);

  Kind kind() const;
  /// For kConst nodes: the constant value.
  bool const_value() const;
  /// For kVar nodes: the variable id.
  int var() const;
  /// For kNot/kAnd/kOr nodes: the children (one for kNot).
  const std::vector<PlFormula>& children() const;

  bool is_const() const { return kind() == Kind::kConst; }

  /// Evaluates under the assignment "variable id → truth value". Variables
  /// absent from `true_vars` are false (input messages are represented as
  /// sets of true variables, as in Section 2).
  bool Eval(const std::set<int>& true_vars) const;
  /// Evaluates under an arbitrary assignment function (named differently
  /// to avoid brace-initializer overload ambiguity with the set form).
  bool EvalWith(const std::function<bool(int)>& assignment) const;

  /// Adds all variable ids occurring in the formula to `out`.
  void CollectVars(std::set<int>* out) const;
  std::set<int> Vars() const;

  /// Simultaneously replaces variables per the map; unmapped variables are
  /// left in place.
  PlFormula Substitute(const std::map<int, PlFormula>& map) const;

  /// Constant-folds and flattens nested conjunctions/disjunctions.
  PlFormula Simplify() const;

  /// Number of AST nodes.
  size_t Size() const;

  /// Renders with variable names supplied by `name`; by default variables
  /// print as x<id>.
  std::string ToString(
      const std::function<std::string(int)>& name = nullptr) const;

 private:
  struct Node;
  explicit PlFormula(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

/// Maps human-readable variable names to PL variable ids, for examples and
/// tests. Ids are assigned densely from 0 in first-use order.
class PlVarPool {
 public:
  /// Id for the name, allocating if new.
  int Id(const std::string& name);
  /// Formula Var(Id(name)).
  PlFormula Var(const std::string& name);
  /// Name for an id; "x<id>" if the id was never named.
  std::string Name(int id) const;
  size_t size() const { return names_.size(); }

  /// A naming function suitable for PlFormula::ToString.
  std::function<std::string(int)> Namer() const;

 private:
  std::map<std::string, int> ids_;
  std::vector<std::string> names_;
};

}  // namespace sws::logic

#endif  // SWS_LOGIC_PL_FORMULA_H_
