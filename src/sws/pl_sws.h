#ifndef SWS_SWS_PL_SWS_H_
#define SWS_SWS_PL_SWS_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "logic/pl_formula.h"
#include "relational/input_sequence.h"
#include "sws/sws.h"

namespace sws::core {

/// One successor entry (q_i, φ_i) of a PL transition rule.
struct PlSuccessor {
  int state = 0;
  logic::PlFormula guard;  // φ_i over input vars and msg_var()
};

/// A synthesized Web service in SWS(PL, PL) (Section 2, "SWS classes"):
/// the service is not data-driven; an input message is a truth assignment
/// over propositional variables (represented as the set of true
/// variables), and the message/action registers hold single truth values.
///
/// Variable conventions inside rule formulas:
///  * transition formulas φ_i and final-state synthesis formulas ψ use
///    variables 0..num_input_vars-1 for the current input message, and
///    the dedicated variable msg_var() == num_input_vars for the node's
///    message register;
///  * internal-state synthesis formulas ψ use variable i (0-based) for
///    the action register of the i-th successor in the transition rule.
///
/// A PlSws denotes, for each input word over the alphabet of truth
/// assignments, a Boolean output — i.e. it defines a language (run
/// semantics below mirror Section 2 with ∅/"nonempty" read as
/// false/true).
class PlSws : public StateGraph<PlSuccessor, logic::PlFormula> {
 public:
  using Successor = PlSuccessor;

  explicit PlSws(int num_input_vars);

  int num_input_vars() const { return num_input_vars_; }
  /// The variable standing for Msg(q) in transition and final-synthesis
  /// formulas.
  int msg_var() const { return num_input_vars_; }

  std::optional<std::string> Validate() const;

  /// "SWS(PL, PL)" or "SWSnr(PL, PL)".
  std::string Classify() const;

  /// An input message: the set of true propositional variables.
  using Symbol = std::set<int>;
  using Word = std::vector<Symbol>;

  /// τ(I): the Boolean output of the run on input word `input`.
  bool Run(const Word& input) const;
  /// Run with the root's message register seeded (mediator semantics).
  bool RunSeeded(const Word& input, bool initial_msg) const;

  /// Run result with consumption bookkeeping for mediators (Section
  /// 5.1): max_consumed is the largest input index any node of the
  /// execution tree read — I_{max_consumed+1} is the first unconsumed
  /// message.
  struct RunInfo {
    bool value = false;
    size_t max_consumed = 0;
  };
  RunInfo RunWithInfo(const Word& input, bool initial_msg) const;

  // --- Value-vector machinery (the engine behind both Run and the
  // --- decision procedures of analysis/pl_analysis.h).
  //
  // Timestamps follow the run engine: the root is at timestamp 0; a node
  // at timestamp j had its register bit computed from I_j; a final state
  // at timestamp j reads I_j; an internal state at timestamp j computes
  // its successors' bits from I_{j+1}.
  //
  // The word is folded right-to-left over "carry vectors": after the
  // suffix I_j..I_n has been folded, entry q of the carry is the value an
  // *internal* node at state q, timestamp j-1, with a true register,
  // produces (its subtree lives in the folded suffix). Final-state
  // entries of the carry are unused (false); their value needs the next
  // symbol and is computed inside the following StepBack/RootValue.

  /// The carry for the empty suffix: internal states see all-false
  /// children (they live past the end of the input).
  std::vector<bool> InitialCarry() const;

  /// Folds input message `a` = I_j into the carry for suffix I_{j+1}..I_n,
  /// yielding the carry for suffix I_j..I_n.
  std::vector<bool> StepBack(const std::vector<bool>& carry,
                             const Symbol& a) const;

  /// The root's value when I_1 = `a` and `carry` is the fold of I_2..I_n;
  /// `root_msg` is the seeded register (false for a standalone service —
  /// Msg(r) = ∅). A final-state root reads I_0 = the empty message.
  bool RootValue(const std::vector<bool>& carry, const Symbol& a,
                 bool root_msg) const;

  /// Input variables actually mentioned by some rule formula — the
  /// alphabet the decision procedures need to enumerate (2^|relevant|
  /// symbols suffice).
  std::set<int> RelevantInputVars() const;

  std::string ToString(const logic::PlVarPool* pool = nullptr) const;

 private:
  // Value of a final state reading input `a` with register bit `msg`.
  bool FinalValue(int state, const Symbol& a, bool msg) const;
  // Value of an internal state with register bit `msg` whose children are
  // spawned on input `a` (= I_{j+1}) against the timestamp-(j+1) value
  // vector `next_values`.
  bool InternalValue(int state, const Symbol& a, bool msg,
                     const std::vector<bool>& next_values) const;
  // The timestamp-j value vector (register bit true) from the carry of
  // I_{j+1}..I_n and a = I_j.
  std::vector<bool> ValuesAt(const std::vector<bool>& carry,
                             const Symbol& a) const;

  int num_input_vars_;
};

/// Encodes a PlSws as a data-driven Sws over an empty database schema:
/// an input message {v1, ..., vk} becomes the unary relation In =
/// {(v1), ..., (vk)}; registers become unary relations that are nonempty
/// iff the Boolean register is true (output tuple (1)). For every word I,
///   pl.Run(I) == true  iff  Run(encoded, D_empty, EncodePlWord(I)) ≠ ∅.
/// This realizes the paper's uniform treatment of PL services in the
/// relational framework.
Sws PlSwsToRelational(const PlSws& pl);

/// Encodes a PL input word for the relational simulation.
rel::InputSequence EncodePlWord(const PlSws::Word& word);

}  // namespace sws::core

#endif  // SWS_SWS_PL_SWS_H_
