#include "logic/fo.h"

#include <algorithm>
#include <sstream>

#include "logic/bytecode.h"

#include "util/cancellation.h"
#include "util/common.h"

namespace sws::logic {

struct FoFormula::Node {
  Kind kind;
  std::string relation;          // kAtom
  std::vector<Term> args;        // kAtom (n-ary) and kEq (two terms)
  std::vector<FoFormula> children;
  int bound_var = -1;            // kExists/kForall
};

FoFormula::FoFormula(std::shared_ptr<const Node> node)
    : node_(std::move(node)) {}

FoFormula::FoFormula() { *this = False(); }

FoFormula FoFormula::MakeAtom(std::string relation, std::vector<Term> args) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAtom;
  node->relation = std::move(relation);
  node->args = std::move(args);
  return FoFormula(std::move(node));
}

FoFormula FoFormula::Eq(Term lhs, Term rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kEq;
  node->args = {std::move(lhs), std::move(rhs)};
  return FoFormula(std::move(node));
}

FoFormula FoFormula::Not(FoFormula f) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->children.push_back(std::move(f));
  return FoFormula(std::move(node));
}

FoFormula FoFormula::And(std::vector<FoFormula> fs) {
  if (fs.size() == 1) return fs[0];
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->children = std::move(fs);
  return FoFormula(std::move(node));
}

FoFormula FoFormula::Or(std::vector<FoFormula> fs) {
  if (fs.size() == 1) return fs[0];
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->children = std::move(fs);
  return FoFormula(std::move(node));
}

FoFormula FoFormula::And(FoFormula a, FoFormula b) {
  return And(std::vector<FoFormula>{std::move(a), std::move(b)});
}

FoFormula FoFormula::Or(FoFormula a, FoFormula b) {
  return Or(std::vector<FoFormula>{std::move(a), std::move(b)});
}

FoFormula FoFormula::Implies(FoFormula a, FoFormula b) {
  return Or(Not(std::move(a)), std::move(b));
}

FoFormula FoFormula::Exists(int var, FoFormula body) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kExists;
  node->bound_var = var;
  node->children.push_back(std::move(body));
  return FoFormula(std::move(node));
}

FoFormula FoFormula::Exists(const std::vector<int>& vars, FoFormula body) {
  FoFormula f = std::move(body);
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    f = Exists(*it, std::move(f));
  }
  return f;
}

FoFormula FoFormula::Forall(int var, FoFormula body) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kForall;
  node->bound_var = var;
  node->children.push_back(std::move(body));
  return FoFormula(std::move(node));
}

FoFormula FoFormula::Forall(const std::vector<int>& vars, FoFormula body) {
  FoFormula f = std::move(body);
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    f = Forall(*it, std::move(f));
  }
  return f;
}

FoFormula FoFormula::True() { return And(std::vector<FoFormula>{}); }
FoFormula FoFormula::False() { return Or(std::vector<FoFormula>{}); }

FoFormula::Kind FoFormula::kind() const { return node_->kind; }

const std::string& FoFormula::relation() const {
  SWS_CHECK(node_->kind == Kind::kAtom);
  return node_->relation;
}

const std::vector<Term>& FoFormula::args() const { return node_->args; }

const std::vector<FoFormula>& FoFormula::children() const {
  return node_->children;
}

int FoFormula::bound_var() const {
  SWS_CHECK(node_->kind == Kind::kExists || node_->kind == Kind::kForall);
  return node_->bound_var;
}

bool FoFormula::Eval(const rel::Database& db,
                     const std::set<rel::Value>& domain,
                     const Binding& binding) const {
  Binding scratch = binding;  // single copy; quantifiers mutate in place
  return EvalMutable(db, domain, &scratch);
}

bool FoFormula::EvalMutable(const rel::Database& db,
                            const std::set<rel::Value>& domain,
                            Binding* binding) const {
  switch (node_->kind) {
    case Kind::kAtom: {
      // An absent relation, or one of another arity: the atom is false.
      if (!db.Contains(node_->relation)) return false;
      const rel::Relation& rel = db.Get(node_->relation);
      if (rel.arity() != node_->args.size()) return false;
      rel::Tuple t;
      t.reserve(node_->args.size());
      for (const Term& term : node_->args) {
        auto v = ResolveTerm(term, *binding);
        SWS_CHECK(v.has_value()) << "unbound variable " << term.ToString()
                                 << " in FO atom";
        t.push_back(*v);
      }
      return rel.Contains(t);
    }
    case Kind::kEq: {
      auto l = ResolveTerm(node_->args[0], *binding);
      auto r = ResolveTerm(node_->args[1], *binding);
      SWS_CHECK(l.has_value() && r.has_value()) << "unbound variable in '='";
      return *l == *r;
    }
    case Kind::kNot:
      return !node_->children[0].EvalMutable(db, domain, binding);
    case Kind::kAnd:
      for (const auto& c : node_->children) {
        if (!c.EvalMutable(db, domain, binding)) return false;
      }
      return true;
    case Kind::kOr:
      for (const auto& c : node_->children) {
        if (c.EvalMutable(db, domain, binding)) return true;
      }
      return false;
    case Kind::kExists:
    case Kind::kForall: {
      const bool is_exists = node_->kind == Kind::kExists;
      // The quantifier may shadow an outer binding of the same variable:
      // save it and restore on exit (including early exit).
      std::optional<rel::Value> saved;
      if (auto it = binding->find(node_->bound_var); it != binding->end()) {
        saved = it->second;
      }
      bool result = !is_exists;
      for (const rel::Value& v : domain) {
        // Cooperative cancellation inside the quantifier sweep — the
        // O(|adom|^depth) alternation is the paper's intractable core.
        // The gate is sticky, so every enclosing quantifier also stops
        // at its next tick and the unwind costs O(depth); the governed
        // caller discards the (meaningless) boolean.
        if (!sws::util::StepTick()) break;
        (*binding)[node_->bound_var] = v;
        if (node_->children[0].EvalMutable(db, domain, binding) ==
            is_exists) {
          result = is_exists;  // witness / counterexample: short-circuit
          break;
        }
      }
      if (saved.has_value()) {
        (*binding)[node_->bound_var] = *std::move(saved);
      } else {
        binding->erase(node_->bound_var);
      }
      return result;
    }
  }
  return false;
}

namespace {

void CollectFreeVars(const FoFormula& f, std::set<int>* bound,
                     std::set<int>* free) {
  using Kind = FoFormula::Kind;
  switch (f.kind()) {
    case Kind::kAtom:
    case Kind::kEq:
      for (const Term& t : f.args()) {
        if (t.is_var() && bound->count(t.var()) == 0) free->insert(t.var());
      }
      return;
    case Kind::kExists:
    case Kind::kForall: {
      bool was_bound = bound->count(f.bound_var()) > 0;
      bound->insert(f.bound_var());
      CollectFreeVars(f.children()[0], bound, free);
      if (!was_bound) bound->erase(f.bound_var());
      return;
    }
    default:
      for (const auto& c : f.children()) CollectFreeVars(c, bound, free);
  }
}

void CollectConstants(const FoFormula& f, std::set<rel::Value>* out) {
  for (const Term& t : f.args()) {
    if (t.is_const()) out->insert(t.value());
  }
  for (const auto& c : f.children()) CollectConstants(c, out);
}

void CollectArities(const FoFormula& f, std::map<std::string, size_t>* out) {
  if (f.kind() == FoFormula::Kind::kAtom) {
    auto [it, inserted] = out->emplace(f.relation(), f.args().size());
    SWS_CHECK(inserted || it->second == f.args().size())
        << "relation " << f.relation() << " used with inconsistent arities";
  }
  for (const auto& c : f.children()) CollectArities(c, out);
}

}  // namespace

std::set<int> FoFormula::FreeVars() const {
  std::set<int> bound, free;
  CollectFreeVars(*this, &bound, &free);
  return free;
}

std::set<rel::Value> FoFormula::Constants() const {
  std::set<rel::Value> out;
  CollectConstants(*this, &out);
  return out;
}

std::map<std::string, size_t> FoFormula::RelationArities() const {
  std::map<std::string, size_t> out;
  CollectArities(*this, &out);
  return out;
}

size_t FoFormula::Size() const {
  size_t n = 1;
  for (const auto& c : node_->children) n += c.Size();
  return n;
}

std::string FoFormula::ToString(
    const std::function<std::string(int)>& name) const {
  auto var_name = [&name](int v) {
    return name ? name(v) : "X" + std::to_string(v);
  };
  switch (node_->kind) {
    case Kind::kAtom: {
      std::ostringstream out;
      out << node_->relation << "(";
      for (size_t i = 0; i < node_->args.size(); ++i) {
        if (i > 0) out << ", ";
        out << node_->args[i].ToString(name);
      }
      out << ")";
      return out.str();
    }
    case Kind::kEq:
      return node_->args[0].ToString(name) + " = " +
             node_->args[1].ToString(name);
    case Kind::kNot:
      return "!" + node_->children[0].ToString(name);
    case Kind::kAnd:
    case Kind::kOr: {
      if (node_->children.empty()) {
        return node_->kind == Kind::kAnd ? "true" : "false";
      }
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
    case Kind::kExists:
    case Kind::kForall:
      return std::string(node_->kind == Kind::kExists ? "E" : "A") +
             var_name(node_->bound_var) + "." +
             node_->children[0].ToString(name);
  }
  return "?";
}

std::optional<std::string> FoQuery::Validate() const {
  std::set<int> free = formula_.FreeVars();
  std::set<int> head_vars;
  for (const Term& t : head_) {
    if (t.is_var()) head_vars.insert(t.var());
  }
  for (int v : free) {
    if (head_vars.count(v) == 0) {
      return "free variable X" + std::to_string(v) + " not in head";
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Compilation onto the join bytecode (DESIGN.md §12).
//
// The formula is put in disjunctive normal form with ¬ pushed inward
// (∀x φ read as ¬∃x ¬φ) and every quantified variable renamed apart. A
// disjunct is a conjunction of atoms, (in)equalities and negated sub-DNFs.
// LowerConj unifies each disjunct's equalities and checks that every
// variable is range-restricted — bound by a positive atom, a constant or
// an enclosing body — which holds for every safe-range query; anything
// else stays on the interpreter.
// ---------------------------------------------------------------------------

struct FoBody {
  /// The query head; in a nested body, the enclosing variables it reads
  /// (none: a closed sentence, evaluated once per Evaluate).
  ConjunctiveQuery cq;
  std::vector<Atom> negated;   // ¬R(t̄), every variable bound: kAntiProbe
  std::vector<FoBody> nested;  // ¬∃ȳ φ: HasMatch, enclosing regs preloaded
  /// cq's atoms and comparisons and the negated atoms as one join body,
  /// and cq's head over its slots. A nested body that reads enclosing
  /// variables numbers its slots after the enclosing body's and preloads
  /// them.
  bytecode::Body prepared;
  std::vector<Term> slot_head;
};

namespace {

constexpr size_t kMaxDisjuncts = 64;  // larger DNFs stay interpreted

struct Conj {
  std::vector<Atom> atoms = {};
  std::vector<Comparison> comparisons = {};   // '=' and '≠' as written
  std::vector<std::vector<Conj>> negated = {};  // each ¬(D_1 ∨ … ∨ D_k)
  std::vector<int> locals = {};  // variables quantified at this level
};
using Dnf = std::vector<Conj>;

// The DNF of f (of ¬f when `negate`); `rename` maps each quantified
// variable in scope to its fresh id. nullopt past kMaxDisjuncts.
std::optional<Dnf> ToDnf(const FoFormula& f, bool negate,
                         const std::map<int, int>& rename, int* fresh) {
  using Kind = FoFormula::Kind;
  auto term = [&rename](const Term& t) {
    auto it = t.is_var() ? rename.find(t.var()) : rename.end();
    return it == rename.end() ? t : Term::Var(it->second);
  };
  auto append = [](auto* to, const auto& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  switch (f.kind()) {
    case Kind::kAtom: {
      Atom atom{f.relation(), {}};
      for (const Term& t : f.args()) atom.args.push_back(term(t));
      Dnf d{Conj{.atoms = {std::move(atom)}}};
      return negate ? Dnf{Conj{.negated = {std::move(d)}}} : d;
    }
    case Kind::kEq:
      return Dnf{Conj{.comparisons = {{term(f.args()[0]),
                                        term(f.args()[1]), !negate}}}};
    case Kind::kNot:
      return ToDnf(f.children()[0], !negate, rename, fresh);
    case Kind::kAnd:
    case Kind::kOr: {
      const bool conjunction = (f.kind() == Kind::kAnd) != negate;
      Dnf out = conjunction ? Dnf{Conj{}} : Dnf{};
      for (const FoFormula& child : f.children()) {
        std::optional<Dnf> d = ToDnf(child, negate, rename, fresh);
        if (!d.has_value()) return std::nullopt;
        if (!conjunction) {
          append(&out, *d);
        } else {
          Dnf product;
          for (const Conj& x : out) {
            for (Conj y : *d) {
              append(&y.atoms, x.atoms);
              append(&y.comparisons, x.comparisons);
              append(&y.negated, x.negated);
              append(&y.locals, x.locals);
              product.push_back(std::move(y));
            }
          }
          out = std::move(product);
        }
        if (out.size() > kMaxDisjuncts) return std::nullopt;
      }
      return out;
    }
    case Kind::kExists:
    case Kind::kForall: {
      // ∃ (and ¬∀ = ∃¬) projects; ∀ (and ¬∃) negates an inner ∃.
      const int id = (*fresh)++;
      std::map<int, int> scoped = rename;
      scoped[f.bound_var()] = id;
      std::optional<Dnf> d =
          ToDnf(f.children()[0], f.kind() == Kind::kForall, scoped, fresh);
      if (!d.has_value()) return std::nullopt;
      for (Conj& c : *d) c.locals.push_back(id);
      if ((f.kind() == Kind::kExists) != negate) return d;
      return Dnf{Conj{.negated = {std::move(*d)}}};
    }
  }
  return std::nullopt;
}

// Lowers one conjunction into a body appended to `out` (nothing when it
// is unsatisfiable). `outer` maps each enclosing variable to the term
// holding its value: a variable of the enclosing body (a preloaded
// register) or a constant. `head` is the query head at the top level and
// null in a nested body. Returns false if a variable is not
// range-restricted, or is free but not in the head.
bool LowerConj(const Conj& c, const std::map<int, Term>& outer,
               const std::vector<Term>* head, std::vector<FoBody>* out) {
  const size_t head_size = head != nullptr ? head->size() : 0;
  std::vector<int> scope = c.locals;
  for (size_t i = 0; i < head_size; ++i) {
    if ((*head)[i].is_var()) scope.push_back((*head)[i].var());
  }
  std::set<int> preloaded, params;  // params: the preloaded ones read here
  for (const auto& [var, t] : outer) {
    if (t.is_var()) preloaded.insert(t.var());
  }
  bool known = true;
  auto enclosing = [&](const Term& t) {
    if (!t.is_var() ||
        std::find(scope.begin(), scope.end(), t.var()) != scope.end()) {
      return t;
    }
    auto it = outer.find(t.var());
    known = known && it != outer.end();
    if (it == outer.end()) return t;
    if (it->second.is_var()) params.insert(it->second.var());
    return it->second;
  };
  std::vector<Atom> atoms = c.atoms;
  for (Atom& a : atoms) {
    for (Term& t : a.args) t = enclosing(t);
  }
  std::vector<Comparison> comparisons = c.comparisons;
  for (Comparison& cmp : comparisons) {
    cmp.lhs = enclosing(cmp.lhs);
    cmp.rhs = enclosing(cmp.rhs);
  }
  if (!known) return false;
  // Normalize unifies the '=' classes. A class's representative is a
  // constant if it has one, else its smallest variable — a preloaded one
  // when present, as enclosing variables get their ids first. Its head
  // holds the representatives of the query head (or the params), then of
  // every scoped variable.
  std::vector<Term> terms;
  if (head != nullptr) terms = *head;
  for (int v : params) terms.push_back(Term::Var(v));
  const size_t front = terms.size();
  for (int v : scope) terms.push_back(Term::Var(v));
  std::optional<ConjunctiveQuery> cq =
      ConjunctiveQuery(terms, std::move(atoms), std::move(comparisons))
          .Normalize();
  if (!cq.has_value()) return true;
  std::set<int> bound = preloaded;
  for (const Atom& a : cq->body()) {
    for (const Term& t : a.args) {
      if (t.is_var()) bound.insert(t.var());
    }
  }
  auto restricted = [&bound](const Term& t) {
    return t.is_const() || bound.count(t.var()) > 0;
  };
  const std::vector<Term>& reps = cq->head();
  if (!std::all_of(reps.begin(), reps.end(), restricted)) return false;
  FoBody body;
  std::vector<Comparison> checks = cq->comparisons();
  for (size_t i = head_size; i < front; ++i) {
    if (!(reps[i] == terms[i])) checks.push_back({terms[i], reps[i], true});
  }

  // Each disjunct D of a negated sub-DNF sees every variable bound here;
  // ¬D becomes an anti-probe when D is one atom over bound terms.
  std::map<int, Term> inner = outer;
  for (size_t i = 0; i < scope.size(); ++i) inner[scope[i]] = reps[front + i];
  for (const Dnf& negation : c.negated) {
    for (const Conj& d : negation) {
      std::vector<FoBody> lowered;
      if (!LowerConj(d, inner, nullptr, &lowered)) return false;
      if (lowered.empty()) continue;  // D unsatisfiable: ¬D holds
      FoBody& n = lowered[0];
      for (const Term& t : n.cq.head()) {
        if (preloaded.count(t.var()) > 0) params.insert(t.var());
      }
      const std::vector<Atom>& d_atoms = n.cq.body();
      const bool plain = n.cq.comparisons().empty() && n.negated.empty() &&
                         n.nested.empty();
      if (plain && d_atoms.empty()) return true;  // ¬true
      if (plain && d_atoms.size() == 1 && d_atoms[0].args.size() <= 64 &&
          std::all_of(d_atoms[0].args.begin(), d_atoms[0].args.end(),
                      restricted)) {
        body.negated.push_back(d_atoms[0]);
      } else {
        body.nested.push_back(std::move(n));
      }
    }
  }
  std::vector<Term> head_terms(reps.begin(), reps.begin() + head_size);
  if (head == nullptr) {
    for (int v : params) head_terms.push_back(Term::Var(v));
  }
  body.cq = ConjunctiveQuery(std::move(head_terms), cq->body(),
                             std::move(checks));
  out->push_back(std::move(body));
  return true;
}

// Prepares `b` and its nested bodies, numbering b's variables after the
// enclosing slots (none for a top-level body or a closed sentence).
void Prepare(FoBody* b, SlotMap slots) {
  const size_t enclosing = slots.size();
  std::vector<int> vars = b->cq.Vars();
  for (const Atom& a : b->negated) {
    for (const Term& t : a.args) {
      if (t.is_var()) vars.push_back(t.var());
    }
  }
  slots.Extend(std::move(vars));
  const std::vector<Atom>& atoms = b->cq.body();
  b->prepared = PrepareBody(slots, enclosing, atoms,
                            {static_cast<uint32_t>(atoms.size())},
                            b->cq.comparisons(), b->negated);
  for (const Term& t : b->cq.head()) {
    b->slot_head.push_back(t.is_var() ? Term::Var(slots[t.var()]) : t);
  }
  for (FoBody& n : b->nested) {
    Prepare(&n, n.cq.head().empty() ? SlotMap() : slots);
  }
}

// A body lowered onto one database, once per Evaluate.
struct LoweredBody {
  bytecode::JoinProgram program;
  std::vector<LoweredBody> nested;
};

bool Matches(const LoweredBody& c, const std::vector<rel::Value>* preload);

// True iff no nested body matches under `regs`.
bool Keep(const LoweredBody& c, const std::vector<rel::Value>& regs) {
  return std::none_of(
      c.nested.begin(), c.nested.end(),
      [&regs](const LoweredBody& n) { return Matches(n, &regs); });
}

bool Matches(const LoweredBody& c, const std::vector<rel::Value>* preload) {
  return bytecode::HasMatch(
      c.program, preload,
      [&c](const std::vector<rel::Value>& regs) { return Keep(c, regs); });
}

LoweredBody LowerBody(const FoBody& b, const rel::Database& db) {
  LoweredBody c{bytecode::Lower(b.prepared, db), {}};
  for (const FoBody& n : b.nested) {
    if (c.program.never_matches) break;
    if (!n.cq.head().empty()) {
      c.nested.push_back(LowerBody(n, db));
    } else if (Matches(LowerBody(n, db), nullptr)) {
      c.program.never_matches = true;  // a closed ¬∃ sentence is false
    }
  }
  return c;
}

// The lowered form of a query; null when it is not range-restricted or
// its DNF is too large.
std::shared_ptr<const std::vector<FoBody>> Lower(const std::vector<Term>& head,
                                                 const FoFormula& formula) {
  // Quantified variables are all renamed, so fresh ids need only avoid
  // the free and head variables.
  std::set<int> kept = formula.FreeVars();
  for (const Term& t : head) kept.insert(t.is_var() ? t.var() : -1);
  int fresh = kept.empty() ? 0 : *kept.rbegin() + 1;
  std::optional<Dnf> dnf = ToDnf(formula, false, {}, &fresh);
  if (!dnf.has_value()) return nullptr;
  auto bodies = std::make_shared<std::vector<FoBody>>();
  for (const Conj& c : *dnf) {
    if (!LowerConj(c, {}, &head, bodies.get())) return nullptr;
  }
  for (FoBody& b : *bodies) Prepare(&b, SlotMap());
  return bodies;
}

}  // namespace

FoQuery::FoQuery(std::vector<Term> head, FoFormula formula)
    : head_(std::move(head)),
      formula_(std::move(formula)),
      lowered_(Lower(head_, formula_)) {}

rel::Relation FoQuery::Evaluate(const rel::Database& db) const {
  if (lowered_ == nullptr) return EvaluateNaive(db);
  rel::Relation out(head_.size());
  for (const FoBody& body : *lowered_) {
    const LoweredBody c = LowerBody(body, db);
    out.MergeFrom(bytecode::Emit(
        c.program, body.slot_head,
        [&c](const std::vector<rel::Value>& regs) { return Keep(c, regs); }));
  }
  return out;
}

std::optional<UnionQuery> FoQuery::LoweredUcq() const {
  if (lowered_ == nullptr) return std::nullopt;
  UnionQuery ucq(head_.size());
  for (const FoBody& body : *lowered_) {
    if (!body.negated.empty() || !body.nested.empty()) return std::nullopt;
    ucq.Add(body.cq);
  }
  return ucq;
}

rel::Relation FoQuery::EvaluateNaive(const rel::Database& db) const {
  // Active-domain semantics: quantify over adom(db) plus the query's
  // constants.
  std::set<rel::Value> domain = formula_.Constants();
  for (const Term& t : head_) {
    if (t.is_const()) domain.insert(t.value());
  }
  const std::shared_ptr<const std::set<rel::Value>> adom =
      db.ActiveDomainShared();
  domain.insert(adom->begin(), adom->end());
  // Enumerate assignments of the head *variables* over the domain.
  std::vector<int> vars;
  {
    std::set<int> seen;
    for (const Term& t : head_) {
      if (t.is_var() && seen.insert(t.var()).second) vars.push_back(t.var());
    }
  }
  rel::Relation out(head_.size());
  Binding binding;
  std::function<void(size_t)> assign = [&](size_t i) {
    if (i == vars.size()) {
      if (formula_.EvalMutable(db, domain, &binding)) {
        rel::Tuple t;
        t.reserve(head_.size());
        for (const Term& term : head_) {
          auto v = ResolveTerm(term, binding);
          SWS_CHECK(v.has_value());
          t.push_back(*v);
        }
        out.Insert(std::move(t));
      }
      return;
    }
    for (const rel::Value& v : domain) {
      if (!sws::util::StepTick()) break;  // cancelled: abandon enumeration
      binding[vars[i]] = v;
      assign(i + 1);
    }
    binding.erase(vars[i]);
  };
  assign(0);
  return out;
}

FoQuery FoQuery::FromCq(const ConjunctiveQuery& cq) {
  std::vector<FoFormula> conjuncts;
  for (const Atom& a : cq.body()) {
    conjuncts.push_back(FoFormula::MakeAtom(a.relation, a.args));
  }
  for (const Comparison& c : cq.comparisons()) {
    FoFormula eq = FoFormula::Eq(c.lhs, c.rhs);
    conjuncts.push_back(c.is_equality ? eq : FoFormula::Not(eq));
  }
  FoFormula body = FoFormula::And(std::move(conjuncts));
  // Existentially quantify the non-head variables.
  std::set<int> head_vars;
  for (const Term& t : cq.head()) {
    if (t.is_var()) head_vars.insert(t.var());
  }
  std::vector<int> existential;
  for (int v : cq.Vars()) {
    if (head_vars.count(v) == 0) existential.push_back(v);
  }
  return FoQuery(cq.head(), FoFormula::Exists(existential, std::move(body)));
}

std::string FoQuery::ToString(
    const std::function<std::string(int)>& name) const {
  std::ostringstream out;
  out << "ans(";
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out << ", ";
    out << head_[i].ToString(name);
  }
  out << ") :- " << formula_.ToString(name);
  return out.str();
}

namespace {

// Enumerates all databases with the given relation arities over the domain
// {1..k}: for each relation, every subset of the k^arity possible tuples.
// Invokes `cb`; stops early if cb returns false. Returns false iff stopped.
bool EnumerateDatabases(
    const std::map<std::string, size_t>& arities, size_t k,
    uint64_t* budget, const std::function<bool(const rel::Database&)>& cb) {
  // Materialize the tuple universe per relation.
  std::vector<std::pair<std::string, std::vector<rel::Tuple>>> universes;
  for (const auto& [name, arity] : arities) {
    std::vector<rel::Tuple> tuples;
    rel::Tuple current(arity);
    std::function<void(size_t)> fill = [&](size_t i) {
      if (i == arity) {
        tuples.push_back(current);
        return;
      }
      for (size_t v = 1; v <= k; ++v) {
        current[i] = rel::Value::Int(static_cast<int64_t>(v));
        fill(i + 1);
      }
    };
    fill(0);
    universes.emplace_back(name, std::move(tuples));
  }
  rel::Database db;
  for (const auto& [name, tuples] : universes) {
    db.Set(name, rel::Relation(arities.at(name)));
  }
  std::function<bool(size_t)> choose = [&](size_t rel_index) -> bool {
    if (rel_index == universes.size()) {
      if (*budget == 0) return false;
      --*budget;
      return cb(db);
    }
    const auto& [name, tuples] = universes[rel_index];
    // Iterate subsets via recursive include/exclude per tuple.
    std::function<bool(size_t)> pick = [&](size_t t_index) -> bool {
      if (t_index == tuples.size()) return choose(rel_index + 1);
      if (!pick(t_index + 1)) return false;  // exclude tuples[t_index]
      db.GetMutable(name)->Insert(tuples[t_index]);
      bool cont = pick(t_index + 1);         // include tuples[t_index]
      db.GetMutable(name)->Erase(tuples[t_index]);
      return cont;
    };
    return pick(0);
  };
  return choose(0);
}

}  // namespace

FoBoundedSatResult FoBoundedSat(const FoFormula& sentence,
                                size_t max_domain_size,
                                uint64_t max_databases) {
  SWS_CHECK(sentence.FreeVars().empty()) << "FoBoundedSat needs a sentence";
  FoBoundedSatResult result;
  std::map<std::string, size_t> arities = sentence.RelationArities();
  uint64_t budget = max_databases;
  std::set<rel::Value> constants = sentence.Constants();
  for (size_t k = 1; k <= max_domain_size && !result.found; ++k) {
    // The evaluation domain depends only on k, not on the candidate
    // database — build it once per k instead of once per database.
    std::set<rel::Value> eval_domain = constants;
    for (size_t v = 1; v <= k; ++v) {
      eval_domain.insert(rel::Value::Int(static_cast<int64_t>(v)));
    }
    EnumerateDatabases(arities, k, &budget, [&](const rel::Database& db) {
      ++result.databases_checked;
      if (sentence.Eval(db, eval_domain, {})) {
        result.found = true;
        result.witness = db;
        return false;
      }
      return true;
    });
    if (budget == 0) break;
  }
  return result;
}

}  // namespace sws::logic
