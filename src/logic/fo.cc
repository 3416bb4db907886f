#include "logic/fo.h"

#include <algorithm>
#include <sstream>

#include "logic/bytecode.h"
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
// LowerConj unifies each disjunct's equalities; a variable that no
// positive atom, constant or enclosing body binds then ranges over the
// query's active-domain relation, so every valid query lowers.
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
  /// them. A nested body is one group; a top-level body is split into
  /// its connected components: groups [0, head_groups) touch the head
  /// and run as one program, and each other group needs one witness.
  bytecode::Body prepared;
  std::vector<Term> slot_head;
  int head_groups = 0;
  /// nested[i] filters the matches of group nested_group[i]; -1 for a
  /// closed sentence, which is checked once.
  std::vector<int> nested_group;
};

struct FoLowering {
  std::vector<FoBody> bodies;
  /// The unary relation a variable that nothing binds ranges over: a
  /// name the formula does not read, bound to adom(db) plus the query's
  /// constants only when some body reads it.
  std::string adom;
  bool reads_adom = false;
  std::vector<rel::Value> constants;
};

namespace {

// Past this many disjuncts, a conjunct enters a conjunction as ¬¬φ.
constexpr size_t kMaxDisjuncts = 64;

struct Conj {
  std::vector<Atom> atoms = {};
  std::vector<Comparison> comparisons = {};   // '=' and '≠' as written
  std::vector<std::vector<Conj>> negated = {};  // each ¬(D_1 ∨ … ∨ D_k)
  std::vector<int> locals = {};  // variables quantified at this level
};
using Dnf = std::vector<Conj>;

// The DNF of f (of ¬f when `negate`); `rename` maps each quantified
// variable in scope to its fresh id.
Dnf ToDnf(const FoFormula& f, bool negate, const std::map<int, int>& rename,
          int* fresh) {
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
        Dnf d = ToDnf(child, negate, rename, fresh);
        if (!conjunction) {
          append(&out, d);
        } else {
          if (out.size() * d.size() > kMaxDisjuncts) {
            // ¬¬child: one conjunct, whatever the size of child's DNF.
            d = Dnf{Conj{.negated = {ToDnf(child, !negate, rename, fresh)}}};
          }
          Dnf product;
          for (const Conj& x : out) {
            for (Conj y : d) {
              append(&y.atoms, x.atoms);
              append(&y.comparisons, x.comparisons);
              append(&y.negated, x.negated);
              append(&y.locals, x.locals);
              product.push_back(std::move(y));
            }
          }
          out = std::move(product);
        }
      }
      return out;
    }
    case Kind::kExists:
    case Kind::kForall: {
      // ∃ (and ¬∀ = ∃¬) projects; ∀ (and ¬∃) negates an inner ∃.
      const int id = (*fresh)++;
      std::map<int, int> scoped = rename;
      scoped[f.bound_var()] = id;
      Dnf d = ToDnf(f.children()[0], f.kind() == Kind::kForall, scoped, fresh);
      for (Conj& c : d) c.locals.push_back(id);
      if ((f.kind() == Kind::kExists) != negate) return d;
      return Dnf{Conj{.negated = {std::move(d)}}};
    }
  }
  return {};
}

// Lowers one conjunction into a body appended to `out` (nothing when it
// is unsatisfiable). `outer` maps each enclosing variable to the term
// holding its value: a variable of the enclosing body (a preloaded
// register) or a constant. `head` is the query head at the top level and
// null in a nested body. A variable that nothing binds gets an atom over
// the active-domain relation.
void LowerConj(const Conj& c, const std::map<int, Term>& outer,
               const std::vector<Term>* head, FoLowering* lowering,
               std::vector<FoBody>* out) {
  const size_t head_size = head != nullptr ? head->size() : 0;
  std::vector<int> scope = c.locals;
  for (size_t i = 0; i < head_size; ++i) {
    if ((*head)[i].is_var()) scope.push_back((*head)[i].var());
  }
  std::set<int> preloaded, params;  // params: the preloaded ones read here
  for (const auto& [var, t] : outer) {
    if (t.is_var()) preloaded.insert(t.var());
  }
  auto enclosing = [&](const Term& t) {
    if (!t.is_var() ||
        std::find(scope.begin(), scope.end(), t.var()) != scope.end()) {
      return t;
    }
    auto it = outer.find(t.var());
    SWS_CHECK(it != outer.end()) << "free variable " << t.ToString();
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
  if (!cq.has_value()) return;
  std::set<int> bound = preloaded;
  for (const Atom& a : cq->body()) {
    for (const Term& t : a.args) {
      if (t.is_var()) bound.insert(t.var());
    }
  }
  // A representative that nothing binds ranges over the active domain.
  const std::vector<Term>& reps = cq->head();
  std::vector<Atom> body_atoms = cq->body();
  for (const Term& t : reps) {
    if (t.is_var() && bound.insert(t.var()).second) {
      body_atoms.push_back(Atom{lowering->adom, {t}});
      lowering->reads_adom = true;
    }
  }
  FoBody body;
  std::vector<Comparison> checks = cq->comparisons();
  for (size_t i = head_size; i < front; ++i) {
    if (!(reps[i] == terms[i])) checks.push_back({terms[i], reps[i], true});
  }

  // Each disjunct D of a negated sub-DNF sees every variable bound here;
  // ¬D becomes an anti-probe when D is one atom over bound terms.
  auto restricted = [&bound](const Term& t) {
    return t.is_const() || bound.count(t.var()) > 0;
  };
  std::map<int, Term> inner = outer;
  for (size_t i = 0; i < scope.size(); ++i) inner[scope[i]] = reps[front + i];
  for (const Dnf& negation : c.negated) {
    for (const Conj& d : negation) {
      std::vector<FoBody> lowered;
      LowerConj(d, inner, nullptr, lowering, &lowered);
      if (lowered.empty()) continue;  // D unsatisfiable: ¬D holds
      FoBody& n = lowered[0];
      for (const Term& t : n.cq.head()) {
        if (preloaded.count(t.var()) > 0) params.insert(t.var());
      }
      const std::vector<Atom>& d_atoms = n.cq.body();
      const bool plain = n.cq.comparisons().empty() && n.negated.empty() &&
                         n.nested.empty();
      if (plain && d_atoms.empty()) return;  // ¬true
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
  body.cq = ConjunctiveQuery(std::move(head_terms), std::move(body_atoms),
                             std::move(checks));
  out->push_back(std::move(body));
}

bool ReadsRelation(const FoFormula& f, const std::string& name) {
  if (f.kind() == FoFormula::Kind::kAtom && f.relation() == name) return true;
  return std::any_of(
      f.children().begin(), f.children().end(),
      [&name](const FoFormula& c) { return ReadsRelation(c, name); });
}

// Prepares `b` and its nested bodies, numbering b's variables after the
// enclosing slots (none for a top-level body or a closed sentence).
void Prepare(FoBody* b, SlotMap slots, bool top_level) {
  const size_t enclosing = slots.size();
  std::vector<int> vars = b->cq.Vars();
  for (const Atom& a : b->negated) {
    for (const Term& t : a.args) {
      if (t.is_var()) vars.push_back(t.var());
    }
  }
  slots.Extend(std::move(vars));
  std::vector<Atom> atoms = b->cq.body();
  std::vector<uint32_t> group_ends = {static_cast<uint32_t>(atoms.size())};
  b->head_groups = 1;
  for (const FoBody& n : b->nested) {
    b->nested_group.push_back(n.cq.head().empty() ? -1 : 0);
  }
  if (top_level) {  // a closed nested body links nothing: group -1
    std::vector<std::vector<Term>> links;
    for (const Comparison& c : b->cq.comparisons()) {
      links.push_back({c.lhs, c.rhs});
    }
    for (const Atom& a : b->negated) links.push_back(a.args);
    for (const FoBody& n : b->nested) links.push_back(n.cq.head());
    BodyGroups groups = GroupComponents(slots, atoms, links, b->cq.head());
    atoms.clear();
    for (uint32_t i : groups.atoms) atoms.push_back(b->cq.body()[i]);
    group_ends = std::move(groups.group_ends);
    b->head_groups = static_cast<int>(groups.head_groups);
    b->nested_group.assign(groups.link_group.end() - b->nested.size(),
                           groups.link_group.end());
  }
  b->prepared = PrepareBody(slots, enclosing, atoms, std::move(group_ends),
                            b->cq.comparisons(), b->negated);
  for (const Term& t : b->cq.head()) {
    b->slot_head.push_back(t.is_var() ? Term::Var(slots[t.var()]) : t);
  }
  for (FoBody& n : b->nested) {
    Prepare(&n, n.cq.head().empty() ? SlotMap() : slots, false);
  }
}

// A body lowered onto one database, once per Evaluate: the program over
// its head groups, and its nested bodies (parallel to FoBody::nested).
struct LoweredBody {
  bytecode::JoinProgram program;
  std::vector<LoweredBody> nested;
};

bool Matches(const FoBody& b, const LoweredBody& c,
             const std::vector<rel::Value>* preload);

// True iff no nested body of groups [first, last) matches under `regs`.
bool Keep(const FoBody& b, const LoweredBody& c, int first, int last,
          const std::vector<rel::Value>& regs) {
  for (size_t i = 0; i < b.nested.size(); ++i) {
    if (b.nested_group[i] >= first && b.nested_group[i] < last &&
        Matches(b.nested[i], c.nested[i], &regs)) {
      return false;
    }
  }
  return true;
}

bool Matches(const FoBody& b, const LoweredBody& c,
             const std::vector<rel::Value>* preload) {
  return bytecode::HasMatch(c.program, preload, [&](const auto& regs) {
    return Keep(b, c, 0, b.head_groups, regs);
  });
}

// A closed sentence that holds, or a head-free group with no witness,
// marks the program as never matching.
LoweredBody LowerBody(const FoBody& b, const rel::Database& db) {
  LoweredBody c{bytecode::Lower(b.prepared, db, 0, b.head_groups), {}};
  for (const FoBody& n : b.nested) {
    if (c.program.never_matches) return c;
    c.nested.push_back(LowerBody(n, db));
    c.program.never_matches =
        n.cq.head().empty() && Matches(n, c.nested.back(), nullptr);
  }
  const int groups = static_cast<int>(b.prepared.group_ends.size());
  for (int g = b.head_groups; g < groups && !c.program.never_matches; ++g) {
    c.program.never_matches = !bytecode::HasMatch(
        bytecode::Lower(b.prepared, db, g, g + 1), nullptr,
        [&](const auto& regs) { return Keep(b, c, g, g + 1, regs); });
  }
  return c;
}

std::shared_ptr<const FoLowering> Lower(const std::vector<Term>& head,
                                        const FoFormula& formula) {
  // Quantified variables are all renamed, so fresh ids need only avoid
  // the free and head variables.
  std::set<int> kept = formula.FreeVars();
  for (const Term& t : head) kept.insert(t.is_var() ? t.var() : -1);
  int fresh = kept.empty() ? 0 : *kept.rbegin() + 1;
  auto lowering = std::make_shared<FoLowering>();
  lowering->adom = "adom";
  while (ReadsRelation(formula, lowering->adom)) lowering->adom += "'";
  for (const Conj& c : ToDnf(formula, false, {}, &fresh)) {
    LowerConj(c, {}, &head, lowering.get(), &lowering->bodies);
  }
  for (FoBody& b : lowering->bodies) Prepare(&b, SlotMap(), true);
  if (!lowering->reads_adom) return lowering;
  std::set<rel::Value> constants = formula.Constants();
  for (const Term& t : head) {
    if (t.is_const()) constants.insert(t.value());
  }
  lowering->constants.assign(constants.begin(), constants.end());
  return lowering;
}

}  // namespace

FoQuery::FoQuery(std::vector<Term> head, FoFormula formula)
    : head_(std::move(head)), formula_(std::move(formula)) {
  if (!Validate().has_value()) lowered_ = Lower(head_, formula_);
}

rel::Relation FoQuery::Evaluate(const rel::Database& db) const {
  SWS_CHECK(lowered_ != nullptr) << *Validate();
  rel::Database env;
  if (lowered_->reads_adom) {
    // The active-domain relation: adom(db) plus the query's constants.
    const std::shared_ptr<const std::set<rel::Value>> adom =
        db.ActiveDomainShared();
    std::vector<rel::Value> values(adom->begin(), adom->end());
    values.insert(values.end(), lowered_->constants.begin(),
                  lowered_->constants.end());
    env = db;
    env.Set(lowered_->adom, rel::Relation::FromRowMajor(1, values));
  }
  rel::Relation out(head_.size());
  for (const FoBody& body : lowered_->bodies) {
    const LoweredBody c = LowerBody(body, lowered_->reads_adom ? env : db);
    out.MergeFrom(bytecode::Emit(c.program, body.slot_head,
                                 [&](const auto& regs) {
                                   return Keep(body, c, 0, body.head_groups,
                                               regs);
                                 }));
  }
  return out;
}

std::optional<UnionQuery> FoQuery::LoweredUcq() const {
  if (lowered_ == nullptr || lowered_->reads_adom) return std::nullopt;
  UnionQuery ucq(head_.size());
  for (const FoBody& body : lowered_->bodies) {
    if (!body.negated.empty() || !body.nested.empty()) return std::nullopt;
    ucq.Add(body.cq);
  }
  return ucq;
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
  // Each candidate is evaluated beside a unary relation holding {1..k},
  // so that the domain is exactly {1..k} plus the sentence's constants.
  std::string domain = "domain";
  while (arities.count(domain) > 0) domain += "'";
  const FoQuery query({}, sentence);
  uint64_t budget = max_databases;
  for (size_t k = 1; k <= max_domain_size && !result.found; ++k) {
    rel::Relation values(1);
    for (size_t v = 1; v <= k; ++v) {
      values.Insert({rel::Value::Int(static_cast<int64_t>(v))});
    }
    EnumerateDatabases(arities, k, &budget, [&](const rel::Database& db) {
      ++result.databases_checked;
      rel::Database env = db;
      env.Set(domain, values);
      if (query.Evaluate(env).empty()) return true;
      result.found = true;
      result.witness = db;
      return false;
    });
    if (budget == 0) break;
  }
  return result;
}

}  // namespace sws::logic
