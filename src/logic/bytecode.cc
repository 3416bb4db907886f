#include "logic/bytecode.h"

#include <algorithm>
#include <set>

#include "util/common.h"

namespace sws::logic::bytecode {

std::vector<Atom> OrderAtomsGreedily(const std::vector<Atom>& body,
                                     const rel::Database& db,
                                     const std::map<int, int>& preloaded) {
  std::vector<Atom> ordered;
  std::vector<bool> used(body.size(), false);
  std::set<int> bound;
  for (const auto& [var, reg] : preloaded) bound.insert(var);
  auto relation_size = [&db](const Atom& a) -> size_t {
    if (!db.Contains(a.relation)) return 0;  // matches nothing: run it first
    const rel::Relation& r = db.Get(a.relation);
    return r.arity() == a.args.size() ? r.size() : 0;
  };
  for (size_t step = 0; step < body.size(); ++step) {
    size_t best = body.size();
    int best_bound = -1;
    size_t best_size = 0;
    for (size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      int bound_args = 0;
      for (const Term& t : body[i].args) {
        if (t.is_const() || (t.is_var() && bound.count(t.var()) > 0)) {
          ++bound_args;
        }
      }
      size_t size = relation_size(body[i]);
      if (best == body.size() || bound_args > best_bound ||
          (bound_args == best_bound && size < best_size)) {
        best = i;
        best_bound = bound_args;
        best_size = size;
      }
    }
    used[best] = true;
    for (const Term& t : body[best].args) {
      if (t.is_var()) bound.insert(t.var());
    }
    ordered.push_back(body[best]);
  }
  return ordered;
}

JoinProgram Compile(const std::vector<Atom>& ordered,
                    const std::vector<Comparison>& comparisons,
                    const rel::Database& db, const std::vector<Atom>& negated,
                    const std::map<int, int>& preloaded) {
  JoinProgram program;

  // Pass 1: preloaded variables keep the caller's registers; the rest
  // get registers in first-occurrence order.
  program.var_reg = preloaded;
  for (const Atom& atom : ordered) {
    for (const Term& term : atom.args) {
      if (term.is_var() && program.var_reg.count(term.var()) == 0) {
        const int reg = static_cast<int>(program.var_reg.size());
        program.var_reg.emplace(term.var(), reg);
      }
    }
  }
  SWS_CHECK_LE(program.var_reg.size(), size_t{UINT16_MAX});
  program.num_var_regs = static_cast<uint16_t>(program.var_reg.size());
  program.num_preloaded = static_cast<uint16_t>(preloaded.size());

  std::vector<rel::Value> constants;
  std::map<rel::Value, uint16_t> const_reg_of;
  auto const_reg = [&](const rel::Value& v) -> uint16_t {
    auto it = const_reg_of.find(v);
    if (it != const_reg_of.end()) return it->second;
    const uint16_t reg =
        static_cast<uint16_t>(program.num_var_regs + constants.size());
    constants.push_back(v);
    const_reg_of.emplace(v, reg);
    return reg;
  };
  // nullptr: absent, or present with another arity.
  auto relation_of = [&db](const Atom& atom) -> const rel::Relation* {
    if (!db.Contains(atom.relation)) return nullptr;
    const rel::Relation& r = db.Get(atom.relation);
    return r.arity() == atom.args.size() ? &r : nullptr;
  };

  // Constant-vs-constant comparisons resolve at compile time.
  std::vector<bool> attached(comparisons.size(), false);
  for (size_t ci = 0; ci < comparisons.size(); ++ci) {
    const Comparison& c = comparisons[ci];
    if (c.lhs.is_const() && c.rhs.is_const()) {
      attached[ci] = true;
      if ((c.lhs.value() == c.rhs.value()) != c.is_equality) {
        program.comparison_failed = true;
      }
    }
  }

  std::set<int> loaded;       // vars with their kLoad already emitted
  std::set<int> bound_prior;  // vars bound at fully-compiled levels
  for (const auto& [var, reg] : preloaded) {
    loaded.insert(var);
    bound_prior.insert(var);
  }
  auto is_bound = [&loaded](const Term& t) {
    return t.is_const() || loaded.count(t.var()) > 0;
  };
  auto reg_of = [&](const Term& t) {
    return t.is_const() ? const_reg(t.value())
                        : static_cast<uint16_t>(program.var_reg.at(t.var()));
  };
  // Attaches every comparison and negated atom whose operands are all
  // bound by now; it then costs exactly one check per candidate row. A
  // negated atom over an absent relation holds trivially: no op at all.
  std::vector<bool> anti_attached(negated.size(), false);
  auto attach_checks = [&]() {
    for (size_t ci = 0; ci < comparisons.size(); ++ci) {
      const Comparison& c = comparisons[ci];
      if (attached[ci] || !is_bound(c.lhs) || !is_bound(c.rhs)) continue;
      attached[ci] = true;
      program.ops.push_back({c.is_equality ? Op::kCmpEq : Op::kCmpNe,
                             reg_of(c.lhs), reg_of(c.rhs)});
    }
    for (size_t ni = 0; ni < negated.size(); ++ni) {
      const std::vector<Term>& args = negated[ni].args;
      if (anti_attached[ni] ||
          !std::all_of(args.begin(), args.end(), is_bound)) {
        continue;
      }
      anti_attached[ni] = true;
      Level anti;
      anti.relation = relation_of(negated[ni]);
      if (anti.relation == nullptr) continue;
      SWS_CHECK_LE(args.size(), 64u);
      anti.index = anti.relation->GetIndex(
          args.size() == 64 ? ~uint64_t{0} : (uint64_t{1} << args.size()) - 1);
      anti.keys_begin = static_cast<uint32_t>(program.keys.size());
      for (uint32_t col = 0; col < args.size(); ++col) {
        program.keys.push_back({col, reg_of(args[col])});
      }
      anti.keys_end = static_cast<uint32_t>(program.keys.size());
      program.ops.push_back({Op::kAntiProbe, 0,
                             static_cast<uint32_t>(program.anti.size())});
      program.anti.push_back(std::move(anti));
    }
  };
  attach_checks();  // the prologue: checks over preloaded registers only
  program.prologue_end = static_cast<uint32_t>(program.ops.size());

  // Pass 2: one Level per atom.
  for (const Atom& atom : ordered) {
    const rel::Relation* relation = relation_of(atom);
    if (relation == nullptr) {  // no facts: the whole body matches nothing
      program.never_matches = true;
      return program;
    }
    Level level;
    level.relation = relation;
    level.ops_begin = static_cast<uint32_t>(program.ops.size());
    level.keys_begin = static_cast<uint32_t>(program.keys.size());
    uint64_t mask = 0;
    rel::Tuple key_template;  // parallel to the masked columns, ascending
    for (size_t col = 0; col < atom.args.size(); ++col) {
      const Term& term = atom.args[col];
      if (term.is_const()) {
        if (col < 64) {
          mask |= uint64_t{1} << col;
          key_template.push_back(term.value());  // prefilled, never rewritten
        } else {
          program.ops.push_back({Op::kCheckCol, const_reg(term.value()),
                                 static_cast<uint32_t>(col)});
        }
        continue;
      }
      const uint16_t reg =
          static_cast<uint16_t>(program.var_reg.at(term.var()));
      if (loaded.count(term.var()) == 0) {  // first occurrence: bind here
        loaded.insert(term.var());
        program.ops.push_back({Op::kLoad, reg, static_cast<uint32_t>(col)});
      } else if (bound_prior.count(term.var()) > 0 && col < 64) {
        mask |= uint64_t{1} << col;  // bound earlier: probe key component
        program.keys.push_back(
            {static_cast<uint32_t>(key_template.size()), reg});
        key_template.push_back(rel::Value());  // rewritten per probe
      } else {
        // Repeated within this atom (its register is written by an
        // earlier kLoad of the same level) or beyond indexable columns.
        program.ops.push_back(
            {Op::kCheckCol, reg, static_cast<uint32_t>(col)});
      }
    }
    if (mask != 0) {
      level.index = relation->GetIndex(mask);
    }
    level.keys_end = static_cast<uint32_t>(program.keys.size());
    attach_checks();
    for (const Term& t : atom.args) {
      if (t.is_var()) bound_prior.insert(t.var());
    }
    level.ops_end = static_cast<uint32_t>(program.ops.size());
    program.key_templates.push_back(std::move(key_template));
    program.levels.push_back(std::move(level));
  }

  program.reg_init.assign(program.num_var_regs, rel::Value());
  program.reg_init.insert(program.reg_init.end(), constants.begin(),
                          constants.end());
  return program;
}

bool HasMatch(const JoinProgram& p, const std::vector<rel::Value>* preload,
              const MatchFilter& keep) {
  bool found = false;
  Run(
      p,
      [&](const std::vector<rel::Value>& regs) {
        found = !keep || keep(regs);
        return !found;  // one witness suffices
      },
      preload);
  return found;
}

rel::Relation Emit(const JoinProgram& program, const std::vector<Term>& head,
                   const MatchFilter& keep) {
  rel::Relation out(head.size());
  if (program.never_matches || program.comparison_failed) return out;
  // Resolve head terms to registers/constants once, outside the loop.
  struct HeadPart {
    int reg = -1;  // -1: the constant below
    rel::Value constant;
  };
  std::vector<HeadPart> head_parts;
  head_parts.reserve(head.size());
  for (const Term& term : head) {
    HeadPart part;
    if (term.is_var()) {
      auto it = program.var_reg.find(term.var());
      SWS_CHECK(it != program.var_reg.end())
          << "unsafe head variable " << term.ToString();
      part.reg = it->second;
    } else {
      part.constant = term.value();
    }
    head_parts.push_back(std::move(part));
  }

  if (head.empty()) {  // nullary head: {()} iff any kept match exists
    if (HasMatch(program, nullptr, keep)) out.Insert({});
    return out;
  }
  // Emit matches into one flat row-major buffer, deduplicating head
  // rows at emit time with an open-addressing set over the packed value
  // words: a chain join enumerates every witness path but most project
  // to an already-seen head row, and rows dropped here are rows the
  // final sort never has to touch. FromRowMajor then sorts + bulk
  // transposes the distinct rows (no per-match ordered insertion).
  const size_t arity = head.size();

  // Grouped-emission detection: when head parts [0, p) are variables
  // kLoad-ed from columns [0, p), in order, at an outermost *scan*
  // level, the scan walks its relation in lexicographic row order, so
  // (a) every match sharing a head prefix arrives consecutively and
  // (b) prefix groups arrive in ascending order. Deduplication then
  // needs only a small per-group table over the head suffix (epoch-
  // tagged, so group changes never clear it), and the output assembles
  // already sorted — FromRowMajor's linear sortedness check skips the
  // final sort entirely.
  size_t group_prefix = 0;
  if (!program.levels.empty() && program.levels[0].index == nullptr) {
    const Level& lvl = program.levels[0];
    while (group_prefix < arity) {
      const HeadPart& part = head_parts[group_prefix];
      bool loads_col = false;
      for (uint32_t oi = lvl.ops_begin; oi != lvl.ops_end && !loads_col;
           ++oi) {
        const Op& op = program.ops[oi];
        loads_col = op.code == Op::kLoad && op.b == group_prefix &&
                    part.reg >= 0 && op.a == part.reg;
      }
      if (!loads_col) break;
      ++group_prefix;
    }
  }

  const size_t p = group_prefix;
  const size_t sfx = arity - p;
  std::vector<rel::Value> flat;       // final row-major output rows
  std::vector<rel::Value> row(sfx);   // head-suffix scratch
  std::vector<rel::Value> group(p);   // current group's prefix values
  bool have_group = false;
  bool group_inline = true;  // every suffix value has an inline order key
  std::vector<rel::Value> gflat;      // distinct suffix rows, this group
  std::vector<uint64_t> gslots(p > 0 ? 256 : 4096, 0);
  size_t gmask = gslots.size() - 1;
  uint32_t epoch = 0;  // gslots entry: (epoch << 32) | suffix row index
  std::vector<uint64_t> key_scratch;   // flush: bare order keys
  std::vector<uint32_t> order_scratch; // flush: permutation fallback
  // Independent per-column mixes (rotated golden-ratio products) keep
  // the hash's dependency chain flat — the sink runs once per witness
  // path, so single-digit-ns constants matter here.
  auto row_hash = [sfx](const rel::Value* r) {
    size_t h = 0;
    for (size_t c = 0; c < sfx; ++c) {
      const size_t m = r[c].Hash();
      h ^= (m << (c & 63)) | (m >> ((64 - c) & 63));
    }
    return h;
  };
  // Sorts the current group's distinct suffix rows and appends the
  // (prefix, suffix) rows to `flat`. Group sizes are small, so the sort
  // runs in cache; when every suffix value is an inline int/null the
  // sort runs over bare u64 order keys with no value decoding at all.
  auto flush_group = [&]() {
    if (!have_group) return;
    if (sfx == 0) {
      flat.insert(flat.end(), group.begin(), group.end());
      return;
    }
    const size_t m = gflat.size() / sfx;
    if (m == 0) return;
    const size_t base = flat.size();
    flat.resize(base + m * arity);
    rel::Value* dst = flat.data() + base;
    if (sfx == 1 && group_inline) {
      key_scratch.resize(m);
      for (size_t i = 0; i < m; ++i) {
        key_scratch[i] = gflat[i].InlineOrderKey();
      }
      std::sort(key_scratch.begin(), key_scratch.end());
      for (size_t i = 0; i < m; ++i) {
        for (size_t c = 0; c < p; ++c) *dst++ = group[c];
        *dst++ = rel::Value::FromInlineOrderKey(key_scratch[i]);
      }
      return;
    }
    order_scratch.resize(m);
    for (size_t i = 0; i < m; ++i) {
      order_scratch[i] = static_cast<uint32_t>(i);
    }
    const bool inline_keys = group_inline;
    std::sort(order_scratch.begin(), order_scratch.end(),
              [&gflat, sfx, inline_keys](uint32_t a, uint32_t b) {
                const rel::Value* ra = gflat.data() + size_t{a} * sfx;
                const rel::Value* rb = gflat.data() + size_t{b} * sfx;
                for (size_t c = 0; c < sfx; ++c) {
                  if (inline_keys) {
                    const uint64_t ka = ra[c].InlineOrderKey();
                    const uint64_t kb = rb[c].InlineOrderKey();
                    if (ka != kb) return ka < kb;
                  } else {
                    auto cmp = ra[c] <=> rb[c];
                    if (cmp != std::strong_ordering::equal) return cmp < 0;
                  }
                }
                return false;
              });
    for (uint32_t idx : order_scratch) {
      for (size_t c = 0; c < p; ++c) *dst++ = group[c];
      const rel::Value* src = gflat.data() + size_t{idx} * sfx;
      for (size_t c = 0; c < sfx; ++c) *dst++ = src[c];
    }
  };
  Run(program, [&](const std::vector<rel::Value>& regs) {
    if (keep && !keep(regs)) return true;
    bool boundary = !have_group;
    for (size_t c = 0; c < p && !boundary; ++c) {
      boundary = !(regs[head_parts[c].reg] == group[c]);
    }
    if (boundary) {
      flush_group();
      for (size_t c = 0; c < p; ++c) group[c] = regs[head_parts[c].reg];
      have_group = true;
      group_inline = true;
      gflat.clear();
      ++epoch;
      if (sfx == 0) return true;  // prefix-only head: row emitted at flush
    }
    if (sfx == 0) return true;
    for (size_t c = 0; c < sfx; ++c) {
      const HeadPart& part = head_parts[p + c];
      row[c] = part.reg >= 0 ? regs[part.reg] : part.constant;
    }
    size_t pos = row_hash(row.data()) & gmask;
    for (;;) {
      const uint64_t slot = gslots[pos];
      if (static_cast<uint32_t>(slot >> 32) != epoch) break;  // free slot
      const rel::Value* seen =
          gflat.data() + size_t{static_cast<uint32_t>(slot)} * sfx;
      size_t c = 0;
      while (c < sfx && seen[c] == row[c]) ++c;
      if (c == sfx) return true;  // duplicate suffix in this group: drop
      pos = (pos + 1) & gmask;
    }
    const size_t count = gflat.size() / sfx;
    gslots[pos] = (uint64_t{epoch} << 32) | count;
    for (size_t c = 0; c < sfx; ++c) {
      group_inline = group_inline && row[c].HasInlineOrderKey();
    }
    gflat.insert(gflat.end(), row.begin(), row.end());
    if ((count + 1) * 4 > gslots.size() * 3) {  // keep load under 3/4
      std::vector<uint64_t> grown(gslots.size() * 2, 0);
      const size_t m2 = grown.size() - 1;
      for (size_t i = 0; i <= count; ++i) {
        size_t gpos = row_hash(gflat.data() + i * sfx) & m2;
        while (static_cast<uint32_t>(grown[gpos] >> 32) == epoch) {
          gpos = (gpos + 1) & m2;
        }
        grown[gpos] = (uint64_t{epoch} << 32) | i;
      }
      gslots = std::move(grown);
      gmask = m2;
    }
    return true;
  });
  flush_group();
  return rel::Relation::FromRowMajor(arity, flat);
}

}  // namespace sws::logic::bytecode
