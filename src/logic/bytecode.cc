#include "logic/bytecode.h"

#include <algorithm>

#include "util/common.h"

namespace sws::logic::bytecode {

JoinProgram Lower(const Body& body, const rel::Database& db,
                  size_t first_group, size_t last_group) {
  JoinProgram program;
  const uint16_t num_slots = body.num_slots;
  program.num_var_regs = num_slots;
  program.num_preloaded = body.num_preloaded;
  program.comparison_failed = body.comparison_failed;
  program.var_reg.assign(num_slots, -1);
  for (uint16_t s = 0; s < body.num_preloaded; ++s) program.var_reg[s] = s;

  // nullptr: absent, or present with another arity.
  auto relation_of = [&db](const Body::Atom& atom) -> const rel::Relation* {
    auto it = db.relations().find(atom.relation);
    if (it == db.relations().end()) return nullptr;
    return it->second.arity() == atom.regs.size() ? &it->second : nullptr;
  };
  const uint32_t begin =
      first_group == 0 ? 0 : body.group_ends[first_group - 1];
  const uint32_t end =
      last_group == first_group ? begin : body.group_ends[last_group - 1];
  std::vector<const rel::Relation*> relations(end - begin);
  size_t columns = 0;
  for (uint32_t i = begin; i < end; ++i) {
    relations[i - begin] = relation_of(body.atoms[i]);
    columns += body.atoms[i].regs.size();
  }
  program.levels.reserve(end - begin);
  program.key_templates.reserve(end - begin);
  program.ops.reserve(columns + body.checks.size() + body.negated.size());
  program.keys.reserve(columns);

  // Greedy order within each group, over a bitmask of bound slots.
  std::vector<bool> bound(num_slots, false);
  for (uint16_t s = 0; s < body.num_preloaded; ++s) bound[s] = true;
  std::vector<uint32_t> order;
  order.reserve(end - begin);
  std::vector<bool> used(end - begin, false);
  for (size_t g = first_group; g < last_group; ++g) {
    const uint32_t gb = g == 0 ? 0 : body.group_ends[g - 1];
    const uint32_t ge = body.group_ends[g];
    for (uint32_t step = gb; step < ge; ++step) {
      uint32_t best = ge;
      int best_bound = -1;
      size_t best_size = 0;
      for (uint32_t i = gb; i < ge; ++i) {
        if (used[i - begin]) continue;
        int bound_args = 0;
        for (uint16_t r : body.atoms[i].regs) {
          if (r >= num_slots || bound[r]) ++bound_args;
        }
        // An atom that matches nothing has size 0: it runs first.
        const rel::Relation* relation = relations[i - begin];
        const size_t size = relation != nullptr ? relation->size() : 0;
        if (best == ge || bound_args > best_bound ||
            (bound_args == best_bound && size < best_size)) {
          best = i;
          best_bound = bound_args;
          best_size = size;
        }
      }
      used[best - begin] = true;
      for (uint16_t r : body.atoms[best].regs) {
        if (r < num_slots) bound[r] = true;
      }
      order.push_back(best);
    }
  }

  // A slot is unbound, loaded by the level being lowered, or bound by an
  // earlier level (or preloaded).
  enum : uint8_t { kUnbound, kLoadedHere, kBoundBefore };
  std::vector<uint8_t> state(num_slots, kUnbound);
  for (uint16_t s = 0; s < body.num_preloaded; ++s) state[s] = kBoundBefore;
  auto is_bound = [&](uint16_t r) {
    return r >= num_slots || state[r] != kUnbound;
  };
  // Attaches every check and negated atom whose operands are all bound
  // by now; it then costs exactly one test per candidate row. A negated
  // atom over an absent relation holds trivially: no op at all.
  std::vector<bool> attached(body.checks.size(), false);
  std::vector<bool> anti_attached(body.negated.size(), false);
  auto attach_checks = [&]() {
    for (size_t ci = 0; ci < body.checks.size(); ++ci) {
      const Body::Check& c = body.checks[ci];
      if (attached[ci] || !is_bound(c.lhs) || !is_bound(c.rhs)) continue;
      attached[ci] = true;
      program.ops.push_back(
          {c.is_equality ? Op::kCmpEq : Op::kCmpNe, c.lhs, c.rhs});
    }
    for (size_t ni = 0; ni < body.negated.size(); ++ni) {
      const std::vector<uint16_t>& regs = body.negated[ni].regs;
      if (anti_attached[ni] ||
          !std::all_of(regs.begin(), regs.end(), is_bound)) {
        continue;
      }
      anti_attached[ni] = true;
      Level anti;
      anti.relation = relation_of(body.negated[ni]);
      if (anti.relation == nullptr) continue;
      SWS_CHECK_LE(regs.size(), 64u);
      anti.index = anti.relation->GetIndex(
          regs.size() == 64 ? ~uint64_t{0} : (uint64_t{1} << regs.size()) - 1);
      anti.keys_begin = static_cast<uint32_t>(program.keys.size());
      for (uint32_t col = 0; col < regs.size(); ++col) {
        program.keys.push_back({col, regs[col]});
      }
      anti.keys_end = static_cast<uint32_t>(program.keys.size());
      program.ops.push_back({Op::kAntiProbe, 0,
                             static_cast<uint32_t>(program.anti.size())});
      program.anti.push_back(std::move(anti));
    }
  };
  attach_checks();  // the prologue: checks over preloaded registers only
  program.prologue_end = static_cast<uint32_t>(program.ops.size());

  // One Level per atom, in join order.
  for (uint32_t i : order) {
    const Body::Atom& atom = body.atoms[i];
    const rel::Relation* relation = relations[i - begin];
    if (relation == nullptr) {  // no facts: the whole body matches nothing
      program.never_matches = true;
      return program;
    }
    Level level;
    level.relation = relation;
    level.ops_begin = static_cast<uint32_t>(program.ops.size());
    level.keys_begin = static_cast<uint32_t>(program.keys.size());
    // A small relation is scanned: its constant and bound columns become
    // per-row checks, and no index is built for it.
    const bool probes = relation->size() > kScanRows;
    uint64_t mask = 0;
    rel::Tuple key_template;  // parallel to the masked columns, ascending
    for (uint32_t col = 0; col < atom.regs.size(); ++col) {
      const uint16_t r = atom.regs[col];
      if (r < num_slots && state[r] == kUnbound) {  // first occurrence
        state[r] = kLoadedHere;
        program.var_reg[r] = r;
        program.ops.push_back({Op::kLoad, r, col});
      } else if (probes && col < 64 &&
                 (r >= num_slots || state[r] == kBoundBefore)) {
        // A probe key component: a constant, prefilled, or a register
        // bound at an earlier level, rewritten per probe.
        mask |= uint64_t{1} << col;
        if (r < num_slots) {
          program.keys.push_back(
              {static_cast<uint32_t>(key_template.size()), r});
        }
        key_template.push_back(body.reg_init[r]);
      } else {
        // Scanned, repeated within this atom (its register is written by
        // an earlier kLoad of the same level) or beyond indexable columns.
        program.ops.push_back({Op::kCheckCol, r, col});
      }
    }
    if (mask != 0) level.index = relation->GetIndex(mask);
    level.keys_end = static_cast<uint32_t>(program.keys.size());
    attach_checks();
    for (uint16_t r : atom.regs) {
      if (r < num_slots) state[r] = kBoundBefore;
    }
    level.ops_end = static_cast<uint32_t>(program.ops.size());
    program.key_templates.push_back(std::move(key_template));
    program.levels.push_back(std::move(level));
  }
  program.reg_init = body.reg_init;
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
      SWS_CHECK(static_cast<size_t>(term.var()) < program.var_reg.size() &&
                program.var_reg[term.var()] >= 0)
          << "unsafe head variable " << term.ToString();
      part.reg = program.var_reg[term.var()];
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
  // transposes the distinct rows (no per-match ordered insertion). The
  // set starts at 8 slots and doubles to keep its load under 3/4, so an
  // evaluation with a few answers allocates a few words.
  const size_t arity = head.size();

  // Grouped-emission detection: when head parts [0, p) are variables
  // kLoad-ed from columns [0, p), in order, at an outermost *scan*
  // level, the scan walks its relation in lexicographic row order (its
  // per-row checks only skip rows), so (a) every match sharing a head
  // prefix arrives consecutively and (b) prefix groups arrive in
  // ascending order. Deduplication then needs only a per-group table
  // over the head suffix (epoch-tagged, so group changes never clear
  // it), and the output assembles already sorted — FromRowMajor's
  // linear sortedness check skips the final sort entirely.
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
  std::vector<uint64_t> gslots(8, 0);  // a power of two
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
