#ifndef SWS_LOGIC_BYTECODE_H_
#define SWS_LOGIC_BYTECODE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "logic/term.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "util/cancellation.h"

namespace sws::logic::bytecode {

/// Register-bytecode join execution (the PR 7 tentpole, stage 3).
///
/// A prepared Body is lowered onto a database into a JoinProgram: a flat
/// register machine whose state is a vector of packed 8-byte rel::Value
/// words ("registers") — one per variable slot, then the body's
/// constants, preloaded. One Level per atom either scans its
/// relation's rows or, when the relation holds more than kScanRows
/// rows, probes a bound-column-mask hash index
/// (rel::Relation::GetIndex), and each candidate row is vetted by a
/// straight-line span of three-operand ops over registers and columnar
/// loads. No virtual dispatch, no per-probe allocation: the executor is
/// an iterative cursor stack driven by one switch loop, and probe keys
/// reuse per-level buffers whose constant components are prefilled when
/// the program is lowered.
///
/// ISA (see DESIGN.md §12 for the op table):
///   kLoad      regs[a] = row[b]        bind a first-occurrence variable
///   kCheckCol  row[b] == regs[a]?      repeated variable / constant /
///                                      bound column of a scanned level
///                                      or a column ≥ 64
///   kCmpEq     regs[a] == regs[b]?     attached '=' comparison
///   kCmpNe     regs[a] != regs[b]?     attached '≠' comparison
///   kAntiProbe anti[b] misses?         guarded negation ¬R(t̄): probe
///                                      R's index on every column
/// Check ops reject the candidate row on failure. Because Values are
/// canonical packed words, every op but kAntiProbe is a single integer
/// load/compare; kAntiProbe is one hash-index lookup.
struct Op {
  enum Code : uint8_t {
    kLoad = 0, kCheckCol = 1, kCmpEq = 2, kCmpNe = 3, kAntiProbe = 4
  };
  Code code;
  uint16_t a;  // register
  uint32_t b;  // column (kLoad/kCheckCol), second register (kCmp*) or
               // anti-probe (kAntiProbe)
};

/// One variable component of a probe key: key[pos] = regs[reg].
/// Constant components are prefilled in the level's key template.
struct KeySlot {
  uint32_t pos;
  uint16_t reg;
};

/// A level over a relation of at most this many rows scans it and checks
/// its constant and earlier-bound columns row by row (kCheckCol) instead
/// of probing an index: building one costs more than those scans save.
/// Containment's canonical databases hold a few rows per relation, each
/// built fresh. Set at the measured scan versus build-and-probe
/// crossover of a 4-atom chain join (DESIGN.md §8).
inline constexpr size_t kScanRows = 12;

struct Level {
  const rel::Relation* relation = nullptr;
  /// Shared ownership: the index stays alive for the program even if
  /// the relation's storage drops it (a write through the sole handle).
  std::shared_ptr<const rel::Relation::Index> index;  // null: full scan
  uint32_t ops_begin = 0, ops_end = 0;    // span into JoinProgram::ops
  uint32_t keys_begin = 0, keys_end = 0;  // span into JoinProgram::keys
};

/// A join body prepared once, before any database is seen (DESIGN.md
/// §8): variables are numbered densely as *slots*, and slot s lives in
/// register s. Constants get the registers after the slots.
struct Body {
  /// An atom as per-column registers: a slot (< num_slots) that the
  /// column binds or must match, or a constant register.
  struct Atom {
    std::string relation;
    std::vector<uint16_t> regs;
  };
  /// A '=' / '≠' comparison between two registers.
  struct Check {
    uint16_t lhs;
    uint16_t rhs;
    bool is_equality;
  };
  std::vector<Atom> atoms;
  /// Atoms [group_ends[g-1], group_ends[g]) form group g (a connected
  /// component); each group is ordered on its own, and a program lowers
  /// a run of consecutive groups in sequence.
  std::vector<uint32_t> group_ends;
  std::vector<Check> checks;
  std::vector<Atom> negated;  // ¬R(t̄): a kAntiProbe once t̄ is bound
  /// Zeroed slot registers, then the constants.
  std::vector<rel::Value> reg_init;
  uint16_t num_slots = 0;
  /// Slots [0, num_preloaded) are bound by the caller before level 0
  /// (a nested body reading its enclosing body's registers).
  uint16_t num_preloaded = 0;
  bool comparison_failed = false;  // a constant-vs-constant check is false
};

struct JoinProgram {
  std::vector<Level> levels;
  std::vector<Op> ops;        // prologue ops, then all levels' ops
  std::vector<KeySlot> keys;  // all levels' variable key slots
  /// kAntiProbe targets: an index over every column of the negated
  /// atom's relation, with one key slot per column (pos = column).
  std::vector<Level> anti;
  /// ops [0, prologue_end) read only preloaded and constant registers;
  /// they run once, before level 0.
  uint32_t prologue_end = 0;
  /// Initial register file: [0, num_var_regs) zeroed variable registers
  /// (written by kLoad before any read), then the constants. The first
  /// num_preloaded are copied from the caller's registers instead.
  std::vector<rel::Value> reg_init;
  uint16_t num_var_regs = 0;
  uint16_t num_preloaded = 0;
  /// Per-level probe-key buffers with constant components prefilled;
  /// copied once per execution, reused across every probe.
  std::vector<rel::Tuple> key_templates;
  /// Slot -> register, or -1 when the program binds no value to the
  /// slot; resolves head terms.
  std::vector<int> var_reg;
  bool never_matches = false;      // an atom's relation absent/mismatched
  bool comparison_failed = false;  // a const-vs-const comparison is false
};

/// Lowers groups [first_group, last_group) of a prepared body onto the
/// given database: the one routine behind every CQ, UCQ, FO-body and
/// containment evaluation. Each atom's relation is looked up once by
/// name (absent, or present with another arity: the body matches
/// nothing). Within each group, atoms are ordered greedily: the most
/// constant or already-bound arguments first, ties going to the smaller
/// relation instance. Each level then probes a hash index over its
/// bound columns, or scans a relation of at most kScanRows rows and
/// checks those columns per row; each check and negated atom (all of whose
/// variables the body binds) attaches at the first level where its
/// operands are bound, so it costs one test per candidate row; negated
/// atoms over absent relations hold trivially and are dropped.
JoinProgram Lower(const Body& body, const rel::Database& db,
                  size_t first_group, size_t last_group);

/// Runs the program; `sink(regs)` fires once per complete match and may
/// return false to stop enumeration. Returns false iff stopped early —
/// by the sink or by a tripped util::StepGate (cooperative cancellation
/// is checked once per candidate row; StepTick batches the gate admit).
/// An empty program (no levels) has at most one match: the prologue's.
/// A nested program reads its preloaded registers from `preload`.
template <typename Sink>
bool Run(const JoinProgram& p, Sink&& sink,
         const std::vector<rel::Value>* preload = nullptr) {
  if (p.never_matches || p.comparison_failed) return true;
  const size_t depth = p.levels.size();
  std::vector<rel::Value> regs = p.reg_init;
  if (preload != nullptr) {
    std::copy_n(preload->begin(), p.num_preloaded, regs.begin());
  }
  rel::Tuple probe;  // kAntiProbe key
  // Runs ops [begin, end) against row `row` of `rel`; false rejects it.
  auto passes = [&](const rel::Relation* rel, size_t row, uint32_t begin,
                    uint32_t end) {
    for (uint32_t oi = begin; oi != end; ++oi) {
      const Op op = p.ops[oi];
      bool ok = true;
      switch (op.code) {
        case Op::kLoad:
          regs[op.a] = rel->At(row, op.b);
          break;
        case Op::kCheckCol:
          ok = rel->At(row, op.b) == regs[op.a];
          break;
        case Op::kCmpEq:
          ok = regs[op.a] == regs[op.b];
          break;
        case Op::kCmpNe:
          ok = !(regs[op.a] == regs[op.b]);
          break;
        case Op::kAntiProbe: {
          const Level& anti = p.anti[op.b];
          probe.resize(anti.keys_end - anti.keys_begin);
          for (uint32_t k = anti.keys_begin; k != anti.keys_end; ++k) {
            probe[p.keys[k].pos] = regs[p.keys[k].reg];
          }
          ok = anti.index->buckets.find(probe) == anti.index->buckets.end();
          break;
        }
      }
      if (!ok) return false;
    }
    return true;
  };
  if (!passes(nullptr, 0, 0, p.prologue_end)) return true;
  if (depth == 0) return sink(regs);
  std::vector<rel::Tuple> key_bufs = p.key_templates;

  struct Cursor {
    const uint32_t* bucket = nullptr;  // null: positional scan
    size_t pos = 0;
    size_t end = 0;
  };
  std::vector<Cursor> cursors(depth);

  size_t li = 0;
  bool entering = true;
  while (true) {
    const Level& level = p.levels[li];
    Cursor& cur = cursors[li];
    if (entering) {
      entering = false;
      if (level.index != nullptr) {
        rel::Tuple& key = key_bufs[li];
        for (uint32_t k = level.keys_begin; k != level.keys_end; ++k) {
          key[p.keys[k].pos] = regs[p.keys[k].reg];
        }
        auto it = level.index->buckets.find(key);
        if (it == level.index->buckets.end()) {
          cur = Cursor{};
        } else {
          cur.bucket = it->second.data();
          cur.pos = 0;
          cur.end = it->second.size();
        }
      } else {
        cur.bucket = nullptr;
        cur.pos = 0;
        cur.end = level.relation->size();
      }
    }

    // Advance this level's cursor to the next row passing all ops.
    bool found = false;
    while (cur.pos < cur.end) {
      const size_t row = cur.bucket != nullptr ? cur.bucket[cur.pos] : cur.pos;
      ++cur.pos;
      if (!sws::util::StepTick()) return false;
      if (passes(level.relation, row, level.ops_begin, level.ops_end)) {
        found = true;
        break;
      }
    }

    if (!found) {
      if (li == 0) return true;  // exhausted the outermost level: done
      --li;                      // resume the parent cursor where it was
      continue;
    }
    if (li + 1 == depth) {
      if (!sink(regs)) return false;
      // Stay at this level; keep advancing its cursor.
    } else {
      ++li;
      entering = true;
    }
  }
}

/// Accepts or rejects a complete match by its registers.
using MatchFilter = std::function<bool(const std::vector<rel::Value>&)>;

/// True iff the program has a match that `keep`, when set, accepts
/// (stops at the first). Distinguishes "no match" from a cancellation
/// abort by checking the found flag.
bool HasMatch(const JoinProgram& p,
              const std::vector<rel::Value>* preload = nullptr,
              const MatchFilter& keep = {});

/// The emit/dedupe path shared by CQ and compiled FO evaluation: the
/// distinct rows of `head` (variables are slots, read through var_reg;
/// constants as themselves) over every match that `keep`, when set,
/// accepts.
rel::Relation Emit(const JoinProgram& program, const std::vector<Term>& head,
                   const MatchFilter& keep = {});

}  // namespace sws::logic::bytecode

#endif  // SWS_LOGIC_BYTECODE_H_
