#include "sws/execution.h"

#include <list>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/cancellation.h"
#include "util/common.h"

namespace sws::core {

std::string ExecNode::ToString(const Sws& sws, int indent) const {
  std::ostringstream out;
  for (int i = 0; i < indent; ++i) out << "  ";
  out << sws.StateName(state) << " @" << timestamp
      << " Msg=" << msg.ToString() << " Act=" << act.ToString() << "\n";
  for (const auto& c : children) out << c->ToString(sws, indent + 1);
  return out.str();
}

namespace {

// The recursive engine. Timestamp convention (matching Example 2.2 of the
// paper): the root is at timestamp 0; a node at timestamp j had its
// message register computed from input I_j, reads I_j in a final-state
// synthesis, and spawns children at timestamp j+1 whose registers are
// computed from I_{j+1}.
//
// One environment database is shared across the run: "In" and "Msg" are
// overwritten per node *before* any query of that node is evaluated and
// never read after recursion into children, so the sharing is safe. The
// environment starts as a copy of D, which shares D's relation storage
// and so D's cached indexes: the run builds an index only for a
// (relation version, mask) nobody has probed before, and what it builds
// stays with that version for later runs.
// Internal-node synthesis runs against a separate tiny environment
// holding only the successors' action registers.
class Engine {
 public:
  Engine(const Sws& sws, const rel::Database& db,
         const rel::InputSequence& input, const RunOptions& options)
      : sws_(sws), input_(input), options_(options), env_(db) {}

  RunResult Execute(const rel::Relation& initial_msg) {
    RunResult result;
    // Governor selection: the caller's (runtime-threaded, cancellable
    // from other threads), else a run-local one iff some governed limit
    // is set, else none — ungoverned runs pay only null checks.
    ExecutionGovernor* gov = options_.governor;
    std::optional<ExecutionGovernor> local_gov;
    if (gov == nullptr &&
        (options_.deadline != std::chrono::steady_clock::time_point::max() ||
         options_.max_eval_steps != 0 || options_.max_tracked_bytes != 0)) {
      ExecutionGovernor::Limits limits;
      limits.deadline = options_.deadline;
      limits.max_eval_steps = options_.max_eval_steps;
      limits.max_tracked_bytes = options_.max_tracked_bytes;
      local_gov.emplace(limits);
      gov = &*local_gov;
    }

    bool ok;
    auto root = std::make_unique<ExecNode>();
    {
      // The gate stays installed until the memo is released below, so
      // the governor's tracked-byte gauge returns to zero.
      util::ScopedStepGate scoped(gov);
      if (options_.fault_injector &&
          options_.fault_injector->OnRunAttempt(gov)) {
        result.status = Status::Error(RunError::kInjectedFault,
                                      "fault injector aborted the run");
        result.output = rel::Relation(sws_.rout_arity());
        return result;
      }
      ok = Eval(sws_.start_state(), 0, initial_msg, /*is_root=*/true,
                root.get());
      // Capture the typed status before the scope flushes its partial
      // tick batch: the flush may trip the fuel budget retroactively,
      // which must not fail a run whose work already completed.
      if (gov != nullptr && gov->cancelled()) {
        ok = false;
        result.status = gov->status();
      } else if (!ok) {
        result.status = Status::Error(RunError::kBudgetExceeded,
                                      "run exceeded RunOptions::max_nodes");
      }
      result.memo_entries = memo_.size();
      result.memo_evictions = memo_evictions_;
      result.memo_bytes_peak = memo_bytes_peak_;
      ReleaseMemo();
    }
    result.output = ok ? root->act : rel::Relation(sws_.rout_arity());
    result.num_nodes = num_nodes_;
    result.logical_nodes = logical_nodes_;
    result.max_timestamp = max_consumed_;
    result.memo_hits = memo_hits_;
    result.memo_misses = memo_misses_;
    if (options_.keep_tree) result.tree = std::move(root);
    return result;
  }

 private:
  // Subtree cache: (state, timestamp, Msg) -> entry. Per-run only — a
  // new (D, I) pair gets a fresh Engine, so no cross-run invalidation is
  // needed. Declared ahead of the evaluation methods that name them in
  // their signatures.
  struct MemoKey {
    int state;
    size_t timestamp;
    rel::Relation msg;

    friend bool operator==(const MemoKey& a, const MemoKey& b) {
      return a.state == b.state && a.timestamp == b.timestamp &&
             a.msg == b.msg;
    }
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& k) const {
      size_t h = std::hash<int>()(k.state);
      h = h * 1099511628211ull ^ std::hash<size_t>()(k.timestamp);
      return h * 1099511628211ull ^ k.msg.Hash();
    }
  };
  struct MemoEntry {
    rel::Relation act;
    size_t logical_nodes = 1;  // subtree size replayed by a hit
    size_t bytes = 0;          // accounted against max_memo_bytes
    std::list<const MemoKey*>::iterator lru_it;
  };
  // Per-entry map/list bookkeeping beyond the key/act payload.
  static constexpr size_t kMemoEntryOverhead = 128;

  // I_j, with I_0 and I_{j>n} empty.
  rel::Relation MessageAt(size_t j) const {
    if (j == 0 || j > input_.size()) return rel::Relation(sws_.rin_arity());
    return input_.Message(j);
  }

  static size_t SatAdd(size_t a, size_t b) {
    const size_t r = a + b;
    return r < a ? ~size_t{0} : r;
  }

  // Fills node->act; returns false if the node budget was exhausted or
  // the governor cancelled the run (the caller distinguishes via
  // governor->cancelled()).
  //
  // Memoization: given fixed (D, I), the engine computes node->act as a
  // deterministic function of (state, j, msg) — conditions (1)-(4) below
  // consult nothing else — so identical labels yield identical subtrees
  // and the cache replays them at the cost of a single node. The root is
  // excluded (RunSeeded's seed makes it a different function), and
  // entries are only inserted after a subtree completes, so a budget
  // abort never caches a partial result. max_consumed_ needs no
  // replaying on a hit: it is a global max, and the first (cached)
  // evaluation of the subtree already applied its contributions.
  //
  // Budget: max_nodes bounds logical_nodes_ — the size the un-memoized
  // tree would have — so a memo hit charges its whole replayed subtree
  // and the budget cannot be bypassed through the cache. num_nodes_
  // still counts evaluated nodes (hits count as one), preserving
  // num_nodes == 1 + memo_hits + memo_misses.
  bool Eval(int state, size_t j, rel::Relation msg, bool is_root,
            ExecNode* node) {
    // One governance tick per tree node (a node is a unit of evaluation
    // work even before its queries run); sticky once tripped, so a
    // cancelled run unwinds in O(depth) node visits.
    if (!util::StepTick()) return false;
    ++num_nodes_;
    logical_nodes_ = SatAdd(logical_nodes_, 1);
    if (logical_nodes_ > options_.max_nodes) return false;
    node->state = state;
    node->timestamp = j;
    // Keep a copy of the register only if the caller retains the tree —
    // the evaluation itself reads the local `msg` (one copy per node at
    // most, where the seed version always copied).
    if (options_.keep_tree) node->msg = msg;
    node->act = rel::Relation(sws_.rout_arity());
    if (!memoize_ || is_root) {
      return EvalInner(state, j, std::move(msg), is_root, node);
    }
    MemoKey key{state, j, std::move(msg)};
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++memo_hits_;
      node->act = it->second.act;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // mark recent
      // Charge the replayed subtree (minus this node, already counted).
      logical_nodes_ = SatAdd(logical_nodes_, it->second.logical_nodes - 1);
      return logical_nodes_ <= options_.max_nodes;
    }
    ++memo_misses_;
    const size_t logical_before = logical_nodes_;
    // The key keeps the register alive; evaluate against a reference so
    // insertion below can still move the key into the map.
    if (!EvalInner(state, j, key.msg, is_root, node)) return false;
    MemoEntry entry;
    entry.act = node->act;
    // Subtree size including this node; replayed in full on every hit.
    entry.logical_nodes = SatAdd(logical_nodes_ - logical_before, 1);
    entry.bytes = rel::ApproxBytes(key.msg) + rel::ApproxBytes(entry.act) +
                  kMemoEntryOverhead;
    InsertMemo(std::move(key), std::move(entry));
    return true;
  }

  void InsertMemo(MemoKey key, MemoEntry entry) {
    const size_t bytes = entry.bytes;
    auto [it, inserted] = memo_.emplace(std::move(key), std::move(entry));
    SWS_CHECK(inserted);  // a hit would have returned above
    lru_.push_front(&it->first);
    it->second.lru_it = lru_.begin();
    memo_bytes_ += bytes;
    util::ChargeGateBytes(static_cast<int64_t>(bytes));
    if (memo_bytes_ > memo_bytes_peak_) memo_bytes_peak_ = memo_bytes_;
    // Size-accounted LRU eviction — but never the entry just inserted
    // (its caller may hit it next; an over-cap single entry just means
    // the cache holds one entry).
    while (options_.max_memo_bytes != 0 &&
           memo_bytes_ > options_.max_memo_bytes && memo_.size() > 1) {
      auto victim = memo_.find(*lru_.back());
      SWS_CHECK(victim != memo_.end());
      memo_bytes_ -= victim->second.bytes;
      util::ChargeGateBytes(-static_cast<int64_t>(victim->second.bytes));
      lru_.pop_back();
      memo_.erase(victim);
      ++memo_evictions_;
    }
  }

  void ReleaseMemo() {
    if (memo_bytes_ != 0) {
      util::ChargeGateBytes(-static_cast<int64_t>(memo_bytes_));
      memo_bytes_ = 0;
    }
    lru_.clear();
    memo_.clear();
  }

  bool EvalInner(int state, size_t j, rel::Relation msg, bool is_root,
                 ExecNode* node) {
    const size_t n = input_.size();
    // Condition (1): exhausted input, or an empty register at a non-root
    // node. The root (empty register by construction, or an empty seed)
    // proceeds only when I is nonempty — the special case of Section 2.
    if (j > n || (msg.empty() && !is_root)) return true;
    if (is_root && msg.empty() && n == 0) return true;
    if (j >= 1) max_consumed_ = std::max(max_consumed_, j);

    const std::vector<TransitionTarget>& successors = sws_.Successors(state);
    if (successors.empty()) {
      // Condition (3): final state, Act = ψ(D, I_j, Msg).
      env_.Set(kInputRelation, MessageAt(j));
      env_.Set(kMsgRelation, std::move(msg));
      node->act = sws_.Synthesis(state).Evaluate(env_);
      return true;
    }

    // Condition (2): spawn children at timestamp j+1; their registers are
    // computed from I_{j+1}. Compute all child registers before recursing
    // (recursion overwrites "In"/"Msg" in the shared env).
    if (j + 1 <= n) max_consumed_ = std::max(max_consumed_, j + 1);
    env_.Set(kInputRelation, MessageAt(j + 1));
    env_.Set(kMsgRelation, std::move(msg));
    std::vector<rel::Relation> child_msgs;
    child_msgs.reserve(successors.size());
    for (const auto& t : successors) {
      child_msgs.push_back(t.query.Evaluate(env_));
    }
    for (size_t i = 0; i < successors.size(); ++i) {
      node->children.push_back(std::make_unique<ExecNode>());
      if (!Eval(successors[i].state, j + 1, std::move(child_msgs[i]),
                /*is_root=*/false, node->children.back().get())) {
        return false;
      }
    }
    // Condition (4): synthesize from the children's action registers.
    rel::Database synth_env;
    for (size_t i = 0; i < successors.size(); ++i) {
      synth_env.Set(ActRelation(i + 1), node->children[i]->act);
    }
    node->act = sws_.Synthesis(state).Evaluate(synth_env);
    if (!options_.keep_tree) node->children.clear();
    return true;
  }

  const Sws& sws_;
  const rel::InputSequence& input_;
  const RunOptions& options_;
  rel::Database env_;
  size_t num_nodes_ = 0;
  size_t logical_nodes_ = 0;
  size_t max_consumed_ = 0;
  const bool memoize_ = options_.memoize && !options_.keep_tree;
  std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> memo_;
  // LRU order over memo_ keys (front = most recent); key pointers stay
  // valid across rehashes (unordered_map never moves elements).
  std::list<const MemoKey*> lru_;
  size_t memo_bytes_ = 0;
  size_t memo_bytes_peak_ = 0;
  size_t memo_evictions_ = 0;
  size_t memo_hits_ = 0;
  size_t memo_misses_ = 0;
};

}  // namespace

RunResult Run(const Sws& sws, const rel::Database& db,
              const rel::InputSequence& input, const RunOptions& options) {
  return RunSeeded(sws, db, input, rel::Relation(sws.rin_arity()), options);
}

RunResult RunSeeded(const Sws& sws, const rel::Database& db,
                    const rel::InputSequence& input,
                    const rel::Relation& initial_msg,
                    const RunOptions& options) {
  SWS_CHECK_EQ(input.message_arity(), sws.rin_arity())
      << "input message arity mismatch";
  SWS_CHECK_EQ(initial_msg.arity(), sws.rin_arity());
  Engine engine(sws, db, input, options);
  return engine.Execute(initial_msg);
}

}  // namespace sws::core
