#ifndef SWS_RELATIONAL_RELATION_H_
#define SWS_RELATIONAL_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/value.h"

namespace sws::rel {

/// A relation instance: a set of tuples of a fixed arity.
///
/// Storage (the PR 7 columnar refactor): tuples live in one arena of
/// packed 8-byte Values laid out column-major — column c occupies
/// [c*capacity, c*capacity + rows) — with rows kept in lexicographic
/// tuple order. Iteration order is therefore still deterministic and
/// identical to the previous std::set representation (important because
/// SWS runs must be deterministic functions of (D, I), and because
/// ToString and the persisted encoding walk tuples in order). Point
/// mutation is a binary search plus a per-column memmove — O(arity·n),
/// same contiguous-shift cost class as a B-tree leaf, and in exchange
/// scans and joins touch dense cache lines of POD ints instead of
/// chasing set nodes.
///
/// Sharing: a Relation is a value-semantics handle over reference-
/// counted column storage. Copying a handle shares the storage (one
/// atomic increment, no tuple copy); a write through a handle whose
/// storage is shared first clones it (copy-on-write), so no handle ever
/// observes another's writes. Shared storage is therefore immutable,
/// which is what lets it own the index cache: GetIndex builds one hash
/// index per bound-column mask per storage version, and every handle
/// sharing that storage — the seed database, each session's copy, each
/// run's environment, each snapshot image — probes the same index. A
/// write to unshared storage happens in place and drops its indexes.
///
/// Thread-safety (audited for src/runtime): concurrent const readers are
/// safe, including concurrent GetIndex calls (the lazy build is guarded
/// by the storage's mutex) and concurrent copies of one handle. A write
/// must not race with reads of the same handle, as before, but may race
/// with reads of (and writes to) other handles sharing its storage.
class Relation {
 public:
  /// An empty relation of the given arity (allocates nothing).
  explicit Relation(size_t arity = 0) : arity_(arity) {}

  /// A relation holding the given tuples; all must share one arity.
  Relation(size_t arity, std::vector<Tuple> tuples);

  /// Copies share the storage and with it the index cache. Assignment
  /// bumps the destination's generation so callers caching derived state
  /// per generation notice the change.
  Relation(const Relation& other) noexcept;
  Relation& operator=(const Relation& other) noexcept;
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;
  ~Relation();

  size_t arity() const { return arity_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Inserts a tuple. Aborts on arity mismatch. Returns true if new.
  bool Insert(Tuple t);
  /// Removes a tuple if present; returns true if it was present.
  bool Erase(const Tuple& t);
  bool Contains(const Tuple& t) const;
  void Clear();

  /// The value at (row, column); rows are in lexicographic tuple order.
  /// The hot accessor for the bytecode executor — one indexed load.
  Value At(size_t row, size_t col) const {
    return data_[col * capacity_ + row];
  }
  /// The contiguous column vector for column c ([c][0..size())); valid
  /// until the next write through this handle. Handles sharing storage
  /// return the same pointer.
  const Value* ColumnData(size_t col) const {
    return data_ + col * capacity_;
  }
  /// Materializes row r as a boxed tuple.
  Tuple Row(size_t r) const {
    Tuple t;
    t.reserve(arity_);
    for (size_t c = 0; c < arity_; ++c) t.push_back(At(r, c));
    return t;
  }

  /// Input iterator over tuples in lexicographic order. Dereferencing
  /// materializes the row BY VALUE (the columnar arena has no resident
  /// Tuple to reference); `for (const Tuple& t : rel)` still works via
  /// temporary lifetime extension.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Tuple;
    using difference_type = ptrdiff_t;
    using pointer = void;
    using reference = const Tuple&;

    const_iterator() : rel_(nullptr), row_(0) {}
    const_iterator(const Relation* rel, size_t row) : rel_(rel), row_(row) {}

    /// Returns a reference to an internal row buffer, refilled lazily
    /// per row and reused across increments — iteration allocates once,
    /// not once per row. Standard input-iterator caveat: the reference
    /// is invalidated by ++ and by destroying the iterator; copy the
    /// Tuple to keep it.
    const Tuple& operator*() const {
      if (!cached_) {
        current_.assign(rel_->arity_, Value());
        for (size_t c = 0; c < rel_->arity_; ++c) {
          current_[c] = rel_->At(row_, c);
        }
        cached_ = true;
      }
      return current_;
    }
    const_iterator& operator++() {
      ++row_;
      cached_ = false;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++row_;
      cached_ = false;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.row_ == b.row_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.row_ != b.row_;
    }

   private:
    const Relation* rel_;
    size_t row_;
    mutable Tuple current_;
    mutable bool cached_ = false;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, rows_); }

  /// Set operations; operands must share the arity. All three run in
  /// O(|this| + |other|) via sorted column-arena merges.
  Relation Union(const Relation& other) const;
  Relation Intersect(const Relation& other) const;
  Relation Difference(const Relation& other) const;
  bool SubsetOf(const Relation& other) const;

  /// Moves all of `other`'s tuples into this relation. `other` is left
  /// holding the duplicates (tuples already present here), matching the
  /// pre-columnar set-splice semantics.
  void MergeFrom(Relation&& other);

  /// Bulk construction from a sorted, deduplicated tuple vector in O(n)
  /// (straight transposition into the arena) — the fast path behind the
  /// set algebra and serde decode. Unsorted or duplicated input is
  /// tolerated (sorted + deduplicated first) but forfeits the fast path.
  static Relation FromSorted(size_t arity, std::vector<Tuple> sorted);

  /// Bulk construction from rows packed row-major in one flat vector
  /// (`rows.size()` must be a multiple of `arity`, which must be > 0).
  /// Input need not be sorted or unique: rows are permutation-sorted and
  /// deduplicated, then transposed into the arena — no per-tuple
  /// allocation. The emit path of the bytecode join executor.
  static Relation FromRowMajor(size_t arity, const std::vector<Value>& rows);

  /// All values occurring in any tuple (contribution to the active domain).
  void CollectValues(std::set<Value>* out) const;

  /// Deterministic FNV-style hash of (arity, tuple set); rows are
  /// ordered, so equal relations hash equal. Keys the execution-tree
  /// memo cache (sws/execution.cc).
  size_t Hash() const;

  /// Bumped on every write through this handle (and on assignment to
  /// it); lets callers cache derived state — e.g. Database's active
  /// domain — per version. Per handle: writing a copy leaves the
  /// original's generation alone.
  uint64_t generation() const { return generation_; }

  /// A hash index over the columns set in `mask` (bit i ⇒ column i;
  /// columns ≥ 64 cannot be indexed). The probe key is the tuple of
  /// values at those columns, ascending. Built lazily on first request
  /// and cached in the storage, so every handle sharing this version
  /// gets the same index; never evicted — a storage holds at most one
  /// index per distinct mask its callers probe. Bucket vectors list row
  /// ids in row (set) order (deterministic). The row ids stay valid only
  /// while this handle is not written, assigned over, or destroyed.
  struct Index {
    uint64_t mask = 0;
    std::vector<size_t> cols;  // the set bits of mask, ascending
    std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash> buckets;
  };
  std::shared_ptr<const Index> GetIndex(uint64_t mask) const;

  std::string ToString() const;

  friend bool operator==(const Relation& a, const Relation& b);

 private:
  struct Storage;

  /// Makes this handle the sole owner of storage with room for
  /// `min_rows` rows per column and returns the writable arena: shared
  /// storage is cloned (the clone has no indexes), unshared storage is
  /// written in place (its indexes are dropped) and grows geometrically.
  /// Returns null only for min_rows == 0 on a storage-less handle.
  Value* Writable(size_t min_rows);
  /// Drops this handle's share of its storage (freeing it if last).
  void Release();

  /// Three-way compare of resident row r against a boxed tuple.
  std::strong_ordering CompareRow(size_t r, const Tuple& t) const;
  /// First row not lexicographically less than t (binary search).
  size_t LowerBound(const Tuple& t) const;
  /// Appends a row of `arity_` values; caller made the storage writable
  /// with spare capacity and guarantees the row sorts strictly after
  /// every resident row.
  void AppendRow(const Value* vals);

  size_t arity_;
  size_t rows_ = 0;
  /// Rows per column slot of the storage's arena; data_ caches the
  /// arena's base so At/ColumnData stay one indexed load.
  size_t capacity_ = 0;
  const Value* data_ = nullptr;
  Storage* storage_ = nullptr;  // null: empty, nothing allocated
  uint64_t generation_ = 0;
};

/// Approximate heap footprint of a relation's tuple storage (cache-byte
/// accounting for the execution-tree memo). Columnar arena: one packed
/// word per value, plus a small per-row constant standing in for the
/// arena slack and bookkeeping.
inline size_t ApproxBytes(const Relation& r) {
  return sizeof(Relation) + r.size() * (r.arity() * sizeof(Value) + 16);
}

}  // namespace sws::rel

#endif  // SWS_RELATIONAL_RELATION_H_
