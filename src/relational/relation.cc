#include "relational/relation.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/cancellation.h"
#include "util/common.h"

namespace sws::rel {

/// The shared column storage behind one or more handles. `refs` is an
/// intrusive count rather than a shared_ptr because the in-place write
/// path needs an *acquire* read of it: observing refs == 1 must order
/// every other handle's earlier reads (and index builds) before this
/// handle's writes, and shared_ptr::use_count() is a relaxed load.
struct Relation::Storage {
  explicit Storage(size_t values) : arena(values) {}

  std::atomic<uint32_t> refs{1};
  std::mutex index_mu;
  /// One entry per distinct mask built (linear scan: a handful at most).
  std::vector<std::shared_ptr<const Index>> indexes;
  std::vector<Value> arena;
};

namespace {

/// Three-way lexicographic compare of row ra of a against row rb of b.
std::strong_ordering CompareRows(const Relation& a, size_t ra,
                                 const Relation& b, size_t rb) {
  for (size_t c = 0; c < a.arity(); ++c) {
    auto cmp = a.At(ra, c) <=> b.At(rb, c);
    if (cmp != std::strong_ordering::equal) return cmp;
  }
  return std::strong_ordering::equal;
}

}  // namespace

Relation::Relation(size_t arity, std::vector<Tuple> tuples)
    : Relation(FromSorted(arity, std::move(tuples))) {}

Relation::Relation(const Relation& other) noexcept
    : arity_(other.arity_),
      rows_(other.rows_),
      capacity_(other.capacity_),
      data_(other.data_),
      storage_(other.storage_) {
  if (storage_ != nullptr) {
    storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

Relation& Relation::operator=(const Relation& other) noexcept {
  if (this != &other) {
    if (other.storage_ != nullptr) {
      other.storage_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Release();
    arity_ = other.arity_;
    rows_ = other.rows_;
    capacity_ = other.capacity_;
    data_ = other.data_;
    storage_ = other.storage_;
    ++generation_;
  }
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      rows_(other.rows_),
      capacity_(other.capacity_),
      data_(other.data_),
      storage_(other.storage_) {
  other.rows_ = 0;
  other.capacity_ = 0;
  other.data_ = nullptr;
  other.storage_ = nullptr;
  ++other.generation_;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    Release();
    arity_ = other.arity_;
    rows_ = other.rows_;
    capacity_ = other.capacity_;
    data_ = other.data_;
    storage_ = other.storage_;
    other.rows_ = 0;
    other.capacity_ = 0;
    other.data_ = nullptr;
    other.storage_ = nullptr;
    ++generation_;
    ++other.generation_;
  }
  return *this;
}

Relation::~Relation() { Release(); }

void Relation::Release() {
  if (storage_ != nullptr &&
      storage_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete storage_;
  }
  storage_ = nullptr;
}

Value* Relation::Writable(size_t min_rows) {
  const bool unshared =
      storage_ != nullptr &&
      storage_->refs.load(std::memory_order_acquire) == 1;
  if (unshared) {
    storage_->indexes.clear();  // sole owner: no lock, no reader
    if (min_rows <= capacity_) return storage_->arena.data();
  } else if (min_rows == 0 && storage_ == nullptr) {
    return nullptr;
  }
  // Grow unshared storage geometrically; clone shared storage at its
  // stride. Bulk builds into an empty handle get exactly their rows.
  const size_t cap = std::max(
      {min_rows, unshared ? 2 * capacity_ : capacity_, size_t{8}});
  auto* fresh = new Storage(arity_ * cap);
  for (size_t c = 0; c < arity_ && rows_ != 0; ++c) {
    std::memcpy(fresh->arena.data() + c * cap, data_ + c * capacity_,
                rows_ * sizeof(Value));
  }
  Release();
  storage_ = fresh;
  capacity_ = cap;
  data_ = fresh->arena.data();
  return fresh->arena.data();
}

std::strong_ordering Relation::CompareRow(size_t r, const Tuple& t) const {
  for (size_t c = 0; c < arity_; ++c) {
    auto cmp = At(r, c) <=> t[c];
    if (cmp != std::strong_ordering::equal) return cmp;
  }
  return std::strong_ordering::equal;
}

size_t Relation::LowerBound(const Tuple& t) const {
  size_t lo = 0, hi = rows_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareRow(mid, t) == std::strong_ordering::less) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void Relation::AppendRow(const Value* vals) {
  Value* arena = storage_->arena.data();
  for (size_t c = 0; c < arity_; ++c) {
    arena[c * capacity_ + rows_] = vals[c];
  }
  ++rows_;
}

bool Relation::Insert(Tuple t) {
  SWS_CHECK_EQ(t.size(), arity_)
      << "arity mismatch inserting " << TupleToString(t);
  const size_t pos = LowerBound(t);
  if (pos < rows_ && CompareRow(pos, t) == std::strong_ordering::equal) {
    return false;
  }
  Value* arena = Writable(rows_ + 1);
  for (size_t c = 0; c < arity_; ++c) {
    Value* col = arena + c * capacity_;
    if (const size_t tail = rows_ - pos; tail != 0) {
      std::memmove(col + pos + 1, col + pos, tail * sizeof(Value));
    }
    col[pos] = t[c];
  }
  ++rows_;
  ++generation_;
  return true;
}

bool Relation::Erase(const Tuple& t) {
  const size_t pos = LowerBound(t);
  if (pos == rows_ || CompareRow(pos, t) != std::strong_ordering::equal) {
    return false;
  }
  Value* arena = Writable(rows_);
  for (size_t c = 0; c < arity_; ++c) {
    Value* col = arena + c * capacity_;
    if (const size_t tail = rows_ - pos - 1; tail != 0) {
      std::memmove(col + pos, col + pos + 1, tail * sizeof(Value));
    }
  }
  --rows_;
  ++generation_;
  return true;
}

bool Relation::Contains(const Tuple& t) const {
  // Small relations: linear equality scan over the column arena. Packed
  // values are canonical, so equality is a one-word bit compare — unlike
  // the binary search, whose three-way CompareRow falls back to interner
  // ordering lookups for strings and big ints. The FO interpreter probes
  // tiny runtime relations (peer state/input) millions of times per run.
  if (rows_ <= 8) {
    for (size_t r = 0; r < rows_; ++r) {
      size_t c = 0;
      while (c < arity_ && At(r, c) == t[c]) ++c;
      if (c == arity_) return true;
    }
    return false;
  }
  const size_t pos = LowerBound(t);
  return pos < rows_ && CompareRow(pos, t) == std::strong_ordering::equal;
}

void Relation::Clear() {
  Release();
  rows_ = 0;
  capacity_ = 0;
  data_ = nullptr;
  ++generation_;
}

Relation Relation::FromSorted(size_t arity, std::vector<Tuple> sorted) {
  for (const Tuple& t : sorted) SWS_CHECK_EQ(t.size(), arity);
  // The columnar transpose requires genuinely sorted, deduplicated input;
  // tolerate anything (callers outside the set algebra pass arbitrary
  // tuple vectors) by normalizing off the fast path.
  if (!std::is_sorted(sorted.begin(), sorted.end())) {
    std::sort(sorted.begin(), sorted.end());
  }
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  Relation r(arity);
  Value* arena = r.Writable(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    for (size_t c = 0; c < arity; ++c) {
      arena[c * r.capacity_ + i] = sorted[i][c];
    }
  }
  r.rows_ = sorted.size();
  return r;
}

Relation Relation::FromRowMajor(size_t arity, const std::vector<Value>& rows) {
  SWS_CHECK_GT(arity, 0u);
  SWS_CHECK_EQ(rows.size() % arity, 0u);
  const size_t n = rows.size() / arity;
  SWS_CHECK_LE(n, size_t{UINT32_MAX});

  // Already-sorted distinct input (the grouped join emitter in
  // logic/cq.cc produces rows in final order): one linear verification
  // pass replaces the sort. On unsorted input the scan exits at the
  // first inversion, so the speculative check stays cheap.
  {
    bool sorted_distinct = true;
    for (size_t i = 1; i < n && sorted_distinct; ++i) {
      const Value* a = rows.data() + (i - 1) * arity;
      const Value* b = rows.data() + i * arity;
      std::strong_ordering cmp = std::strong_ordering::equal;
      for (size_t c = 0; c < arity && cmp == 0; ++c) cmp = a[c] <=> b[c];
      sorted_distinct = cmp < 0;
    }
    if (sorted_distinct) {
      Relation r(arity);
      Value* arena = r.Writable(n);
      for (size_t i = 0; i < n; ++i) {
        const Value* src = rows.data() + i * arity;
        for (size_t c = 0; c < arity; ++c) arena[c * r.capacity_ + i] = src[c];
      }
      r.rows_ = n;
      return r;
    }
  }

  // Fast path: when every value carries an inline order key (inline
  // ints / inline nulls — the overwhelming case for join outputs), row
  // order is plain unsigned comparison of transformed words. Sorting
  // contiguous (key..., row) structs beats the generic permutation sort
  // by avoiding both value decoding and indirection per compare.
  bool inline_keys = true;
  for (const Value& v : rows) {
    if (!v.HasInlineOrderKey()) {
      inline_keys = false;
      break;
    }
  }
  if (inline_keys && arity <= 2 && n > 1) {
    // The keys are invertible (Value::FromInlineOrderKey), so the sort
    // carries no row ids: bare u64s / u64 pairs sort with trivial
    // compares and swaps, and the rows are reconstructed from the keys.
    Relation r(arity);
    if (arity == 1) {
      std::vector<uint64_t> keyed(n);
      for (size_t i = 0; i < n; ++i) keyed[i] = rows[i].InlineOrderKey();
      std::sort(keyed.begin(), keyed.end());
      keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());
      Value* arena = r.Writable(keyed.size());
      for (size_t i = 0; i < keyed.size(); ++i) {
        arena[i] = Value::FromInlineOrderKey(keyed[i]);
      }
      r.rows_ = keyed.size();
    } else {
      std::vector<std::pair<uint64_t, uint64_t>> keyed(n);
      for (size_t i = 0; i < n; ++i) {
        keyed[i] = {rows[i * 2].InlineOrderKey(),
                    rows[i * 2 + 1].InlineOrderKey()};
      }
      std::sort(keyed.begin(), keyed.end());
      keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());
      Value* arena = r.Writable(keyed.size());
      for (size_t i = 0; i < keyed.size(); ++i) {
        arena[i] = Value::FromInlineOrderKey(keyed[i].first);
        arena[r.capacity_ + i] = Value::FromInlineOrderKey(keyed[i].second);
      }
      r.rows_ = keyed.size();
    }
    return r;
  }

  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  const Value* data = rows.data();
  auto row_cmp = [data, arity, inline_keys](uint32_t a, uint32_t b) {
    const Value* ra = data + size_t{a} * arity;
    const Value* rb = data + size_t{b} * arity;
    if (inline_keys) {  // arity >= 3, still no decoding per compare
      for (size_t c = 0; c < arity; ++c) {
        const uint64_t ka = ra[c].InlineOrderKey(), kb = rb[c].InlineOrderKey();
        if (ka != kb) return ka < kb;
      }
      return false;
    }
    for (size_t c = 0; c < arity; ++c) {
      auto cmp = ra[c] <=> rb[c];
      if (cmp != std::strong_ordering::equal) return cmp < 0;
    }
    return false;
  };
  std::sort(order.begin(), order.end(), row_cmp);
  auto row_eq = [&](uint32_t a, uint32_t b) {
    return std::memcmp(rows.data() + size_t{a} * arity,
                       rows.data() + size_t{b} * arity,
                       arity * sizeof(Value)) == 0;
  };
  order.erase(std::unique(order.begin(), order.end(), row_eq), order.end());
  Relation r(arity);
  Value* arena = r.Writable(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const Value* src = rows.data() + size_t{order[i]} * arity;
    for (size_t c = 0; c < arity; ++c) {
      arena[c * r.capacity_ + i] = src[c];
    }
  }
  r.rows_ = order.size();
  return r;
}

void Relation::MergeFrom(Relation&& other) {
  SWS_CHECK_EQ(arity_, other.arity_);
  // Mirror the pre-columnar set-splice contract: this ends with the
  // union, other keeps only the duplicates (tuples both sides had).
  Relation merged = Union(other);
  Relation dupes = Intersect(other);
  *this = std::move(merged);
  other = std::move(dupes);
}

Relation Relation::Union(const Relation& other) const {
  SWS_CHECK_EQ(arity_, other.arity_);
  if (other.rows_ == 0) return *this;  // shares storage: no tuple copy
  if (rows_ == 0) return other;
  Relation out(arity_);
  out.Writable(rows_ + other.rows_);
  size_t i = 0, j = 0;
  Tuple scratch;
  scratch.resize(arity_);
  auto copy_row = [&](const Relation& src, size_t row) {
    for (size_t c = 0; c < arity_; ++c) scratch[c] = src.At(row, c);
    out.AppendRow(scratch.data());
  };
  while (i < rows_ && j < other.rows_) {
    const auto cmp = CompareRows(*this, i, other, j);
    if (cmp == std::strong_ordering::less) {
      copy_row(*this, i++);
    } else if (cmp == std::strong_ordering::greater) {
      copy_row(other, j++);
    } else {
      copy_row(*this, i++);
      ++j;
    }
  }
  while (i < rows_) copy_row(*this, i++);
  while (j < other.rows_) copy_row(other, j++);
  return out;
}

Relation Relation::Intersect(const Relation& other) const {
  SWS_CHECK_EQ(arity_, other.arity_);
  Relation out(arity_);
  out.Writable(std::min(rows_, other.rows_));
  size_t i = 0, j = 0;
  Tuple scratch;
  scratch.resize(arity_);
  while (i < rows_ && j < other.rows_) {
    const auto cmp = CompareRows(*this, i, other, j);
    if (cmp == std::strong_ordering::less) {
      ++i;
    } else if (cmp == std::strong_ordering::greater) {
      ++j;
    } else {
      for (size_t c = 0; c < arity_; ++c) scratch[c] = At(i, c);
      out.AppendRow(scratch.data());
      ++i;
      ++j;
    }
  }
  return out;
}

Relation Relation::Difference(const Relation& other) const {
  SWS_CHECK_EQ(arity_, other.arity_);
  Relation out(arity_);
  out.Writable(rows_);
  size_t i = 0, j = 0;
  Tuple scratch;
  scratch.resize(arity_);
  while (i < rows_) {
    if (j == other.rows_) {
      for (size_t c = 0; c < arity_; ++c) scratch[c] = At(i, c);
      out.AppendRow(scratch.data());
      ++i;
      continue;
    }
    const auto cmp = CompareRows(*this, i, other, j);
    if (cmp == std::strong_ordering::less) {
      for (size_t c = 0; c < arity_; ++c) scratch[c] = At(i, c);
      out.AppendRow(scratch.data());
      ++i;
    } else if (cmp == std::strong_ordering::greater) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return out;
}

bool Relation::SubsetOf(const Relation& other) const {
  SWS_CHECK_EQ(arity_, other.arity_);
  size_t i = 0, j = 0;
  while (i < rows_) {
    if (j == other.rows_) return false;
    const auto cmp = CompareRows(*this, i, other, j);
    if (cmp == std::strong_ordering::less) return false;
    if (cmp == std::strong_ordering::greater) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return true;
}

void Relation::CollectValues(std::set<Value>* out) const {
  for (size_t r = 0; r < rows_; ++r) {
    // Cooperative cancellation: active-domain construction over a huge
    // relation must not outlive the run's deadline/fuel budget.
    if (!sws::util::StepTick()) return;
    for (size_t c = 0; c < arity_; ++c) out->insert(At(r, c));
  }
}

size_t Relation::Hash() const {
  size_t h = 1469598103934665603ull ^ arity_;
  for (size_t r = 0; r < rows_; ++r) {
    // Row hash matches TupleHash over the materialized tuple, so memo
    // keys are stable across the columnar refactor.
    size_t th = 1469598103934665603ull;
    for (size_t c = 0; c < arity_; ++c) {
      th = (th ^ At(r, c).Hash()) * 1099511628211ull;
    }
    h = (h ^ th) * 1099511628211ull;
  }
  return h;
}

std::shared_ptr<const Relation::Index> Relation::GetIndex(
    uint64_t mask) const {
  auto build = [&] {
    SWS_CHECK_LE(rows_, size_t{UINT32_MAX}) << "row ids are 32-bit";
    auto index = std::make_shared<Index>();
    index->mask = mask;
    for (size_t c = 0; c < arity_ && c < 64; ++c) {
      if ((mask >> c) & 1) index->cols.push_back(c);
    }
    Tuple key;
    for (size_t r = 0; r < rows_; ++r) {
      key.clear();
      for (size_t c : index->cols) key.push_back(At(r, c));
      index->buckets[key].push_back(static_cast<uint32_t>(r));
    }
    return index;
  };
  if (storage_ == nullptr) return build();  // empty: nothing to share
  std::lock_guard<std::mutex> lock(storage_->index_mu);
  for (const auto& index : storage_->indexes) {
    if (index->mask == mask) return index;
  }
  storage_->indexes.push_back(build());
  return storage_->indexes.back();
}

bool operator==(const Relation& a, const Relation& b) {
  if (a.arity_ != b.arity_ || a.rows_ != b.rows_) return false;
  if (a.storage_ == b.storage_) return true;
  for (size_t c = 0; c < a.arity_; ++c) {
    // Values are canonical packed words, so column equality is memcmp.
    if (a.rows_ != 0 &&
        std::memcmp(a.ColumnData(c), b.ColumnData(c),
                    a.rows_ * sizeof(Value)) != 0) {
      return false;
    }
  }
  return true;
}

std::string Relation::ToString() const {
  std::ostringstream out;
  out << "{";
  for (size_t r = 0; r < rows_; ++r) {
    if (r != 0) out << ", ";
    out << TupleToString(Row(r));
  }
  out << "}";
  return out.str();
}

}  // namespace sws::rel
