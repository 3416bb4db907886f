#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "relational/intern.h"
#include "relational/actions.h"
#include "relational/database.h"
#include "relational/input_sequence.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace sws::rel {
namespace {

TEST(ValueTest, KindsAndEquality) {
  Value i = Value::Int(42);
  Value s = Value::Str("foo");
  Value n = Value::Null(42);
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(s.is_string());
  EXPECT_TRUE(n.is_null());
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_EQ(s.AsString(), "foo");
  EXPECT_EQ(n.null_label(), 42);
  EXPECT_NE(i, n);  // a null is never equal to an int, even same payload
  EXPECT_NE(i, s);
  EXPECT_EQ(i, Value::Int(42));
  EXPECT_EQ(n, Value::Null(42));
  EXPECT_NE(n, Value::Null(43));
}

TEST(ValueTest, OrderingIsKindMajor) {
  EXPECT_LT(Value::Int(99), Value::Str("a"));
  EXPECT_LT(Value::Str("z"), Value::Null(0));
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Str("a"), Value::Str("b"));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Str("x").ToString(), "'x'");
  EXPECT_EQ(Value::Null(3).ToString(), "_N3");
  EXPECT_EQ(TupleToString({Value::Int(1), Value::Str("a")}), "(1, 'a')");
}

TEST(SchemaTest, AttributeLookup) {
  RelationSchema r("R", {"a", "b", "c"});
  EXPECT_EQ(r.arity(), 3u);
  EXPECT_EQ(r.AttributeIndex("b"), 1u);
  EXPECT_FALSE(r.AttributeIndex("z").has_value());
}

TEST(SchemaTest, FindAndContains) {
  Schema s;
  s.Add(RelationSchema("R", {"a"}));
  s.Add(RelationSchema("S", {"a", "b"}));
  EXPECT_TRUE(s.Contains("R"));
  EXPECT_FALSE(s.Contains("T"));
  EXPECT_EQ(s.Find("S")->arity(), 2u);
}

TEST(RelationTest, InsertEraseContains) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(r.Insert({Value::Int(1), Value::Int(2)}));  // duplicate
  EXPECT_TRUE(r.Contains({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Erase({Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(r.Erase({Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(r.empty());
}

TEST(RelationTest, SetOperations) {
  Relation a(1), b(1);
  a.Insert({Value::Int(1)});
  a.Insert({Value::Int(2)});
  b.Insert({Value::Int(2)});
  b.Insert({Value::Int(3)});
  EXPECT_EQ(a.Union(b).size(), 3u);
  EXPECT_EQ(a.Intersect(b).size(), 1u);
  EXPECT_EQ(a.Difference(b).size(), 1u);
  EXPECT_TRUE(a.Intersect(b).Contains({Value::Int(2)}));
  EXPECT_TRUE(a.Intersect(b).SubsetOf(a));
  EXPECT_FALSE(a.SubsetOf(b));
}

TEST(DatabaseTest, SchemaConstructionAndAdom) {
  Schema s;
  s.Add(RelationSchema("R", {"a", "b"}));
  Database db(s);
  EXPECT_TRUE(db.Contains("R"));
  EXPECT_TRUE(db.empty());
  db.GetMutable("R")->Insert({Value::Int(1), Value::Str("x")});
  EXPECT_FALSE(db.empty());
  auto adom = db.ActiveDomain();
  EXPECT_EQ(adom.size(), 2u);
  EXPECT_TRUE(adom.count(Value::Str("x")) > 0);
}

TEST(DatabaseTest, GetOrEmpty) {
  Database db;
  EXPECT_EQ(db.GetOrEmpty("missing", 3).arity(), 3u);
  EXPECT_TRUE(db.GetOrEmpty("missing", 3).empty());
}

TEST(InputSequenceTest, EncodeDecodeRoundTrip) {
  InputSequence in(2);
  Relation m1(2), m2(2);
  m1.Insert({Value::Str("a"), Value::Int(1)});
  m2.Insert({Value::Str("b"), Value::Int(2)});
  m2.Insert({Value::Str("c"), Value::Int(3)});
  in.Append(m1);
  in.Append(m2);
  Relation encoded = in.Encode();
  EXPECT_EQ(encoded.arity(), 3u);
  EXPECT_EQ(encoded.size(), 3u);
  EXPECT_TRUE(encoded.Contains(
      {Value::Int(1), Value::Str("a"), Value::Int(1)}));
  InputSequence decoded = InputSequence::Decode(encoded);
  EXPECT_EQ(decoded, in);
}

TEST(InputSequenceTest, DecodePreservesGaps) {
  Relation encoded(2);
  encoded.Insert({Value::Int(3), Value::Str("x")});
  InputSequence in = InputSequence::Decode(encoded);
  EXPECT_EQ(in.size(), 3u);
  EXPECT_TRUE(in.Message(1).empty());
  EXPECT_TRUE(in.Message(2).empty());
  EXPECT_EQ(in.Message(3).size(), 1u);
}

TEST(InputSequenceTest, SuffixAndOutOfRange) {
  InputSequence in(1);
  for (int j = 1; j <= 3; ++j) {
    Relation m(1);
    m.Insert({Value::Int(j)});
    in.Append(m);
  }
  InputSequence suffix = in.Suffix(2);
  EXPECT_EQ(suffix.size(), 2u);
  EXPECT_TRUE(suffix.Message(1).Contains({Value::Int(2)}));
  EXPECT_TRUE(in.Message(9).empty());  // past the end: empty message
  EXPECT_EQ(in.Suffix(4).size(), 0u);
}

TEST(ActionsTest, ParseClassifiesOps) {
  Relation out(3);
  out.Insert({Value::Str("ins"), Value::Str("R"), Value::Int(1)});
  out.Insert({Value::Str("del"), Value::Str("R"), Value::Int(2)});
  out.Insert({Value::Str("msg"), Value::Str("user"), Value::Int(3)});
  out.Insert({Value::Int(0), Value::Str("R"), Value::Int(4)});  // malformed
  std::vector<Tuple> malformed;
  auto actions = ParseActions(out, &malformed);
  EXPECT_EQ(actions.size(), 3u);
  EXPECT_EQ(malformed.size(), 1u);
}

TEST(ActionsTest, CommitAppliesInsertsThenDeletes) {
  Database db;
  db.Set("R", Relation(1));
  db.GetMutable("R")->Insert({Value::Int(7)});

  Relation out(3);
  out.Insert({Value::Str("ins"), Value::Str("R"), Value::Int(1)});
  out.Insert({Value::Str("ins"), Value::Str("R"), Value::Int(2)});
  out.Insert({Value::Str("del"), Value::Str("R"), Value::Int(7)});
  // Simultaneous insert+delete of the same tuple: delete wins.
  out.Insert({Value::Str("ins"), Value::Str("R"), Value::Int(9)});
  out.Insert({Value::Str("del"), Value::Str("R"), Value::Int(9)});
  out.Insert({Value::Str("msg"), Value::Str("user"), Value::Int(5)});

  CommitResult result = CommitOutput(out, &db);
  EXPECT_EQ(result.inserted, 3u);
  EXPECT_EQ(result.deleted, 2u);
  ASSERT_EQ(result.messages.size(), 1u);
  EXPECT_EQ(result.messages[0].target, "user");
  const Relation& r = db.Get("R");
  EXPECT_TRUE(r.Contains({Value::Int(1)}));
  EXPECT_TRUE(r.Contains({Value::Int(2)}));
  EXPECT_FALSE(r.Contains({Value::Int(7)}));
  EXPECT_FALSE(r.Contains({Value::Int(9)}));
}

TEST(ActionsTest, CommitCreatesRelationOnDemand) {
  Database db;
  Relation out(4);
  out.Insert({Value::Str("ins"), Value::Str("Log"), Value::Int(1),
              Value::Str("hello")});
  CommitResult result = CommitOutput(out, &db);
  EXPECT_EQ(result.inserted, 1u);
  EXPECT_TRUE(db.Contains("Log"));
  EXPECT_EQ(db.Get("Log").arity(), 2u);
}

TEST(RelationTest, IndexProbesBoundColumns) {
  Relation r(2);
  r.Insert({Value::Int(1), Value::Int(2)});
  r.Insert({Value::Int(1), Value::Int(3)});
  r.Insert({Value::Int(2), Value::Int(3)});
  std::shared_ptr<const Relation::Index> by_first = r.GetIndex(0b01);
  ASSERT_NE(by_first, nullptr);
  EXPECT_EQ(by_first->cols, std::vector<size_t>{0});
  auto it = by_first->buckets.find({Value::Int(1)});
  ASSERT_NE(it, by_first->buckets.end());
  EXPECT_EQ(it->second.size(), 2u);
  EXPECT_EQ(by_first->buckets.count({Value::Int(3)}), 0u);
  // The same mask returns the cached index; a different mask builds a
  // second one over the other column.
  EXPECT_EQ(r.GetIndex(0b01).get(), by_first.get());
  std::shared_ptr<const Relation::Index> by_second = r.GetIndex(0b10);
  EXPECT_EQ(by_second->buckets.count({Value::Int(3)}), 1u);
}

TEST(RelationTest, MutationInvalidatesIndexes) {
  // Regression: a stale index would keep answering from the
  // pre-mutation instance. Every mutation path (Insert, Erase, Clear,
  // assignment) must bump the generation and drop cached indexes.
  Relation r(1);
  r.Insert({Value::Int(1)});
  const uint64_t gen0 = r.generation();
  std::shared_ptr<const Relation::Index> index = r.GetIndex(0b1);
  EXPECT_EQ(index->buckets.count({Value::Int(2)}), 0u);

  ASSERT_TRUE(r.Insert({Value::Int(2)}));
  EXPECT_GT(r.generation(), gen0);
  index = r.GetIndex(0b1);
  EXPECT_EQ(index->buckets.count({Value::Int(2)}), 1u);

  ASSERT_TRUE(r.Erase({Value::Int(1)}));
  index = r.GetIndex(0b1);
  EXPECT_EQ(index->buckets.count({Value::Int(1)}), 0u);

  // Duplicate inserts / missing erases leave the set unchanged and must
  // NOT invalidate (the generations gate Database's derived caches).
  const uint64_t gen1 = r.generation();
  EXPECT_FALSE(r.Insert({Value::Int(2)}));
  EXPECT_FALSE(r.Erase({Value::Int(9)}));
  EXPECT_EQ(r.generation(), gen1);

  r = Relation(1);
  EXPECT_GT(r.generation(), gen1);  // assignment counts as mutation
  EXPECT_EQ(r.GetIndex(0b1)->buckets.size(), 0u);
}

TEST(RelationTest, BulkSetAlgebraAndMerge) {
  Relation a(1), b(1);
  for (int i = 0; i < 6; ++i) a.Insert({Value::Int(i)});
  for (int i = 4; i < 10; ++i) b.Insert({Value::Int(i)});

  EXPECT_EQ(a.Union(b).size(), 10u);
  EXPECT_EQ(a.Intersect(b).size(), 2u);
  EXPECT_EQ(a.Difference(b).size(), 4u);
  EXPECT_TRUE(a.Intersect(b).SubsetOf(a));
  EXPECT_FALSE(a.SubsetOf(b));

  Relation merged = a;  // {0..5}
  merged.MergeFrom(std::move(b));
  EXPECT_EQ(merged.size(), 10u);
  EXPECT_EQ(merged, a.Union(Relation(1, {{Value::Int(4)},
                                         {Value::Int(5)},
                                         {Value::Int(6)},
                                         {Value::Int(7)},
                                         {Value::Int(8)},
                                         {Value::Int(9)}})));

  Relation from_sorted = Relation::FromSorted(
      1, {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}});
  EXPECT_EQ(from_sorted.size(), 3u);
  EXPECT_TRUE(from_sorted.Contains({Value::Int(2)}));
}

TEST(DatabaseTest, ActiveDomainCacheTracksMutations) {
  Database db;
  db.Set("R", Relation(1, {{Value::Int(1)}}));
  auto first = db.ActiveDomainShared();
  EXPECT_EQ(first->count(Value::Int(1)), 1u);
  // Unchanged database: the snapshot is reused, not rebuilt.
  EXPECT_EQ(db.ActiveDomainShared().get(), first.get());
  // Mutation through a GetMutable pointer must be observed (tracked via
  // the relation generation, not just Database::Set).
  db.GetMutable("R")->Insert({Value::Int(7)});
  auto second = db.ActiveDomainShared();
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(second->count(Value::Int(7)), 1u);
  // The old snapshot is a stable copy of the pre-mutation domain.
  EXPECT_EQ(first->count(Value::Int(7)), 0u);
  // Replacing a relation through Set is a structural change.
  db.Set("S", Relation(1, {{Value::Int(9)}}));
  EXPECT_EQ(db.ActiveDomainShared()->count(Value::Int(9)), 1u);
}

TEST(ValueTest, PackedRepresentationIsCanonical) {
  // Equal payloads must pack to equal words — Value equality is a
  // single integer compare, so canonicalisation is the whole contract.
  EXPECT_EQ(Value::Str("same").Hash(), Value::Str("same").Hash());
  EXPECT_NE(Value::Str("a"), Value::Str("b"));
  // Extremes survive the inline/big split on both int and null sides.
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1} << 59,
                    -(int64_t{1} << 60), INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(Value::Int(v).AsInt(), v) << v;
    EXPECT_EQ(Value::Null(v).null_label(), v) << v;
    EXPECT_NE(Value::Int(v), Value::Null(v)) << v;
  }
  // Embedded NULs and near-miss payloads stay distinct.
  EXPECT_NE(Value::Str(std::string_view("a\0b", 3)),
            Value::Str(std::string_view("a\0c", 3)));
  EXPECT_EQ(Value::Str(std::string_view("a\0b", 3)).AsString(),
            std::string("a\0b", 3));
}

TEST(RelationTest, ColumnarLayoutExposesRowsAndColumns) {
  Relation r(3);
  r.Insert({Value::Int(2), Value::Str("b"), Value::Null(1)});
  r.Insert({Value::Int(1), Value::Str("a"), Value::Null(2)});
  r.Insert({Value::Int(3), Value::Str("c"), Value::Null(3)});
  ASSERT_EQ(r.size(), 3u);
  // Rows are kept in lexicographic tuple order; At(row, col) and
  // ColumnData(col)[row] are two views of the same arena cell.
  EXPECT_EQ(r.At(0, 0), Value::Int(1));
  EXPECT_EQ(r.At(1, 0), Value::Int(2));
  EXPECT_EQ(r.At(2, 1), Value::Str("c"));
  for (size_t c = 0; c < 3; ++c) {
    const Value* col = r.ColumnData(c);
    for (size_t row = 0; row < r.size(); ++row) {
      EXPECT_EQ(col[row], r.At(row, c)) << row << "," << c;
    }
  }
  EXPECT_EQ(r.Row(1), (Tuple{Value::Int(2), Value::Str("b"), Value::Null(1)}));
  // Iteration materializes rows in the same sorted order.
  std::vector<Tuple> seen(r.begin(), r.end());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0][0], Value::Int(1));
  EXPECT_EQ(seen[2][0], Value::Int(3));
}

TEST(RelationTest, FromRowMajorSortsAndDedupes) {
  const std::vector<Value> flat = {
      Value::Int(3), Value::Str("c"),  // row 0
      Value::Int(1), Value::Str("a"),  // row 1
      Value::Int(3), Value::Str("c"),  // duplicate of row 0
      Value::Int(2), Value::Str("b"),  // row 3
      Value::Int(1), Value::Str("a"),  // duplicate of row 1
  };
  Relation r = Relation::FromRowMajor(2, flat);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.At(0, 0), Value::Int(1));
  EXPECT_EQ(r.At(1, 0), Value::Int(2));
  EXPECT_EQ(r.At(2, 0), Value::Int(3));
  // Must agree with the incremental-insert construction exactly.
  Relation incremental(2);
  for (size_t i = 0; i < flat.size(); i += 2) {
    incremental.Insert({flat[i], flat[i + 1]});
  }
  EXPECT_EQ(r, incremental);
  EXPECT_TRUE(Relation::FromRowMajor(2, {}).empty());
}

TEST(RelationTest, CopyAndMovePreserveContentsAndInvalidate) {
  Relation a(2);
  a.Insert({Value::Int(1), Value::Int(2)});
  a.Insert({Value::Int(3), Value::Int(4)});
  std::shared_ptr<const Relation::Index> index = a.GetIndex(0b01);

  Relation copy = a;  // shares a's storage and its cached index
  EXPECT_EQ(copy, a);
  EXPECT_EQ(copy.GetIndex(0b01).get(), index.get());

  // Assigning over an existing relation invalidates its cached indexes.
  Relation b(2);
  b.Insert({Value::Int(9), Value::Int(9)});
  const uint64_t gen_b = b.generation();
  b = a;
  EXPECT_GT(b.generation(), gen_b);
  EXPECT_EQ(b, a);

  // Moved-from relations are empty but usable; the moved-to relation
  // owns the rows.
  Relation moved = std::move(b);
  EXPECT_EQ(moved, a);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.Insert({Value::Int(5), Value::Int(6)}));
  EXPECT_EQ(b.size(), 1u);

  // The index snapshot taken before all of this still answers from its
  // own generation (shared_ptr keeps it alive past invalidation).
  EXPECT_EQ(index->buckets.count({Value::Int(1)}), 1u);
}

TEST(RelationTest, CopySharesColumnStorageAndIndexes) {
  Relation a(2);
  for (int i = 0; i < 20; ++i) a.Insert({Value::Int(i % 7), Value::Int(i)});
  std::shared_ptr<const Relation::Index> before = a.GetIndex(0b01);

  const Relation copy = a;
  EXPECT_EQ(copy.ColumnData(0), a.ColumnData(0));
  EXPECT_EQ(copy.ColumnData(1), a.ColumnData(1));
  EXPECT_EQ(copy.GetIndex(0b01).get(), before.get());
  // An index first built through either handle is the other's too.
  EXPECT_EQ(copy.GetIndex(0b10).get(), a.GetIndex(0b10).get());
  // Copy-assignment and Database copies share the same way.
  Relation assigned(2);
  assigned = a;
  EXPECT_EQ(assigned.ColumnData(0), a.ColumnData(0));
  EXPECT_EQ(assigned.GetIndex(0b01).get(), before.get());
  Database db;
  db.Set("A", a);
  const Database db_copy = db;
  EXPECT_EQ(db_copy.Get("A").ColumnData(0), a.ColumnData(0));
  EXPECT_EQ(db_copy.Get("A").GetIndex(0b01).get(), before.get());
}

TEST(RelationTest, WritingACopyLeavesTheOriginalUntouched) {
  Relation a(2);
  for (int i = 0; i < 20; ++i) a.Insert({Value::Int(i % 7), Value::Int(i)});
  const std::string tuples = a.ToString();
  const uint64_t generation = a.generation();
  const Value* column = a.ColumnData(0);
  std::shared_ptr<const Relation::Index> index = a.GetIndex(0b01);
  auto expect_untouched = [&] {
    EXPECT_EQ(a.ToString(), tuples);
    EXPECT_EQ(a.generation(), generation);
    EXPECT_EQ(a.ColumnData(0), column);
    EXPECT_EQ(a.GetIndex(0b01).get(), index.get());
  };

  Relation inserted = a;
  ASSERT_TRUE(inserted.Insert({Value::Int(99), Value::Int(99)}));
  EXPECT_NE(inserted.ColumnData(0), column);  // cloned before the write
  EXPECT_EQ(inserted.size(), a.size() + 1);
  // The clone has its own, fresh index reflecting the write.
  std::shared_ptr<const Relation::Index> fresh = inserted.GetIndex(0b01);
  EXPECT_NE(fresh.get(), index.get());
  EXPECT_EQ(fresh->buckets.count({Value::Int(99)}), 1u);
  EXPECT_EQ(index->buckets.count({Value::Int(99)}), 0u);
  expect_untouched();

  Relation erased = a;
  ASSERT_TRUE(erased.Erase({Value::Int(0), Value::Int(0)}));
  EXPECT_FALSE(a.Erase({Value::Int(42), Value::Int(42)}));  // absent: no-op
  Relation cleared = a;
  cleared.Clear();
  EXPECT_TRUE(cleared.empty());
  Relation merged = a;
  Relation extra(2);
  extra.Insert({Value::Int(50), Value::Int(50)});
  merged.MergeFrom(std::move(extra));
  EXPECT_EQ(merged.size(), a.size() + 1);
  Relation overwritten = a;
  overwritten = Relation(2);
  expect_untouched();

  // A failed insert/erase on a shared handle writes nothing, so it must
  // not clone either.
  Relation copy = a;
  EXPECT_FALSE(copy.Insert({Value::Int(0), Value::Int(0)}));
  EXPECT_FALSE(copy.Erase({Value::Int(42), Value::Int(42)}));
  EXPECT_EQ(copy.ColumnData(0), column);
}

TEST(RelationTest, UnsharedHandleWritesInPlace) {
  Relation a(1);
  for (int i = 0; i < 10; ++i) a.Insert({Value::Int(i)});
  const Value* column = a.ColumnData(0);
  std::shared_ptr<const Relation::Index> index = a.GetIndex(0b1);

  // Sole owner: erase and a within-capacity insert write in place, and
  // the write drops the storage's stale index.
  ASSERT_TRUE(a.Erase({Value::Int(3)}));
  EXPECT_EQ(a.ColumnData(0), column);
  ASSERT_TRUE(a.Insert({Value::Int(3)}));
  EXPECT_EQ(a.ColumnData(0), column);
  std::shared_ptr<const Relation::Index> rebuilt = a.GetIndex(0b1);
  EXPECT_NE(rebuilt.get(), index.get());
  EXPECT_EQ(rebuilt->buckets.size(), 10u);

  // While a copy lives the storage is shared, so a write clones; once
  // the copy is gone the handle is sole owner again.
  {
    const Relation copy = a;
    ASSERT_TRUE(a.Erase({Value::Int(4)}));
    EXPECT_NE(a.ColumnData(0), column);
    EXPECT_EQ(copy.ColumnData(0), column);
    EXPECT_EQ(copy.size(), 10u);
  }
  const Value* cloned = a.ColumnData(0);
  ASSERT_TRUE(a.Erase({Value::Int(5)}));
  EXPECT_EQ(a.ColumnData(0), cloned);
}

TEST(InternerTest, InterningIsInjectiveAndStable) {
  Interner& interner = Interner::Global();
  const uint64_t a1 = interner.InternString("intern_stability_a");
  const uint64_t b = interner.InternString("intern_stability_b");
  const uint64_t a2 = interner.InternString("intern_stability_a");
  EXPECT_EQ(a1, a2);  // same payload, same id — forever
  EXPECT_NE(a1, b);   // distinct payloads never share an id
  EXPECT_EQ(interner.StringAt(a1), "intern_stability_a");
  EXPECT_EQ(interner.StringAt(b), "intern_stability_b");
  // Ids survive arbitrary later interning traffic.
  for (int i = 0; i < 1000; ++i) {
    interner.InternString("intern_churn_" + std::to_string(i));
  }
  EXPECT_EQ(interner.InternString("intern_stability_a"), a1);
  EXPECT_EQ(interner.StringAt(a1), "intern_stability_a");
}

TEST(InternerTest, ConcurrentInternAndLookupAreRaceFree) {
  // Hammer the same small vocabulary from several threads while readers
  // chase ids back to payloads. Under TSan this is the lock-free
  // published-size protocol's regression test; under any build it
  // checks cross-thread id agreement.
  constexpr int kThreads = 4;
  constexpr int kWords = 64;
  std::vector<std::vector<uint64_t>> ids(kThreads,
                                         std::vector<uint64_t>(kWords));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &ids] {
      Interner& interner = Interner::Global();
      for (int round = 0; round < 200; ++round) {
        for (int w = 0; w < kWords; ++w) {
          const std::string word = "concurrent_word_" + std::to_string(w);
          const uint64_t id = interner.InternString(word);
          ids[t][w] = id;
          // Immediately read the payload back through the chunked table.
          ASSERT_EQ(interner.StringAt(id), word);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t << " saw different ids";
  }
}

}  // namespace
}  // namespace sws::rel
