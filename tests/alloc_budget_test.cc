// Heap-allocation budgets of the unfolding path (DESIGN.md §4,
// "Nonrecursive CQ unfolding") and of the join kernel (DESIGN.md §8 and
// §12). This binary replaces the global operator new with one that
// counts the allocations made inside a CountAllocations scope. The
// counts repeat exactly from run to run, so the budgets guard the
// mechanism (disjuncts built in place, leaf rules that read Msg without
// a guard, checks without sets, small relations scanned without an
// index, a dedupe table sized to the answer) where timings on a shared
// host cannot. The sanitizers interpose their own allocator, so the
// binary is not in the `sanitize` label.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "logic/containment.h"
#include "models/travel.h"
#include "sws/execution.h"
#include "sws/unfold.h"

namespace {

bool counting = false;
size_t allocations = 0;
size_t largest = 0;  // bytes of the largest counted allocation

// Runs f and returns the number of operator new calls it made.
template <typename F>
size_t CountAllocations(F f) {
  allocations = 0;
  largest = 0;
  counting = true;
  f();
  counting = false;
  return allocations;
}

}  // namespace

void* operator new(std::size_t size) {
  if (counting) {
    ++allocations;
    largest = std::max(largest, size);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sws::core {
namespace {

// The travel goal of Example 5.1 unfolds at length 1 into 2 disjuncts of
// 6 atoms each, its cores: each leaf rule reads its register, so no
// disjunct carries a guard. Building its unfolder checks the service
// once.
TEST(AllocBudgetTest, UnfoldingTheTravelGoal) {
  const Sws goal = models::MakeTravelServiceCqUcq().sws;
  logic::UnionQuery unfolded;
  const size_t count = CountAllocations([&] {
    const Unfolder unfolder(goal);
    unfolded = unfolder.At(1).ucq;
  });
  ASSERT_EQ(unfolded.size(), 2u);
  for (const logic::ConjunctiveQuery& d : unfolded.disjuncts()) {
    EXPECT_EQ(d.body().size(), 6u) << d.ToString();
  }
  std::printf("Unfolder(goal) + At(1): %zu allocations\n", count);
  EXPECT_LE(count, 300u);
}

TEST(AllocBudgetTest, ValidatingTheTravelGoal) {
  const Sws goal = models::MakeTravelServiceCqUcq().sws;
  bool valid = false;
  const size_t count =
      CountAllocations([&] { valid = !goal.Validate().has_value(); });
  EXPECT_TRUE(valid);
  std::printf("Sws::Validate(goal): %zu allocations\n", count);
  EXPECT_LE(count, 20u);
}

// Klug's test on the goal's two disjuncts, both ways: each containment
// normalizes and renumbers its left disjunct in place and decides it on
// a canonical database of a few rows per relation, which is scanned.
TEST(AllocBudgetTest, TravelGoalEquivalentToItself) {
  const logic::UnionQuery goal =
      Unfolder(models::MakeTravelServiceCqUcq().sws).At(1).ucq;
  bool equivalent = false;
  const size_t count = CountAllocations(
      [&] { equivalent = logic::UcqEquivalent(goal, goal); });
  EXPECT_TRUE(equivalent);
  std::printf("UcqEquivalent(goal@1, goal@1): %zu allocations\n", count);
  EXPECT_LE(count, 400u);
}

// One evaluation of Klug's test: the goal against its first disjunct's
// frozen database. A component of a body that shares no variable with
// the rest is lowered and matched on its own, so each guard would cost
// one more lowering.
TEST(AllocBudgetTest, TravelGoalProducesItsFrozenDisjunct) {
  const logic::UnionQuery goal =
      Unfolder(models::MakeTravelServiceCqUcq().sws).At(1).ucq;
  const logic::PreparedUcq prepared(goal);
  rel::Tuple head;
  const rel::Database frozen = goal.disjuncts()[0].CanonicalDatabase(&head);
  bool produces = false;
  const size_t count =
      CountAllocations([&] { produces = prepared.Produces(frozen, head); });
  EXPECT_TRUE(produces);
  std::printf("Produces(goal@1, frozen first disjunct): %zu allocations\n",
              count);
  EXPECT_LE(count, 20u);
}

// A run's evaluations emit a few rows each, so none may allocate a
// dedupe table, or anything else, of 4 KiB.
TEST(AllocBudgetTest, TravelRunMakesNoLargeAllocation) {
  const models::TravelService service = models::MakeTravelServiceCqUcq();
  const rel::Database db = models::MakeTravelDatabase();
  rel::InputSequence input(service.sws.rin_arity());
  input.Append(models::MakeTravelRequest("orlando", 1000));
  // A first run interns the strings.
  const RunResult warm = core::Run(service.sws, db, input);
  ASSERT_TRUE(warm.status.ok());
  RunResult run;
  const size_t count =
      CountAllocations([&] { run = core::Run(service.sws, db, input); });
  EXPECT_EQ(run.output, warm.output);
  std::printf("Run(travel, orlando): %zu allocations, largest %zu bytes\n",
              count, largest);
  EXPECT_LT(largest, 4096u);
}

}  // namespace
}  // namespace sws::core
