// Heap-allocation budgets of the unfolding path (DESIGN.md §4,
// "Nonrecursive CQ unfolding"). This binary replaces the global
// operator new with one that counts the allocations made inside a
// CountAllocations scope. The counts repeat exactly from run to run, so
// the budgets guard the mechanism (disjuncts built in place, checks
// without sets) where timings on a shared host cannot. The sanitizers
// interpose their own allocator, so the binary is not in the `sanitize`
// label.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "models/travel.h"
#include "sws/unfold.h"

namespace {

bool counting = false;
size_t allocations = 0;

// Runs f and returns the number of operator new calls it made.
template <typename F>
size_t CountAllocations(F f) {
  allocations = 0;
  counting = true;
  f();
  counting = false;
  return allocations;
}

}  // namespace

void* operator new(std::size_t size) {
  if (counting) ++allocations;
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
// 9 atoms each; building its unfolder checks the service once.
TEST(AllocBudgetTest, UnfoldingTheTravelGoal) {
  const Sws goal = models::MakeTravelServiceCqUcq().sws;
  size_t disjuncts = 0;
  const size_t count = CountAllocations([&] {
    const Unfolder unfolder(goal);
    disjuncts = unfolder.At(1).ucq.size();
  });
  EXPECT_EQ(disjuncts, 2u);
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

}  // namespace
}  // namespace sws::core
