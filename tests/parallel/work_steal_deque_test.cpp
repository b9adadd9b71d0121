#include "parallel/work_steal_deque.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace owlcl {
namespace {

TEST(WorkStealDeque, OwnerPopsLifo) {
  WorkStealDeque<int> dq;
  std::vector<int> items = {1, 2, 3, 4, 5};
  for (int& i : items) dq.pushBottom(&i);
  for (int expect = 5; expect >= 1; --expect) {
    int* p = dq.popBottom();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, expect);
  }
  EXPECT_EQ(dq.popBottom(), nullptr);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(WorkStealDeque, ThievesStealFifo) {
  WorkStealDeque<int> dq;
  std::vector<int> items = {1, 2, 3, 4, 5};
  for (int& i : items) dq.pushBottom(&i);
  for (int expect = 1; expect <= 5; ++expect) {
    int* p = dq.steal();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, expect);
  }
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(WorkStealDeque, GrowsPastInitialCapacity) {
  WorkStealDeque<int> dq(/*initialCapacity=*/2);
  const int n = 1000;
  std::vector<int> items(n);
  std::iota(items.begin(), items.end(), 0);
  for (int& i : items) dq.pushBottom(&i);
  // Half from the top (oldest first), half from the bottom (newest first).
  for (int i = 0; i < n / 2; ++i) {
    int* p = dq.steal();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
  for (int i = n - 1; i >= n / 2; --i) {
    int* p = dq.popBottom();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
  EXPECT_EQ(dq.popBottom(), nullptr);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(WorkStealDeque, InterleavedPushPopStealNeverLosesItems) {
  WorkStealDeque<int> dq(/*initialCapacity=*/4);
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 0);
  std::vector<bool> seen(items.size(), false);
  std::size_t taken = 0, next = 0;
  // Deterministic interleave: push two, pop one, steal one.
  while (taken < items.size()) {
    for (int k = 0; k < 2 && next < items.size(); ++k)
      dq.pushBottom(&items[next++]);
    bool got = false;
    if (int* p = dq.popBottom()) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(*p)]);
      seen[static_cast<std::size_t>(*p)] = true;
      ++taken;
      got = true;
    }
    if (int* p = dq.steal()) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(*p)]);
      seen[static_cast<std::size_t>(*p)] = true;
      ++taken;
      got = true;
    }
    // All pushed and both ends came back empty: the deque is drained.
    if (next >= items.size() && !got) break;
  }
  EXPECT_EQ(taken, items.size());
}

// The core safety property: one owner pushing/popping while several
// thieves steal — every element is consumed by exactly one thread.
TEST(WorkStealDeque, ConcurrentStealsTakeEachItemExactlyOnce) {
  const int n = 20000;
  const int thieves = 3;
  WorkStealDeque<int> dq(/*initialCapacity=*/8);  // force growth under fire
  std::vector<int> items(n);
  std::iota(items.begin(), items.end(), 0);

  std::vector<std::atomic<int>> taken(static_cast<std::size_t>(n));
  for (auto& t : taken) t.store(0, std::memory_order_relaxed);
  std::atomic<bool> done{false};
  std::atomic<long long> consumed{0};

  std::vector<std::thread> thiefThreads;
  thiefThreads.reserve(thieves);
  for (int t = 0; t < thieves; ++t) {
    thiefThreads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (int* p = dq.steal()) {
          taken[static_cast<std::size_t>(*p)].fetch_add(
              1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
      // Final drain so nothing is stranded between done and empty.
      while (int* p = dq.steal()) {
        taken[static_cast<std::size_t>(*p)].fetch_add(1,
                                                      std::memory_order_relaxed);
        consumed.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  // Owner: push everything, popping a few along the way (contends the
  // bottom against in-flight steals).
  for (int i = 0; i < n; ++i) {
    dq.pushBottom(&items[static_cast<std::size_t>(i)]);
    if (i % 7 == 0) {
      if (int* p = dq.popBottom()) {
        taken[static_cast<std::size_t>(*p)].fetch_add(
            1, std::memory_order_relaxed);
        consumed.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  }
  while (int* p = dq.popBottom()) {
    taken[static_cast<std::size_t>(*p)].fetch_add(1, std::memory_order_relaxed);
    consumed.fetch_add(1, std::memory_order_acq_rel);
  }
  while (consumed.load(std::memory_order_acquire) < n) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& t : thiefThreads) t.join();

  for (int i = 0; i < n; ++i)
    ASSERT_EQ(taken[static_cast<std::size_t>(i)].load(), 1)
        << "item " << i << " consumed a wrong number of times";
  EXPECT_EQ(dq.popBottom(), nullptr);
  EXPECT_EQ(dq.steal(), nullptr);
}

}  // namespace
}  // namespace owlcl
