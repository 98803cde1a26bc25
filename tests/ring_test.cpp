// SPSC ring tests: capacity rounding, full/empty boundary behaviour, index
// wraparound, batch transfer limits, close-and-drain semantics, and a
// two-thread producer/consumer soak that must come back clean under TSan
// (the tsan preset runs this binary via the `streaming` label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "stream/ring.hpp"

namespace ff::stream {
namespace {

// Single-item push/pop spelled with the batch operations (n = 1), the only
// transfers the ring offers.
template <typename T>
bool push1(SpscRing<T>& ring, T v) {
  return ring.try_push_batch(1, [&] { return v; }) == 1;
}

template <typename T>
bool pop1(SpscRing<T>& ring, T& out) {
  return ring.try_pop_batch(1, [&](T&& v) { out = v; }) == 1;
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ring_capacity_for(1), 1u);
  EXPECT_EQ(ring_capacity_for(2), 2u);
  EXPECT_EQ(ring_capacity_for(3), 4u);
  EXPECT_EQ(ring_capacity_for(5), 8u);
  EXPECT_EQ(ring_capacity_for(1024), 1024u);
  EXPECT_EQ(ring_capacity_for(1025), 2048u);
  EXPECT_THROW(ring_capacity_for(0), std::logic_error);

  SpscRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 4u);
}

TEST(SpscRing, CapacityRequestsBeyondMaxAreRejected) {
  // Regression: requests above the largest representable power of two used
  // to spin the doubling loop forever (the shift wrapped to zero).
  EXPECT_EQ(ring_capacity_for(kMaxRingCapacity), kMaxRingCapacity);
  EXPECT_THROW(ring_capacity_for(kMaxRingCapacity + 1), std::logic_error);
  EXPECT_THROW(ring_capacity_for(static_cast<std::size_t>(-1)), std::logic_error);
}

TEST(SpscRing, PushAfterCloseIsAContractViolation) {
  SpscRing<int> ring(4);
  ASSERT_TRUE(push1(ring, 1));
  ring.close();
  EXPECT_THROW(push1(ring, 2), std::logic_error);
  EXPECT_THROW(ring.try_push_batch(1, [] { return 3; }), std::logic_error);
  // Draining the closed ring still works.
  int out = 0;
  EXPECT_TRUE(pop1(ring, out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.drained());
}

TEST(SpscRing, FullAndEmptyBoundaries) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());

  int out = 0;
  EXPECT_FALSE(pop1(ring, out));  // empty pop fails
  EXPECT_EQ(ring.consumer_stalls(), 1u);

  for (int i = 0; i < 4; ++i) EXPECT_TRUE(push1(ring, int{i}));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(push1(ring, 99));  // full push fails
  EXPECT_EQ(ring.producer_stalls(), 1u);
  EXPECT_EQ(ring.depth_peak(), 4u);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pop1(ring, out));
    EXPECT_EQ(out, i);  // FIFO order
  }
  EXPECT_FALSE(pop1(ring, out));
  EXPECT_TRUE(ring.empty());

  // Freed space is immediately reusable.
  EXPECT_TRUE(push1(ring, 7));
  ASSERT_TRUE(pop1(ring, out));
  EXPECT_EQ(out, 7);
}

TEST(SpscRing, WraparoundPreservesFifoOrder) {
  // Capacity 4 with 1000 items forces the monotonic indices to wrap the
  // slot array 250 times; order must survive every wrap.
  SpscRing<int> ring(4);
  int next_push = 0, next_pop = 0;
  while (next_pop < 1000) {
    while (next_push < 1000 && push1(ring, int{next_push})) ++next_push;
    int out = -1;
    while (pop1(ring, out)) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_push, 1000);
}

TEST(SpscRing, BatchTransferHonorsSpaceAndAvailability) {
  SpscRing<int> ring(8);
  // Ask to push 20, only 8 fit.
  int src = 0;
  EXPECT_EQ(ring.try_push_batch(20, [&] { return src++; }), 8u);
  EXPECT_EQ(src, 8);  // pop_front called exactly once per accepted item
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.try_push_batch(4, [&] { return src++; }), 0u);
  EXPECT_GT(ring.producer_stalls(), 0u);

  // Ask to pop 3, get 3; then ask for 20 and get the remaining 5.
  std::vector<int> got;
  EXPECT_EQ(ring.try_pop_batch(3, [&](int&& v) { got.push_back(v); }), 3u);
  EXPECT_EQ(ring.try_pop_batch(20, [&](int&& v) { got.push_back(v); }), 5u);
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(ring.try_pop_batch(1, [&](int&&) {}), 0u);
  EXPECT_GT(ring.consumer_stalls(), 0u);
}

TEST(SpscRing, CloseAndDrainSemantics) {
  SpscRing<int> ring(4);
  EXPECT_FALSE(ring.closed());
  EXPECT_FALSE(ring.drained());  // open ring is never drained

  ASSERT_TRUE(push1(ring, 1));
  ASSERT_TRUE(push1(ring, 2));
  ring.close();
  ring.close();  // idempotent
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.drained());  // closed but not yet empty

  int out = 0;
  ASSERT_TRUE(pop1(ring, out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(pop1(ring, out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(ring.drained());  // closed and empty: final
  EXPECT_FALSE(pop1(ring, out));
}

TEST(SpscRing, SpinBackoffCountsAndResets) {
  SpinBackoff backoff(/*spin_limit=*/4);
  for (int i = 0; i < 10; ++i) backoff.pause();  // 4 spins then 6 yields
  EXPECT_EQ(backoff.total(), 10u);
  backoff.reset();
  backoff.pause();
  EXPECT_EQ(backoff.total(), 11u);
}

TEST(SpscRing, TwoThreadSoakDeliversEverythingInOrder) {
  // One producer, one consumer, a deliberately tiny ring (heavy wraparound
  // and contention), mixed single/batch operations. Run under the tsan
  // preset this is the data-race certification of the ring's memory
  // ordering; single-threaded it still checks end-to-end integrity.
  constexpr std::uint64_t kItems = 200000;
  SpscRing<std::uint64_t> ring(8);

  std::thread producer([&] {
    SpinBackoff backoff;
    std::uint64_t next = 0;
    while (next < kItems) {
      std::size_t pushed;
      if (next % 3 == 0) {
        pushed = push1(ring, std::uint64_t{next}) ? 1 : 0;
        next += pushed;
      } else {
        const std::uint64_t want =
            std::min<std::uint64_t>(5, kItems - next);
        pushed = ring.try_push_batch(static_cast<std::size_t>(want),
                                     [&] { return next++; });
      }
      if (pushed == 0)
        backoff.pause();
      else
        backoff.reset();
    }
    ring.close();
  });

  std::uint64_t expected = 0;
  bool in_order = true;
  SpinBackoff backoff;
  while (!ring.drained()) {
    std::size_t got;
    if (expected % 2 == 0) {
      std::uint64_t v = 0;
      got = pop1(ring, v) ? 1 : 0;
      if (got) in_order &= (v == expected++);
    } else {
      got = ring.try_pop_batch(7, [&](std::uint64_t&& v) {
        in_order &= (v == expected++);
      });
    }
    if (got == 0)
      backoff.pause();
    else
      backoff.reset();
  }
  producer.join();

  EXPECT_TRUE(in_order);
  EXPECT_EQ(expected, kItems);  // nothing lost, duplicated, or reordered
  EXPECT_TRUE(ring.drained());
  EXPECT_LE(ring.depth_peak(), ring.capacity());
}

}  // namespace
}  // namespace ff::stream
