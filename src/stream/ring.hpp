// Lock-free single-producer single-consumer ring buffer: the channel
// transport of the throughput-mode pipeline scheduler (scheduler.hpp).
//
// Within one chain, blocks move through plain deque channels: a chain's
// elements run on one thread, so a channel's producer and consumer never
// run concurrently. In throughput mode each chain runs on its own
// long-lived thread, so every chain-crossing edge needs a queue that is
// safe with exactly one producer thread and one consumer thread and costs
// nanoseconds, not locks, per transfer:
//
//   * power-of-two capacity, monotonically increasing head/tail counts
//     masked into the slot array (wraparound never needs a branch);
//   * acquire/release atomics only — the producer publishes with one
//     release store of tail_, the consumer with one release store of
//     head_; no CAS, no mutex, no seq_cst fence on the hot path;
//   * each side keeps a *cached* copy of the opposite index and refreshes
//     it only when the ring looks full/empty, so steady-state pushes and
//     pops touch no cache line the other core is writing;
//   * head, tail, and the per-side working sets live on separate
//     cache-line-aligned storage (no false sharing / line ping-pong);
//   * every transfer (`try_push_batch` / `try_pop_batch`) moves up to
//     batch_size items under a single index publication, amortizing the
//     atomic traffic over the batch.
//
// Close semantics mirror stream::Channel: the producer calls close() after
// its final push; `drained()` on the consumer side (closed and empty) means
// no item will ever arrive. The release/acquire pair on closed_ makes every
// pre-close push visible to a consumer that observes the close.
//
// Waiting is the caller's job: try_* never block. SpinBackoff packages the
// bounded spin-then-yield policy the scheduler uses between failed
// attempts (pause a few dozen times on the CPU's relax instruction, then
// fall back to std::this_thread::yield so oversubscribed hosts — e.g. a
// 4-chain graph on the 1-core CI container — still make progress).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace ff::stream {

inline constexpr std::size_t kCacheLine = 64;

/// One CPU "relax" hint (PAUSE on x86); a plain compiler barrier elsewhere.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Bounded spin-then-yield backoff: the first `spin_limit` pauses are busy
/// spins (cheap, keeps the core hot for latencies in the nanoseconds), after
/// which every pause yields the thread (keeps oversubscribed hosts live).
/// A successful operation should reset() it. The pause count doubles as the
/// stall-spin statistic the scheduler exports per ring.
class SpinBackoff {
 public:
  explicit SpinBackoff(std::uint32_t spin_limit = 64) : spin_limit_(spin_limit) {}

  void pause() {
    ++total_;
    if (streak_ < spin_limit_) {
      ++streak_;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }

  void reset() { streak_ = 0; }

  /// Total pauses taken over the object's lifetime (spins + yields).
  std::uint64_t total() const { return total_; }

 private:
  std::uint32_t spin_limit_;
  std::uint32_t streak_ = 0;
  std::uint64_t total_ = 0;
};

/// Largest power of two representable in size_t (the ring capacity ceiling).
inline constexpr std::size_t kMaxRingCapacity =
    (static_cast<std::size_t>(-1) >> 1) + 1;

/// Round `n` up to the next power of two (1 <= n <= kMaxRingCapacity).
inline std::size_t ring_capacity_for(std::size_t n) {
  FF_CHECK_MSG(n >= 1, "ring capacity must be >= 1");
  // Beyond the largest size_t power of two `cap <<= 1` wraps to 0 and the
  // loop never terminates; such a request is a bug, not a big ring.
  FF_CHECK_MSG(n <= kMaxRingCapacity,
               "ring capacity " << n << " exceeds the largest size_t power of two ("
                                << kMaxRingCapacity << ")");
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (>= min_capacity >= 1).
  explicit SpscRing(std::size_t min_capacity)
      : mask_(ring_capacity_for(min_capacity) - 1),
        slots_(ring_capacity_for(min_capacity)) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  // ---- producer side (exactly one thread) ---------------------------

  /// Move up to `n` items, each produced by `pop_front()`, into the ring
  /// under one tail publication; returns how many were taken (a full ring
  /// takes fewer). Must not be called after close() (FF_CHECK-enforced via
  /// a producer-local flag: close() is a producer-side call, so the check
  /// needs no atomic).
  template <typename PopFront>
  std::size_t try_push_batch(std::size_t n, PopFront&& pop_front) {
    FF_CHECK_MSG(!prod_.closed, "SpscRing: try_push_batch after close()");
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t space = capacity() - (tail - prod_.cached_head);
    if (space < n) {
      prod_.cached_head = head_.load(std::memory_order_acquire);
      space = capacity() - (tail - prod_.cached_head);
    }
    const std::size_t take = n < space ? n : space;
    if (take == 0) {
      if (n > 0) ++prod_.stalls;
      return 0;
    }
    for (std::size_t i = 0; i < take; ++i) slots_[(tail + i) & mask_] = pop_front();
    tail_.store(tail + take, std::memory_order_release);
    const std::size_t depth = tail + take - prod_.cached_head;
    if (depth > prod_.depth_peak) prod_.depth_peak = depth;
    return take;
  }

  /// End of stream: no further pushes. Idempotent. Producer-side call (the
  /// close-semantics contract above), which is what lets the push-after-close
  /// check read a plain flag.
  void close() {
    prod_.closed = true;
    closed_.store(true, std::memory_order_release);
  }

  /// Peak occupancy as observed by the producer (exact whenever the
  /// producer saw the ring at its fullest, which it does — it caused it).
  std::size_t depth_peak() const { return prod_.depth_peak; }
  /// Failed pushes (ring full when the producer wanted to move a batch).
  std::uint64_t producer_stalls() const { return prod_.stalls; }

  // ---- consumer side (exactly one thread) ---------------------------

  /// Pop up to `n` items under one head publication, handing each to
  /// `sink(T&&)`; returns how many moved.
  template <typename Sink>
  std::size_t try_pop_batch(std::size_t n, Sink&& sink) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = cons_.cached_tail - head;
    if (avail < n) {
      cons_.cached_tail = tail_.load(std::memory_order_acquire);
      avail = cons_.cached_tail - head;
    }
    const std::size_t take = n < avail ? n : avail;
    if (take == 0) {
      if (n > 0) ++cons_.stalls;
      return 0;
    }
    for (std::size_t i = 0; i < take; ++i) sink(std::move(slots_[(head + i) & mask_]));
    head_.store(head + take, std::memory_order_release);
    return take;
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Closed and empty: nothing queued and nothing ever coming. The acquire
  /// on closed_ orders the emptiness check after the producer's final push,
  /// so a true result is final.
  bool drained() const {
    if (!closed_.load(std::memory_order_acquire)) return false;
    return head_.load(std::memory_order_relaxed) == tail_.load(std::memory_order_acquire);
  }

  /// Failed pops (ring empty when the consumer wanted a batch).
  std::uint64_t consumer_stalls() const { return cons_.stalls; }

  // ---- either side (approximate between concurrent operations) ------

  std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }
  bool empty() const { return size() == 0; }

 private:
  /// Per-side working set: the cached opposite index plus that side's
  /// statistics, padded so producer and consumer never share a line.
  struct alignas(kCacheLine) ProducerSide {
    std::size_t cached_head = 0;
    std::size_t depth_peak = 0;
    std::uint64_t stalls = 0;
    bool closed = false;  // producer-thread mirror of closed_ for the push check
  };
  struct alignas(kCacheLine) ConsumerSide {
    std::size_t cached_tail = 0;
    std::uint64_t stalls = 0;
  };

  const std::size_t mask_;
  std::vector<T> slots_;
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // produced count
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  // consumed count
  alignas(kCacheLine) std::atomic<bool> closed_{false};
  ProducerSide prod_;
  ConsumerSide cons_;
};

}  // namespace ff::stream
