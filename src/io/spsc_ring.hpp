// Lock-free bounded single-producer/single-consumer ring (DESIGN.md §4g):
// the hand-off queue between the ingest reader thread and a sharded replay
// pipeline. Capacity is rounded up to a power of two so index wrapping is a
// mask. try_push/try_pop and the bulk try_push_n/try_pop_n never block —
// overload policy (shed vs. wait) is the caller's decision, with its own
// accounting (io/overload.hpp), not the queue's. A producer that chooses to
// wait calls wait_while_full(), which parks it until the consumer frees a
// slot.
//
// Cross-core traffic is kept to what a hand-off needs:
//   - Each side's line holds its own cursor plus a private cache of the
//     other side's cursor. A side re-reads the other's cursor only when its
//     cache cannot satisfy the call (for one element: when the ring looks
//     full to the producer or empty to the consumer), so a steady stream
//     touches the other side's line once per refill, not once per element.
//   - The bulk ops move up to n elements and publish the cursor once.
// Memory ordering is the classic SPSC pairing: each side reads its own
// cursor relaxed (it is the only writer of it), reads the opposite cursor
// acquire, and publishes its own cursor release after touching the slots.
//
// Parking: wait_while_full() blocks on the consumer cursor with C++20
// std::atomic::wait (after the library's brief spin); every pop that moves
// the cursor calls notify_one, which costs no system call while nobody
// waits. There is no timed sleep anywhere in the protocol.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace iguard::io {

/// Round up to the next power of two (minimum 2, so the ring always holds
/// at least one element behind the full/empty distinction).
inline std::size_t ring_capacity_for(std::size_t requested) {
  std::size_t c = 2;
  while (c < requested) c <<= 1;
  return c;
}

template <typename T>
class SpscRing {
 public:
  /// `capacity` is a lower bound; the ring allocates the next power of two.
  /// All storage is allocated here — push/pop never allocate.
  explicit SpscRing(std::size_t capacity)
      : buf_(ring_capacity_for(capacity)), mask_(buf_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side only. False = full (caller sheds, waits or retries).
  bool try_push(T v) { return try_push_n(std::span<const T>(&v, 1)) == 1; }

  /// Producer side only. Copies the longest prefix of `src` that fits and
  /// publishes it with one cursor store. Returns how many were pushed
  /// (0 = full).
  std::size_t try_push_n(std::span<const T> src) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    const std::size_t n = std::min(src.size(), free_slots(t, src.size()));
    for (std::size_t i = 0; i < n; ++i) buf_[(t + i) & mask_] = src[i];
    if (n > 0) tail_.store(t + n, std::memory_order_release);
    return n;
  }

  /// Producer side only. Block until the ring has a free slot: spin
  /// briefly, then park on the consumer cursor until a pop moves it.
  /// Returns at once when the ring is not full.
  void wait_while_full() {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    for (;;) {
      const std::size_t h = head_.load(std::memory_order_acquire);
      cached_head_ = h;
      if (t - h != buf_.size()) return;
      head_.wait(h, std::memory_order_acquire);
    }
  }

  /// Consumer side only. False = empty.
  bool try_pop(T& out) { return try_pop_n(std::span<T>(&out, 1)) == 1; }

  /// Consumer side only. Moves up to `out.size()` elements into the front
  /// of `out`, in FIFO order, and publishes them with one cursor store.
  /// Returns how many were popped (0 = empty).
  std::size_t try_pop_n(std::span<T> out) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    const std::size_t n = std::min(out.size(), filled_slots(h, out.size()));
    for (std::size_t i = 0; i < n; ++i) out[i] = std::move(buf_[(h + i) & mask_]);
    if (n > 0) publish_head(h + n);
    return n;
  }

  /// Producer side: publish end-of-stream. The release store pairs with the
  /// acquire load in closed(), so every push that happened before the close
  /// is visible to a consumer that observes closed() == true. The close is
  /// sticky — there is no reopen — which is what makes it a safe shutdown
  /// signal: a consumer that sees closed() and then drains to empty has seen
  /// every packet the producer will ever push.
  void close() { closed_.store(true, std::memory_order_release); }

  /// Consumer side. Drain protocol: on a failed pop, check closed(); if set,
  /// one more pop decides — another failure means the stream is finished
  /// (nothing can be in flight past a close).
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t capacity() const { return buf_.size(); }

  /// Racy size estimate — exact only when both sides are quiescent.
  std::size_t size_approx() const {
    return tail_.load(std::memory_order_acquire) - head_.load(std::memory_order_acquire);
  }

 private:
  /// Producer: free slots behind tail `t`, refreshing the cached consumer
  /// cursor only when the cache shows fewer than `want`.
  std::size_t free_slots(std::size_t t, std::size_t want) {
    if (buf_.size() - (t - cached_head_) < want) {
      cached_head_ = head_.load(std::memory_order_acquire);
    }
    return buf_.size() - (t - cached_head_);
  }

  /// Consumer: filled slots ahead of head `h`, refreshing the cached
  /// producer cursor only when the cache shows fewer than `want`.
  std::size_t filled_slots(std::size_t h, std::size_t want) {
    if (cached_tail_ - h < want) cached_tail_ = tail_.load(std::memory_order_acquire);
    return cached_tail_ - h;
  }

  /// Consumer: release the popped slots and wake a parked producer.
  void publish_head(std::size_t h) {
    head_.store(h, std::memory_order_release);
    head_.notify_one();
  }

  std::vector<T> buf_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer cursor
  std::size_t cached_tail_ = 0;                   // consumer's view of tail_
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer cursor
  std::size_t cached_head_ = 0;                   // producer's view of head_
  alignas(64) std::atomic<bool> closed_{false};   // producer end-of-stream flag
};

}  // namespace iguard::io
