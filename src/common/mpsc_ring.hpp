// MpscRing — bounded lock-free multi-producer/single-consumer ring.
//
// The fabric of the sharded engine (edc/shard.hpp): the dispatcher pushes
// sub-requests into one ring per shard, and each shard run loop pushes
// completion records into a ring of its own that the dispatcher drains.
// Both directions need a queue that
//   * never allocates after construction (slots live in one flat array,
//     so the steady-state hot path is EDC_HOT/no-alloc lintable),
//   * is bounded, so backpressure is an explicit TryPush failure instead
//     of unbounded memory growth, and
//   * pops in claim order — each producer's pushes come out FIFO, which
//     is what per-shard ordering relies on.
//
// The algorithm is the classic bounded MPMC ticket queue (Vyukov): every
// slot carries a sequence stamp; producers claim a ticket with one CAS on
// the tail and own the slot until they bump its stamp, consumers mirror
// the same dance on the head. The sharded engine gives every ring one
// producer and one consumer; the ring itself allows many producers
// (cross-producer interleaving is then claim order).
//
// T must be default-constructible and movable. Push/pop transfer T by
// move; the ring itself performs no allocation in TryPush/TryPop (moving
// a T that owns heap memory is the caller's business and only happens on
// already-cold paths such as error statuses).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace edc {

template <typename T>
class MpscRing {
 public:
  /// `capacity` is rounded up to the next power of two (minimum 2) so
  /// slot indexing is a mask instead of a modulo.
  explicit MpscRing(std::size_t capacity)
      : mask_(RoundUpPow2(capacity) - 1),
        slots_(std::make_unique<Slot[]>(mask_ + 1)) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      slots_[i].stamp.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Approximate occupancy (exact when producers and the consumer are
  /// quiescent; racy but monotonic-ish otherwise — fine for gauges).
  std::size_t SizeApprox() const {
    u64 tail = tail_.load(std::memory_order_acquire);
    u64 head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  /// Consumer-side probe for park/wake handshakes: true when no producer
  /// has claimed a ticket the consumer has not popped yet. A claimed slot
  /// may still be unpublished, so "not empty" here can precede a failing
  /// TryPop by a few instructions. The tail load is seq_cst and TryPush
  /// claims its ticket with a seq_cst CAS, so a consumer that stores a
  /// "parked" flag (seq_cst) and then finds the ring empty here is
  /// guaranteed that every producer whose claim it missed reads that flag
  /// (seq_cst) afterwards — the Dekker pattern, with no standalone fence.
  bool EmptyForConsumer() const {
    return tail_.load(std::memory_order_seq_cst) ==
           head_.load(std::memory_order_relaxed);
  }

  /// Multi-producer push; returns false when the ring is full. Never
  /// allocates and never blocks (one bounded CAS loop against rival
  /// producers).
  EDC_HOT bool TryPush(T&& value) {
    u64 ticket = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[static_cast<std::size_t>(ticket) & mask_];
      u64 stamp = slot.stamp.load(std::memory_order_acquire);
      i64 delta = static_cast<i64>(stamp) - static_cast<i64>(ticket);
      if (delta == 0) {
        // Slot is free for this ticket; claim the ticket. seq_cst orders
        // the claim before the caller's later seq_cst check of a parked
        // consumer (see EmptyForConsumer); on x86 it is the same locked
        // instruction as a relaxed CAS.
        if (tail_.compare_exchange_weak(ticket, ticket + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
          slot.value = std::move(value);
          slot.stamp.store(ticket + 1, std::memory_order_release);
          return true;
        }
        // CAS updated `ticket` to the current tail; retry with it.
      } else if (delta < 0) {
        return false;  // slot still holds an unconsumed value: full
      } else {
        // Another producer advanced the tail past our stale ticket.
        ticket = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer pop; returns false when the ring is empty. Must only
  /// ever be called from one thread at a time (the consumer).
  EDC_HOT bool TryPop(T* out) {
    u64 ticket = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[static_cast<std::size_t>(ticket) & mask_];
    u64 stamp = slot.stamp.load(std::memory_order_acquire);
    if (static_cast<i64>(stamp) - static_cast<i64>(ticket + 1) < 0) {
      return false;  // producer has not published this slot yet
    }
    *out = std::move(slot.value);
    // Free the slot for the producer one lap ahead.
    slot.stamp.store(ticket + mask_ + 1, std::memory_order_release);
    head_.store(ticket + 1, std::memory_order_relaxed);
    return true;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<u64> stamp{0};
    T value{};
  };

  static std::size_t RoundUpPow2(std::size_t n) {
    std::size_t p = 2;
    while (p < n) p <<= 1;
    return p;
  }

  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  // Producers contend on tail_, the consumer owns head_; separate cache
  // lines so a busy producer does not stall the consumer's loads.
  alignas(64) std::atomic<u64> tail_{0};
  alignas(64) std::atomic<u64> head_{0};
};

}  // namespace edc
