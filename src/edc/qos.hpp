// Per-tenant QoS for the sharded engine: token-bucket IOPS caps and
// weighted fair dequeue across tenants.
//
// Everything here runs on the dispatcher thread and in *simulated* time,
// with pure integer arithmetic — given the same request sequence the
// admission instants and the dequeue order are bit-identical on every
// run and every machine, which is what lets the sharded replay stay
// deterministic with QoS enabled.
#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace edc::shard {

/// Token-bucket rate limiter over simulated time. One token admits one
/// request. The accumulator counts ns·iops, so a whole token is worth
/// kSecond units and refill needs no division on the hot path.
class TokenBucket {
 public:
  /// `iops` = sustained admissions per simulated second (0 = uncapped);
  /// `burst` = bucket depth in whole tokens (at least 1).
  TokenBucket(u64 iops, u64 burst)
      : iops_(iops), cap_(static_cast<i64>(burst < 1 ? 1 : burst) *
                          kSecond) {
    acc_ = cap_;  // start full: the first burst is never throttled
  }
  TokenBucket() : TokenBucket(0, 1) {}

  bool capped() const { return iops_ != 0; }

  /// Earliest simulated instant >= `now` at which one token is available
  /// and consumed. Uncapped buckets admit immediately. The returned
  /// instant is the request's *effective* arrival: a tenant over its cap
  /// sees added queueing delay, never a rejection.
  SimTime Admit(SimTime now) {
    if (iops_ == 0) return now;
    // Admissions are serialized per tenant: a request arriving before
    // the previous admission instant queues behind it (otherwise the
    // refill below could not cover the deficit it just computed).
    if (now < last_) now = last_;
    Refill(now);
    if (acc_ >= kSecond) {
      acc_ -= kSecond;
      return now;
    }
    // Wait exactly until the deficit refills: need (kSecond - acc_)
    // more units at iops_ units per ns... units accrue at iops_ per ns
    // of elapsed time times 1 (acc is ns·iops), so the wait is
    // ceil((kSecond - acc_) / iops_).
    SimTime wait = (kSecond - acc_ + static_cast<i64>(iops_) - 1) /
                   static_cast<i64>(iops_);
    SimTime at = now + wait;
    Refill(at);
    EDC_DCHECK(acc_ >= kSecond);
    acc_ -= kSecond;
    return at;
  }

 private:
  void Refill(SimTime now) {
    if (now <= last_) return;
    acc_ += (now - last_) * static_cast<i64>(iops_);
    if (acc_ > cap_) acc_ = cap_;
    last_ = now;
  }

  u64 iops_;
  i64 cap_;        // bucket depth in ns·iops units
  i64 acc_ = 0;    // current fill in ns·iops units
  SimTime last_ = 0;
};

/// Weighted fair queueing across tenant FIFOs (virtual-finish-time WFQ,
/// integer virtual clock). Items are opaque u64 handles (the sharded
/// engine enqueues indices into its pending-request table).
//
/// Ties on virtual finish time break by (tenant id, FIFO order), so the
/// dequeue sequence is a pure function of the enqueue sequence. Each
/// tenant FIFO is a ring that only grows, so a steady push/pop cycle
/// allocates nothing (a std::deque frees and reallocates a node every
/// few dozen entries).
class WfqScheduler {
 public:
  /// `weights[t]` is tenant t's share (>= 1); missing entries default 1.
  WfqScheduler(u32 tenants, const std::vector<u32>& weights) {
    queues_.resize(tenants);
    finish_.assign(tenants, 0);
    weights_.assign(tenants, 1);
    for (u32 t = 0; t < tenants && t < weights.size(); ++t) {
      if (weights[t] >= 1) weights_[t] = weights[t];
    }
  }

  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }
  std::size_t pending_for(u32 tenant) const {
    return queues_[tenant].size;
  }

  /// Enqueue one item with service cost `cost` (e.g. 4 KiB block count).
  void Push(u32 tenant, u64 item, u64 cost) {
    EDC_DCHECK(tenant < queues_.size());
    if (cost == 0) cost = 1;
    // Classic WFQ virtual finish: start at max(virtual now, tenant's
    // last finish), advance by cost scaled inversely to the weight.
    u64 start = finish_[tenant] > vclock_ ? finish_[tenant] : vclock_;
    u64 finish = start + cost * kCostScale / weights_[tenant];
    finish_[tenant] = finish;
    queues_[tenant].Push(Entry{item, finish});
    ++pending_;
  }

  /// Dequeue the item with the smallest virtual finish time (ties by
  /// lowest tenant id). Returns false when every queue is empty.
  bool Pop(u32* tenant_out, u64* item_out) {
    if (pending_ == 0) return false;
    u32 best_tenant = 0;
    u64 best_finish = ~static_cast<u64>(0);
    bool found = false;
    for (u32 t = 0; t < queues_.size(); ++t) {
      if (queues_[t].size == 0) continue;
      if (!found || queues_[t].front().finish < best_finish) {
        found = true;
        best_tenant = t;
        best_finish = queues_[t].front().finish;
      }
    }
    EDC_DCHECK(found);
    Entry e = queues_[best_tenant].PopFront();
    --pending_;
    if (e.finish > vclock_) vclock_ = e.finish;
    *tenant_out = best_tenant;
    *item_out = e.item;
    return true;
  }

 private:
  /// Cost scale keeps integer division by the weight meaningful for
  /// small costs (1 block at weight 7 still advances the clock).
  static constexpr u64 kCostScale = 1 << 16;

  struct Entry {
    u64 item;
    u64 finish;  // virtual finish time
  };

  /// FIFO ring over a power-of-two slot vector; doubles when full.
  struct Fifo {
    std::vector<Entry> slots;
    std::size_t head = 0;
    std::size_t size = 0;

    const Entry& front() const { return slots[head]; }

    void Push(const Entry& e) {
      if (size == slots.size()) {
        std::vector<Entry> grown(slots.empty() ? 4 : 2 * slots.size());
        for (std::size_t i = 0; i < size; ++i) {
          grown[i] = slots[(head + i) & (slots.size() - 1)];
        }
        slots.swap(grown);
        head = 0;
      }
      slots[(head + size) & (slots.size() - 1)] = e;
      ++size;
    }

    Entry PopFront() {
      Entry e = slots[head];
      head = (head + 1) & (slots.size() - 1);
      --size;
      return e;
    }
  };

  std::vector<Fifo> queues_;
  std::vector<u64> finish_;   // per-tenant last virtual finish
  std::vector<u32> weights_;
  u64 vclock_ = 0;            // global virtual time
  std::size_t pending_ = 0;
};

}  // namespace edc::shard
