// SPSC mailbox for cross-shard event handoff.
//
// Each ordered pair of shards (src -> dst) owns one mailbox: the source
// shard's worker is the only pusher during a quantum, and the barrier
// phase (single-threaded, after every worker has parked) is the only
// drainer. The ring is a classic single-producer/single-consumer
// power-of-two buffer with acquire/release cursors, so pushes are
// wait-free and never contend; the rare overflow spills into a mutexed
// side vector rather than dropping or blocking the producer.
//
// Determinism contract: every pushed event carries the (absolute) deliver
// time and a per-source sequence number. The barrier drain merges all
// mailboxes targeting a shard and sorts by (when, src shard, src seq) —
// all three are functions of the simulation, not of thread timing — so
// the destination queue's insertion order is bit-for-bit reproducible at
// any shard count.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/callback.h"

namespace iotsec::sim {

/// One event crossing a shard boundary.
struct CrossShardEvent {
  SimTime when = 0;           // absolute delivery time on the destination
  int src = 0;                // source shard (canonical-order tie-break)
  std::uint64_t src_seq = 0;  // per-source-shard monotonic sequence
  Callback fn;
};

class SpscMailbox {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit SpscMailbox(std::size_t capacity = kDefaultCapacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  /// Producer side (the source shard's worker). Never blocks: if the ring
  /// is full the event spills to the overflow vector under a mutex.
  void Push(CrossShardEvent ev) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail < ring_.size()) {
      ring_[head & mask_] = std::move(ev);
      head_.store(head + 1, std::memory_order_release);
      return;
    }
    std::lock_guard<std::mutex> lock(overflow_mu_);
    overflow_.push_back(std::move(ev));
    overflowed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consumer side (barrier phase only). Appends everything queued so far
  /// to `out` in push order.
  void Drain(std::vector<CrossShardEvent>& out) {
    const std::size_t head = head_.load(std::memory_order_acquire);
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    while (tail != head) {
      out.push_back(std::move(ring_[tail & mask_]));
      ++tail;
    }
    tail_.store(tail, std::memory_order_release);
    if (overflowed_.load(std::memory_order_relaxed) > drained_overflow_) {
      std::lock_guard<std::mutex> lock(overflow_mu_);
      for (auto& ev : overflow_) out.push_back(std::move(ev));
      drained_overflow_ += overflow_.size();
      overflow_.clear();
    }
  }

  [[nodiscard]] bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
               tail_.load(std::memory_order_acquire) &&
           overflowed_.load(std::memory_order_relaxed) == drained_overflow_;
  }

  /// Total events that missed the ring and took the mutexed spill path
  /// (a sizing signal, not an error).
  [[nodiscard]] std::uint64_t OverflowCount() const {
    return overflowed_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<CrossShardEvent> ring_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer cursor
  std::mutex overflow_mu_;
  std::vector<CrossShardEvent> overflow_;
  std::atomic<std::uint64_t> overflowed_{0};
  std::uint64_t drained_overflow_ = 0;  // consumer-only
};

}  // namespace iotsec::sim
