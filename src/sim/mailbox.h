// SPSC mailbox for cross-shard event handoff.
//
// Each ordered pair of shards (src -> dst) owns one mailbox: the source
// shard's worker is the only pusher during a quantum, and the barrier
// phase (single-threaded, after every worker has parked) is the only
// drainer. The ring is a classic single-producer/single-consumer
// power-of-two buffer with acquire/release cursors, so pushes are
// wait-free and never contend; an event that finds the ring full spills
// into a mutexed side vector rather than dropping or blocking the
// producer.
//
// The ring is sized on demand: it starts empty, so a pair of shards that
// never exchange traffic costs no ring slots, and the drain grows it to
// the quantum's whole load after a spill. Growing happens only at the
// barrier, when the producer is parked, never mid-quantum.
//
// Determinism contract: the drain hands events over in push order (ring
// first, then the spill, which only ever holds later pushes). Push order
// is the source shard's execution order, a function of the simulation,
// not of thread timing.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/callback.h"

namespace iotsec::sim {

/// One event crossing a shard boundary.
struct CrossShardEvent {
  SimTime when = 0;  // absolute delivery time on the destination
  Callback fn;
};

class SpscMailbox {
 public:
  /// Smallest ring a spill grows to.
  static constexpr std::size_t kMinCapacity = 16;

  /// Producer side (the source shard's worker). Never blocks: if the ring
  /// is full the event spills to the overflow vector under a mutex.
  void Push(SimTime when, Callback&& fn) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail < ring_.size()) {
      CrossShardEvent& slot = ring_[head & mask_];
      slot.when = when;
      slot.fn = std::move(fn);
      head_.store(head + 1, std::memory_order_release);
      return;
    }
    std::lock_guard<std::mutex> lock(overflow_mu_);
    overflow_.push_back({when, std::move(fn)});
    overflowed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consumer side (barrier phase only). Calls `sink(CrossShardEvent&)`
  /// on everything queued so far, in push order; the sink may move from
  /// the event. After a spill the ring grows to hold the whole load.
  template <typename Sink>
  void Drain(Sink&& sink) {
    const std::size_t head = head_.load(std::memory_order_acquire);
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t in_ring = head - tail;
    for (; tail != head; ++tail) sink(ring_[tail & mask_]);
    tail_.store(tail, std::memory_order_release);
    if (overflowed_.load(std::memory_order_relaxed) == drained_overflow_) {
      return;
    }
    std::lock_guard<std::mutex> lock(overflow_mu_);
    for (auto& ev : overflow_) sink(ev);
    drained_overflow_ += overflow_.size();
    const std::size_t load = in_ring + overflow_.size();
    // Free the spill's storage too: after the ring grows, a burst quantum
    // leaves only its ring slots resident.
    std::vector<CrossShardEvent>().swap(overflow_);
    // The ring is empty and the producer parked, so the cursors stay
    // valid under the new mask.
    const std::size_t capacity = std::bit_ceil(std::max(load, kMinCapacity));
    if (capacity > ring_.size()) {
      ring_ = std::vector<CrossShardEvent>(capacity);
      mask_ = capacity - 1;
    }
  }

  [[nodiscard]] bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
               tail_.load(std::memory_order_acquire) &&
           overflowed_.load(std::memory_order_relaxed) == drained_overflow_;
  }

  /// Ring slots allocated so far (0 until the first spill).
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

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
