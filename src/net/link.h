// Point-to-point simulated link with latency, bandwidth and a drop-tail
// queue. Links are full-duplex: each direction has its own transmit state.
//
// Serialization is deterministic and FIFO, so a direction is modelled
// analytically: Send computes when the packet starts serializing
// (max(now, busy_until)), when the wire frees up (start + size/bandwidth)
// and when it arrives (that plus latency), and schedules only the
// delivery — one simulator event per packet per hop. The drop-tail queue
// is the set of accepted packets whose serialization has not started,
// kept as a ring of their start times; a packet whose start time is
// <= now has left the queue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/packet.h"
#include "sim/shard_set.h"
#include "sim/simulator.h"

namespace iotsec::net {

struct LinkConfig {
  SimDuration latency = 100 * kMicrosecond;  // propagation delay
  double bandwidth_bps = 100e6;              // 100 Mbit/s default
  std::size_t queue_limit = 256;             // packets per direction
  /// Random loss probability per packet (0 = lossless, the default).
  /// Losses are drawn from a deterministic per-link stream seeded by
  /// `loss_seed`, so runs stay reproducible.
  double loss_rate = 0.0;
  std::uint64_t loss_seed = 0x10552;
};

/// Per-direction counters. `packets` and `bytes` count packets the link
/// accepted (not lost, not dropped) at the moment Send accepts them, so
/// mid-run they include packets still queued or on the wire; once the
/// link drains they equal the packets that were serialized.
struct LinkStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;       // queue overflow
  std::uint64_t lost = 0;        // random loss
};

class Link {
 public:
  Link(sim::Simulator& simulator, LinkConfig config = {})
      : sim_(simulator), config_(config), loss_rng_(config.loss_seed) {}

  /// Attaches endpoint `end` (0 or 1). `port` is the port index passed to
  /// the sink's Receive() on delivery.
  void Attach(int end, PacketSink* sink, int port);

  /// Sends `pkt` from endpoint `from_end` toward the other endpoint.
  /// Serialization delay is size/bandwidth; transmissions queue FIFO.
  /// The packet is dropped when `queue_limit` packets already wait for
  /// the wire.
  void Send(int from_end, PacketPtr pkt);

  [[nodiscard]] const LinkStats& stats(int direction) const {
    return dirs_[direction].stats;
  }
  [[nodiscard]] const LinkConfig& config() const { return config_; }

  /// Start-time slots the direction's queue ring holds. The ring grows
  /// with the deepest backlog seen, never to `queue_limit` up front.
  [[nodiscard]] std::size_t queue_capacity(int direction) const {
    return dirs_[direction].waiting.capacity();
  }

  /// Runtime loss-rate override, used by fault injection to model link
  /// flaps / loss bursts. Draws still come from the same per-link
  /// deterministic stream, so flapped runs stay reproducible. On a
  /// shard-bound link the change is posted to each direction's home
  /// shard one quantum out (see BindShards) instead of applied in place.
  void SetLossRate(double rate);

  /// Places the link in sharded mode: endpoint `i` lives on shard
  /// `end_shard[i]` of `set`. From then on each direction's queue state
  /// belongs to its source endpoint's shard, deliveries cross through
  /// ShardSet::Post straight from Send, and loss draws come from
  /// per-direction streams (seeded loss_seed ^ (direction+1)) —
  /// per-direction state is what makes behaviour independent of which
  /// shards the ends land on, so a 1-shard run digest-matches an 8-shard
  /// run. Requires latency >= set->quantum() (the conservative-lookahead
  /// contract).
  void BindShards(sim::ShardSet* set, int end0_shard, int end1_shard);

  /// True once BindShards has been called.
  [[nodiscard]] bool bound() const { return shards_ != nullptr; }
  [[nodiscard]] int end_shard(int end) const { return end_shard_[end]; }

 private:
  struct Endpoint {
    PacketSink* sink = nullptr;
    int port = 0;
  };

  /// FIFO of start times in a power-of-two ring that doubles when full.
  class StartRing {
   public:
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
    /// Drops the entries whose serialization has started by `now`.
    void PopStarted(SimTime now) {
      while (count_ != 0 && slots_[head_] <= now) {
        head_ = (head_ + 1) & (slots_.size() - 1);
        --count_;
      }
    }
    void Push(SimTime start) {
      if (count_ == slots_.size()) Grow();
      slots_[(head_ + count_) & (slots_.size() - 1)] = start;
      ++count_;
    }

   private:
    void Grow();

    std::vector<SimTime> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  struct Direction {
    StartRing waiting;      // accepted packets not yet serializing
    SimTime busy_until = 0; // when the last accepted packet leaves the wire
    LinkStats stats;
    // Sharded mode only: per-direction loss stream/rate, owned (like the
    // queue and stats) by the source endpoint's shard.
    Rng rng;
    double loss_rate = 0.0;
  };

  /// Simulator a direction's sends run on: the source end's shard when
  /// bound, the construction simulator otherwise.
  [[nodiscard]] sim::Simulator& SimOf(int direction) {
    return shards_ ? shards_->sim(end_shard_[direction]) : sim_;
  }

  sim::Simulator& sim_;
  LinkConfig config_;
  Rng loss_rng_;
  Endpoint ends_[2];
  Direction dirs_[2];  // dirs_[i] carries traffic from end i to end 1-i
  sim::ShardSet* shards_ = nullptr;
  int end_shard_[2] = {0, 0};
};

}  // namespace iotsec::net
