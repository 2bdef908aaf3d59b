#include "net/link.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace iotsec::net {

void Link::Attach(int end, PacketSink* sink, int port) {
  ends_[end].sink = sink;
  ends_[end].port = port;
}

void Link::BindShards(sim::ShardSet* set, int end0_shard, int end1_shard) {
  assert(set != nullptr);
  // Conservative lookahead: a packet sent during quantum [t, t+Δ) must
  // deliver no earlier than t+Δ, which propagation alone guarantees only
  // when latency >= Δ.
  assert(config_.latency >= set->quantum());
  shards_ = set;
  end_shard_[0] = end0_shard;
  end_shard_[1] = end1_shard;
  for (int d = 0; d < 2; ++d) {
    // Split the shared stream into per-direction streams so each shard
    // draws independently. Seeded by direction (not shard placement):
    // the same draws happen wherever the ends land, at any shard count.
    dirs_[d].rng = Rng(config_.loss_seed ^ static_cast<std::uint64_t>(d + 1));
    dirs_[d].loss_rate = config_.loss_rate;
  }
}

void Link::SetLossRate(double rate) {
  if (!shards_) {
    config_.loss_rate = rate;
    return;
  }
  // Each direction's loss state belongs to its source endpoint's shard;
  // writing it from here (fault injection runs on shard 0) would race.
  // Post the change one quantum out — a fixed, shard-count-independent
  // lag, so flapped runs still digest-match across shard counts.
  const SimTime when =
      shards_->sim(sim::ShardSet::CurrentShard()).Now() + shards_->quantum();
  for (int d = 0; d < 2; ++d) {
    shards_->Post(end_shard_[d], when, [this, d, rate] {
      dirs_[d].loss_rate = rate;
    });
  }
}

void Link::Send(int from_end, PacketPtr pkt) {
  Direction& dir = dirs_[from_end];
  const double loss = shards_ ? dir.loss_rate : config_.loss_rate;
  if (loss > 0.0) {
    Rng& rng = shards_ ? dir.rng : loss_rng_;
    if (rng.NextBool(loss)) {
      ++dir.stats.lost;
      return;
    }
  }
  sim::Simulator& src_sim = SimOf(from_end);
  const SimTime now = src_sim.Now();
  dir.waiting.PopStarted(now);
  if (dir.waiting.size() >= config_.queue_limit) {
    ++dir.stats.drops;
    return;
  }

  const double bits = static_cast<double>(pkt->size()) * 8.0;
  const auto tx_delay =
      static_cast<SimDuration>(bits / config_.bandwidth_bps * kSecond);
  const SimTime start = std::max(now, dir.busy_until);
  if (start > now) dir.waiting.Push(start);
  dir.busy_until = start + tx_delay;

  ++dir.stats.packets;
  dir.stats.bytes += pkt->size();

  // Serialization completes at busy_until; delivery after propagation.
  const int to_end = 1 - from_end;
  const SimTime deliver_at = dir.busy_until + config_.latency;
  auto deliver = [this, to_end, pkt = std::move(pkt)]() mutable {
    if (ends_[to_end].sink == nullptr) return;
    ends_[to_end].sink->Receive(std::move(pkt), ends_[to_end].port);
  };
  if (shards_) {
    // Always through the mailbox when bound — even if both ends share a
    // shard — so insertion order at the destination is the canonical
    // (when, src shard, src seq) at every shard count.
    shards_->Post(end_shard_[to_end], deliver_at, std::move(deliver));
  } else {
    src_sim.At(deliver_at, std::move(deliver));
  }
}

void Link::StartRing::Grow() {
  std::vector<SimTime> grown(slots_.empty() ? 8 : 2 * slots_.size());
  for (std::size_t i = 0; i < count_; ++i) {
    grown[i] = slots_[(head_ + i) & (slots_.size() - 1)];
  }
  slots_ = std::move(grown);
  head_ = 0;
}

}  // namespace iotsec::net
