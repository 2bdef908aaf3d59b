#include "net/packet.h"

#include "obs/obs.h"

namespace iotsec::net {

void SetPacketTracing(bool enabled) { Packet::tracing_enabled_ = enabled; }

namespace {
thread_local PacketPool* t_bound_pool = nullptr;
}  // namespace

PacketPool& PacketPool::Global() {
  static PacketPool pool;
  return pool;
}

PacketPool& PacketPool::Current() {
  return t_bound_pool ? *t_bound_pool : Global();
}

void PacketPool::BindToThisThread(PacketPool* pool) { t_bound_pool = pool; }

template <class T>
struct PacketPool::BlockAllocator {
  using value_type = T;

  explicit BlockAllocator(PacketPool* owner) : pool(owner) {}
  template <class U>
  BlockAllocator(const BlockAllocator<U>& other) : pool(other.pool) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool->AllocateBlock(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) { pool->FreeBlock(p, n * sizeof(T)); }

  friend bool operator==(const BlockAllocator& a, const BlockAllocator& b) {
    return a.pool == b.pool;
  }

  PacketPool* pool;
};

PacketPool::~PacketPool() {
  for (void* block : free_blocks_) ::operator delete(block);
}

void* PacketPool::AllocateBlock(std::size_t bytes) {
  if (enabled_ && bytes == block_bytes_ && !free_blocks_.empty()) {
    void* block = free_blocks_.back();
    free_blocks_.pop_back();
    return block;
  }
  return ::operator new(bytes);
}

void PacketPool::FreeBlock(void* block, std::size_t bytes) {
  // Same rule as Release(): only the owning thread touches the free list.
  if (&Current() != this || !enabled_ || free_blocks_.size() >= max_free_ ||
      (block_bytes_ != 0 && bytes != block_bytes_)) {
    ::operator delete(block);
    return;
  }
  block_bytes_ = bytes;
  free_blocks_.push_back(block);
}

PacketPtr PacketPool::Wrap(std::unique_ptr<Packet> pkt) {
  live_.fetch_add(1, std::memory_order_relaxed);
  return PacketPtr(pkt.release(), [this](Packet* raw) { Release(raw); },
                   BlockAllocator<Packet>(this));
}

void PacketPool::PublishOccupancy() const {
  if (obs::Enabled()) {
    obs::M().net_pool_free->Set(static_cast<std::int64_t>(free_.size()));
  }
}

PacketPtr PacketPool::Acquire() {
  if (!enabled_ || free_.empty()) {
    obs::M().fastpath_pool_fresh->Inc();
    return Wrap(std::make_unique<Packet>());
  }
  obs::M().fastpath_pool_reused->Inc();
  std::unique_ptr<Packet> pkt = std::move(free_.back());
  free_.pop_back();
  PublishOccupancy();
  return Wrap(std::move(pkt));
}

PacketPtr PacketPool::Acquire(Bytes data) {
  PacketPtr pkt = Acquire();
  // Move-assignment frees the recycled buffer and adopts `data`'s; a
  // caller that builds its frame should write into Acquire()'s instead.
  pkt->data_ = std::move(data);
  return pkt;
}

PacketPtr PacketPool::Clone(const Packet& src) {
  PacketPtr pkt = Acquire();
  // Copy-assignment reuses the recycled byte/trace capacity.
  *pkt = src;
  return pkt;
}

void PacketPool::Release(Packet* pkt) {
  live_.fetch_sub(1, std::memory_order_relaxed);
  // A cross-shard handoff can drop the last reference on a thread bound
  // to a different pool (or to none of the shard pools). Recycling into
  // free_ from here would race with the owner; deleting is always safe.
  if (&Current() != this) {
    foreign_releases_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Enabled()) obs::M().net_pool_foreign_release->Inc();
    delete pkt;
    return;
  }
  if (!enabled_ || free_.size() >= max_free_) {
    delete pkt;
    return;
  }
  pkt->ResetForReuse();
  free_.emplace_back(pkt);
  // Occupancy is published on both sides of the pool: releases capture
  // the high-water mark, and Acquire/Clone (above) capture the drawdown
  // so an acquire burst can't leave the gauge stale while admission
  // control is reading it. The idle fast path (pool disabled) still
  // pays nothing.
  PublishOccupancy();
}

PacketPtr TunnelEncap(const Packet& inner, const MacAddress& src_mac,
                      const MacAddress& dst_mac,
                      const proto::TunnelHeader& header) {
  PacketPtr outer = MakePacket();
  proto::EncapsulateInto(outer->MutableData(), src_mac, dst_mac, header,
                         inner.data());
  outer->created_at = inner.created_at;
  outer->CopyTraceFrom(inner);
  return outer;
}

PacketPtr TunnelDecap(const Packet& outer,
                      std::span<const std::uint8_t> inner_frame) {
  PacketPtr inner = MakePacket();
  inner->MutableData().assign(inner_frame.begin(), inner_frame.end());
  inner->created_at = outer.created_at;
  inner->CopyTraceFrom(outer);
  return inner;
}

}  // namespace iotsec::net
