#include "sdn/flow_table.h"

#include <algorithm>
#include <array>
#include <vector>

#include "sdn/microflow_cache.h"

namespace iotsec::sdn {

bool FlowMatch::Matches(const proto::ParsedFrame& frame,
                        int in_port_idx) const {
  if (in_port && *in_port != in_port_idx) return false;
  if (eth_src && frame.eth.src != *eth_src) return false;
  if (eth_dst && frame.eth.dst != *eth_dst) return false;
  if (ethertype && frame.eth.ethertype != *ethertype) return false;
  if (ip_src || ip_dst || ip_proto || l4_src || l4_dst) {
    if (!frame.ip) return false;
    if (ip_src && !ip_src->Contains(frame.ip->src)) return false;
    if (ip_dst && !ip_dst->Contains(frame.ip->dst)) return false;
    if (ip_proto && frame.ip->protocol != *ip_proto) return false;
    if (l4_src && frame.SrcPort() != *l4_src) return false;
    if (l4_dst && frame.DstPort() != *l4_dst) return false;
  }
  return true;
}

std::string FlowMatch::ToString() const {
  std::string out = "{";
  if (in_port) out += "in:" + std::to_string(*in_port) + " ";
  if (eth_src) out += "esrc:" + eth_src->ToString() + " ";
  if (eth_dst) out += "edst:" + eth_dst->ToString() + " ";
  if (ip_src) out += "src:" + ip_src->ToString() + " ";
  if (ip_dst) out += "dst:" + ip_dst->ToString() + " ";
  if (l4_src) out += "sport:" + std::to_string(*l4_src) + " ";
  if (l4_dst) out += "dport:" + std::to_string(*l4_dst) + " ";
  out += "}";
  return out;
}

FlowMatch FlowMatch::ToIp(net::Ipv4Address ip) {
  FlowMatch m;
  m.ip_dst = net::Ipv4Prefix(ip, 32);
  return m;
}

FlowMatch FlowMatch::FromIp(net::Ipv4Address ip) {
  FlowMatch m;
  m.ip_src = net::Ipv4Prefix(ip, 32);
  return m;
}

namespace {

// A FlowKey packed into four words (see Pack); masks use the same layout.
using Words = std::array<std::uint64_t, 4>;

constexpr std::uint64_t kMac = 0x0000ffffffffffffull;
constexpr std::uint64_t kTop16 = 0xffff000000000000ull;

std::uint64_t PrefixMask(const net::Ipv4Prefix& prefix) {
  const int len = prefix.Length();
  return len == 0 ? 0 : std::uint64_t{~std::uint32_t{0} << (32 - len)};
}

Words Pack(const FlowKey& k) {
  return {k.eth_src | std::uint64_t{k.ethertype} << 48,
          k.eth_dst | std::uint64_t{k.l4_src} << 48,
          std::uint64_t{k.ip_src} << 32 | k.ip_dst,
          std::uint64_t{static_cast<std::uint32_t>(k.in_port)} << 32 |
              std::uint64_t{k.l4_dst} << 16 | std::uint64_t{k.ip_proto} << 8};
}

Words And(const Words& a, const Words& b) {
  return {a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]};
}

/// The bits of a packed key that `m` inspects.
Words MaskOf(const FlowMatch& m) {
  Words w{};
  if (m.eth_src) w[0] |= kMac;
  if (m.ethertype) w[0] |= kTop16;
  if (m.eth_dst) w[1] |= kMac;
  if (m.l4_src) w[1] |= kTop16;
  if (m.ip_src) w[2] |= PrefixMask(*m.ip_src) << 32;
  if (m.ip_dst) w[2] |= PrefixMask(*m.ip_dst);
  if (m.in_port) w[3] |= 0xffffffff00000000ull;
  if (m.l4_dst) w[3] |= 0xffff0000ull;
  if (m.ip_proto) w[3] |= 0xff00ull;
  return w;
}

bool NeedsIp(const FlowMatch& m) {
  return m.ip_src || m.ip_dst || m.ip_proto || m.l4_src || m.l4_dst;
}

/// The packed key of any frame `m` accepts, before masking.
Words ValueOf(const FlowMatch& m) {
  FlowKey k;
  if (m.in_port) k.in_port = *m.in_port;
  if (m.eth_src) k.eth_src = FlowKey::PackMac(*m.eth_src);
  if (m.eth_dst) k.eth_dst = FlowKey::PackMac(*m.eth_dst);
  if (m.ethertype) k.ethertype = static_cast<std::uint16_t>(*m.ethertype);
  if (m.ip_src) k.ip_src = m.ip_src->Base().value();
  if (m.ip_dst) k.ip_dst = m.ip_dst->Base().value();
  if (m.ip_proto) k.ip_proto = static_cast<std::uint8_t>(*m.ip_proto);
  if (m.l4_src) k.l4_src = *m.l4_src;
  if (m.l4_dst) k.l4_dst = *m.l4_dst;
  return Pack(k);
}

/// Four independent multiplies (no dependency chain between words),
/// then one fold so the high product bits reach the slot index.
std::uint64_t HashWords(const Words& w) {
  std::uint64_t h = (w[0] * 0x9e3779b97f4a7c15ull) ^
                    (w[1] * 0xc2b2ae3d27d4eb4full) ^
                    (w[2] * 0x165667b19e3779f9ull) ^
                    (w[3] * 0xff51afd7ed558ccdull);
  h ^= h >> 32;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 29);
}

constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};

}  // namespace

std::size_t FlowTable::Install(FlowEntry entry) {
  ++generation_;
  // Behind every entry of equal or higher priority: ties keep install
  // order, so Entries() stays sorted by (-priority, install order).
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), entry.priority,
      [](int priority, const FlowEntry& e) { return priority > e.priority; });
  entries_.insert(it, std::move(entry));
  return next_seq_++;
}

std::size_t FlowTable::RemoveByCookie(std::uint64_t cookie) {
  const std::size_t removed = std::erase_if(
      entries_, [cookie](const FlowEntry& e) { return e.cookie == cookie; });
  if (removed > 0) ++generation_;
  return removed;
}

std::size_t FlowTable::RemoveOlderThan(std::uint64_t min_version) {
  const std::size_t removed =
      std::erase_if(entries_, [min_version](const FlowEntry& e) {
        return e.version < min_version;
      });
  if (removed > 0) ++generation_;
  return removed;
}

void FlowTable::RebuildIndex() const {
  subtables_.clear();
  // Pass 1: group entries by mask. entries_ is in rank order, so each
  // subtable is created at its best entry and subtables_ comes out
  // sorted by `first`. slot_mask counts members until pass 2.
  std::vector<std::uint32_t> owner(entries_.size());
  for (std::uint32_t rank = 0; rank < entries_.size(); ++rank) {
    const FlowMatch& m = entries_[rank].match;
    const Words mask = MaskOf(m);
    const bool needs_ip = NeedsIp(m);
    auto st = std::find_if(
        subtables_.begin(), subtables_.end(), [&](const Subtable& s) {
          return s.mask == mask && s.needs_ip == needs_ip;
        });
    if (st == subtables_.end()) {
      st = subtables_.insert(st, Subtable{mask, needs_ip, rank, 0, 0});
    }
    ++st->slot_mask;
    owner[rank] = static_cast<std::uint32_t>(st - subtables_.begin());
  }
  // Size each hash at a load factor of at most 1/2.
  std::uint32_t total = 0;
  for (Subtable& st : subtables_) {
    std::uint32_t slots = 2;
    while (slots < 2 * st.slot_mask) slots <<= 1;
    st.offset = total;
    st.slot_mask = slots - 1;
    total += slots;
  }
  slots_.assign(total, Slot{{}, kEmptySlot});
  // Pass 2: the first entry (best rank) to claim a masked key keeps it;
  // later entries with the same key can never win a lookup.
  for (std::uint32_t rank = 0; rank < entries_.size(); ++rank) {
    const Subtable& st = subtables_[owner[rank]];
    const Words key = And(ValueOf(entries_[rank].match), st.mask);
    Slot* slots = slots_.data() + st.offset;
    for (std::uint64_t i = HashWords(key);; ++i) {
      Slot& slot = slots[i & st.slot_mask];
      if (slot.entry == kEmptySlot) {
        slot = Slot{key, rank};
        break;
      }
      if (slot.key == key) break;
    }
  }
  indexed_generation_ = generation_;
}

const FlowEntry* FlowTable::Classify(const FlowKey& key,
                                     std::size_t frame_bytes) const {
  if (indexed_generation_ != generation_) RebuildIndex();
  const Words packed = Pack(key);
  const bool has_ip = (key.flags & FlowKey::kHasIp) != 0;
  std::uint32_t best = kEmptySlot;
  for (const Subtable& st : subtables_) {
    // Every entry here ranks at or below `first`: nothing left can win.
    if (st.first >= best) break;
    if (st.needs_ip && !has_ip) continue;
    const Words masked = And(packed, st.mask);
    const Slot* slots = slots_.data() + st.offset;
    for (std::uint64_t i = HashWords(masked);; ++i) {
      const Slot& slot = slots[i & st.slot_mask];
      if (slot.entry == kEmptySlot) break;
      if (slot.key == masked) {
        best = std::min(best, slot.entry);
        break;
      }
    }
  }
  if (best == kEmptySlot) return nullptr;
  const FlowEntry& entry = entries_[best];
  if (frame_bytes > 0) {
    ++entry.packets;
    entry.bytes += frame_bytes;
  }
  return &entry;
}

const FlowEntry* FlowTable::Lookup(const proto::ParsedFrame& frame,
                                   int in_port,
                                   std::size_t frame_bytes) const {
  return Classify(FlowKey::FromFrame(frame, in_port), frame_bytes);
}

const FlowEntry* FlowTable::LookupCached(MicroflowCache& cache,
                                         const proto::ParsedFrame& frame,
                                         int in_port,
                                         std::size_t frame_bytes) const {
  const FlowKey key = FlowKey::FromFrame(frame, in_port);
  const std::uint64_t hash = key.Hash();
  const FlowEntry* entry = nullptr;
  if (cache.Find(key, hash, generation_, &entry)) {
    // A fresh-generation hit means the table is untouched since the
    // verdict was cached, so the pointer is still valid.
    if (entry != nullptr && frame_bytes > 0) {
      ++entry->packets;
      entry->bytes += frame_bytes;
    }
    return entry;
  }
  entry = Classify(key, frame_bytes);
  cache.Insert(key, hash, entry, generation_);
  return entry;
}

}  // namespace iotsec::sdn
