// OpenFlow-like match/action flow tables.
//
// The IoTSec controller programs edge switches with these entries to steer
// each device's traffic through its µmbox chain (Figure 2). Matching is
// priority-ordered with wildcardable fields; actions cover forwarding,
// flooding, dropping, tunneling to a µmbox, and punting to the controller.
//
// Classification is a tuple-space search (the Open vSwitch megaflow
// classifier's technique): entries are grouped by mask — which fields
// are set, plus the ip_src/ip_dst prefix lengths — into subtables, each
// an open-addressing hash from masked key to the best entry holding that
// key. A lookup costs one probe per distinct mask, not one match per rule.
//
// Mutations are cheap in bulk: installs append to a pending run that the
// first read after them merges into the rank-ordered entries in one pass,
// so a burst of k installs into n entries costs O(n + k log k) rather
// than a vector shift per install, and a per-cookie count answers the
// removal of an absent cookie without scanning the table.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "net/address.h"
#include "proto/frame.h"
#include "sdn/flow_key.h"

namespace iotsec::sdn {

struct FlowMatch {
  std::optional<int> in_port;
  std::optional<net::MacAddress> eth_src;
  std::optional<net::MacAddress> eth_dst;
  std::optional<proto::EtherType> ethertype;
  std::optional<net::Ipv4Prefix> ip_src;
  std::optional<net::Ipv4Prefix> ip_dst;
  std::optional<proto::IpProto> ip_proto;
  std::optional<std::uint16_t> l4_src;
  std::optional<std::uint16_t> l4_dst;

  [[nodiscard]] bool Matches(const proto::ParsedFrame& frame,
                             int in_port_idx) const;
  [[nodiscard]] std::string ToString() const;

  /// Match everything (table-miss entry).
  static FlowMatch Any() { return {}; }
  /// All traffic to/from a device IP.
  static FlowMatch ToIp(net::Ipv4Address ip);
  static FlowMatch FromIp(net::Ipv4Address ip);
};

enum class ActionType : std::uint8_t {
  kOutput,         // forward out a port
  kFlood,          // all ports except ingress
  kDrop,
  kToController,   // PacketIn
  kTunnelToUmbox,  // encapsulate and forward toward the µmbox cluster
};

struct FlowAction {
  ActionType type = ActionType::kDrop;
  int out_port = -1;     // kOutput / kTunnelToUmbox: port toward target
  UmboxId umbox = 0;     // kTunnelToUmbox: VNI

  static FlowAction Output(int port) {
    return {ActionType::kOutput, port, 0};
  }
  static FlowAction Flood() { return {ActionType::kFlood, -1, 0}; }
  static FlowAction Drop() { return {ActionType::kDrop, -1, 0}; }
  static FlowAction ToController() {
    return {ActionType::kToController, -1, 0};
  }
  static FlowAction Tunnel(UmboxId umbox, int port) {
    return {ActionType::kTunnelToUmbox, port, umbox};
  }
};

struct FlowEntry {
  int priority = 0;
  FlowMatch match;
  std::vector<FlowAction> actions;
  /// Policy-engine version that installed this entry; consistent updates
  /// replace whole versions atomically (§5.1's consistency concern).
  std::uint64_t version = 0;
  std::uint64_t cookie = 0;  // opaque owner tag (e.g. device id)

  // Runtime stats.
  mutable std::uint64_t packets = 0;
  mutable std::uint64_t bytes = 0;
};

class MicroflowCache;

/// Single-owner contract: a table is used by one thread at a time (the
/// shard that owns its switch). Lookup is const but writes `mutable`
/// state — the matched entry's packets/bytes counters and, on the first
/// lookup after a mutation, the pending installs it merges and the
/// classifier index it rebuilds lazily — so concurrent lookups on one
/// table are a data race, as are lookups concurrent with mutation.
/// Entries() merges pending installs too.
class FlowTable {
 public:
  /// Installs an entry behind every entry of equal or higher priority.
  /// Returns the entry's install sequence number (monotonic per table,
  /// never reused); it is not a position in Entries(). Amortized O(1):
  /// the entry joins the pending run, which the next read (Entries() or
  /// the lazy classifier rebuild) merges into rank order, moving each
  /// settled entry at most once per burst.
  std::size_t Install(FlowEntry entry);

  /// Removes all entries with the given cookie. Returns count removed.
  /// O(1) when no entry carries the cookie (generation() unchanged);
  /// otherwise merges the pending run and erases in one pass.
  std::size_t RemoveByCookie(std::uint64_t cookie);

  /// Removes every entry whose version is older than `min_version`
  /// (two-phase consistent update: install new version, then sweep).
  std::size_t RemoveOlderThan(std::uint64_t min_version);

  void Clear();

  /// Highest-priority matching entry (ties: earliest installed) — the
  /// first entry of Entries() whose match accepts the frame. Updates the
  /// entry's counters when `frame_bytes` > 0. Allocation-free once the
  /// index is built.
  [[nodiscard]] const FlowEntry* Lookup(const proto::ParsedFrame& frame,
                                        int in_port,
                                        std::size_t frame_bytes = 0) const;

  /// Same classification as Lookup, but answered from `cache` when it
  /// holds a fresh verdict for the frame's exact flow; falls back to the
  /// classifier (and populates the cache) otherwise. Entry counters are
  /// updated either way.
  const FlowEntry* LookupCached(MicroflowCache& cache,
                                const proto::ParsedFrame& frame, int in_port,
                                std::size_t frame_bytes = 0) const;

  /// Bumped on every mutation (install/remove/clear); microflow-cache
  /// verdicts recorded under an older generation are never served, and
  /// the classifier index is rebuilt when it lags behind.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Installed entries, pending ones included.
  [[nodiscard]] std::size_t Size() const {
    return entries_.size() + pending_.size();
  }
  /// Entries in rank order: (-priority, install order).
  [[nodiscard]] const std::vector<FlowEntry>& Entries() const {
    Settle();
    return entries_;
  }

 private:
  /// A FlowKey packed into four words so masking is four ANDs.
  using Words = std::array<std::uint64_t, 4>;

  struct Subtable {
    Words mask{};
    bool needs_ip = false;    // some field is IP/L4: non-IP frames skip it
    std::uint32_t first = 0;  // rank (index into entries_) of its best entry
    std::uint32_t offset = 0;     // first slot in slots_
    std::uint32_t slot_mask = 0;  // slot count - 1 (a power of two)
  };
  struct Slot {
    Words key{};
    std::uint32_t entry = 0;  // rank of the best entry with this key
  };

  const FlowEntry* Classify(const FlowKey& key, std::size_t frame_bytes) const;
  void RebuildIndex() const;
  /// Merges pending_ into entries_ (no-op when nothing is pending).
  void Settle() const;

  // Settled entries in rank order, then installs since the last read in
  // install order (each installed after every settled entry). Reads
  // settle first, so only mutations ever see pending_ non-empty.
  mutable std::vector<FlowEntry> entries_;
  mutable std::vector<FlowEntry> pending_;
  // Entries (settled or pending) per cookie; absent cookies have no key.
  std::unordered_map<std::uint64_t, std::size_t> cookie_counts_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t generation_ = 0;

  // Classifier index over entries_, valid while indexed_generation_ ==
  // generation_. Subtables are in order of `first`, so a lookup stops at
  // the first subtable that cannot beat its best hit.
  mutable std::vector<Subtable> subtables_;
  mutable std::vector<Slot> slots_;
  mutable std::uint64_t indexed_generation_ = 0;
};

}  // namespace iotsec::sdn
