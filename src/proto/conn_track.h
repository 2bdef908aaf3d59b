// TCP/UDP connection tracking for the stateful-firewall µmbox element.
//
// Tracks 5-tuples through a simplified TCP state machine plus a pseudo
// state for UDP "connections" (request seen → replies allowed until idle
// timeout). This is the `State, Match → Action` strawman of §3.1 made
// concrete, and the building block the paper's enforcement layer still
// needs for conventional protections.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/types.h"
#include "net/address.h"
#include "proto/frame.h"

namespace iotsec::proto {

struct FiveTuple {
  net::Ipv4Address src;
  net::Ipv4Address dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  IpProto protocol = IpProto::kTcp;

  /// Canonical direction-insensitive key: orders the endpoints so both
  /// directions of a flow map to the same entry.
  [[nodiscard]] FiveTuple Canonical() const;
  [[nodiscard]] bool IsForward(const FiveTuple& canonical) const;

  bool operator==(const FiveTuple&) const = default;

  /// Extracts the 5-tuple from a parsed frame; false if not IP+L4.
  static bool FromFrame(const ParsedFrame& frame, FiveTuple& out);
};

struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    std::size_t h = std::hash<std::uint32_t>{}(t.src.value());
    h = h * 1000003 ^ std::hash<std::uint32_t>{}(t.dst.value());
    h = h * 1000003 ^ t.src_port;
    h = h * 1000003 ^ t.dst_port;
    h = h * 1000003 ^ static_cast<std::uint8_t>(t.protocol);
    return h;
  }
};

enum class ConnState : std::uint8_t {
  kNone = 0,      // unknown flow
  kSynSent,       // initiator SYN seen
  kSynReceived,   // responder SYN-ACK seen
  kEstablished,   // handshake complete (or UDP exchange underway)
  kFinWait,       // one side has sent FIN
  kClosed,        // both FINs or RST seen
};

class ConnectionTracker {
 public:
  /// The table never holds more flows than this. A new flow that finds
  /// it full after a sweep is not tracked (counted in RefusedFlows()), so
  /// its replies are dropped; flows already tracked keep working.
  static constexpr std::size_t kMaxEntries = 65536;
  /// A full table is swept for idle entries at most once per this much
  /// sim time, and never before some entry can have gone idle, so a
  /// flood of new flows costs a lookup each, not a scan.
  static constexpr SimDuration kFullSweepInterval = kSecond;

  struct Config {
    SimDuration udp_idle_timeout = 30 * kSecond;
  };

  ConnectionTracker() = default;
  explicit ConnectionTracker(Config config) : config_(config) {}

  /// Advances the flow's state machine with this frame and returns the
  /// state *after* the update. `now` drives idle eviction.
  ConnState Update(const ParsedFrame& frame, SimTime now);

  /// Current state without mutating (kNone if untracked or idle-expired).
  [[nodiscard]] ConnState Lookup(const FiveTuple& tuple, SimTime now) const;

  /// True if this frame belongs to a flow that was initiated from the
  /// direction the firewall trusts (i.e. the canonical forward side).
  /// Stateful firewalls use this to admit only reply traffic.
  [[nodiscard]] bool IsReplyToTracked(const ParsedFrame& frame,
                                      SimTime now) const;

  [[nodiscard]] std::size_t ActiveConnections() const {
    return table_.size();
  }
  /// New flows left untracked because the table was full.
  [[nodiscard]] std::uint64_t RefusedFlows() const { return refused_; }

 private:
  static constexpr SimDuration kTcpIdleTimeout = 5 * kMinute;

  struct Entry {
    ConnState state = ConnState::kNone;
    SimTime last_seen = 0;
    bool forward_is_initiator = true;
  };

  [[nodiscard]] SimDuration TimeoutFor(IpProto proto) const {
    return proto == IpProto::kTcp ? kTcpIdleTimeout : config_.udp_idle_timeout;
  }
  /// True when a new flow may take an entry: the table has room, or a
  /// sweep made some. Counts a refusal otherwise.
  bool RoomForNewFlow(SimTime now);
  /// Removes every entry idle past its protocol's timeout.
  void EvictIdle(SimTime now);

  Config config_;
  std::unordered_map<FiveTuple, Entry, FiveTupleHash> table_;
  SimTime next_full_sweep_ = 0;
  /// No entry can go idle before this (a lower bound: entries only ever
  /// move their expiry later).
  SimTime first_expiry_ = 0;
  std::uint64_t refused_ = 0;
};

}  // namespace iotsec::proto
