// The adversary.
//
// A network node (LAN-resident or beyond the gateway) implementing the
// attack primitives behind every incident the paper cites: default-
// credential logins, credential brute force, exposed-management access,
// firmware key exfiltration, IoTCtl backdoor commands, spoofed-source DNS
// amplification, and multi-stage compositions of these.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/link.h"
#include "net/packet.h"
#include "proto/dns.h"
#include "proto/frame.h"
#include "proto/http.h"
#include "proto/iotctl.h"
#include "sim/simulator.h"

namespace iotsec::devices {

struct AttackOutcome {
  std::string name;
  bool succeeded = false;
  std::string detail;
};

class Attacker final : public net::PacketSink {
 public:
  Attacker(net::MacAddress mac, net::Ipv4Address ip,
           sim::Simulator& simulator);

  void ConnectUplink(net::Link* link, int my_end);

  [[nodiscard]] net::Ipv4Address ip() const { return ip_; }
  [[nodiscard]] net::MacAddress mac() const { return mac_; }

  using HttpCallback = std::function<void(const proto::HttpResponse&)>;
  using IotCallback = std::function<void(const proto::IotCtlMessage&)>;

  /// Issues an HTTP GET; `auth` adds a Basic Authorization header.
  /// The callback fires when (if) a response arrives.
  void HttpGet(net::Ipv4Address target_ip, net::MacAddress target_mac,
               std::string path,
               std::optional<std::pair<std::string, std::string>> auth,
               HttpCallback on_response);

  /// Sends an IoTCtl command (optionally with token and/or backdoor flag).
  void SendIotCommand(net::Ipv4Address target_ip, net::MacAddress target_mac,
                      proto::IotCommand cmd,
                      std::optional<std::string> token, bool backdoor,
                      IotCallback on_response,
                      std::vector<proto::IotTlv> extra_tlvs = {});

  /// Tries each password against the target's HTTP /admin until one
  /// succeeds; reports the cracked credential (or failure) when done.
  void BruteForceHttp(net::Ipv4Address target_ip, net::MacAddress target_mac,
                      std::vector<std::string> passwords,
                      std::function<void(std::optional<std::string>)> done,
                      SimDuration spacing = 20 * kMillisecond);

  /// Classic reflection attack: `count` spoofed-source ANY queries at the
  /// open resolver; responses land on the victim, not on us.
  void DnsAmplify(net::Ipv4Address reflector_ip,
                  net::MacAddress reflector_mac, net::Ipv4Address victim_ip,
                  int count, SimDuration spacing = 5 * kMillisecond);

  /// Raw frame injection (used by scripted multi-stage attacks).
  void SendFrame(Bytes frame);

  /// Total bytes of responses this attacker has received (exfil volume).
  [[nodiscard]] std::uint64_t BytesReceived() const { return bytes_in_; }
  [[nodiscard]] std::uint64_t FramesSent() const { return frames_out_; }

  /// Source addresses that have answered this node's DNS queries —
  /// open-resolver discovery for the scanner.
  [[nodiscard]] const std::set<net::Ipv4Address>& DnsAnswersFrom() const {
    return dns_answers_from_;
  }

  // net::PacketSink
  void Receive(net::PacketPtr pkt, int port) override;

 private:
  std::uint16_t NextPort() { return next_port_++; }
  void SendPacket(net::PacketPtr pkt);

  net::MacAddress mac_;
  net::Ipv4Address ip_;
  sim::Simulator& sim_;
  net::Link* uplink_ = nullptr;
  int uplink_end_ = 0;

  std::map<std::uint16_t, HttpCallback> pending_http_;  // by our src port
  std::map<std::uint16_t, IotCallback> pending_iot_;    // by IoTCtl seq
  std::uint16_t next_port_ = 40000;
  std::uint16_t next_seq_ = 1;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t frames_out_ = 0;
  std::set<net::Ipv4Address> dns_answers_from_;
};

/// A passive node that counts bytes/frames addressed to it — the DDoS
/// victim in amplification experiments.
class VictimSink final : public net::PacketSink {
 public:
  VictimSink(net::MacAddress mac, net::Ipv4Address ip) : mac_(mac), ip_(ip) {}

  void ConnectUplink(net::Link* link, int my_end) {
    link->Attach(my_end, this, 0);
  }

  void Receive(net::PacketPtr pkt, int port) override;

  [[nodiscard]] std::uint64_t BytesReceived() const { return bytes_; }
  [[nodiscard]] std::uint64_t FramesReceived() const { return frames_; }
  [[nodiscard]] net::Ipv4Address ip() const { return ip_; }
  [[nodiscard]] net::MacAddress mac() const { return mac_; }

 private:
  net::MacAddress mac_;
  net::Ipv4Address ip_;
  std::uint64_t bytes_ = 0;
  std::uint64_t frames_ = 0;
};

}  // namespace iotsec::devices
