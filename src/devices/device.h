// Base class for simulated IoT devices.
//
// A Device is an FSM with a NIC, an optional coupling to the physical
// environment, and a vulnerability profile drawn from Table 1 of the
// paper. Devices speak IoTCtl (actuation/telemetry), HTTP-lite (management
// interfaces) and DNS-lite (the open-resolver flaw), and report state
// transitions as IoTCtl events to a configured hub/controller address.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "net/link.h"
#include "net/packet.h"
#include "proto/dns.h"
#include "proto/frame.h"
#include "proto/http.h"
#include "proto/iotctl.h"
#include "sim/simulator.h"

namespace iotsec::devices {

enum class DeviceClass : std::uint8_t {
  kCamera,
  kSmartPlug,
  kThermostat,
  kFireAlarm,
  kWindowActuator,
  kSmartLock,
  kLightBulb,
  kLightSensor,
  kSmartOven,
  kTrafficLight,
  kSetTopBox,
  kRefrigerator,
  kMotionSensor,
  kHandheldScanner,
  kAttacker,
};

std::string_view DeviceClassName(DeviceClass cls);

/// Vulnerability classes, one per Table 1 row family.
enum class Vulnerability : std::uint8_t {
  kDefaultPassword,   // rows 1: hardcoded admin/admin style credentials
  kExposedAccess,     // rows 2,3,7: management reachable with no auth
  kUnprotectedKeys,   // row 4: RSA private key in downloadable firmware
  kNoCredentials,     // row 5: actuation accepts commands with no token
  kOpenDnsResolver,   // row 6: answers recursive DNS for anyone
  kBackdoor,          // row 7: hidden channel bypassing the companion app
};

std::string_view VulnerabilityName(Vulnerability v);

struct DeviceSpec {
  DeviceId id = 0;
  std::string name;          // "living-room-camera"
  DeviceClass cls = DeviceClass::kCamera;
  std::string vendor;        // "Avtech"
  std::string sku;           // "Avtech-AVN801" — granularity of §4.1 sharing
  net::MacAddress mac;
  net::Ipv4Address ip;
  std::set<Vulnerability> vulns;
  /// The legitimate credential (IoTCtl auth token / HTTP password). With
  /// kDefaultPassword this is a well-known value the attacker can guess.
  std::string credential = "factory-default";
  /// RAM in KB — decides whether host antivirus is even installable
  /// (baseline F1; the paper notes most IoT MCUs have <= 2MB).
  int ram_kb = 512;
  /// Destination for telemetry events (hub / controller ingest).
  net::Ipv4Address hub_ip;
  net::MacAddress hub_mac;
};

class Device : public net::PacketSink {
 public:
  /// `initial_state` is the FSM state the device boots into (the first
  /// state of its model), so State() is in the model's domain before
  /// Start() too.
  Device(DeviceSpec spec, sim::Simulator& simulator, env::Environment* env,
         std::string initial_state);
  ~Device() override;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] DeviceId id() const { return spec_.id; }

  /// Current FSM state name ("on", "off", "streaming", "alarm", ...).
  [[nodiscard]] const std::string& State() const { return state_; }

  /// True if the device carries the given flaw.
  [[nodiscard]] bool Has(Vulnerability v) const {
    return spec_.vulns.count(v) > 0;
  }

  /// Attaches the device's single NIC to a link endpoint.
  void ConnectUplink(net::Link* link, int my_end);

  /// Called by the simulation when the device boots; subclasses register
  /// timers/sensors here.
  virtual void Start() {}

  /// Instrumented-testbed hook (§4.2): actuates the device directly with
  /// a legitimate credential, bypassing the network. The fuzzer uses this
  /// to explore the device x environment interaction space.
  std::string Actuate(proto::IotCommand cmd, const std::string& arg = "");

  /// Smartphone/cloud management model (§2.2): the device phones home to
  /// its vendor cloud with periodic keepalives from a fixed source port,
  /// which is exactly what lets cloud-originated commands ride back
  /// through perimeter firewalls as "replies to an established
  /// connection". Commands arriving on the keepalive flow are processed
  /// like any other IoTCtl traffic.
  void StartCloudKeepalive(net::Ipv4Address cloud_ip,
                           net::MacAddress cloud_mac,
                           SimDuration period = 10 * kSecond);
  [[nodiscard]] std::uint16_t CloudPort() const { return kCloudPort; }

  static constexpr std::uint16_t kCloudPort = 30100;

  // net::PacketSink
  void Receive(net::PacketPtr pkt, int port) override;

  /// Stats exposed to tests and benches.
  struct Stats {
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t commands_accepted = 0;
    std::uint64_t commands_denied = 0;
    std::uint64_t auth_failures = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  /// Transitions the FSM and emits a telemetry event to the hub.
  void SetState(std::string new_state);
  /// Emits the current state to the hub. Every model whose boot state is
  /// not "idle" sends it from Start(), as it always has; camera,
  /// thermostat and set-top box boot silently.
  void ReportState() { SendEvent("state", state_); }

  /// Checks an IoTCtl credential against the vulnerability profile:
  /// - kNoCredentials accepts everything;
  /// - kBackdoor accepts anything with the backdoor flag;
  /// - otherwise the token must equal the configured credential.
  [[nodiscard]] bool Authorized(const proto::IotCtlMessage& msg) const;

  /// Same logic for HTTP Basic credentials.
  [[nodiscard]] bool AuthorizedHttp(const proto::HttpRequestView& req) const;

  void SendFrame(Bytes frame);
  /// Replies to `req` with src/dst (mac, ip, ports) swapped.
  void SendUdpReply(const proto::ParsedFrame& req,
                    std::span<const std::uint8_t> payload);
  /// TCP reply carrying `resp`, serialized straight into a pooled packet.
  void SendHttpReply(const proto::ParsedFrame& req,
                     const proto::HttpResponse& resp);
  /// Pushes an IoTCtl event {sensor, reading} to the hub.
  void SendEvent(std::string sensor, std::string reading);

  // Protocol hooks; default implementations deny/ignore.
  virtual void HandleIotCtl(const proto::ParsedFrame& frame,
                            const proto::IotCtlMessage& msg);
  /// `req` views `frame`'s payload.
  virtual void HandleHttp(const proto::ParsedFrame& frame,
                          const proto::HttpRequestView& req);
  virtual void HandleDns(const proto::ParsedFrame& frame,
                         const proto::DnsMessage& query);
  /// Raw hook for anything else (TCP SYNs, unknown ports).
  virtual void HandleOther(const proto::ParsedFrame& frame);

  /// Executes an authorized command; subclasses implement semantics and
  /// return the result code ("ok"/"error"/"unsupported").
  virtual std::string Execute(const proto::IotCtlMessage& msg) = 0;

  sim::Simulator& sim_;
  env::Environment* env_;  // may be null for purely network devices
  DeviceSpec spec_;
  Stats stats_;

 private:
  void SendPacket(net::PacketPtr pkt);
  void RespondToCommand(const proto::ParsedFrame& frame,
                        const proto::IotCtlMessage& msg);

  std::string state_;
  net::Link* uplink_ = nullptr;
  int uplink_end_ = 0;
  std::uint16_t next_seq_ = 1;
};

}  // namespace iotsec::devices
