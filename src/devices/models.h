// Concrete IoT device models.
//
// Each class mirrors a device from the paper's scenarios (Tables 1-2,
// Figures 3-5): the D-Link/Avtech camera, Belkin Wemo smart plug, NEST
// thermostat, fire alarm, window actuator, traffic light, set-top box,
// smart refrigerator, and friends. FSM states are deliberately small —
// they are the C_i / device-state inputs of the policy layer.
#pragma once

#include "devices/device.h"

namespace iotsec::devices {

/// IP camera with an HTTP management interface.
/// States: "idle" | "person_detected" | "streaming".
class Camera final : public Device {
 public:
  Camera(DeviceSpec spec, sim::Simulator& simulator, env::Environment* env);

  void Start() override;

 protected:
  void HandleHttp(const proto::ParsedFrame& frame,
                  const proto::HttpRequestView& req) override;
  std::string Execute(const proto::IotCtlMessage& msg) override;

 private:
  int env_subscription_ = 0;
};

/// Belkin-Wemo-style smart plug. Actuating it drives `attached_env_var`
/// (e.g. "oven_power"). May run an open DNS resolver (Table 1 row 6) and
/// a backdoor control channel (row 7). States: "off" | "on".
class SmartPlug final : public Device {
 public:
  SmartPlug(DeviceSpec spec, sim::Simulator& simulator,
            env::Environment* env, std::string attached_env_var);

  void Start() override;

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;
  void HandleDns(const proto::ParsedFrame& frame,
                 const proto::DnsMessage& query) override;

 private:
  std::string attached_env_var_;
};

/// NEST-style thermostat: polls temperature and drives "hvac_on".
/// States: "idle" | "cooling".
class Thermostat final : public Device {
 public:
  Thermostat(DeviceSpec spec, sim::Simulator& simulator,
             env::Environment* env, double setpoint_c = 24.0);

  void Start() override;

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;

 private:
  void Poll();
  double setpoint_;
};

/// Smoke/CO alarm (NEST Protect). States: "ok" | "alarm".
class FireAlarm final : public Device {
 public:
  FireAlarm(DeviceSpec spec, sim::Simulator& simulator,
            env::Environment* env);
  void Start() override;

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;
};

/// Motorized window. States: "closed" | "open".
class WindowActuator final : public Device {
 public:
  WindowActuator(DeviceSpec spec, sim::Simulator& simulator,
                 env::Environment* env);
  void Start() override;

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;
};

/// Door lock. States: "locked" | "unlocked".
class SmartLock final : public Device {
 public:
  SmartLock(DeviceSpec spec, sim::Simulator& simulator,
            env::Environment* env);
  void Start() override;

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;
};

/// Connected bulb driving "bulb_on". States: "off" | "on".
class LightBulb final : public Device {
 public:
  LightBulb(DeviceSpec spec, sim::Simulator& simulator,
            env::Environment* env);
  void Start() override;

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;
};

/// Ambient light sensor reporting "illuminance" bands.
/// States: "dark" | "bright".
class LightSensor final : public Device {
 public:
  LightSensor(DeviceSpec spec, sim::Simulator& simulator,
              env::Environment* env);
  void Start() override;

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;
};

/// Oven with its own network interface driving "oven_power".
/// States: "off" | "on".
class SmartOven final : public Device {
 public:
  SmartOven(DeviceSpec spec, sim::Simulator& simulator,
            env::Environment* env);
  void Start() override;

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;
};

/// Municipal traffic light (Table 1 row 5 ships with no credentials).
/// States: "red" | "yellow" | "green".
class TrafficLight final : public Device {
 public:
  TrafficLight(DeviceSpec spec, sim::Simulator& simulator,
               env::Environment* env);
  void Start() override;

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;
};

/// TV set-top box with an exposed HTTP management page (Table 1 row 2).
class SetTopBox final : public Device {
 public:
  SetTopBox(DeviceSpec spec, sim::Simulator& simulator,
            env::Environment* env);

 protected:
  void HandleHttp(const proto::ParsedFrame& frame,
                  const proto::HttpRequestView& req) override;
  std::string Execute(const proto::IotCtlMessage& msg) override;
};

/// Smart refrigerator (Table 1 row 3). Once compromised it becomes a spam
/// bot — the "fridge sends spam" incident from the paper's introduction.
class Refrigerator final : public Device {
 public:
  Refrigerator(DeviceSpec spec, sim::Simulator& simulator,
               env::Environment* env);
  void Start() override;

  /// Turns the fridge into a spam bot emitting SMTP-ish frames to the
  /// given mail-relay address every `interval`.
  void BecomeSpamBot(net::Ipv4Address relay, net::MacAddress relay_mac,
                     SimDuration interval = kSecond);
  [[nodiscard]] std::uint64_t SpamSent() const { return spam_sent_; }

 protected:
  void HandleHttp(const proto::ParsedFrame& frame,
                  const proto::HttpRequestView& req) override;
  std::string Execute(const proto::IotCtlMessage& msg) override;

 private:
  std::uint64_t spam_sent_ = 0;
};

/// Occupancy sensor feeding "occupancy" events to the hub.
class MotionSensor final : public Device {
 public:
  MotionSensor(DeviceSpec spec, sim::Simulator& simulator,
               env::Environment* env);
  void Start() override;

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;
};

/// Warehouse handheld scanner (the logistics-firm incident). When
/// compromised it sweeps the internal network with SYN probes.
class HandheldScanner final : public Device {
 public:
  HandheldScanner(DeviceSpec spec, sim::Simulator& simulator,
                  env::Environment* env);
  void Start() override;

  /// Launches a lateral-movement SYN sweep over `prefix`.
  void BeginLateralScan(net::Ipv4Prefix prefix, net::MacAddress gw_mac,
                        int probes, SimDuration interval = 50 * kMillisecond);
  [[nodiscard]] std::uint64_t ProbesSent() const { return probes_sent_; }

 protected:
  std::string Execute(const proto::IotCtlMessage& msg) override;

 private:
  std::uint64_t probes_sent_ = 0;
};

}  // namespace iotsec::devices
