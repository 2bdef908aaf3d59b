// The logically centralized IoTSec controller (§5, Figure 2).
//
// Responsibilities:
//   - maintain the global view from device telemetry, environment sensor
//     feeds and µmbox alerts (each arriving after a control latency);
//   - infer security contexts (devices with known flaws start
//     "unpatched"; alerts escalate to "suspicious"/"compromised");
//   - on every view change, re-evaluate the FSM policy for the devices
//     that read a changed key, and diff postures;
//   - drive the orchestrator: launch/hot-reconfigure µmboxes on the
//     cluster and (re)program edge-switch flow tables, version-stamped
//     for consistent updates;
//   - fail closed: a posture that cannot be enforced (no cluster, cluster
//     full, launch refused, guard down while recovering) isolates the
//     device at the switch; there is no fail-open mode.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/token_bucket.h"
#include "control/admission.h"
#include "control/audit.h"
#include "control/delta_sync.h"
#include "control/health.h"
#include "control/view.h"
#include "dataplane/cluster.h"
#include "devices/device.h"
#include "env/environment.h"
#include "learn/crowd.h"
#include "policy/fsm_policy.h"
#include "rollout/coordinator.h"
#include "sdn/switch.h"

namespace iotsec::control {

class FederatedControlPlane;

/// Why a device falls short of its posture (DESIGN.md, "Settled devices").
enum class SettleReason { kShed, kNoCluster, kNoHost, kConfigRefused };

struct ControllerConfig {
  /// Event arrival -> decision latency (RPC + processing).
  SimDuration control_latency = kMillisecond;
  /// Isolation technology for launched µmboxes.
  dataplane::BootModel umbox_boot = dataplane::BootModel::kMicroVm;

  // ---- Self-healing (heartbeats + automatic recovery), always on.
  /// Recovery attempts per detected failure before giving up (the device
  /// then stays quarantined).
  int max_restart_attempts = 6;
  /// Seed for the backoff-jitter stream (determinism).
  std::uint64_t recovery_seed = 0x5EA1;
  /// Boot-queue bound stamped onto every µmbox the controller launches
  /// (packets parked while an instance boots; overflow is dropped and
  /// counted). Every µmbox queues while booting, so zero is a guaranteed
  /// boot-window blackhole — iotsec-verify flags it (G007).
  std::size_t boot_queue_limit = 256;
};

class IoTSecController final : public sdn::PacketInHandler,
                               public net::PacketSink {
 public:
  /// `rollout` configures the staged pipeline that carries crowd
  /// rulesets to the µmboxes (see AttachCrowdRepo); `admission` the
  /// controller's own overload control (see admission()).
  IoTSecController(sim::Simulator& simulator, ControllerConfig config = {},
                   rollout::RolloutConfig rollout = {},
                   AdmissionConfig admission = {});

  // ---- Wiring (called once while building the deployment).
  void ManageSwitch(sdn::Switch* sw, int port_to_cluster);
  /// Maps one cluster host's uplink to its port on `sw`; diversion rules
  /// for a µmbox tunnel out the port of the host actually serving it.
  /// Call after ManageSwitch.
  void MapHostPort(sdn::Switch* sw, ServerId host, int port);
  /// Call before Start(): no-cluster isolations are never retried.
  void SetCluster(dataplane::Cluster* cluster);
  /// Registers a device attached to `sw` at `port`; installs its L2 entry
  /// and starts its context as "unpatched" (has flaws) or "normal".
  /// Registering after Start() installs the entry at once and re-evaluates
  /// every device at the next sweep. Throws std::invalid_argument when the
  /// MAC is already bound to another port of `sw`.
  void RegisterDevice(devices::Device* device, sdn::Switch* sw, int port);
  /// Registers a non-device endpoint (controller hub, attacker or WAN
  /// gateway, the trunk toward another switch's MACs). Start() installs a
  /// priority-1 dst-MAC -> `port` entry for it, like a device's L2 entry,
  /// so replies to it never miss the table. Same throw as RegisterDevice.
  void RegisterEndpoint(const net::MacAddress& mac, sdn::Switch* sw,
                        int port);
  /// Environment sensor feed: level changes reach the view after the
  /// control latency.
  void BindEnvironment(env::Environment* environment);
  /// Installs the policy and binds the view's maintained state to
  /// `space`; every device is re-evaluated at its next sweep.
  void SetPolicy(policy::StateSpace space, policy::FsmPolicy policy);

  /// Crowd-to-enforcement pipeline (§4.1 -> §5): subscribes to the
  /// repository for every registered device's SKU, and for each new SKU
  /// registered later. Each acceptance cuts a signed version in this
  /// controller's store, and the coordinator stages it through canary
  /// cohorts into the matching devices' µmbox chains — the herd gets
  /// immunity without anyone touching policy. Rules the repository
  /// accepted before a SKU's subscription become its stable baseline at
  /// once. Any number of controllers may share one repository; attach
  /// at most one repository per controller.
  void AttachCrowdRepo(learn::CrowdRepo* repo);

  /// Installs base forwarding + initial postures. Call after wiring.
  void Start();

  // ---- Live interfaces.
  void OnPacketIn(SwitchId sw, int in_port, net::PacketPtr pkt) override;
  /// Telemetry frames addressed to the controller's hub IP.
  void Receive(net::PacketPtr pkt, int port) override;
  /// Alert channel from µmbox hosts (wire via UmboxHost::SetAlertSink).
  void OnUmboxAlert(UmboxId umbox, const dataplane::Alert& alert);

  /// Manually marks a device context (used by operators and tests).
  void SetDeviceContext(const std::string& device_name,
                        const std::string& context);

  [[nodiscard]] GlobalView& view() { return view_; }
  [[nodiscard]] const GlobalView& view() const { return view_; }
  [[nodiscard]] const AuditLog& audit() const { return audit_; }

  [[nodiscard]] const net::MacAddress& hub_mac() const { return hub_mac_; }
  [[nodiscard]] net::Ipv4Address hub_ip() const { return hub_ip_; }
  void SetHubAddress(net::MacAddress mac, net::Ipv4Address ip) {
    hub_mac_ = mac;
    hub_ip_ = ip;
  }

  /// The µmbox currently enforcing a device's posture (if any).
  [[nodiscard]] std::optional<UmboxId> UmboxOf(DeviceId device) const;
  /// The enforced posture's profile ("isolated" under a fallback).
  [[nodiscard]] std::string PostureProfileOf(DeviceId device) const;
  /// True while the device's guard is down and recovery is in flight.
  [[nodiscard]] bool Recovering(DeviceId device) const;

  /// Degrades the control channel (fault injection): each heartbeat/alert
  /// delivery is dropped with `drop_rate` and delayed by `extra_delay`
  /// on top of the control latency. Pass (0, 0) to heal.
  void SetControlChannelFault(double drop_rate, SimDuration extra_delay);

  /// The controller's overload control. Under kEnforce, new µmbox
  /// launches can be shed (the device is quarantined and retried when
  /// the level drops), recovery restarts and rollout stages deferred
  /// while the cluster is saturated; under kMonitor it only levels.
  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }
  /// Feeds one barrier snapshot, taken at `now`, to admission control; a
  /// level drop retries the devices settled on kShed.
  void SampleAdmission(const AdmissionSignals& signals, SimTime now);
  /// Ingress backpressure decision for one already-exempted frame (the
  /// switch ingress gate a kEnforce deployment installs).
  [[nodiscard]] bool AdmitIngress(SimTime now) {
    return admission_.AdmitIngress(now);
  }

  /// The crowd ruleset pipeline: every registered device has a receiver
  /// there, caught up to its SKU's stable version.
  [[nodiscard]] rollout::RolloutCoordinator& rollout() { return rollout_; }

  // ---- Federation tier API (see control/federation.h). When a
  // federation is attached, view-change events route to segment-local
  // reevaluations and flow ops route through the rule-push batcher; with
  // no federation (the default) every path below is byte-identical to
  // the flat controller.
  void SetFederation(FederatedControlPlane* federation) {
    federation_ = federation;
  }
  /// The one policy sweep, flat and federated. `scope` (ascending ids)
  /// is every device when flat, one segment under federation. Evaluates
  /// the in-scope dirty devices (pending_), mid-sweep re-queues included,
  /// in ascending id order against the view's maintained state. Every
  /// other in-scope device would evaluate to the posture it enforces or
  /// is settled on, so the result equals evaluating the whole scope.
  void ReevaluateDevices(const std::vector<DeviceId>& scope);
  /// Makes the next sweep of every scope evaluate all of its devices
  /// (SetPolicy, Start and late registration do this themselves).
  void InvalidateAll();
  /// Registered (id, name) pairs, ascending id — the federation's
  /// segment-assignment input.
  [[nodiscard]] std::vector<std::pair<DeviceId, std::string>> DeviceNames()
      const;
  [[nodiscard]] const policy::FsmPolicy& ActivePolicy() const {
    return policy_;
  }
  /// View key -> registered devices whose rules read it (built from
  /// FsmPolicy::RelevantDims); federation derives its segment index here.
  [[nodiscard]] const DependencyIndex<DeviceId>& dependencies() const {
    return readers_;
  }

  struct Stats {
    std::uint64_t telemetry_events = 0;
    std::uint64_t env_events = 0;
    std::uint64_t alerts = 0;
    std::uint64_t packet_ins = 0;         // table misses handed up
    std::uint64_t packet_in_drops = 0;    // refused by the PacketIn gate
    std::uint64_t policy_evals = 0;       // sweeps
    std::uint64_t devices_evaluated = 0;  // per-device evaluations
    std::uint64_t umbox_launches = 0;
    std::uint64_t umbox_reconfigs = 0;
    std::uint64_t flow_ops = 0;
    std::uint64_t posture_changes = 0;
    std::uint64_t reevals_coalesced = 0;  // wakeups absorbed by the guard
    std::uint64_t enforcement_failures = 0;  // fail-closed isolations
    std::uint64_t crowd_rules_applied = 0;
    // ---- self-healing observability
    std::uint64_t heartbeats = 0;          // heartbeats delivered
    std::uint64_t control_drops = 0;       // control-channel fault losses
    std::uint64_t detected_failures = 0;   // per-µmbox failures detected
    std::uint64_t host_failures = 0;       // host-level outages detected
    std::uint64_t recovery_restarts = 0;   // in-place restarts completed
    std::uint64_t recovery_failovers = 0;  // re-placements completed
    std::uint64_t recovery_give_ups = 0;   // abandoned after max attempts
    // MTTR = detection -> forwarding restored, accumulated per recovery.
    SimDuration mttr_total = 0;
    SimDuration mttr_max = 0;
    std::uint64_t mttr_samples = 0;

    [[nodiscard]] double MeanMttrMs() const {
      return mttr_samples == 0
                 ? 0.0
                 : static_cast<double>(mttr_total) /
                       static_cast<double>(mttr_samples) / 1e6;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// The last apply fell short of `wanted`, tried at `crowd_version`.
  struct Settlement {
    policy::Posture wanted;
    std::uint64_t crowd_version = 0;
    SettleReason reason = SettleReason::kConfigRefused;
  };
  struct ManagedDevice {
    devices::Device* device = nullptr;
    sdn::Switch* sw = nullptr;
    int port = -1;
    policy::Posture posture;  // enforced now; "isolated" under a fallback
    std::optional<UmboxId> umbox;
    int alert_count = 0;
    std::optional<Settlement> settlement;  // sweeps skip while it matches
    /// The running chain was built with the crowd splice (the device's
    /// receiver held rules then), so its `crowd` element is the
    /// controller's and a rollout compile may be swapped into it.
    bool crowd_spliced = false;
    // ---- recovery state machine
    bool recovering = false;
    int recovery_attempts = 0;
    SimTime failure_detected_at = 0;
    /// Bumped whenever recovery is (re)started or cancelled; in-flight
    /// backoff/boot callbacks carry the epoch they were scheduled under
    /// and no-op on mismatch.
    std::uint64_t recovery_epoch = 0;
  };
  struct ManagedSwitch {
    sdn::Switch* sw = nullptr;
    int cluster_port = -1;  // default tunnel port (first host's uplink)
    /// Tunnel port per cluster host, so diversions follow a µmbox to
    /// whichever host it lands on (failover re-placement included).
    std::map<ServerId, int> host_ports;
    /// PacketIn gate, one bucket per ingress port (made on first miss).
    std::unordered_map<int, TokenBucket> packet_in_buckets;
  };
  struct Endpoint {
    net::MacAddress mac;
    sdn::Switch* sw = nullptr;
    int port = -1;
  };

  [[nodiscard]] ManagedSwitch* FindSwitch(SwitchId id);
  /// Binds `mac` to `port` in `sw`'s MAC table and returns whether the
  /// binding is new; throws std::invalid_argument when `mac` is bound to
  /// another port there.
  static bool BindMac(const net::MacAddress& mac, sdn::Switch* sw, int port);
  /// The priority-1 dst-MAC -> port entry shared by devices and endpoints.
  void InstallL2(sdn::Switch* sw, const net::MacAddress& mac, int port);
  void ScheduleReevaluate();
  /// Indexes the keys `device`'s rules read.
  void IndexReader(DeviceId device);
  /// Routes a view mutation to the federation (segment-local scheduling)
  /// or, flat, to ScheduleReevaluate(). `device` owns the changed key;
  /// kInvalidDevice marks global keys (environment levels).
  void NotifyViewEvent(DeviceId device, const std::string& dim_key);
  /// Flow-op emission: direct table writes when flat, buffered through
  /// the federation's RulePushBatcher otherwise. Urgent ops (quarantine
  /// drops — fail-closed must not wait for a batch) force a flush.
  void EmitInstall(sdn::Switch* sw, const sdn::FlowEntry& entry,
                   bool urgent);
  void EmitRemoveByCookie(sdn::Switch* sw, std::uint64_t cookie,
                          bool urgent);
  void ApplyPosture(ManagedDevice& md, const policy::Posture& posture);
  /// Re-queues and sweeps the devices settled on `reason`, if any.
  void RetrySettled(SettleReason reason);
  /// Subscribes to the attached crowd repo for `sku` (once) and adopts
  /// the rules it already accepted as the SKU's baseline.
  void SubscribeCrowdSku(const std::string& sku);
  /// Adds the crowd rules the device's receiver holds in front of its
  /// chain (dataplane::SpliceCrowdMatcher).
  [[nodiscard]] std::string EffectiveConfig(const ManagedDevice& md,
                                            const std::string& config) const;
  /// Whether EffectiveConfig splices a crowd matcher into `md`'s chain.
  [[nodiscard]] bool SplicesCrowd(const ManagedDevice& md) const;
  /// Rollout applier: epoch-swaps a verified compile into the crowd
  /// matcher the controller spliced into the device's running chain
  /// (full reconfigure when the chain has none yet; null compile =
  /// rolled back to no crowd rules). A refused reconfigure settles like
  /// one in ApplyPosture. A new version re-queues any settled device.
  void ApplyRolloutCompile(
      DeviceId device,
      const std::shared_ptr<const sig::CompiledRuleset>& compiled);
  void InstallDiversion(ManagedDevice& md, UmboxId umbox);
  void RemoveDiversion(ManagedDevice& md);
  /// Fail-closed fallback: drops at the switch, posture "isolated", and
  /// settled short of `wanted` (an enforcement failure unless shed).
  void InstallIsolation(ManagedDevice& md, const policy::Posture& wanted,
                        SettleReason reason);
  /// The drop rules alone — used both by InstallIsolation and by
  /// recovery quarantine.
  void InstallQuarantine(ManagedDevice& md);
  /// Swaps the device's priority-100 entries for two doing `action`.
  void InstallPostureEntries(ManagedDevice& md, const sdn::FlowAction& action,
                             bool urgent);
  void EscalateContext(const std::string& device_name, ManagedDevice& md);

  // ---- self-healing internals
  /// Control-channel delivery: applies latency plus any injected
  /// drop/delay fault to a controller-bound message.
  void DeliverControl(std::function<void()> fn);
  void OnHostHeartbeat(ServerId host, std::vector<UmboxId> running);
  void CheckHealth();
  void HandleUmboxFailure(UmboxId umbox, const char* cause);
  void HandleHostFailure(const HealthMonitor::HostFailure& failure);
  void ScheduleRecoveryAttempt(ManagedDevice& md);
  void AttemptRecovery(DeviceId device, std::uint64_t epoch);
  /// Retries if a replacement instance dies mid-boot (no on_ready, no
  /// heartbeat tracking yet — without this the recovery would stall).
  void ArmRecoveryWatchdog(DeviceId device, std::uint64_t epoch,
                           int attempt);
  void FinishRecovery(DeviceId device, std::uint64_t epoch, UmboxId umbox,
                      ServerId host, bool failover);
  /// Cancels any in-flight recovery and stops the device's instance; the
  /// freed slot retries kNoHost settlements.
  void AbandonUmbox(ManagedDevice& md);

  [[nodiscard]] ManagedDevice* FindByIp(net::Ipv4Address ip);
  [[nodiscard]] ManagedDevice* FindByUmbox(UmboxId umbox);

  sim::Simulator& sim_;
  ControllerConfig config_;
  GlobalView view_;
  dataplane::Cluster* cluster_ = nullptr;
  std::vector<ManagedSwitch> switches_;
  std::vector<Endpoint> endpoints_;
  std::map<DeviceId, ManagedDevice> devices_;
  std::vector<DeviceId> ids_;  // ascending: the flat sweep's scope
  std::unordered_map<std::string, DeviceId> id_by_name_;
  std::unordered_map<net::Ipv4Address, DeviceId> id_by_ip_;
  policy::StateSpace space_;
  policy::FsmPolicy policy_;
  DependencyIndex<DeviceId> readers_;
  /// Dirty devices, ascending: they read a view key written since their
  /// last evaluation, everything was invalidated, or a retry trigger
  /// re-queued them. What the next sweep of each scope evaluates.
  std::set<DeviceId> pending_;
  bool started_ = false;
  bool reeval_pending_ = false;
  UmboxId next_umbox_id_ = 1;
  std::uint64_t flow_version_ = 1;
  net::MacAddress hub_mac_ = net::MacAddress::FromId(0xC0117701);
  net::Ipv4Address hub_ip_ = net::Ipv4Address(10, 0, 0, 1);
  AuditLog audit_;
  HealthMonitor health_;
  Rng recovery_rng_;
  double control_drop_rate_ = 0.0;
  SimDuration control_extra_delay_ = 0;
  Rng control_fault_rng_;
  FederatedControlPlane* federation_ = nullptr;
  learn::CrowdRepo* crowd_repo_ = nullptr;
  std::set<std::string> crowd_skus_;  // subscribed at crowd_repo_
  AdmissionController admission_;  // before rollout_, which reads it
  rollout::VersionStore versions_;
  rollout::RolloutCoordinator rollout_;
  Stats stats_;
};

}  // namespace iotsec::control
