// The top-level public API: a complete simulated IoT deployment.
//
// A Deployment wires the whole Figure 2 architecture — edge switch,
// devices, physical environment, attacker vantage point, µmbox cluster
// and the IoTSec controller — or, with `with_iotsec=false`, the
// unmanaged "current world" the paper contrasts against (plain flooding
// L2 switch, optional perimeter firewall at the WAN edge).
//
// Quickstart:
//   core::Deployment dep;                       // IoTSec-managed home
//   auto* cam = dep.AddCamera("cam", {Vulnerability::kDefaultPassword},
//                             "admin");
//   dep.UsePolicy(space, policy);
//   dep.Start();
//   dep.RunFor(5 * kSecond);
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/baseline.h"
#include "control/controller.h"
#include "control/federation.h"
#include "dataplane/cluster.h"
#include "devices/attacker.h"
#include "devices/models.h"
#include "devices/registry.h"
#include "env/dynamics.h"
#include "fault/fault_injector.h"
#include "learn/model_library.h"
#include "net/packet.h"
#include "rollout/coordinator.h"
#include "sdn/shard_map.h"
#include "sdn/switch.h"
#include "sim/shard_set.h"

namespace iotsec::core {

struct DeploymentOptions {
  /// true: SDN switch + controller + µmbox cluster. false: unmanaged
  /// flooding L2 switch ("current world" baseline).
  bool with_iotsec = true;
  /// Put the attacker beyond a perimeter firewall (WAN vantage) instead
  /// of on the LAN.
  bool wan_attacker = false;
  control::ControllerConfig controller;
  /// Overload control (see control/admission.h), owned by the controller
  /// whenever IoTSec is on. kMonitor (default) samples and levels without
  /// acting; kEnforce sheds launches, defers restarts and rollout stages,
  /// and backpressures ingress through a switch gate installed only under
  /// kEnforce. Signals are sampled at the quantum barrier that ends each
  /// sample_period; RunFor stops the idle-quantum skip at every sample
  /// instant, so a quiet stretch still takes one sample per period.
  control::AdmissionConfig admission;
  /// Hierarchical controller federation (see control/federation.h).
  /// Disabled (default) keeps the flat controller byte-identical to every
  /// release before federation existed. Enabled: segments derived from
  /// the policy's interaction graph get local reevaluation, cross-segment
  /// state rides delta syncs, and rule pushes are batched per switch.
  control::FederationConfig federation;
  /// Signed delta-ruleset OTA pipeline (see rollout/coordinator.h), the
  /// one path from an attached CrowdRepo to the µmboxes: acceptances cut
  /// signed versions in a VersionStore and a RolloutCoordinator stages
  /// them through canary cohorts with health-gated promotion and instant
  /// rollback. Idle until a crowd repo is attached.
  rollout::RolloutConfig rollout;
  int cluster_hosts = 1;
  int host_capacity = 64;
  /// Override for the µmbox-host uplinks (the serving path every
  /// diverted flow crosses twice). Unset: hosts use the default
  /// net::LinkConfig like every other link. The overload bench narrows
  /// this to make the cluster — not the access links — the contended
  /// resource.
  std::optional<net::LinkConfig> cluster_link;
  /// Seed for the deployment's FaultInjector (see chaos()).
  std::uint64_t chaos_seed = 0xC4A05;
  /// Shards of the engine (see sim::ShardSet), at least 1; the
  /// constructor throws std::invalid_argument otherwise. Devices are
  /// homed on shard ShardOfDevice(id, shards) and run in lockstep quanta;
  /// infrastructure (switch, controller, cluster, attacker, environment
  /// owner) stays on shard 0. A 1-shard run is the determinism reference
  /// an N-shard run must digest-match.
  int shards = 1;
  /// Execute shards 1..N-1 on worker threads (true) or all inline on the
  /// caller (false — identical results, easier debugging).
  bool shard_threads = true;
};

class Deployment {
 public:
  explicit Deployment(DeploymentOptions options = {});
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // ---- Accessors.
  /// Shard 0's simulator: the infrastructure clock. Schedule on it, but
  /// advance with RunFor() — running it directly moves only shard 0 and
  /// skips the barrier, so device environment writes never land.
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  /// The engine; never null.
  [[nodiscard]] sim::ShardSet* shard_set() { return shard_set_.get(); }
  /// Simulator owning device `id`'s events.
  [[nodiscard]] sim::Simulator& SimFor(DeviceId id) {
    return shard_set_->sim(sdn::ShardOfDevice(id, options_.shards));
  }
  [[nodiscard]] env::Environment& environment() { return *env_; }
  [[nodiscard]] devices::DeviceRegistry& registry() { return registry_; }
  [[nodiscard]] sdn::Switch& edge() { return *switch_; }
  [[nodiscard]] control::IoTSecController& controller() {
    return *controller_;
  }
  [[nodiscard]] dataplane::Cluster& cluster() { return cluster_; }
  [[nodiscard]] devices::Attacker& attacker() { return *attacker_; }
  [[nodiscard]] baseline::PerimeterGateway* gateway() {
    return gateway_.get();
  }
  /// The deployment's fault injector, created and wired (cluster,
  /// controller, every link built so far — links added later register
  /// automatically) on first use.
  [[nodiscard]] fault::FaultInjector& chaos();
  /// The controller's admission control; non-null iff IoTSec is on.
  [[nodiscard]] const control::AdmissionController* admission() const {
    return options_.with_iotsec ? &controller_->admission() : nullptr;
  }
  /// Non-null iff options().federation.enabled (and IoTSec is on);
  /// created at Start(), once the device set and policy are final.
  [[nodiscard]] control::FederatedControlPlane* federation() {
    return federation_.get();
  }
  /// The controller's ruleset pipeline; non-null iff IoTSec is on.
  [[nodiscard]] rollout::RolloutCoordinator* rollout() {
    return options_.with_iotsec ? &controller_->rollout() : nullptr;
  }
  [[nodiscard]] rollout::VersionStore* version_store() {
    return options_.with_iotsec ? controller_->rollout().store() : nullptr;
  }
  [[nodiscard]] const DeploymentOptions& options() const { return options_; }
  /// The LAN every device address is allocated from.
  [[nodiscard]] net::Ipv4Prefix lan_prefix() const {
    return net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 16);
  }

  // ---- Building.
  /// Allocates a spec (id, MAC, IP, hub address) for a new device. IPs
  /// are handed out in order from lan_prefix(), starting at host .10 and
  /// skipping the hub's and the attacker's current addresses; throws
  /// std::length_error once the prefix is exhausted.
  devices::DeviceSpec MakeSpec(const std::string& name,
                               devices::DeviceClass cls,
                               std::set<devices::Vulnerability> vulns = {},
                               std::string credential = "secret-token");

  /// Attaches an already-constructed device to the edge switch and
  /// registers it with the controller.
  devices::Device* Attach(std::unique_ptr<devices::Device> device);

  // Convenience creators for the common classes.
  devices::Camera* AddCamera(const std::string& name,
                             std::set<devices::Vulnerability> vulns = {},
                             std::string credential = "secret-token");
  devices::SmartPlug* AddSmartPlug(const std::string& name,
                                   std::string attached_env_var,
                                   std::set<devices::Vulnerability> vulns = {},
                                   std::string credential = "secret-token");
  devices::FireAlarm* AddFireAlarm(const std::string& name);
  devices::WindowActuator* AddWindow(const std::string& name,
                                     std::string credential = "secret-token");
  devices::LightBulb* AddLightBulb(const std::string& name);
  devices::LightSensor* AddLightSensor(const std::string& name);
  devices::Thermostat* AddThermostat(const std::string& name);
  devices::MotionSensor* AddMotionSensor(const std::string& name);
  devices::SmartLock* AddSmartLock(const std::string& name);
  devices::SmartOven* AddSmartOven(const std::string& name);

  /// Builds the policy state space for the current device set: one
  /// "ctx:" dimension per device (security contexts), one "dev:"
  /// dimension per device (class FSM states), one "env:" dimension per
  /// environment variable.
  [[nodiscard]] policy::StateSpace BuildStateSpace() const;

  void UsePolicy(policy::StateSpace space, policy::FsmPolicy policy);

  /// Boots devices (and the controller when IoTSec is on).
  void Start();
  /// Advances every shard in lockstep quanta, running the barrier phase
  /// (environment sync, admission sampling) after each one. Start and
  /// RunFor bind the calling thread to shard 0's packet pool for the
  /// call, so deployments may share a thread; between calls the thread
  /// keeps the binding of the last deployment constructed on it.
  void RunFor(SimDuration d);
  [[nodiscard]] SimTime Now() const { return shard_set_->Now(); }

  /// Convenience lookups for tests/benches.
  [[nodiscard]] devices::Device* Find(const std::string& name) const {
    return registry_.ByName(name);
  }

  /// Every link's counters summed over both directions — the
  /// deployment-level view chaos runs assert against.
  struct NetworkTotals {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t lost = 0;  // random / flap-induced loss
  };
  /// Between runs only: mid-quantum the link counters belong to the
  /// executing shards, so a call from inside an event throws
  /// std::logic_error.
  [[nodiscard]] NetworkTotals AggregateLinkStats() const;
  [[nodiscard]] std::size_t LinkCount() const { return links_.size(); }

 private:
  /// null config: the default net::LinkConfig.
  net::Link* NewLink(const net::LinkConfig* config = nullptr);
  /// Builds a T from `spec` on the device's home shard, with its
  /// environment replica, and attaches it.
  template <typename T, typename... Extra>
  T* Place(devices::DeviceSpec&& spec, Extra&&... extra);
  /// The next free device address (see MakeSpec).
  net::Ipv4Address NextDeviceAddress();
  /// The environment device `id` reads/writes: its private replica,
  /// created here on first use.
  env::Environment* EnvFor(DeviceId id);
  /// Applies captured device environment writes to the owner in
  /// canonical order, then fans the owner's state back out to every
  /// replica. Runs at every barrier and at the start of RunFor.
  void SyncEnvironment(SimTime now);
  /// Barrier-phase work: SyncEnvironment, then feed the controller's
  /// admission control.
  void BarrierSync(SimTime now);
  /// One shard-placement-invariant admission snapshot: boot queues and
  /// cluster load live on shard 0, and pool_live sums Live() over every
  /// pool — total in-flight packets at a barrier is a function of the
  /// simulation, not of where devices were placed (each release routes
  /// back to its acquiring pool's counter; see net::PacketPool::Live).
  [[nodiscard]] control::AdmissionSignals CollectAdmissionSignals() const;

  DeploymentOptions options_;
  // The engine and its per-shard packet pools; sim_ is shard 0. Declared
  // before every member that captures sim_ at construction.
  std::vector<std::unique_ptr<net::PacketPool>> shard_pools_;
  std::unique_ptr<sim::ShardSet> shard_set_;
  sim::Simulator& sim_;
  std::unique_ptr<env::Environment> env_;
  // Per-device environment replicas. A replica's writes are captured
  // into the executing shard's buffer (ShardSet::CurrentShard()), which
  // only that shard's thread touches mid-quantum; the barrier phase
  // (single-threaded, after the workers are done) drains the buffers
  // into pending_env_writes_ for one canonical sorted apply.
  struct EnvWrite {
    SimTime at = 0;
    std::string name;
    double value = 0.0;
  };
  struct alignas(64) ShardEnvWrites {
    std::vector<EnvWrite> writes;
  };
  std::map<DeviceId, env::Environment> env_replicas_;
  std::vector<ShardEnvWrites> shard_env_writes_;  // [shard]
  std::vector<EnvWrite> pending_env_writes_;
  std::uint64_t synced_env_version_ = 0;
  devices::DeviceRegistry registry_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::unique_ptr<sdn::Switch> switch_;
  std::unique_ptr<control::IoTSecController> controller_;
  std::unique_ptr<control::FederatedControlPlane> federation_;
  SimTime next_admission_sample_ = 0;
  std::vector<std::unique_ptr<dataplane::UmboxHost>> hosts_;
  dataplane::Cluster cluster_;
  std::unique_ptr<devices::Attacker> attacker_;
  std::unique_ptr<baseline::PerimeterGateway> gateway_;
  std::unique_ptr<fault::FaultInjector> chaos_;
  learn::ModelLibrary library_ = learn::ModelLibrary::Builtin();
  DeviceId next_device_id_ = 10;
  std::uint32_t next_host_ = 10;  // offset of the next address in the LAN
  bool started_ = false;
};

}  // namespace iotsec::core
