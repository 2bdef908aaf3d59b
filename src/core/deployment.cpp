#include "core/deployment.h"

#include <algorithm>
#include <stdexcept>

namespace iotsec::core {

namespace {

DeploymentOptions Checked(DeploymentOptions options) {
  if (options.shards < 1) {
    throw std::invalid_argument("DeploymentOptions::shards must be >= 1, got " +
                                std::to_string(options.shards));
  }
  return options;
}

// Binds the calling thread to `pool` for one call, then restores the
// caller's binding, so a deployment never draws packets from, or
// recycles them into, another deployment's pool on the same thread.
struct PoolScope {
  explicit PoolScope(net::PacketPool& pool) {
    net::PacketPool::BindToThisThread(&pool);
  }
  ~PoolScope() { net::PacketPool::BindToThisThread(caller); }
  net::PacketPool* const caller = &net::PacketPool::Current();
};

// Environment tick (dynamics integration step).
constexpr SimDuration kEnvTick = 500 * kMillisecond;

}  // namespace

Deployment::Deployment(DeploymentOptions options)
    : options_(Checked(std::move(options))),
      shard_set_([this] {
        // One packet pool per shard, bound to the shard's thread so the
        // free list is never touched concurrently.
        for (int s = 0; s < options_.shards; ++s) {
          shard_pools_.push_back(std::make_unique<net::PacketPool>());
        }
        sim::ShardSet::Options so;
        so.shards = options_.shards;
        // Conservative lookahead: every cross-shard hop is a device
        // uplink, so its propagation delay bounds the quantum.
        so.quantum = net::LinkConfig{}.latency;
        so.use_threads = options_.shard_threads;
        so.enter_shard = [this](int s) {
          net::PacketPool::BindToThisThread(
              shard_pools_[static_cast<std::size_t>(s)].get());
        };
        return std::make_unique<sim::ShardSet>(std::move(so));
      }()),
      sim_(shard_set_->sim(0)),
      shard_env_writes_(static_cast<std::size_t>(options_.shards)) {
  env_ = env::MakeSmartHomeEnvironment();
  env_->AttachTo(sim_, kEnvTick);

  switch_ = std::make_unique<sdn::Switch>(
      /*id=*/1, sim_,
      options_.with_iotsec ? sdn::Switch::MissBehavior::kToController
                           : sdn::Switch::MissBehavior::kFlood);

  // The controller owns the ruleset OTA pipeline (version store and
  // rollout coordinator) and admission control on shard 0's simulator,
  // the control-plane clock.
  controller_ = std::make_unique<control::IoTSecController>(
      sim_, options_.controller, options_.rollout, options_.admission);

  // Controller uplink: the hub is an endpoint like any other, so device
  // telemetry is forwarded by its entry, not by PacketIn.
  net::Link* ctrl_link = NewLink();
  const int ctrl_port = switch_->AttachLink(ctrl_link, 0);
  ctrl_link->Attach(1, controller_.get(), 0);
  controller_->RegisterEndpoint(controller_->hub_mac(), switch_.get(),
                                ctrl_port);

  // µmbox cluster: one uplink per host; every host reachable from the
  // switch through its cluster port (first host's port doubles as the
  // switch's tunnel port — single-host deployments are the common case).
  int first_cluster_port = -1;
  std::vector<std::pair<ServerId, int>> host_ports;
  for (int h = 0; h < options_.cluster_hosts; ++h) {
    auto host = std::make_unique<dataplane::UmboxHost>(
        static_cast<ServerId>(h + 1), sim_, options_.host_capacity);
    net::Link* link = NewLink(
        options_.cluster_link ? &*options_.cluster_link : nullptr);
    const int port = switch_->AttachLink(link, 0);
    host->ConnectUplink(link, 1);
    if (first_cluster_port < 0) first_cluster_port = port;
    host_ports.emplace_back(host->id(), port);
    cluster_.AddHost(host.get());
    hosts_.push_back(std::move(host));
  }

  if (options_.with_iotsec) {
    controller_->ManageSwitch(switch_.get(), first_cluster_port);
    for (const auto& [host_id, port] : host_ports) {
      controller_->MapHostPort(switch_.get(), host_id, port);
    }
    controller_->SetCluster(&cluster_);
    controller_->BindEnvironment(env_.get());
  }

  // Attacker vantage point.
  const auto attacker_mac = net::MacAddress::FromId(0xa77ac);
  const auto attacker_ip = options_.wan_attacker
                               ? net::Ipv4Address(203, 0, 113, 66)
                               : net::Ipv4Address(10, 0, 0, 200);
  attacker_ = std::make_unique<devices::Attacker>(attacker_mac, attacker_ip,
                                                  sim_);
  if (options_.wan_attacker) {
    gateway_ = std::make_unique<baseline::PerimeterGateway>(sim_);
    net::Link* wan_link = NewLink();
    net::Link* lan_link = NewLink();
    attacker_->ConnectUplink(wan_link, 0);
    gateway_->ConnectWan(wan_link, 1);
    gateway_->ConnectLan(lan_link, 0);
    const int gw_port = switch_->AttachLink(lan_link, 1);
    controller_->RegisterEndpoint(attacker_mac, switch_.get(), gw_port);
  } else {
    net::Link* link = NewLink();
    attacker_->ConnectUplink(link, 0);
    const int port = switch_->AttachLink(link, 1);
    controller_->RegisterEndpoint(attacker_mac, switch_.get(), port);
  }

  // Monitor never sheds, so only an enforcing controller gets a gate.
  if (options_.with_iotsec &&
      options_.admission.mode == control::AdmissionMode::kEnforce) {
    // Ingress backpressure: shed only *new client work* at the edge.
    // Exempt (a) tunnel frames — µmbox verdicts and diversions already
    // paid for, (b) control-plane traffic to/from the hub, (c) frames
    // sourced by managed devices — in-flight replies and telemetry whose
    // request cost is sunk. What remains is fresh client/attacker load.
    switch_->SetIngressGate(
        [this](const net::Packet& pkt, const proto::ParsedFrame& frame,
               int /*port*/) {
          (void)pkt;
          if (frame.eth.ethertype == proto::EtherType::kTunnel) return true;
          if (frame.ip.has_value()) {
            const auto hub = controller_->hub_ip();
            if (frame.ip->src == hub || frame.ip->dst == hub) return true;
            if (registry_.ByIp(frame.ip->src) != nullptr) return true;
          }
          return controller_->AdmitIngress(sim_.Now());
        });
  }
}

Deployment::~Deployment() {
  // The ShardSet constructor bound the caller thread to shard 0's pool.
  // That pool dies with this deployment; a later deployment's binding
  // stays.
  if (&net::PacketPool::Current() == shard_pools_[0].get()) {
    net::PacketPool::BindToThisThread(nullptr);
  }
}

net::Link* Deployment::NewLink(const net::LinkConfig* config) {
  links_.push_back(std::make_unique<net::Link>(
      sim_, config != nullptr ? *config : net::LinkConfig{}));
  net::Link* link = links_.back().get();
  if (chaos_ != nullptr) chaos_->AddLink(link);
  return link;
}

env::Environment* Deployment::EnvFor(DeviceId id) {
  auto [it, added] = env_replicas_.try_emplace(id, env_->Replicate());
  if (added) {
    it->second.SetWriteCapture(
        [this](const std::string& name, double value, SimTime now) {
          shard_env_writes_[static_cast<std::size_t>(
                                sim::ShardSet::CurrentShard())]
              .writes.push_back(EnvWrite{now, name, value});
        });
  }
  return &it->second;
}

void Deployment::SyncEnvironment(SimTime now) {
  // 1. Apply the quantum's captured device writes to the owner in one
  //    canonical order — (time, variable, value) is a function of the
  //    simulation, not of shard placement or thread timing.
  pending_env_writes_.clear();
  for (ShardEnvWrites& buffer : shard_env_writes_) {
    for (EnvWrite& w : buffer.writes) {
      pending_env_writes_.push_back(std::move(w));
    }
    buffer.writes.clear();
  }
  if (!pending_env_writes_.empty()) {
    std::sort(pending_env_writes_.begin(), pending_env_writes_.end(),
              [](const EnvWrite& a, const EnvWrite& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.name != b.name) return a.name < b.name;
                return a.value < b.value;
              });
    for (const EnvWrite& w : pending_env_writes_) {
      env_->SetValue(w.name, w.value, w.at);
    }
    pending_env_writes_.clear();
  }
  // 2. Fan the owner's state back out (device-id order ⇒ deterministic
  //    replica-listener firing order) — but only when something changed.
  if (env_->version() != synced_env_version_) {
    synced_env_version_ = env_->version();
    for (auto& [id, replica] : env_replicas_) {
      replica.SyncFrom(*env_, now);
    }
  }
}

void Deployment::BarrierSync(SimTime now) {
  SyncEnvironment(now);
  // Feed the admission controller. Barrier times are quantum multiples,
  // identical for every shard count, and RunFor ends a run at each
  // sample instant, so the idle-quantum skip never jumps one.
  if (options_.with_iotsec && now >= next_admission_sample_) {
    controller_->SampleAdmission(CollectAdmissionSignals(), now);
    next_admission_sample_ = now + options_.admission.sample_period;
  }
}

control::AdmissionSignals Deployment::CollectAdmissionSignals() const {
  control::AdmissionSignals sig;
  for (const auto& host : hosts_) {
    host->AccumulateBootQueue(sig.boot_queue_worst_permille);
  }
  std::int64_t live = 0;
  for (const auto& pool : shard_pools_) live += pool->Live();
  sig.pool_live = static_cast<std::size_t>(std::max<std::int64_t>(0, live));
  sig.cluster_load = cluster_.TotalLoad();
  sig.cluster_capacity = cluster_.TotalCapacity();
  return sig;
}

void Deployment::RunFor(SimDuration d) {
  const PoolScope driver(*shard_pools_[0]);  // the caller is shard 0
  // Writes made between runs (the caller setting the environment or
  // actuating a device) reach the replicas now, not at the first barrier
  // after the next busy quantum, which an idle skip can put far ahead.
  SyncEnvironment(shard_set_->Now());
  const SimTime end = shard_set_->Now() + d;
  const std::function<void(SimTime)> barrier = [this](SimTime now) {
    BarrierSync(now);
  };
  while (shard_set_->Now() < end) {
    // Stop at the next sample instant; a sample already due is taken at
    // the barrier that ends the next quantum.
    SimTime stop = end;
    if (options_.with_iotsec) {
      const SimTime next_barrier = shard_set_->Now() + shard_set_->quantum();
      stop = std::min(stop, std::max(next_admission_sample_, next_barrier));
    }
    shard_set_->RunUntil(stop, barrier);
  }
}

fault::FaultInjector& Deployment::chaos() {
  if (chaos_ == nullptr) {
    chaos_ = std::make_unique<fault::FaultInjector>(sim_, options_.chaos_seed);
    chaos_->AttachCluster(&cluster_);
    if (options_.with_iotsec) chaos_->AttachController(controller_.get());
    for (const auto& link : links_) chaos_->AddLink(link.get());
  }
  return *chaos_;
}

Deployment::NetworkTotals Deployment::AggregateLinkStats() const {
  if (shard_set_->running()) {
    throw std::logic_error(
        "AggregateLinkStats: link counters are owned by running shards");
  }
  NetworkTotals totals;
  for (const auto& link : links_) {
    for (int dir = 0; dir < 2; ++dir) {
      const net::LinkStats& s = link->stats(dir);
      totals.packets += s.packets;
      totals.bytes += s.bytes;
      totals.queue_drops += s.drops;
      totals.lost += s.lost;
    }
  }
  return totals;
}

net::Ipv4Address Deployment::NextDeviceAddress() {
  const net::Ipv4Prefix lan = lan_prefix();
  // Offsets stop short of the prefix's broadcast address.
  const std::uint32_t broadcast = (1u << (32 - lan.Length())) - 1;
  while (next_host_ < broadcast) {
    const net::Ipv4Address ip(lan.Base().value() + next_host_++);
    if (ip != controller_->hub_ip() && ip != attacker_->ip()) return ip;
  }
  throw std::length_error("device address space " + lan.ToString() +
                          " exhausted");
}

devices::DeviceSpec Deployment::MakeSpec(
    const std::string& name, devices::DeviceClass cls,
    std::set<devices::Vulnerability> vulns, std::string credential) {
  devices::DeviceSpec spec;
  spec.id = next_device_id_++;
  spec.name = name;
  spec.cls = cls;
  spec.vendor = "Generic";
  spec.sku = "Generic-" + std::string(devices::DeviceClassName(cls));
  spec.mac = net::MacAddress::FromId(spec.id);
  spec.ip = NextDeviceAddress();
  spec.vulns = std::move(vulns);
  spec.credential = std::move(credential);
  spec.hub_ip = controller_->hub_ip();
  spec.hub_mac = controller_->hub_mac();
  return spec;
}

devices::Device* Deployment::Attach(std::unique_ptr<devices::Device> device) {
  devices::Device* ptr = registry_.Add(std::move(device));
  net::Link* link = NewLink();
  ptr->ConnectUplink(link, 0);
  const int port = switch_->AttachLink(link, 1);
  // Device end (0) lives on the device's home shard, switch end (1) on
  // shard 0. Bound regardless of where the hash lands the device — the
  // bound path's behaviour is placement-independent, which is what makes
  // a 1-shard run the reference for an N-shard run.
  link->BindShards(shard_set_.get(),
                   sdn::ShardOfDevice(ptr->id(), options_.shards),
                   /*end1_shard=*/0);
  controller_->RegisterDevice(ptr, switch_.get(), port);
  return ptr;
}

template <typename T, typename... Extra>
T* Deployment::Place(devices::DeviceSpec&& spec, Extra&&... extra) {
  const DeviceId id = spec.id;
  return static_cast<T*>(Attach(std::make_unique<T>(
      std::move(spec), SimFor(id), EnvFor(id), std::forward<Extra>(extra)...)));
}

devices::Camera* Deployment::AddCamera(const std::string& name,
                                       std::set<devices::Vulnerability> vulns,
                                       std::string credential) {
  auto spec = MakeSpec(name, devices::DeviceClass::kCamera, std::move(vulns),
                       std::move(credential));
  spec.vendor = "Avtech";
  spec.sku = "Avtech-AVN801";
  spec.ram_kb = 8 * 1024;
  return Place<devices::Camera>(std::move(spec));
}

devices::SmartPlug* Deployment::AddSmartPlug(
    const std::string& name, std::string attached_env_var,
    std::set<devices::Vulnerability> vulns, std::string credential) {
  auto spec = MakeSpec(name, devices::DeviceClass::kSmartPlug,
                       std::move(vulns), std::move(credential));
  spec.vendor = "Belkin";
  spec.sku = "Wemo-Insight";
  spec.ram_kb = 2 * 1024;
  return Place<devices::SmartPlug>(std::move(spec),
                                   std::move(attached_env_var));
}

devices::FireAlarm* Deployment::AddFireAlarm(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kFireAlarm);
  spec.vendor = "Nest";
  spec.sku = "Nest-Protect";
  spec.ram_kb = 1024;
  return Place<devices::FireAlarm>(std::move(spec));
}

devices::WindowActuator* Deployment::AddWindow(const std::string& name,
                                               std::string credential) {
  auto spec = MakeSpec(name, devices::DeviceClass::kWindowActuator, {},
                       std::move(credential));
  spec.ram_kb = 512;
  return Place<devices::WindowActuator>(std::move(spec));
}

devices::LightBulb* Deployment::AddLightBulb(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kLightBulb);
  spec.vendor = "Philips";
  spec.sku = "Hue-A19";
  spec.ram_kb = 256;
  return Place<devices::LightBulb>(std::move(spec));
}

devices::LightSensor* Deployment::AddLightSensor(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kLightSensor);
  spec.ram_kb = 128;
  return Place<devices::LightSensor>(std::move(spec));
}

devices::Thermostat* Deployment::AddThermostat(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kThermostat);
  spec.vendor = "Nest";
  spec.sku = "Nest-T3";
  spec.ram_kb = 4 * 1024;
  return Place<devices::Thermostat>(std::move(spec));
}

devices::MotionSensor* Deployment::AddMotionSensor(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kMotionSensor);
  spec.ram_kb = 128;
  return Place<devices::MotionSensor>(std::move(spec));
}

devices::SmartLock* Deployment::AddSmartLock(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kSmartLock);
  spec.ram_kb = 512;
  return Place<devices::SmartLock>(std::move(spec));
}

devices::SmartOven* Deployment::AddSmartOven(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kSmartOven);
  spec.ram_kb = 2 * 1024;
  return Place<devices::SmartOven>(std::move(spec));
}

policy::StateSpace Deployment::BuildStateSpace() const {
  policy::StateSpace space;
  for (const devices::Device* device : registry_.All()) {
    const auto& name = device->spec().name;
    space.AddDimension({policy::StateSpace::ContextDim(name),
                        policy::DimensionKind::kDeviceContext,
                        device->id(),
                        policy::DefaultSecurityContexts()});
    const auto* model = library_.For(device->spec().cls);
    std::vector<std::string> states =
        model != nullptr && !model->states.empty()
            ? model->states
            : std::vector<std::string>{device->State()};
    space.AddDimension({policy::StateSpace::StateDim(name),
                        policy::DimensionKind::kDeviceState,
                        device->id(), std::move(states)});
  }
  for (const auto& var : env_->VariableNames()) {
    space.AddDimension({policy::StateSpace::EnvDim(var),
                        policy::DimensionKind::kEnvVar, kInvalidDevice,
                        env_->LevelNames(var)});
  }
  return space;
}

void Deployment::UsePolicy(policy::StateSpace space,
                           policy::FsmPolicy policy) {
  controller_->SetPolicy(std::move(space), std::move(policy));
}

void Deployment::Start() {
  if (started_) return;
  started_ = true;
  const PoolScope driver(*shard_pools_[0]);
  // Federation builds at Start: segment assignment needs the final
  // device set and the active policy, and its tickers (delta sync, push
  // flush) live on shard 0 — the placement-invariant clock.
  if (options_.with_iotsec && options_.federation.enabled) {
    federation_ = std::make_unique<control::FederatedControlPlane>(
        sim_, *controller_, options_.federation);
    controller_->SetFederation(federation_.get());
    federation_->Build();
    federation_->Start();
  }
  registry_.StartAll();
  if (options_.with_iotsec) controller_->Start();
}

}  // namespace iotsec::core
