#include "control/controller.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"
#include "control/federation.h"
#include "dataplane/elements.h"
#include "dataplane/graph.h"
#include "obs/obs.h"
#include "proto/frame.h"
#include "proto/iotctl.h"

namespace iotsec::control {

IoTSecController::IoTSecController(sim::Simulator& simulator,
                                   ControllerConfig config,
                                   rollout::RolloutConfig rollout)
    : sim_(simulator),
      config_(config),
      health_(HealthConfig{config.heartbeat_period,
                           config.heartbeat_miss_threshold}),
      recovery_rng_(config.recovery_seed),
      control_fault_rng_(config.recovery_seed ^ 0xC7A11u),
      rollout_(simulator, &versions_, std::move(rollout)) {
  rollout_.SetApplier(
      [this](DeviceId device,
             const std::shared_ptr<const sig::CompiledRuleset>& compiled) {
        ApplyRolloutCompile(device, compiled);
      });
}

void IoTSecController::ManageSwitch(sdn::Switch* sw, int port_to_cluster) {
  sw->SetPacketInHandler(this);
  sw->SetMissBehavior(sdn::Switch::MissBehavior::kToController);
  switches_.push_back(ManagedSwitch{sw, port_to_cluster, {}, {}});
}

IoTSecController::ManagedSwitch* IoTSecController::FindSwitch(SwitchId id) {
  for (ManagedSwitch& ms : switches_) {
    if (ms.sw->id() == id) return &ms;
  }
  return nullptr;
}

void IoTSecController::MapHostPort(sdn::Switch* sw, ServerId host,
                                   int port) {
  if (ManagedSwitch* ms = FindSwitch(sw->id())) ms->host_ports[host] = port;
}

void IoTSecController::SetCluster(dataplane::Cluster* cluster) {
  cluster_ = cluster;
  for (dataplane::UmboxHost* host : cluster->hosts()) {
    host->SetAlertSink([this](UmboxId id, const dataplane::Alert& alert) {
      // Alerts ride the control channel: they land after control latency
      // (and are subject to injected control-channel faults).
      DeliverControl([this, id, alert] { OnUmboxAlert(id, alert); });
    });
    if (config_.self_healing) {
      health_.TrackHost(host->id(), sim_.Now());
      host->StartHeartbeats(
          [this](ServerId server, std::vector<UmboxId> running) {
            DeliverControl([this, server, running = std::move(running)] {
              OnHostHeartbeat(server, running);
            });
          },
          config_.heartbeat_period);
    }
  }
}

bool IoTSecController::BindMac(const net::MacAddress& mac, sdn::Switch* sw,
                               int port) {
  // Two priority-1 entries for one eth_dst would forward to whichever
  // was installed first, so an alias must fail here, not route silently.
  const int bound = sw->PortOfMac(mac);
  if (bound >= 0 && bound != port) {
    throw std::invalid_argument(
        "MAC " + mac.ToString() + " is already bound to port " +
        std::to_string(bound) + " of switch " + std::to_string(sw->id()) +
        ", not port " + std::to_string(port));
  }
  if (bound == port) return false;
  sw->SetMacPort(mac, port);
  return true;
}

void IoTSecController::InstallL2(sdn::Switch* sw, const net::MacAddress& mac,
                                 int port) {
  sdn::FlowEntry entry;
  entry.priority = 1;
  entry.match.eth_dst = mac;
  entry.actions = {sdn::FlowAction::Output(port)};
  entry.version = flow_version_;
  EmitInstall(sw, entry, /*urgent=*/false);
}

void IoTSecController::RegisterDevice(devices::Device* device,
                                      sdn::Switch* sw, int port) {
  const DeviceId id = device->id();
  const bool fresh = BindMac(device->spec().mac, sw, port);
  if (!fresh) {
    // The device's own entry serves this binding; an endpoint
    // registered for the same MAC must not install a second one.
    std::erase_if(endpoints_, [&](const Endpoint& ep) {
      return ep.sw == sw && ep.mac == device->spec().mac;
    });
  }
  ManagedDevice md;
  md.device = device;
  md.sw = sw;
  md.port = port;
  devices_[id] = md;
  const auto pos = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (pos == ids_.end() || *pos != id) ids_.insert(pos, id);
  // Name and address lookups answer with the lowest matching id.
  const auto keep_lowest = [id](auto& index, const auto& key) {
    const auto [it, inserted] = index.emplace(key, id);
    if (!inserted && id < it->second) it->second = id;
  };
  keep_lowest(id_by_name_, device->spec().name);
  keep_lowest(id_by_ip_, device->spec().ip);
  IndexReader(id);
  rollout_.RegisterDevice(id, device->spec().sku);
  if (crowd_repo_ != nullptr) SubscribeCrowdSku(device->spec().sku);

  const std::string& name = device->spec().name;
  view_.SetDeviceState(name, device->State());
  view_.SetDeviceContext(
      name, device->spec().vulns.empty() ? "normal" : "unpatched");
  if (started_) {
    if (fresh && FindSwitch(sw->id()) != nullptr) {
      InstallL2(sw, device->spec().mac, port);
    }
    InvalidateAll();
  }
}

void IoTSecController::IndexReader(DeviceId device) {
  for (const std::string& key : policy_.RelevantDims(device)) {
    readers_.Add(key, device);
  }
}

void IoTSecController::InvalidateAll() {
  pending_.insert(ids_.begin(), ids_.end());
}

void IoTSecController::RegisterEndpoint(const net::MacAddress& mac,
                                        sdn::Switch* sw, int port) {
  // Bound already (the same endpoint again, or a device): that binding
  // has its entry.
  if (!BindMac(mac, sw, port)) return;
  endpoints_.push_back(Endpoint{mac, sw, port});
  if (started_ && FindSwitch(sw->id()) != nullptr) InstallL2(sw, mac, port);
}

void IoTSecController::BindEnvironment(env::Environment* environment) {
  // Seed the view with the current levels, then track changes.
  for (const auto& [var, level] : environment->SnapshotLevels()) {
    (void)level;
    view_.SetEnvLevel(var, environment->LevelName(var));
  }
  environment->Subscribe([this, environment](const env::LevelChange& change) {
    const std::string level =
        environment->LevelName(change.variable);
    sim_.After(config_.control_latency, [this, var = change.variable, level] {
      ++stats_.env_events;
      view_.SetEnvLevel(var, level);
      NotifyViewEvent(kInvalidDevice, policy::StateSpace::EnvDim(var));
    });
  });
}

void IoTSecController::SetPolicy(policy::StateSpace space,
                                 policy::FsmPolicy policy) {
  space_ = std::move(space);
  policy_ = std::move(policy);
  view_.Bind(space_);
  readers_.Clear();
  for (const DeviceId id : ids_) IndexReader(id);
  InvalidateAll();
}

void IoTSecController::AttachCrowdRepo(learn::CrowdRepo* repo) {
  crowd_repo_ = repo;
  for (const auto& [id, md] : devices_) {
    SubscribeCrowdSku(md.device->spec().sku);
  }
}

void IoTSecController::SubscribeCrowdSku(const std::string& sku) {
  if (!crowd_skus_.insert(sku).second) return;
  const auto accepted_texts = [this, sku] {
    std::vector<std::string> texts;
    for (const auto& sig : crowd_repo_->AcceptedFor(sku)) {
      texts.push_back(sig.rule.ToText());
    }
    return texts;
  };
  rollout_.AdoptBaseline(sku, accepted_texts());
  crowd_repo_->Subscribe(
      sku, "iotsec-controller",
      [this, sku, accepted_texts](const learn::SharedSignature&) {
        // This controller's store (the signing authority for its
        // devices) cuts the SKU's full accepted ruleset as a new
        // version. Distribution is not instantaneous: its canary starts
        // one control latency later.
        versions_.Cut(sku, accepted_texts());
        sim_.After(config_.control_latency,
                   [this, sku] { rollout_.OnVersionCut(sku); });
      });
}

void IoTSecController::ApplyRolloutCompile(
    DeviceId device,
    const std::shared_ptr<const sig::CompiledRuleset>& compiled) {
  auto it = devices_.find(device);
  if (it == devices_.end()) return;
  ManagedDevice& md = it->second;
  if (md.rejected_posture) {
    // The crowd rules are part of the rejected config: retry the posture.
    pending_.insert(device);
    ScheduleReevaluate();
  }
  if (!md.umbox || cluster_ == nullptr) return;
  dataplane::Umbox* box = cluster_->Find(*md.umbox);
  if (box == nullptr || box->graph() == nullptr) return;
  // Fast path: the chain carries the crowd matcher the controller
  // spliced — adopting the shared compile is a pointer swap, no parse,
  // no reconfigure, no packet loss. This is what makes rollback
  // "instant". A `crowd` the posture declared itself is not ours to
  // overwrite.
  if (md.crowd_spliced) {
    if (auto* matcher = dynamic_cast<dataplane::SignatureMatcher*>(
            box->graph()->Find(std::string(dataplane::kCrowdElement)))) {
      matcher->AdoptCompiled(compiled);
      ++stats_.crowd_rules_applied;
      audit_.Record(sim_.Now(), AuditCategory::kCrowd,
                    md.device->spec().name,
                    "rollout compile swapped into crowd matcher");
      return;
    }
  }
  // First install on this chain: splice the crowd element in via a full
  // hot reconfigure (EffectiveConfig consults the device's receiver).
  if (md.posture.umbox_config.empty()) return;
  std::string error;
  if (box->Reconfigure(EffectiveConfig(md, md.posture.umbox_config),
                       &error)) {
    md.crowd_spliced = SplicesCrowd(md);
    ++stats_.crowd_rules_applied;
    ++stats_.umbox_reconfigs;
    audit_.Record(sim_.Now(), AuditCategory::kCrowd, md.device->spec().name,
                  "rollout ruleset spliced via reconfigure");
  } else {
    // The chain keeps running without the crowd rules. A retry fails the
    // same way, so the device stays settled until its posture or crowd
    // ruleset changes (a posture that declares `crowd` itself lands here).
    IOTSEC_LOG_ERROR("rollout repatch failed for %s: %s",
                     md.device->spec().name.c_str(), error.c_str());
    md.rejected_posture = md.posture;
    md.rejected_crowd_version = rollout_.VersionOf(device);
    audit_.Record(sim_.Now(), AuditCategory::kCrowd, md.device->spec().name,
                  "rollout ruleset refused: " + error);
  }
}

std::string IoTSecController::EffectiveConfig(
    const ManagedDevice& md, const std::string& config) const {
  // The device's receiver holds exactly the verified ruleset version its
  // cohort is on (canaries ahead of the control group).
  return dataplane::SpliceCrowdMatcher(
      config, rollout_.RuleTextsFor(md.device->id()));
}

bool IoTSecController::SplicesCrowd(const ManagedDevice& md) const {
  return !rollout_.RuleTextsFor(md.device->id()).empty();
}

void IoTSecController::Start() {
  started_ = true;
  if (config_.self_healing && cluster_ != nullptr &&
      !cluster_->hosts().empty()) {
    sim_.Every(config_.heartbeat_period, [this] { CheckHealth(); });
  }
  for (auto& ms : switches_) {
    // Base L2 forwarding: one priority-1 entry per known MAC, device or
    // endpoint, on each switch, so traffic between known endpoints never
    // reaches the controller. Posture entries (100) and tunnel transit
    // (50) outrank these.
    for (const auto& [id, md] : devices_) {
      if (md.sw == ms.sw) InstallL2(ms.sw, md.device->spec().mac, md.port);
    }
    for (const Endpoint& ep : endpoints_) {
      if (ep.sw == ms.sw) InstallL2(ms.sw, ep.mac, ep.port);
    }
    // Tunnel transit: in multi-switch topologies, diverted (kToUmbox)
    // frames from remote edges arrive as regular frames and must be
    // forwarded toward the cluster. (Returning kFromUmbox frames are
    // decapsulated in Switch::Receive before the table is consulted.)
    if (ms.cluster_port >= 0) {
      sdn::FlowEntry transit;
      transit.priority = 50;
      transit.match.ethertype = proto::EtherType::kTunnel;
      transit.actions = {sdn::FlowAction::Output(ms.cluster_port)};
      transit.version = flow_version_;
      EmitInstall(ms.sw, transit, /*urgent=*/false);
    }
  }
  InvalidateAll();
  ReevaluateDevices(ids_);
}

namespace {
// The PacketIn gate, per (switch, ingress port): sustained upcalls per
// second and upcalls one port may make back to back. Every known
// endpoint has a forwarding entry, so only unknown destinations come
// here, and no measured workload makes any.
constexpr double kPacketInRatePps = 1000.0;
constexpr double kPacketInBurst = 100.0;
}  // namespace

void IoTSecController::OnPacketIn(SwitchId sw, int in_port,
                                  net::PacketPtr pkt) {
  ++stats_.packet_ins;
  ManagedSwitch* ms = FindSwitch(sw);
  if (ms == nullptr) return;
  // Every registered endpoint has a forwarding entry, so only unknown
  // destinations get here, and a device can spray those at will: meter
  // the upcalls per ingress port before doing any work for them.
  TokenBucket& bucket =
      ms->packet_in_buckets
          .try_emplace(in_port, kPacketInRatePps, kPacketInBurst)
          .first->second;
  if (!bucket.Take(sim_.Now())) {
    ++stats_.packet_in_drops;
    if (obs::Enabled()) obs::M().ctl_packet_in_drops->Inc();
    return;
  }
  // Deliver by MAC table if known (bound outside the controller), else
  // drop. (A production controller would learn/flood; IoTSec deployments
  // know their endpoints.)
  const auto* frame = pkt->Parsed();
  if (!frame) return;
  const int out = ms->sw->PortOfMac(frame->eth.dst);
  if (out < 0) return;
  sim_.After(config_.flowmod_latency,
             [s = ms->sw, pkt = std::move(pkt), out]() mutable {
               s->Output(std::move(pkt), out);
             });
}

void IoTSecController::Receive(net::PacketPtr pkt, int port) {
  (void)port;
  const auto* frame = pkt->Parsed();
  if (!frame || !frame->ip || !frame->udp) return;
  auto msg = proto::IotCtlMessage::Parse(frame->payload);
  if (!msg || msg->type != proto::IotMsgType::kEvent) return;
  const auto sensor = msg->Find(proto::IotTag::kSensor);
  const auto reading = msg->Find(proto::IotTag::kReading);
  if (!sensor || !reading) return;

  ManagedDevice* md = FindByIp(frame->ip->src);
  if (md == nullptr) return;
  ++stats_.telemetry_events;
  if (*sensor == "state") {
    // Ingestion is not free: the update lands in the view after the
    // control latency (queueing + processing), which is exactly the
    // stale-context window bench F5 measures.
    sim_.After(config_.control_latency,
               [this, id = md->device->id(),
                name = md->device->spec().name, reading = *reading] {
                 view_.SetDeviceState(name, reading);
                 NotifyViewEvent(id, policy::StateSpace::StateDim(name));
               });
  }
}

void IoTSecController::OnUmboxAlert(UmboxId umbox,
                                    const dataplane::Alert& alert) {
  ++stats_.alerts;
  ManagedDevice* md = FindByUmbox(umbox);
  if (md == nullptr) return;
  audit_.Record(sim_.Now(), AuditCategory::kAlert, md->device->spec().name,
                alert.kind + " from " + alert.element + ": " + alert.detail);
  IOTSEC_LOG_INFO("alert from umbox %u (%s): %s %s", umbox,
                  md->device->spec().name.c_str(), alert.kind.c_str(),
                  alert.detail.c_str());
  ++md->alert_count;
  // Rollout health gate input: per-device alert attribution, already on
  // the single-threaded post-control-latency path.
  rollout_.OnDeviceAlert(md->device->id());
  EscalateContext(md->device->spec().name, *md);
}

void IoTSecController::SetDeviceContext(const std::string& device_name,
                                        const std::string& context) {
  audit_.Record(sim_.Now(), AuditCategory::kContext, device_name,
                "operator set context to " + context);
  view_.SetDeviceContext(device_name, context);
  const auto owner = id_by_name_.find(device_name);
  NotifyViewEvent(owner == id_by_name_.end() ? kInvalidDevice : owner->second,
                  policy::StateSpace::ContextDim(device_name));
}

void IoTSecController::EscalateContext(const std::string& device_name,
                                       ManagedDevice& md) {
  const std::string next =
      md.alert_count >= config_.compromise_threshold ? "compromised"
                                                     : "suspicious";
  const auto current = view_.DeviceContext(device_name);
  if (current && *current == "compromised") return;  // never de-escalate here
  if (current && *current == next) return;
  audit_.Record(sim_.Now(), AuditCategory::kContext, device_name,
                current.value_or("?") + " -> " + next + " after " +
                    std::to_string(md.alert_count) + " alert(s)");
  view_.SetDeviceContext(device_name, next);
  NotifyViewEvent(md.device->id(),
                  policy::StateSpace::ContextDim(device_name));
}

void IoTSecController::NotifyViewEvent(DeviceId device,
                                       const std::string& dim_key) {
  if (federation_ != nullptr && started_) {
    if (device != kInvalidDevice) {
      federation_->OnDeviceEvent(device, dim_key);
    } else {
      federation_->OnGlobalEvent(dim_key);
    }
    return;
  }
  // Flat: every view change is one message to the one controller.
  if (obs::Enabled()) obs::M().ctl_msg_context_syncs->Inc();
  ScheduleReevaluate();
}

void IoTSecController::ScheduleReevaluate() {
  if (!started_) return;
  if (reeval_pending_) {
    // The guard is also the coalescer: this wakeup rides the already
    // scheduled sweep instead of enqueueing a duplicate Reevaluate.
    ++stats_.reevals_coalesced;
    if (obs::Enabled()) obs::M().ctl_reevals_coalesced->Inc();
    return;
  }
  reeval_pending_ = true;
  sim_.After(config_.control_latency, [this] {
    reeval_pending_ = false;
    ReevaluateDevices(ids_);
  });
}

void IoTSecController::ReevaluateDevices(const std::vector<DeviceId>& scope) {
  ++stats_.policy_evals;
  // Dirty keys wake their readers wherever they live; readers outside
  // this scope stay pending until their own scope sweeps.
  view_.DrainDirtyKeys([this](const std::string& key) {
    if (const auto* readers = readers_.ReadersOf(key)) {
      pending_.insert(readers->begin(), readers->end());
    }
  });
  std::vector<DeviceId> visit;
  for (const DeviceId id : pending_) {
    if (std::binary_search(scope.begin(), scope.end(), id)) {
      visit.push_back(id);
    }
  }
  const policy::SystemState& state = view_.State();
  for (const DeviceId id : visit) {
    pending_.erase(id);
    const auto it = devices_.find(id);
    if (it == devices_.end()) continue;
    ManagedDevice& md = it->second;
    ++stats_.devices_evaluated;
    const policy::Posture& posture = policy_.Evaluate(space_, state, id);
    if (posture == md.posture) continue;
    if (md.rejected_posture && *md.rejected_posture == posture &&
        md.rejected_crowd_version == rollout_.VersionOf(id)) {
      continue;
    }
    ++stats_.posture_changes;
    if (obs::Enabled()) {
      obs::M().ctl_policy_transitions->Inc();
      obs::FlightRecorder::Global().Record(
          obs::TraceEventType::kPolicyTransition, sim_.Now(), id,
          std::hash<std::string>{}(posture.profile));
    }
    audit_.Record(sim_.Now(), AuditCategory::kPosture,
                  md.device->spec().name,
                  md.posture.profile + " -> " + posture.profile);
    ApplyPosture(md, posture);
    // Unsettled (shed launch, no cluster or host): a full sweep would
    // retry it every time, so it stays pending. A rejected config is
    // settled: only a new posture or crowd ruleset retries it.
    if (!(md.posture == posture) && !md.rejected_posture) {
      pending_.insert(id);
    }
  }
}

void IoTSecController::ApplyPosture(ManagedDevice& md,
                                    const policy::Posture& posture) {
  md.launch_shed = false;
  md.rejected_posture.reset();
  const bool needs_umbox = posture.tunnel && !posture.umbox_config.empty();
  if (!needs_umbox) {
    RemoveDiversion(md);
    AbandonUmbox(md);
    md.posture = posture;
    return;
  }

  if (cluster_ == nullptr) {
    IOTSEC_LOG_WARN("posture for %s needs a umbox but no cluster is set",
                    md.device->spec().name.c_str());
    if (config_.fail_closed) InstallIsolation(md);
    return;
  }

  if (md.umbox) {
    // Existing instance: hot reconfigure.
    dataplane::Umbox* box = cluster_->Find(*md.umbox);
    if (box != nullptr &&
        box->state() != dataplane::UmboxState::kCrashed) {
      std::string error;
      const std::string config = EffectiveConfig(md, posture.umbox_config);
      if (!box->Reconfigure(config, &error)) {
        IOTSEC_LOG_ERROR("reconfig failed for %s: %s",
                         md.device->spec().name.c_str(), error.c_str());
        md.rejected_posture = posture;
        md.rejected_crowd_version = rollout_.VersionOf(md.device->id());
        return;
      }
      md.crowd_spliced = SplicesCrowd(md);
      ++stats_.umbox_reconfigs;
      audit_.Record(sim_.Now(), AuditCategory::kUmbox,
                    md.device->spec().name,
                    "hot reconfig of umbox " + std::to_string(*md.umbox));
      md.posture = posture;
      return;
    }
    // Crashed in place or lost with its host: the new posture supersedes
    // any in-flight recovery — abandon the instance and launch fresh.
    AbandonUmbox(md);
  }

  // Overload shedding: at kShed or worse a fresh launch would only deepen
  // the boot-queue backlog. Refuse it, quarantine the device (fail closed
  // — never fail open under pressure; no enforcement-failure accounting,
  // this is intentional degradation) and leave md.posture stale so
  // OnAdmissionRelaxed()'s re-evaluation retries the launch.
  if (admission_ != nullptr &&
      !admission_->AllowLaunch(md.device->id(), sim_.Now())) {
    md.launch_shed = true;
    audit_.Record(sim_.Now(), AuditCategory::kUmbox, md.device->spec().name,
                  "launch shed by admission control (" +
                      std::string(BrownoutLevelName(admission_->level())) +
                      "); quarantined until pressure drops");
    InstallQuarantine(md);
    return;
  }

  dataplane::UmboxHost* host = cluster_->PickHost();
  if (host == nullptr) {
    IOTSEC_LOG_ERROR("cluster at capacity; cannot enforce posture for %s",
                     md.device->spec().name.c_str());
    if (config_.fail_closed) InstallIsolation(md);
    return;
  }
  dataplane::UmboxSpec spec;
  spec.id = next_umbox_id_++;
  spec.device = md.device->id();
  spec.config_text = EffectiveConfig(md, posture.umbox_config);
  spec.boot = config_.umbox_boot;
  spec.boot_queue_limit = config_.boot_queue_limit;
  dataplane::ElementContext ctx;
  ctx.sim = &sim_;
  ctx.context = &view_;
  std::string error;
  dataplane::Umbox* box = host->Launch(spec, ctx, &error);
  if (box == nullptr) {
    // PickHost vouched for the host's liveness and capacity, so the
    // config itself was refused.
    IOTSEC_LOG_ERROR("umbox launch failed for %s: %s",
                     md.device->spec().name.c_str(), error.c_str());
    md.rejected_posture = posture;
    md.rejected_crowd_version = rollout_.VersionOf(md.device->id());
    if (config_.fail_closed) InstallIsolation(md);
    return;
  }
  md.crowd_spliced = SplicesCrowd(md);
  ++stats_.umbox_launches;
  audit_.Record(sim_.Now(), AuditCategory::kUmbox, md.device->spec().name,
                "launched umbox " + std::to_string(spec.id) + " (" +
                    std::string(dataplane::BootModelName(spec.boot)) +
                    ") for posture " + posture.profile);
  md.umbox = spec.id;
  if (config_.self_healing) {
    health_.TrackUmbox(spec.id, host->id(), sim_.Now());
  }
  // Divert immediately; the µmbox queues packets while booting, so the
  // device keeps (delayed) connectivity instead of a blackhole.
  InstallDiversion(md, spec.id);
  md.posture = posture;
}

void IoTSecController::InstallDiversion(ManagedDevice& md, UmboxId umbox) {
  RemoveDiversion(md);
  const ManagedSwitch* ms = FindSwitch(md.sw->id());
  if (ms == nullptr) return;
  // Tunnel out the port of the host actually serving this µmbox — after
  // a failover the instance lives somewhere else than the default
  // first-host port.
  int tunnel_port = ms->cluster_port;
  if (cluster_ != nullptr) {
    if (dataplane::UmboxHost* host = cluster_->HostOf(umbox)) {
      const auto it = ms->host_ports.find(host->id());
      if (it != ms->host_ports.end()) tunnel_port = it->second;
    }
  }
  ++flow_version_;
  const auto ip = md.device->spec().ip;
  for (const auto& match :
       {sdn::FlowMatch::FromIp(ip), sdn::FlowMatch::ToIp(ip)}) {
    sdn::FlowEntry entry;
    entry.priority = 100;
    entry.match = match;
    entry.actions = {sdn::FlowAction::Tunnel(umbox, tunnel_port)};
    entry.cookie = 0x1000000ull + md.device->id();
    entry.version = flow_version_;
    EmitInstall(md.sw, entry, /*urgent=*/false);
  }
}

void IoTSecController::InstallIsolation(ManagedDevice& md) {
  ++stats_.enforcement_failures;
  audit_.Record(sim_.Now(), AuditCategory::kFailure,
                md.device->spec().name,
                "enforcement failed; fail-closed isolation installed");
  InstallQuarantine(md);
}

void IoTSecController::InstallQuarantine(ManagedDevice& md) {
  RemoveDiversion(md);
  if (FindSwitch(md.sw->id()) == nullptr) return;
  ++flow_version_;
  const auto ip = md.device->spec().ip;
  for (const auto& match :
       {sdn::FlowMatch::FromIp(ip), sdn::FlowMatch::ToIp(ip)}) {
    sdn::FlowEntry entry;
    entry.priority = 100;
    entry.match = match;
    entry.actions = {sdn::FlowAction::Drop()};
    entry.cookie = 0x1000000ull + md.device->id();
    entry.version = flow_version_;
    // Quarantine drops are the fail-closed invariant: they must not wait
    // out a batching quantum.
    EmitInstall(md.sw, entry, /*urgent=*/true);
  }
}

void IoTSecController::RemoveDiversion(ManagedDevice& md) {
  if (FindSwitch(md.sw->id()) == nullptr) return;
  EmitRemoveByCookie(md.sw, 0x1000000ull + md.device->id(),
                     /*urgent=*/false);
}

void IoTSecController::EmitInstall(sdn::Switch* sw,
                                   const sdn::FlowEntry& entry,
                                   bool urgent) {
  if (federation_ != nullptr) {
    federation_->batcher().Install(sw, entry, urgent);
    return;
  }
  sw->flow_table().Install(entry);
  ++stats_.flow_ops;
  // Flat: every flow op is its own control message.
  if (obs::Enabled()) obs::M().ctl_msg_rule_pushes->Inc();
}

void IoTSecController::EmitRemoveByCookie(sdn::Switch* sw,
                                          std::uint64_t cookie,
                                          bool urgent) {
  if (federation_ != nullptr) {
    federation_->batcher().RemoveByCookie(sw, cookie, urgent);
    return;
  }
  stats_.flow_ops += sw->flow_table().RemoveByCookie(cookie);
  if (obs::Enabled()) obs::M().ctl_msg_rule_pushes->Inc();
}

// ---------------------------------------------------------------------
// Self-healing: heartbeats in, failures detected, recovery driven.

void IoTSecController::DeliverControl(std::function<void()> fn) {
  if (control_drop_rate_ > 0.0 &&
      control_fault_rng_.NextBool(control_drop_rate_)) {
    ++stats_.control_drops;
    return;
  }
  sim_.After(config_.control_latency + control_extra_delay_, std::move(fn));
}

void IoTSecController::SetControlChannelFault(double drop_rate,
                                              SimDuration extra_delay) {
  control_drop_rate_ = drop_rate;
  control_extra_delay_ = extra_delay;
}

void IoTSecController::OnHostHeartbeat(ServerId host,
                                       std::vector<UmboxId> running) {
  ++stats_.heartbeats;
  if (obs::Enabled()) obs::M().ctl_heartbeats->Inc();
  if (federation_ != nullptr) {
    // Locals absorb heartbeats; the global tier gets one aggregated
    // summary per sync epoch.
    federation_->NoteHeartbeat();
  } else if (obs::Enabled()) {
    obs::M().ctl_msg_heartbeat_forwards->Inc();
  }
  health_.OnHeartbeat(host, running, sim_.Now());
}

void IoTSecController::CheckHealth() {
  const auto failures = health_.Check(sim_.Now());
  for (const auto& hf : failures.hosts) HandleHostFailure(hf);
  for (const UmboxId id : failures.umboxes) {
    HandleUmboxFailure(id, "heartbeat lost");
  }
}

void IoTSecController::HandleHostFailure(
    const HealthMonitor::HostFailure& failure) {
  ++stats_.host_failures;
  audit_.Record(sim_.Now(), AuditCategory::kRecovery, "",
                "host " + std::to_string(failure.host) +
                    " stopped heartbeating; failing over " +
                    std::to_string(failure.umboxes.size()) + " umbox(es)");
  IOTSEC_LOG_WARN("host %u declared dead; %zu umboxes to fail over",
                  failure.host, failure.umboxes.size());
  for (const UmboxId id : failure.umboxes) {
    HandleUmboxFailure(id, "lost with its host");
  }
}

void IoTSecController::HandleUmboxFailure(UmboxId umbox, const char* cause) {
  ManagedDevice* md = FindByUmbox(umbox);
  if (md == nullptr) return;  // already re-postured away
  ++stats_.detected_failures;
  if (obs::Enabled()) {
    obs::M().ctl_heartbeat_misses->Inc();
    obs::FlightRecorder::Global().Record(
        obs::TraceEventType::kHeartbeatMiss, sim_.Now(), umbox,
        md->device->id());
    // The crash declaration is the flight recorder's raison d'être: hand
    // the merged pre-crash timeline to whatever sink the deployment
    // configured (no sink configured -> just a timeline marker).
    obs::FlightRecorder::Global().Incident(
        "umbox " + std::to_string(umbox) + " on device " +
            md->device->spec().name + ": " + cause,
        sim_.Now());
  }
  md->recovering = true;
  md->recovery_attempts = 0;
  md->failure_detected_at = sim_.Now();
  ++md->recovery_epoch;
  // Rollout health gate input: a cohort device crashing during the hold
  // window fails the canary immediately (max_cohort_crashes default 0).
  rollout_.OnDeviceCrash(md->device->id());
  audit_.Record(sim_.Now(), AuditCategory::kRecovery, md->device->spec().name,
                "umbox " + std::to_string(umbox) + " " + cause + "; " +
                    (config_.fail_closed ? "fail-closed quarantine"
                                         : "fail-open forwarding") +
                    " while recovering");
  // The invariant: while the guard is down, no packet may reach the
  // device unfiltered. Quarantine drop rules replace the diversion until
  // the replacement instance reports ready.
  if (config_.fail_closed) {
    InstallQuarantine(*md);
  } else {
    RemoveDiversion(*md);
  }
  ScheduleRecoveryAttempt(*md);
}

void IoTSecController::ScheduleRecoveryAttempt(ManagedDevice& md) {
  if (md.recovery_attempts >= config_.max_restart_attempts) {
    ++stats_.recovery_give_ups;
    if (obs::Enabled()) {
      obs::FlightRecorder::Global().Record(
          obs::TraceEventType::kRecoveryGiveUp, sim_.Now(),
          md.device->id(),
          static_cast<std::uint64_t>(config_.max_restart_attempts));
    }
    md.recovering = false;
    if (md.umbox) {
      health_.UntrackUmbox(*md.umbox);
      md.umbox.reset();
    }
    audit_.Record(sim_.Now(), AuditCategory::kRecovery,
                  md.device->spec().name,
                  "recovery abandoned after " +
                      std::to_string(config_.max_restart_attempts) +
                      " attempt(s); device stays " +
                      (config_.fail_closed ? "quarantined" : "unguarded"));
    IOTSEC_LOG_ERROR("giving up on %s after %d recovery attempts",
                     md.device->spec().name.c_str(),
                     config_.max_restart_attempts);
    return;
  }
  const int attempt = md.recovery_attempts++;
  SimDuration backoff = config_.restart_backoff_base
                        << std::min(attempt, 30);
  backoff = std::min(backoff, config_.restart_backoff_cap);
  backoff += static_cast<SimDuration>(recovery_rng_.NextDouble() *
                                      config_.restart_jitter *
                                      static_cast<double>(backoff));
  const DeviceId device = md.device->id();
  const std::uint64_t epoch = md.recovery_epoch;
  sim_.After(backoff,
             [this, device, epoch] { AttemptRecovery(device, epoch); });
}

void IoTSecController::AttemptRecovery(DeviceId device,
                                       std::uint64_t epoch) {
  const auto it = devices_.find(device);
  if (it == devices_.end()) return;
  ManagedDevice& md = it->second;
  if (!md.recovering || md.recovery_epoch != epoch) return;
  if (!md.posture.tunnel || md.posture.umbox_config.empty() ||
      cluster_ == nullptr) {
    // The posture no longer wants a µmbox; nothing to restore.
    md.recovering = false;
    return;
  }
  // Overload deferral: restarting into a saturated cluster amplifies the
  // outage (boot queues, host load, restart storms). Wait out the defer
  // interval and ask again — the attempt budget is NOT consumed, deferral
  // is not failure, and the device stays quarantined (fail closed)
  // meanwhile. A posture change mid-defer bumps the epoch and this
  // continuation no-ops.
  if (admission_ != nullptr && admission_->DeferRestart(device, sim_.Now())) {
    audit_.Record(sim_.Now(), AuditCategory::kRecovery,
                  md.device->spec().name,
                  "restart deferred by admission control (" +
                      std::string(BrownoutLevelName(admission_->level())) +
                      ")");
    sim_.After(admission_->config().restart_defer_interval,
               [this, device, epoch] { AttemptRecovery(device, epoch); });
    return;
  }

  const std::string config = EffectiveConfig(md, md.posture.umbox_config);
  const int attempt = md.recovery_attempts;  // for the boot watchdog

  // Preferred: restart in place — same id, same host, same tunnel rules.
  if (md.umbox) {
    dataplane::UmboxHost* host = cluster_->HostOf(*md.umbox);
    if (host != nullptr && host->alive()) {
      if (dataplane::Umbox* box = host->Find(*md.umbox)) {
        std::string error;
        const UmboxId id = *md.umbox;
        const ServerId server = host->id();
        if (box->Restart(config, &error, [this, device, epoch, id, server] {
              FinishRecovery(device, epoch, id, server, /*failover=*/false);
            })) {
          md.crowd_spliced = SplicesCrowd(md);
          audit_.Record(sim_.Now(), AuditCategory::kRecovery,
                        md.device->spec().name,
                        "restarting umbox " + std::to_string(id) +
                            " in place (attempt " +
                            std::to_string(attempt) + ")");
          ArmRecoveryWatchdog(device, epoch, attempt);
          return;
        }
        IOTSEC_LOG_ERROR("in-place restart failed for %s: %s",
                         md.device->spec().name.c_str(), error.c_str());
      }
    }
  }

  // Failover: a fresh instance on the least-loaded surviving host.
  dataplane::UmboxHost* host = cluster_->PickHost();
  if (host == nullptr) {
    audit_.Record(sim_.Now(), AuditCategory::kRecovery,
                  md.device->spec().name,
                  "no surviving host with capacity (attempt " +
                      std::to_string(attempt) + "); backing off");
    ScheduleRecoveryAttempt(md);
    return;
  }
  dataplane::UmboxSpec spec;
  spec.id = next_umbox_id_++;
  spec.device = device;
  spec.config_text = config;
  spec.boot = config_.umbox_boot;
  spec.boot_queue_limit = config_.boot_queue_limit;
  dataplane::ElementContext ctx;
  ctx.sim = &sim_;
  ctx.context = &view_;
  std::string error;
  const ServerId server = host->id();
  dataplane::Umbox* box = host->Launch(
      spec, ctx, &error, [this, device, epoch, id = spec.id, server] {
        FinishRecovery(device, epoch, id, server, /*failover=*/true);
      });
  if (box == nullptr) {
    IOTSEC_LOG_ERROR("failover launch failed for %s: %s",
                     md.device->spec().name.c_str(), error.c_str());
    ScheduleRecoveryAttempt(md);
    return;
  }
  md.crowd_spliced = SplicesCrowd(md);
  audit_.Record(sim_.Now(), AuditCategory::kRecovery, md.device->spec().name,
                "failing over to umbox " + std::to_string(spec.id) +
                    " on host " + std::to_string(server) + " (attempt " +
                    std::to_string(attempt) + ")");
  // The old instance (if any) died with its host; point at the
  // replacement. Forwarding is restored only once it reports ready.
  md.umbox = spec.id;
  ArmRecoveryWatchdog(device, epoch, attempt);
}

void IoTSecController::ArmRecoveryWatchdog(DeviceId device,
                                           std::uint64_t epoch,
                                           int attempt) {
  // If the replacement dies mid-boot (e.g. its host crashes too), its
  // on_ready callback never fires and — since booting instances are not
  // health-tracked — no new detection would come. The watchdog retries.
  const SimDuration grace = dataplane::BootLatency(config_.umbox_boot) +
                            health_.Timeout() +
                            2 * config_.control_latency;
  sim_.After(grace, [this, device, epoch, attempt] {
    const auto it = devices_.find(device);
    if (it == devices_.end()) return;
    ManagedDevice& md = it->second;
    if (!md.recovering || md.recovery_epoch != epoch) return;
    // `attempt` is the count as of the attempt this watchdog guards; a
    // higher count means a newer attempt superseded it.
    if (md.recovery_attempts != attempt) return;
    audit_.Record(sim_.Now(), AuditCategory::kRecovery,
                  md.device->spec().name,
                  "replacement never came up (attempt " +
                      std::to_string(attempt) + "); retrying");
    ScheduleRecoveryAttempt(md);
  });
}

void IoTSecController::FinishRecovery(DeviceId device, std::uint64_t epoch,
                                      UmboxId umbox, ServerId host,
                                      bool failover) {
  const auto it = devices_.find(device);
  if (it == devices_.end()) return;
  ManagedDevice& md = it->second;
  if (!md.recovering || md.recovery_epoch != epoch) return;
  md.recovering = false;
  md.umbox = umbox;
  if (failover) {
    ++stats_.recovery_failovers;
  } else {
    ++stats_.recovery_restarts;
  }
  const SimDuration mttr = sim_.Now() - md.failure_detected_at;
  stats_.mttr_total += mttr;
  stats_.mttr_max = std::max(stats_.mttr_max, mttr);
  ++stats_.mttr_samples;
  if (obs::Enabled()) {
    obs::M().ctl_recoveries->Inc();
    // Simulated-time MTTR (detection -> forwarding restored); the only
    // registry histogram fed sim-ns rather than wall-ns.
    obs::M().ctl_mttr_ns->Record(mttr);
    obs::FlightRecorder::Global().Record(
        failover ? obs::TraceEventType::kUmboxFailover
                 : obs::TraceEventType::kUmboxRestart,
        sim_.Now(), umbox, failover ? host : device);
  }
  if (config_.self_healing) {
    health_.TrackUmbox(umbox, host, sim_.Now());
  }
  // Replacement is filtering again: swap the quarantine drops back for
  // version-stamped diversion rules.
  InstallDiversion(md, umbox);
  audit_.Record(sim_.Now(), AuditCategory::kRecovery, md.device->spec().name,
                std::string(failover ? "failover" : "restart") +
                    " complete; umbox " + std::to_string(umbox) +
                    " ready on host " + std::to_string(host) + ", mttr " +
                    FormatDuration(mttr));
  IOTSEC_LOG_INFO("%s recovered via %s (umbox %u, mttr %s)",
                  md.device->spec().name.c_str(),
                  failover ? "failover" : "restart", umbox,
                  FormatDuration(mttr).c_str());
}

void IoTSecController::AbandonUmbox(ManagedDevice& md) {
  ++md.recovery_epoch;
  md.recovering = false;
  if (!md.umbox) return;
  health_.UntrackUmbox(*md.umbox);
  if (cluster_ != nullptr) {
    if (dataplane::UmboxHost* host = cluster_->HostOf(*md.umbox)) {
      host->Stop(*md.umbox);
    }
  }
  md.umbox.reset();
}

void IoTSecController::OnAdmissionRelaxed() {
  bool any = false;
  for (auto& [id, md] : devices_) {
    if (md.launch_shed) {
      md.launch_shed = false;
      any = true;
    }
  }
  // One re-evaluation covers every shed device; the control latency the
  // schedule pays models the real cost of the retry sweep.
  if (any) ScheduleReevaluate();
}

int IoTSecController::RecoveringCount() const {
  int count = 0;
  for (const auto& [id, md] : devices_) {
    if (md.recovering) ++count;
  }
  return count;
}

bool IoTSecController::Recovering(DeviceId device) const {
  const auto it = devices_.find(device);
  return it != devices_.end() && it->second.recovering;
}

std::vector<std::pair<DeviceId, std::string>> IoTSecController::DeviceNames()
    const {
  std::vector<std::pair<DeviceId, std::string>> out;
  out.reserve(devices_.size());
  for (const auto& [id, md] : devices_) {
    out.emplace_back(id, md.device->spec().name);
  }
  return out;
}

std::optional<UmboxId> IoTSecController::UmboxOf(DeviceId device) const {
  const auto it = devices_.find(device);
  if (it == devices_.end()) return std::nullopt;
  return it->second.umbox;
}

std::string IoTSecController::PostureProfileOf(DeviceId device) const {
  const auto it = devices_.find(device);
  if (it == devices_.end()) return "";
  return it->second.posture.profile;
}

IoTSecController::ManagedDevice* IoTSecController::FindByIp(
    net::Ipv4Address ip) {
  const auto id = id_by_ip_.find(ip);
  if (id == id_by_ip_.end()) return nullptr;
  const auto it = devices_.find(id->second);
  return it == devices_.end() ? nullptr : &it->second;
}

IoTSecController::ManagedDevice* IoTSecController::FindByUmbox(
    UmboxId umbox) {
  for (auto& [id, md] : devices_) {
    if (md.umbox && *md.umbox == umbox) return &md;
  }
  return nullptr;
}

}  // namespace iotsec::control
