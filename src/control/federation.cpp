#include "control/federation.h"

#include <algorithm>

#include "control/controller.h"
#include "control/hierarchy.h"
#include "obs/obs.h"
#include "sdn/switch.h"

namespace iotsec::control {

// ---------------------------------------------------------------------
// RulePushBatcher

void RulePushBatcher::Start() {
  sim_.Every(cfg_.quantum, [this] { FlushAll(); });
}

RulePushBatcher::Buffer& RulePushBatcher::BufferFor(sdn::Switch* sw) {
  Buffer& buf = buffers_[sw->id()];
  buf.sw = sw;
  return buf;
}

void RulePushBatcher::Install(sdn::Switch* sw, const sdn::FlowEntry& entry,
                              bool urgent) {
  Buffer& buf = BufferFor(sw);
  if (entry.cookie == 0) {
    buf.base.push_back(entry);
  } else {
    buf.by_cookie[entry.cookie].installs.push_back(entry);
  }
  ++buf.ops;
  ++stats_.ops_buffered;
  if (urgent) {
    ++stats_.urgent_flushes;
    ScheduleImmediateFlush(buf);
  } else if (buf.ops >= cfg_.max_batch) {
    ScheduleImmediateFlush(buf);
  }
}

void RulePushBatcher::RemoveByCookie(sdn::Switch* sw, std::uint64_t cookie,
                                     bool urgent) {
  Buffer& buf = BufferFor(sw);
  CookieOps& slot = buf.by_cookie[cookie];
  // Net effect: the remove supersedes every buffered install for this
  // cookie (and a second remove collapses into the first).
  if (!slot.installs.empty()) {
    stats_.ops_coalesced += slot.installs.size();
    buf.ops -= slot.installs.size();
    slot.installs.clear();
  }
  if (slot.remove) {
    ++stats_.ops_coalesced;
  } else {
    slot.remove = true;
    ++buf.ops;
  }
  ++stats_.ops_buffered;
  if (urgent) {
    ++stats_.urgent_flushes;
    ScheduleImmediateFlush(buf);
  } else if (buf.ops >= cfg_.max_batch) {
    ScheduleImmediateFlush(buf);
  }
}

void RulePushBatcher::ScheduleImmediateFlush(Buffer& buffer) {
  if (buffer.flush_scheduled) return;
  buffer.flush_scheduled = true;
  // After(0) runs once the current event handler returns, so a logical
  // remove+install sequence emitted within one handler still lands in a
  // single batch message.
  const SwitchId id = buffer.sw->id();
  sim_.After(0, [this, id] {
    const auto it = buffers_.find(id);
    if (it != buffers_.end()) Flush(it->second);
  });
}

void RulePushBatcher::FlushAll() {
  for (auto& [id, buf] : buffers_) Flush(buf);
}

bool RulePushBatcher::HasPending() const {
  for (const auto& [id, buf] : buffers_) {
    if (buf.ops > 0) return true;
  }
  return false;
}

void RulePushBatcher::Flush(Buffer& buffer) {
  buffer.flush_scheduled = false;
  if (buffer.ops == 0 && buffer.by_cookie.empty() && buffer.base.empty()) {
    return;
  }
  std::vector<sdn::FlowMod> mods;
  mods.reserve(buffer.ops);
  // Cookie-ascending emit order; within a cookie the remove precedes the
  // installs (the flow table breaks priority ties earliest-installed, so
  // replacement rules must be re-installed after their remove).
  for (auto& [cookie, slot] : buffer.by_cookie) {
    if (slot.remove) {
      sdn::FlowMod mod;
      mod.op = sdn::FlowMod::Op::kRemoveByCookie;
      mod.cookie = cookie;
      mods.push_back(std::move(mod));
    }
    for (sdn::FlowEntry& entry : slot.installs) {
      sdn::FlowMod mod;
      mod.op = sdn::FlowMod::Op::kInstall;
      mod.cookie = entry.cookie;
      mod.entry = std::move(entry);
      mods.push_back(std::move(mod));
    }
  }
  for (sdn::FlowEntry& entry : buffer.base) {
    sdn::FlowMod mod;
    mod.op = sdn::FlowMod::Op::kInstall;
    mod.entry = std::move(entry);
    mods.push_back(std::move(mod));
  }
  buffer.by_cookie.clear();
  buffer.base.clear();
  buffer.ops = 0;
  if (mods.empty()) return;

  const SwitchId sw_id = buffer.sw->id();
  digest_ = hash::MixPair(
      digest_, hash::MixPair(static_cast<std::uint64_t>(sw_id),
                             static_cast<std::uint64_t>(sim_.Now())));
  for (const sdn::FlowMod& mod : mods) {
    const bool install = mod.op == sdn::FlowMod::Op::kInstall;
    const std::uint64_t detail =
        install ? (static_cast<std::uint64_t>(mod.entry.priority) << 32) |
                      mod.entry.version
                : 0;
    digest_ = hash::MixPair(
        digest_,
        hash::MixPair(install ? 1u : 2u, hash::MixPair(mod.cookie, detail)));
  }
  buffer.sw->ApplyFlowMods(mods);
  ++stats_.pushes;
  stats_.ops_emitted += mods.size();
  if (obs::Enabled()) {
    obs::M().ctl_msg_rule_pushes->Inc();
    obs::M().ctl_fed_push_ops->Inc(static_cast<std::uint64_t>(mods.size()));
    obs::FlightRecorder::Global().Record(
        obs::TraceEventType::kFederationPush, sim_.Now(),
        static_cast<std::uint64_t>(sw_id), mods.size());
  }
}

// ---------------------------------------------------------------------
// FederatedControlPlane

FederatedControlPlane::FederatedControlPlane(sim::Simulator& simulator,
                                             IoTSecController& ctl,
                                             FederationConfig config)
    : sim_(simulator),
      ctl_(ctl),
      cfg_(config),
      batcher_(simulator, RulePushBatcher::Config{}) {}

void FederatedControlPlane::Build() {
  const auto device_names = ctl_.DeviceNames();  // ascending id
  std::vector<std::string> names;
  std::map<std::string, DeviceId> id_of;
  names.reserve(device_names.size());
  for (const auto& [id, name] : device_names) {
    names.push_back(name);
    id_of[name] = id;
  }

  // Interaction edges come from the policy itself: device A interacts
  // with device B when a rule binding A reads one of B's dimensions.
  const policy::FsmPolicy& policy = ctl_.ActivePolicy();
  std::vector<std::pair<std::string, std::string>> edges;
  for (const auto& [id, name] : device_names) {
    for (const std::string& dim : policy.RelevantDims(id)) {
      std::string other;
      if (dim.rfind("ctx:", 0) == 0 || dim.rfind("dev:", 0) == 0) {
        other = dim.substr(4);
      }
      if (other.empty() || other == name) continue;
      if (id_of.count(other) != 0) edges.emplace_back(name, other);
    }
  }

  segments_.clear();
  segment_of_.clear();
  views_.clear();
  for (const auto& group : PartitionByInteraction(names, edges)) {
    std::vector<DeviceId> ids;
    ids.reserve(group.size());
    for (const std::string& name : group) ids.push_back(id_of.at(name));
    std::sort(ids.begin(), ids.end());
    // Finite local-controller capacity: oversized interaction groups are
    // split into consecutive id-ordered chunks. The resulting segments
    // read each other's keys, which is what the delta sync is for.
    const std::size_t cap =
        cfg_.max_segment_devices == 0 ? ids.size() : cfg_.max_segment_devices;
    for (std::size_t begin = 0; begin < ids.size(); begin += cap) {
      const int seg = static_cast<int>(segments_.size());
      std::vector<DeviceId> chunk(
          ids.begin() + static_cast<std::ptrdiff_t>(begin),
          ids.begin() +
              static_cast<std::ptrdiff_t>(std::min(begin + cap, ids.size())));
      for (const DeviceId id : chunk) segment_of_[id] = seg;
      segments_.push_back(std::move(chunk));
      views_.emplace_back(seg);
    }
  }
  reeval_pending_.assign(segments_.size(), false);

  // Dependency index: which segments read which keys, lifted from the
  // controller's key -> device index. A device key read by any segment
  // other than its owner becomes a sync candidate.
  for (const auto& [dim, devices] : ctl_.dependencies().Entries()) {
    for (const DeviceId reader : devices) {
      global_.AddDependency(dim, segment_of_.at(reader));
    }
  }
  cross_keys_.clear();
  for (const auto& [dim, segs] : global_.dependencies().Entries()) {
    std::string owner;
    if (dim.rfind("ctx:", 0) == 0 || dim.rfind("dev:", 0) == 0) {
      owner = dim.substr(4);
    }
    const auto it = owner.empty() ? id_of.end() : id_of.find(owner);
    if (it == id_of.end()) continue;  // env/global keys are not deltas
    const int owner_seg = segment_of_.at(it->second);
    for (const int seg : segs) {
      if (seg != owner_seg) {
        cross_keys_.insert(dim);
        break;
      }
    }
  }
  built_ = true;
}

namespace {
// Delta sync epoch: each segment ships its dirty set this often (and
// heartbeats are aggregated into one summary per epoch).
constexpr SimDuration kSyncPeriod = 5 * kMillisecond;
// Event -> segment-local decision latency. Locals sit near their
// devices, so this is well under the flat control_latency.
constexpr SimDuration kLocalLatency = 200 * kMicrosecond;
// Global-tier notification latency (sync wakeups, env fan-out): the
// cross-segment analogue of ControllerConfig::control_latency.
constexpr SimDuration kGlobalLatency = kMillisecond;
}  // namespace

void FederatedControlPlane::Start() {
  sim_.Every(kSyncPeriod, [this] { SyncTick(); });
  batcher_.Start();
}

int FederatedControlPlane::SegmentOf(DeviceId device) const {
  const auto it = segment_of_.find(device);
  return it == segment_of_.end() ? -1 : it->second;
}

std::string FederatedControlPlane::ReadViewKey(
    const std::string& dim_key) const {
  const GlobalView& view = ctl_.view();
  if (dim_key.rfind("ctx:", 0) == 0) {
    return view.DeviceContext(dim_key.substr(4)).value_or("");
  }
  if (dim_key.rfind("dev:", 0) == 0) {
    return view.DeviceState(dim_key.substr(4)).value_or("");
  }
  if (dim_key.rfind("env:", 0) == 0) {
    return view.EnvLevel(dim_key.substr(4)).value_or("");
  }
  return "";
}

void FederatedControlPlane::OnDeviceEvent(DeviceId device,
                                          const std::string& dim_key) {
  const int seg = SegmentOf(device);
  if (seg < 0 || !built_) {
    OnGlobalEvent(dim_key);
    return;
  }
  ++stats_.local_events;
  if (cross_keys_.count(dim_key) != 0) {
    views_[static_cast<std::size_t>(seg)].Set(dim_key, ReadViewKey(dim_key));
  }
  ScheduleSegmentReevaluate(seg, /*remote=*/false);
}

void FederatedControlPlane::OnGlobalEvent(const std::string& dim_key) {
  ++stats_.global_events;
  event_digest_ = hash::MixPair(event_digest_, hash::Fnv1a(dim_key));
  // Global keys fan out directly: one notify message per dependent
  // segment (there is no owning segment to absorb them).
  for (const int seg : global_.DependentsOf(dim_key, /*except=*/-1)) {
    ++stats_.context_syncs;
    if (obs::Enabled()) obs::M().ctl_msg_context_syncs->Inc();
    ScheduleSegmentReevaluate(seg, /*remote=*/true);
  }
}

void FederatedControlPlane::NoteHeartbeat() {
  ++heartbeats_since_sync_;
  ++stats_.heartbeats_absorbed;
}

void FederatedControlPlane::SyncTick() {
  std::set<int> wake;
  for (std::size_t seg = 0; seg < views_.size(); ++seg) {
    if (!views_[seg].HasDirty()) continue;
    const StateDelta delta = views_[seg].DrainDelta();
    ++stats_.context_syncs;  // one segment -> global message
    stats_.sync_keys += delta.entries.size();
    if (obs::Enabled()) {
      obs::M().ctl_msg_context_syncs->Inc();
      obs::M().ctl_fed_sync_keys->Inc(
          static_cast<std::uint64_t>(delta.entries.size()));
      obs::FlightRecorder::Global().Record(
          obs::TraceEventType::kFederationSync, sim_.Now(),
          static_cast<std::uint64_t>(delta.segment), delta.entries.size());
    }
    for (const int dep : global_.Apply(delta)) wake.insert(dep);
  }
  for (const int seg : wake) {
    ++stats_.context_syncs;  // one global -> segment wakeup message
    if (obs::Enabled()) obs::M().ctl_msg_context_syncs->Inc();
    ScheduleSegmentReevaluate(seg, /*remote=*/true);
  }
  if (heartbeats_since_sync_ > 0) {
    heartbeats_since_sync_ = 0;
    ++stats_.heartbeat_forwards;  // one aggregated summary per epoch
    if (obs::Enabled()) obs::M().ctl_msg_heartbeat_forwards->Inc();
  }
}

void FederatedControlPlane::ScheduleSegmentReevaluate(int segment,
                                                      bool remote) {
  auto pending =
      reeval_pending_.begin() + static_cast<std::ptrdiff_t>(segment);
  if (*pending) {
    ++stats_.reevals_coalesced;
    if (obs::Enabled()) obs::M().ctl_reevals_coalesced->Inc();
    return;
  }
  *pending = true;
  const SimDuration delay = remote ? kGlobalLatency : kLocalLatency;
  sim_.After(delay, [this, segment, remote] {
    reeval_pending_[static_cast<std::size_t>(segment)] = false;
    if (remote) {
      ++stats_.remote_reevals;
      if (obs::Enabled()) obs::M().ctl_fed_remote_reevals->Inc();
    } else {
      ++stats_.local_reevals;
      if (obs::Enabled()) obs::M().ctl_fed_local_reevals->Inc();
    }
    ctl_.ReevaluateDevices(
        segments_[static_cast<std::size_t>(segment)]);
  });
}

}  // namespace iotsec::control
