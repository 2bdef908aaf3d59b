#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <set>

#include "common/rng.h"

namespace e2ebench {

using namespace iotsec;

namespace {

constexpr std::uint32_t kFleetSize = 128;
// posture_churn: devices [0, kStableHalf) never change posture and carry
// the legit stream; the rest take the triggers and the oracle's probes.
constexpr std::uint32_t kStableHalf = kFleetSize / 2;
constexpr SimDuration kWarmup = 500 * kMillisecond;
// The run loop advances in chunks so the benchmark can read the audit log
// and sample the event queue between them; a multiple of the shard quantum.
constexpr SimDuration kChunk = 10 * kMillisecond;
constexpr SimDuration kDrain = 200 * kMillisecond;
// Attack bursts: the controller escalates suspicious -> compromised on a
// device's third alert, so one burst always yields exactly one change.
constexpr int kAttackBurst = 3;
// Per-device spacing between triggers; longer than a µmbox boot (30 ms
// micro-VM) so an attack never lands in a booting instance's queue.
constexpr SimDuration kMinTriggerGap = 35 * kMillisecond;
// Operator events flip 1..(2 * kMeanFlips - 1) devices, kFlipSpacing apart
// on average.
constexpr std::int64_t kMeanFlips = 4;
constexpr SimDuration kFlipSpacing = 100 * kMicrosecond;
// Probes stay clear of their device's triggers by this much, so the
// posture they are judged against is settled.
constexpr SimDuration kProbeBefore = 3 * kMillisecond;
constexpr SimDuration kProbeAfter = 10 * kMillisecond;
// A judged probe needs its posture to hold this long after its send.
constexpr SimDuration kProbeSettle = 2 * kMillisecond;

struct Params {
  double legit_rate = 0;    // legit requests per sim-second
  bool padded = false;      // every other request padded to ~1400 B
  double probe_rate = 0;    // posture_churn probes per sim-second
  double trigger_rate = 0;  // posture_churn triggers per sim-second
  double attack_share = 0;  // share of trigger events that are attacks
  SimDuration length = 0;   // traffic window
};

// Rates keep every link below saturation (no growing backlog) but load
// the shared link enough that most exchanges queue somewhere, so sim-time
// RTT percentiles reflect load rather than one fixed path delay. The
// lengths make one run take about a second of wall time.
Params ParamsFor(WorkloadKind kind) {
  Params p;
  switch (kind) {
    case WorkloadKind::kGuardedMix:
      // ~40% of the µmbox-cluster uplink: each exchange crosses it twice
      // per direction, ~1 kB per direction on average.
      p.legit_rate = 5000;
      p.padded = true;
      p.length = 5 * kSecond;
      break;
    case WorkloadKind::kDirectSmall:
      // ~60% of the client's 100 Mbit/s access link with ~130 B requests.
      p.legit_rate = 60000;
      p.length = 2 * kSecond;
      break;
    case WorkloadKind::kPostureChurn:
      // The direct_small load on the stable half, under the triggers.
      p.legit_rate = 60000;
      p.probe_rate = 1000;
      p.trigger_rate = 1200;
      p.attack_share = 0.2;
      p.length = 2 * kSecond;
      break;
  }
  return p;
}

std::string DeviceName(std::uint32_t index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "dev-%03u", index);
  return buf;
}

devices::Device* AddDevice(core::Deployment& dep, std::uint32_t index) {
  const std::string name = DeviceName(index);
  switch (index % 10) {
    case 0: return dep.AddCamera(name);
    case 1: return dep.AddSmartPlug(name, "");
    case 2: return dep.AddThermostat(name);
    case 3: return dep.AddFireAlarm(name);
    case 4: return dep.AddWindow(name);
    case 5: return dep.AddSmartLock(name);
    case 6: return dep.AddLightBulb(name);
    case 7: return dep.AddLightSensor(name);
    case 8: return dep.AddSmartOven(name);
    default: return dep.AddMotionSensor(name);
  }
}

// Only cameras serve "/"; every other path and class answers 404.
int ExpectedStatus(const devices::Device& device, bool bare) {
  return device.spec().cls == devices::DeviceClass::kCamera && bare ? 200
                                                                     : 404;
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "e2ebench: %s\n", why.c_str());
  std::exit(2);
}

// Device addresses come from Deployment::MakeSpec, which wraps its host
// octet silently; an aliased fleet would answer for the wrong device and
// flatter every number, so refuse it outright.
void CheckAddresses(core::Deployment& dep,
                    const std::vector<devices::Device*>& fleet) {
  std::set<std::uint32_t> seen;
  const std::uint32_t attacker = dep.attacker().ip().value();
  const std::uint32_t hub = dep.controller().hub_ip().value();
  for (const devices::Device* device : fleet) {
    const std::uint32_t ip = device->spec().ip.value();
    if (ip == attacker || ip == hub || !seen.insert(ip).second) {
      Die("fleet address " + device->spec().ip.ToString() +
          " aliases another node");
    }
  }
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

std::string MakePad(Rng& rng) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  // ~1311 path bytes make a ~1400 B frame. Lower-case letters and digits
  // cannot spell any builtin signature (they all need ':', '-', ' ' or
  // upper case), so padded traffic raises no alert.
  const auto len = static_cast<std::size_t>(rng.NextInRange(1290, 1330));
  std::string pad = "/?pad=";
  pad.reserve(len + pad.size());
  for (std::size_t i = 0; i < len; ++i) {
    pad += kAlphabet[rng.NextBelow(sizeof kAlphabet - 1)];
  }
  return pad;
}

SimDuration NextGap(Rng& rng, double rate) {
  return static_cast<SimDuration>(
      rng.NextExponential(static_cast<double>(kSecond) / rate));
}

void MakeChurnTriggers(const Params& p, Rng& rng, Schedule& s) {
  struct ChurnState {
    std::string context = "normal";
    SimDuration last = 0;
    bool triggered = false;
  };
  std::vector<ChurnState> state(kFleetSize);
  static const std::vector<std::string> kContexts = {"normal", "suspicious",
                                                     "compromised"};
  auto eligible = [&](SimDuration t, bool need_suspicious) {
    std::vector<std::uint32_t> out;
    for (std::uint32_t d = kStableHalf; d < kFleetSize; ++d) {
      const ChurnState& cs = state[d];
      if (cs.triggered && t < cs.last + kMinTriggerGap) continue;
      if (need_suspicious && cs.context != "suspicious") continue;
      out.push_back(d);
    }
    return out;
  };
  auto add = [&](SimDuration t, std::uint32_t d, bool attack) {
    ChurnState& cs = state[d];
    Trigger trig;
    trig.at = t;
    trig.device = d;
    if (attack) {
      trig.kind = Trigger::Kind::kAttack;
      cs.context = "compromised";
    } else {
      std::vector<std::string> others;
      for (const auto& c : kContexts) {
        if (c != cs.context) others.push_back(c);
      }
      trig.context = others[rng.NextBelow(others.size())];
      cs.context = trig.context;
    }
    cs.last = t;
    cs.triggered = true;
    s.triggers.push_back(std::move(trig));
  };
  // Trigger events arrive as a Poisson stream. An attack event is one
  // burst against one Monitor-posture device; an operator event flips a
  // few devices in quick succession (an incident touching several at
  // once), so most flips land while a reevaluation is already pending.
  const double event_rate =
      p.trigger_rate / (p.attack_share + (1 - p.attack_share) * kMeanFlips);
  // Leave room for the last reactions to land before the drain ends.
  const SimDuration stop = p.length - 50 * kMillisecond;
  for (SimDuration t = NextGap(rng, event_rate); t < stop;
       t += NextGap(rng, event_rate)) {
    if (rng.NextBool(p.attack_share)) {
      const auto targets = eligible(t, /*need_suspicious=*/true);
      if (!targets.empty()) {
        add(t, targets[rng.NextBelow(targets.size())], /*attack=*/true);
        continue;
      }
    }
    const auto flips = rng.NextInRange(1, 2 * kMeanFlips - 1);
    SimDuration at = t;
    for (std::int64_t k = 0; k < flips; ++k) {
      const auto targets = eligible(at, /*need_suspicious=*/false);
      if (targets.empty()) break;
      add(at, targets[rng.NextBelow(targets.size())], /*attack=*/false);
      at += NextGap(rng, static_cast<double>(kSecond) / kFlipSpacing);
    }
  }
  std::stable_sort(s.triggers.begin(), s.triggers.end(),
                   [](const Trigger& a, const Trigger& b) {
                     return a.at < b.at;
                   });
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  static const std::map<std::string, WorkloadKind> kNames = {
      {"guarded_mix", WorkloadKind::kGuardedMix},
      {"direct_small", WorkloadKind::kDirectSmall},
      {"posture_churn", WorkloadKind::kPostureChurn}};
  const auto it = kNames.find(name);
  if (it == kNames.end()) return false;
  *out = it->second;
  return true;
}

Schedule MakeSchedule(WorkloadKind kind, std::uint64_t seed) {
  const Params p = ParamsFor(kind);
  Rng rng(Mix(seed, static_cast<std::uint64_t>(kind) + 1));
  Schedule s;
  s.kind = kind;
  s.length = p.length;
  if (p.padded) {
    for (int i = 0; i < 32; ++i) s.pads.push_back(MakePad(rng));
  }

  if (kind != WorkloadKind::kPostureChurn) {
    // Round-robin over the whole fleet; every device alternates bare and
    // padded requests when the workload pads.
    std::uint64_t i = 0;
    for (SimDuration t = NextGap(rng, p.legit_rate); t < p.length;
         t += NextGap(rng, p.legit_rate), ++i) {
      Request r;
      r.at = t;
      r.device = static_cast<std::uint32_t>(i % kFleetSize);
      if (p.padded && ((i + i / kFleetSize) & 1) != 0) {
        r.pad = static_cast<std::uint16_t>(1 + rng.NextBelow(s.pads.size()));
      }
      s.requests.push_back(r);
    }
    return s;
  }

  MakeChurnTriggers(p, rng, s);
  std::vector<std::vector<SimDuration>> trigger_times(kFleetSize);
  for (const Trigger& t : s.triggers) trigger_times[t.device].push_back(t.at);
  for (SimDuration t = NextGap(rng, p.probe_rate); t < p.length;
       t += NextGap(rng, p.probe_rate)) {
    const auto d = static_cast<std::uint32_t>(
        kStableHalf + rng.NextBelow(kFleetSize - kStableHalf));
    const bool near_trigger = std::any_of(
        trigger_times[d].begin(), trigger_times[d].end(),
        [t](SimDuration at) {
          return at + kProbeAfter > t && t + kProbeBefore > at;
        });
    if (near_trigger) continue;
    Request r;
    r.at = t;
    r.device = d;
    r.probe = true;
    s.requests.push_back(r);
  }
  std::uint64_t i = 0;
  for (SimDuration t = NextGap(rng, p.legit_rate); t < p.length;
       t += NextGap(rng, p.legit_rate), ++i) {
    Request r;
    r.at = t;
    r.device = static_cast<std::uint32_t>(i % kStableHalf);
    s.requests.push_back(r);
  }
  std::stable_sort(s.requests.begin(), s.requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.at < b.at;
                   });
  return s;
}

Fleet BuildFleet(WorkloadKind kind) {
  core::DeploymentOptions opts;
  // One µmbox host with room for the whole fleet: every guarded device
  // gets its own µmbox behind the single cluster uplink.
  opts.cluster_hosts = 1;
  opts.host_capacity = static_cast<int>(kFleetSize);
  if (kind == WorkloadKind::kGuardedMix) {
    // The only workload on the sharded engine; the others leave `shards`
    // unset and follow the default engine.
    opts.shards = 2;
    opts.shard_threads = true;
  }
  Fleet fleet;
  fleet.dep = std::make_unique<core::Deployment>(opts);
  core::Deployment& dep = *fleet.dep;
  for (std::uint32_t i = 0; i < kFleetSize; ++i) {
    fleet.devices.push_back(AddDevice(dep, i));
  }
  CheckAddresses(dep, fleet.devices);

  policy::FsmPolicy policy;
  switch (kind) {
    case WorkloadKind::kGuardedMix:
      policy.SetDefault(core::MonitorPosture());
      break;
    case WorkloadKind::kDirectSmall:
      policy.SetDefault(core::TrustPosture());
      break;
    case WorkloadKind::kPostureChurn:
      policy.SetDefault(core::TrustPosture());
      for (const devices::Device* device : fleet.devices) {
        const std::string dim =
            policy::StateSpace::ContextDim(device->spec().name);
        policy.Add({device->spec().name + "-suspicious",
                    policy::StatePredicate::Eq(dim, "suspicious"),
                    device->id(), core::MonitorPosture(), 1});
        policy.Add({device->spec().name + "-compromised",
                    policy::StatePredicate::Eq(dim, "compromised"),
                    device->id(), core::QuarantinePosture(), 2});
      }
      break;
  }
  fleet.space = dep.BuildStateSpace();
  dep.UsePolicy(fleet.space, std::move(policy));
  dep.Start();
  dep.RunFor(kWarmup);
  return fleet;
}

namespace {

struct Outcome {
  SimTime arrival = 0;
  int status = 0;
  bool answered = false;
};

std::uint64_t PendingEvents(core::Deployment& dep) {
  sim::ShardSet* shards = dep.shard_set();
  if (shards == nullptr) return dep.sim().PendingEvents();
  std::uint64_t total = 0;
  for (int s = 0; s < shards->shard_count(); ++s) {
    total += shards->sim(s).PendingEvents();
  }
  return total;
}

std::uint64_t EventsProcessed(core::Deployment& dep) {
  sim::ShardSet* shards = dep.shard_set();
  if (shards == nullptr) return dep.sim().EventsProcessed();
  std::uint64_t total = 0;
  for (int s = 0; s < shards->shard_count(); ++s) {
    total += shards->sim(s).EventsProcessed();
  }
  return total;
}

std::string InitialProfile(WorkloadKind kind) {
  return kind == WorkloadKind::kGuardedMix ? core::MonitorPosture().profile
                                           : core::TrustPosture().profile;
}

}  // namespace

DriveResult Drive(Fleet& fleet, const Schedule& schedule) {
  core::Deployment& dep = *fleet.dep;
  sim::Simulator& sim = dep.sim();  // shard 0: attacker and controller
  control::IoTSecController& ctl = dep.controller();
  const SimTime base = dep.Now();
  const std::size_t n_req = schedule.requests.size();
  const std::size_t n_trig = schedule.triggers.size();
  DriveResult result;
  auto fail = [&result](const std::string& why) {
    ++result.failed;
    if (result.errors.size() < 8) result.errors.push_back(why);
  };

  std::vector<Outcome> outcomes(n_req);
  std::map<std::string, std::uint32_t> index_of;
  for (std::uint32_t d = 0; d < fleet.devices.size(); ++d) {
    index_of[fleet.devices[d]->spec().name] = d;
  }

  // Open-loop generators: each send schedules the next one at its own
  // sim-time, so one generator event is pending at a time.
  std::size_t next_req = 0;
  std::function<void()> send_request = [&] {
    const std::size_t id = next_req++;
    const Request& r = schedule.requests[id];
    const devices::DeviceSpec& spec = fleet.devices[r.device]->spec();
    dep.attacker().HttpGet(
        spec.ip, spec.mac, r.pad == 0 ? "/" : schedule.pads[r.pad - 1u],
        std::nullopt, [&outcomes, &sim, id](const proto::HttpResponse& resp) {
          outcomes[id] = {sim.Now(), resp.status, true};
        });
    if (next_req < n_req) {
      sim.At(base + schedule.requests[next_req].at, send_request);
    }
  };
  std::vector<std::deque<std::pair<std::size_t, SimTime>>> pending(
      fleet.devices.size());
  std::size_t next_trig = 0;
  std::function<void()> send_trigger = [&] {
    const std::size_t id = next_trig++;
    const Trigger& t = schedule.triggers[id];
    const devices::DeviceSpec& spec = fleet.devices[t.device]->spec();
    pending[t.device].emplace_back(id, sim.Now());
    if (t.kind == Trigger::Kind::kFlip) {
      ctl.SetDeviceContext(spec.name, t.context);
    } else {
      // Unauthenticated management access: alert-only signature 1002.
      for (int k = 0; k < kAttackBurst; ++k) {
        dep.attacker().HttpGet(spec.ip, spec.mac, "/admin", std::nullopt,
                               [](const proto::HttpResponse&) {});
      }
    }
    if (next_trig < n_trig) {
      sim.At(base + schedule.triggers[next_trig].at, send_trigger);
    }
  };
  if (n_req > 0) sim.At(base + schedule.requests[0].at, send_request);
  if (n_trig > 0) sim.At(base + schedule.triggers[0].at, send_trigger);

  // Posture timeline per device, read back from the controller's audit
  // log between chunks.
  const std::string initial = InitialProfile(schedule.kind);
  std::vector<std::vector<std::pair<SimTime, std::string>>> timeline(
      fleet.devices.size(), {{0, initial}});
  std::vector<std::pair<std::size_t, double>> reacts;
  std::uint64_t audit_seen = ctl.audit().TotalRecorded();
  auto read_audit = [&] {
    const control::AuditLog& audit = ctl.audit();
    const std::uint64_t fresh = audit.TotalRecorded() - audit_seen;
    audit_seen = audit.TotalRecorded();
    const auto& entries = audit.Entries();
    if (fresh > entries.size()) {
      fail("audit log overflowed between chunks");
      return;
    }
    for (std::size_t k = entries.size() - fresh; k < entries.size(); ++k) {
      const control::AuditEntry& e = entries[k];
      if (e.category != control::AuditCategory::kPosture) continue;
      const auto dev = index_of.find(e.device);
      const auto arrow = e.message.find(" -> ");
      if (dev == index_of.end() || arrow == std::string::npos) continue;
      const std::uint32_t d = dev->second;
      timeline[d].emplace_back(e.at, e.message.substr(arrow + 4));
      if (pending[d].empty()) {
        fail("posture change without a trigger on " + e.device);
        continue;
      }
      const auto [trig, at] = pending[d].front();
      pending[d].pop_front();
      reacts.emplace_back(trig, static_cast<double>(e.at - at) / 1e3);
    }
  };

  const std::uint64_t alerts_before = ctl.stats().alerts;
  const std::uint64_t events_before = EventsProcessed(dep);
  const SimTime end = base + schedule.length + kDrain;
  const auto wall_start = std::chrono::steady_clock::now();
  while (dep.Now() < end) {
    dep.RunFor(kChunk);
    result.queue_depth.push_back(static_cast<double>(PendingEvents(dep)));
    result.pool_live_max =
        std::max(result.pool_live_max, net::PacketPool::Current().Live());
    read_audit();
  }
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  result.events = EventsProcessed(dep) - events_before;

  // ---- The oracle.
  for (std::uint32_t d = 0; d < pending.size(); ++d) {
    if (!pending[d].empty()) {
      fail("trigger without a posture change on " + DeviceName(d));
    }
  }
  if (schedule.kind == WorkloadKind::kGuardedMix &&
      ctl.stats().alerts != alerts_before) {
    fail("benign traffic raised " +
         std::to_string(ctl.stats().alerts - alerts_before) + " alert(s)");
  }
  std::uint64_t digest = Mix(0, n_req);
  for (std::size_t i = 0; i < n_req; ++i) {
    const Request& r = schedule.requests[i];
    const Outcome& o = outcomes[i];
    const devices::Device& device = *fleet.devices[r.device];
    const SimTime sent = base + r.at;
    ++result.attempted;
    digest = Mix(Mix(Mix(digest, i), o.answered ? o.arrival - base : 0),
                 static_cast<std::uint64_t>(o.status));
    bool must_answer = true;
    if (r.probe) {
      // Judge against the posture in force at the send; a probe whose
      // device changes posture right after it is outside the oracle.
      const auto& tl = timeline[r.device];
      auto after = std::upper_bound(
          tl.begin(), tl.end(), sent,
          [](SimTime t, const auto& entry) { return t < entry.first; });
      const std::string& posture = std::prev(after)->second;
      if (after != tl.end() && after->first <= sent + kProbeSettle) {
        fail("probe " + std::to_string(i) + " sent during a transition");
        continue;
      }
      must_answer = posture != core::QuarantinePosture().profile;
    }
    if (!must_answer) {
      if (o.answered) {
        fail("quarantined " + device.spec().name + " answered probe " +
             std::to_string(i));
      }
      continue;
    }
    const int expected = ExpectedStatus(device, r.pad == 0);
    if (!o.answered || o.status != expected) {
      fail("request " + std::to_string(i) + " to " + device.spec().name +
           ": got " + (o.answered ? std::to_string(o.status) : "no answer") +
           ", want " + std::to_string(expected));
      continue;
    }
    ++result.exchanges;
    if (!r.probe) {
      result.rtt_us.push_back(static_cast<double>(o.arrival - sent) / 1e3);
    }
  }
  for (const auto& [trig, react] : reacts) {
    digest = Mix(Mix(digest, trig),
                 static_cast<std::uint64_t>(std::llround(react * 1e3)));
    result.react_us.push_back(react);
  }
  result.transitions = reacts.size();
  result.digest = digest;
  return result;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace e2ebench
