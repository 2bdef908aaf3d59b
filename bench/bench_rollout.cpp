// Rollout bench: the signed delta-ruleset OTA pipeline end to end.
//
// Part A — distribution cost at fleet scale. 10k receivers already at
// version N-1 upgrade to N two ways:
//
//   full fan-out   every receiver gets the whole ruleset as a snapshot,
//                  one message each (the cost of pushing without deltas)
//   delta          every receiver gets the one-rule signed delta, batched
//                  push_batch manifests per control-plane message
//
// plus the trust boundary: a tampered copy of the delta is offered to
// every receiver first and must be rejected by all 10k with zero state
// change.
//
// Part B — containment. A 10k-device fleet staged at {10, 100, 1000}
// permille: a good version must walk every stage and promote to 100%; a
// bad version (false-positive alert storm in whoever runs it) must be
// caught by the canary health gate, roll every exposed device back to
// the good version, be quarantined, and never touch a device beyond the
// first canary cohort.
//
// Part C — determinism. One real deployment (crowd accept -> version cut
// -> staged rollout -> promote) at 1, 2 and 8 dataplane shards; the
// coordinator's decision digest must be bit-identical.
//
// Acceptance gates:
//   * delta bytes < full bytes AND delta messages < full messages at the
//     10k cell (HARD)
//   * all 10k tampered manifests rejected, zero applied (HARD)
//   * good version promotes to the whole fleet (HARD)
//   * bad version: rolled back + quarantined, exposure == first-stage
//     canary cohort only, zero devices left on it (HARD)
//   * decision digest bit-identical across {1, 2, 8} shards (HARD)
//   * total wall clock under budget — relaxed when IOTSEC_BENCH_LAX_PERF
//     is set (CI shared runners)
//
// Emits BENCH_rollout.json; exit 1 on any hard-gate failure.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "control/admission.h"
#include "core/iotsec.h"
#include "rollout/coordinator.h"
#include "rollout/manifest.h"
#include "rollout/receiver.h"
#include "rollout/version_store.h"

using namespace iotsec;

namespace {

constexpr int kReceivers = 10000;
constexpr int kFleet = 10000;
constexpr std::uint32_t kPushBatch = 32;

std::string RuleWithSid(int sid) {
  return "block udp any any -> any 5009 (msg:\"crowd rule " +
         std::to_string(sid) + "\"; sid:" + std::to_string(sid) +
         "; iot_backdoor; )";
}

std::vector<std::string> Rules(int first_sid, int count) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(RuleWithSid(first_sid + i));
  return out;
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------- Part A

struct DistResult {
  std::uint64_t full_bytes = 0;
  std::uint64_t full_msgs = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t delta_msgs = 0;
  std::uint64_t tampered_rejected = 0;
  std::uint64_t tampered_applied = 0;
  int converged = 0;
  double wall_seconds = 0;
};

DistResult RunDistribution() {
  const auto wall_start = std::chrono::steady_clock::now();
  DistResult r;

  // A 40-rule SKU ruleset gains one rule: version 2.
  rollout::VersionStore store;
  auto rules = Rules(1000, 40);
  store.Cut("SKU", rules);
  rules.push_back(RuleWithSid(2000));
  store.Cut("SKU", rules);

  // Bring every receiver to version 1 (not metered — both arms start
  // from the same installed base).
  std::vector<rollout::RulesetReceiver> receivers(kReceivers);
  rollout::RulesetManifest bootstrap;
  if (!store.ManifestFor("SKU", 0, 1, &bootstrap)) return r;
  for (int i = 0; i < kReceivers; ++i) {
    receivers[static_cast<std::size_t>(i)].Apply(
        bootstrap, static_cast<std::uint32_t>(i));
  }

  rollout::RulesetManifest snapshot;  // the full fan-out unit
  rollout::RulesetManifest delta;     // the composed one-rule delta
  if (!store.ManifestFor("SKU", 0, 2, &snapshot)) return r;
  if (!store.ManifestFor("SKU", 1, 2, &delta)) return r;

  // Trust boundary first: a tampered delta (one injected rule, stale
  // signature) is offered to the whole fleet.
  auto tampered = delta;
  tampered.add.push_back(
      "block ip any any -> any any (msg:\"inject\"; sid:666; )");
  for (int i = 0; i < kReceivers; ++i) {
    const auto result = receivers[static_cast<std::size_t>(i)].Apply(
        tampered, static_cast<std::uint32_t>(i));
    if (result == rollout::ApplyResult::kApplied) {
      ++r.tampered_applied;
    } else {
      ++r.tampered_rejected;
    }
  }

  // Full fan-out arm: whole ruleset to every receiver, one message each.
  r.full_bytes = static_cast<std::uint64_t>(snapshot.WireBytes()) *
                 static_cast<std::uint64_t>(kReceivers);
  r.full_msgs = kReceivers;

  // Delta arm: the real apply, metered the way the coordinator pushes
  // (push_batch manifests per control-plane message).
  for (int i = 0; i < kReceivers; ++i) {
    auto& rx = receivers[static_cast<std::size_t>(i)];
    if (rx.Apply(delta, static_cast<std::uint32_t>(i)) ==
        rollout::ApplyResult::kApplied) {
      r.delta_bytes += delta.WireBytes();
    }
  }
  r.delta_msgs = (kReceivers + kPushBatch - 1) / kPushBatch;

  const auto target_hash = store.HashAt("SKU", 2);
  for (const auto& rx : receivers) {
    if (rx.version() == 2 && rx.content_hash() == target_hash) ++r.converged;
  }
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return r;
}

// ---------------------------------------------------------------- Part B

struct ContainResult {
  std::uint64_t good_promoted = 0;   // devices on the good version at end
  std::uint64_t bad_exposed = 0;     // devices that ever ran the bad one
  std::uint64_t bad_residual = 0;    // devices still on it at end (must be 0)
  std::uint64_t canary_cohort = 0;   // first-stage cohort size
  std::uint64_t rollbacks = 0;
  std::uint64_t bad_stages_applied = 0;
  bool quarantined = false;
  std::uint64_t digest = 0;
  double wall_seconds = 0;
};

ContainResult RunContainment() {
  const auto wall_start = std::chrono::steady_clock::now();
  sim::Simulator sim;
  rollout::VersionStore store;
  rollout::RolloutConfig config;
  config.stages = {10, 100, 1000};
  config.stage_hold = 100 * kMillisecond;
  config.push_batch = kPushBatch;
  const control::AdmissionController admission({});  // monitor: no defers
  rollout::RolloutCoordinator coord(sim, &store, config, admission);
  coord.SetApplier(
      [](DeviceId, const std::shared_ptr<const sig::CompiledRuleset>&) {});
  for (DeviceId d = 1; d <= kFleet; ++d) coord.RegisterDevice(d, "SKU");

  // Good version: walks the whole ladder unopposed.
  auto rules = Rules(1000, 8);
  const auto good = store.Cut("SKU", rules);
  coord.OnVersionCut("SKU");
  sim.RunFor(kSecond);

  ContainResult r;
  const auto applied_before_bad = coord.stats().devices_applied;
  const auto stages_before_bad = coord.stats().stages_applied;

  // Bad version: every device that runs it false-positives constantly.
  rules.push_back(RuleWithSid(3000));
  const auto bad = store.Cut("SKU", rules);
  sim.After(10 * kMillisecond, [&] { coord.OnVersionCut("SKU"); });
  // The storm: 5 alerts from every bad-cohort device inside each hold.
  auto storm = sim.Every(30 * kMillisecond, [&] {
    for (DeviceId d = 1; d <= kFleet; ++d) {
      if (coord.VersionOf(d) == bad) {
        for (int i = 0; i < 5; ++i) coord.OnDeviceAlert(d);
      }
    }
  });
  sim.RunFor(2 * kSecond);
  storm.Cancel();

  r.bad_exposed = coord.stats().devices_applied - applied_before_bad;
  r.bad_stages_applied = coord.stats().stages_applied - stages_before_bad;
  r.rollbacks = coord.stats().rollbacks;
  r.quarantined = store.IsQuarantined("SKU", bad);
  for (DeviceId d = 1; d <= kFleet; ++d) {
    if (coord.VersionOf(d) == good) ++r.good_promoted;
    if (coord.VersionOf(d) == bad) ++r.bad_residual;
    if (rollout::RolloutCoordinator::InCohort(d, bad, config.stages[0])) {
      ++r.canary_cohort;
    }
  }
  r.digest = coord.DecisionDigest();
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return r;
}

// ---------------------------------------------------------------- Part C

struct ShardResult {
  std::uint64_t digest = 0;
  std::uint64_t stable = 0;
  std::uint64_t promotions = 0;
  double wall_seconds = 0;
};

/// One real deployment: crowd accept -> version cut -> staged rollout ->
/// promote, at a given dataplane shard count.
ShardResult RunDeployment(int shards) {
  const auto wall_start = std::chrono::steady_clock::now();
  obs::FlightRecorder::Global().Clear();

  core::DeploymentOptions opts;
  opts.shards = shards;
  opts.rollout.stages = {500, 1000};
  opts.rollout.stage_hold = 200 * kMillisecond;
  core::Deployment dep(opts);
  dep.AddSmartPlug("wemo1", "oven_power");
  dep.AddSmartPlug("wemo2", "tv_power");
  dep.AddSmartPlug("wemo3", "lamp_power");
  dep.AddSmartPlug("wemo4", "fan_power");
  dep.AddCamera("cam");

  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));

  learn::CrowdRepo repo;
  dep.controller().AttachCrowdRepo(&repo);
  dep.Start();
  dep.RunFor(kSecond);

  learn::SignatureReport report;
  report.sku = "Wemo-Insight";
  report.rule_text =
      "block udp any any -> any 5009 (msg:\"leaked-cred reboot abuse\"; "
      "sid:9400; iotcmd:reboot; )";
  const auto id = repo.Publish(report).id;
  for (const auto* voter : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
    repo.Vote(id, voter, true);
  }
  dep.RunFor(2 * kSecond);

  ShardResult r;
  r.digest = dep.rollout()->DecisionDigest();
  r.stable = dep.rollout()->StableOf("Wemo-Insight");
  r.promotions = dep.rollout()->stats().promotions;
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return r;
}

}  // namespace

int main() {
  net::SetPacketTracing(false);
  const bool lax_perf = std::getenv("IOTSEC_BENCH_LAX_PERF") != nullptr;
  const auto bench_start = std::chrono::steady_clock::now();

  std::printf("== Part A: distribution cost, %d receivers ==\n", kReceivers);
  const DistResult dist = RunDistribution();
  std::printf(
      "  full fan-out: %8llu bytes in %5llu msgs\n"
      "  signed delta: %8llu bytes in %5llu msgs  (%.1fx fewer bytes)\n"
      "  tampered manifests: %llu rejected, %llu applied\n"
      "  converged to v2: %d/%d\n",
      static_cast<unsigned long long>(dist.full_bytes),
      static_cast<unsigned long long>(dist.full_msgs),
      static_cast<unsigned long long>(dist.delta_bytes),
      static_cast<unsigned long long>(dist.delta_msgs),
      dist.delta_bytes > 0 ? static_cast<double>(dist.full_bytes) /
                                 static_cast<double>(dist.delta_bytes)
                           : 0.0,
      static_cast<unsigned long long>(dist.tampered_rejected),
      static_cast<unsigned long long>(dist.tampered_applied),
      dist.converged, kReceivers);

  std::printf("\n== Part B: containment, %d-device fleet ==\n", kFleet);
  const ContainResult contain = RunContainment();
  std::printf(
      "  good version: %llu/%d devices promoted\n"
      "  bad version:  exposed=%llu (canary cohort %llu), residual=%llu, "
      "stages=%llu, rollbacks=%llu, quarantined=%s\n",
      static_cast<unsigned long long>(contain.good_promoted), kFleet,
      static_cast<unsigned long long>(contain.bad_exposed),
      static_cast<unsigned long long>(contain.canary_cohort),
      static_cast<unsigned long long>(contain.bad_residual),
      static_cast<unsigned long long>(contain.bad_stages_applied),
      static_cast<unsigned long long>(contain.rollbacks),
      contain.quarantined ? "yes" : "NO");

  std::printf("\n== Part C: deployment digest across shard counts ==\n");
  struct ShardRow {
    int shards;
    ShardResult r;
  };
  std::vector<ShardRow> shard_rows;
  bool deterministic = true;
  bool all_promoted = true;
  std::uint64_t ref_digest = 0;
  for (const int shards : {1, 2, 8}) {
    const ShardResult r = RunDeployment(shards);
    shard_rows.push_back({shards, r});
    std::printf("  shards=%d digest=%s stable=v%llu promotions=%llu\n",
                shards, Hex(r.digest).c_str(),
                static_cast<unsigned long long>(r.stable),
                static_cast<unsigned long long>(r.promotions));
    all_promoted = all_promoted && r.stable == 1 && r.promotions == 1;
    if (shards == 1) {
      ref_digest = r.digest;
    } else if (r.digest != ref_digest) {
      deterministic = false;
      std::printf("!! DETERMINISM VIOLATION at %d shards\n", shards);
    }
  }

  const double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  const bool delta_pass = dist.delta_bytes < dist.full_bytes &&
                          dist.delta_msgs < dist.full_msgs &&
                          dist.converged == kReceivers;
  const bool tamper_pass =
      dist.tampered_applied == 0 &&
      dist.tampered_rejected == static_cast<std::uint64_t>(kReceivers);
  const bool good_pass =
      contain.good_promoted + contain.bad_residual ==
          static_cast<std::uint64_t>(kFleet) &&
      contain.good_promoted == static_cast<std::uint64_t>(kFleet);
  const bool contain_pass = contain.rollbacks >= 1 && contain.quarantined &&
                            contain.bad_residual == 0 &&
                            contain.bad_stages_applied == 1 &&
                            contain.bad_exposed == contain.canary_cohort &&
                            contain.bad_exposed < kFleet / 10;
  const double wall_budget = 120.0;
  const bool wall_pass = lax_perf || total_wall <= wall_budget;
  const bool pass = delta_pass && tamper_pass && good_pass && contain_pass &&
                    deterministic && all_promoted && wall_pass;

  if (FILE* json = std::fopen("BENCH_rollout.json", "w")) {
    bench::JsonWriter w(json);
    w.BeginObject();
    w.Key("distribution");
    w.BeginObject();
    w.Field("receivers", static_cast<std::uint64_t>(kReceivers));
    w.Field("full_bytes", dist.full_bytes);
    w.Field("full_messages", dist.full_msgs);
    w.Field("delta_bytes", dist.delta_bytes);
    w.Field("delta_messages", dist.delta_msgs);
    w.Field("tampered_rejected", dist.tampered_rejected);
    w.Field("tampered_applied", dist.tampered_applied);
    w.Field("converged", static_cast<std::uint64_t>(dist.converged));
    w.Field("wall_seconds", dist.wall_seconds, 3);
    w.EndObject();
    w.Key("containment");
    w.BeginObject();
    w.Field("fleet", static_cast<std::uint64_t>(kFleet));
    w.Field("good_promoted", contain.good_promoted);
    w.Field("bad_exposed", contain.bad_exposed);
    w.Field("canary_cohort", contain.canary_cohort);
    w.Field("bad_residual", contain.bad_residual);
    w.Field("bad_stages_applied", contain.bad_stages_applied);
    w.Field("rollbacks", contain.rollbacks);
    w.Field("quarantined", contain.quarantined);
    w.Key("digest");
    w.Value(Hex(contain.digest));
    w.Field("wall_seconds", contain.wall_seconds, 3);
    w.EndObject();
    w.Key("deployment_cells");
    w.BeginArray();
    for (const ShardRow& row : shard_rows) {
      w.BeginObject();
      w.Field("shards", static_cast<std::uint64_t>(row.shards));
      w.Key("digest");
      w.Value(Hex(row.r.digest));
      w.Field("stable_version", row.r.stable);
      w.Field("promotions", row.r.promotions);
      w.Field("wall_seconds", row.r.wall_seconds, 3);
      w.EndObject();
    }
    w.EndArray();
    w.Key("acceptance");
    w.BeginObject();
    w.Field("delta_pass", delta_pass);
    w.Field("tamper_pass", tamper_pass);
    w.Field("good_promotes_pass", good_pass);
    w.Field("containment_pass", contain_pass);
    w.Field("deterministic", deterministic);
    w.Field("all_promoted", all_promoted);
    w.Field("total_wall_seconds", total_wall, 1);
    w.Field("wall_budget_seconds", wall_budget, 0);
    w.Field("lax_perf", lax_perf);
    w.Field("pass", pass);
    w.EndObject();
    w.EndObject();
    std::fclose(json);
    std::printf("\nwrote BENCH_rollout.json\n");
  }

  std::printf(
      "delta: %s  tamper: %s  good-promotes: %s  containment: %s  "
      "deterministic: %s  wall: %.1fs\n",
      delta_pass ? "pass" : "FAIL", tamper_pass ? "pass" : "FAIL",
      good_pass ? "pass" : "FAIL", contain_pass ? "pass" : "FAIL",
      deterministic ? "yes" : "NO", total_wall);
  return pass ? 0 : 1;
}
