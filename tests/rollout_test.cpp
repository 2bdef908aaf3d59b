// Signed delta-ruleset OTA pipeline: manifests, receivers, the version
// store and the staged-canary coordinator (src/rollout/).
//
// The layers under test map to the defense-in-depth story: a tampered or
// out-of-chain manifest never touches receiver state; rollback is a
// pointer swap to the pinned previous compile (never a recompile); the
// canary cohort is a deterministic hash, so rollout decision traces are
// placement-invariant; and a failed health gate quarantines the version
// in the store so nothing ever re-offers it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "control/admission.h"
#include "core/iotsec.h"
#include "rollout/coordinator.h"
#include "rollout/manifest.h"
#include "rollout/receiver.h"
#include "rollout/version_store.h"
#include "sim/simulator.h"
#include "verify/diff_verify.h"

namespace iotsec::rollout {
namespace {

std::string RuleWithSid(int sid) {
  return "block udp any any -> any 5009 (msg:\"r" + std::to_string(sid) +
         "\"; sid:" + std::to_string(sid) + "; iot_backdoor; )";
}

std::vector<std::string> Rules(int first_sid, int count) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(RuleWithSid(first_sid + i));
  return out;
}

// ---------------------------------------------------------------- manifests

TEST(ManifestTest, SignVerifyAndTamperDetection) {
  RulesetManifest m;
  m.sku = "Wemo-Insight";
  m.version = 3;
  m.snapshot = true;
  m.add = Rules(100, 2);
  m.content_hash = HashRuleList(m.add);
  Sign(m, /*key=*/0xFEED);
  EXPECT_TRUE(VerifySignature(m, 0xFEED));
  EXPECT_FALSE(VerifySignature(m, 0xBEEF)) << "wrong key must fail";

  auto tampered = m;
  tampered.add[0] = RuleWithSid(666);  // injected rule
  EXPECT_FALSE(VerifySignature(tampered, 0xFEED));
  tampered = m;
  tampered.version = 4;  // replayed at a different version
  EXPECT_FALSE(VerifySignature(tampered, 0xFEED));
  tampered = m;
  tampered.remove.push_back(HashRuleText(m.add[0]));  // dropped rule
  EXPECT_FALSE(VerifySignature(tampered, 0xFEED));
}

// The signature scheme this MAC replaced: fmix64(Digest() ^ key), where
// Digest() was fmix64 over an FNV-1a fold of the fields. fmix64 is a
// public bijection, so one signed manifest gave away the key.
std::uint64_t OldDigest(const RulesetManifest& m) {
  std::uint64_t h = hash::Fnv1a(m.sku, hash::kTruncatedFnvOffset);
  for (const std::uint64_t v : {m.version, m.content_hash, m.parent_hash,
                                std::uint64_t{m.snapshot}, m.add.size()}) {
    h = hash::Fnv1aU64(v, h);
  }
  for (const auto& text : m.add) h = hash::Fnv1a(text, h);
  h = hash::Fnv1aU64(m.remove.size(), h);
  for (const std::uint64_t r : m.remove) h = hash::Fnv1aU64(r, h);
  return hash::Fmix64(h);
}

constexpr std::uint64_t InverseMod64(std::uint64_t odd) {
  std::uint64_t x = odd;  // Newton's iteration doubles the correct bits
  for (int i = 0; i < 5; ++i) x *= 2 - odd * x;
  return x;
}

std::uint64_t UnFmix64(std::uint64_t h) {
  h ^= h >> 33;  // a shift of 33 or more is its own inverse
  h *= InverseMod64(0xc4ceb9fe1a85ec53ull);
  h ^= h >> 33;
  h *= InverseMod64(0xff51afd7ed558ccdull);
  return h ^ (h >> 33);
}

TEST(ManifestTest, SignatureDoesNotLeakKey) {
  constexpr std::uint64_t kKey = 0x5EC2E7C0FFEEull;
  RulesetManifest m;
  m.sku = "Wemo-Insight";
  m.version = 2;
  m.add = Rules(100, 2);
  m.content_hash = HashRuleList(m.add);
  Sign(m, kKey);
  ASSERT_EQ(UnFmix64(hash::Fmix64(m.signature)), m.signature);

  // The attack: invert the scramble, strip the public digest, and sign a
  // manifest carrying an injected blocking rule with the recovered key.
  const std::uint64_t recovered = UnFmix64(m.signature) ^ OldDigest(m);
  auto forged = m;
  forged.add.push_back(RuleWithSid(666));
  forged.content_hash = HashRuleList(forged.add);
  Sign(forged, recovered);
  EXPECT_FALSE(VerifySignature(forged, kKey));
  forged.signature = hash::Fmix64(OldDigest(forged) ^ recovered);
  EXPECT_FALSE(VerifySignature(forged, kKey));
}

// Rule texts are length-prefixed: moving a boundary between two adds
// changes the signed bytes.
TEST(ManifestTest, SignatureSeparatesRuleBoundaries) {
  RulesetManifest m;
  m.sku = "Wemo-Insight";
  m.version = 2;
  m.add = {"ab", "c"};
  Sign(m, 0xFEED);
  auto shifted = m;
  shifted.add = {"a", "bc"};
  EXPECT_FALSE(VerifySignature(shifted, 0xFEED));
}

TEST(ManifestTest, RuleListHashIsOrderInvariant) {
  auto rules = Rules(200, 5);
  const auto forward = HashRuleList(rules);
  std::vector<std::string> reversed(rules.rbegin(), rules.rend());
  EXPECT_EQ(forward, HashRuleList(reversed))
      << "rule *sets* are the unit of distribution; survivor+add order on "
         "a receiver must hash like the store's canonical order";
  rules[0] = RuleWithSid(999);
  EXPECT_NE(forward, HashRuleList(rules));
}

// ---------------------------------------------------------------- receivers

TEST(ReceiverTest, RejectsTamperedManifestWithoutStateChange) {
  VersionStore store;
  store.Cut("S", Rules(300, 3));
  RulesetManifest m;
  ASSERT_TRUE(store.ManifestFor("S", 0, 1, &m));

  RulesetReceiver rx;  // default key matches the store default
  auto tampered = m;
  tampered.add.push_back(RuleWithSid(666));
  EXPECT_EQ(rx.Apply(tampered, 1), ApplyResult::kBadSignature);
  EXPECT_EQ(rx.version(), 0u) << "tampered manifest must never touch state";
  EXPECT_EQ(rx.stats().rejected_signature, 1u);

  // Wrong-key receiver rejects even the honest manifest.
  RulesetReceiver stranger(/*verify_key=*/0xDEADBEEF);
  EXPECT_EQ(stranger.Apply(m, 1), ApplyResult::kBadSignature);

  // The honest manifest still applies cleanly afterwards.
  EXPECT_EQ(rx.Apply(m, 1), ApplyResult::kApplied);
  EXPECT_EQ(rx.version(), 1u);
  EXPECT_EQ(rx.content_hash(), m.content_hash);
}

TEST(ReceiverTest, RejectsOutOfChainDelta) {
  VersionStore store;
  store.Cut("S", Rules(300, 3));
  auto v2 = Rules(300, 3);
  v2.push_back(RuleWithSid(400));
  store.Cut("S", v2);

  RulesetManifest delta;
  ASSERT_TRUE(store.ManifestFor("S", 1, 2, &delta));
  ASSERT_FALSE(delta.snapshot);

  RulesetReceiver fresh;  // has nothing installed; delta parent != 0-hash
  EXPECT_EQ(fresh.Apply(delta, 1), ApplyResult::kChainMismatch);
  EXPECT_EQ(fresh.version(), 0u);
  EXPECT_EQ(fresh.stats().rejected_chain, 1u);
}

TEST(ReceiverTest, StaleAndReplayedManifestsIgnored) {
  VersionStore store;
  store.Cut("S", Rules(300, 2));
  RulesetManifest m;
  ASSERT_TRUE(store.ManifestFor("S", 0, 1, &m));
  RulesetReceiver rx;
  ASSERT_EQ(rx.Apply(m, 1), ApplyResult::kApplied);
  EXPECT_EQ(rx.Apply(m, 1), ApplyResult::kAlreadyCurrent);
  EXPECT_EQ(rx.stats().stale, 1u);
  EXPECT_EQ(rx.stats().applied, 1u);
}

TEST(ReceiverTest, RollbackIsPinnedPointerSwap) {
  VersionStore store;
  store.Cut("S", Rules(300, 3));
  auto v2 = Rules(300, 3);
  v2.push_back(RuleWithSid(400));
  store.Cut("S", v2);

  RulesetReceiver rx;
  RulesetManifest m;
  ASSERT_TRUE(store.ManifestFor("S", 0, 1, &m));
  ASSERT_EQ(rx.Apply(m, 1), ApplyResult::kApplied);
  const auto v1_compile = rx.compiled();
  ASSERT_NE(v1_compile, nullptr);

  ASSERT_TRUE(store.ManifestFor("S", 1, 2, &m));
  ASSERT_EQ(rx.Apply(m, 1), ApplyResult::kApplied);
  EXPECT_EQ(rx.version(), 2u);
  EXPECT_EQ(rx.pinned_version(), 1u);

  ASSERT_TRUE(rx.Rollback());
  EXPECT_EQ(rx.version(), 1u);
  EXPECT_EQ(rx.compiled().get(), v1_compile.get())
      << "instant rollback must reuse the pinned compile, not rebuild";
  EXPECT_FALSE(rx.Rollback()) << "pinned state is one rollback deep";
}

TEST(ReceiverTest, CompileSharedAcrossSameSkuReceivers) {
  VersionStore store;
  store.Cut("S", Rules(300, 4));
  RulesetManifest m;
  ASSERT_TRUE(store.ManifestFor("S", 0, 1, &m));
  RulesetReceiver a;
  RulesetReceiver b;
  ASSERT_EQ(a.Apply(m, 1), ApplyResult::kApplied);
  ASSERT_EQ(b.Apply(m, 2), ApplyResult::kApplied);
  EXPECT_EQ(a.compiled().get(), b.compiled().get())
      << "compile once, deploy everywhere: same version, same automaton";
}

// ------------------------------------------------------------ version store

TEST(VersionStoreTest, DeltaWithinHorizonSnapshotBeyond) {
  VersionStore::Config config;
  config.staleness_horizon = 3;
  VersionStore store(config);
  auto rules = Rules(500, 10);
  store.Cut("S", rules);
  for (int v = 1; v < 6; ++v) {
    rules.push_back(RuleWithSid(600 + v));
    store.Cut("S", rules);
  }
  ASSERT_EQ(store.Latest("S"), 6u);

  RulesetManifest m;
  ASSERT_TRUE(store.ManifestFor("S", 5, 6, &m));
  EXPECT_FALSE(m.snapshot) << "one version behind: composed delta";
  EXPECT_EQ(m.add.size(), 1u);
  EXPECT_EQ(m.parent_hash, store.HashAt("S", 5));

  ASSERT_TRUE(store.ManifestFor("S", 1, 6, &m));
  EXPECT_TRUE(m.snapshot) << "5 behind > horizon 3: full snapshot";
  EXPECT_EQ(m.add.size(), 15u);

  ASSERT_TRUE(store.ManifestFor("S", 0, 6, &m));
  EXPECT_TRUE(m.snapshot) << "nothing installed: always a snapshot";
  EXPECT_FALSE(store.ManifestFor("S", 0, 7, &m)) << "unknown target";
  EXPECT_FALSE(store.ManifestFor("Nope", 0, 1, &m)) << "unknown sku";
}

TEST(VersionStoreTest, DeltaShipsFewerBytesThanSnapshot) {
  VersionStore store;
  auto rules = Rules(500, 40);
  store.Cut("S", rules);
  rules.push_back(RuleWithSid(700));
  store.Cut("S", rules);

  RulesetManifest delta;
  RulesetManifest snapshot;
  ASSERT_TRUE(store.ManifestFor("S", 1, 2, &delta));
  ASSERT_TRUE(store.ManifestFor("S", 0, 2, &snapshot));
  ASSERT_FALSE(delta.snapshot);
  ASSERT_TRUE(snapshot.snapshot);
  EXPECT_LT(delta.WireBytes(), snapshot.WireBytes() / 10)
      << "a one-rule delta must cost a fraction of the full ruleset";
}

TEST(VersionStoreTest, QuarantineFreezesVersion) {
  VersionStore store;
  store.Cut("S", Rules(500, 2));
  auto v2 = Rules(500, 2);
  v2.push_back(RuleWithSid(600));
  store.Cut("S", v2);
  ASSERT_EQ(store.LatestViable("S"), 2u);

  store.Quarantine("S", 2);
  EXPECT_TRUE(store.IsQuarantined("S", 2));
  EXPECT_EQ(store.Latest("S"), 2u) << "history is never rewritten";
  EXPECT_EQ(store.LatestViable("S"), 1u);
  EXPECT_EQ(store.RollbackTarget("S", 2), 1u);
  EXPECT_EQ(store.RollbackTarget("S", 1), 0u);
  EXPECT_EQ(store.stats().quarantined, 1u);
}

// -------------------------------------------------------------- coordinator

TEST(CoordinatorTest, CohortIsDeterministicAndMonotone) {
  const std::uint64_t version = 7;
  int in_50 = 0;
  for (DeviceId d = 1; d <= 10000; ++d) {
    EXPECT_FALSE(RolloutCoordinator::InCohort(d, version, 0));
    EXPECT_TRUE(RolloutCoordinator::InCohort(d, version, 1000));
    const bool canary = RolloutCoordinator::InCohort(d, version, 50);
    EXPECT_EQ(canary, RolloutCoordinator::InCohort(d, version, 50))
        << "membership must be a pure function";
    if (canary) {
      ++in_50;
      // Monotone: widening the stage never evicts a canary.
      EXPECT_TRUE(RolloutCoordinator::InCohort(d, version, 250));
      EXPECT_TRUE(RolloutCoordinator::InCohort(d, version, 1000));
    }
  }
  // ~50/1000 of 10k devices; generous 3x bounds on the hash spread.
  EXPECT_GT(in_50, 150);
  EXPECT_LT(in_50, 1500);
}

/// Harness: a coordinator over `n` synthetic devices of one SKU, with an
/// applier that counts installs per device, and the admission control it
/// reads (the test drives its level).
struct CoordinatorWorld {
  sim::Simulator sim;
  VersionStore store;
  RolloutConfig config;
  control::AdmissionController admission;
  std::unique_ptr<RolloutCoordinator> coord;
  std::map<DeviceId, int> applies;

  explicit CoordinatorWorld(int n, RolloutConfig cfg = MakeConfig(),
                            control::AdmissionConfig acfg = {})
      : admission(acfg) {
    config = cfg;
    coord = std::make_unique<RolloutCoordinator>(sim, &store, config,
                                                 admission);
    coord->SetApplier(
        [this](DeviceId d,
               const std::shared_ptr<const sig::CompiledRuleset>&) {
          ++applies[d];
        });
    for (DeviceId d = 1; d <= static_cast<DeviceId>(n); ++d) {
      coord->RegisterDevice(d, "SKU");
    }
  }

  static RolloutConfig MakeConfig() {
    RolloutConfig cfg;
    cfg.stages = {100, 1000};
    cfg.stage_hold = 100 * kMillisecond;
    cfg.defer_retry = 20 * kMillisecond;
    return cfg;
  }

  std::uint64_t CutAndRoll(int first_sid, int count) {
    const auto v = store.Cut("SKU", Rules(first_sid, count));
    coord->OnVersionCut("SKU");
    return v;
  }

  /// Devices in the canary cohort of `version` at the first stage.
  std::vector<DeviceId> Canaries(std::uint64_t version) const {
    std::vector<DeviceId> out;
    for (DeviceId d = 1; d <= 1000; ++d) {
      if (coord->ReceiverOf(d) != nullptr &&
          RolloutCoordinator::InCohort(d, version, config.stages[0])) {
        out.push_back(d);
      }
    }
    return out;
  }
};

TEST(CoordinatorTest, HealthyVersionPromotesToFleet) {
  CoordinatorWorld w(400);
  const auto v = w.CutAndRoll(1000, 3);
  w.sim.RunFor(kSecond);

  EXPECT_EQ(w.coord->StateOf("SKU"), RolloutCoordinator::SkuState::kIdle);
  EXPECT_EQ(w.coord->StableOf("SKU"), v);
  EXPECT_EQ(w.coord->stats().promotions, 1u);
  EXPECT_EQ(w.coord->stats().rollbacks, 0u);
  EXPECT_EQ(w.coord->stats().gates_passed, 2u);
  for (DeviceId d = 1; d <= 400; ++d) {
    EXPECT_EQ(w.coord->VersionOf(d), v) << "device " << d;
    EXPECT_EQ(w.applies[d], 1) << "exactly one install per device";
  }
  EXPECT_EQ(w.coord->stats().devices_applied, 400u);
  EXPECT_GT(w.coord->stats().push_msgs, 0u);
  EXPECT_GT(w.coord->stats().push_bytes, 0u);
}

TEST(CoordinatorTest, AlertStormInCanaryRollsBackAndQuarantines) {
  CoordinatorWorld w(400);
  const auto v = w.CutAndRoll(1000, 3);

  // Mid-hold, the canary cohort starts alerting (the new ruleset is a
  // false-positive storm); the control group stays quiet.
  w.sim.After(50 * kMillisecond, [&] {
    for (const auto d : w.Canaries(v)) {
      for (int i = 0; i < 5; ++i) w.coord->OnDeviceAlert(d);
    }
  });
  w.sim.RunFor(kSecond);

  EXPECT_EQ(w.coord->stats().rollbacks, 1u);
  EXPECT_EQ(w.coord->stats().promotions, 0u);
  EXPECT_TRUE(w.store.IsQuarantined("SKU", v));
  EXPECT_EQ(w.coord->StableOf("SKU"), 0u);
  for (DeviceId d = 1; d <= 400; ++d) {
    EXPECT_EQ(w.coord->VersionOf(d), 0u)
        << "device " << d << " must land back on the pre-rollout ruleset";
  }
  // Containment: only the canary cohort was ever exposed.
  const auto canaries = w.Canaries(v).size();
  EXPECT_EQ(w.coord->stats().devices_applied, canaries);
  EXPECT_EQ(w.coord->stats().devices_rolled_back, canaries);
  EXPECT_LT(canaries, 400u / 2) << "the storm must never reach the fleet";
}

TEST(CoordinatorTest, CanaryCrashRollsBack) {
  CoordinatorWorld w(400);
  const auto v = w.CutAndRoll(1000, 3);
  w.sim.After(50 * kMillisecond, [&] {
    const auto canaries = w.Canaries(v);
    ASSERT_FALSE(canaries.empty());
    w.coord->OnDeviceCrash(canaries.front());  // kMaxCohortCrashes = 0
  });
  w.sim.RunFor(kSecond);
  EXPECT_EQ(w.coord->stats().rollbacks, 1u);
  EXPECT_TRUE(w.store.IsQuarantined("SKU", v));
  EXPECT_EQ(w.coord->stats().last_cohort_crashes, 1u);
}

TEST(CoordinatorTest, QuarantinedVersionNeverReoffered) {
  CoordinatorWorld w(400);
  const auto v1 = w.CutAndRoll(1000, 3);
  w.sim.After(50 * kMillisecond, [&] {
    for (const auto d : w.Canaries(v1)) {
      for (int i = 0; i < 5; ++i) w.coord->OnDeviceAlert(d);
    }
  });
  w.sim.RunFor(kSecond);
  ASSERT_TRUE(w.store.IsQuarantined("SKU", v1));

  // A later OnVersionCut with nothing new viable is a no-op...
  w.coord->OnVersionCut("SKU");
  w.sim.RunFor(kSecond);
  EXPECT_EQ(w.coord->stats().rollouts_started, 1u);

  // ...and the next good version rolls out while the bad one stays dead.
  const auto v2 = w.CutAndRoll(2000, 4);
  w.sim.RunFor(kSecond);
  EXPECT_EQ(w.coord->StableOf("SKU"), v2);
  for (DeviceId d = 1; d <= 400; ++d) {
    EXPECT_EQ(w.coord->VersionOf(d), v2);
  }
}

TEST(CoordinatorTest, OperatorRollbackMirrorsFailedGate) {
  auto cfg = CoordinatorWorld::MakeConfig();
  cfg.stage_hold = 10 * kSecond;  // long hold: rollout stays in flight
  CoordinatorWorld w(200, cfg);
  const auto v = w.CutAndRoll(1000, 2);
  w.sim.RunFor(100 * kMillisecond);
  ASSERT_EQ(w.coord->StateOf("SKU"),
            RolloutCoordinator::SkuState::kStaging);

  EXPECT_TRUE(w.coord->OperatorRollback("SKU"));
  w.sim.RunFor(100 * kMillisecond);
  EXPECT_EQ(w.coord->stats().rollbacks, 1u);
  EXPECT_TRUE(w.store.IsQuarantined("SKU", v));
  EXPECT_FALSE(w.coord->OperatorRollback("SKU")) << "nothing in flight";
}

TEST(CoordinatorTest, NewVersionMidRolloutQueuesBehindInFlight) {
  CoordinatorWorld w(200);
  w.CutAndRoll(1000, 2);
  // A second acceptance lands while stage 0 is still holding.
  w.sim.After(50 * kMillisecond, [&] { w.CutAndRoll(2000, 3); });
  w.sim.RunFor(2 * kSecond);
  EXPECT_EQ(w.coord->stats().rollouts_started, 2u);
  EXPECT_EQ(w.coord->stats().promotions, 2u);
  EXPECT_EQ(w.coord->StableOf("SKU"), 2u);
}

TEST(CoordinatorTest, DefersUnderAdmissionBrownout) {
  control::AdmissionConfig acfg;
  acfg.mode = control::AdmissionMode::kEnforce;
  acfg.pool_capacity = 1000;
  acfg.down_hold = 1;
  CoordinatorWorld w(200, CoordinatorWorld::MakeConfig(), acfg);
  control::AdmissionController& admission = w.admission;
  control::AdmissionSignals hot;
  hot.pool_live = 600;  // 600 permille >= defer threshold (500)
  admission.Update(hot, 0);
  ASSERT_EQ(admission.level(), control::BrownoutLevel::kDefer);

  w.CutAndRoll(1000, 2);
  w.sim.RunFor(200 * kMillisecond);
  EXPECT_GT(w.coord->stats().deferred, 0u);
  EXPECT_EQ(w.coord->stats().stages_applied, 0u)
      << "no ruleset pushes at a browned-out fleet";

  // Pressure relaxes: the deferred rollout resumes and promotes.
  control::AdmissionSignals cool;
  cool.pool_live = 100;
  admission.Update(cool, kSecond);
  ASSERT_EQ(admission.level(), control::BrownoutLevel::kNormal);
  w.sim.RunFor(2 * kSecond);
  EXPECT_EQ(w.coord->stats().promotions, 1u);
  EXPECT_EQ(w.coord->StableOf("SKU"), 1u);
}

TEST(CoordinatorTest, DecisionDigestIsReproducible) {
  auto run = [](bool storm) {
    CoordinatorWorld w(300);
    const auto v = w.CutAndRoll(1000, 3);
    if (storm) {
      w.sim.After(50 * kMillisecond, [&] {
        for (const auto d : w.Canaries(v)) {
          for (int i = 0; i < 5; ++i) w.coord->OnDeviceAlert(d);
        }
      });
    }
    w.sim.RunFor(kSecond);
    return w.coord->DecisionDigest();
  };
  EXPECT_EQ(run(false), run(false));
  EXPECT_EQ(run(true), run(true));
  EXPECT_NE(run(false), run(true))
      << "the digest must actually encode the gate verdicts";
}

TEST(CoordinatorTest, LateRegistrantCatchesUpToStable) {
  CoordinatorWorld w(50);
  const auto v1 = w.CutAndRoll(100, 3);
  w.sim.RunFor(kSecond);
  ASSERT_EQ(w.coord->StableOf("SKU"), v1);
  const auto digest = w.coord->DecisionDigest();
  const auto applied = w.coord->stats().devices_applied;

  w.coord->RegisterDevice(51, "SKU");
  EXPECT_EQ(w.coord->VersionOf(51), v1);
  EXPECT_EQ(w.coord->RuleTextsFor(51), w.store.RulesAt("SKU", v1));
  EXPECT_EQ(w.applies[51], 1) << "the compile reaches the applier";
  EXPECT_EQ(w.coord->stats().devices_applied, applied + 1);
  EXPECT_NE(w.coord->DecisionDigest(), digest) << "an install folds";

  // Nothing to install, nothing folded.
  const auto after = w.coord->DecisionDigest();
  w.coord->RegisterDevice(52, "OTHER-SKU");
  w.coord->RegisterDevice(51, "SKU");  // idempotent
  EXPECT_EQ(w.coord->VersionOf(52), 0u);
  EXPECT_EQ(w.applies[51], 1);
  EXPECT_EQ(w.coord->DecisionDigest(), after);
}

TEST(CoordinatorTest, RegistrantDuringFinalStageHoldJoinsAtPromotion) {
  CoordinatorWorld w(50);
  const auto v1 = w.CutAndRoll(100, 3);
  w.sim.RunFor(kSecond);
  ASSERT_EQ(w.coord->StableOf("SKU"), v1);
  const auto v2 = w.CutAndRoll(200, 2);
  // Stage 0 applies at once and the last stage 100 ms later; 150 ms is
  // inside the last stage's hold.
  w.sim.RunFor(150 * kMillisecond);
  ASSERT_EQ(w.coord->StateOf("SKU"), RolloutCoordinator::SkuState::kStaging);
  w.coord->RegisterDevice(51, "SKU");
  EXPECT_EQ(w.coord->VersionOf(51), v1) << "caught up to the old stable";

  w.sim.RunFor(kSecond);
  ASSERT_EQ(w.coord->StableOf("SKU"), v2);
  EXPECT_EQ(w.coord->VersionOf(51), v2)
      << "promotion must reach a device that missed the cohorts";
  EXPECT_EQ(w.coord->RuleTextsFor(51), w.store.RulesAt("SKU", v2));
  EXPECT_EQ(w.applies[51], 2);
  for (DeviceId d = 1; d <= 50; ++d) {
    EXPECT_EQ(w.applies[d], 2) << "device " << d << ": one install each";
  }
}

TEST(CoordinatorTest, AdoptBaselineSkipsTheCanary) {
  CoordinatorWorld w(50);
  w.coord->AdoptBaseline("SKU", Rules(100, 2));
  EXPECT_EQ(w.coord->StableOf("SKU"), 1u);
  EXPECT_EQ(w.coord->stats().rollouts_started, 0u);
  for (DeviceId d = 1; d <= 50; ++d) {
    EXPECT_EQ(w.coord->VersionOf(d), 1u) << "device " << d;
  }
  // A SKU the store already versions keeps its history.
  w.coord->AdoptBaseline("SKU", Rules(200, 1));
  EXPECT_EQ(w.store.Latest("SKU"), 1u);
  // Later versions stage on top of the baseline as usual.
  const auto v2 = w.CutAndRoll(100, 3);
  w.sim.RunFor(kSecond);
  EXPECT_EQ(w.coord->StableOf("SKU"), v2);
  EXPECT_EQ(w.coord->stats().promotions, 1u);
}

// ------------------------------------------- pre-canary diff-verify gate

/// A one-device deployment model whose only blocking enforcement is the
/// crowd/OTA ruleset itself: the device's posture merely observes
/// (Counter -> Logger), so whether the backdoor goal stays blocked
/// tracks the version under verification exactly.
struct GateModelFixture {
  policy::StateSpace space;
  policy::FsmPolicy policy;
  learn::AttackGraph graph;

  GateModelFixture() {
    policy::Dimension ctx;
    ctx.name = "ctx:plug";
    ctx.kind = policy::DimensionKind::kDeviceContext;
    ctx.device = 1;
    ctx.values = policy::DefaultSecurityContexts();
    space.AddDimension(std::move(ctx));

    policy::Posture observe;
    observe.profile = "observe";
    observe.umbox_config = "cnt :: Counter()\nlog :: Logger()\ncnt -> log\n";
    policy.SetDefault(observe);

    graph.AddFact("net_access");
    graph.AddExploit({"use backdoor channel on plug",
                      {"net_access"},
                      {"ctrl:dev:plug"},
                      DeviceId{1}});
  }

  verify::DeploymentModel Model() const {
    verify::DeploymentModel model;
    model.space = &space;
    model.policy = &policy;
    model.attack_graph = &graph;
    model.devices = {1};
    model.device_names = {{1, "plug"}};
    model.goals = {"ctrl:dev:plug"};
    return model;
  }
};

constexpr char kBlockBackdoor[] =
    "block udp any any -> any 5009 (msg:\"backdoor-channel\"; sid:9001; "
    "iot_backdoor; )";
constexpr char kAlertBackdoor[] =
    "alert udp any any -> any 5009 (msg:\"backdoor-channel\"; sid:9001; "
    "iot_backdoor; )";

TEST(CoordinatorTest, VerifyGateBlocksWeakenedDeltaAndPassesBenign) {
  CoordinatorWorld w(50);
  GateModelFixture fixture;
  w.coord->SetVerifier(
      verify::MakePreRolloutVerifier(fixture.Model(), &w.store));

  // v1 adds blocking enforcement over the alert-only base: no regression.
  const auto v1 = w.store.Cut("SKU", {kBlockBackdoor});
  w.coord->OnVersionCut("SKU");
  w.sim.RunFor(kSecond);
  EXPECT_EQ(w.coord->StableOf("SKU"), v1);
  EXPECT_EQ(w.coord->stats().verify_checks, 1u);
  EXPECT_EQ(w.coord->stats().verify_blocks, 0u);

  // v2 demotes the same rule to alert-only: the gate must quarantine it
  // before any device sees it.
  const auto v2 = w.store.Cut("SKU", {kAlertBackdoor});
  w.coord->OnVersionCut("SKU");
  w.sim.RunFor(kSecond);
  EXPECT_EQ(w.coord->StateOf("SKU"), RolloutCoordinator::SkuState::kIdle);
  EXPECT_EQ(w.coord->StableOf("SKU"), v1) << "weakened version must not stage";
  EXPECT_TRUE(w.store.IsQuarantined("SKU", v2));
  EXPECT_EQ(w.coord->stats().verify_blocks, 1u);
  EXPECT_EQ(w.coord->stats().rollouts_started, 1u)
      << "the candidate dies before the rollout begins";
  for (DeviceId d = 1; d <= 50; ++d) {
    EXPECT_EQ(w.coord->VersionOf(d), v1) << "device " << d;
  }

  // v3 keeps the block rule and adds telemetry: benign, promotes.
  const auto v3 = w.store.Cut("SKU", {kBlockBackdoor, kAlertBackdoor});
  w.coord->OnVersionCut("SKU");
  w.sim.RunFor(kSecond);
  EXPECT_EQ(w.coord->StableOf("SKU"), v3);
  EXPECT_EQ(w.coord->stats().verify_blocks, 1u);
}

}  // namespace
}  // namespace iotsec::rollout
