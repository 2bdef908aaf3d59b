// AdmissionController unit tests: brownout stepping, hysteresis,
// monitor-mode passivity, deterministic ingress shedding and the
// decision digest — all pure (no deployment, no simulator).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "control/admission.h"

namespace iotsec::control {
namespace {

// pool_capacity=1000 makes pool_live the pressure in permille directly.
AdmissionConfig EnforceConfig() {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::kEnforce;
  cfg.pool_capacity = 1000;
  return cfg;
}

AdmissionSignals Pool(std::size_t live) {
  AdmissionSignals s;
  s.pool_live = live;
  return s;
}

TEST(Admission, StepsUpOneLevelPerSampleNeverJumps) {
  AdmissionController ac(EnforceConfig());
  EXPECT_EQ(ac.level(), BrownoutLevel::kNormal);
  // Pressure instantly at fail-closed territory: the ladder is walked,
  // one level per sample.
  ac.Update(Pool(950), 1);
  EXPECT_EQ(ac.level(), BrownoutLevel::kDefer);
  ac.Update(Pool(950), 2);
  EXPECT_EQ(ac.level(), BrownoutLevel::kShed);
  ac.Update(Pool(950), 3);
  EXPECT_EQ(ac.level(), BrownoutLevel::kFailClosedLite);
  ac.Update(Pool(950), 4);  // already at the top
  EXPECT_EQ(ac.level(), BrownoutLevel::kFailClosedLite);
  EXPECT_EQ(ac.stats().transitions, 3u);
}

TEST(Admission, HysteresisHoldsLevelInsideTheExitBand) {
  AdmissionController ac(EnforceConfig());
  ac.Update(Pool(600), 1);
  EXPECT_EQ(ac.level(), BrownoutLevel::kDefer);
  // defer enter=500, margin=150: anything in [350, 500) holds the level
  // regardless of how long it persists.
  for (SimTime t = 2; t < 20; ++t) ac.Update(Pool(400), t);
  EXPECT_EQ(ac.level(), BrownoutLevel::kDefer);
  // Below the band, down_hold=3 consecutive samples are required.
  ac.Update(Pool(100), 20);
  ac.Update(Pool(100), 21);
  EXPECT_EQ(ac.level(), BrownoutLevel::kDefer);
  ac.Update(Pool(100), 22);
  EXPECT_EQ(ac.level(), BrownoutLevel::kNormal);
}

TEST(Admission, PressureSpikeResetsTheDownStreak) {
  AdmissionController ac(EnforceConfig());
  ac.Update(Pool(600), 1);
  ASSERT_EQ(ac.level(), BrownoutLevel::kDefer);
  ac.Update(Pool(100), 2);
  ac.Update(Pool(100), 3);
  ac.Update(Pool(450), 4);  // back inside the band: streak resets
  ac.Update(Pool(100), 5);
  ac.Update(Pool(100), 6);
  EXPECT_EQ(ac.level(), BrownoutLevel::kDefer);  // only 2 of 3
  ac.Update(Pool(100), 7);
  EXPECT_EQ(ac.level(), BrownoutLevel::kNormal);
}

TEST(Admission, RecoveryIsMonotonicOneLevelAtATime) {
  AdmissionController ac(EnforceConfig());
  for (SimTime t = 1; t <= 3; ++t) ac.Update(Pool(950), t);
  ASSERT_EQ(ac.level(), BrownoutLevel::kFailClosedLite);
  BrownoutLevel last = ac.level();
  for (SimTime t = 4; t <= 40 && ac.level() != BrownoutLevel::kNormal; ++t) {
    ac.Update(Pool(0), t);
    // Never up, never down by more than one.
    EXPECT_LE(static_cast<int>(ac.level()), static_cast<int>(last));
    EXPECT_GE(static_cast<int>(ac.level()), static_cast<int>(last) - 1);
    last = ac.level();
  }
  EXPECT_EQ(ac.level(), BrownoutLevel::kNormal);
}

TEST(Admission, PressureIsMaxOfAllSignals) {
  AdmissionController ac(EnforceConfig());
  AdmissionSignals s;
  s.pool_live = 100;               // 100‰
  s.boot_queue_worst_permille = 777;
  s.cluster_load = 3;
  s.cluster_capacity = 10;         // 300‰
  ac.Update(s, 1);
  EXPECT_EQ(ac.stats().pressure_permille, 777);
  EXPECT_EQ(ac.stats().pool_permille, 100);
  EXPECT_EQ(ac.stats().cluster_permille, 300);
  EXPECT_EQ(ac.level(), BrownoutLevel::kDefer);
}

TEST(Admission, MonitorModeLevelsButNeverActs) {
  AdmissionConfig cfg = EnforceConfig();
  cfg.mode = AdmissionMode::kMonitor;
  AdmissionController ac(cfg);
  for (SimTime t = 1; t <= 5; ++t) ac.Update(Pool(1500), t);
  EXPECT_EQ(ac.level(), BrownoutLevel::kFailClosedLite);  // observes...
  EXPECT_TRUE(ac.AllowLaunch(7, 6));                      // ...never acts
  EXPECT_FALSE(ac.DeferRestart(7, 6));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ac.AdmitIngress(6));
  EXPECT_EQ(ac.stats().shed_launches, 0u);
  EXPECT_EQ(ac.stats().deferred_restarts, 0u);
  EXPECT_EQ(ac.stats().backpressure_drops, 0u);
  // Exhaustion is still counted — monitor mode is the bench baseline.
  EXPECT_EQ(ac.stats().pool_exhausted_samples, 5u);
}

TEST(Admission, EnforcedDecisionsMatchTheLevel) {
  AdmissionController ac(EnforceConfig());
  EXPECT_TRUE(ac.AllowLaunch(1, 0));
  EXPECT_FALSE(ac.DeferRestart(1, 0));

  ac.Update(Pool(600), 1);  // kDefer: restarts wait, launches still fly
  EXPECT_TRUE(ac.AllowLaunch(1, 1));
  EXPECT_TRUE(ac.DeferRestart(1, 1));

  ac.Update(Pool(800), 2);  // kShed: launches refused too
  EXPECT_FALSE(ac.AllowLaunch(1, 2));
  EXPECT_TRUE(ac.DeferRestart(1, 2));
  EXPECT_EQ(ac.stats().shed_launches, 1u);
  EXPECT_EQ(ac.stats().deferred_restarts, 2u);
}

TEST(Admission, IngressShedsExactBresenhamFraction) {
  AdmissionConfig cfg = EnforceConfig();
  cfg.shed_drop_permille = 600;
  cfg.fail_closed_drop_permille = 875;
  AdmissionController ac(cfg);
  ac.Update(Pool(600), 1);
  ac.Update(Pool(800), 2);
  ASSERT_EQ(ac.level(), BrownoutLevel::kShed);
  int dropped = 0;
  for (int i = 0; i < 1000; ++i) dropped += ac.AdmitIngress(3) ? 0 : 1;
  EXPECT_EQ(dropped, 600);  // exact over a full 1000-decision window
  // And evenly spread: any 10-decision slice sheds 6±1.
  for (int w = 0; w < 10; ++w) {
    int slice = 0;
    for (int i = 0; i < 10; ++i) slice += ac.AdmitIngress(4) ? 0 : 1;
    EXPECT_GE(slice, 5);
    EXPECT_LE(slice, 7);
  }
}

TEST(Admission, PoolExhaustionCountsOnlyOverBudgetSamples) {
  AdmissionController ac(EnforceConfig());
  ac.Update(Pool(999), 1);
  ac.Update(Pool(1000), 2);  // at capacity, not over
  EXPECT_EQ(ac.stats().pool_exhausted_samples, 0u);
  ac.Update(Pool(1001), 3);
  ac.Update(Pool(5000), 4);
  EXPECT_EQ(ac.stats().pool_exhausted_samples, 2u);

  AdmissionConfig unbounded = EnforceConfig();
  unbounded.pool_capacity = 0;  // no budget declared: nothing to exhaust
  AdmissionController ac2(unbounded);
  ac2.Update(Pool(1u << 20), 1);
  EXPECT_EQ(ac2.stats().pool_exhausted_samples, 0u);
  EXPECT_EQ(ac2.stats().pool_permille, 0);
}

TEST(Admission, DigestIsReproducibleAndOrderSensitive) {
  const auto run = [](const std::vector<std::size_t>& loads) {
    AdmissionController ac(EnforceConfig());
    SimTime t = 1;
    for (std::size_t load : loads) {
      ac.Update(Pool(load), t++);
      (void)ac.AllowLaunch(42, t);
      (void)ac.AdmitIngress(t);
    }
    return ac.DecisionDigest();
  };
  const std::vector<std::size_t> a = {600, 800, 950, 100, 100, 100};
  EXPECT_EQ(run(a), run(a));  // bit-identical replay
  const std::vector<std::size_t> b = {600, 800, 100, 950, 100, 100};
  EXPECT_NE(run(a), run(b));  // order matters
  // A run with no decisions keeps the zero digest.
  AdmissionController idle(EnforceConfig());
  EXPECT_EQ(idle.DecisionDigest(), 0u);
}

}  // namespace
}  // namespace iotsec::control
