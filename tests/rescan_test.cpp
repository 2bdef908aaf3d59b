// The flagship acceptance test: "virtual patching", verified the way an
// auditor would — by re-scanning.
//
//   1. scan the unprotected fleet          -> every flaw visible
//   2. synthesize + enforce the policy     -> µmboxes interpose
//   3. scan again from the same vantage    -> the flaws are gone
//
// The devices themselves never changed: admin/admin is still burned into
// the camera, the backdoor is still in the plug's firmware. The *network*
// unshipped them.
#include <gtest/gtest.h>

#include "core/iotsec.h"
#include "learn/synthesis.h"
#include "scan/scanner.h"

namespace iotsec {
namespace {

using devices::Vulnerability;

TEST(RescanTest, SynthesizedPolicyMakesFleetScanClean) {
  core::Deployment dep;
  auto* weak_cam =
      dep.AddCamera("weak-cam", {Vulnerability::kDefaultPassword}, "admin");
  auto* leaky_cam =
      dep.AddCamera("leaky-cam", {Vulnerability::kUnprotectedKeys});
  auto* wemo = dep.AddSmartPlug(
      "wemo", "oven_power",
      {Vulnerability::kBackdoor, Vulnerability::kOpenDnsResolver});

  // ---- 1. Baseline scan: everything is on fire.
  dep.Start();  // devices up; controller holds an empty policy (trust)
  {
    scan::VulnerabilityScanner scanner(
        dep.sim(), dep.attacker(),
        [&](SimDuration d) { dep.RunFor(d); });
    const auto before = scanner.Sweep(scan::TargetsOf(dep.registry()));
    ASSERT_TRUE(before.Has(weak_cam->id(), Vulnerability::kDefaultPassword));
    ASSERT_TRUE(before.Has(leaky_cam->id(), Vulnerability::kUnprotectedKeys));
    ASSERT_TRUE(before.Has(wemo->id(), Vulnerability::kBackdoor));
    ASSERT_TRUE(before.Has(wemo->id(), Vulnerability::kOpenDnsResolver));
    ASSERT_EQ(before.findings.size(), 4u);
  }

  // ---- 2. Synthesize from the deployment's own attack graph; enforce.
  auto graph = learn::BuildAttackGraph(dep.registry(), {}, {});
  auto synth = learn::SynthesizePolicy(
      dep.registry(), graph,
      {"ctrl:dev:weak-cam", "ctrl:dev:leaky-cam", "ctrl:dev:wemo"},
      dep.lan_prefix());
  EXPECT_TRUE(synth.residual_goals.empty());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(synth.policy));
  dep.controller().Start();
  dep.RunFor(2 * kSecond);

  // ---- 3. Rescan from the very same attacker vantage.
  {
    scan::VulnerabilityScanner scanner(
        dep.sim(), dep.attacker(),
        [&](SimDuration d) { dep.RunFor(d); });
    const auto after = scanner.Sweep(scan::TargetsOf(dep.registry()));
    EXPECT_FALSE(after.Has(wemo->id(), Vulnerability::kOpenDnsResolver))
        << "DnsGuard must silence the resolver (per-sweep attribution)";
    EXPECT_FALSE(after.Has(weak_cam->id(), Vulnerability::kDefaultPassword))
        << "the password proxy must hide admin/admin";
    EXPECT_FALSE(after.Has(leaky_cam->id(), Vulnerability::kUnprotectedKeys))
        << "sid 1005 must stop the key bytes";
    EXPECT_FALSE(after.Has(wemo->id(), Vulnerability::kBackdoor))
        << "sid 1003 must eat backdoor probes";
    EXPECT_TRUE(after.findings.empty())
        << "a rescan of the enforced fleet must come back clean";
  }

  // The rescan's own probing escalated contexts (the system treated the
  // audit as an attack and quarantined the targets — working as
  // intended). The operator closes the incident before normal use.
  for (const char* name : {"weak-cam", "leaky-cam", "wemo"}) {
    dep.controller().SetDeviceContext(name, "normal");
  }
  dep.RunFor(2 * kSecond);

  // ---- And the devices still work for their owners.
  int owner_status = 0;
  dep.attacker().HttpGet(
      weak_cam->spec().ip, weak_cam->spec().mac, "/admin",
      std::make_pair(std::string("admin"), std::string("synthesized-weak-cam")),
      [&](const proto::HttpResponse& r) { owner_status = r.status; });
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(owner_status, 200)
      << "the synthesized admin credential must open the camera";
}

TEST(RescanTest, DnsReflectionGoneAfterEnforcement) {
  // Dedicated check for the resolver, with a clean probe history: after
  // enforcement the resolver answers nobody new.
  core::Deployment dep;
  auto* wemo = dep.AddSmartPlug("wemo", "oven_power",
                                {Vulnerability::kOpenDnsResolver});
  auto graph = learn::BuildAttackGraph(dep.registry(), {}, {});
  auto synth = learn::SynthesizePolicy(dep.registry(), graph,
                                       {"ddos_launchpad"}, dep.lan_prefix());
  EXPECT_TRUE(synth.residual_goals.empty());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(synth.policy));
  dep.Start();
  dep.RunFor(2 * kSecond);

  scan::VulnerabilityScanner scanner(
      dep.sim(), dep.attacker(),
      [&](SimDuration d) { dep.RunFor(d); });
  const auto report = scanner.Sweep(scan::TargetsOf(dep.registry()));
  EXPECT_FALSE(report.Has(wemo->id(), Vulnerability::kOpenDnsResolver))
      << "DnsGuard must keep the resolver from answering the scanner";
  EXPECT_TRUE(report.findings.empty());
}

}  // namespace
}  // namespace iotsec
