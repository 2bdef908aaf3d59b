// Tests for the vulnerability scanner.
#include <gtest/gtest.h>

#include <string>

#include "core/iotsec.h"
#include "scan/scanner.h"

namespace iotsec::scan {
namespace {

using devices::Vulnerability;

struct ScanWorld {
  core::Deployment dep;

  ScanWorld() : dep(Options()) {}

  static core::DeploymentOptions Options() {
    core::DeploymentOptions opts;
    opts.with_iotsec = false;  // scanning the unmanaged world
    return opts;
  }
};

TEST(ScannerTest, FindsEachFlawClassExactly) {
  ScanWorld world;
  auto* weak_cam = world.dep.AddCamera(
      "weak-cam", {Vulnerability::kDefaultPassword}, "admin");
  auto* leaky_cam =
      world.dep.AddCamera("leaky-cam", {Vulnerability::kUnprotectedKeys});
  auto* wemo = world.dep.AddSmartPlug(
      "wemo", "oven_power",
      {Vulnerability::kBackdoor, Vulnerability::kOpenDnsResolver});
  auto* clean = world.dep.AddLightBulb("clean-bulb");
  auto stb_spec = world.dep.MakeSpec("stb", devices::DeviceClass::kSetTopBox,
                                     {Vulnerability::kExposedAccess});
  auto* stb = world.dep.Attach(std::make_unique<devices::SetTopBox>(
      stb_spec, world.dep.sim(), &world.dep.environment()));
  world.dep.Start();

  VulnerabilityScanner scanner(
      world.dep.sim(), world.dep.attacker(),
      [&](SimDuration d) { world.dep.RunFor(d); });
  const auto report = scanner.Sweep(TargetsOf(world.dep.registry()));

  EXPECT_EQ(report.targets_probed, 5u);
  EXPECT_GT(report.probes_sent, 5u * 5u);

  EXPECT_EQ(report.For(weak_cam->id()),
            std::set<Vulnerability>{Vulnerability::kDefaultPassword});
  EXPECT_EQ(report.For(leaky_cam->id()),
            std::set<Vulnerability>{Vulnerability::kUnprotectedKeys});
  EXPECT_EQ(report.For(wemo->id()),
            (std::set<Vulnerability>{Vulnerability::kBackdoor,
                                     Vulnerability::kOpenDnsResolver}));
  EXPECT_EQ(report.For(stb->id()),
            std::set<Vulnerability>{Vulnerability::kExposedAccess});
  EXPECT_TRUE(report.For(clean->id()).empty())
      << "a clean device must produce zero findings";
}

TEST(ScannerTest, ExposedAccessSubsumesDefaultPassword) {
  // A fridge whose management page needs no auth at all: the scanner must
  // classify it as exposed access, not also as default-password (the
  // wordlist "working" is an artifact).
  ScanWorld world;
  auto spec = world.dep.MakeSpec("fridge", devices::DeviceClass::kRefrigerator,
                                 {Vulnerability::kExposedAccess});
  auto* fridge = world.dep.Attach(std::make_unique<devices::Refrigerator>(
      spec, world.dep.sim(), &world.dep.environment()));
  world.dep.Start();

  VulnerabilityScanner scanner(
      world.dep.sim(), world.dep.attacker(),
      [&](SimDuration d) { world.dep.RunFor(d); });
  const auto report = scanner.Sweep(TargetsOf(world.dep.registry()));
  EXPECT_TRUE(report.Has(fridge->id(), Vulnerability::kExposedAccess));
  EXPECT_FALSE(report.Has(fridge->id(), Vulnerability::kDefaultPassword));
  EXPECT_EQ(report.For(fridge->id()).size(), 1u);
}

TEST(ScannerTest, NonDefaultCredentialNotFlagged) {
  ScanWorld world;
  auto* cam = world.dep.AddCamera("cam", {}, "Xk99!long-random");
  world.dep.Start();
  VulnerabilityScanner scanner(
      world.dep.sim(), world.dep.attacker(),
      [&](SimDuration d) { world.dep.RunFor(d); });
  const auto report = scanner.Sweep(TargetsOf(world.dep.registry()));
  EXPECT_TRUE(report.For(cam->id()).empty());
}

TEST(ScannerTest, FeedsControllerContexts) {
  // Operator workflow: scan, then mark every hit "unpatched" via the
  // controller. (RegisterDevice already does this from specs; the scan
  // path covers fleets whose flaws are NOT declared up front.)
  core::Deployment dep;  // IoTSec world, but scan before Start().
  auto* wemo = dep.AddSmartPlug("wemo", "oven_power",
                                {devices::Vulnerability::kBackdoor});
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();

  VulnerabilityScanner scanner(
      dep.sim(), dep.attacker(),
      [&](SimDuration d) { dep.RunFor(d); });
  const auto report = scanner.Sweep(TargetsOf(dep.registry()));
  ASSERT_TRUE(report.Has(wemo->id(), devices::Vulnerability::kBackdoor));
  for (const auto& finding : report.findings) {
    auto* dev = dep.registry().ById(finding.target.device);
    ASSERT_NE(dev, nullptr);
    dep.controller().SetDeviceContext(dev->spec().name, "unpatched");
  }
  EXPECT_EQ(dep.controller().view().DeviceContext("wemo").value(),
            "unpatched");
}

// The sweep advances the deployment through RunFor, so device replies
// cross the shard barrier like any other traffic: the report is the same
// at every shard count.
std::string SweepAt(int shards) {
  core::DeploymentOptions opts;
  opts.with_iotsec = false;
  opts.shards = shards;
  core::Deployment dep(opts);
  dep.AddCamera("weak-cam", {Vulnerability::kDefaultPassword}, "admin");
  dep.AddCamera("leaky-cam", {Vulnerability::kUnprotectedKeys});
  dep.AddSmartPlug("wemo", "oven_power",
                   {Vulnerability::kBackdoor, Vulnerability::kOpenDnsResolver});
  dep.AddWindow("window");
  dep.AddLightBulb("clean-bulb");
  dep.Start();
  VulnerabilityScanner scanner(dep.sim(), dep.attacker(),
                               [&](SimDuration d) { dep.RunFor(d); });
  const auto report = scanner.Sweep(TargetsOf(dep.registry()));
  std::string out = std::to_string(report.targets_probed) + "/" +
                    std::to_string(report.probes_sent) + "\n";
  for (const auto& finding : report.findings) {
    out += finding.target.ip.ToString() + " " +
           std::to_string(static_cast<int>(finding.vulnerability)) + " " +
           finding.evidence + "\n";
  }
  return out;
}

TEST(ScannerTest, ReportIdenticalAtAnyShardCount) {
  const std::string ref = SweepAt(1);
  EXPECT_NE(ref.find("answered recursive query"), std::string::npos) << ref;
  for (const int shards : {2, 8}) {
    EXPECT_EQ(SweepAt(shards), ref) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace iotsec::scan
