// Enterprise fleet: the whole loop at scale.
//
// A commercial deployment with ~60 devices of mixed classes and flaws:
//   1. sweep the fleet with the vulnerability scanner (what SHODAN sees);
//   2. build the attack graph and synthesize the cutting policy;
//   3. install it and run a mixed attack campaign;
//   4. report what got through, what was blocked, and controller load.
//
//   $ ./example_enterprise_fleet
#include <cstdio>

#include "core/iotsec.h"
#include "learn/synthesis.h"
#include "scan/scanner.h"

using namespace iotsec;

int main() {
  std::printf("== Enterprise fleet: scan -> synthesize -> enforce ==\n");

  core::Deployment dep;
  std::vector<devices::Device*> fleet;

  // A floor of cameras, some with factory passwords, one with leaky
  // firmware.
  for (int i = 0; i < 12; ++i) {
    const bool weak = i % 3 == 0;
    fleet.push_back(dep.AddCamera(
        "cam-" + std::to_string(i),
        weak ? std::set<devices::Vulnerability>{
                   devices::Vulnerability::kDefaultPassword}
             : std::set<devices::Vulnerability>{},
        weak ? "admin" : "cam-cred-" + std::to_string(i)));
  }
  fleet.push_back(dep.AddCamera("cctv-archive",
                                {devices::Vulnerability::kUnprotectedKeys}));

  // Smart plugs: a batch of backdoored Wemos, one running an open
  // resolver.
  for (int i = 0; i < 10; ++i) {
    std::set<devices::Vulnerability> vulns;
    if (i % 2 == 0) vulns.insert(devices::Vulnerability::kBackdoor);
    if (i == 4) vulns.insert(devices::Vulnerability::kOpenDnsResolver);
    fleet.push_back(dep.AddSmartPlug("plug-" + std::to_string(i),
                                     i == 0 ? "oven_power" : "",
                                     std::move(vulns)));
  }

  // Sensors, actuators and appliances.
  for (int i = 0; i < 8; ++i) {
    fleet.push_back(dep.AddLightBulb("bulb-" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    fleet.push_back(dep.AddMotionSensor("motion-" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    fleet.push_back(dep.AddSmartLock("lock-" + std::to_string(i)));
  }
  fleet.push_back(dep.AddFireAlarm("protect"));
  fleet.push_back(dep.AddWindow("window"));
  fleet.push_back(dep.AddThermostat("nest"));

  std::printf("\nfleet: %zu devices behind one edge switch\n",
              dep.registry().Count());

  // ---- Step 1: sweep.
  dep.Start();
  scan::VulnerabilityScanner scanner(
      dep.sim(), dep.attacker(),
      [&](SimDuration d) { dep.RunFor(d); });
  const auto report = scanner.Sweep(scan::TargetsOf(dep.registry()));
  std::map<devices::Vulnerability, int> by_class;
  for (const auto& finding : report.findings) {
    ++by_class[finding.vulnerability];
  }
  std::printf("\nstep 1: scanner findings (%zu probes):\n",
              report.probes_sent);
  for (const auto& [vuln, count] : by_class) {
    std::printf("  %-20s %d device(s)\n",
                std::string(devices::VulnerabilityName(vuln)).c_str(), count);
  }

  // ---- Step 2: attack graph + synthesis.
  auto graph = learn::BuildAttackGraph(dep.registry(), {}, {});
  std::set<std::string> goals;
  for (const devices::Device* d : dep.registry().All()) {
    if (!d->spec().vulns.empty()) {
      goals.insert("ctrl:dev:" + d->spec().name);
    }
  }
  auto synth =
      learn::SynthesizePolicy(dep.registry(), graph, goals, dep.lan_prefix());
  std::printf("\nstep 2: %zu exploits in the graph; synthesized %zu rules; "
              "%zu entry exploits cut; residual goals: %zu\n",
              graph.exploits().size(), synth.policy.rules().size(),
              synth.mitigated_exploits.size(), synth.residual_goals.size());

  dep.UsePolicy(dep.BuildStateSpace(), std::move(synth.policy));
  dep.controller().Start();
  dep.RunFor(2 * kSecond);

  // ---- Step 3: the campaign.
  std::printf("\nstep 3: attack campaign\n");
  int blocked = 0;
  int succeeded = 0;
  auto check = [&](const char* what, bool attack_won) {
    std::printf("  %-44s %s\n", what, attack_won ? "SUCCEEDED" : "blocked");
    if (attack_won) ++succeeded;
    else ++blocked;
  };

  {  // default passwords on the weak cameras
    int hijacked = 0;
    for (int i = 0; i < 12; i += 3) {
      auto* cam = dep.Find("cam-" + std::to_string(i));
      int status = 0;
      dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/admin",
                             std::make_pair(std::string("admin"),
                                            std::string("admin")),
                             [&](const proto::HttpResponse& r) {
                               status = r.status;
                             });
      dep.RunFor(kSecond);
      if (status == 200) ++hijacked;
    }
    check("admin/admin on 4 factory-password cameras", hijacked > 0);
  }
  {  // backdoors on the Wemo batch
    int actuated = 0;
    for (int i = 0; i < 10; i += 2) {
      auto* plug = dep.Find("plug-" + std::to_string(i));
      dep.attacker().SendIotCommand(plug->spec().ip, plug->spec().mac,
                                    proto::IotCommand::kTurnOn, std::nullopt,
                                    true, nullptr);
      dep.RunFor(kSecond);
      if (plug->State() == "on") ++actuated;
    }
    check("backdoor ON to 5 Wemo plugs", actuated > 0);
  }
  {  // firmware key exfiltration
    auto* cam = dep.Find("cctv-archive");
    std::string body;
    dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/firmware",
                           std::nullopt, [&](const proto::HttpResponse& r) {
                             body = r.body;
                           });
    dep.RunFor(kSecond);
    check("RSA key exfil from the archive camera",
          body.find("PRIVATE KEY") != std::string::npos);
  }
  {  // DNS amplification through plug-4
    auto* plug = dep.Find("plug-4");
    const auto before = plug->stats().frames_out;
    dep.attacker().DnsAmplify(plug->spec().ip, plug->spec().mac,
                              net::Ipv4Address(203, 0, 113, 80), 10);
    dep.RunFor(2 * kSecond);
    check("DNS reflection through the open resolver",
          plug->stats().frames_out > before);
  }

  const auto& stats = dep.controller().stats();
  std::printf("\nresult: %d/%d attack waves blocked\n", blocked,
              blocked + succeeded);
  std::printf("controller: %llu umbox launches, %llu alerts, %llu policy "
              "evals, %llu flow ops; cluster load %d/%d\n",
              static_cast<unsigned long long>(stats.umbox_launches),
              static_cast<unsigned long long>(stats.alerts),
              static_cast<unsigned long long>(stats.policy_evals),
              static_cast<unsigned long long>(stats.flow_ops),
              dep.cluster().TotalLoad(), dep.cluster().TotalCapacity());
  return succeeded == 0 ? 0 : 1;
}
