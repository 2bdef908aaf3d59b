// Figure 2 reproduction: the IoTSec architecture, measured.
//
// Figure 2 is the architecture diagram; its implicit claims are
// quantitative and we measure all three:
//   (a) control-plane scaling — posture-decision latency under growing
//       event load, flat vs hierarchical controllers (§5.1);
//   (b) data-plane steering cost — end-to-end request latency with and
//       without the tunnel + µmbox detour;
//   (c) responsiveness — time from µmbox launch to first enforced packet
//       for each isolation technology.
//   (d) data-plane fast path — steady-state forwarding rate with and
//       without the microflow cache / parse-once / pooling layer, the
//       per-packet cost floor everything above rides on.
#include <cstdio>

#include "core/iotsec.h"
#include "fastpath_harness.h"

using namespace iotsec;

namespace {

/// Two-switch campus: camera on a remote edge, cluster+controller on the
/// core. Measures the extra trunk crossings the steering detour costs
/// when the device is not co-located with the cluster.
SimDuration MeasureRemoteEdgeRtt() {
  sim::Simulator sim;
  auto env = env::MakeSmartHomeEnvironment();
  env->AttachTo(sim);
  sdn::Switch core(1, sim);
  sdn::Switch edge(2, sim);
  std::vector<std::unique_ptr<net::Link>> links;
  auto new_link = [&] {
    links.push_back(std::make_unique<net::Link>(sim, net::LinkConfig{}));
    return links.back().get();
  };
  auto* trunk = new_link();
  const int trunk_on_core = core.AttachLink(trunk, 0);
  const int trunk_on_edge = edge.AttachLink(trunk, 1);
  core.SetSwitchPort(2, trunk_on_core);
  edge.SetSwitchPort(1, trunk_on_edge);

  control::IoTSecController controller(sim);
  dataplane::UmboxHost host(1, sim);
  dataplane::Cluster cluster;
  cluster.AddHost(&host);
  auto* host_link = new_link();
  const int host_port = core.AttachLink(host_link, 0);
  host.ConnectUplink(host_link, 1);
  auto* ctrl_link = new_link();
  const int ctrl_port = core.AttachLink(ctrl_link, 0);
  ctrl_link->Attach(1, &controller, 0);
  core.SetMacPort(controller.hub_mac(), ctrl_port);
  edge.SetMacPort(controller.hub_mac(), trunk_on_edge);
  controller.ManageSwitch(&core, host_port);
  controller.ManageSwitch(&edge, trunk_on_edge);
  controller.SetCluster(&cluster);

  devices::DeviceSpec spec;
  spec.id = 10;
  spec.name = "cam";
  spec.cls = devices::DeviceClass::kCamera;
  spec.mac = net::MacAddress::FromId(10);
  spec.ip = net::Ipv4Address(10, 0, 0, 10);
  devices::Camera cam(spec, sim, env.get());
  auto* cam_link = new_link();
  cam.ConnectUplink(cam_link, 0);
  const int cam_port = edge.AttachLink(cam_link, 1);
  controller.RegisterDevice(&cam, &edge, cam_port);
  core.SetMacPort(spec.mac, trunk_on_core);

  devices::Attacker probe(net::MacAddress::FromId(999),
                          net::Ipv4Address(10, 0, 0, 200), sim);
  auto* probe_link = new_link();
  probe.ConnectUplink(probe_link, 0);
  const int probe_port = edge.AttachLink(probe_link, 1);
  controller.RegisterEndpoint(probe.mac(), &edge, probe_port);
  core.SetMacPort(probe.mac(), trunk_on_core);

  policy::StateSpace space;
  space.AddDimension({"ctx:cam", policy::DimensionKind::kDeviceContext, 10,
                      policy::DefaultSecurityContexts()});
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  controller.SetPolicy(std::move(space), std::move(policy));
  cam.Start();
  controller.Start();
  sim.RunFor(kSecond);

  SimTime done = 0;
  const SimTime start = sim.Now();
  probe.HttpGet(spec.ip, spec.mac, "/", std::nullopt,
                [&](const proto::HttpResponse&) { done = sim.Now(); });
  sim.RunFor(2 * kSecond);
  return done > start ? done - start : 0;
}

/// Round-trip time of one HTTP probe against the camera, in sim time.
SimDuration MeasureRtt(core::Deployment& dep, devices::Camera* cam) {
  SimTime done = 0;
  const SimTime start = dep.sim().Now();
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                         [&](const proto::HttpResponse&) {
                           done = dep.sim().Now();
                         });
  dep.RunFor(2 * kSecond);
  return done > start ? done - start : 0;
}

}  // namespace

int main() {
  std::printf("=== Figure 2: architecture measurements ===\n");

  // ---------------- (a) control-plane scaling, flat vs hierarchical.
  std::printf("\n-- (a) control plane: decision latency vs event load --\n");
  std::printf("%-10s %-12s %-14s %-14s %-14s %-14s\n", "devices",
              "events/s", "flat mean", "flat p99", "hier mean", "hier p99");
  for (const int n : {50, 100, 200, 400, 800}) {
    control::HierarchyScenario scenario;
    scenario.num_devices = n;
    scenario.num_partitions = std::max(1, n / 10);
    scenario.event_rate_per_device_hz = 40.0;
    scenario.duration = 10 * kSecond;
    scenario.cross_partition_fraction = 0.08;
    const auto flat = control::RunFlat(scenario);
    const auto hier = control::RunHierarchical(scenario);
    std::printf("%-10d %-12.0f %-14.0f %-14.0f %-14.0f %-14.0f\n", n,
                n * scenario.event_rate_per_device_hz,
                flat.latency_us.Mean(), flat.latency_us.Percentile(99),
                hier.latency_us.Mean(), hier.latency_us.Percentile(99));
  }
  std::printf("(latencies in us; the flat controller saturates near "
              "16.6k events/s)\n");

  // ---------------- (b) steering overhead.
  std::printf("\n-- (b) data plane: request RTT with/without diversion --\n");
  SimDuration direct_rtt = 0;
  {
    core::DeploymentOptions opts;
    opts.with_iotsec = false;
    core::Deployment dep(opts);
    auto* cam = dep.AddCamera("cam");
    dep.Start();
    direct_rtt = MeasureRtt(dep, cam);
  }
  SimDuration diverted_rtt = 0;
  {
    core::Deployment dep;
    auto* cam = dep.AddCamera("cam");
    policy::FsmPolicy policy;
    policy.SetDefault(core::MonitorPosture());
    dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
    dep.Start();
    dep.RunFor(kSecond);
    diverted_rtt = MeasureRtt(dep, cam);
  }
  std::printf("direct path        : %s\n", FormatDuration(direct_rtt).c_str());
  std::printf("via monitor µmbox  : %s (+%s steering overhead)\n",
              FormatDuration(diverted_rtt).c_str(),
              FormatDuration(diverted_rtt - direct_rtt).c_str());
  const SimDuration remote_rtt = MeasureRemoteEdgeRtt();
  std::printf("remote edge (trunk): %s (device one switch away from the "
              "cluster)\n",
              FormatDuration(remote_rtt).c_str());

  // ---------------- (c) launch-to-enforcement latency per boot model.
  std::printf("\n-- (c) µmbox launch -> first enforced packet --\n");
  std::printf("%-12s %-14s %-20s\n", "boot model", "boot latency",
              "first-packet latency");
  for (const auto boot :
       {dataplane::BootModel::kProcess, dataplane::BootModel::kMicroVm,
        dataplane::BootModel::kContainer, dataplane::BootModel::kFullVm}) {
    core::DeploymentOptions opts;
    opts.controller.umbox_boot = boot;
    core::Deployment dep(opts);
    auto* cam = dep.AddCamera("cam");
    policy::FsmPolicy policy;
    policy.SetDefault(core::MonitorPosture());
    dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
    dep.Start();
    // Probe immediately — the packet arrives while the box boots, queues,
    // and is released when the graph comes up.
    const SimDuration rtt = MeasureRtt(dep, cam);
    std::printf("%-12s %-14s %-20s\n",
                std::string(dataplane::BootModelName(boot)).c_str(),
                FormatDuration(dataplane::BootLatency(boot)).c_str(),
                rtt == 0 ? "(no response in 2s)"
                         : FormatDuration(rtt).c_str());
  }
  std::printf(
      "(the paper's case for ClickOS/Jitsu-class micro-VMs: process/micro-VM"
      "\n boots hide inside one RTT; containers hurt; full VMs are unusable"
      "\n for rapid per-device instantiation)\n");

  // ---------------- (d) data-plane fast path: steady-state forwarding.
  std::printf("\n-- (d) edge-switch forwarding rate, 256 steering rules --\n");
  bench::FastPathConfig fp_cfg;
  fp_cfg.rules = 256;
  fp_cfg.packets = 100000;
  fp_cfg.reference_scan = true;
  fp_cfg.microflow = false;
  fp_cfg.tracing = true;
  fp_cfg.pooling = false;
  const auto fp_slow = bench::RunFastPathWorkload(fp_cfg);
  fp_cfg.reference_scan = false;
  fp_cfg.microflow = true;
  fp_cfg.tracing = false;
  fp_cfg.pooling = true;
  const auto fp_fast = bench::RunFastPathWorkload(fp_cfg);
  std::printf("linear scan path   : %.0f pkts/s\n", fp_slow.pps);
  std::printf("microflow fast path: %.0f pkts/s (%.2fx, cache hit rate "
              "%.3f)\n",
              fp_fast.pps, fp_fast.pps / fp_slow.pps, fp_fast.cache_hit_rate);
  std::printf("(see bench_fastpath / BENCH_fastpath.json for the full "
              "matrix)\n");

  const bool shape = diverted_rtt > direct_rtt &&
                     diverted_rtt < direct_rtt + 10 * kMillisecond;
  std::printf("\nshape check vs paper (steering costs little, hierarchy "
              "scales, micro-VMs boot fast): %s\n",
              shape ? "HOLDS" : "VIOLATED");
  return shape ? 0 : 1;
}
