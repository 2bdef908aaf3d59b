// Deterministic fault injection for the enforcement plane.
//
// The paper's architecture only holds together if "rapidly instantiated,
// frequently reconfigured" µmboxes survive the operational reality of
// things dying mid-run. The FaultInjector turns that reality into a
// reproducible experiment: a seed-driven plan of µmbox crashes, host
// crashes, link flaps and control-channel degradation, scheduled on the
// simulator clock. The same seed produces the same plan bit-for-bit, so
// chaos runs are as replayable as any other experiment in the repo.
//
// Faults can be scripted one at a time (tests) or generated as a Poisson
// plan over a horizon (soaks and benches). Injection is best-effort: a
// fault aimed at something already dead (or never launched) is counted
// as skipped, not an error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "control/controller.h"
#include "dataplane/cluster.h"
#include "net/link.h"
#include "sim/simulator.h"

namespace iotsec::fault {

enum class FaultKind : std::uint8_t {
  kUmboxCrash,      // kill the µmbox guarding a device
  kHostCrash,       // kill an UmboxHost (and everything on it)
  kLinkFlap,        // loss burst on a link for a window
  kControlDegrade,  // drop/delay controller-bound control traffic
};

std::string_view FaultKindName(FaultKind k);

struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kUmboxCrash;
  DeviceId device = kInvalidDevice;  // kUmboxCrash target
  std::size_t host_index = 0;        // kHostCrash: index into cluster hosts
  std::size_t link_index = 0;        // kLinkFlap: index into injector links
  SimDuration duration = 0;          // flap / degrade window
  double loss_rate = 0.0;            // flap loss or control drop rate
  SimDuration extra_delay = 0;       // kControlDegrade added latency

  /// Canonical textual form; two plans are identical iff their event
  /// strings match line for line (the determinism acceptance check).
  [[nodiscard]] std::string ToString() const;
};

/// Parameters for a random plan: independent Poisson arrival streams per
/// fault kind over [start, start + horizon), targets drawn uniformly.
struct PlanConfig {
  SimTime start = 0;
  SimDuration horizon = 60 * kSecond;

  double umbox_crash_rate_hz = 0.2;
  double host_crash_rate_hz = 0.0;
  double link_flap_rate_hz = 0.0;
  double control_degrade_rate_hz = 0.0;

  std::vector<DeviceId> devices;  // kUmboxCrash candidates
  std::size_t hosts = 0;          // kHostCrash candidate count
  std::size_t links = 0;          // kLinkFlap candidate count
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& simulator, std::uint64_t seed)
      : sim_(simulator), seed_(seed) {}

  // ---- Wiring.
  void AttachCluster(dataplane::Cluster* cluster) { cluster_ = cluster; }
  void AttachController(control::IoTSecController* controller) {
    controller_ = controller;
  }
  /// Registers a link as a flap target; its current loss rate is
  /// remembered as the value flaps restore to.
  void AddLink(net::Link* link);
  [[nodiscard]] std::size_t LinkCount() const { return links_.size(); }

  // ---- Scripted faults (absolute sim time).
  void CrashUmboxOf(SimTime at, DeviceId device);
  void CrashHost(SimTime at, std::size_t host_index);
  void FlapLink(SimTime at, std::size_t link_index, SimDuration duration,
                double loss_rate);
  void DegradeControl(SimTime at, SimDuration duration, double drop_rate,
                      SimDuration extra_delay);

  // ---- Random plans.
  /// Pure function of (seed, config): builds the event schedule without
  /// touching the simulator. Events are sorted by time.
  [[nodiscard]] std::vector<FaultEvent> BuildPlan(
      const PlanConfig& config) const;
  /// Schedules every event on the simulator clock.
  void Schedule(const std::vector<FaultEvent>& plan);
  /// Fires one fault immediately (targets resolved now).
  void Inject(const FaultEvent& event);

  struct Stats {
    std::uint64_t umbox_crashes = 0;
    std::uint64_t host_crashes = 0;
    std::uint64_t link_flaps = 0;
    std::uint64_t control_degrades = 0;
    /// Faults whose target was already dead / never existed.
    std::uint64_t skipped = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct FlapTarget {
    net::Link* link = nullptr;
    double base_loss_rate = 0.0;
  };

  sim::Simulator& sim_;
  std::uint64_t seed_;
  dataplane::Cluster* cluster_ = nullptr;
  control::IoTSecController* controller_ = nullptr;
  std::vector<FlapTarget> links_;
  Stats stats_;
};

}  // namespace iotsec::fault
