// Per-layer attribution for the traced run.
//
// Every layer is measured from outside the program: counts come from
// public stats() and registry names read as deltas over the traffic
// phase, and times come from the existing in-program spans (dp.chain_ns,
// dp.element.*_ns, sig.scan_ns) plus replay probes that time calls into
// a layer's public functions on state captured from the same run.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "workload.h"

namespace e2ebench {

/// Counters read just before the traffic phase starts.
struct LayerBaseline {
  iotsec::obs::RegistrySnapshot registry;
  iotsec::sdn::Switch::Stats edge;
  std::uint64_t table_generation = 0;
  iotsec::control::IoTSecController::Stats ctl;
  std::uint64_t audit_records = 0;
  iotsec::core::Deployment::NetworkTotals links;
  iotsec::dataplane::UmboxHost::Stats host;
  std::uint64_t boot_queued = 0;
  std::uint64_t quanta = 0;
  std::uint64_t cross_events = 0;
  std::uint64_t late_posts = 0;
};

LayerBaseline CaptureBaseline(Fleet& fleet);

using Metrics = std::vector<std::pair<std::string, double>>;

/// Every per-layer metric of one traced drive, in a fixed order. Busy
/// shares are calls x ns per call / wall time of the traced drive;
/// attr.unattributed_share is what no layer accounts for.
Metrics MeasureLayers(Fleet& fleet, const Schedule& schedule,
                      const DriveResult& drive, const LayerBaseline& before);

}  // namespace e2ebench
