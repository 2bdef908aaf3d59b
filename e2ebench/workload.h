// The benchmark's three workloads over the real core::Deployment.
//
// A workload is a seeded, open-loop schedule on the simulated clock:
// HTTP requests (and, for posture_churn, context flips and attack bursts)
// are issued at their scheduled sim-times whether or not earlier ones have
// finished. The simulator runs flat out, so wall-clock throughput is how
// fast the system gets through that fixed schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/iotsec.h"

namespace e2ebench {

using iotsec::SimDuration;
using iotsec::SimTime;

enum class WorkloadKind { kGuardedMix, kDirectSmall, kPostureChurn };

/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, WorkloadKind* out);

struct Request {
  SimDuration at = 0;       // send time, relative to the traffic start
  std::uint32_t device = 0; // fleet index
  std::uint16_t pad = 0;    // 0 = bare "GET /", else 1 + index into pads
  bool probe = false;       // churn-half probe: judged by the oracle only
};

struct Trigger {
  enum class Kind : std::uint8_t { kFlip, kAttack };
  SimDuration at = 0;
  std::uint32_t device = 0;
  Kind kind = Kind::kFlip;
  std::string context;  // kFlip: the context the operator sets
};

struct Schedule {
  WorkloadKind kind = WorkloadKind::kGuardedMix;
  std::vector<Request> requests;  // sorted by time
  std::vector<Trigger> triggers;  // sorted by time
  std::vector<std::string> pads;  // padded request paths
  SimDuration length = 0;         // last send time bound
};

/// Builds the seeded schedule; the same seed gives the same schedule.
Schedule MakeSchedule(WorkloadKind kind, std::uint64_t seed);

/// A started deployment with its fleet, ready for traffic.
struct Fleet {
  std::unique_ptr<iotsec::core::Deployment> dep;
  std::vector<iotsec::devices::Device*> devices;
  iotsec::policy::StateSpace space;
};

/// Constructs, populates, starts and warms up the deployment (µmboxes
/// booted, first ruleset compiled). Exits the process if the fleet's
/// addresses alias each other or the attacker/hub.
Fleet BuildFleet(WorkloadKind kind);

/// Wall-clock and sim-time results of one drive over a schedule.
struct DriveResult {
  std::uint64_t attempted = 0;  // requests issued (legit + probes)
  std::uint64_t failed = 0;     // wrong outcomes (see the oracle)
  std::uint64_t exchanges = 0;  // correct request/response exchanges
  std::uint64_t transitions = 0;  // posture changes matched to triggers
  std::uint64_t digest = 0;
  double wall_s = 0;  // traffic phase, including drain
  std::vector<double> rtt_us;    // legit exchanges, sim-time
  std::vector<double> react_us;  // trigger -> posture change, sim-time
  std::vector<double> queue_depth;  // pending events at chunk boundaries
  std::uint64_t events = 0;         // simulator events in the phase
  // Live packets of the main thread's pool (shard 0's when sharded),
  // sampled at chunk boundaries.
  std::int64_t pool_live_max = 0;
  std::vector<std::string> errors;  // oracle findings, first few
};

/// Runs the schedule on the fleet and judges every outcome.
DriveResult Drive(Fleet& fleet, const Schedule& schedule);

/// Percentile by linear interpolation between closest ranks; p in [0,100].
double Percentile(std::vector<double> values, double p);

}  // namespace e2ebench
