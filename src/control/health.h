// Heartbeat-driven liveness tracking for the enforcement plane.
//
// The controller cannot see a µmbox die — there is no "I crashed"
// message. What it can see is silence: every UmboxHost reports the ids of
// its live µmboxes each heartbeat period, and the HealthMonitor flags any
// host or µmbox whose last report is older than its timeout (the
// controller passes kHeartbeatPeriod * kHeartbeatMissThreshold). Each
// failure is reported exactly once; a recovered entity must be re-tracked
// before it is watched again.
#pragma once

#include <map>
#include <vector>

#include "common/types.h"

namespace iotsec::control {

class HealthMonitor {
 public:
  /// `timeout`: silence longer than this declares an entity dead.
  explicit HealthMonitor(SimDuration timeout) : timeout_(timeout) {}

  [[nodiscard]] SimDuration Timeout() const { return timeout_; }

  /// Starts watching a host / a µmbox placed on `host`. Tracking counts
  /// as a heartbeat, so a freshly launched instance gets a full timeout
  /// before it can be declared dead.
  void TrackHost(ServerId host, SimTime now);
  void TrackUmbox(UmboxId umbox, ServerId host, SimTime now);
  /// Stops watching (deliberate stop, or ownership moved to recovery).
  void UntrackUmbox(UmboxId umbox);

  /// A host's periodic report: the host itself and every listed µmbox
  /// are alive as of `now`.
  void OnHeartbeat(ServerId host, const std::vector<UmboxId>& running,
                   SimTime now);

  struct HostFailure {
    ServerId host = 0;
    std::vector<UmboxId> umboxes;  // tracked instances lost with the host
  };
  struct Failures {
    std::vector<HostFailure> hosts;
    /// µmboxes that died individually (their host still heartbeats).
    std::vector<UmboxId> umboxes;
  };
  /// Entities newly silent for longer than Timeout(). Failed entities are
  /// untracked as a side effect, so each failure fires exactly once.
  [[nodiscard]] Failures Check(SimTime now);

  [[nodiscard]] bool HostAlive(ServerId host) const;
  [[nodiscard]] std::size_t TrackedUmboxes() const { return umboxes_.size(); }
  [[nodiscard]] std::uint64_t HeartbeatsSeen() const {
    return heartbeats_seen_;
  }

 private:
  struct HostRecord {
    SimTime last_seen = 0;
    bool alive = true;
  };
  struct UmboxRecord {
    ServerId host = 0;
    SimTime last_seen = 0;
  };

  SimDuration timeout_;
  std::map<ServerId, HostRecord> hosts_;
  std::map<UmboxId, UmboxRecord> umboxes_;
  std::uint64_t heartbeats_seen_ = 0;
};

}  // namespace iotsec::control
