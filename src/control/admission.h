// Metrics-driven admission control: brownout degradation under overload.
//
// The paper's premise is a fleet too flawed to fix at the endpoints, so
// the *network* layer must stay standing when traffic or failures spike.
// The AdmissionController closes the loop from the observability
// snapshots (worst boot-queue fill, packet-pool occupancy, cluster load)
// back into control-plane decisions:
//
//   * refuse new µmbox launches while boot queues back up (the device is
//     quarantined — fail closed — and retried when pressure drops),
//   * defer recovery restarts while the serving cluster is saturated so
//     restart storms cannot amplify an outage,
//   * shed new work at the switch ingress when pool occupancy collapses,
//
// stepping through discrete brownout levels with hysteresis:
//
//   normal → defer → shed → fail-closed-lite
//
// Determinism contract: every input is a *barrier snapshot* — sampled by
// the deployment at the quantum barrier ending each sample period — and
// every signal is shard-placement-invariant (sums over
// the whole cluster / all pools, never per-shard residue). Arithmetic is
// integer permille. A fixed seed therefore yields a bit-identical
// shed/defer decision trace at any shard count; DecisionDigest() folds
// the full trace for the bench's hard cross-shard gate.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.h"

namespace iotsec::control {

/// Discrete degradation levels, ordered by severity.
enum class BrownoutLevel : std::uint8_t {
  kNormal = 0,         // full service
  kDefer = 1,          // recovery restarts wait; everything else normal
  kShed = 2,           // + new launches refused, ingress sheds a fraction
  kFailClosedLite = 3  // + ingress sheds most new work
};

std::string_view BrownoutLevelName(BrownoutLevel level);

enum class AdmissionMode : std::uint8_t {
  kMonitor,  // sample, level, count — but never act
  kEnforce   // act on launches, restarts and ingress
};

/// Every IoTSec controller owns one AdmissionController built from this
/// config; there is no mode without one. kMonitor (default) only samples
/// and levels, so it changes no decision anywhere.
struct AdmissionConfig {
  AdmissionMode mode = AdmissionMode::kMonitor;

  /// Snapshot cadence. A deployment samples at the quantum barrier that
  /// ends each period, idle stretches included.
  SimDuration sample_period = 10 * kMillisecond;

  /// Packet-pool budget (live packets across every pool). 0 = unlimited:
  /// pool pressure reads zero and exhaustion is never counted.
  std::size_t pool_capacity = 0;

  // ---- Level thresholds, permille of the binding resource. The overall
  // pressure is max(pool, boot-queue, cluster-load) each normalized to
  // its own capacity. A sample above the next enter threshold steps the
  // level up at once; a level steps down only when pressure sits below
  // (enter - exit_margin) for down_hold consecutive samples (hysteresis).
  int defer_enter_permille = 500;
  int shed_enter_permille = 750;
  int fail_closed_enter_permille = 900;
  int exit_margin_permille = 150;
  int down_hold = 3;

  // ---- Ingress shedding per level, permille of gated frames dropped.
  // Deterministic token-bucket pattern over the decision counter (no
  // randomness — the trace must be bit-stable).
  int shed_drop_permille = 600;
  int fail_closed_drop_permille = 875;
};

/// One deterministic snapshot of the signals admission keys on. Every
/// field must be shard-placement-invariant (see header comment).
struct AdmissionSignals {
  /// Worst single µmbox queue fill fraction, permille of its limit.
  int boot_queue_worst_permille = 0;
  /// Live packets across every packet pool (acquired, not yet released).
  std::size_t pool_live = 0;
  /// µmbox instances placed / placeable on the cluster.
  int cluster_load = 0;
  int cluster_capacity = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  [[nodiscard]] const AdmissionConfig& config() const { return config_; }
  [[nodiscard]] bool enforcing() const {
    return config_.mode == AdmissionMode::kEnforce;
  }
  [[nodiscard]] BrownoutLevel level() const { return level_; }

  /// Feeds one barrier snapshot; steps the brownout level (with
  /// hysteresis), counts pool exhaustion, emits transition events.
  void Update(const AdmissionSignals& signals, SimTime now);

  // ---- Decision points (each decision is counted and digest-folded).
  /// May a new µmbox be launched for `device` right now? Always true
  /// unless enforcing at kShed or worse.
  [[nodiscard]] bool AllowLaunch(DeviceId device, SimTime now);
  /// Should a recovery restart for `device` wait? True when enforcing at
  /// kDefer or worse.
  [[nodiscard]] bool DeferRestart(DeviceId device, SimTime now);
  /// May this (already exemption-filtered) ingress frame enter? Sheds a
  /// deterministic fraction at kShed / kFailClosedLite when enforcing.
  [[nodiscard]] bool AdmitIngress(SimTime now);

  struct Stats {
    std::uint64_t samples = 0;
    std::uint64_t transitions = 0;
    std::uint64_t shed_launches = 0;
    std::uint64_t deferred_restarts = 0;
    std::uint64_t backpressure_drops = 0;
    /// Samples whose pool_live exceeded pool_capacity.
    std::uint64_t pool_exhausted_samples = 0;
    /// Most recent composite pressure (permille) and its inputs.
    int pressure_permille = 0;
    int pool_permille = 0;
    int boot_queue_permille = 0;
    int cluster_permille = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Order-sensitive fold of every transition and every shed/defer/drop
  /// decision (time, kind, subject). Bit-identical across shard counts
  /// for the same seed — the bench's hard determinism gate.
  [[nodiscard]] std::uint64_t DecisionDigest() const { return digest_; }

 private:
  void Fold(std::uint64_t kind, std::uint64_t a, std::uint64_t b);
  [[nodiscard]] int PressureOf(const AdmissionSignals& s);
  void StepLevel(int pressure, SimTime now);

  AdmissionConfig config_;
  BrownoutLevel level_ = BrownoutLevel::kNormal;
  int below_streak_ = 0;  // consecutive samples allowing a lower level
  std::uint64_t ingress_decisions_ = 0;  // token-bucket phase
  std::uint64_t digest_ = 0;
  Stats stats_;
};

}  // namespace iotsec::control
