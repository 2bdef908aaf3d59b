#include "control/admission.h"

#include <algorithm>

#include "common/hash.h"
#include "obs/obs.h"

namespace iotsec::control {
namespace {

// Digest fold tags — part of the determinism contract (changing them
// invalidates recorded digests, not correctness).
constexpr std::uint64_t kFoldTransition = 1;
constexpr std::uint64_t kFoldShedLaunch = 2;
constexpr std::uint64_t kFoldDeferRestart = 3;
constexpr std::uint64_t kFoldIngressDrop = 4;

}  // namespace

std::string_view BrownoutLevelName(BrownoutLevel level) {
  switch (level) {
    case BrownoutLevel::kNormal: return "normal";
    case BrownoutLevel::kDefer: return "defer";
    case BrownoutLevel::kShed: return "shed";
    case BrownoutLevel::kFailClosedLite: return "fail-closed-lite";
  }
  return "?";
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {}

void AdmissionController::Fold(std::uint64_t kind, std::uint64_t a,
                               std::uint64_t b) {
  digest_ = hash::MixPair(digest_, hash::MixPair(kind, hash::MixPair(a, b)));
}

int AdmissionController::PressureOf(const AdmissionSignals& s) {
  stats_.pool_permille =
      config_.pool_capacity == 0
          ? 0
          : static_cast<int>(s.pool_live * 1000 / config_.pool_capacity);
  stats_.boot_queue_permille = s.boot_queue_worst_permille;
  stats_.cluster_permille =
      s.cluster_capacity <= 0
          ? 0
          : static_cast<int>(static_cast<std::int64_t>(s.cluster_load) *
                             1000 / s.cluster_capacity);
  return std::max({stats_.pool_permille, stats_.boot_queue_permille,
                   stats_.cluster_permille});
}

void AdmissionController::StepLevel(int pressure, SimTime now) {
  const auto enter = [this](BrownoutLevel l) {
    switch (l) {
      case BrownoutLevel::kDefer: return config_.defer_enter_permille;
      case BrownoutLevel::kShed: return config_.shed_enter_permille;
      case BrownoutLevel::kFailClosedLite:
        return config_.fail_closed_enter_permille;
      case BrownoutLevel::kNormal: break;
    }
    return 0;
  };

  BrownoutLevel desired = BrownoutLevel::kNormal;
  if (pressure >= config_.fail_closed_enter_permille) {
    desired = BrownoutLevel::kFailClosedLite;
  } else if (pressure >= config_.shed_enter_permille) {
    desired = BrownoutLevel::kShed;
  } else if (pressure >= config_.defer_enter_permille) {
    desired = BrownoutLevel::kDefer;
  }

  BrownoutLevel next = level_;
  if (desired > level_) {
    below_streak_ = 0;
    // One level per sample: a spike walks the ladder, never jumps it,
    // so transitions stay observable and recovery stays monotonic.
    next = static_cast<BrownoutLevel>(static_cast<int>(level_) + 1);
  } else if (level_ != BrownoutLevel::kNormal &&
             pressure < enter(level_) - config_.exit_margin_permille) {
    if (++below_streak_ >= config_.down_hold) {
      next = static_cast<BrownoutLevel>(static_cast<int>(level_) - 1);
      below_streak_ = 0;
    }
  } else {
    below_streak_ = 0;
  }
  if (next == level_) return;

  const BrownoutLevel from = level_;
  level_ = next;
  ++stats_.transitions;
  Fold(kFoldTransition,
       (static_cast<std::uint64_t>(from) << 8) |
           static_cast<std::uint64_t>(next),
       hash::MixPair(static_cast<std::uint64_t>(now),
                     static_cast<std::uint64_t>(pressure)));
  if (obs::Enabled()) {
    obs::M().ctl_admission_transitions->Inc();
    obs::M().ctl_admission_level->Set(static_cast<std::int64_t>(next));
    obs::FlightRecorder::Global().Record(
        obs::TraceEventType::kAdmissionTransition, now,
        (static_cast<std::uint32_t>(from) << 8) |
            static_cast<std::uint32_t>(next),
        static_cast<std::uint64_t>(pressure));
  }
}

void AdmissionController::Update(const AdmissionSignals& signals,
                                 SimTime now) {
  ++stats_.samples;
  const int pressure = PressureOf(signals);
  stats_.pressure_permille = pressure;
  if (config_.pool_capacity > 0 &&
      signals.pool_live > config_.pool_capacity) {
    ++stats_.pool_exhausted_samples;
    if (obs::Enabled()) obs::M().net_pool_exhausted->Inc();
  }
  StepLevel(pressure, now);
}

bool AdmissionController::AllowLaunch(DeviceId device, SimTime now) {
  if (!enforcing() || level_ < BrownoutLevel::kShed) return true;
  ++stats_.shed_launches;
  Fold(kFoldShedLaunch, device, static_cast<std::uint64_t>(now));
  if (obs::Enabled()) {
    obs::M().ctl_admission_shed_launches->Inc();
    obs::FlightRecorder::Global().Record(obs::TraceEventType::kAdmissionShed,
                                         now,
                                         static_cast<std::uint32_t>(device),
                                         static_cast<std::uint64_t>(level_));
  }
  return false;
}

bool AdmissionController::DeferRestart(DeviceId device, SimTime now) {
  if (!enforcing() || level_ < BrownoutLevel::kDefer) return false;
  ++stats_.deferred_restarts;
  Fold(kFoldDeferRestart, device, static_cast<std::uint64_t>(now));
  if (obs::Enabled()) {
    obs::M().ctl_admission_deferred_restarts->Inc();
    obs::FlightRecorder::Global().Record(obs::TraceEventType::kAdmissionDefer,
                                         now,
                                         static_cast<std::uint32_t>(device),
                                         static_cast<std::uint64_t>(level_));
  }
  return true;
}

bool AdmissionController::AdmitIngress(SimTime now) {
  if (!enforcing() || level_ < BrownoutLevel::kShed) return true;
  const int permille = level_ == BrownoutLevel::kFailClosedLite
                           ? config_.fail_closed_drop_permille
                           : config_.shed_drop_permille;
  // Bresenham-style spreading: over any window of N decisions exactly
  // ⌊N·p/1000⌋±1 are dropped, with no RNG in the trace.
  const std::uint64_t n = ++ingress_decisions_;
  const std::uint64_t p = static_cast<std::uint64_t>(permille);
  const bool drop = (n * p) / 1000 != ((n - 1) * p) / 1000;
  if (!drop) return true;
  ++stats_.backpressure_drops;
  Fold(kFoldIngressDrop, n, static_cast<std::uint64_t>(now));
  if (obs::Enabled()) obs::M().ctl_admission_backpressure_drops->Inc();
  return false;
}

}  // namespace iotsec::control
