#include "rollout/coordinator.h"

#include <algorithm>

#include "common/hash.h"
#include "common/log.h"
#include "control/admission.h"
#include "obs/obs.h"

namespace iotsec::rollout {
namespace {

// Digest event kinds (order-sensitive fold, see DecisionDigest()).
constexpr std::uint64_t kEvBegin = 1;
constexpr std::uint64_t kEvStage = 2;
constexpr std::uint64_t kEvGate = 3;
constexpr std::uint64_t kEvPromote = 4;
constexpr std::uint64_t kEvRollback = 5;
constexpr std::uint64_t kEvDefer = 6;
constexpr std::uint64_t kEvVerify = 7;
constexpr std::uint64_t kEvCatchUp = 8;

// Health gate. The cohort fails its gate when, over the hold:
//   * cohort crashes exceed kMaxCohortCrashes, or
//   * cohort alerts exceed BOTH the absolute quiet-fleet allowance
//     (kQuietAlertAllowance × cohort size) AND the control group's
//     per-device rate scaled by kAlertRatioLimitPermille.
// All integer arithmetic on barrier-deterministic counts — no wall
// clock in the decision path.
constexpr std::uint64_t kMaxCohortCrashes = 0;
constexpr std::uint64_t kQuietAlertAllowance = 1;
constexpr std::uint64_t kAlertRatioLimitPermille = 3000;  // 3x control

}  // namespace

RolloutCoordinator::RolloutCoordinator(sim::Simulator& simulator,
                                       VersionStore* store,
                                       RolloutConfig config,
                                       const control::AdmissionController&
                                           admission)
    : sim_(simulator),
      store_(store),
      config_(std::move(config)),
      admission_(admission) {
  if (config_.stages.empty()) config_.stages = {1000};
}

void RolloutCoordinator::RegisterDevice(DeviceId device,
                                        const std::string& sku) {
  auto [it, inserted] = devices_.try_emplace(device);
  if (!inserted) return;
  it->second.sku = sku;
  it->second.receiver = RulesetReceiver(store_->config().signing_key);
  CatchUp(device, it->second);
}

void RolloutCoordinator::AdoptBaseline(const std::string& sku,
                                       std::vector<std::string> rule_texts) {
  if (rule_texts.empty() || store_->Latest(sku) != 0) return;
  rollouts_[sku].stable = store_->Cut(sku, std::move(rule_texts));
  for (auto& [id, ds] : devices_) {
    if (ds.sku == sku) CatchUp(id, ds);
  }
}

bool RolloutCoordinator::PushTo(DeviceId device, DeviceState& ds,
                                std::uint64_t target, std::uint64_t* bytes) {
  RulesetManifest manifest;
  if (!store_->ManifestFor(ds.sku, ds.receiver.version(), target,
                           &manifest)) {
    return false;
  }
  const ApplyResult result = ds.receiver.Apply(
      manifest, static_cast<std::uint32_t>(device), sim_.Now());
  if (result != ApplyResult::kApplied) {
    IOTSEC_LOG_WARN("rollout: device %llu rejected v%llu manifest (%s)",
                    static_cast<unsigned long long>(device),
                    static_cast<unsigned long long>(target),
                    std::string(ApplyResultName(result)).c_str());
    return false;
  }
  ++stats_.devices_applied;
  *bytes += manifest.WireBytes();
  if (applier_) applier_(device, ds.receiver.compiled());
  return true;
}

void RolloutCoordinator::CatchUp(DeviceId device, DeviceState& ds) {
  const std::uint64_t stable = StableOf(ds.sku);
  if (ds.receiver.version() >= stable) return;
  std::uint64_t bytes = 0;
  if (!PushTo(device, ds, stable, &bytes)) return;
  ++stats_.push_msgs;
  stats_.push_bytes += bytes;
  obs::M().ctl_rollout_push_msgs->Inc();
  obs::M().ctl_rollout_push_bytes->Inc(bytes);
  Fold(kEvCatchUp, device, stable, 0);
}

bool RolloutCoordinator::InCohort(DeviceId device, std::uint64_t version,
                                  std::uint32_t permille) {
  // Placement-invariant: a pure function of (device id, version). The
  // same hash serves every stage, so a higher permille strictly widens
  // the cohort (stage N's canaries stay canaries through promotion).
  const std::uint64_t h =
      hash::Fmix64((static_cast<std::uint64_t>(device) * hash::kGolden) ^
                   hash::Fmix64(version));
  return h % 1000 < permille;
}

void RolloutCoordinator::OnVersionCut(const std::string& sku) {
  SkuRollout& r = rollouts_[sku];
  if (r.target != 0) {
    // A rollout is in flight; the newer version starts once it resolves.
    r.pending = true;
    return;
  }
  Begin(sku, r);
}

void RolloutCoordinator::Begin(const std::string& sku, SkuRollout& r) {
  std::uint64_t target = store_->LatestViable(sku);
  // Pre-canary differential verification: before any device sees the
  // candidate, diff its enforcement against the fleet's stable version.
  // A blocked candidate is quarantined (it would weaken the deployment
  // on every device it reaches) and the next viable version is tried —
  // the same never-offer-again memory a failed health gate leaves.
  while (verifier_ && target != 0 && target > r.stable) {
    std::string detail;
    ++stats_.verify_checks;
    const bool ok = verifier_(sku, r.stable, target, &detail);
    Fold(kEvVerify, HashRuleText(sku), target, ok ? 1 : 0);
    if (ok) break;
    ++stats_.verify_blocks;
    IOTSEC_LOG_WARN(
        "rollout: %s v%llu BLOCKED by pre-canary verification (%s) — "
        "quarantined",
        sku.c_str(), static_cast<unsigned long long>(target),
        detail.c_str());
    store_->Quarantine(sku, target);
    target = store_->LatestViable(sku);
  }
  if (target == 0 || target <= r.stable) return;
  r.target = target;
  r.stage = 0;
  r.cohort.clear();
  ++r.epoch;
  ++stats_.rollouts_started;
  obs::M().ctl_rollout_active->Add(1);
  Fold(kEvBegin, HashRuleText(sku), target, 0);
  IOTSEC_LOG_INFO("rollout: %s -> v%llu begins (%zu stages)", sku.c_str(),
                  static_cast<unsigned long long>(target),
                  config_.stages.size());
  TryApplyStage(sku, r.epoch);
}

void RolloutCoordinator::TryApplyStage(const std::string& sku,
                                       std::uint64_t epoch) {
  auto it = rollouts_.find(sku);
  if (it == rollouts_.end()) return;
  SkuRollout& r = it->second;
  if (r.epoch != epoch || r.target == 0) return;
  if (AdmissionWantsDefer()) {
    // Brownout: pushing reconfiguration work at a saturated fleet only
    // deepens the overload. Hold and retry; already-applied canaries
    // keep soaking meanwhile.
    ++stats_.deferred;
    obs::M().ctl_rollout_deferred->Inc();
    obs::FlightRecorder::Global().Record(
        obs::TraceEventType::kRolloutDefer, sim_.Now(),
        static_cast<std::uint32_t>(r.stage), r.target);
    Fold(kEvDefer, r.target, static_cast<std::uint64_t>(r.stage), 0);
    sim_.After(config_.defer_retry,
               [this, sku, epoch] { TryApplyStage(sku, epoch); });
    return;
  }
  ApplyStage(sku, r);
}

void RolloutCoordinator::ApplyStage(const std::string& sku, SkuRollout& r) {
  const std::uint32_t permille =
      config_.stages[static_cast<std::size_t>(r.stage)];
  std::uint64_t pushed = 0;
  std::uint64_t stage_bytes = 0;
  std::uint64_t cohort_fold = 0;
  for (auto& [id, ds] : devices_) {
    if (ds.sku != sku) continue;
    if (!InCohort(id, r.target, permille)) continue;
    if (ds.receiver.version() == r.target) continue;
    if (!PushTo(id, ds, r.target, &stage_bytes)) continue;
    r.cohort.push_back(id);
    cohort_fold = hash::Fmix64(cohort_fold ^ static_cast<std::uint64_t>(id));
    ++pushed;
  }
  // Later stages append their newly-included devices after the earlier
  // cohort; SumSignals binary-searches, so keep the list sorted.
  std::sort(r.cohort.begin(), r.cohort.end());
  const std::uint64_t msgs =
      config_.push_batch == 0
          ? pushed
          : (pushed + config_.push_batch - 1) / config_.push_batch;
  stats_.push_msgs += msgs;
  stats_.push_bytes += stage_bytes;
  obs::M().ctl_rollout_push_msgs->Inc(msgs);
  obs::M().ctl_rollout_push_bytes->Inc(stage_bytes);
  ++stats_.stages_applied;
  obs::M().ctl_rollout_stages->Inc();
  obs::FlightRecorder::Global().Record(obs::TraceEventType::kRolloutStage,
                                       sim_.Now(), permille, r.target);
  Fold(kEvStage, permille, r.cohort.size(), cohort_fold);
  SnapshotGateBaselines(sku, r);
  const std::uint64_t epoch = r.epoch;
  sim_.After(config_.stage_hold,
             [this, sku, epoch] { EvaluateGate(sku, epoch); });
}

void RolloutCoordinator::SnapshotGateBaselines(const std::string& sku,
                                               SkuRollout& r) {
  SumSignals(sku, r, &r.cohort_alerts_base, &r.control_alerts_base,
             &r.cohort_crashes_base);
  r.sig_matches_base = obs::M().sig_matches->Value();
}

void RolloutCoordinator::SumSignals(const std::string& sku,
                                    const SkuRollout& r,
                                    std::uint64_t* cohort_alerts,
                                    std::uint64_t* control_alerts,
                                    std::uint64_t* cohort_crashes) const {
  *cohort_alerts = 0;
  *control_alerts = 0;
  *cohort_crashes = 0;
  for (const auto& [id, ds] : devices_) {
    if (ds.sku != sku) continue;
    const bool in_cohort =
        std::binary_search(r.cohort.begin(), r.cohort.end(), id);
    const auto ait = alerts_.find(id);
    const std::uint64_t a = ait == alerts_.end() ? 0 : ait->second;
    if (in_cohort) {
      *cohort_alerts += a;
      const auto cit = crashes_.find(id);
      *cohort_crashes += cit == crashes_.end() ? 0 : cit->second;
    } else {
      *control_alerts += a;
    }
  }
}

void RolloutCoordinator::EvaluateGate(const std::string& sku,
                                      std::uint64_t epoch) {
  auto it = rollouts_.find(sku);
  if (it == rollouts_.end()) return;
  SkuRollout& r = it->second;
  if (r.epoch != epoch || r.target == 0) return;

  std::uint64_t cohort_alerts = 0;
  std::uint64_t control_alerts = 0;
  std::uint64_t cohort_crashes = 0;
  SumSignals(sku, r, &cohort_alerts, &control_alerts, &cohort_crashes);
  cohort_alerts -= r.cohort_alerts_base;
  control_alerts -= r.control_alerts_base;
  cohort_crashes -= r.cohort_crashes_base;
  stats_.last_cohort_alerts = cohort_alerts;
  stats_.last_control_alerts = control_alerts;
  stats_.last_cohort_crashes = cohort_crashes;
  stats_.last_sig_matches_delta =
      obs::M().sig_matches->Value() - r.sig_matches_base;

  const std::uint64_t n_cohort = r.cohort.size();
  std::uint64_t n_sku = 0;
  for (const auto& [id, ds] : devices_) {
    if (ds.sku == sku) ++n_sku;
  }
  const std::uint64_t n_control = n_sku - n_cohort;

  const bool crash_fail = cohort_crashes > kMaxCohortCrashes;
  // The cohort passes on alerts if it stays under the absolute
  // quiet-fleet allowance OR under the control group's per-device rate
  // scaled by the ratio limit. Both exceeded = false-positive storm.
  const bool quiet_ok =
      cohort_alerts <= kQuietAlertAllowance * n_cohort;
  const bool ratio_ok =
      n_control > 0 &&
      cohort_alerts * n_control * 1000 <=
          kAlertRatioLimitPermille * control_alerts * n_cohort;
  const bool failed = crash_fail || (!quiet_ok && !ratio_ok);

  Fold(kEvGate, cohort_alerts, control_alerts,
       (cohort_crashes << 1) | (failed ? 1 : 0));

  if (failed) {
    IOTSEC_LOG_WARN(
        "rollout: %s v%llu FAILED gate at stage %d "
        "(cohort alerts %llu over %llu devices, control %llu over %llu, "
        "crashes %llu) — rolling back",
        sku.c_str(), static_cast<unsigned long long>(r.target), r.stage,
        static_cast<unsigned long long>(cohort_alerts),
        static_cast<unsigned long long>(n_cohort),
        static_cast<unsigned long long>(control_alerts),
        static_cast<unsigned long long>(n_control),
        static_cast<unsigned long long>(cohort_crashes));
    Rollback(sku, r);
    return;
  }
  ++stats_.gates_passed;

  if (r.stage + 1 < static_cast<int>(config_.stages.size())) {
    ++r.stage;
    TryApplyStage(sku, r.epoch);
    return;
  }
  FinishRollout(sku, r, /*promoted=*/true);
}

void RolloutCoordinator::Rollback(const std::string& sku, SkuRollout& r) {
  for (DeviceId id : r.cohort) {
    auto it = devices_.find(id);
    if (it == devices_.end()) continue;
    if (!it->second.receiver.Rollback()) continue;
    ++stats_.devices_rolled_back;
    if (applier_) applier_(id, it->second.receiver.compiled());
  }
  store_->Quarantine(sku, r.target);
  ++stats_.rollbacks;
  obs::M().ctl_rollout_rollbacks->Inc();
  obs::FlightRecorder::Global().Record(
      obs::TraceEventType::kRolloutRollback, sim_.Now(),
      static_cast<std::uint32_t>(r.cohort.size()), r.target);
  Fold(kEvRollback, r.target, r.cohort.size(), 0);
  FinishRollout(sku, r, /*promoted=*/false);
}

void RolloutCoordinator::FinishRollout(const std::string& sku, SkuRollout& r,
                                       bool promoted) {
  if (promoted) {
    r.stable = r.target;
    ++stats_.promotions;
    obs::M().ctl_rollout_promotions->Inc();
    obs::FlightRecorder::Global().Record(
        obs::TraceEventType::kRolloutPromote, sim_.Now(),
        static_cast<std::uint32_t>(r.cohort.size()), r.target);
    Fold(kEvPromote, r.target, r.cohort.size(), 0);
    IOTSEC_LOG_INFO("rollout: %s v%llu promoted to fleet (%zu devices)",
                    sku.c_str(), static_cast<unsigned long long>(r.target),
                    r.cohort.size());
    // Devices that registered while the version was in flight caught up
    // to the old stable one and missed the cohorts; bring them along.
    for (auto& [id, ds] : devices_) {
      if (ds.sku == sku) CatchUp(id, ds);
    }
  }
  r.target = 0;
  r.stage = -1;
  r.cohort.clear();
  ++r.epoch;
  obs::M().ctl_rollout_active->Add(-1);
  if (r.pending) {
    r.pending = false;
    Begin(sku, r);
  }
}

bool RolloutCoordinator::OperatorRollback(const std::string& sku) {
  auto it = rollouts_.find(sku);
  if (it == rollouts_.end() || it->second.target == 0) return false;
  Rollback(sku, it->second);
  return true;
}

void RolloutCoordinator::OnDeviceAlert(DeviceId device) {
  ++alerts_[device];
}

void RolloutCoordinator::OnDeviceCrash(DeviceId device) {
  ++crashes_[device];
}

const std::vector<std::string>& RolloutCoordinator::RuleTextsFor(
    DeviceId device) const {
  static const std::vector<std::string> kEmpty;
  const auto it = devices_.find(device);
  return it == devices_.end() ? kEmpty : it->second.receiver.rule_texts();
}

std::uint64_t RolloutCoordinator::VersionOf(DeviceId device) const {
  const auto it = devices_.find(device);
  return it == devices_.end() ? 0 : it->second.receiver.version();
}

const RulesetReceiver* RolloutCoordinator::ReceiverOf(
    DeviceId device) const {
  const auto it = devices_.find(device);
  return it == devices_.end() ? nullptr : &it->second.receiver;
}

RolloutCoordinator::SkuState RolloutCoordinator::StateOf(
    const std::string& sku) const {
  const auto it = rollouts_.find(sku);
  if (it == rollouts_.end() || it->second.target == 0) {
    return SkuState::kIdle;
  }
  return SkuState::kStaging;
}

std::uint64_t RolloutCoordinator::StableOf(const std::string& sku) const {
  const auto it = rollouts_.find(sku);
  return it == rollouts_.end() ? 0 : it->second.stable;
}

bool RolloutCoordinator::AdmissionWantsDefer() const {
  return admission_.enforcing() &&
         admission_.level() >= control::BrownoutLevel::kDefer;
}

void RolloutCoordinator::Fold(std::uint64_t kind, std::uint64_t a,
                              std::uint64_t b, std::uint64_t c) {
  digest_ = hash::Fmix64(digest_ ^ hash::Fmix64(kind * hash::kGolden + a));
  digest_ =
      hash::Fmix64(digest_ ^ hash::Fmix64(b * 0xC2B2AE3D27D4EB4Full + c));
}

}  // namespace iotsec::rollout
