// Hierarchical controller federation (§5.1) — the control-plane fast
// path.
//
// The flat IoTSecController treats every event as global: one message to
// the one controller, one whole-fleet policy sweep, one flow-mod per rule
// change. That is the next scaling cliff after the sharded dataplane
// (PR 6): at 100k devices the single control queue saturates long before
// the switches do. Federation splits the work the way the paper's §5
// proposes:
//
//   LocalController (one per segment, segments from PartitionByInteraction
//   over the policy's interaction graph): owns the high-frequency work —
//   context transitions, device-state telemetry, heartbeats, recovery
//   scheduling — and reevaluates only its own segment's devices, after a
//   short local latency.
//
//   GlobalController: reconciles cross-segment policy. Each segment ships
//   a versioned *delta* (dirty keys since its last epoch, see
//   control/delta_sync.h) on a sync ticker; the global store applies it
//   and wakes exactly the segments whose policies read a changed key.
//
//   RulePushBatcher: switch-bound flow-mods are buffered per switch and
//   flushed on a quantum/size threshold as one batched message; a remove
//   for a (device) cookie supersedes that cookie's buffered installs
//   (they are never sent). Safety-critical drops (quarantine) force an
//   immediate flush — fail-closed never waits for a batch.
//
// Shared machinery (ApplyPosture / InstallDiversion / EscalateContext /
// recovery) still lives in IoTSecController and is callable from either
// tier; the authoritative view also stays in-process. What federation
// changes — and what the ctl.msg.* counters meter — is which events cross
// the *global control fabric* and in how many messages.
//
// Determinism: segment assignment, dirty-set drain order, global apply
// order, wakeup fan-out and batch emit order are all derived from sorted
// containers and policy structure, never from hashes of pointers or
// wall-clock. All federation state lives on shard 0's simulator, whose
// event stream PR 6 already makes placement-invariant — so the sync and
// push digests are bit-identical at any dataplane shard count (hard
// bench gate at {1, 2, 8}).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "control/delta_sync.h"
#include "sdn/flow_table.h"
#include "sim/simulator.h"

namespace iotsec::sdn {
class Switch;
}  // namespace iotsec::sdn

namespace iotsec::control {

class IoTSecController;

struct FederationConfig {
  /// Off (default): the flat controller path, byte-identical to every
  /// release before federation existed.
  bool enabled = false;
  /// LocalController capacity: interaction groups larger than this are
  /// split into consecutive id-ordered chunks (0 = unlimited). Splitting
  /// an interaction-closed group is exactly what puts a device key on the
  /// delta-sync path: its readers now live in another segment.
  std::size_t max_segment_devices = 0;
};

/// Per-switch flow-mod buffering with supersede coalescing. Ops for the
/// same non-zero cookie (= one device's diversion/quarantine rules)
/// collapse to their net effect: a remove drops any buffered installs for
/// that cookie (counted in stats().ops_coalesced) and is emitted first,
/// preserving the controller's remove-then-install ordering that the flow
/// table's earliest-installed tiebreak depends on. Cookie-0 ops (base L2 /
/// transit) are never coalesced. Each flush is one batched message
/// applied via sdn::Switch::ApplyFlowMods.
class RulePushBatcher {
 public:
  struct Config {
    /// Per-switch buffers flush this often unless the size threshold or
    /// an urgent op flushes them first.
    SimDuration quantum = 2 * kMillisecond;
    /// Early flush when one switch's buffer reaches this many ops.
    std::size_t max_batch = 64;
  };

  RulePushBatcher(sim::Simulator& simulator, Config config)
      : sim_(simulator), cfg_(config) {}

  /// Begins the periodic flush ticker. Call once, at deployment start.
  void Start();

  void Install(sdn::Switch* sw, const sdn::FlowEntry& entry, bool urgent);
  void RemoveByCookie(sdn::Switch* sw, std::uint64_t cookie, bool urgent);

  /// Flushes every switch's buffer (ticker body; also useful in tests).
  void FlushAll();

  [[nodiscard]] bool HasPending() const;

  struct Stats {
    std::uint64_t pushes = 0;          // batched messages emitted
    std::uint64_t ops_buffered = 0;    // install/remove calls accepted
    std::uint64_t ops_emitted = 0;     // ops that survived coalescing
    std::uint64_t ops_coalesced = 0;   // superseded before emission
    std::uint64_t urgent_flushes = 0;  // forced by safety-critical ops
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Order-sensitive fold over every emitted op (kind, cookie, priority,
  /// version, switch, flush time) — the push half of the federation
  /// determinism gate.
  [[nodiscard]] std::uint64_t PushDigest() const { return digest_; }

 private:
  struct CookieOps {
    bool remove = false;
    std::vector<sdn::FlowEntry> installs;
  };
  struct Buffer {
    sdn::Switch* sw = nullptr;
    std::map<std::uint64_t, CookieOps> by_cookie;  // cookie != 0
    std::vector<sdn::FlowEntry> base;              // cookie == 0, in order
    std::size_t ops = 0;  // accepted since last flush (size threshold)
    bool flush_scheduled = false;
  };

  Buffer& BufferFor(sdn::Switch* sw);
  void Flush(Buffer& buffer);
  /// Same-time flush (after the current event handler finishes, so a
  /// remove+install sequence lands in one batch), guarded per buffer.
  void ScheduleImmediateFlush(Buffer& buffer);

  sim::Simulator& sim_;
  Config cfg_;
  std::map<SwitchId, Buffer> buffers_;
  Stats stats_;
  std::uint64_t digest_ = 0;
};

/// The two-tier control plane: builds segments from the policy's
/// interaction graph, routes controller events to segment-local
/// reevaluations, syncs cross-segment state by delta, and batches rule
/// pushes. Owned by core::Deployment when FederationConfig::enabled.
class FederatedControlPlane {
 public:
  FederatedControlPlane(sim::Simulator& simulator, IoTSecController& ctl,
                        FederationConfig config);

  /// Derives segments and the cross-segment dependency index from the
  /// controller's registered devices and active policy. Call after
  /// wiring + SetPolicy, before Start().
  void Build();

  /// Starts the sync ticker and the batcher's flush ticker.
  void Start();

  // ---- Event entry points (called by IoTSecController at its
  // view-mutation sites instead of ScheduleReevaluate()).

  /// A device-owned key ("ctx:<name>" / "dev:<name>") changed: schedule
  /// the owning segment's local reevaluation; if other segments read the
  /// key, mark it dirty for the next sync epoch.
  void OnDeviceEvent(DeviceId device, const std::string& dim_key);
  /// A global key changed (environment levels; also the fallback for
  /// devices without a segment): notify every dependent segment.
  void OnGlobalEvent(const std::string& dim_key);
  /// Host heartbeat arrived: absorbed locally, forwarded to the global
  /// tier as one aggregated summary per sync epoch.
  void NoteHeartbeat();

  [[nodiscard]] int SegmentOf(DeviceId device) const;  // -1 = unknown
  [[nodiscard]] std::size_t SegmentCount() const { return segments_.size(); }
  [[nodiscard]] const std::vector<DeviceId>& SegmentDevices(
      int segment) const {
    return segments_[static_cast<std::size_t>(segment)];
  }
  /// Keys readable outside their owning segment (sync candidates).
  [[nodiscard]] std::size_t CrossKeyCount() const {
    return cross_keys_.size();
  }

  [[nodiscard]] RulePushBatcher& batcher() { return batcher_; }
  [[nodiscard]] const GlobalStateStore& global_store() const {
    return global_;
  }

  struct Stats {
    std::uint64_t local_events = 0;       // device events absorbed locally
    std::uint64_t global_events = 0;      // env/global-key events
    std::uint64_t context_syncs = 0;      // deltas shipped + wakeups sent
    std::uint64_t sync_keys = 0;          // delta entries shipped
    std::uint64_t heartbeat_forwards = 0; // aggregated summaries
    std::uint64_t heartbeats_absorbed = 0;
    std::uint64_t local_reevals = 0;
    std::uint64_t remote_reevals = 0;     // sync/env-wakeup driven
    std::uint64_t reevals_coalesced = 0;  // pending-flag absorbed wakeups
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] std::uint64_t SyncDigest() const {
    return hash::MixPair(global_.SyncDigest(), event_digest_);
  }
  [[nodiscard]] std::uint64_t PushDigest() const {
    return batcher_.PushDigest();
  }
  /// The {1,2,8}-shard invariance gate folds both streams.
  [[nodiscard]] std::uint64_t CombinedDigest() const {
    return hash::MixPair(SyncDigest(), PushDigest());
  }

 private:
  void SyncTick();
  void ScheduleSegmentReevaluate(int segment, bool remote);
  /// Current value of a policy dim key in the controller's view.
  [[nodiscard]] std::string ReadViewKey(const std::string& dim_key) const;

  sim::Simulator& sim_;
  IoTSecController& ctl_;
  FederationConfig cfg_;
  RulePushBatcher batcher_;

  std::vector<std::vector<DeviceId>> segments_;
  std::map<DeviceId, int> segment_of_;
  std::vector<SegmentStateView> views_;
  GlobalStateStore global_;
  /// Device-owned keys with at least one reader outside the owner.
  std::set<std::string> cross_keys_;
  std::vector<bool> reeval_pending_;
  Stats stats_;
  std::uint64_t heartbeats_since_sync_ = 0;
  /// Folds global (env) events — they bypass segment deltas but are part
  /// of the sync stream the determinism gate covers.
  std::uint64_t event_digest_ = 0;
  bool built_ = false;
};

}  // namespace iotsec::control
