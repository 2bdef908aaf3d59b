// Versioned delta state sync for the federated control plane (§5.1).
//
// The flat controller ships its whole view implicitly: every event is a
// global message to the one controller. Federation replaces that with
// *delta* synchronisation: each segment's local controller tracks
// exactly which state keys changed since its last sync epoch (a dirty
// set, not a snapshot diff), and ships only those entries to the global
// tier. The global store applies deltas in deterministic order, keeps
// per-segment sync versions, and answers the one question cross-segment
// reconciliation needs: "which other segments' policies read this key?"
// — via a dependency index built once from the policy.
//
// Determinism contract: dirty sets drain in lexicographic key order,
// deltas carry (segment, epoch, version) and every applied entry is
// folded into an order-sensitive digest (hash::MixPair over FNV-1a of
// keys and values; common/hash.h). For a fixed seed the sync
// stream — and therefore the digest — is bit-identical at any dataplane
// shard count: all control-plane state lives on shard 0 and every input
// event is placement-invariant (PR 6's guarantee).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace iotsec::control {

/// One synced key-value pair. Keys use the policy dimension naming
/// ("ctx:<device>", "dev:<device>", "env:<var>") so the dependency index
/// can be built directly from FsmPolicy::RelevantDims.
struct DeltaEntry {
  std::string key;
  std::string value;
};

/// One segment→global sync message: everything the segment dirtied since
/// its previous epoch, in lexicographic key order.
struct StateDelta {
  int segment = -1;
  std::uint64_t epoch = 0;    // sender's sync epoch counter
  std::uint64_t version = 0;  // sender's view version after these writes
  std::vector<DeltaEntry> entries;
};

/// Key -> readers: who must be re-evaluated when a state key changes. A
/// reader is whatever evaluates policy over the key — a device for the
/// controller's sweep, a segment for the federation's global tier. Built
/// from FsmPolicy::RelevantDims. Readers of a key come back ascending.
template <typename Reader>
class DependencyIndex {
 public:
  void Add(const std::string& key, Reader reader) {
    readers_[key].insert(reader);
  }
  void Clear() { readers_.clear(); }

  /// Readers of `key`, ascending; null when nothing reads it.
  [[nodiscard]] const std::set<Reader>* ReadersOf(
      const std::string& key) const {
    const auto it = readers_.find(key);
    return it == readers_.end() ? nullptr : &it->second;
  }

  /// Every (key, readers) pair in key order.
  [[nodiscard]] const std::map<std::string, std::set<Reader>>& Entries()
      const {
    return readers_;
  }

 private:
  std::map<std::string, std::set<Reader>> readers_;
};

/// A segment's local slice of the system state with per-epoch dirty-set
/// tracking. Set() is idempotent — rewriting the current value neither
/// bumps the version nor dirties the key — so sync traffic is driven by
/// real change, not by event volume.
class SegmentStateView {
 public:
  explicit SegmentStateView(int segment = -1) : segment_(segment) {}

  [[nodiscard]] int segment() const { return segment_; }

  /// Returns true when the value actually changed (and the key is now
  /// dirty for the next sync epoch).
  bool Set(const std::string& key, const std::string& value);

  [[nodiscard]] const std::string* Get(const std::string& key) const;

  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] std::size_t DirtyCount() const { return dirty_.size(); }
  [[nodiscard]] bool HasDirty() const { return !dirty_.empty(); }

  /// Closes the current epoch: returns the dirty entries sorted by key,
  /// clears the dirty set and bumps the epoch counter. An epoch with no
  /// dirty keys returns an empty delta and does NOT bump the epoch (no
  /// message, no cost).
  [[nodiscard]] StateDelta DrainDelta();

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  int segment_;
  std::map<std::string, std::string> values_;
  std::set<std::string> dirty_;
  std::uint64_t version_ = 0;
  std::uint64_t epoch_ = 0;
};

/// The global tier's reconciliation store: applies segment deltas in
/// arrival order, tracks per-segment applied epochs, and maps each key to
/// the segments whose policies read it (registered once at build time).
class GlobalStateStore {
 public:
  /// Declares that `segment`'s policy evaluation reads `key`. A key may
  /// be read by many segments; reads by the key's owning segment are
  /// normal and simply excluded by DependentsOf's `except`.
  void AddDependency(const std::string& key, int segment);

  /// Applies one delta: merges entries (last-writer-wins), advances the
  /// segment's epoch, folds every entry into the sync digest, and
  /// returns the ascending list of segments (≠ delta.segment) whose
  /// policies read at least one of the delta's keys — the segments the
  /// global controller must schedule for reevaluation.
  std::vector<int> Apply(const StateDelta& delta);

  /// Segments (≠ except) registered as readers of `key`.
  [[nodiscard]] std::vector<int> DependentsOf(const std::string& key,
                                              int except) const;
  [[nodiscard]] const DependencyIndex<int>& dependencies() const {
    return readers_;
  }

  [[nodiscard]] const std::string* Get(const std::string& key) const;
  [[nodiscard]] std::uint64_t AppliedEpoch(int segment) const;

  struct Stats {
    std::uint64_t deltas_applied = 0;
    std::uint64_t entries_applied = 0;
    std::uint64_t dependent_wakeups = 0;  // segment reevals fanned out
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Order-sensitive fold of every applied (segment, epoch, key, value).
  [[nodiscard]] std::uint64_t SyncDigest() const { return digest_; }

 private:
  std::map<std::string, std::string> values_;
  DependencyIndex<int> readers_;
  std::map<int, std::uint64_t> applied_epoch_;
  std::uint64_t digest_ = 0;
  Stats stats_;
};

}  // namespace iotsec::control
