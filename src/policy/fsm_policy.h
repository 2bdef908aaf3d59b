// The §3.2 policy abstraction: Posture(S_k, D_i).
//
// A policy is a prioritized list of rules, each mapping a predicate over
// the system state to a security posture for one device. Evaluating a
// state yields the posture every device must be subjected to; the
// enforcement layer turns posture diffs into µmbox launches/reconfigs and
// flow-table updates.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "policy/state_space.h"

namespace iotsec::policy {

/// What a device's traffic is subjected to in a given state (§3.2: "the
/// set of security modules through which the traffic for the device needs
/// to be subjected" plus the detection rules to apply).
struct Posture {
  /// Symbolic profile name; drives display and equivalence ("monitor",
  /// "proxy", "quarantine", "block_open", ...).
  std::string profile = "monitor";
  /// Click-lite µmbox graph implementing the posture. Empty = no µmbox
  /// (traffic flows directly, i.e. posture "trust").
  std::string umbox_config;
  /// Whether the device's traffic must be diverted through the µmbox.
  bool tunnel = true;

  bool operator==(const Posture&) const = default;
  bool operator<(const Posture& other) const {
    return std::tie(profile, umbox_config, tunnel) <
           std::tie(other.profile, other.umbox_config, other.tunnel);
  }
};

/// Conjunction over dimensions: dimension name -> set of admissible
/// values. Missing dimension = "any value".
struct StatePredicate {
  std::map<std::string, std::set<std::string>> constraints;

  [[nodiscard]] bool Matches(const StateSpace& space,
                             const SystemState& state) const;

  /// True if the two predicates can both hold in some state.
  [[nodiscard]] bool Overlaps(const StatePredicate& other,
                              const StateSpace& space) const;
  /// True if every state matching *this also matches `other`.
  [[nodiscard]] bool IsSubsumedBy(const StatePredicate& other,
                                  const StateSpace& space) const;

  [[nodiscard]] std::string ToString() const;

  static StatePredicate Any() { return {}; }
  /// Single-dimension equality shorthand.
  static StatePredicate Eq(const std::string& dim, const std::string& value);
  /// Conjunction helper.
  StatePredicate& And(const std::string& dim, const std::string& value);
  StatePredicate& AndIn(const std::string& dim,
                        std::set<std::string> values);
};

struct PolicyRule {
  std::string name;
  StatePredicate when;
  DeviceId device = kInvalidDevice;
  Posture posture;
  int priority = 0;  // higher wins

  [[nodiscard]] std::string ToString() const;
};

class FsmPolicy {
 public:
  void Add(PolicyRule rule);
  void SetDefault(Posture posture) { default_posture_ = std::move(posture); }
  [[nodiscard]] const Posture& DefaultPosture() const {
    return default_posture_;
  }
  [[nodiscard]] const std::vector<PolicyRule>& rules() const {
    return rules_;
  }

  /// Posture for one device in one state: the highest-priority matching
  /// rule, else the default posture.
  [[nodiscard]] const Posture& Evaluate(const StateSpace& space,
                                        const SystemState& state,
                                        DeviceId device) const;

  /// Index (into rules()) of the rule that decides (state, device) —
  /// first highest-priority match, exactly Evaluate's choice — or
  /// nullopt when the state falls through to the default posture. The
  /// static verifier uses this to find dead rules and default fall-through.
  [[nodiscard]] std::optional<std::size_t> WinningRule(
      const StateSpace& space, const SystemState& state,
      DeviceId device) const;

  /// Postures for every listed device (one Evaluate per device).
  [[nodiscard]] std::map<DeviceId, Posture> EvaluateAll(
      const StateSpace& space, const SystemState& state,
      const std::vector<DeviceId>& devices) const;

  /// Dimensions the policy actually reads for `device` — the projection
  /// used by pruning, and the keys whose changes can move the device's
  /// posture. Walks only the device's own rules.
  [[nodiscard]] std::set<std::string> RelevantDims(DeviceId device) const;

  /// Every dimension any rule's predicate constrains, across all devices.
  /// This is the model checker's transition frontier: only these
  /// dimensions can flip a policy decision, so only they need free
  /// exploration (everything else is posture-invariant).
  [[nodiscard]] std::set<std::string> ReadDims() const;

 private:
  /// Indices into rules_ of one device's rules, ascending; null if none.
  [[nodiscard]] const std::vector<std::size_t>* RulesOf(
      DeviceId device) const;

  std::vector<PolicyRule> rules_;
  /// Per-device rule index, maintained by Add: evaluation and
  /// RelevantDims touch a device's own rules only, never the whole list.
  std::unordered_map<DeviceId, std::vector<std::size_t>> rules_of_;
  Posture default_posture_;
};

}  // namespace iotsec::policy
