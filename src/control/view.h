// The controller's versioned global view (§5.1).
//
// Holds the last-known FSM state and security context of every device and
// the discretized environment levels — the S_k the policy layer evaluates.
// Every mutation bumps a version; the enforcement layer stamps flow rules
// with the version they were derived from, which is what makes two-phase
// consistent updates possible under the churn the paper worries about.
//
// Bound to the policy's state space, the view also keeps that S_k
// current: each write resolves to its (dimension, value-index) slot as it
// lands, and the written key ("ctx:<device>", "dev:<device>",
// "env:<var>") is recorded dirty until the controller drains it. A sweep
// then reads State() instead of rebuilding the projection, and
// re-evaluates only the devices that read a dirty key.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "dataplane/element.h"
#include "policy/state_space.h"

namespace iotsec::control {

class GlobalView final : public dataplane::ContextView {
 public:
  void SetDeviceState(const std::string& device, std::string state);
  void SetDeviceContext(const std::string& device, std::string context);
  void SetEnvLevel(const std::string& variable, std::string level);

  [[nodiscard]] std::optional<std::string> DeviceState(
      const std::string& device) const;
  [[nodiscard]] std::optional<std::string> DeviceContext(
      const std::string& device) const;
  [[nodiscard]] std::optional<std::string> EnvLevel(
      const std::string& variable) const;

  /// Monotonic version; bumped by every mutation.
  [[nodiscard]] std::uint64_t Version() const { return version_; }

  /// dataplane::ContextView — keys "device.<name>.state",
  /// "device.<name>.context", "env.<var>".
  [[nodiscard]] std::optional<std::string> Get(
      const std::string& key) const override;

  /// Projects the view onto a policy state space: dimension "ctx:<name>"
  /// reads the device context, "dev:<name>" the device state, and
  /// "env:<var>" the environment level. Unknown values fall back to the
  /// dimension's value 0. A space with the bound space's layout gets a
  /// copy of State().
  [[nodiscard]] policy::SystemState ToSystemState(
      const policy::StateSpace& space) const;

  /// Binds the maintained state to `space`, which must outlive the
  /// binding, and resolves every current value into it. Starts with no
  /// dirty keys.
  void Bind(const policy::StateSpace& space);
  /// The view projected onto the bound space, current after every write:
  /// always equal to ToSystemState(bound space).
  [[nodiscard]] const policy::SystemState& State() const { return state_; }

  /// Hands the name of every bound-space key whose value changed since
  /// the last drain to `fn`, once each, and forgets them. Keys outside
  /// the space are never dirty: no policy evaluation can read them.
  template <typename Fn>
  void DrainDirtyKeys(Fn&& fn) {
    for (const std::size_t dim : dirty_) {
      flags_[dim] &= static_cast<std::uint8_t>(~kDirty);
      fn(space_->Dim(dim).name);
    }
    dirty_.clear();
  }

 private:
  static constexpr std::size_t kNoDim = ~std::size_t{0};
  static constexpr std::uint8_t kDirty = 1;
  static constexpr std::uint8_t kWarned = 2;

  /// A stored value and its dimension in the bound space (kNoDim when
  /// unbound or absent), resolved once per key and binding.
  struct Slot {
    std::string value;
    std::size_t dim = kNoDim;
  };
  using Slots = std::map<std::string, Slot>;
  using KeyOf = std::string (*)(const std::string&);

  void Write(Slots& slots, KeyOf key_of, const std::string& name,
             std::string value);
  [[nodiscard]] std::size_t DimOf(const std::string& key) const;
  /// Writes the slot's value index into State() and marks its key dirty.
  /// A value outside the dimension's domain reads as value 0 (e.g. a
  /// mistyped context); it is counted in ctl.view_unknown_values and
  /// logged once per key.
  void Resolve(const Slot& slot);
  [[nodiscard]] static std::optional<std::string> Find(
      const Slots& slots, const std::string& name);

  Slots device_state_;
  Slots device_context_;
  Slots env_level_;
  std::uint64_t version_ = 0;

  const policy::StateSpace* space_ = nullptr;  // null until Bind()
  policy::SystemState state_;
  std::vector<std::uint8_t> flags_;  // per bound dimension: kDirty|kWarned
  std::vector<std::size_t> dirty_;   // dimensions with kDirty, write order
};

}  // namespace iotsec::control
