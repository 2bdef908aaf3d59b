// The §3.2 state model.
//
// The system state S is the cross product of every device's security
// context C_i, every device's FSM state, and every environment variable
// E_j. |S| = ∏ |C_i| × |E_j| is combinatorial — the paper's point — and
// bench F3 measures exactly how fast it explodes and how much the
// pruning in analysis.h recovers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace iotsec::policy {

/// The security context values every device carries (the C_i domain).
inline const std::vector<std::string>& DefaultSecurityContexts() {
  static const std::vector<std::string> kValues = {
      "normal", "suspicious", "compromised", "unpatched"};
  return kValues;
}

enum class DimensionKind : std::uint8_t {
  kDeviceContext,  // C_i — security context of device i
  kDeviceState,    // FSM state of device i ("on"/"off"/"alarm"/...)
  kEnvVar,         // E_j — discretized environment variable
};

struct Dimension {
  std::string name;  // "ctx:fire_alarm", "dev:window", "env:smoke"
  DimensionKind kind = DimensionKind::kEnvVar;
  DeviceId device = kInvalidDevice;  // for device dimensions
  std::vector<std::string> values;

  [[nodiscard]] std::optional<int> IndexOf(const std::string& value) const {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] == value) return static_cast<int>(i);
    }
    return std::nullopt;
  }
};

/// A concrete assignment of one value index per dimension.
struct SystemState {
  std::vector<int> values;
  bool operator==(const SystemState&) const = default;
};

class StateSpace {
 public:
  StateSpace() = default;
  StateSpace(const StateSpace&) = default;
  StateSpace& operator=(const StateSpace&) = default;
  /// A moved-from space is left empty (layout 0), so equal layouts
  /// always mean equal dimensions.
  StateSpace(StateSpace&& other) noexcept;
  StateSpace& operator=(StateSpace&& other) noexcept;

  /// Adds a dimension; returns its index. Dimension names must be unique.
  std::size_t AddDimension(Dimension dim);

  /// True when both spaces hold the same dimensions because one is an
  /// unmodified copy of the other (every AddDimension draws a fresh
  /// process-wide layout id; copies keep it). A constant-time identity
  /// test, never a false positive.
  [[nodiscard]] bool SameLayout(const StateSpace& other) const {
    return layout_ == other.layout_;
  }

  [[nodiscard]] std::size_t DimensionCount() const { return dims_.size(); }
  [[nodiscard]] const Dimension& Dim(std::size_t i) const { return dims_[i]; }
  [[nodiscard]] const std::vector<Dimension>& Dims() const { return dims_; }

  [[nodiscard]] std::optional<std::size_t> IndexOf(
      const std::string& name) const;

  /// Total number of states, as a double because it overflows u64 fast.
  [[nodiscard]] double TotalStates() const;

  /// All dimensions at value 0 (the conventional "everything normal").
  [[nodiscard]] SystemState InitialState() const;

  /// Sets `state`'s entry for the named dimension; false if the dimension
  /// or value is unknown.
  bool Assign(SystemState& state, const std::string& dim_name,
              const std::string& value) const;

  [[nodiscard]] const std::string& ValueOf(const SystemState& state,
                                           std::size_t dim) const {
    return dims_[dim].values[static_cast<std::size_t>(state.values[dim])];
  }

  [[nodiscard]] std::string Describe(const SystemState& state) const;

  // Conventional dimension names.
  static std::string ContextDim(const std::string& device_name) {
    return "ctx:" + device_name;
  }
  static std::string StateDim(const std::string& device_name) {
    return "dev:" + device_name;
  }
  static std::string EnvDim(const std::string& var_name) {
    return "env:" + var_name;
  }

 private:
  std::vector<Dimension> dims_;
  std::map<std::string, std::size_t> by_name_;
  std::uint64_t layout_ = 0;  // 0 = no dimensions
};

}  // namespace iotsec::policy
