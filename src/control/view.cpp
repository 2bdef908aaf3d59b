#include "control/view.h"

#include "common/log.h"
#include "common/strings.h"
#include "obs/obs.h"

namespace iotsec::control {

using policy::StateSpace;

void GlobalView::SetDeviceState(const std::string& device,
                                std::string state) {
  Write(device_state_, &StateSpace::StateDim, device, std::move(state));
}

void GlobalView::SetDeviceContext(const std::string& device,
                                  std::string context) {
  Write(device_context_, &StateSpace::ContextDim, device, std::move(context));
}

void GlobalView::SetEnvLevel(const std::string& variable, std::string level) {
  Write(env_level_, &StateSpace::EnvDim, variable, std::move(level));
}

void GlobalView::Write(Slots& slots, KeyOf key_of, const std::string& name,
                       std::string value) {
  const auto [it, inserted] = slots.try_emplace(name);
  Slot& slot = it->second;
  if (inserted) slot.dim = DimOf(key_of(name));
  if (slot.value == value) return;
  slot.value = std::move(value);
  ++version_;
  Resolve(slot);
}

std::size_t GlobalView::DimOf(const std::string& key) const {
  if (space_ == nullptr) return kNoDim;
  return space_->IndexOf(key).value_or(kNoDim);
}

void GlobalView::Resolve(const Slot& slot) {
  if (slot.dim == kNoDim) return;
  const policy::Dimension& dim = space_->Dim(slot.dim);
  const auto index = dim.IndexOf(slot.value);
  state_.values[slot.dim] = index.value_or(0);
  std::uint8_t& flags = flags_[slot.dim];
  if ((flags & kDirty) == 0) {
    flags |= kDirty;
    dirty_.push_back(slot.dim);
  }
  if (index) return;
  if (obs::Enabled()) obs::M().ctl_view_unknown_values->Inc();
  if ((flags & kWarned) == 0) {
    flags |= kWarned;
    IOTSEC_LOG_WARN("view value '%s' for %s is outside the dimension's "
                    "domain; it reads as '%s'",
                    slot.value.c_str(), dim.name.c_str(),
                    dim.values.front().c_str());
  }
}

void GlobalView::Bind(const policy::StateSpace& space) {
  space_ = &space;
  state_ = space.InitialState();
  flags_.assign(space.DimensionCount(), 0);
  dirty_.clear();
  for (auto [slots, key_of] :
       {std::pair{&device_state_, &StateSpace::StateDim},
        std::pair{&device_context_, &StateSpace::ContextDim},
        std::pair{&env_level_, &StateSpace::EnvDim}}) {
    for (auto& [name, slot] : *slots) {
      slot.dim = DimOf(key_of(name));
      Resolve(slot);
    }
  }
  DrainDirtyKeys([](const std::string&) {});
}

std::optional<std::string> GlobalView::Find(const Slots& slots,
                                            const std::string& name) {
  const auto it = slots.find(name);
  if (it == slots.end()) return std::nullopt;
  return it->second.value;
}

std::optional<std::string> GlobalView::DeviceState(
    const std::string& device) const {
  return Find(device_state_, device);
}

std::optional<std::string> GlobalView::DeviceContext(
    const std::string& device) const {
  return Find(device_context_, device);
}

std::optional<std::string> GlobalView::EnvLevel(
    const std::string& variable) const {
  return Find(env_level_, variable);
}

std::optional<std::string> GlobalView::Get(const std::string& key) const {
  if (StartsWith(key, "env.")) {
    return EnvLevel(key.substr(4));
  }
  if (StartsWith(key, "device.")) {
    const auto rest = key.substr(7);
    if (EndsWith(rest, ".state")) {
      return DeviceState(rest.substr(0, rest.size() - 6));
    }
    if (EndsWith(rest, ".context")) {
      return DeviceContext(rest.substr(0, rest.size() - 8));
    }
  }
  return std::nullopt;
}

policy::SystemState GlobalView::ToSystemState(
    const policy::StateSpace& space) const {
  if (space_ != nullptr && space.SameLayout(*space_)) return state_;
  policy::SystemState state = space.InitialState();
  for (std::size_t i = 0; i < space.DimensionCount(); ++i) {
    const auto& dim = space.Dim(i);
    std::optional<std::string> value;
    if (StartsWith(dim.name, "ctx:")) {
      value = DeviceContext(dim.name.substr(4));
    } else if (StartsWith(dim.name, "dev:")) {
      value = DeviceState(dim.name.substr(4));
    } else if (StartsWith(dim.name, "env:")) {
      value = EnvLevel(dim.name.substr(4));
    }
    if (value) {
      if (auto idx = dim.IndexOf(*value)) {
        state.values[i] = *idx;
      }
    }
  }
  return state;
}

}  // namespace iotsec::control
