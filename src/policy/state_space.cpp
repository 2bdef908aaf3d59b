#include "policy/state_space.h"

#include <atomic>
#include <stdexcept>
#include <utility>

namespace iotsec::policy {

StateSpace::StateSpace(StateSpace&& other) noexcept
    : dims_(std::move(other.dims_)),
      by_name_(std::move(other.by_name_)),
      layout_(std::exchange(other.layout_, 0)) {
  other.dims_.clear();
  other.by_name_.clear();
}

StateSpace& StateSpace::operator=(StateSpace&& other) noexcept {
  if (this == &other) return *this;
  dims_ = std::move(other.dims_);
  by_name_ = std::move(other.by_name_);
  layout_ = std::exchange(other.layout_, 0);
  other.dims_.clear();
  other.by_name_.clear();
  return *this;
}

std::size_t StateSpace::AddDimension(Dimension dim) {
  if (dim.values.empty()) {
    throw std::invalid_argument("dimension needs at least one value: " +
                                dim.name);
  }
  if (by_name_.count(dim.name)) {
    throw std::invalid_argument("duplicate dimension: " + dim.name);
  }
  static std::atomic<std::uint64_t> next_layout{1};
  const std::size_t idx = dims_.size();
  by_name_[dim.name] = idx;
  dims_.push_back(std::move(dim));
  layout_ = next_layout.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

std::optional<std::size_t> StateSpace::IndexOf(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

double StateSpace::TotalStates() const {
  double total = 1.0;
  for (const auto& d : dims_) total *= static_cast<double>(d.values.size());
  return total;
}

SystemState StateSpace::InitialState() const {
  SystemState s;
  s.values.assign(dims_.size(), 0);
  return s;
}

bool StateSpace::Assign(SystemState& state, const std::string& dim_name,
                        const std::string& value) const {
  const auto idx = IndexOf(dim_name);
  if (!idx) return false;
  const auto vidx = dims_[*idx].IndexOf(value);
  if (!vidx) return false;
  state.values[*idx] = *vidx;
  return true;
}

std::string StateSpace::Describe(const SystemState& state) const {
  std::string out = "{";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) out += ", ";
    out += dims_[i].name + "=" + ValueOf(state, i);
  }
  out += "}";
  return out;
}

}  // namespace iotsec::policy
