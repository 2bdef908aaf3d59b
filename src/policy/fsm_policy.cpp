#include "policy/fsm_policy.h"

namespace iotsec::policy {

bool StatePredicate::Matches(const StateSpace& space,
                             const SystemState& state) const {
  for (const auto& [dim_name, allowed] : constraints) {
    const auto idx = space.IndexOf(dim_name);
    if (!idx) return false;  // constraint on an unknown dimension
    if (!allowed.count(space.ValueOf(state, *idx))) return false;
  }
  return true;
}

bool StatePredicate::Overlaps(const StatePredicate& other,
                              const StateSpace& space) const {
  (void)space;
  // Conjunctions overlap iff every shared dimension has a non-empty value
  // intersection (unconstrained dimensions never eliminate overlap).
  for (const auto& [dim, mine] : constraints) {
    const auto it = other.constraints.find(dim);
    if (it == other.constraints.end()) continue;
    bool any = false;
    for (const auto& v : mine) {
      if (it->second.count(v)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

bool StatePredicate::IsSubsumedBy(const StatePredicate& other,
                                  const StateSpace& space) const {
  // Every state matching *this matches `other` iff each of other's
  // constraints is implied by ours: our allowed set for that dimension
  // must exist and be a subset of theirs.
  for (const auto& [dim, theirs] : other.constraints) {
    const auto it = constraints.find(dim);
    if (it == constraints.end()) {
      // We allow any value; `other` restricts — unless other's set covers
      // the whole domain, we are not subsumed.
      const auto idx = space.IndexOf(dim);
      if (!idx) return false;
      if (theirs.size() < space.Dim(*idx).values.size()) return false;
      continue;
    }
    for (const auto& v : it->second) {
      if (!theirs.count(v)) return false;
    }
  }
  return true;
}

std::string StatePredicate::ToString() const {
  if (constraints.empty()) return "(any)";
  std::string out = "(";
  bool first = true;
  for (const auto& [dim, values] : constraints) {
    if (!first) out += " && ";
    first = false;
    out += dim;
    if (values.size() == 1) {
      out += "==" + *values.begin();
    } else {
      out += " in {";
      bool vfirst = true;
      for (const auto& v : values) {
        if (!vfirst) out += ",";
        vfirst = false;
        out += v;
      }
      out += "}";
    }
  }
  out += ")";
  return out;
}

StatePredicate StatePredicate::Eq(const std::string& dim,
                                  const std::string& value) {
  StatePredicate p;
  p.constraints[dim] = {value};
  return p;
}

StatePredicate& StatePredicate::And(const std::string& dim,
                                    const std::string& value) {
  constraints[dim] = {value};
  return *this;
}

StatePredicate& StatePredicate::AndIn(const std::string& dim,
                                      std::set<std::string> values) {
  constraints[dim] = std::move(values);
  return *this;
}

std::string PolicyRule::ToString() const {
  return name + ": " + when.ToString() + " -> device " +
         std::to_string(device) + " posture " + posture.profile +
         " [prio " + std::to_string(priority) + "]";
}

void FsmPolicy::Add(PolicyRule rule) {
  rules_of_[rule.device].push_back(rules_.size());
  rules_.push_back(std::move(rule));
}

const std::vector<std::size_t>* FsmPolicy::RulesOf(DeviceId device) const {
  const auto it = rules_of_.find(device);
  return it == rules_of_.end() ? nullptr : &it->second;
}

const Posture& FsmPolicy::Evaluate(const StateSpace& space,
                                   const SystemState& state,
                                   DeviceId device) const {
  const auto winner = WinningRule(space, state, device);
  return winner ? rules_[*winner].posture : default_posture_;
}

std::optional<std::size_t> FsmPolicy::WinningRule(const StateSpace& space,
                                                  const SystemState& state,
                                                  DeviceId device) const {
  const auto* indices = RulesOf(device);
  if (indices == nullptr) return std::nullopt;
  // The device's rules in list order, so ties keep the first match.
  std::optional<std::size_t> best;
  for (const std::size_t i : *indices) {
    const auto& rule = rules_[i];
    if (!rule.when.Matches(space, state)) continue;
    if (!best || rule.priority > rules_[*best].priority) best = i;
  }
  return best;
}

std::map<DeviceId, Posture> FsmPolicy::EvaluateAll(
    const StateSpace& space, const SystemState& state,
    const std::vector<DeviceId>& devices) const {
  std::map<DeviceId, Posture> out;
  for (DeviceId d : devices) out[d] = Evaluate(space, state, d);
  return out;
}

std::set<std::string> FsmPolicy::RelevantDims(DeviceId device) const {
  std::set<std::string> dims;
  const auto* indices = RulesOf(device);
  if (indices == nullptr) return dims;
  for (const std::size_t i : *indices) {
    for (const auto& [dim, _] : rules_[i].when.constraints) dims.insert(dim);
  }
  return dims;
}

std::set<std::string> FsmPolicy::ReadDims() const {
  std::set<std::string> dims;
  for (const auto& rule : rules_) {
    for (const auto& [dim, _] : rule.when.constraints) dims.insert(dim);
  }
  return dims;
}

}  // namespace iotsec::policy
