#include "verify/model_check.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>

namespace iotsec::verify {

// ============================================================ Explorer

std::string TraceStep::ToString() const {
  std::string out;
  if (kind == Kind::kContext) {
    out = "set " + dim + " = " + to + " (was " + from + ")";
  } else {
    out = "exploit '" + exploit + "'";
    if (!device.empty()) out += " on " + device;
  }
  if (!note.empty()) out += " [" + note + "]";
  return out;
}

std::string Counterexample::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i) out += "  ";
    out += std::to_string(i + 1) + ") " + steps[i].ToString();
  }
  return out;
}

namespace {

/// "rule 'window-guard'" or "default".
std::string RuleDesc(const policy::FsmPolicy& policy,
                     std::optional<std::size_t> idx) {
  if (!idx) return "default";
  return "rule '" + policy.rules()[*idx].name + "'";
}

struct Explorer {
  const ModelCheckInput& in;
  GuardEvaluator& guards;
  /// Minimum strength that counts as a guard this pass: kBlocking for
  /// the strict pass, kScanOnly for the lenient pass.
  GuardStrength floor;

  struct Node {
    policy::SystemState state;
    std::set<std::string> facts;
    int parent = -1;
    TraceStep step;
    std::size_t depth = 0;
  };

  std::vector<Node> nodes{};
  std::size_t transitions = 0;
  bool exhausted = false;
  /// First node (BFS order ⇒ minimal depth) where each goal holds.
  std::map<std::string, int> goal_node{};

  std::string DeviceName(DeviceId id) const {
    const auto it = in.device_names.find(id);
    if (it != in.device_names.end()) return it->second;
    return "device#" + std::to_string(id);
  }

  bool Guarded(const policy::SystemState& state, DeviceId device,
               GuardStrength* strength_out) const {
    const policy::Posture& posture =
        in.policy->Evaluate(*in.space, state, device);
    const GuardStrength s = guards.Strength(posture);
    if (strength_out != nullptr) *strength_out = s;
    return s >= floor;
  }

  std::string EncodeKey(const Node& n) const {
    std::string key;
    key.reserve(n.state.values.size() + 16);
    for (const int v : n.state.values) {
      key += static_cast<char>('0' + v);
      key += ',';
    }
    key += '|';
    for (const auto& fact : n.facts) {
      key += fact;
      key += ';';
    }
    return key;
  }

  void Run(const std::vector<std::string>& goals) {
    const policy::StateSpace& space = *in.space;
    const policy::FsmPolicy& policy = *in.policy;

    // Free dimensions: non-context dims some rule actually reads. The
    // attacker (or plain operation) can drive device FSM states and
    // environment variables; security contexts move only through the
    // detection model (exploit hops flip them to "compromised").
    const std::set<std::string> read = policy.ReadDims();
    std::vector<std::size_t> free_dims;
    std::map<DeviceId, std::size_t> ctx_dim;
    for (std::size_t d = 0; d < space.DimensionCount(); ++d) {
      const policy::Dimension& dim = space.Dim(d);
      if (dim.kind == policy::DimensionKind::kDeviceContext) {
        if (dim.device != kInvalidDevice) ctx_dim.emplace(dim.device, d);
      } else if (read.count(dim.name)) {
        free_dims.push_back(d);
      }
    }

    std::set<std::string> pending(goals.begin(), goals.end());

    Node initial;
    initial.state = space.InitialState();
    initial.facts = in.attack_graph->initial_facts();
    nodes.push_back(std::move(initial));
    std::set<std::string> visited{EncodeKey(nodes[0])};
    for (const auto& fact : nodes[0].facts) {
      if (pending.erase(fact)) goal_node.emplace(fact, 0);
    }

    std::deque<int> queue{0};
    while (!queue.empty() && !pending.empty()) {
      const int ni = queue.front();
      queue.pop_front();
      if (nodes[ni].depth >= in.config.max_depth) {
        exhausted = true;  // unexpanded frontier: verdicts become kUnknown
        continue;
      }

      const auto enqueue = [&](Node child) -> bool {
        ++transitions;
        const std::string key = EncodeKey(child);
        if (!visited.insert(key).second) return false;
        if (nodes.size() >= in.config.max_states) {
          exhausted = true;
          return true;  // budget gone — stop generating
        }
        const int idx = static_cast<int>(nodes.size());
        for (const auto& fact : child.facts) {
          if (pending.erase(fact)) goal_node.emplace(fact, idx);
        }
        nodes.push_back(std::move(child));
        queue.push_back(idx);
        return pending.empty();
      };

      // --- Attack hops first (deterministic exploit-index order).
      for (const learn::Exploit& exploit : in.attack_graph->exploits()) {
        const Node& n = nodes[ni];  // re-fetch: enqueue may reallocate
        bool ready = true;
        for (const auto& pre : exploit.preconditions) {
          if (!n.facts.count(pre)) {
            ready = false;
            break;
          }
        }
        if (!ready) continue;

        const auto cd = exploit.device == kInvalidDevice
                            ? ctx_dim.end()
                            : ctx_dim.find(exploit.device);
        int compromised = -1;
        if (cd != ctx_dim.end()) {
          if (const auto idx =
                  space.Dim(cd->second).IndexOf("compromised")) {
            compromised = *idx;
          }
        }
        bool progress = false;
        for (const auto& post : exploit.postconditions) {
          if (!n.facts.count(post)) {
            progress = true;
            break;
          }
        }
        if (!progress && compromised >= 0 &&
            n.state.values[cd->second] != compromised) {
          progress = true;  // firing still flips the ctx dimension
        }
        if (!progress) continue;

        GuardStrength strength = GuardStrength::kNone;
        if (exploit.device != kInvalidDevice &&
            Guarded(n.state, exploit.device, &strength)) {
          continue;  // this hop is cut in the current state
        }

        Node child;
        child.state = n.state;
        child.facts = n.facts;
        child.parent = ni;
        child.depth = n.depth + 1;
        child.facts.insert(exploit.postconditions.begin(),
                           exploit.postconditions.end());
        child.step.kind = TraceStep::Kind::kAttack;
        child.step.exploit = exploit.name;
        if (exploit.device != kInvalidDevice) {
          child.step.device = DeviceName(exploit.device);
          std::string note =
              RuleDesc(policy,
                       policy.WinningRule(space, n.state, exploit.device)) +
              " -> posture '" +
              in.policy->Evaluate(space, n.state, exploit.device).profile +
              "' (guard " + GuardStrengthName(strength) + ")";
          if (compromised >= 0 &&
              n.state.values[cd->second] != compromised) {
            child.state.values[cd->second] = compromised;
            note += ", " + space.Dim(cd->second).name + " -> compromised";
          }
          child.step.note = std::move(note);
        }
        if (enqueue(std::move(child))) return;
      }
      if (nodes.size() >= in.config.max_states) break;

      // --- Free context/environment transitions (dim order, ascending
      // value, skipping the current one).
      for (const std::size_t d : free_dims) {
        const policy::Dimension& dim = space.Dim(d);
        for (int v = 0; v < static_cast<int>(dim.values.size()); ++v) {
          const Node& n = nodes[ni];
          if (n.state.values[d] == v) continue;
          Node child;
          child.state = n.state;
          child.state.values[d] = v;
          child.facts = n.facts;
          child.parent = ni;
          child.depth = n.depth + 1;
          child.step.kind = TraceStep::Kind::kContext;
          child.step.dim = dim.name;
          child.step.from = dim.values[static_cast<std::size_t>(
              n.state.values[d])];
          child.step.to = dim.values[static_cast<std::size_t>(v)];
          // Note which devices' decisions the transition moved.
          std::string note;
          for (const DeviceId dev : in.devices) {
            const auto before = policy.WinningRule(space, n.state, dev);
            const auto after =
                policy.WinningRule(space, child.state, dev);
            const auto& pb = policy.Evaluate(space, n.state, dev);
            const auto& pa = policy.Evaluate(space, child.state, dev);
            if (before == after && pb.profile == pa.profile) continue;
            if (!note.empty()) note += ", ";
            note += DeviceName(dev) + ": " + RuleDesc(policy, before) +
                    " -> " + RuleDesc(policy, after) + ", posture '" +
                    pb.profile + "' -> '" + pa.profile + "'";
          }
          child.step.note = std::move(note);
          if (enqueue(std::move(child))) return;
        }
        if (nodes.size() >= in.config.max_states) break;
      }
      if (nodes.size() >= in.config.max_states) break;
    }
  }

  Counterexample TraceTo(int node) const {
    Counterexample trace;
    for (int i = node; i > 0; i = nodes[static_cast<std::size_t>(i)].parent) {
      trace.steps.push_back(nodes[static_cast<std::size_t>(i)].step);
    }
    std::reverse(trace.steps.begin(), trace.steps.end());
    return trace;
  }
};

}  // namespace

ModelCheckResult ModelCheck(const ModelCheckInput& in) {
  ModelCheckResult result;
  if (in.space == nullptr || in.policy == nullptr ||
      in.attack_graph == nullptr) {
    return result;
  }
  const std::vector<std::string> goals =
      in.goals.empty() ? in.attack_graph->ReachableGoals() : in.goals;
  if (goals.empty()) return result;

  GuardEvaluator guards(in.element_ctx, in.extra_rule_texts);

  // Strict pass: only blocking enforcement counts. Goals it cannot reach
  // are proven cut outright — the lenient pass (strictly fewer attacker
  // options) cannot reach them either.
  Explorer strict{in, guards, GuardStrength::kBlocking};
  strict.Run(goals);
  result.states_explored += strict.nodes.size();
  result.transitions += strict.transitions;
  result.exhausted |= strict.exhausted;

  std::vector<std::string> open;
  for (const auto& goal : goals) {
    if (strict.goal_node.count(goal)) open.push_back(goal);
  }

  Explorer lenient{in, guards, GuardStrength::kScanOnly};
  if (!open.empty()) {
    lenient.Run(open);
    result.states_explored += lenient.nodes.size();
    result.transitions += lenient.transitions;
    result.exhausted |= lenient.exhausted;
  }

  // Evaporation check uses the lenient notion of "guarded at all".
  const policy::SystemState initial = in.space->InitialState();

  for (const auto& goal : goals) {
    GoalVerdict verdict;
    verdict.goal = goal;
    const auto sit = strict.goal_node.find(goal);
    if (sit == strict.goal_node.end()) {
      verdict.cls = strict.exhausted ? GoalVerdict::Class::kUnknown
                                     : GoalVerdict::Class::kBlocked;
    } else {
      const auto lit = lenient.goal_node.find(goal);
      if (lit != lenient.goal_node.end()) {
        verdict.cls = GoalVerdict::Class::kUnguarded;
        verdict.trace = lenient.TraceTo(lit->second);
        // Did any fired hop's device start out guarded? Then the path
        // exists only because a context transition dissolved the guard.
        for (const auto& step : verdict.trace.steps) {
          if (step.kind != TraceStep::Kind::kAttack || step.device.empty()) {
            continue;
          }
          for (const DeviceId dev : in.devices) {
            if (lenient.DeviceName(dev) != step.device) continue;
            const auto& posture =
                in.policy->Evaluate(*in.space, initial, dev);
            if (guards.Strength(posture) >= GuardStrength::kScanOnly) {
              verdict.guard_evaporated = true;
            }
            break;
          }
        }
      } else if (lenient.exhausted) {
        verdict.cls = GoalVerdict::Class::kUnknown;
      } else {
        verdict.cls = GoalVerdict::Class::kAlertOnly;
        verdict.trace = strict.TraceTo(sit->second);
      }
    }
    result.verdicts.push_back(std::move(verdict));
  }
  return result;
}

// ========================================================== Findings

void ReportModelCheck(const ModelCheckResult& result,
                      const std::string& origin, Report& report) {
  for (const auto& v : result.verdicts) {
    const std::string steps =
        std::to_string(v.trace.steps.size()) + " step(s)";
    switch (v.cls) {
      case GoalVerdict::Class::kUnguarded:
        if (v.trace.empty()) {
          report.Add("M001", Severity::kError, origin,
                     "goal '" + v.goal +
                         "' already holds in the initial state — nothing "
                         "to guard");
        } else if (v.guard_evaporated) {
          report.Add("M002", Severity::kError, origin,
                     "attack path reaches '" + v.goal +
                         "' after its guard evaporates (" + steps +
                         "): " + v.trace.ToString());
        } else {
          report.Add("M001", Severity::kError, origin,
                     "unguarded attack path reaches '" + v.goal + "' in " +
                         steps + ": " + v.trace.ToString());
        }
        break;
      case GoalVerdict::Class::kAlertOnly:
        report.Add("M003", Severity::kWarn, origin,
                   "goal '" + v.goal +
                       "' is cut only by alert-only scanning — blocking "
                       "guards alone miss this path (" +
                       steps + "): " + v.trace.ToString());
        break;
      case GoalVerdict::Class::kBlocked:
        report.Add("M004", Severity::kInfo, origin,
                   "goal '" + v.goal +
                       "' proven cut by blocking enforcement (" +
                       std::to_string(result.states_explored) + " states, " +
                       std::to_string(result.transitions) +
                       " transitions explored)");
        break;
      case GoalVerdict::Class::kUnknown:
        report.Add("M004", Severity::kWarn, origin,
                   "exploration budget exhausted before a verdict on '" +
                       v.goal + "' (" +
                       std::to_string(result.states_explored) +
                       " states explored) — raise max_states/max_depth");
        break;
    }
  }
}

ModelCheckResult RunModelCheck(const ModelCheckInput& in,
                               const std::string& origin, Report& report) {
  ModelCheckResult result = ModelCheck(in);
  ReportModelCheck(result, origin, report);
  return result;
}

}  // namespace iotsec::verify
