#include "verify/model_check.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>

#include "common/hash.h"
#include "dataplane/elements.h"
#include "dataplane/graph.h"
#include "sig/ruleset.h"

namespace iotsec::verify {

// ===================================================== GuardEvaluator

namespace {

/// What one built element contributes: a SignatureMatcher is as strong as
/// its loaded ruleset (block-action rule → blocking, alert-only →
/// scan-only, none → nothing); any other element by its type's role.
GuardStrength ElementStrength(const dataplane::Element& e) {
  if (const auto* matcher =
          dynamic_cast<const dataplane::SignatureMatcher*>(&e)) {
    const auto& rules = matcher->rules().rules();
    if (rules.empty()) return GuardStrength::kNone;
    return sig::RuleSet::AnyBlocking(rules) ? GuardStrength::kBlocking
                                            : GuardStrength::kScanOnly;
  }
  const auto* info = dataplane::FindElementType(e.type());
  if (info == nullptr) return GuardStrength::kNone;
  switch (info->role) {
    case dataplane::ElementRole::kBlocking: return GuardStrength::kBlocking;
    case dataplane::ElementRole::kScanning: return GuardStrength::kScanOnly;
    case dataplane::ElementRole::kPlumbing: break;
  }
  return GuardStrength::kNone;
}

}  // namespace

GuardEvaluator::GuardEvaluator(const dataplane::ElementContext& ctx,
                               std::vector<std::string> extra_rule_texts)
    : ctx_(ctx), extra_rule_texts_(std::move(extra_rule_texts)) {}

GuardStrength GuardEvaluator::AnalyzeConfig(const std::string& config) {
  std::string error;
  const auto graph = dataplane::MboxGraph::Build(
      dataplane::SpliceCrowdMatcher(config, extra_rule_texts_), ctx_, &error);
  if (graph == nullptr) return GuardStrength::kNone;  // G001's problem

  GuardStrength strength = GuardStrength::kNone;
  // BFS over the wiring from the entry: an element a packet can never
  // reach contributes nothing (G003 flags it separately).
  std::deque<const dataplane::Element*> queue{graph->entry()};
  std::set<const dataplane::Element*> seen{graph->entry()};
  while (!queue.empty() && strength < GuardStrength::kBlocking) {
    const dataplane::Element* e = queue.front();
    queue.pop_front();
    strength = std::max(strength, ElementStrength(*e));
    for (const auto& wire : e->wires()) {
      if (wire.next != nullptr && seen.insert(wire.next).second) {
        queue.push_back(wire.next);
      }
    }
  }
  return strength;
}

GuardStrength GuardEvaluator::Strength(const policy::Posture& posture) {
  // No diversion → nothing in the path.
  if (!posture.tunnel || posture.umbox_config.empty()) {
    return GuardStrength::kNone;
  }
  const auto [it, inserted] =
      memo_.try_emplace(posture.umbox_config, GuardStrength::kNone);
  if (inserted) it->second = AnalyzeConfig(posture.umbox_config);
  return it->second;
}

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

// ======================================================= Key & cache

namespace {

void FnvMix(std::uint64_t& h, std::string_view s) {
  // A 0xff field separator so "ab"+"c" != "a"+"bc".
  h = hash::Fnv1a("\xff", hash::Fnv1a(s, h));
}

void FnvMix(std::uint64_t& h, std::uint64_t v) { h = hash::Fnv1aU64(v, h); }

}  // namespace

std::uint64_t ModelCheckKey(const ModelCheckInput& in) {
  std::uint64_t h = hash::kFnvOffset;
  if (in.space != nullptr) {
    for (const auto& dim : in.space->Dims()) {
      FnvMix(h, dim.name);
      FnvMix(h, static_cast<std::uint64_t>(dim.kind));
      FnvMix(h, static_cast<std::uint64_t>(dim.device));
      for (const auto& v : dim.values) FnvMix(h, v);
    }
  }
  const auto mix_posture = [&h](const policy::Posture& p) {
    FnvMix(h, p.profile);
    FnvMix(h, p.umbox_config);
    FnvMix(h, static_cast<std::uint64_t>(p.tunnel));
  };
  if (in.policy != nullptr) {
    for (const auto& rule : in.policy->rules()) {
      FnvMix(h, rule.name);
      FnvMix(h, static_cast<std::uint64_t>(rule.priority));
      FnvMix(h, static_cast<std::uint64_t>(rule.device));
      for (const auto& [dim, values] : rule.when.constraints) {
        FnvMix(h, dim);
        for (const auto& v : values) FnvMix(h, v);
      }
      mix_posture(rule.posture);
    }
    mix_posture(in.policy->DefaultPosture());
  }
  if (in.attack_graph != nullptr) {
    for (const auto& fact : in.attack_graph->initial_facts()) FnvMix(h, fact);
    for (const auto& exploit : in.attack_graph->exploits()) {
      FnvMix(h, exploit.name);
      FnvMix(h, static_cast<std::uint64_t>(exploit.device));
      for (const auto& pre : exploit.preconditions) FnvMix(h, pre);
      FnvMix(h, std::uint64_t{0x5e});
      for (const auto& post : exploit.postconditions) FnvMix(h, post);
    }
  }
  for (const DeviceId d : in.devices) FnvMix(h, std::uint64_t{d});
  for (const auto& [id, name] : in.device_names) {
    FnvMix(h, std::uint64_t{id});
    FnvMix(h, name);
  }
  for (const auto& goal : in.goals) FnvMix(h, goal);
  FnvMix(h, std::uint64_t{0xa1});
  for (const auto& text : in.extra_rule_texts) FnvMix(h, text);
  FnvMix(h, static_cast<std::uint64_t>(in.config.max_states));
  FnvMix(h, static_cast<std::uint64_t>(in.config.max_depth));
  return h;
}

std::shared_ptr<const ModelCheckResult> ModelCheckCache::Lookup(
    std::uint64_t key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void ModelCheckCache::Insert(std::uint64_t key,
                             std::shared_ptr<const ModelCheckResult> result) {
  entries_[key] = std::move(result);
}

namespace {

// v2: guard strength is read from the crowd-spliced chain the controller
// launches. A v1 file holds verdicts of the older analysis and must read
// as misses.
constexpr std::string_view kCacheHeader = "iotsec-mc-cache v2";

void PutStr(std::string& out, const std::string& s) {
  out += std::to_string(s.size());
  out += ':';
  out += s;
  out += ' ';
}

void PutU64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ' ';
}

struct CacheReader {
  std::string_view text;
  std::size_t pos = 0;
  bool ok = true;

  void SkipSpace() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }
  std::uint64_t U64() {
    SkipSpace();
    std::uint64_t v = 0;
    bool any = false;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(text[pos] - '0');
      ++pos;
      any = true;
    }
    if (!any) ok = false;
    return v;
  }
  std::string Str() {
    const std::uint64_t len = U64();
    if (!ok || pos >= text.size() || text[pos] != ':' ||
        pos + 1 + len > text.size()) {
      ok = false;
      return {};
    }
    ++pos;
    std::string s(text.substr(pos, len));
    pos += len;
    return s;
  }
  bool Tag(std::string_view tag) {
    SkipSpace();
    if (text.substr(pos, tag.size()) != tag) return false;
    pos += tag.size();
    return true;
  }
};

}  // namespace

std::string ModelCheckCache::Serialize() const {
  std::string out{kCacheHeader};
  out += '\n';
  for (const auto& [key, result] : entries_) {
    out += "entry ";
    PutU64(out, key);
    PutU64(out, result->states_explored);
    PutU64(out, result->transitions);
    PutU64(out, result->exhausted ? 1 : 0);
    PutU64(out, result->verdicts.size());
    out += '\n';
    for (const auto& v : result->verdicts) {
      out += "goal ";
      PutU64(out, static_cast<std::uint64_t>(v.cls));
      PutU64(out, v.guard_evaporated ? 1 : 0);
      PutStr(out, v.goal);
      PutU64(out, v.trace.steps.size());
      out += '\n';
      for (const auto& s : v.trace.steps) {
        out += "step ";
        PutU64(out, static_cast<std::uint64_t>(s.kind));
        PutStr(out, s.dim);
        PutStr(out, s.from);
        PutStr(out, s.to);
        PutStr(out, s.exploit);
        PutStr(out, s.device);
        PutStr(out, s.note);
        out += '\n';
      }
    }
  }
  return out;
}

bool ModelCheckCache::Deserialize(const std::string& text) {
  entries_.clear();
  CacheReader r{text};
  if (!r.Tag(kCacheHeader)) return false;
  while (true) {
    r.SkipSpace();
    if (r.pos >= r.text.size()) return true;
    if (!r.Tag("entry")) break;
    const std::uint64_t key = r.U64();
    auto result = std::make_shared<ModelCheckResult>();
    result->states_explored = static_cast<std::size_t>(r.U64());
    result->transitions = static_cast<std::size_t>(r.U64());
    result->exhausted = r.U64() != 0;
    const std::uint64_t n_verdicts = r.U64();
    for (std::uint64_t i = 0; r.ok && i < n_verdicts; ++i) {
      if (!r.Tag("goal")) {
        r.ok = false;
        break;
      }
      GoalVerdict v;
      const std::uint64_t cls = r.U64();
      if (cls > static_cast<std::uint64_t>(GoalVerdict::Class::kUnknown)) {
        r.ok = false;
        break;
      }
      v.cls = static_cast<GoalVerdict::Class>(cls);
      v.guard_evaporated = r.U64() != 0;
      v.goal = r.Str();
      const std::uint64_t n_steps = r.U64();
      for (std::uint64_t j = 0; r.ok && j < n_steps; ++j) {
        if (!r.Tag("step")) {
          r.ok = false;
          break;
        }
        TraceStep s;
        const std::uint64_t kind = r.U64();
        if (kind > static_cast<std::uint64_t>(TraceStep::Kind::kAttack)) {
          r.ok = false;
          break;
        }
        s.kind = static_cast<TraceStep::Kind>(kind);
        s.dim = r.Str();
        s.from = r.Str();
        s.to = r.Str();
        s.exploit = r.Str();
        s.device = r.Str();
        s.note = r.Str();
        v.trace.steps.push_back(std::move(s));
      }
      result->verdicts.push_back(std::move(v));
    }
    if (!r.ok) break;
    entries_[key] = std::move(result);
  }
  entries_.clear();
  return false;
}

std::shared_ptr<const ModelCheckResult> CachedModelCheck(
    const ModelCheckInput& in, ModelCheckCache* cache) {
  if (cache == nullptr) {
    return std::make_shared<ModelCheckResult>(ModelCheck(in));
  }
  const std::uint64_t key = ModelCheckKey(in);
  if (auto hit = cache->Lookup(key)) return hit;
  auto result = std::make_shared<ModelCheckResult>(ModelCheck(in));
  cache->Insert(key, result);
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

std::shared_ptr<const ModelCheckResult> RunModelCheck(
    const ModelCheckInput& in, const std::string& origin, Report& report,
    ModelCheckCache* cache) {
  auto result = CachedModelCheck(in, cache);
  ReportModelCheck(*result, origin, report);
  return result;
}

}  // namespace iotsec::verify
