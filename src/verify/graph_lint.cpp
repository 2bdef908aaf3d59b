#include "verify/graph_lint.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/strings.h"
#include "dataplane/elements.h"
#include "dataplane/graph.h"
#include "sig/ruleset.h"
#include "verify/rules_lint.h"

namespace iotsec::verify {
namespace {

using dataplane::Element;
using dataplane::ElementRole;
using dataplane::ElementTypeInfo;
using dataplane::FindElementType;
using dataplane::kVariadicOutPorts;
using dataplane::MboxGraph;

/// Each built element's declaration, for positions and written config.
using DeclOf = std::map<const Element*, const dataplane::Declaration*>;

DeclOf DeclarationsOf(const MboxGraph& graph) {
  DeclOf decls;
  for (std::size_t i = 0; i < graph.elements().size(); ++i) {
    decls[graph.elements()[i].get()] = &graph.declarations()[i];
  }
  return decls;
}

/// What one built element contributes: a SignatureMatcher is as strong as
/// its loaded ruleset (block-action rule → blocking, alert-only →
/// scan-only, none → nothing); any other element by its type's role.
GuardStrength ElementStrength(const Element& e) {
  if (const auto* matcher =
          dynamic_cast<const dataplane::SignatureMatcher*>(&e)) {
    const auto& rules = matcher->rules().rules();
    if (rules.empty()) return GuardStrength::kNone;
    return sig::RuleSet::AnyBlocking(rules) ? GuardStrength::kBlocking
                                            : GuardStrength::kScanOnly;
  }
  const auto* info = FindElementType(e.type());
  if (info == nullptr) return GuardStrength::kNone;
  switch (info->role) {
    case ElementRole::kBlocking: return GuardStrength::kBlocking;
    case ElementRole::kScanning: return GuardStrength::kScanOnly;
    case ElementRole::kPlumbing: break;
  }
  return GuardStrength::kNone;
}

/// Output-port arity of one built element, resolving Tee's `ports`.
int ArityOf(const Element& e, const dataplane::Declaration& decl) {
  const auto* info = FindElementType(e.type());
  if (!info) return 1;
  if (info->out_ports != kVariadicOutPorts) return info->out_ports;
  int arity = 2;  // Tee's default
  if (const auto cfg = decl.config.find("ports"); cfg != decl.config.end()) {
    std::uint64_t v = 0;
    if (ParseUint(cfg->second, v) && v >= 1) arity = static_cast<int>(v);
  }
  return arity;
}

/// BFS from `start` (inclusive): the strongest element a packet entering
/// there can meet.
GuardStrength ReachableStrength(const Element* start) {
  GuardStrength strength = GuardStrength::kNone;
  std::set<const Element*> seen{start};
  std::deque<const Element*> queue{start};
  while (!queue.empty() && strength < GuardStrength::kBlocking) {
    const Element* e = queue.front();
    queue.pop_front();
    strength = std::max(strength, ElementStrength(*e));
    for (const auto& wire : e->wires()) {
      if (wire.next && seen.insert(wire.next).second) {
        queue.push_back(wire.next);
      }
    }
  }
  return strength;
}

/// 1-based line:col of `key`'s first occurrence in its declaration
/// statement (the name's when absent). The statement starts on the
/// name's line; a quoted value's newlines move later keys down.
std::pair<int, int> KeyPosition(const MboxGraph& graph,
                                const dataplane::Declaration& decl,
                                std::string_view key) {
  const auto statement = graph.StatementOf(decl);
  const auto pos = statement.find(key);
  if (pos == std::string_view::npos) return {decl.line, decl.col};
  const auto before = statement.substr(0, pos);
  const auto nl = before.rfind('\n');
  return {decl.line + static_cast<int>(
                          std::count(before.begin(), before.end(), '\n')),
          static_cast<int>(nl == std::string_view::npos ? pos : pos - nl - 1) +
              1};
}

void CheckConfigKeys(const MboxGraph& graph, const std::string& origin,
                     Report& report) {
  for (std::size_t i = 0; i < graph.elements().size(); ++i) {
    const Element& e = *graph.elements()[i];
    const dataplane::Declaration& decl = graph.declarations()[i];
    const auto* info = FindElementType(e.type());
    if (!info) continue;  // Build would have failed; unreachable here
    for (const auto& [key, value] : decl.config) {
      (void)value;
      if (std::find(info->config_keys.begin(), info->config_keys.end(),
                    key) != info->config_keys.end()) {
        continue;
      }
      const auto [line, col] = KeyPosition(graph, decl, key);
      report.Add("G002", Severity::kWarn, origin,
                 "unknown config key '" + key + "' for element type " +
                     e.type() + " (silently ignored at build time)",
                 line, col);
    }
  }
}

void CheckTopology(const MboxGraph& graph, const std::string& origin,
                   Report& report) {
  const auto& elements = graph.elements();
  const DeclOf decls = DeclarationsOf(graph);

  // Reachability from the entry.
  std::set<const Element*> reachable;
  std::deque<const Element*> queue{graph.entry()};
  while (!queue.empty()) {
    const Element* e = queue.front();
    queue.pop_front();
    if (!reachable.insert(e).second) continue;
    for (const auto& wire : e->wires()) {
      if (wire.next) queue.push_back(wire.next);
    }
  }
  for (const auto& e : elements) {
    if (reachable.count(e.get())) continue;
    const auto* decl = decls.at(e.get());
    report.Add("G003", Severity::kWarn, origin,
               "element '" + e->name() + "' (" + e->type() +
                   ") is unreachable from the entry point",
               decl->line, decl->col);
  }

  // Cycle detection: iterative DFS, white/grey/black coloring. A wire
  // into a grey element closes a cycle.
  std::map<const Element*, int> color;  // 0 white, 1 grey, 2 black
  for (const auto& root : elements) {
    if (color[root.get()] != 0) continue;
    // Stack entries: (element, next wire index to explore).
    std::vector<std::pair<const Element*, std::size_t>> stack;
    stack.emplace_back(root.get(), 0);
    color[root.get()] = 1;
    while (!stack.empty()) {
      const Element* e = stack.back().first;
      const auto& wires = e->wires();
      if (stack.back().second >= wires.size()) {
        color[e] = 2;
        stack.pop_back();
        continue;
      }
      const Element* to = wires[stack.back().second].next;
      ++stack.back().second;
      if (!to) continue;
      if (color[to] == 1) {
        const auto* decl = decls.at(e);
        report.Add("G004", Severity::kError, origin,
                   "wiring cycle: '" + e->name() + "' -> '" + to->name() +
                       "' closes a loop (packets circulate forever)",
                   decl->line, decl->col);
      } else if (color[to] == 0) {
        color[to] = 1;
        stack.emplace_back(to, 0);
      }
    }
  }

  // Port arity and dangling-port analysis.
  for (const auto& e : elements) {
    const auto& decl = *decls.at(e.get());
    const int arity = ArityOf(*e, decl);
    const auto& wires = e->wires();
    const int line = decl.line;
    const int col = decl.col;

    for (std::size_t p = 0; p < wires.size(); ++p) {
      if (!wires[p].next) continue;
      if (static_cast<int>(p) >= arity) {
        report.Add(
            "G005", Severity::kError, origin,
            "'" + e->name() + "' (" + e->type() + ") wires output port " +
                std::to_string(p) + " but the type only emits on ports 0.." +
                std::to_string(arity - 1) +
                " (downstream of this wire is dead)",
            line, col);
      }
    }

    // G006: a dangling output port on an element whose *other* ports lead
    // to a guard — packets taking the dangling port egress the µmbox
    // without ever meeting the enforcement chain.
    if (!reachable.count(e.get())) continue;
    bool connected_hits_security = false;
    for (std::size_t p = 0; p < wires.size(); ++p) {
      if (static_cast<int>(p) >= arity) continue;
      if (wires[p].next &&
          ReachableStrength(wires[p].next) > GuardStrength::kNone) {
        connected_hits_security = true;
        break;
      }
    }
    if (!connected_hits_security) continue;
    for (int p = 0; p < arity; ++p) {
      const bool wired =
          static_cast<std::size_t>(p) < wires.size() &&
          wires[static_cast<std::size_t>(p)].next != nullptr;
      if (wired) continue;
      report.Add("G006", Severity::kError, origin,
                 "output port " + std::to_string(p) + " of '" + e->name() +
                     "' (" + e->type() +
                     ") is unconnected: packets on it egress the µmbox, "
                     "bypassing the security elements on its other ports",
                 line, col);
    }
  }
}

void LintInlineRules(const MboxGraph& graph, const std::string& origin,
                     Report& report) {
  for (std::size_t i = 0; i < graph.elements().size(); ++i) {
    const Element& e = *graph.elements()[i];
    const auto& config = graph.declarations()[i].config;
    if (e.type() != "SignatureMatcher") continue;
    const auto it = config.find("rules");
    if (it == config.end() || it->second == "builtin") continue;
    LintRulesText(it->second, origin + " / element '" + e.name() + "' rules",
                  report);
  }
}

}  // namespace

bool LintGraphConfig(std::string_view config_text,
                     const dataplane::ElementContext& ctx,
                     const std::string& origin, Report& report) {
  dataplane::GraphDiag diag;
  const auto graph = MboxGraph::Build(config_text, ctx, &diag);
  if (!graph) {
    report.Add("G001", Severity::kError, origin, diag.message, diag.line,
               diag.col);
    return false;
  }
  CheckConfigKeys(*graph, origin, report);
  CheckTopology(*graph, origin, report);
  LintInlineRules(*graph, origin, report);
  return true;
}

GuardEvaluator::GuardEvaluator(const dataplane::ElementContext& ctx,
                               std::vector<std::string> extra_rule_texts)
    : ctx_(ctx), extra_rule_texts_(std::move(extra_rule_texts)) {}

GuardStrength GuardEvaluator::Strength(const policy::Posture& posture) {
  // No diversion → nothing in the path.
  if (!posture.tunnel || posture.umbox_config.empty()) {
    return GuardStrength::kNone;
  }
  const auto [it, inserted] =
      memo_.try_emplace(posture.umbox_config, GuardStrength::kNone);
  if (inserted) {
    std::string error;
    const auto graph = MboxGraph::Build(
        dataplane::SpliceCrowdMatcher(posture.umbox_config,
                                      extra_rule_texts_),
        ctx_, &error);
    // A config that does not build launches nothing (G001's problem).
    if (graph != nullptr) it->second = ReachableStrength(graph->entry());
  }
  return it->second;
}

}  // namespace iotsec::verify
