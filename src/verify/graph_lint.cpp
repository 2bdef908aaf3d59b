#include "verify/graph_lint.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/strings.h"
#include "dataplane/graph.h"
#include "verify/rules_lint.h"

namespace iotsec::verify {
namespace {

using dataplane::Element;
using dataplane::ElementRole;
using dataplane::ElementTypeInfo;
using dataplane::FindElementType;
using dataplane::kVariadicOutPorts;
using dataplane::MboxGraph;

/// One element declaration as written in the config text, with enough
/// position info to anchor findings. The built graph has the semantics;
/// this has the syntax.
struct Decl {
  std::string name;
  std::string type;
  std::string raw_line;  // for locating config keys
  int line = 0;
  int col = 0;  // of the element name
  dataplane::ConfigMap config;
};

/// 1-based column of `needle` in `line` (first occurrence at or after
/// `from`), or fallback when absent.
int ColumnOf(const std::string& line, std::string_view needle,
             std::size_t from, int fallback) {
  const auto pos = line.find(needle, from);
  return pos == std::string::npos ? fallback : static_cast<int>(pos) + 1;
}

/// Scans declarations out of the config text. Build already validated the
/// syntax, so this stays permissive: lines it cannot parse are skipped.
std::map<std::string, Decl> ScanDecls(std::string_view config_text) {
  std::map<std::string, Decl> decls;
  int next_line = 1;
  for (const auto& raw : dataplane::SplitConfigStatements(config_text)) {
    const int line_no = next_line;
    next_line +=
        1 + static_cast<int>(std::count(raw.begin(), raw.end(), '\n'));
    const std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const auto sep = line.find("::");
    if (sep == std::string_view::npos) continue;

    Decl decl;
    decl.name = std::string(Trim(line.substr(0, sep)));
    decl.raw_line = raw;
    decl.line = line_no;
    decl.col = ColumnOf(raw, decl.name, 0, 1);

    std::string_view rest = Trim(line.substr(sep + 2));
    const auto paren = rest.find('(');
    if (paren == std::string_view::npos) {
      decl.type = std::string(Trim(rest));
    } else {
      decl.type = std::string(Trim(rest.substr(0, paren)));
      const auto close = rest.rfind(')');
      if (close != std::string_view::npos && close > paren) {
        std::string error;
        if (auto cfg = dataplane::ParseConfigArgs(
                rest.substr(paren + 1, close - paren - 1), &error)) {
          decl.config = std::move(*cfg);
        }
      }
    }
    decls[decl.name] = std::move(decl);
  }
  return decls;
}

ElementRole RoleOf(const Element& e) {
  const auto* info = FindElementType(e.type());
  return info ? info->role : ElementRole::kPlumbing;
}

bool IsSecurity(const Element& e) {
  return RoleOf(e) != ElementRole::kPlumbing;
}

/// Output-port arity of one built element, resolving Tee's `ports`.
int ArityOf(const Element& e, const std::map<std::string, Decl>& decls) {
  const auto* info = FindElementType(e.type());
  if (!info) return 1;
  if (info->out_ports != kVariadicOutPorts) return info->out_ports;
  int arity = 2;  // Tee's default
  if (const auto it = decls.find(e.name()); it != decls.end()) {
    if (const auto cfg = it->second.config.find("ports");
        cfg != it->second.config.end()) {
      std::uint64_t v = 0;
      if (ParseUint(cfg->second, v) && v >= 1) arity = static_cast<int>(v);
    }
  }
  return arity;
}

/// BFS from `start` (inclusive): true if any security element is reached.
bool ReachesSecurity(const Element* start) {
  std::set<const Element*> seen;
  std::deque<const Element*> queue{start};
  while (!queue.empty()) {
    const Element* e = queue.front();
    queue.pop_front();
    if (!seen.insert(e).second) continue;
    if (IsSecurity(*e)) return true;
    for (const auto& wire : e->wires()) {
      if (wire.next) queue.push_back(wire.next);
    }
  }
  return false;
}

/// Position of an element's declaration (0:0 when the scan missed it).
std::pair<int, int> PosOf(const Element& e,
                          const std::map<std::string, Decl>& decls) {
  const auto it = decls.find(e.name());
  return it == decls.end() ? std::pair<int, int>{0, 0}
                           : std::pair<int, int>{it->second.line,
                                                 it->second.col};
}

void CheckConfigKeys(const std::map<std::string, Decl>& decls,
                     const std::string& origin, Report& report) {
  for (const auto& [name, decl] : decls) {
    const auto* info = FindElementType(decl.type);
    if (!info) continue;  // Build would have failed; unreachable here
    for (const auto& [key, value] : decl.config) {
      (void)value;
      bool known = false;
      for (const auto& k : info->config_keys) {
        if (k == key) {
          known = true;
          break;
        }
      }
      if (known) continue;
      report.Add("G002", Severity::kWarn, origin,
                 "unknown config key '" + key + "' for element type " +
                     decl.type + " (silently ignored at build time)",
                 decl.line, ColumnOf(decl.raw_line, key, 0, decl.col));
    }
  }
}

void CheckTopology(const MboxGraph& graph,
                   const std::map<std::string, Decl>& decls,
                   const std::string& origin, Report& report) {
  const auto& elements = graph.elements();

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
    const auto [line, col] = PosOf(*e, decls);
    report.Add("G003", Severity::kWarn, origin,
               "element '" + e->name() + "' (" + e->type() +
                   ") is unreachable from the entry point",
               line, col);
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
        const auto [line, col] = PosOf(*e, decls);
        report.Add("G004", Severity::kError, origin,
                   "wiring cycle: '" + e->name() + "' -> '" + to->name() +
                       "' closes a loop (packets circulate forever)",
                   line, col);
      } else if (color[to] == 0) {
        color[to] = 1;
        stack.emplace_back(to, 0);
      }
    }
  }

  // Port arity and dangling-port analysis.
  for (const auto& e : elements) {
    const int arity = ArityOf(*e, decls);
    const auto& wires = e->wires();
    const auto [line, col] = PosOf(*e, decls);

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
    // to security elements — packets taking the dangling port egress the
    // µmbox without ever meeting the enforcement chain.
    if (!reachable.count(e.get())) continue;
    bool connected_hits_security = false;
    for (std::size_t p = 0; p < wires.size(); ++p) {
      if (static_cast<int>(p) >= arity) continue;
      if (wires[p].next && ReachesSecurity(wires[p].next)) {
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

void LintInlineRules(const std::map<std::string, Decl>& decls,
                     const std::string& origin, Report& report) {
  for (const auto& [name, decl] : decls) {
    if (decl.type != "SignatureMatcher") continue;
    const auto it = decl.config.find("rules");
    if (it == decl.config.end() || it->second == "builtin") continue;
    LintRulesText(it->second, origin + " / element '" + name + "' rules",
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
  const auto decls = ScanDecls(config_text);
  CheckConfigKeys(decls, origin, report);
  CheckTopology(*graph, decls, origin, report);
  LintInlineRules(decls, origin, report);
  return true;
}

bool GraphEnforces(std::string_view config_text,
                   const dataplane::ElementContext& ctx) {
  if (Trim(config_text).empty()) return false;
  dataplane::GraphDiag diag;
  const auto graph = MboxGraph::Build(config_text, ctx, &diag);
  if (!graph) return false;
  return ReachesSecurity(graph->entry());
}

bool PostureCache::Enforces(const policy::Posture& posture) {
  if (!posture.tunnel || Trim(posture.umbox_config).empty()) return false;
  const auto [it, inserted] = enforces_.try_emplace(posture.umbox_config,
                                                    false);
  if (inserted) it->second = GraphEnforces(posture.umbox_config, ctx_);
  return it->second;
}

}  // namespace iotsec::verify
