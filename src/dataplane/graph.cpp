#include "dataplane/graph.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace iotsec::dataplane {
namespace {

struct ChainHop {
  int in_port = 0;
  std::string name;
  int out_port = 0;
  /// Where the element name starts, as a subview of the source line.
  std::string_view name_token;
};

/// Parses one hop of a wiring chain: "[2] name [1]" (both ports optional).
/// On failure *bad_token points at the offending text.
bool ParseHop(std::string_view text, ChainHop& hop, std::string* error,
              std::string_view* bad_token) {
  auto s = Trim(text);
  if (!s.empty() && s.front() == '[') {
    const auto close = s.find(']');
    if (close == std::string_view::npos) {
      if (error) *error = "unterminated [port]";
      if (bad_token) *bad_token = s;
      return false;
    }
    std::uint64_t p = 0;
    if (!ParseUint(Trim(s.substr(1, close - 1)), p)) {
      if (error) *error = "bad input port";
      if (bad_token) *bad_token = s.substr(0, close + 1);
      return false;
    }
    hop.in_port = static_cast<int>(p);
    s = Trim(s.substr(close + 1));
  }
  if (!s.empty() && s.back() == ']') {
    const auto open = s.rfind('[');
    if (open == std::string_view::npos) {
      if (error) *error = "unterminated [port]";
      if (bad_token) *bad_token = s;
      return false;
    }
    std::uint64_t p = 0;
    if (!ParseUint(Trim(s.substr(open + 1, s.size() - open - 2)), p)) {
      if (error) *error = "bad output port";
      if (bad_token) *bad_token = s.substr(open);
      return false;
    }
    hop.out_port = static_cast<int>(p);
    s = Trim(s.substr(0, open));
  }
  if (s.empty()) {
    if (error) *error = "missing element name in chain";
    if (bad_token) *bad_token = text;
    return false;
  }
  hop.name = std::string(s);
  hop.name_token = s;
  return true;
}

std::vector<std::string_view> SplitArrowChain(std::string_view line) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (;;) {
    const auto arrow = line.find("->", start);
    if (arrow == std::string_view::npos) {
      parts.emplace_back(line.substr(start));
      break;
    }
    parts.emplace_back(line.substr(start, arrow - start));
    start = arrow + 2;
  }
  return parts;
}

/// 1-based column of `token` within `raw_line`; both must view into the
/// same underlying buffer (every subview here comes from Trim/substr
/// chains over the raw line, so pointer arithmetic is exact).
int ColumnOf(std::string_view raw_line, std::string_view token) {
  if (token.data() < raw_line.data() ||
      token.data() > raw_line.data() + raw_line.size()) {
    return 1;
  }
  return static_cast<int>(token.data() - raw_line.data()) + 1;
}

}  // namespace

std::string GraphDiag::ToString() const {
  if (line <= 0) return message;
  return "line " + std::to_string(line) + ":" + std::to_string(col) + ": " +
         message;
}

std::unique_ptr<MboxGraph> MboxGraph::Build(std::string_view config_text,
                                            const ElementContext& ctx,
                                            std::string* error) {
  GraphDiag diag;
  auto graph = Build(config_text, ctx, &diag);
  if (!graph && error) *error = diag.ToString();
  return graph;
}

std::unique_ptr<MboxGraph> MboxGraph::Build(std::string_view config_text,
                                            const ElementContext& ctx,
                                            GraphDiag* diag) {
  int line_no = 0;
  std::string_view raw_line;
  auto fail = [&](std::string why,
                  std::string_view token) -> std::unique_ptr<MboxGraph> {
    if (diag) {
      diag->message = std::move(why);
      diag->line = line_no;
      diag->col = ColumnOf(raw_line, token);
    }
    return nullptr;
  };

  std::unique_ptr<MboxGraph> graph(new MboxGraph());
  graph->config_text_ = std::string(config_text);
  std::map<std::string, Element*> by_name;
  std::string entry_name;
  int entry_line = 0;
  int entry_col = 0;

  int next_line = 1;
  for (const auto& raw : SplitConfigStatements(config_text)) {
    line_no = next_line;
    next_line +=
        1 + static_cast<int>(std::count(raw.begin(), raw.end(), '\n'));
    raw_line = raw;
    auto line = Trim(raw_line);
    if (line.empty() || line.front() == '#') continue;

    if (StartsWith(line, "entry ")) {
      const auto name_token = Trim(line.substr(6));
      entry_name = std::string(name_token);
      entry_line = line_no;
      entry_col = ColumnOf(raw_line, name_token);
      continue;
    }

    const auto decl = line.find("::");
    const auto first_arrow = line.find("->");
    if (decl != std::string_view::npos &&
        (first_arrow == std::string_view::npos || decl < first_arrow)) {
      // Declaration: name :: Type(args)
      const auto name_token = Trim(line.substr(0, decl));
      const std::string name(name_token);
      auto rhs = Trim(line.substr(decl + 2));
      std::string type;
      std::string_view type_token = rhs;
      ConfigMap config;
      const auto open = rhs.find('(');
      if (open == std::string_view::npos) {
        type = std::string(rhs);
      } else {
        const auto close = rhs.rfind(')');
        if (close == std::string_view::npos || close < open) {
          return fail("unbalanced parentheses", rhs.substr(open));
        }
        type_token = Trim(rhs.substr(0, open));
        type = std::string(type_token);
        const auto args = rhs.substr(open + 1, close - open - 1);
        std::string cfg_err;
        auto parsed = ParseConfigArgs(args, &cfg_err);
        if (!parsed) return fail(cfg_err, args);
        config = std::move(*parsed);
      }
      if (name.empty() || type.empty()) {
        return fail("declaration needs 'name :: Type'", line);
      }
      if (by_name.count(name)) {
        return fail("duplicate element name: " + name, name_token);
      }
      std::string create_err;
      auto element = CreateElement(type, name, &create_err);
      if (!element) return fail(create_err, type_token);
      element->SetContext(ctx);
      std::string cfg_err;
      if (!element->Configure(config, &cfg_err)) {
        return fail(cfg_err, type_token);
      }
      by_name[name] = element.get();
      graph->elements_.push_back(std::move(element));
      continue;
    }

    if (line.find("->") != std::string_view::npos) {
      // Wiring chain.
      const auto parts = SplitArrowChain(line);
      std::vector<ChainHop> hops;
      for (const auto part : parts) {
        ChainHop hop;
        std::string hop_err;
        std::string_view bad_token;
        if (!ParseHop(part, hop, &hop_err, &bad_token)) {
          return fail(hop_err, bad_token);
        }
        if (!by_name.count(hop.name)) {
          return fail("undeclared element: " + hop.name, hop.name_token);
        }
        hops.push_back(std::move(hop));
      }
      for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
        by_name[hops[i].name]->ConnectOutput(hops[i].out_port,
                                             by_name[hops[i + 1].name],
                                             hops[i + 1].in_port);
      }
      continue;
    }

    return fail("unrecognized statement: " + std::string(line), line);
  }

  if (graph->elements_.empty()) {
    if (diag) *diag = {"graph has no elements", 0, 0};
    return nullptr;
  }
  if (entry_name.empty()) {
    graph->entry_ = graph->elements_.front().get();
  } else {
    const auto it = by_name.find(entry_name);
    if (it == by_name.end()) {
      if (diag) {
        *diag = {"entry element not declared: " + entry_name, entry_line,
                 entry_col};
      }
      return nullptr;
    }
    graph->entry_ = it->second;
  }
  return graph;
}

void MboxGraph::Inject(net::PacketPtr pkt) {
  entry_->Accept(std::move(pkt), 0);
}

void MboxGraph::SetEgress(std::function<void(net::PacketPtr)> egress) {
  for (const auto& e : elements_) e->SetEgress(egress);
}

void MboxGraph::SetAlertSink(std::function<void(Alert)> sink) {
  for (const auto& e : elements_) e->SetAlertSink(sink);
}

Element* MboxGraph::Find(const std::string& name) const {
  for (const auto& e : elements_) {
    if (e->name() == name) return e.get();
  }
  return nullptr;
}

}  // namespace iotsec::dataplane
