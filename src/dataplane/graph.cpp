#include "dataplane/graph.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace iotsec::dataplane {
namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Splits config text into its newline-separated statements. A newline
/// inside a double-quoted value belongs to the value (one rule per line
/// in a SignatureMatcher's rules); quotes in '#' comment lines are text.
std::vector<std::string_view> SplitStatements(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  bool quoted = false;
  bool comment = false;
  bool blank = true;  // nothing but whitespace yet in this statement
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n' && !quoted) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
      comment = false;
      blank = true;
      continue;
    }
    if (blank && !IsAsciiSpace(c)) {
      blank = false;
      comment = c == '#';
    }
    if (c == '"' && !comment) quoted = !quoted;
  }
  out.push_back(text.substr(start));
  return out;
}

struct ChainHop {
  int in_port = 0;
  std::string_view name;
  int out_port = 0;
};

/// Highest port number a wiring chain may name; the bound keeps a hostile
/// number from sizing an element's wire table.
constexpr std::uint64_t kMaxPort = 255;

bool ParsePort(std::string_view digits, int& port) {
  std::uint64_t p = 0;
  if (!ParseUint(Trim(digits), p) || p > kMaxPort) return false;
  port = static_cast<int>(p);
  return true;
}

/// Parses one hop of a wiring chain: "[2] name [1]" (both ports optional).
/// On failure *bad_token points at the offending text.
bool ParseHop(std::string_view text, ChainHop& hop, std::string* error,
              std::string_view* bad_token) {
  auto s = Trim(text);
  if (!s.empty() && s.front() == '[') {
    const auto close = s.find(']');
    if (close == std::string_view::npos) {
      *error = "unterminated [port]";
      *bad_token = s;
      return false;
    }
    if (!ParsePort(s.substr(1, close - 1), hop.in_port)) {
      *error = "bad input port";
      *bad_token = s.substr(0, close + 1);
      return false;
    }
    s = Trim(s.substr(close + 1));
  }
  if (!s.empty() && s.back() == ']') {
    const auto open = s.rfind('[');
    if (open == std::string_view::npos) {
      *error = "unterminated [port]";
      *bad_token = s;
      return false;
    }
    if (!ParsePort(s.substr(open + 1, s.size() - open - 2), hop.out_port)) {
      *error = "bad output port";
      *bad_token = s.substr(open);
      return false;
    }
    s = Trim(s.substr(0, open));
  }
  if (s.empty()) {
    *error = "missing element name in chain";
    *bad_token = text;
    return false;
  }
  hop.name = s;
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

/// `message` anchored at `token`, which views into the statement `raw`
/// that starts on line `line_no` (every subview here comes from
/// Trim/substr chains over the statement, so pointer arithmetic is
/// exact). A quoted value's newlines move later tokens to later lines.
GraphDiag DiagAt(std::string message, std::string_view raw, int line_no,
                 std::string_view token) {
  std::size_t off = 0;
  if (token.data() >= raw.data() && token.data() <= raw.data() + raw.size()) {
    off = static_cast<std::size_t>(token.data() - raw.data());
  }
  const auto before = raw.substr(0, off);
  const auto nl = before.rfind('\n');
  return {std::move(message),
          line_no + static_cast<int>(
                        std::count(before.begin(), before.end(), '\n')),
          static_cast<int>(nl == std::string_view::npos ? off : off - nl - 1) +
              1};
}

/// One declaration as parsed, before its element exists.
struct DeclSyntax {
  std::string_view name;
  std::string_view type;
  GraphDiag type_at;  // where element errors point
  Declaration decl;
};

/// A wire between two declarations (indices into GraphSyntax::decls).
struct WireSyntax {
  std::size_t from = 0;
  int out_port = 0;
  std::size_t to = 0;
  int in_port = 0;
};

/// The front end's output. `error` holds the first syntax error; the
/// declarations before it are kept, so Build reports an element error
/// that comes earlier in the text first, as a one-pass build would.
struct GraphSyntax {
  std::vector<DeclSyntax> decls;
  std::vector<WireSyntax> wires;
  std::size_t entry = 0;  // index into decls
  std::optional<GraphDiag> error;
};

/// The Click-lite parser. Views and offsets in the result point into
/// `text`.
GraphSyntax Parse(std::string_view text) {
  GraphSyntax out;
  std::map<std::string_view, std::size_t> index;
  std::string_view entry_name;
  GraphDiag entry_error;

  int next_line = 1;
  for (const std::string_view raw : SplitStatements(text)) {
    const int line_no = next_line;
    next_line +=
        1 + static_cast<int>(std::count(raw.begin(), raw.end(), '\n'));
    const auto fail = [&](std::string why, std::string_view token) {
      out.error = DiagAt(std::move(why), raw, line_no, token);
    };
    const auto line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;

    if (StartsWith(line, "entry ")) {
      entry_name = Trim(line.substr(6));
      entry_error =
          DiagAt("entry element not declared: " + std::string(entry_name),
                 raw, line_no, entry_name);
      continue;
    }

    const auto decl = line.find("::");
    const auto first_arrow = line.find("->");
    if (decl != std::string_view::npos &&
        (first_arrow == std::string_view::npos || decl < first_arrow)) {
      // Declaration: name :: Type(args)
      DeclSyntax d;
      d.name = Trim(line.substr(0, decl));
      const auto rhs = Trim(line.substr(decl + 2));
      d.type = rhs;
      const auto open = rhs.find('(');
      if (open != std::string_view::npos) {
        const auto close = rhs.rfind(')');
        if (close == std::string_view::npos || close < open) {
          fail("unbalanced parentheses", rhs.substr(open));
          return out;
        }
        if (const auto rest = Trim(rhs.substr(close + 1)); !rest.empty()) {
          fail("unexpected text after ')'", rest);
          return out;
        }
        d.type = Trim(rhs.substr(0, open));
        const auto args = rhs.substr(open + 1, close - open - 1);
        std::string cfg_err;
        auto parsed = ParseConfigArgs(args, &cfg_err);
        if (!parsed) {
          fail(cfg_err, args);
          return out;
        }
        d.decl.config = std::move(*parsed);
      }
      if (d.name.empty() || d.type.empty()) {
        fail("declaration needs 'name :: Type'", line);
        return out;
      }
      if (!std::all_of(d.name.begin(), d.name.end(), IsNameChar)) {
        fail("element name must be letters, digits or '_': " +
                 std::string(d.name),
             d.name);
        return out;
      }
      if (!index.emplace(d.name, out.decls.size()).second) {
        fail("duplicate element name: " + std::string(d.name), d.name);
        return out;
      }
      d.type_at = DiagAt({}, raw, line_no, d.type);
      const GraphDiag name_at = DiagAt({}, raw, line_no, d.name);
      d.decl.begin = static_cast<std::size_t>(raw.data() - text.data());
      d.decl.end = d.decl.begin + raw.size();
      d.decl.line = name_at.line;
      d.decl.col = name_at.col;
      out.decls.push_back(std::move(d));
      continue;
    }

    if (first_arrow != std::string_view::npos) {
      // Wiring chain.
      std::vector<std::size_t> ids;
      std::vector<ChainHop> hops;
      for (const auto part : SplitArrowChain(line)) {
        ChainHop hop;
        std::string hop_err;
        std::string_view bad_token;
        if (!ParseHop(part, hop, &hop_err, &bad_token)) {
          fail(hop_err, bad_token);
          return out;
        }
        const auto it = index.find(hop.name);
        if (it == index.end()) {
          fail("undeclared element: " + std::string(hop.name), hop.name);
          return out;
        }
        ids.push_back(it->second);
        hops.push_back(hop);
      }
      for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
        out.wires.push_back(
            {ids[i], hops[i].out_port, ids[i + 1], hops[i + 1].in_port});
      }
      continue;
    }

    fail("unrecognized statement: " + std::string(line), line);
    return out;
  }

  if (out.decls.empty()) {
    out.error = GraphDiag{"graph has no elements", 0, 0};
  } else if (!entry_name.empty()) {
    const auto it = index.find(entry_name);
    if (it == index.end()) {
      out.error = std::move(entry_error);
    } else {
      out.entry = it->second;
    }
  }
  return out;
}

}  // namespace

std::optional<ConfigMap> ParseConfigArgs(std::string_view args,
                                         std::string* error) {
  ConfigMap out;
  std::string key;
  std::string value;
  bool in_value = false;
  bool in_quotes = false;

  auto flush = [&]() -> bool {
    const auto k = Trim(key);
    if (k.empty() && Trim(value).empty()) {
      key.clear();
      value.clear();
      in_value = false;
      return true;
    }
    if (k.empty()) {
      if (error) *error = "empty key in config";
      return false;
    }
    out[std::string(k)] = std::string(Trim(value));
    key.clear();
    value.clear();
    in_value = false;
    return true;
  };

  for (char c : args) {
    if (in_quotes) {
      if (c == '"') {
        in_quotes = false;
      } else {
        value += c;
      }
      continue;
    }
    if (c == '"') {
      // The statement splitter toggles on every quote; one in a key
      // would put it out of step with this parse.
      if (!in_value) {
        if (error) *error = "quote in config key";
        return std::nullopt;
      }
      in_quotes = true;
    } else if (c == '=' && !in_value) {
      in_value = true;
    } else if (c == ',') {
      if (!flush()) return std::nullopt;
    } else {
      (in_value ? value : key) += c;
    }
  }
  if (in_quotes) {
    if (error) *error = "unterminated quote in config";
    return std::nullopt;
  }
  if (!flush()) return std::nullopt;
  return out;
}

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
  const auto fail = [diag](GraphDiag why) -> std::unique_ptr<MboxGraph> {
    if (diag) *diag = std::move(why);
    return nullptr;
  };
  std::unique_ptr<MboxGraph> graph(new MboxGraph());
  graph->config_text_ = std::string(config_text);
  GraphSyntax syntax = Parse(graph->config_text_);

  graph->elements_.reserve(syntax.decls.size());
  graph->declarations_.reserve(syntax.decls.size());
  for (auto& d : syntax.decls) {
    auto element = CreateElement(std::string(d.type), std::string(d.name),
                                 &d.type_at.message);
    if (!element) return fail(std::move(d.type_at));
    element->SetContext(ctx);
    if (!element->Configure(d.decl.config, &d.type_at.message)) {
      return fail(std::move(d.type_at));
    }
    graph->elements_.push_back(std::move(element));
    graph->declarations_.push_back(std::move(d.decl));
  }
  if (syntax.error) return fail(std::move(*syntax.error));

  for (const auto& w : syntax.wires) {
    graph->elements_[w.from]->ConnectOutput(
        w.out_port, graph->elements_[w.to].get(), w.in_port);
  }
  graph->entry_ = graph->elements_[syntax.entry].get();
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

std::string SpliceCrowdMatcher(std::string_view config,
                               const std::vector<std::string>& rule_texts) {
  if (rule_texts.empty() || config.empty()) return std::string(config);
  const GraphSyntax syntax = Parse(config);
  if (syntax.error) return std::string(config);
  const std::string_view entry = syntax.decls[syntax.entry].name;
  // The rule text goes inside a quoted config value, so its own quotes
  // must go; the rule parser accepts unquoted option values.
  std::string rules = Join(rule_texts, "\n");
  std::erase(rules, '"');
  const std::string crowd(kCrowdElement);
  std::string out =
      crowd + " :: SignatureMatcher(rules=\"" + rules + "\")\n";
  out += config;
  if (out.back() != '\n') out += '\n';
  out += crowd + " -> " + std::string(entry) + "\nentry " + crowd + "\n";
  return out;
}

}  // namespace iotsec::dataplane
