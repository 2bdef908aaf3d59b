#include "sig/rule.h"

#include <cstdio>

#include "common/strings.h"
#include "proto/dns.h"
#include "proto/http.h"

namespace iotsec::sig {
namespace {

std::optional<std::string> DecodeContent(std::string_view raw) {
  // Resolves |41 42| hex escapes into raw bytes.
  std::string out;
  std::size_t i = 0;
  while (i < raw.size()) {
    if (raw[i] != '|') {
      out += raw[i++];
      continue;
    }
    const auto close = raw.find('|', i + 1);
    if (close == std::string_view::npos) return std::nullopt;
    const auto hex = raw.substr(i + 1, close - i - 1);
    int hi = -1;
    for (char c : hex) {
      if (c == ' ') continue;
      int v;
      if (c >= '0' && c <= '9') v = c - '0';
      else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
      else return std::nullopt;
      if (hi < 0) {
        hi = v;
      } else {
        out += static_cast<char>((hi << 4) | v);
        hi = -1;
      }
    }
    if (hi >= 0) return std::nullopt;  // odd number of hex digits
    i = close + 1;
  }
  return out;
}

std::string EncodeContent(const std::string& bytes) {
  // Re-encodes unprintable bytes (and '|', '"') as |hex| escapes.
  std::string out;
  for (unsigned char c : bytes) {
    if (c >= 0x20 && c < 0x7f && c != '|' && c != '"') {
      out += static_cast<char>(c);
    } else {
      char buf[6];
      std::snprintf(buf, sizeof(buf), "|%02x|", c);
      out += buf;
    }
  }
  return out;
}

std::optional<proto::IotCommand> CommandFromName(std::string_view name) {
  using proto::IotCommand;
  for (int i = 0; i <= static_cast<int>(IotCommand::kReboot); ++i) {
    const auto cmd = static_cast<IotCommand>(i);
    if (proto::CommandName(cmd) == name) return cmd;
  }
  return std::nullopt;
}

/// Splits the option block on ';' but respects quoted strings.
std::vector<std::string> SplitOptions(std::string_view body) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quotes = false;
  for (char c : body) {
    if (c == '"') in_quotes = !in_quotes;
    if (c == ';' && !in_quotes) {
      auto t = Trim(cur);
      if (!t.empty()) out.emplace_back(t);
      cur.clear();
    } else {
      cur += c;
    }
  }
  auto t = Trim(cur);
  if (!t.empty()) out.emplace_back(t);
  return out;
}

std::optional<std::string> Unquote(std::string_view s) {
  s = Trim(s);
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
    return std::string(s.substr(1, s.size() - 2));
  }
  // Lenient mode: unquoted values are accepted as long as they are a
  // single token (rules embedded in element configs lose their quotes).
  if (s.empty() || s.find('"') != std::string_view::npos) {
    return std::nullopt;
  }
  return std::string(s);
}

}  // namespace

bool Rule::HeaderMatches(const proto::ParsedFrame& frame) const {
  if (!frame.ip) return false;
  switch (proto) {
    case RuleProto::kTcp:
      if (!frame.tcp) return false;
      break;
    case RuleProto::kUdp:
      if (!frame.udp) return false;
      break;
    case RuleProto::kIp:
      break;
  }
  if (!src.Contains(frame.ip->src)) return false;
  if (!dst.Contains(frame.ip->dst)) return false;
  if (src_port && frame.SrcPort() != *src_port) return false;
  if (dst_port && frame.DstPort() != *dst_port) return false;

  if (iot_command || require_iot_backdoor || require_iot_auth_absent) {
    auto msg = proto::IotCtlMessage::Parse(frame.payload);
    if (!msg) return false;
    if (iot_command && msg->command != *iot_command) return false;
    if (require_iot_backdoor && !msg->backdoor) return false;
    if (require_iot_auth_absent &&
        (msg->AuthToken().has_value() ||
         msg->type != proto::IotMsgType::kCommand)) {
      return false;
    }
  }
  if (http_path_prefix || require_http_auth_absent) {
    const auto req = proto::HttpRequestView::Parse(frame.payload);
    if (!req) return false;
    if (http_path_prefix && !StartsWith(req->path, *http_path_prefix)) {
      return false;
    }
    if (require_http_auth_absent && req->Header("Authorization")) {
      return false;
    }
  }
  if (require_dns_qtype_any) {
    auto dns = proto::DnsMessage::Parse(frame.payload);
    if (!dns || dns->is_response) return false;
    bool any = false;
    for (const auto& q : dns->questions) {
      if (q.type == proto::DnsType::kAny) any = true;
    }
    if (!any) return false;
  }
  return true;
}

std::string Rule::ToText() const {
  std::string out;
  switch (action) {
    case RuleAction::kAlert: out += "alert "; break;
    case RuleAction::kBlock: out += "block "; break;
    case RuleAction::kPass: out += "pass "; break;
  }
  switch (proto) {
    case RuleProto::kIp: out += "ip "; break;
    case RuleProto::kTcp: out += "tcp "; break;
    case RuleProto::kUdp: out += "udp "; break;
  }
  auto prefix_str = [](const net::Ipv4Prefix& p) {
    return p == net::Ipv4Prefix::Any() ? std::string("any") : p.ToString();
  };
  out += prefix_str(src) + " ";
  out += src_port ? std::to_string(*src_port) : "any";
  out += " -> " + prefix_str(dst) + " ";
  out += dst_port ? std::to_string(*dst_port) : "any";
  out += " (";
  if (!msg.empty()) out += "msg:\"" + msg + "\"; ";
  out += "sid:" + std::to_string(sid) + "; ";
  for (const auto& c : contents) {
    out += "content:\"" + EncodeContent(c.bytes) + "\"; ";
    if (c.nocase) out += "nocase; ";
  }
  if (iot_command) {
    out += "iotcmd:" + std::string(proto::CommandName(*iot_command)) + "; ";
  }
  if (require_iot_backdoor) out += "iot_backdoor; ";
  if (require_iot_auth_absent) out += "iot_auth_absent; ";
  if (http_path_prefix) out += "http_path:\"" + *http_path_prefix + "\"; ";
  if (require_http_auth_absent) out += "http_auth_absent; ";
  if (require_dns_qtype_any) out += "dns_qtype_any; ";
  out += ")";
  return out;
}

std::optional<Rule> ParseRule(std::string_view line, std::string* error) {
  auto set_error = [&](std::string_view why) {
    if (error) *error = std::string(why);
    return std::nullopt;
  };
  if (error) error->clear();
  const auto trimmed = Trim(line);
  if (trimmed.empty() || trimmed.front() == '#') return std::nullopt;

  const auto open = trimmed.find('(');
  const auto close = trimmed.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return set_error("missing option block");
  }
  const auto head = SplitWhitespace(trimmed.substr(0, open));
  if (head.size() != 7 || head[4] != "->") {
    return set_error("header must be: action proto src sport -> dst dport");
  }

  Rule rule;
  if (head[0] == "alert") rule.action = RuleAction::kAlert;
  else if (head[0] == "block") rule.action = RuleAction::kBlock;
  else if (head[0] == "pass") rule.action = RuleAction::kPass;
  else return set_error("unknown action: " + head[0]);

  if (head[1] == "ip") rule.proto = RuleProto::kIp;
  else if (head[1] == "tcp") rule.proto = RuleProto::kTcp;
  else if (head[1] == "udp") rule.proto = RuleProto::kUdp;
  else return set_error("unknown proto: " + head[1]);

  auto parse_prefix = [&](const std::string& s, net::Ipv4Prefix& out) {
    if (s == "any") {
      out = net::Ipv4Prefix::Any();
      return true;
    }
    auto p = net::Ipv4Prefix::Parse(s);
    if (!p) return false;
    out = *p;
    return true;
  };
  auto parse_port = [&](const std::string& s,
                        std::optional<std::uint16_t>& out) {
    if (s == "any") {
      out = std::nullopt;
      return true;
    }
    std::uint64_t v = 0;
    if (!ParseUint(s, v) || v > 65535) return false;
    out = static_cast<std::uint16_t>(v);
    return true;
  };
  if (!parse_prefix(head[2], rule.src)) return set_error("bad src");
  if (!parse_port(head[3], rule.src_port)) return set_error("bad sport");
  if (!parse_prefix(head[5], rule.dst)) return set_error("bad dst");
  if (!parse_port(head[6], rule.dst_port)) return set_error("bad dport");

  for (const auto& opt : SplitOptions(trimmed.substr(open + 1, close - open - 1))) {
    const auto colon = opt.find(':');
    const std::string key =
        std::string(Trim(colon == std::string::npos ? opt
                                                    : opt.substr(0, colon)));
    const std::string_view value =
        colon == std::string::npos ? std::string_view{}
                                   : std::string_view(opt).substr(colon + 1);
    if (key == "msg") {
      auto v = Unquote(value);
      if (!v) return set_error("msg must be quoted");
      rule.msg = *v;
    } else if (key == "sid") {
      std::uint64_t v = 0;
      if (!ParseUint(Trim(value), v)) return set_error("bad sid");
      rule.sid = static_cast<std::uint32_t>(v);
    } else if (key == "content") {
      auto v = Unquote(value);
      if (!v) return set_error("content must be quoted");
      auto decoded = DecodeContent(*v);
      if (!decoded) return set_error("bad hex escape in content");
      rule.contents.push_back(ContentPattern{*decoded, false});
    } else if (key == "nocase") {
      if (rule.contents.empty()) return set_error("nocase without content");
      rule.contents.back().nocase = true;
    } else if (key == "iotcmd") {
      auto cmd = CommandFromName(Trim(value));
      if (!cmd) return set_error("unknown iotcmd");
      rule.iot_command = cmd;
    } else if (key == "iot_backdoor") {
      rule.require_iot_backdoor = true;
    } else if (key == "iot_auth_absent") {
      rule.require_iot_auth_absent = true;
    } else if (key == "http_path") {
      auto v = Unquote(value);
      if (!v) return set_error("http_path must be quoted");
      rule.http_path_prefix = *v;
    } else if (key == "http_auth_absent") {
      rule.require_http_auth_absent = true;
    } else if (key == "dns_qtype_any") {
      rule.require_dns_qtype_any = true;
    } else {
      return set_error("unknown option: " + key);
    }
  }
  return rule;
}

std::vector<Rule> ParseRules(std::string_view text,
                             std::vector<std::string>* errors) {
  std::vector<Rule> rules;
  int line_no = 0;
  for (const auto& line : Split(text, '\n')) {
    ++line_no;
    std::string error;
    auto rule = ParseRule(line, &error);
    if (rule) {
      rules.push_back(std::move(*rule));
    } else if (!error.empty() && errors) {
      errors->push_back("line " + std::to_string(line_no) + ": " + error);
    }
  }
  return rules;
}

}  // namespace iotsec::sig
