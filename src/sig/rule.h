// Snort-lite rule language.
//
// Grammar (one rule per line; '#' starts a comment):
//
//   <action> <proto> <src> <sport> -> <dst> <dport> ( <options> )
//
//   action  := alert | block | pass
//   proto   := tcp | udp | ip
//   src/dst := any | a.b.c.d | a.b.c.d/len
//   sport   := any | <number>
//   options := option; option; ...
//     msg:"text"            human-readable description
//     sid:<number>          stable rule id
//     content:"bytes"       payload substring; |41 42| embeds hex; multiple
//                           contents must all match
//     nocase                applies to the preceding content
//     iotcmd:<name>         IoTCtl command must equal <name> (turn_on, ...)
//     iot_backdoor          IoTCtl backdoor flag must be set
//     iot_auth_absent       IoTCtl command carries no auth token
//     http_path:"/p"        HTTP request path must start with "/p"
//     http_auth_absent      HTTP request carries no Authorization header
//     dns_qtype_any         DNS question of type ANY (amplification probe)
//
// This captures the subset of Snort that the paper's µmboxes exercise
// while staying parseable in a few hundred lines.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/address.h"
#include "proto/frame.h"
#include "proto/iotctl.h"

namespace iotsec::sig {

enum class RuleAction : std::uint8_t { kAlert, kBlock, kPass };

enum class RuleProto : std::uint8_t { kIp, kTcp, kUdp };

struct ContentPattern {
  std::string bytes;  // decoded (|hex| escapes resolved)
  bool nocase = false;
};

struct Rule {
  RuleAction action = RuleAction::kAlert;
  RuleProto proto = RuleProto::kIp;
  net::Ipv4Prefix src = net::Ipv4Prefix::Any();
  net::Ipv4Prefix dst = net::Ipv4Prefix::Any();
  std::optional<std::uint16_t> src_port;  // nullopt = any
  std::optional<std::uint16_t> dst_port;
  std::vector<ContentPattern> contents;

  // IoT-specific options.
  std::optional<proto::IotCommand> iot_command;
  bool require_iot_backdoor = false;
  bool require_iot_auth_absent = false;
  std::optional<std::string> http_path_prefix;
  bool require_http_auth_absent = false;
  bool require_dns_qtype_any = false;

  std::string msg;
  std::uint32_t sid = 0;

  /// Checks every non-content predicate against the frame. Content
  /// matching is done by the RuleSet's shared automaton.
  [[nodiscard]] bool HeaderMatches(const proto::ParsedFrame& frame) const;

  /// Serializes back to rule-language text (round-trip aid for the crowd
  /// repository, which exchanges rules as text).
  [[nodiscard]] std::string ToText() const;
};

/// Parses one rule line. Returns nullopt (with a reason in *error) on
/// malformed input; comments/blank lines yield nullopt with empty error.
std::optional<Rule> ParseRule(std::string_view line, std::string* error);

/// Where ParseRules found what it returned (1-based line numbers).
struct RuleLines {
  /// rules[i] is the line of the i-th returned rule.
  std::vector<int> rules;
  /// One (line, reason) per malformed line, in line order.
  std::vector<std::pair<int, std::string>> errors;
};

/// Parses a newline-separated rule file; malformed lines are collected
/// into `errors` ("line N: reason") and skipped. `lines`, when given,
/// receives each rule's and each error's line.
std::vector<Rule> ParseRules(std::string_view text,
                             std::vector<std::string>* errors = nullptr,
                             RuleLines* lines = nullptr);

}  // namespace iotsec::sig
